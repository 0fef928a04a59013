//! Criterion bench behind Figure 8: the bottleneck simulation algorithm
//! (a reused `ThroughputSolver` and the naive rescan oracle) against the
//! simplex LP solver, across port counts and experiment lengths.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pmevo_bench::sample_experiments;
use pmevo_core::bottleneck::{lp_throughput, throughput_naive, MassVector};
use pmevo_core::{ThreeLevelMapping, ThroughputSolver};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

const NUM_INSTS: usize = 100;

fn mass_vectors(num_ports: usize, exp_len: u32, count: usize, seed: u64) -> Vec<MassVector> {
    let mut rng = StdRng::seed_from_u64(seed);
    let indiv = vec![1.0; NUM_INSTS];
    let mapping = ThreeLevelMapping::sample_random(&mut rng, NUM_INSTS, num_ports, &indiv);
    sample_experiments(NUM_INSTS, exp_len, count, seed ^ 0x5EED)
        .iter()
        .map(|e| mapping.uop_masses(e))
        .collect()
}

fn bench_ports(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig8a_ports");
    for ports in [4usize, 6, 8, 10, 12, 14] {
        let inputs = mass_vectors(ports, 4, 16, ports as u64);
        group.bench_with_input(BenchmarkId::new("bottleneck_fast", ports), &inputs, |b, mv| {
            let mut solver = ThroughputSolver::new();
            b.iter(|| {
                for m in mv {
                    black_box(solver.throughput(m));
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("bottleneck_naive", ports), &inputs, |b, mv| {
            b.iter(|| {
                for m in mv {
                    black_box(throughput_naive(m));
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("lp_solver", ports), &inputs, |b, mv| {
            b.iter(|| {
                for m in mv {
                    black_box(lp_throughput(m));
                }
            })
        });
    }
    group.finish();
}

fn bench_lengths(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig8b_lengths");
    for len in [1u32, 2, 4, 6, 8, 10] {
        let inputs = mass_vectors(10, len, 16, 100 + u64::from(len));
        group.bench_with_input(BenchmarkId::new("bottleneck_fast", len), &inputs, |b, mv| {
            let mut solver = ThroughputSolver::new();
            b.iter(|| {
                for m in mv {
                    black_box(solver.throughput(m));
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("lp_solver", len), &inputs, |b, mv| {
            b.iter(|| {
                for m in mv {
                    black_box(lp_throughput(m));
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ports, bench_lengths);
criterion_main!(benches);
