//! Reproduces paper Figure 8: execution-time comparison of the
//! bottleneck simulation algorithm against the LP solver —
//! (a) varying the number of ports with experiments of length 4, and
//! (b) varying the experiment length with 10 ports.
//!
//! The workload matches §5.4: randomly generated three-level mappings
//! over an artificial 100-instruction ISA, random experiments, median of
//! per-(mapping, experiment) mean execution times.
//!
//! Usage: `cargo run --release -p pmevo-bench --bin fig8
//!         [--mappings 8] [--experiments 32] [--max-ports 20] [--seed 8]`

use pmevo_bench::{artifact_dir, sample_experiments};
use pmevo_core::flags::{self, num_flag, Exit};
use pmevo_core::bottleneck::lp_throughput;
use pmevo_core::{Experiment, ThreeLevelMapping, ThroughputSolver};
use pmevo_stats::Table;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;
use std::time::Instant;

const NUM_INSTS: usize = 100;

/// Times `f` adaptively: repeats until ≥ `budget_ms` elapsed (at least
/// once, at most `max_reps`), returns seconds per call.
fn time_per_call(mut f: impl FnMut() -> f64, budget_ms: f64, max_reps: u32) -> f64 {
    let start = Instant::now();
    let mut reps = 0u32;
    let mut sink = 0.0;
    while reps < max_reps {
        sink += f();
        reps += 1;
        if start.elapsed().as_secs_f64() * 1000.0 >= budget_ms {
            break;
        }
    }
    std::hint::black_box(sink);
    start.elapsed().as_secs_f64() / f64::from(reps)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    xs[xs.len() / 2]
}

/// One (ports, length) configuration: median seconds/experiment for the
/// bottleneck algorithm and the LP solver.
fn run_config(
    num_ports: usize,
    exp_len: u32,
    num_mappings: usize,
    num_experiments: usize,
    seed: u64,
) -> (f64, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let indiv = vec![1.0; NUM_INSTS];
    let mappings: Vec<ThreeLevelMapping> = (0..num_mappings)
        .map(|_| ThreeLevelMapping::sample_random(&mut rng, NUM_INSTS, num_ports, &indiv))
        .collect();
    let experiments: Vec<Experiment> =
        sample_experiments(NUM_INSTS, exp_len, num_experiments, seed ^ 0xABCD);

    let mut bn_times = Vec::new();
    let mut lp_times = Vec::new();
    let mut solver = ThroughputSolver::new();
    for m in &mappings {
        for e in &experiments {
            let masses = m.uop_masses(e);
            bn_times.push(time_per_call(|| solver.throughput(&masses), 0.5, 1000));
            lp_times.push(time_per_call(|| lp_throughput(&masses), 0.5, 200));
        }
    }
    (median(bn_times), median(lp_times))
}

fn main() -> ExitCode {
    flags::run("", run)
}

fn run(args: &[String]) -> Result<(), Exit> {
    let num_mappings = num_flag(args, "--mappings", 8usize)?;
    let num_experiments = num_flag(args, "--experiments", 32usize)?;
    let max_ports = num_flag(args, "--max-ports", 20usize)?;
    let seed = num_flag(args, "--seed", 8u64)?;
    let mut csv = String::from("panel,x,bn_seconds,lp_seconds\n");

    println!("Figure 8a: time/experiment vs number of ports (experiment length 4)\n");
    let mut ta = Table::new(vec!["ports", "bn algorithm (s)", "LP solver (s)", "speedup"]);
    for ports in 4..=max_ports {
        let (bn, lp) = run_config(ports, 4, num_mappings, num_experiments, seed + ports as u64);
        ta.row(vec![
            ports.to_string(),
            format!("{bn:.3e}"),
            format!("{lp:.3e}"),
            format!("{:.1}x", lp / bn),
        ]);
        csv.push_str(&format!("a,{ports},{bn:.6e},{lp:.6e}\n"));
    }
    println!("{ta}");

    println!("\nFigure 8b: time/experiment vs experiment length (10 ports)\n");
    let mut tb = Table::new(vec!["length", "bn algorithm (s)", "LP solver (s)", "speedup"]);
    for len in 1..=10u32 {
        let (bn, lp) = run_config(10, len, num_mappings, num_experiments, seed + 100 + u64::from(len));
        tb.row(vec![
            len.to_string(),
            format!("{bn:.3e}"),
            format!("{lp:.3e}"),
            format!("{:.1}x", lp / bn),
        ]);
        csv.push_str(&format!("b,{len},{bn:.6e},{lp:.6e}\n"));
    }
    println!("{tb}");

    let path = artifact_dir().join("fig8.csv");
    std::fs::write(&path, csv).expect("write fig8 csv");
    println!("series written to {}", path.display());
    println!("\nExpected shape (paper): the bottleneck algorithm wins by ~2 orders");
    println!("of magnitude at ≤10 ports; its exponential cost catches up as the");
    println!("port count grows toward 18–20.");
    Ok(())
}
