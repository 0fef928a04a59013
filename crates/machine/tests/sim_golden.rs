//! Bit-identity golden for the cycle-level simulator.
//!
//! Every built-in platform runs all of its singletons and a seeded set of
//! 1:1 and k:l pairs through `simulate_kernel` at the default measurement
//! shape (50-instruction bodies, 15 warm-up of 90 iterations); the
//! `sim_edge_cases` pipeline shapes (fetch width 1, window 1, blocking 0,
//! blocking > 1, multi-µop forms, dependency chains) run every singleton
//! and pair of the tiny ISA, also at a 0-of-3 iteration shape. Each set
//! is reduced to an FNV-1a digest of `(cycles_per_iter.to_bits(),
//! total_cycles)` per experiment, in order. The committed
//! `tests/fixtures/sim_golden.json` pins those digests across commits, so
//! a change to the simulator is correct only if this file stays as it is.

mod support;

use pmevo_core::binfmt::fnv1a;
use pmevo_core::json::{self, Value};
use pmevo_core::{Experiment, InstId, PortSet, UopEntry};
use pmevo_isa::LoopBuilder;
use pmevo_machine::{platforms, simulate_kernel, MeasureConfig, Platform};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use support::{custom_platform, platform_with};

/// Seeded pairs per platform, for each of the 1:1 and k:l sets.
const PAIRS: usize = 30;

/// How a set of experiments is turned into kernels and simulated.
struct Shape {
    register_file: Option<(usize, usize)>,
    warmup: u32,
    iters: u32,
}

/// The default measurement shape of [`MeasureConfig`].
fn default_shape() -> Shape {
    let config = MeasureConfig::default();
    Shape {
        register_file: None,
        warmup: config.warmup_iters,
        iters: config.warmup_iters + config.measure_iters,
    }
}

fn digest(platform: &Platform, experiments: &[Experiment], shape: &Shape) -> Value {
    let body_len = MeasureConfig::default().body_len;
    let mut bytes = Vec::with_capacity(16 * experiments.len());
    for e in experiments {
        let mut builder = LoopBuilder::new(platform.isa()).body_len(body_len);
        if let Some((gpr, vec)) = shape.register_file {
            builder = builder.register_file(gpr, vec);
        }
        let r = simulate_kernel(platform, &builder.build(e), shape.warmup, shape.iters);
        bytes.extend_from_slice(&r.cycles_per_iter.to_bits().to_le_bytes());
        bytes.extend_from_slice(&r.total_cycles.to_le_bytes());
    }
    Value::Obj(vec![
        ("count".into(), Value::UInt(experiments.len() as u64)),
        ("fnv".into(), Value::Str(format!("{:016x}", fnv1a(&bytes)))),
    ])
}

fn singletons(num_insts: usize) -> Vec<Experiment> {
    (0..num_insts as u32)
        .map(|i| Experiment::singleton(InstId(i)))
        .collect()
}

/// `PAIRS` seeded pairs of distinct forms with counts drawn from `counts`.
fn seeded_pairs(
    num_insts: usize,
    seed: u64,
    counts: std::ops::RangeInclusive<u32>,
) -> Vec<Experiment> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..PAIRS)
        .map(|_| {
            let a = rng.gen_range(0..num_insts as u32);
            let b = (a + rng.gen_range(1..num_insts as u32)) % num_insts as u32;
            let (m, n) = (rng.gen_range(counts.clone()), rng.gen_range(counts.clone()));
            Experiment::pair(InstId(a), m, InstId(b), n)
        })
        .collect()
}

/// Every 1:1 and 2:3 pair of distinct forms.
fn all_pairs(num_insts: usize) -> Vec<Experiment> {
    let mut out = Vec::new();
    for a in 0..num_insts as u32 {
        for b in a + 1..num_insts as u32 {
            out.push(Experiment::pair(InstId(a), 1, InstId(b), 1));
            out.push(Experiment::pair(InstId(a), 2, InstId(b), 3));
        }
    }
    out
}

fn platform_section(platform: &Platform) -> Value {
    let n = platform.isa().len();
    let seed = fnv1a(platform.name().as_bytes());
    let shape = default_shape();
    Value::Obj(vec![
        (
            "singletons".into(),
            digest(platform, &singletons(n), &shape),
        ),
        (
            "pairs_1_1".into(),
            digest(platform, &seeded_pairs(n, seed, 1..=1), &shape),
        ),
        (
            "pairs_k_l".into(),
            digest(platform, &seeded_pairs(n, seed ^ 1, 1..=5), &shape),
        ),
    ])
}

/// The tiny ISA with multi-µop forms, so instructions straddle fetch
/// groups and window slots.
fn multi_uop_platform() -> Platform {
    let u = |count, ports: &[usize]| UopEntry::new(count, PortSet::from_ports(ports));
    let decomp = vec![
        vec![u(2, &[0, 1]), u(1, &[2])],
        vec![u(1, &[0]), u(1, &[1, 3])],
        vec![u(3, &[2])],
        vec![u(1, &[3]), u(2, &[0, 1, 2, 3])],
        vec![u(1, &[3])],
        vec![u(1, &[1]), u(1, &[0, 2])],
    ];
    platform_with(decomp, 3, 5, 2, 4)
}

fn edge_section() -> Value {
    let shapes = [
        ("fetch1", custom_platform(1, 32, 1, 1), None),
        ("window1", custom_platform(2, 1, 1, 1), None),
        ("blocking0", custom_platform(4, 32, 0, 1), None),
        ("blocking3", custom_platform(4, 32, 3, 1), None),
        ("blocking6_window4", custom_platform(2, 4, 6, 3), None),
        ("multi_uop", multi_uop_platform(), None),
        ("chained", custom_platform(4, 64, 1, 12), Some((4, 4))),
        (
            "chained_blocking0",
            custom_platform(3, 16, 0, 5),
            Some((4, 4)),
        ),
    ];
    let mut fields = Vec::new();
    for (name, platform, register_file) in shapes {
        let n = platform.isa().len();
        let experiments: Vec<Experiment> = singletons(n).into_iter().chain(all_pairs(n)).collect();
        for (warmup, iters) in [(15, 90), (0, 3)] {
            let shape = Shape {
                register_file,
                warmup,
                iters,
            };
            fields.push((
                format!("{name}_{warmup}_{iters}"),
                digest(&platform, &experiments, &shape),
            ));
        }
    }
    Value::Obj(fields)
}

fn section(name: &str) -> Value {
    match name {
        "EDGE" => edge_section(),
        _ => platform_section(&platforms::by_name(name).expect("built-in platform")),
    }
}

const SECTIONS: [&str; 5] = ["SKL", "ZEN", "A72", "TINY", "EDGE"];

fn fixture_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/sim_golden.json")
}

fn check(name: &str) {
    let text = std::fs::read_to_string(fixture_path()).expect("golden fixture present");
    let committed = json::parse(&text).expect("golden fixture parses");
    let expected = committed.get(name).expect("section in the golden fixture");
    assert_eq!(
        json::write_pretty(&section(name)),
        json::write_pretty(expected),
        "simulator output on {name} drifted from the committed golden"
    );
}

#[test]
fn skl_matches_the_committed_golden() {
    check("SKL");
}

#[test]
fn zen_matches_the_committed_golden() {
    check("ZEN");
}

#[test]
fn a72_matches_the_committed_golden() {
    check("A72");
}

#[test]
fn tiny_matches_the_committed_golden() {
    check("TINY");
}

#[test]
fn edge_shapes_match_the_committed_golden() {
    check("EDGE");
}

/// Regenerates `tests/fixtures/sim_golden.json`. Run explicitly
/// (`cargo test -p pmevo-machine --test sim_golden -- --ignored`) only
/// after an intentional change of results, then commit the new file.
#[test]
#[ignore = "writes the committed golden fixture; run by hand after intentional result changes"]
fn regenerate_sim_golden_fixture() {
    let fields = SECTIONS
        .iter()
        .map(|&name| (name.to_owned(), section(name)))
        .collect();
    std::fs::write(
        fixture_path(),
        json::write_pretty(&Value::Obj(fields)) + "\n",
    )
    .expect("write golden fixture");
}
