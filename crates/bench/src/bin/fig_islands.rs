//! Island-model sweep: for each island count, run the same PMEvo
//! session at several fitness-worker counts and assert the reports are
//! bit-identical (timings aside) — the island scheduler must be a pure
//! function of the seed. The artifact records one row per island count.
//!
//! Usage: `cargo run --release -p pmevo-bench --bin fig_islands
//!         [--platform TINY|SKL|ZEN|A72] [--islands 1,2,4]
//!         [--workers 1,2,8] [--scale 1] [--seed 2]
//!         [--out BENCH_islands.json]`
//!
//! The default platform is TINY, sized so the whole sweep runs in
//! seconds — CI smoke-runs it twice and asserts the emitted
//! `BENCH_islands.json` is bit-identical. To keep that possible the
//! artifact contains **no wall-clock fields**: every value is a
//! deterministic function of the configuration and seed.

use pmevo::machine::platforms;
use pmevo::{Session, SessionReport};
use pmevo_bench::platform_flag;
use pmevo_core::flags::{self, flag, list_flag, num_flag, Exit};
use pmevo_core::json::{self, Value};
use pmevo_machine::Platform;
use pmevo_stats::Table;
use std::process::ExitCode;

fn run_cell(platform: &Platform, islands: u32, workers: u32, scale: usize, seed: u64) -> SessionReport {
    // The label must not mention the worker count: the whole point is
    // that the report — label included — is identical across workers.
    let mut session = Session::builder()
        .platform(platform.clone())
        .seed(seed)
        .population(60 * scale.max(1))
        .max_generations(20)
        .islands(islands)
        .accuracy_benchmarks(32)
        .label(format!("islands{}@{}", islands, platform.name()))
        .build()
        .expect("a platform-backed session configuration is always valid");
    session.set_worker_threads(workers as usize);
    session.run()
}

fn main() -> ExitCode {
    flags::run("", run)
}

fn run(args: &[String]) -> Result<(), Exit> {
    let scale = num_flag(args, "--scale", 1usize)?;
    let seed = num_flag(args, "--seed", 2u64)?;
    let island_counts: Vec<u32> = list_flag(args, "--islands", "1,2,4")?;
    let worker_counts: Vec<u32> = list_flag(args, "--workers", "1,2,8")?;
    let out = flag(args, "--out")?.unwrap_or_else(|| "BENCH_islands.json".into());
    // Default to the toy machine: the sweep re-runs every cell once per
    // worker count and is meant as a smoke-testable figure.
    let platforms = vec![platform_flag(args)?.unwrap_or_else(platforms::tiny)];

    println!("fig_islands: island-model worker invariance (seed {seed})\n");
    let mut table = Table::new(vec!["", "islands", "workers", "measurements", "D_avg", "held-out MAPE"]);
    let mut rows = Vec::new();
    for platform in &platforms {
        for &islands in &island_counts {
            // The first worker count is the reference; every other one
            // must reproduce its report bit-for-bit, timings aside.
            let reference = run_cell(platform, islands, worker_counts[0], scale, seed);
            for &workers in &worker_counts[1..] {
                let report = run_cell(platform, islands, workers, scale, seed);
                assert_eq!(
                    report.without_timings(),
                    reference.without_timings(),
                    "islands={islands} diverged between {} and {workers} workers on {}",
                    worker_counts[0],
                    platform.name(),
                );
            }
            table.row(vec![
                platform.name().to_owned(),
                islands.to_string(),
                worker_counts
                    .iter()
                    .map(|w| w.to_string())
                    .collect::<Vec<_>>()
                    .join("/"),
                reference.measurements_performed.to_string(),
                format!("{:.4}", reference.training_error.unwrap_or(f64::NAN)),
                reference
                    .accuracy
                    .as_ref()
                    .map(|a| format!("{:.1}%", a.mape))
                    .unwrap_or_else(|| "-".into()),
            ]);
            rows.push(Value::Obj(vec![
                ("platform".into(), Value::Str(platform.name().to_owned())),
                ("islands".into(), Value::UInt(u64::from(islands))),
                (
                    "workers_checked".into(),
                    Value::Arr(worker_counts.iter().map(|&w| Value::UInt(u64::from(w))).collect()),
                ),
                (
                    "measurements_performed".into(),
                    Value::UInt(reference.measurements_performed),
                ),
                (
                    "num_experiments".into(),
                    Value::UInt(reference.num_experiments as u64),
                ),
                (
                    "training_error".into(),
                    reference.training_error.map(Value::Num).unwrap_or(Value::Null),
                ),
                (
                    "holdout_mape".into(),
                    reference
                        .accuracy
                        .as_ref()
                        .map(|a| Value::Num(a.mape))
                        .unwrap_or(Value::Null),
                ),
            ]));
        }
    }
    println!("{table}");

    let artifact = Value::Obj(vec![
        ("seed".into(), Value::UInt(seed)),
        ("scale".into(), Value::UInt(scale as u64)),
        ("runs".into(), Value::Arr(rows)),
    ]);
    let text = json::write_pretty(&artifact);
    std::fs::write(&out, &text)
        .map_err(|e| Exit::failure(format!("error: cannot write {out}: {e}")))?;

    // Self-check: the artifact must parse back and cover every cell —
    // CI reruns the binary and diffs the bytes, so fail loudly here
    // rather than emit something half-written.
    let parsed = json::parse(&text).expect("emitted artifact parses");
    let runs = match &parsed {
        Value::Obj(fields) => match fields.iter().find(|(k, _)| k == "runs") {
            Some((_, Value::Arr(rows))) => rows.len(),
            _ => 0,
        },
        _ => 0,
    };
    assert_eq!(runs, platforms.len() * island_counts.len(), "artifact covers every cell");
    println!("artifact written to {out}");
    Ok(())
}
