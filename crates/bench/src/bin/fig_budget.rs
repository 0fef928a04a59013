//! Budget-vs-quality sweep for adaptive experiment selection: for each
//! measurement budget × selection policy, run PMEvo inference through
//! the [`pmevo::Session`] API and report how much was measured and what
//! accuracy it bought (training `D_avg`, held-out MAPE, and the
//! per-round accuracy trajectory).
//!
//! Usage: `cargo run --release -p pmevo-bench --bin fig_budget
//!         [--platform TINY|SKL|ZEN|A72] [--budgets 24,48] [--top-k 4]
//!         [--scale 1] [--seed 2] [--jobs 1] [--out BENCH_selection.json]`
//!
//! The default platform is TINY (the 6-form toy machine), sized so the
//! whole sweep runs in seconds — CI smoke-runs it twice and asserts the
//! emitted `BENCH_selection.json` is bit-identical. To keep that
//! possible the artifact contains **no wall-clock fields**: every value
//! is a deterministic function of the configuration and seed.

use pmevo::machine::platforms;
use pmevo::{Service, Session, SessionReport};
use pmevo_bench::{default_pipeline_config, platform_flag};
use pmevo_core::flags::{self, flag, list_flag, num_flag, positive_flag, Exit};
use pmevo_core::json::{self, Value};
use pmevo_core::{MeasurementBudget, SelectionPolicy};
use pmevo_evo::PmEvoAlgorithm;
use pmevo_machine::Platform;
use pmevo_stats::Table;
use std::process::ExitCode;

/// One sweep cell: a policy at a budget on a platform.
struct Cell {
    platform: Platform,
    selection: SelectionPolicy,
    budget: MeasurementBudget,
}

fn session_for(cell: &Cell, scale: usize, seed: u64) -> Session {
    let mut config = default_pipeline_config(scale, seed);
    config.selection = cell.selection;
    config.budget = cell.budget;
    Session::builder()
        .platform(cell.platform.clone())
        .algorithm(PmEvoAlgorithm::new(config))
        .seed(seed)
        .selection(cell.selection)
        .budget(cell.budget)
        .accuracy_benchmarks(96)
        .label(format!(
            "{}@{}@{}",
            cell.selection.slug(),
            cell.platform.name(),
            cell.budget
        ))
        .build()
        .expect("a platform-backed session configuration is always valid")
}

/// The deterministic slice of a report that goes into the artifact.
fn run_to_json(cell: &Cell, report: &SessionReport) -> Value {
    let budget = match cell.budget.max_measurements {
        None => Value::Null,
        Some(n) => Value::UInt(n),
    };
    let rounds = report
        .rounds
        .iter()
        .map(|r| {
            Value::Obj(vec![
                ("round".into(), Value::UInt(u64::from(r.round))),
                ("submitted".into(), Value::UInt(r.experiments_submitted)),
                ("performed".into(), Value::UInt(r.measurements_performed)),
                ("cumulative".into(), Value::UInt(r.cumulative_measurements)),
                ("training_error".into(), Value::Num(r.training_error)),
            ])
        })
        .collect();
    let trajectory = report
        .accuracy_trajectory
        .iter()
        .map(|&m| Value::Num(m))
        .collect();
    Value::Obj(vec![
        ("platform".into(), Value::Str(cell.platform.name().to_owned())),
        ("policy".into(), cell.selection.to_json_value()),
        ("budget".into(), budget),
        (
            "measurements_performed".into(),
            Value::UInt(report.measurements_performed),
        ),
        (
            "num_experiments".into(),
            Value::UInt(report.num_experiments as u64),
        ),
        (
            "training_error".into(),
            report
                .training_error
                .map(Value::Num)
                .unwrap_or(Value::Null),
        ),
        (
            "holdout_mape".into(),
            report
                .accuracy
                .as_ref()
                .map(|a| Value::Num(a.mape))
                .unwrap_or(Value::Null),
        ),
        ("rounds".into(), Value::Arr(rounds)),
        ("accuracy_trajectory".into(), Value::Arr(trajectory)),
    ])
}

fn main() -> ExitCode {
    flags::run("", run)
}

fn run(args: &[String]) -> Result<(), Exit> {
    let scale = num_flag(args, "--scale", 1usize)?;
    let seed = num_flag(args, "--seed", 2u64)?;
    let jobs = positive_flag(args, "--jobs", 1)?;
    let top_k = positive_flag(args, "--top-k", 4)?;
    let budgets: Vec<u64> = list_flag(args, "--budgets", "24,48")?;
    let out = flag(args, "--out")?.unwrap_or_else(|| "BENCH_selection.json".into());
    // Default to the toy machine: the sweep is quadratic in corpus size
    // and meant as a smoke-testable figure, not an overnight run.
    let platforms = vec![platform_flag(args)?.unwrap_or_else(platforms::tiny)];

    let mut cells: Vec<Cell> = Vec::new();
    for platform in &platforms {
        // One-shot measures its full corpus regardless of budget: one
        // reference cell per platform.
        cells.push(Cell {
            platform: platform.clone(),
            selection: SelectionPolicy::OneShot,
            budget: MeasurementBudget::UNLIMITED,
        });
        for &budget in &budgets {
            for selection in [
                SelectionPolicy::Disagreement { top_k },
                SelectionPolicy::Uniform { top_k },
            ] {
                cells.push(Cell {
                    platform: platform.clone(),
                    selection,
                    budget: MeasurementBudget::measurements(budget),
                });
            }
        }
    }

    println!(
        "fig_budget: measurement budget vs inference quality (top-k {top_k}, seed {seed})\n"
    );
    let sessions: Vec<Session> = cells.iter().map(|c| session_for(c, scale, seed)).collect();
    let reports = Service::new(jobs).run_many(sessions);

    let mut table = Table::new(vec![
        "",
        "budget",
        "measurements",
        "rounds",
        "D_avg",
        "held-out MAPE",
    ]);
    let mut runs = Vec::with_capacity(cells.len());
    for (cell, report) in cells.iter().zip(&reports) {
        table.row(vec![
            format!("{}@{}", cell.selection.slug(), cell.platform.name()),
            cell.budget
                .max_measurements
                .map(|n| n.to_string())
                .unwrap_or_else(|| "∞".into()),
            report.measurements_performed.to_string(),
            report.rounds.len().to_string(),
            format!("{:.4}", report.training_error.unwrap_or(f64::NAN)),
            report
                .accuracy
                .as_ref()
                .map(|a| format!("{:.1}%", a.mape))
                .unwrap_or_else(|| "-".into()),
        ]);
        runs.push(run_to_json(cell, report));
    }
    println!("{table}");

    let artifact = Value::Obj(vec![
        ("seed".into(), Value::UInt(seed)),
        ("top_k".into(), Value::UInt(top_k as u64)),
        ("runs".into(), Value::Arr(runs)),
    ]);
    let text = json::write_pretty(&artifact);
    std::fs::write(&out, &text)
        .map_err(|e| Exit::failure(format!("error: cannot write {out}: {e}")))?;

    // Self-check: the artifact must parse back and cover every cell —
    // CI reruns the binary and diffs the bytes, so fail loudly here
    // rather than emit something half-written.
    let parsed = json::parse(&text).expect("emitted artifact parses");
    let n = parsed
        .get("runs")
        .and_then(Value::as_arr)
        .expect("artifact has a `runs` array")
        .len();
    assert_eq!(n, cells.len(), "artifact covers every sweep cell");
    println!("wrote {n} runs to {out}");
    Ok(())
}
