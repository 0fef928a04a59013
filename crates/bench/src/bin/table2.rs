//! Reproduces paper Table 2: PMEvo mapping characteristics — one
//! inference [`pmevo::Session`] per platform, reporting benchmarking
//! time, inference time, measurement counts, congruence ratio and
//! distinct-µop count. The inferred mappings are cached in the artifact
//! directory for `table3`, `table4` and `fig7`, next to the full
//! session reports.
//!
//! Usage: `cargo run --release -p pmevo-bench --bin table2
//!         [--platform SKL|ZEN|A72|TINY] [--algorithm pmevo|counting|random|lp]
//!         [--selection one-shot|disagreement|uniform] [--top-k 16]
//!         [--budget N] [--scale 1] [--seed 2] [--jobs 1]`
//!
//! The paper ran with population 100 000 over hours of machine time;
//! `--scale N` multiplies the default population of 300 (use `--scale 10`
//! with `--full`-style patience for higher fidelity). `--jobs N` runs
//! the per-platform sessions concurrently over a shared worker pool.
//! A round-based `--selection` (with `--budget`) runs PMEvo's adaptive
//! experiment scheduler; its artifacts are keyed by the policy slug so
//! they never collide with the one-shot cache.

use pmevo::{Service, Session};
use pmevo_bench::{
    artifact_dir, mapping_artifact_path, save_mapping, selected_algorithm, selected_platforms,
};
use pmevo_core::flags::{self, num_flag, positive_flag, Exit};
use pmevo_stats::Table;
use std::process::ExitCode;

fn main() -> ExitCode {
    flags::run("", run)
}

fn run(args: &[String]) -> Result<(), Exit> {
    let scale = num_flag(args, "--scale", 1usize)?;
    let seed = num_flag(args, "--seed", 2u64)?;
    let jobs = positive_flag(args, "--jobs", 1)?;
    let selection = flags::selection_flag(args)?;
    let budget = flags::budget_flag(args)?;
    let platforms = selected_platforms(args)?;

    println!(
        "Table 2: PMEvo mapping characteristics (population {}, ε = 0.05)\n",
        300 * scale.max(1)
    );
    let mut table = Table::new(vec![
        "",
        "benchmarking time",
        "inference time",
        "measurements",
        "insns found congruent",
        "number of µops",
    ]);

    let sessions = platforms
        .iter()
        .map(|platform| {
            eprintln!("[table2] queueing inference for {} ...", platform.name());
            Ok(pmevo_bench::inference_session(
                platform,
                selected_algorithm(args, scale, seed)?,
                seed,
                selection,
                budget,
            ))
        })
        .collect::<Result<Vec<Session>, Exit>>()?;
    let reports = Service::new(jobs).run_many(sessions);

    for (platform, report) in platforms.iter().zip(reports) {
        // Artifacts are keyed by algorithm *and* selection policy so a
        // baseline run can never masquerade as the PMEvo mapping that
        // `pmevo_mapping_cached` (and thus table3/table4/fig7) picks up,
        // and a budget-capped adaptive run can never poison the
        // one-shot cache — even when `--jobs` writes them concurrently.
        let path = mapping_artifact_path(&report.algorithm, selection, platform, scale);
        save_mapping(&path, &report.mapping);
        let report_path = artifact_dir().join(format!(
            "session_{}_{}_{}_x{scale}.json",
            report.algorithm.to_lowercase(),
            selection.slug(),
            platform.name().to_lowercase()
        ));
        std::fs::write(&report_path, report.to_json_pretty()).expect("write session report");
        eprintln!(
            "[table2] {}: D_avg = {:.4}, mapping cached at {}, report at {}",
            platform.name(),
            report.training_error.unwrap_or(f64::NAN),
            path.display(),
            report_path.display()
        );
        table.row(vec![
            platform.name().to_string(),
            format!("{:.1?}", report.benchmarking_time),
            format!("{:.1?}", report.inference_time),
            report.measurements_performed.to_string(),
            format!("{:.0}%", 100.0 * report.congruent_fraction),
            report.mapping.num_distinct_uops().to_string(),
        ]);
    }
    println!("{table}");
    println!("Paper values (hardware scale): benchmarking 20h/27h/74h,");
    println!("inference 5h/21h/12h, congruent 69%/53%/56%, µops 17/15/9.");
    Ok(())
}
