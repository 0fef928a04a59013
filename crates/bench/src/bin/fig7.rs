//! Reproduces paper Figure 7: 35×35 heat maps of predicted versus
//! measured throughput for each (tool, platform) pair — PMEvo and
//! llvm-mca on all three machines; uops.info, IACA and Ithemal on SKL.
//!
//! ASCII renderings go to stdout; CSV bin dumps to the artifact
//! directory.
//!
//! Usage: `cargo run --release -p pmevo-bench --bin fig7
//!         [--n 1000] [--scale 1] [--seed 7] [--bins 35]`

use pmevo_baselines::{mca_like, oracle, IacaLike, IthemalConfig, IthemalLike};
use pmevo_bench::{
    artifact_dir, measure_benchmark_set, pmevo_mapping_cached, sample_experiments, sim_backend,
};
use pmevo_core::flags::{self, num_flag, Exit};
use pmevo_core::{MappingPredictor, MeasuredExperiment, ThroughputPredictor};
use pmevo_machine::{platforms, Platform};
use pmevo_stats::Heatmap;
use std::process::ExitCode;

fn heatmap_for(
    tool: &dyn ThroughputPredictor,
    benchmark: &[MeasuredExperiment],
    bins: usize,
) -> Heatmap {
    // The paper crops each panel to its interesting range; use the 99th
    // percentile of measured cycles as the limit.
    let mut measured: Vec<f64> = benchmark.iter().map(|m| m.throughput).collect();
    measured.sort_by(|a, b| a.partial_cmp(b).expect("finite measurements"));
    let limit = measured[(measured.len() * 99 / 100).min(measured.len() - 1)].max(1.0);
    let mut h = Heatmap::new(bins, limit);
    for me in benchmark {
        h.record(me.throughput, tool.predict(&me.experiment));
    }
    h
}

fn emit(platform: &Platform, tool: &dyn ThroughputPredictor, h: &Heatmap) {
    println!(
        "\n=== {} on {} (diag≤1 bin: {:.0}%, over-estimation bias {:+.2}) ===",
        tool.name(),
        platform.name(),
        100.0 * h.diagonal_fraction(1),
        h.over_estimation_bias(),
    );
    println!("{h}");
    let path = artifact_dir().join(format!(
        "fig7_{}_{}.csv",
        tool.name().replace(['/', '.', '-'], "_"),
        platform.name().to_lowercase()
    ));
    std::fs::write(&path, h.to_csv()).expect("write fig7 csv");
}

fn main() -> ExitCode {
    flags::run("", run)
}

fn run(args: &[String]) -> Result<(), Exit> {
    let n = num_flag(args, "--n", 1000usize)?;
    let scale = num_flag(args, "--scale", 1usize)?;
    let seed = num_flag(args, "--seed", 7u64)?;
    let bins = num_flag(args, "--bins", 35usize)?;

    println!("Figure 7: predicted vs measured heat maps ({n} experiments of size 5)");

    for platform in [platforms::skl(), platforms::zen(), platforms::a72()] {
        eprintln!("[fig7] measuring on {} ...", platform.name());
        let experiments = sample_experiments(platform.isa().len(), 5, n, seed);
        let mut backend = sim_backend(&platform);
        let benchmark = measure_benchmark_set(&mut backend, &experiments);

        let pmevo = MappingPredictor::new("PMEvo", pmevo_mapping_cached(&platform, scale, seed));
        emit(&platform, &pmevo, &heatmap_for(&pmevo, &benchmark, bins));
        let mca = mca_like(&platform);
        emit(&platform, &mca, &heatmap_for(&mca, &benchmark, bins));

        if platform.name() == "SKL" {
            let uops_info = oracle(&platform);
            emit(&platform, &uops_info, &heatmap_for(&uops_info, &benchmark, bins));
            let iaca = IacaLike::new(&platform);
            emit(&platform, &iaca, &heatmap_for(&iaca, &benchmark, bins));
            eprintln!("[fig7] training the Ithemal-like baseline ...");
            let ithemal = IthemalLike::train(&platform, &IthemalConfig::default());
            emit(&platform, &ithemal, &heatmap_for(&ithemal, &benchmark, bins));
        }
    }
    println!("\nCSV bin dumps written to {}", artifact_dir().display());
    Ok(())
}
