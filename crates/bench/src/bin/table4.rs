//! Reproduces paper Table 4: prediction accuracy of PMEvo versus
//! llvm-mca on the ZEN-like and A72-like machines (the platforms out of
//! reach of counter-based approaches).
//!
//! Usage: `cargo run --release -p pmevo-bench --bin table4
//!         [--n 2000] [--full (= 40000)] [--scale 1] [--seed 4]`

use pmevo_baselines::mca_like;
use pmevo_bench::{
    evaluate_predictor, measure_benchmark_set, pmevo_mapping_cached, sample_experiments,
    sim_backend,
};
use pmevo_core::flags::{self, num_flag, switch, Exit};
use pmevo_core::{MappingPredictor, ThroughputPredictor};
use pmevo_machine::platforms;
use pmevo_stats::Table;
use std::process::ExitCode;

fn main() -> ExitCode {
    flags::run("", run)
}

fn run(args: &[String]) -> Result<(), Exit> {
    let n = num_flag(args, "--n", if switch(args, "--full") { 40_000usize } else { 2_000 })?;
    let scale = num_flag(args, "--scale", 1usize)?;
    let seed = num_flag(args, "--seed", 4u64)?;

    println!("Table 4: prediction accuracy on ZEN and A72 ({n} experiments of size 5)\n");
    let mut table = Table::new(vec!["", "MAPE", "Pearson CC", "Spearman CC"]);

    for platform in [platforms::zen(), platforms::a72()] {
        eprintln!("[table4] measuring on {} ...", platform.name());
        let experiments = sample_experiments(platform.isa().len(), 5, n, seed);
        let mut backend = sim_backend(&platform);
        let benchmark = measure_benchmark_set(&mut backend, &experiments);
        let pmevo = MappingPredictor::new(
            format!("PMEvo ({})", platform.name()),
            pmevo_mapping_cached(&platform, scale, seed),
        );
        let mca = mca_like(&platform);
        for p in [&pmevo as &dyn ThroughputPredictor, &mca] {
            let (_, summary) = evaluate_predictor(p, &benchmark);
            let label = if p.name().starts_with("PMEvo") {
                p.name().to_string()
            } else {
                format!("{} ({})", p.name(), platform.name())
            };
            table.row(vec![
                label,
                format!("{:.1}%", summary.mape),
                format!("{:.2}", summary.pearson),
                format!("{:.2}", summary.spearman),
            ]);
        }
    }
    println!("{table}");
    println!("Paper values: PMEvo(ZEN) 13.5%/0.94/0.87, llvm-mca(ZEN) 50.8%/0.86/0.54,");
    println!("PMEvo(A72) 21.4%/0.68/0.77, llvm-mca(A72) 65.3%/0.67/0.68.");
    Ok(())
}
