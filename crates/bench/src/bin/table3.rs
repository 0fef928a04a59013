//! Reproduces paper Table 3: prediction accuracy (MAPE, Pearson,
//! Spearman) of PMEvo, uops.info, IACA, llvm-mca and Ithemal on
//! port-mapping-bound experiments on the SKL-like machine.
//!
//! Usage: `cargo run --release -p pmevo-bench --bin table3
//!         [--n 2000] [--full (= 40000)] [--scale 1] [--seed 3]`
//!
//! The PMEvo mapping is taken from the artifact cache (run `table2`
//! first) or inferred on the fly.

use pmevo_baselines::{mca_like, oracle, IacaLike, IthemalConfig, IthemalLike};
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
    let seed = num_flag(args, "--seed", 3u64)?;

    let skl = platforms::skl();
    eprintln!("[table3] measuring {n} size-5 experiments on SKL ...");
    let experiments = sample_experiments(skl.isa().len(), 5, n, seed);
    let mut backend = sim_backend(&skl);
    let benchmark = measure_benchmark_set(&mut backend, &experiments);

    eprintln!("[table3] loading/inferring the PMEvo mapping ...");
    let pmevo = MappingPredictor::new("PMEvo", pmevo_mapping_cached(&skl, scale, seed));
    eprintln!("[table3] training the Ithemal-like baseline ...");
    let ithemal = IthemalLike::train(&skl, &IthemalConfig::default());
    let uops_info = oracle(&skl);
    let iaca = IacaLike::new(&skl);
    let mca = mca_like(&skl);

    let predictors: Vec<&dyn ThroughputPredictor> =
        vec![&pmevo, &uops_info, &iaca, &mca, &ithemal];

    println!("\nTable 3: prediction accuracy on SKL ({n} experiments of size 5)\n");
    let mut table = Table::new(vec!["", "MAPE", "Pearson CC", "Spearman CC"]);
    for p in predictors {
        let (_, summary) = evaluate_predictor(p, &benchmark);
        table.row(vec![
            p.name().to_string(),
            format!("{:.1}%", summary.mape),
            format!("{:.2}", summary.pearson),
            format!("{:.2}", summary.spearman),
        ]);
    }
    println!("{table}");
    println!("Paper values: PMEvo 14.7%/0.98/0.85, uops.info 9.3%/0.92/0.88,");
    println!("IACA 8.0%/0.86/0.79, llvm-mca 9.7%/0.87/0.82, Ithemal 60.6%/0.35/0.54.");
    Ok(())
}
