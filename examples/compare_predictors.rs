//! Compare throughput predictors on port-mapping-bound experiments —
//! the scenario of paper §5.3, as a library-API walkthrough.
//!
//! Run with:
//! `cargo run --release --example compare_predictors -- [SKL|ZEN|A72|TINY] [n]`
//!
//! Defaults: ZEN, 400 experiments of size 5. The ground-truth oracle
//! ("uops.info") and the deliberately coarse llvm-mca-style model bracket
//! what a good and a stale port mapping look like. Measurement goes
//! through the [`SimBackend`] measurement backend — swap it for a
//! `ReplayBackend` to rerun the comparison from a recorded artifact.

use pmevo::baselines::{mca_like, oracle, IthemalConfig, IthemalLike};
use pmevo::core::{Experiment, InstId, MeasurementBackend, ThroughputPredictor};
use pmevo::machine::{platforms, MeasureConfig, SimBackend};
use pmevo::stats::{AccuracySummary, Heatmap, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let mut args = std::env::args().skip(1);
    let which = args.next().unwrap_or_else(|| "ZEN".into());
    let n = match args.next() {
        None => 400,
        Some(s) => match s.parse::<usize>() {
            Ok(v) if v > 0 => v,
            _ => {
                eprintln!("error: n expects a positive number, got {s:?}");
                std::process::exit(1);
            }
        },
    };

    let Some(platform) = platforms::by_name(&which) else {
        eprintln!("error: unknown platform {which}; expected {}", platforms::NAMES);
        std::process::exit(2);
    };

    // Benchmark set: random multisets of size 5 (paper §5.3).
    let mut rng = StdRng::seed_from_u64(99);
    let experiments: Vec<Experiment> = (0..n)
        .map(|_| {
            let counts: Vec<(InstId, u32)> = (0..5)
                .map(|_| (InstId(rng.gen_range(0..platform.isa().len() as u32)), 1))
                .collect();
            Experiment::from_counts(&counts)
        })
        .collect();

    println!("measuring {n} experiments on {} ...", platform.name());
    let mut backend = SimBackend::new(platform.clone(), MeasureConfig::default());
    let measured = backend.measure_batch(&experiments);

    println!("training the Ithemal-like baseline ...");
    let ithemal = IthemalLike::train(&platform, &IthemalConfig::default());
    let uops_info = oracle(&platform);
    let mca = mca_like(&platform);
    let predictors: Vec<&dyn ThroughputPredictor> = vec![&uops_info, &mca, &ithemal];

    let mut table = Table::new(vec!["tool", "MAPE", "Pearson", "Spearman"]);
    for p in &predictors {
        let predictions: Vec<f64> = experiments.iter().map(|e| p.predict(e)).collect();
        let s = AccuracySummary::compute(&predictions, &measured);
        table.row(vec![
            p.name().to_string(),
            format!("{:.1}%", s.mape),
            format!("{:.2}", s.pearson),
            format!("{:.2}", s.spearman),
        ]);
    }
    println!("\n{table}");

    // A small heat map for the weakest predictor, Figure-7 style.
    let worst = &predictors[1];
    let mut heat = Heatmap::new(20, measured.iter().cloned().fold(1.0, f64::max));
    for (e, &m) in experiments.iter().zip(&measured) {
        heat.record(m, worst.predict(e));
    }
    println!(
        "{} on {} (points above the diagonal = over-estimation):\n{heat}",
        worst.name(),
        platform.name()
    );
}
