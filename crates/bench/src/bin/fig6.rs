//! Reproduces paper Figure 6: mean absolute percentage error of the
//! analytical throughput model (with the ground-truth/uops.info mapping)
//! and of the IACA-like pipeline model against measurements, for
//! experiment lengths 1–15.
//!
//! Usage: `cargo run --release -p pmevo-bench --bin fig6 [--n 200] [--max-len 15] [--seed 6]`
//!
//! Paper defaults: 2 000 experiments per length (`--n 2000`).

use pmevo_baselines::{oracle, IacaLike};
use pmevo_bench::{measure_benchmark_set, sample_experiments, sim_backend};
use pmevo_core::flags::{self, num_flag, switch, Exit};
use pmevo_core::{Experiment, MeasurementBackend, ThroughputPredictor};
use pmevo_machine::platforms;
use pmevo_stats::{mape, Table};
use std::process::ExitCode;

fn main() -> ExitCode {
    flags::run("", run)
}

fn run(args: &[String]) -> Result<(), Exit> {
    let n = num_flag(args, "--n", if switch(args, "--full") { 2000usize } else { 200 })?;
    let max_len = num_flag(args, "--max-len", 15usize)?;
    let seed = num_flag(args, "--seed", 6u64)?;

    let skl = platforms::skl();
    let uops_info = oracle(&skl);
    let iaca = IacaLike::new(&skl);
    let mut backend = sim_backend(&skl);

    println!("Figure 6: model error vs experiment length (SKL, n={n} per length)\n");
    let mut table = Table::new(vec!["length", "uops.info MAPE", "IACA MAPE"]);
    let mut csv = String::from("length,uopsinfo_mape,iaca_mape\n");

    for len in 1..=max_len {
        let experiments: Vec<Experiment> = if len == 1 {
            skl.isa().ids().map(Experiment::singleton).collect()
        } else {
            sample_experiments(skl.isa().len(), len as u32, n, seed + len as u64)
        };
        let benchmark = measure_benchmark_set(&mut backend, &experiments);
        let measured: Vec<f64> = benchmark.iter().map(|m| m.throughput).collect();
        let pred_uops: Vec<f64> = benchmark
            .iter()
            .map(|m| uops_info.predict(&m.experiment))
            .collect();
        let pred_iaca: Vec<f64> = benchmark
            .iter()
            .map(|m| iaca.predict(&m.experiment))
            .collect();
        let m_uops = mape(&pred_uops, &measured);
        let m_iaca = mape(&pred_iaca, &measured);
        table.row(vec![
            len.to_string(),
            format!("{m_uops:5.1}%"),
            format!("{m_iaca:5.1}%"),
        ]);
        csv.push_str(&format!("{len},{m_uops:.3},{m_iaca:.3}\n"));
    }
    println!("{table}");
    eprintln!(
        "[fig6] {} simulator measurements performed",
        backend.stats().measurements_performed
    );

    let path = pmevo_bench::artifact_dir().join("fig6.csv");
    std::fs::write(&path, csv).expect("write fig6 csv");
    println!("series written to {}", path.display());
    println!("\nExpected shape (paper): low error at short lengths, rising for");
    println!("the pure port-mapping model as scheduling effects accumulate;");
    println!("the pipeline-aware IACA-like model stays lower.");
    Ok(())
}
