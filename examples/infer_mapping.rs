//! Infer a port mapping for one of the paper's three (simulated)
//! machines through the [`Session`] API and report the Table-2-style
//! statistics.
//!
//! Run with:
//! `cargo run --release --example infer_mapping -- [SKL|ZEN|A72|TINY] [population]`
//!
//! Defaults: A72 (the platform the paper highlights as out of reach for
//! counter-based tools), population 300.

use pmevo::machine::platforms;
use pmevo::Session;

fn main() {
    let mut args = std::env::args().skip(1);
    let which = args.next().unwrap_or_else(|| "A72".into());
    let population = match args.next() {
        None => 300,
        Some(s) => match s.parse::<usize>() {
            Ok(v) if v > 0 => v,
            _ => {
                eprintln!("error: population expects a positive number, got {s:?}");
                std::process::exit(1);
            }
        },
    };

    let Some(platform) = platforms::by_name(&which) else {
        eprintln!("error: unknown platform {which}; expected {}", platforms::NAMES);
        std::process::exit(2);
    };

    println!(
        "PMEvo inference on {} ({} forms, {} ports, population {population})",
        platform.name(),
        platform.isa().len(),
        platform.num_ports()
    );

    let report = Session::builder()
        .platform(platform.clone())
        .seed(0xA72)
        .population(population)
        .max_generations(50)
        .accuracy_benchmarks(256)
        .build()
        .expect("the session configuration is valid")
        .run();

    println!("\n{report}");

    // How well does the inferred mapping track the hidden ground truth
    // on singleton experiments? (The session's accuracy block already
    // reports held-out multiset benchmarks.)
    let gt = platform.ground_truth();
    let sample: Vec<_> = (0..platform.isa().len() as u32)
        .step_by(17)
        .map(|i| pmevo::core::Experiment::singleton(pmevo::core::InstId(i)))
        .collect();
    println!("\nspot check (inferred vs ground-truth model, singleton experiments):");
    for e in sample.iter().take(8) {
        println!(
            "  {e}: inferred {:.2}, ground truth {:.2}",
            report.mapping.throughput(e),
            gt.throughput(e)
        );
    }
}
