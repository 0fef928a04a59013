//! Shared harness for the reproduction binaries (one binary per paper
//! table/figure; see DESIGN.md §4 for the full experiment index).
//!
//! Everything here is deliberately boring plumbing: benchmark-set
//! sampling, backend-based measurement, predictor evaluation, the
//! resolvers for the `--platform` and `--algorithm` names the binaries
//! share, and the artifact cache that lets `table3`/`table4`/`fig7`
//! reuse the mappings inferred by `table2` instead of re-running
//! inference. Flags themselves are parsed by [`pmevo_core::flags`], the
//! parser every front end uses: a malformed value or an unknown name
//! prints an `error: …` line and exits 1 or 2, never a panic.
//!
//! Measurement and inference go through the session API: a
//! [`SimBackend`] per platform, [`pmevo::Session`] for inference runs,
//! and [`selected_algorithm`] to swap PMEvo for one of the baseline
//! [`InferenceAlgorithm`]s from the command line.

use pmevo::Session;
use pmevo_core::flags::{self, Exit};
use pmevo_core::{
    Experiment, InferenceAlgorithm, InstId, MeasuredExperiment, MeasurementBackend,
    MeasurementBudget, SelectionPolicy, ThreeLevelMapping, ThroughputPredictor,
};
use pmevo_evo::{EvoConfig, PipelineConfig, PmEvoAlgorithm};
use pmevo_machine::{platforms, MeasureConfig, Platform, SimBackend};
use pmevo_stats::AccuracySummary;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};

/// Samples `count` random instruction multisets of the given `size`
/// (uniformly over multisets, as in the paper's benchmark sets, §5.3).
pub fn sample_experiments(
    num_insts: usize,
    size: u32,
    count: usize,
    seed: u64,
) -> Vec<Experiment> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let counts: Vec<(InstId, u32)> = (0..size)
                .map(|_| (InstId(rng.gen_range(0..num_insts as u32)), 1))
                .collect();
            Experiment::from_counts(&counts)
        })
        .collect()
}

/// The default measurement backend for a platform: the cycle-level
/// simulator with the paper's noisy measurement harness, batches
/// chunked across all cores.
pub fn sim_backend(platform: &Platform) -> SimBackend {
    SimBackend::new(platform.clone(), MeasureConfig::default())
}

/// Measures a benchmark set through a backend and pairs experiments
/// with throughputs.
pub fn measure_benchmark_set(
    backend: &mut dyn MeasurementBackend,
    experiments: &[Experiment],
) -> Vec<MeasuredExperiment> {
    let tps = backend.measure_batch(experiments);
    experiments
        .iter()
        .cloned()
        .zip(tps)
        .map(|(e, t)| MeasuredExperiment::new(e, t))
        .collect()
}

/// Evaluates a predictor on a measured benchmark set.
pub fn evaluate_predictor(
    predictor: &dyn ThroughputPredictor,
    benchmark: &[MeasuredExperiment],
) -> (Vec<f64>, AccuracySummary) {
    let predictions: Vec<f64> = benchmark
        .iter()
        .map(|me| predictor.predict(&me.experiment))
        .collect();
    let measured: Vec<f64> = benchmark.iter().map(|me| me.throughput).collect();
    let summary = AccuracySummary::compute(&predictions, &measured);
    (predictions, summary)
}

/// The artifact directory (inferred mappings, heat-map CSVs).
pub fn artifact_dir() -> PathBuf {
    let dir = std::env::var_os("PMEVO_ARTIFACTS")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("artifacts"));
    std::fs::create_dir_all(&dir).expect("create artifact directory");
    dir
}

/// Default pipeline configuration for simulator-scale inference runs.
///
/// The paper ran with a population of 100 000 on real machines over
/// hours; the defaults here are sized so the whole reproduction suite
/// runs in minutes. `scale` multiplies the population size for
/// higher-fidelity runs (`--full` uses 10).
pub fn default_pipeline_config(scale: usize, seed: u64) -> PipelineConfig {
    PipelineConfig {
        epsilon: 0.05,
        congruence_filtering: true,
        evo: EvoConfig {
            population_size: 300 * scale.max(1),
            max_generations: 50,
            seed,
            ..EvoConfig::default()
        },
        ..PipelineConfig::default()
    }
}

/// Builds the inference session the reproduction binaries run: the
/// selected algorithm over the platform's simulator backend.
/// `selection` and `budget` are recorded in the report (the explicit
/// algorithm must be configured to match — see [`selected_algorithm`]).
pub fn inference_session(
    platform: &Platform,
    algorithm: impl InferenceAlgorithm + Send + 'static,
    seed: u64,
    selection: SelectionPolicy,
    budget: MeasurementBudget,
) -> Session {
    Session::builder()
        .platform(platform.clone())
        .algorithm(algorithm)
        .seed(seed)
        .selection(selection)
        .budget(budget)
        .build()
        .expect("a platform-backed session configuration is always valid")
}

/// The artifact path of an inferred mapping, keyed by algorithm,
/// selection policy, platform and scale — so a baseline run can never
/// masquerade as the PMEvo mapping, and an adaptive (budget-capped) run
/// can never poison the one-shot cache that `table3`/`table4`/`fig7`
/// consume.
pub fn mapping_artifact_path(
    algorithm: &str,
    selection: SelectionPolicy,
    platform: &Platform,
    scale: usize,
) -> PathBuf {
    artifact_dir().join(format!(
        "{}_{}_{}_x{scale}.json",
        algorithm.to_lowercase(),
        selection.slug(),
        platform.name().to_lowercase()
    ))
}

/// Infers a PMEvo mapping for `platform`, caching the result as JSON in
/// the artifact directory (keyed by algorithm, the one-shot selection
/// policy, platform name and scale).
///
/// # Panics
///
/// Panics on I/O or serialization failures, or if inference produces an
/// inconsistent mapping.
pub fn pmevo_mapping_cached(platform: &Platform, scale: usize, seed: u64) -> ThreeLevelMapping {
    let path = mapping_artifact_path("pmevo", SelectionPolicy::OneShot, platform, scale);
    if let Some(m) = load_mapping(&path, platform) {
        return m;
    }
    eprintln!(
        "[pmevo-bench] no cached mapping at {}; running inference (use `table2` to pre-compute)",
        path.display()
    );
    let algorithm = PmEvoAlgorithm::new(default_pipeline_config(scale, seed));
    let report = inference_session(
        platform,
        algorithm,
        seed,
        SelectionPolicy::OneShot,
        MeasurementBudget::UNLIMITED,
    )
    .run();
    save_mapping(&path, &report.mapping);
    report.mapping
}

/// Loads a cached mapping if present and shape-compatible.
pub fn load_mapping(path: &Path, platform: &Platform) -> Option<ThreeLevelMapping> {
    let data = std::fs::read_to_string(path).ok()?;
    let mapping = ThreeLevelMapping::from_json(&data).ok()?;
    (mapping.num_insts() == platform.isa().len()
        && mapping.num_ports() == platform.num_ports())
    .then_some(mapping)
}

/// Saves a mapping as pretty JSON.
///
/// # Panics
///
/// Panics on I/O failure.
pub fn save_mapping(path: &Path, mapping: &ThreeLevelMapping) {
    let json = mapping.to_json_pretty();
    std::fs::write(path, json).expect("write mapping artifact");
}

/// The platform named by the shared `--platform NAME` flag, if given.
///
/// # Errors
///
/// An unknown platform name (exit 2) or a missing value (exit 1).
pub fn platform_flag(args: &[String]) -> Result<Option<Platform>, Exit> {
    flags::name_flag(args, "--platform", platforms::NAMES, platforms::by_name)
}

/// The platforms selected by the shared `--platform NAME` flag
/// (default: the three paper platforms; `TINY` is opt-in).
///
/// # Errors
///
/// As [`platform_flag`].
pub fn selected_platforms(args: &[String]) -> Result<Vec<Platform>, Exit> {
    Ok(match platform_flag(args)? {
        Some(platform) => vec![platform],
        None => vec![platforms::skl(), platforms::zen(), platforms::a72()],
    })
}

/// Resolves the shared `--algorithm NAME` flag into an
/// [`InferenceAlgorithm`] (default: `pmevo`). `scale` and `seed` only
/// affect the algorithms that use them; the shared
/// `--selection`/`--budget`/`--top-k` flags only affect PMEvo.
///
/// # Errors
///
/// An unknown algorithm or selection policy name (exit 2) or a
/// malformed `--top-k`/`--budget` (exit 1).
pub fn selected_algorithm(
    args: &[String],
    scale: usize,
    seed: u64,
) -> Result<Box<dyn InferenceAlgorithm + Send>, Exit> {
    match flags::flag(args, "--algorithm")?.as_deref().unwrap_or("pmevo") {
        "pmevo" => {
            let mut config = default_pipeline_config(scale, seed);
            config.selection = flags::selection_flag(args)?;
            config.budget = flags::budget_flag(args)?;
            Ok(Box::new(PmEvoAlgorithm::new(config)))
        }
        name => pmevo_baselines::by_name(name, seed)
            .ok_or_else(|| flags::unknown_name("--algorithm", name, "pmevo, counting, random or lp")),
    }
}

#[cfg(test)]
#[path = "../../../tests/support/mod.rs"]
mod test_support;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::TempDir;

    #[test]
    fn sampling_is_deterministic_and_sized() {
        let a = sample_experiments(50, 5, 10, 1);
        let b = sample_experiments(50, 5, 10, 1);
        assert_eq!(a, b);
        assert!(a.iter().all(|e| e.total_insts() == 5));
        assert_ne!(a, sample_experiments(50, 5, 10, 2));
    }

    #[test]
    fn backend_measurement_pairs_experiments_in_order() {
        let p = platforms::skl();
        let exps = sample_experiments(p.isa().len(), 3, 6, 3);
        let mut backend = SimBackend::new(p.clone(), MeasureConfig::exact());
        let benchmark = measure_benchmark_set(&mut backend, &exps);
        assert_eq!(benchmark.len(), exps.len());
        let measurer = pmevo_machine::Measurer::new(&p, MeasureConfig::exact());
        for (me, e) in benchmark.iter().zip(&exps) {
            assert_eq!(&me.experiment, e);
            assert_eq!(me.throughput, measurer.measure(e));
        }
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn args_parser_handles_flags_and_values() {
        let a = args(&["--n", "42", "--full", "--platform", "zen", "--seed", "9"]);
        assert_eq!(flags::num_flag(&a, "--n", 0usize), Ok(42));
        assert!(flags::switch(&a, "--full"));
        assert_eq!(flags::num_flag(&a, "--seed", 0u64), Ok(9));
        assert_eq!(selected_platforms(&a).unwrap()[0].name(), "ZEN");
        assert_eq!(selected_platforms(&[]).unwrap().len(), 3);
        let err = selected_platforms(&args(&["--platform", "NOPE"])).unwrap_err();
        assert_eq!(err.message, "error: unknown --platform NOPE; expected SKL, ZEN, A72 or TINY");
        assert_eq!(err.code, 2);
    }

    #[test]
    fn algorithm_flag_selects_each_implementation() {
        for (flag, name) in [
            ("pmevo", "PMEvo"),
            ("counting", "counting"),
            ("random", "random"),
            ("lp", "lp"),
        ] {
            let a = args(&["--algorithm", flag]);
            assert_eq!(selected_algorithm(&a, 1, 0).unwrap().name(), name);
        }
        assert_eq!(selected_algorithm(&[], 1, 0).unwrap().name(), "PMEvo");
        let err = selected_algorithm(&args(&["--algorithm", "gpt"]), 1, 0).err().unwrap();
        assert_eq!(err.code, 2);
    }

    #[test]
    fn mapping_cache_roundtrip() {
        let p = platforms::a72();
        let dir = TempDir::new("bench");
        let path = dir.join("m.json");
        save_mapping(&path, p.ground_truth());
        let m = load_mapping(&path, &p).expect("roundtrip");
        assert_eq!(&m, p.ground_truth());
        // Mismatched platform is rejected.
        assert!(load_mapping(&path, &platforms::skl()).is_none());
    }
}
