//! Byte-identity golden for the inference pipeline: `pmevo::evo::run`
//! on the TINY platform at a fixed seed, for the one-shot and the
//! disagreement-selection flows at one and two islands, plus the bytes
//! of a one-shot checkpoint halted after two generations.
//!
//! Each result is reduced to FNV-1a digests of its deterministic parts
//! (mapping, per-round stats without wall-clock time, per-round mappings,
//! the `D_avg` history bits) and its counts. The committed
//! `tests/fixtures/pipeline_golden.json` pins them across commits, so a
//! refactor of the pipeline is correct only if this file stays as it is.

mod support;

use pmevo::core::binfmt::fnv1a;
use pmevo::core::json::{self, Value};
use pmevo::core::{MeasurementBudget, SelectionPolicy};
use pmevo::evo::{run, CheckpointConfig, EvoConfig, IslandConfig, PipelineConfig, PipelineResult};
use pmevo::machine::{platforms, MeasureConfig, SimBackend};
use pmevo::SessionCheckpoint;
use std::path::{Path, PathBuf};
use std::time::Duration;
use support::TempDir;

const SEED: u64 = 31_337;

fn config(adaptive: bool, islands: u32) -> PipelineConfig {
    let mut config = PipelineConfig {
        evo: EvoConfig {
            population_size: 24,
            max_generations: 10,
            num_threads: 2,
            seed: SEED,
            ..EvoConfig::default()
        },
        islands: IslandConfig {
            count: islands,
            ..IslandConfig::default()
        },
        ..PipelineConfig::default()
    };
    if adaptive {
        config.selection = SelectionPolicy::Disagreement { top_k: 3 };
        config.budget = MeasurementBudget::measurements(30);
    }
    config
}

fn run_tiny(config: &PipelineConfig) -> PipelineResult {
    let platform = platforms::tiny();
    let mut backend = SimBackend::new(platform.clone(), MeasureConfig::default());
    run(
        platform.isa().len(),
        platform.num_ports(),
        &mut backend,
        config,
    )
}

fn hex(digest: u64) -> Value {
    Value::Str(format!("{digest:016x}"))
}

fn digest_result(r: &PipelineResult) -> Value {
    let rounds: String = r
        .rounds
        .iter()
        .map(|round| json::write_compact(&round.without_timing().to_json_value()) + "\n")
        .collect();
    let round_mappings: String = r
        .round_mappings
        .iter()
        .map(|m| m.to_json() + "\n")
        .collect();
    let history: Vec<u8> = r
        .evo
        .history
        .iter()
        .flat_map(|e| e.to_bits().to_le_bytes())
        .collect();
    Value::Obj(vec![
        ("mapping".into(), hex(fnv1a(r.mapping.to_json().as_bytes()))),
        ("rounds".into(), hex(fnv1a(rounds.as_bytes()))),
        (
            "round_mappings".into(),
            hex(fnv1a(round_mappings.as_bytes())),
        ),
        ("history".into(), hex(fnv1a(&history))),
        (
            "measurements_performed".into(),
            Value::UInt(r.measurements_performed),
        ),
        ("num_classes".into(), Value::UInt(r.num_classes as u64)),
        (
            "num_experiments".into(),
            Value::UInt(r.num_experiments as u64),
        ),
    ])
}

/// Halts a one-shot, two-island run after its second generation and
/// resumes it. Returns the checkpoint's bytes with the wall-clock fields
/// zeroed, and the resumed run's digest.
fn halt_and_resume_one_shot(dir: &Path) -> (String, Value) {
    let path = dir.join("ck.json");
    let mut config = config(false, 2);
    config.checkpoint = Some(CheckpointConfig {
        halt_after: Some(2),
        ..CheckpointConfig::new(&path, 1)
    });
    run_tiny(&config);
    let mut cp = SessionCheckpoint::load(&path).expect("halted run wrote a checkpoint");
    config.checkpoint = Some(CheckpointConfig {
        resume_from: Some(Box::new(cp.clone())),
        ..CheckpointConfig::new(&path, 1)
    });
    let resumed = digest_result(&run_tiny(&config));
    cp.used.measurement_time = Duration::ZERO;
    cp.rounds = cp.rounds.drain(..).map(|r| r.without_timing()).collect();
    (cp.to_json(), resumed)
}

/// The golden document for the current code.
fn golden() -> String {
    let dir = TempDir::new("pipeline_golden");
    let mut fields = Vec::new();
    for (name, adaptive) in [("oneshot", false), ("disagreement", true)] {
        for islands in [1u32, 2] {
            let result = run_tiny(&config(adaptive, islands));
            fields.push((format!("{name}_islands{islands}"), digest_result(&result)));
        }
    }
    let (checkpoint, resumed) = halt_and_resume_one_shot(dir.path());
    let uninterrupted = &fields[1];
    assert_eq!(uninterrupted.0, "oneshot_islands2");
    assert_eq!(
        resumed, uninterrupted.1,
        "the resumed one-shot run diverged"
    );
    fields.push((
        "oneshot_checkpoint_halted_at_2".into(),
        Value::Obj(vec![
            ("bytes".into(), Value::UInt(checkpoint.len() as u64)),
            ("fnv".into(), hex(fnv1a(checkpoint.as_bytes()))),
        ]),
    ));
    json::write_pretty(&Value::Obj(fields)) + "\n"
}

fn fixture_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/pipeline_golden.json")
}

#[test]
fn pipeline_results_match_the_committed_golden() {
    let committed = std::fs::read_to_string(fixture_path()).expect("golden fixture present");
    assert_eq!(
        golden(),
        committed,
        "pipeline output drifted from the committed golden"
    );
}

/// Regenerates `tests/fixtures/pipeline_golden.json`. Run explicitly
/// (`cargo test --test pipeline_golden -- --ignored`) only after an
/// intentional change of results, then commit the new file.
#[test]
#[ignore = "writes the committed golden fixture; run by hand after intentional result changes"]
fn regenerate_pipeline_golden_fixture() {
    std::fs::write(fixture_path(), golden()).expect("write golden fixture");
}
