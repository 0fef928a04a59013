//! The end-to-end PMEvo pipeline (paper Figure 5).
//!
//! Wires experiment generation → measurement → congruence filtering →
//! evolutionary optimization, and records the bookkeeping reported in
//! paper Table 2 (benchmarking time, inference time, fraction of
//! congruent instructions, number of distinct µops).
//!
//! Measurement goes through a [`MeasurementBackend`] — a simulator
//! ([`SimBackend`](../../pmevo_machine/struct.SimBackend.html)), a
//! recorded artifact ([`pmevo_core::ReplayBackend`]), real hardware, or
//! any decorator stack over those. Benchmarking time and measurement
//! counts come from the backend's [`BackendStats`] delta, so a
//! [`pmevo_core::CachingBackend`] that answers from its cache is not
//! billed again.
//!
//! Fresh and resumed runs share one flow: a start step either measures
//! the seed corpus or unpacks a [`SessionCheckpoint`]; the congruence
//! partition becomes the dense [`RepUniverse`] evolution runs on; the
//! one-shot or the round-based flow evolves; one finish step expands the
//! result back to the full universe.

use crate::congruence::{throughput_close, CongruencePartition, RepUniverse};
use crate::evolution::{EvoConfig, EvoResult};
use crate::expgen::ExperimentGenerator;
use crate::islands::{
    evolve_islands, EvoState, IslandConfig, IslandControl, IslandObserver, IslandStart,
};
use crate::selection::{
    run_adaptive, AdaptiveContext, AdaptiveOutcome, AdaptiveResume, AdaptiveTuning,
    CheckpointEvent, CheckpointHook,
};
use pmevo_core::checkpoint::{CheckpointPhase, SessionCheckpoint};
use pmevo_core::{
    BackendStats, Experiment, InstId, MeasuredExperiment, MeasurementBackend, MeasurementBudget,
    RoundStats, SelectionPolicy, ThreeLevelMapping,
};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Configuration of a full pipeline run.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineConfig {
    /// Symmetric-relative-difference bound ε for congruence filtering
    /// (paper evaluation: 0.05).
    pub epsilon: f64,
    /// Set to `false` to skip congruence filtering (ablation); every
    /// instruction becomes its own class.
    pub congruence_filtering: bool,
    /// How experiments are chosen: the paper's up-front corpus
    /// ([`SelectionPolicy::OneShot`], the default) or a round-based
    /// adaptive loop (see [`crate::selection`]).
    pub selection: SelectionPolicy,
    /// Measurement budget for the round-based policies (ignored by
    /// [`SelectionPolicy::OneShot`]).
    pub budget: MeasurementBudget,
    /// Tuning of the round-based loop (ignored by
    /// [`SelectionPolicy::OneShot`]).
    pub adaptive: AdaptiveTuning,
    /// Parameters of the evolutionary algorithm.
    pub evo: EvoConfig,
    /// Island topology for every evolution run (one island by default —
    /// the classic loop, bit for bit).
    pub islands: IslandConfig,
    /// Checkpoint/resume configuration; `None` disables both.
    pub checkpoint: Option<CheckpointConfig>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            epsilon: 0.05,
            congruence_filtering: true,
            selection: SelectionPolicy::OneShot,
            budget: MeasurementBudget::UNLIMITED,
            adaptive: AdaptiveTuning::default(),
            evo: EvoConfig::default(),
            islands: IslandConfig::default(),
            checkpoint: None,
        }
    }
}

/// Checkpoint/resume configuration of a pipeline run.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointConfig {
    /// Where the checkpoint artifact is written (atomically: a `.tmp`
    /// sibling is renamed into place on every write).
    pub path: PathBuf,
    /// Write every this many evolution generations; phase boundaries
    /// (pre-polish) are always written. Values `<= 1` write every
    /// generation.
    pub every: u32,
    /// A previously written checkpoint to continue from; `None` starts
    /// fresh. The resumed run re-measures nothing and is bit-identical
    /// to the uninterrupted one (up to wall-clock timings).
    pub resume_from: Option<Box<SessionCheckpoint>>,
    /// Stop the run right after this many checkpoint writes — a
    /// deterministic stand-in for `kill -9` used by the resume tests and
    /// `pmevo-cli infer --halt-after-checkpoints`.
    pub halt_after: Option<u32>,
}

impl CheckpointConfig {
    /// Checkpoints to `path` every `every` generations, no resume, no
    /// halt.
    pub fn new(path: impl Into<PathBuf>, every: u32) -> Self {
        CheckpointConfig {
            path: path.into(),
            every,
            resume_from: None,
            halt_after: None,
        }
    }
}

/// The pipeline's [`CheckpointHook`]: fills a header template with each
/// event's dynamic state and writes the artifact on the configured
/// cadence.
struct CheckpointWriter {
    path: PathBuf,
    every: u32,
    halt_after: Option<u32>,
    written: u32,
    generations_seen: u32,
    template: SessionCheckpoint,
}

impl CheckpointWriter {
    /// Every artifact carries the run's static header: the configuration
    /// plus the full-universe singleton throughputs and congruence
    /// classes (`rep_of[i]` = representative of instruction `i`), from
    /// which a resume reconstructs the partition without re-measuring.
    fn new(
        cfg: &CheckpointConfig,
        config: &PipelineConfig,
        num_ports: usize,
        indiv_tp: &[f64],
        partition: &CongruencePartition,
    ) -> Self {
        let universe = partition.universe();
        let template = SessionCheckpoint {
            seed: config.evo.seed,
            num_insts: universe.len(),
            num_ports,
            islands: config.islands.count,
            population_size: config.evo.population_size as u64,
            selection: config.selection,
            budget: config.budget,
            used: BackendStats::default(),
            indiv_tp: indiv_tp.to_vec(),
            rep_of: universe
                .iter()
                .map(|&i| partition.representative(i).0)
                .collect(),
            measured: Vec::new(),
            rounds: Vec::new(),
            round_mappings: Vec::new(),
            pool: Vec::new(),
            stream_taken: 0,
            phase: CheckpointPhase::OneShot,
            evo: None,
        };
        CheckpointWriter {
            path: cfg.path.clone(),
            every: cfg.every.max(1),
            halt_after: cfg.halt_after,
            written: 0,
            generations_seen: 0,
            template,
        }
    }
}

impl CheckpointHook for CheckpointWriter {
    fn on_state(&mut self, event: &CheckpointEvent<'_>) -> IslandControl {
        let due = match event.phase {
            CheckpointPhase::PrePolish => true,
            _ => {
                self.generations_seen += 1;
                self.generations_seen.is_multiple_of(self.every)
            }
        };
        if !due {
            return IslandControl::Continue;
        }
        let mut cp = self.template.clone();
        cp.used = event.used;
        cp.measured = event.measured.to_vec();
        cp.rounds = event.rounds.to_vec();
        cp.round_mappings = event.round_mappings.to_vec();
        cp.pool = event.pool.to_vec();
        cp.stream_taken = event.stream_taken;
        cp.phase = event.phase;
        cp.evo = event.evo.map(EvoState::to_checkpoint);
        if let Err(e) = cp.save(&self.path) {
            panic!("cannot write checkpoint: {e}");
        }
        self.written += 1;
        if self.halt_after.is_some_and(|n| self.written >= n) {
            return IslandControl::Halt;
        }
        IslandControl::Continue
    }
}

/// Result of a pipeline run, including the Table 2 bookkeeping.
#[derive(Debug, Clone)]
pub struct PipelineResult {
    /// The inferred mapping, expanded to the full instruction universe
    /// (every instruction carries its class representative's
    /// decomposition).
    pub mapping: ThreeLevelMapping,
    /// Time the backend spent performing real measurements (from its
    /// [`BackendStats`]; cache hits of a
    /// [`pmevo_core::CachingBackend`] cost nothing here).
    pub benchmarking_time: Duration,
    /// Wall time of this call not spent measuring: congruence
    /// filtering, evolution and local search.
    pub inference_time: Duration,
    /// Real measurements the backend performed for this run (deduped
    /// experiments are counted once).
    pub measurements_performed: u64,
    /// Fraction of instructions merged into another instruction's class.
    pub congruent_fraction: f64,
    /// Number of congruence classes (= instructions seen by evolution).
    pub num_classes: usize,
    /// Number of measured experiments (benchmark workload size).
    pub num_experiments: usize,
    /// Per-round measurement accounting: a single round for the
    /// one-shot policy, one entry per measurement round (round 0 = seed
    /// corpus) for the adaptive policies.
    pub rounds: Vec<RoundStats>,
    /// Best full-universe mapping at the end of each round, parallel to
    /// [`rounds`](Self::rounds) (the final entry equals
    /// [`mapping`](Self::mapping)).
    pub round_mappings: Vec<ThreeLevelMapping>,
    /// The evolutionary algorithm's result on the representative
    /// universe.
    pub evo: EvoResult,
}

impl PipelineResult {
    /// Number of distinct µops of the inferred mapping (paper Table 2).
    pub fn num_distinct_uops(&self) -> usize {
        self.mapping.num_distinct_uops()
    }
}

/// Runs the full PMEvo pipeline on an instruction universe of
/// `num_insts` forms (ids `0..num_insts`) over a machine with
/// `num_ports` ports, measuring through `backend`.
///
/// With the default [`SelectionPolicy::OneShot`] the full §4.1 corpus
/// is measured up front; with a round-based policy the pipeline
/// interleaves measurement and evolution rounds under
/// [`PipelineConfig::budget`] (see [`crate::selection`]). In that mode
/// the paper's pair-informed congruence partition is replaced by
/// pairwise-verified seeding (one targeted pair measurement per
/// equally-fast candidate; see `verified_congruence_seed`), skipped
/// when the budget is already spent by the singleton sweep.
///
/// The budget governs the round loop: the singleton sweep is mandatory
/// (inference is undefined without it), so a budget smaller than the
/// universe is exceeded by the seed corpus and no rounds are run.
///
/// With [`CheckpointConfig::resume_from`] set, nothing is re-measured:
/// the corpus, singleton throughputs and congruence classes all come
/// from the artifact, budget accounting continues from its
/// [`SessionCheckpoint::used`], and the result is bit-identical to the
/// uninterrupted run's (up to wall-clock timings).
///
/// # Panics
///
/// Panics if `num_insts == 0`, the backend returns the wrong number of
/// results, measurements are not positive and finite, or a resumed
/// checkpoint's header disagrees with the configuration (universe size,
/// port count, seed, islands, population size, selection policy,
/// budget).
pub fn run(
    num_insts: usize,
    num_ports: usize,
    backend: &mut dyn MeasurementBackend,
    config: &PipelineConfig,
) -> PipelineResult {
    assert!(num_insts > 0, "empty instruction universe");
    let universe: Vec<InstId> = (0..num_insts as u32).map(InstId).collect();
    let run_start: BackendStats = backend.stats();
    let wall_start = Instant::now();

    let resume_from = config
        .checkpoint
        .as_ref()
        .and_then(|c| c.resume_from.as_deref());
    let start = match resume_from {
        Some(snapshot) => Start::unpack(snapshot, &universe, num_ports, config),
        None => Start::measure(&universe, backend, config, &run_start),
    };
    let reps = RepUniverse::new(start.partition, &start.indiv_tp);

    let mut writer = config.checkpoint.as_ref().map(|cfg| {
        CheckpointWriter::new(cfg, config, num_ports, &start.indiv_tp, reps.partition())
    });
    let hook = writer.as_mut().map(|w| w as &mut dyn CheckpointHook);
    let outcome = if config.selection.is_adaptive() {
        let ctx = AdaptiveContext {
            islands: config.islands,
            hook,
            resume: start.resume,
            prior: start.prior,
        };
        run_adaptive(
            &reps,
            num_ports,
            start.measured,
            backend,
            config.selection,
            &config.budget,
            &config.adaptive,
            &config.evo,
            &run_start,
            ctx,
        )
    } else {
        let used = start.prior.plus(&backend.stats().since(&run_start));
        evolve_one_shot(
            &reps,
            num_ports,
            start.measured,
            used,
            config,
            hook,
            start.resume,
        )
    };

    let this_run = backend.stats().since(&run_start);
    finish(
        &reps,
        outcome,
        start.prior.plus(&this_run),
        this_run,
        wall_start,
    )
}

/// What a run starts from — the same for a fresh and a resumed run.
struct Start {
    /// Congruence classes over the full universe.
    partition: CongruencePartition,
    /// Singleton throughput of every form, indexed by `InstId`.
    indiv_tp: Vec<f64>,
    /// The measured corpus so far, original ids, measurement order.
    measured: Vec<MeasuredExperiment>,
    /// Backend accounting of earlier processes (zero on a fresh run).
    prior: BackendStats,
    /// Where a resumed run continues; `None` starts fresh.
    resume: Option<AdaptiveResume>,
}

impl Start {
    /// A fresh run: measures the singleton sweep — the seed corpus of
    /// every policy — then either the full pair corpus and the paper's
    /// congruence partition (one-shot, paper Figure 5), or only the
    /// pairwise-verified congruence seeding (round-based).
    fn measure(
        universe: &[InstId],
        backend: &mut dyn MeasurementBackend,
        config: &PipelineConfig,
        run_start: &BackendStats,
    ) -> Start {
        let generator = ExperimentGenerator::new(universe.to_vec());
        // Cost is accounted by the backend itself, so deduplicated
        // measurements are not double-counted.
        let singletons = generator.singletons();
        let indiv_tp = backend.measure_batch_checked(&singletons);
        let mut measured: Vec<MeasuredExperiment> = singletons
            .into_iter()
            .zip(indiv_tp.iter().copied())
            .map(|(e, t)| MeasuredExperiment::new(e, t))
            .collect();

        let partition = if config.selection.is_adaptive() {
            // The paper's partition needs the full pair corpus — exactly
            // what the budget avoids — and merging from singleton
            // throughputs alone would conflate port-disjoint forms.
            // Verified seeding buys the class structure with one targeted
            // pair measurement per candidate, clamped to whatever the
            // mandatory singleton sweep left of the budget (like the round
            // loop clamps its top-k submissions).
            let seed_used = backend.stats().since(run_start);
            if config.congruence_filtering && !config.budget.is_exhausted(&seed_used) {
                let (partition, verification) = verified_congruence_seed(
                    universe,
                    &indiv_tp,
                    backend,
                    config.epsilon,
                    config.budget.remaining_measurements(&seed_used),
                );
                measured.extend(verification);
                partition
            } else {
                CongruencePartition::identity(universe)
            }
        } else {
            let pairs = generator.pairs(&indiv_tp);
            let pair_tp = backend.measure_batch_checked(&pairs);
            measured.extend(
                pairs
                    .into_iter()
                    .zip(pair_tp)
                    .map(|(e, t)| MeasuredExperiment::new(e, t)),
            );
            if config.congruence_filtering {
                CongruencePartition::compute(universe, &measured, config.epsilon)
            } else {
                CongruencePartition::identity(universe)
            }
        };
        Start {
            partition,
            indiv_tp,
            measured,
            prior: BackendStats::default(),
            resume: None,
        }
    }

    /// A resumed run: validates the checkpoint's header against the
    /// configuration and unpacks it; the congruence partition comes from
    /// the stored class map.
    fn unpack(
        snapshot: &SessionCheckpoint,
        universe: &[InstId],
        num_ports: usize,
        config: &PipelineConfig,
    ) -> Start {
        assert_eq!(snapshot.num_insts, universe.len(), "checkpoint instruction-universe mismatch");
        assert_eq!(snapshot.num_ports, num_ports, "checkpoint port-count mismatch");
        assert_eq!(snapshot.seed, config.evo.seed, "checkpoint seed mismatch");
        assert_eq!(snapshot.islands, config.islands.count, "checkpoint island-count mismatch");
        assert_eq!(
            snapshot.population_size as usize, config.evo.population_size,
            "checkpoint population-size mismatch"
        );
        assert_eq!(snapshot.selection, config.selection, "checkpoint selection-policy mismatch");
        assert_eq!(snapshot.budget, config.budget, "checkpoint budget mismatch");
        assert_eq!(
            snapshot.phase == CheckpointPhase::OneShot,
            !config.selection.is_adaptive(),
            "checkpoint phase does not match the selection policy"
        );
        let repr: BTreeMap<InstId, InstId> = snapshot
            .rep_of
            .iter()
            .enumerate()
            .filter(|&(i, &r)| r != i as u32)
            .map(|(i, &r)| (InstId(i as u32), InstId(r)))
            .collect();
        Start {
            partition: CongruencePartition::from_representatives(universe, repr),
            indiv_tp: snapshot.indiv_tp.clone(),
            measured: snapshot.measured.clone(),
            prior: snapshot.used,
            resume: Some(AdaptiveResume {
                phase: snapshot.phase,
                evo: snapshot.evo.clone(),
                pool: snapshot.pool.clone(),
                stream_taken: snapshot.stream_taken,
                rounds: snapshot.rounds.clone(),
                round_mappings: snapshot.round_mappings.clone(),
            }),
        }
    }
}

/// Pairwise-verified congruence seeding for budgeted runs: forms with
/// ε-equal singleton throughput are merge *candidates*; each candidate
/// is merged into its group's leader only after the leader–candidate
/// pair is measured and its throughput equals the sum of the two
/// singleton throughputs (within ε). Identical decompositions always
/// pass this check (doubling every µop mass exactly doubles the
/// bottleneck), while port-disjoint forms that happen to be equally
/// fast overlap when paired, fall short of the sum, and stay separate.
///
/// The check is one-directional: two *different* decompositions that
/// fully conflict through this one pair (e.g. `[{0}]` against
/// `[{0}, {1}]`) can still merge — congruence here, as in the paper, is
/// relative to the measured experiments, and a single pair is a coarser
/// witness than the full corpus. What the budget buys is `O(n)`
/// verification measurements instead of the `O(n²)` corpus — at most
/// `max_pairs` of them when the budget has less room left. Returns the
/// partition plus every verification pair measured, so rejected pairs
/// join the training seed and nothing is measured twice.
fn verified_congruence_seed(
    universe: &[InstId],
    indiv_tp: &[f64],
    backend: &mut dyn MeasurementBackend,
    epsilon: f64,
    max_pairs: Option<u64>,
) -> (CongruencePartition, Vec<MeasuredExperiment>) {
    let mut leaders: Vec<usize> = Vec::new();
    let mut candidates: Vec<(usize, usize)> = Vec::new(); // (form, leader)
    for i in 0..universe.len() {
        match leaders
            .iter()
            .copied()
            .find(|&l| throughput_close(indiv_tp[l], indiv_tp[i], epsilon))
        {
            Some(l) => candidates.push((i, l)),
            None => leaders.push(i),
        }
    }
    // An unverified candidate stays unmerged — the safe direction — so
    // a tight budget truncates verification instead of overshooting.
    if let Some(max) = max_pairs {
        candidates.truncate(usize::try_from(max).unwrap_or(usize::MAX));
    }
    let pairs: Vec<Experiment> = candidates
        .iter()
        .map(|&(i, l)| Experiment::pair(universe[l], 1, universe[i], 1))
        .collect();
    let pair_tp = if pairs.is_empty() {
        Vec::new()
    } else {
        backend.measure_batch_checked(&pairs)
    };
    let mut repr: BTreeMap<InstId, InstId> = BTreeMap::new();
    let mut verification = Vec::with_capacity(pairs.len());
    for ((&(i, l), e), &t) in candidates.iter().zip(&pairs).zip(&pair_tp) {
        if throughput_close(t, indiv_tp[l] + indiv_tp[i], epsilon) {
            repr.insert(universe[i], universe[l]);
        }
        verification.push(MeasuredExperiment::new(e.clone(), t));
    }
    (
        CongruencePartition::from_representatives(universe, repr),
        verification,
    )
}

/// The one-shot flow (paper Figure 5): evolution with local search on
/// the whole measured corpus, as a single round. `used` is the budget
/// accounting of the corpus; a resumed run continues the checkpointed
/// evolution state exactly where it stopped.
fn evolve_one_shot(
    reps: &RepUniverse,
    num_ports: usize,
    measured: Vec<MeasuredExperiment>,
    used: BackendStats,
    config: &PipelineConfig,
    hook: Option<&mut dyn CheckpointHook>,
    resume: Option<AdaptiveResume>,
) -> AdaptiveOutcome {
    let start = match resume {
        Some(r) => IslandStart::Resume(EvoState::from_checkpoint(
            r.evo
                .as_ref()
                .expect("a one-shot checkpoint carries evolution state"),
        )),
        None => IslandStart::Fresh(Vec::new()),
    };
    let dense = reps.dense_corpus(&measured);
    // One-shot checkpoints carry the whole corpus and its single round
    // (training error still unknown), so a resume skips all measurement.
    let mut rounds = vec![RoundStats::from_delta(
        0,
        &used,
        used.measurements_performed,
        f64::INFINITY,
    )];
    let evolution = {
        let mut observe;
        let observer: Option<IslandObserver<'_>> = match hook {
            Some(h) => {
                observe = |state: &EvoState| {
                    h.on_state(&CheckpointEvent {
                        phase: CheckpointPhase::OneShot,
                        evo: Some(state),
                        measured: &measured,
                        rounds: &rounds,
                        round_mappings: &[],
                        pool: &[],
                        stream_taken: 0,
                        used,
                    })
                };
                Some(&mut observe)
            }
            None => None,
        };
        evolve_islands(
            reps.reps().len(),
            num_ports,
            &dense,
            reps.indiv_tp(),
            &config.evo,
            &config.islands,
            start,
            true,
            observer,
        )
    };
    rounds[0].training_error = evolution.result.objectives.error;
    AdaptiveOutcome {
        round_mappings: vec![evolution.result.mapping.clone()],
        evo: evolution.result,
        measured,
        rounds,
        halted: evolution.halted,
    }
}

/// Expands an evolution outcome to the full universe and adds the
/// Table 2 bookkeeping. `used` is the whole run's backend accounting
/// (earlier processes included), `this_run` this call's share of it.
/// Measurement and inference may interleave, so inference time is the
/// wall time of this call not spent measuring.
fn finish(
    reps: &RepUniverse,
    outcome: AdaptiveOutcome,
    used: BackendStats,
    this_run: BackendStats,
    wall_start: Instant,
) -> PipelineResult {
    PipelineResult {
        mapping: reps.expand(&outcome.evo.mapping),
        benchmarking_time: used.measurement_time,
        inference_time: wall_start
            .elapsed()
            .saturating_sub(this_run.measurement_time),
        measurements_performed: used.measurements_performed,
        congruent_fraction: reps.partition().merged_fraction(),
        num_classes: reps.partition().num_classes(),
        num_experiments: outcome.measured.len(),
        rounds: outcome.rounds,
        round_mappings: outcome
            .round_mappings
            .iter()
            .map(|m| reps.expand(m))
            .collect(),
        evo: outcome.evo,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmevo_core::{CachingBackend, Experiment, ModelBackend, PortSet, UopEntry};

    fn uop(count: u32, ports: &[usize]) -> UopEntry {
        UopEntry::new(count, PortSet::from_ports(ports))
    }

    /// A 5-instruction ground truth with two congruent pairs.
    fn toy_ground_truth() -> ThreeLevelMapping {
        ThreeLevelMapping::new(
            3,
            vec![
                vec![uop(1, &[0, 1])], // i0
                vec![uop(1, &[0, 1])], // i1 (congruent to i0)
                vec![uop(1, &[2])],    // i2
                vec![uop(1, &[2])],    // i3 (congruent to i2)
                vec![uop(2, &[0])],    // i4
            ],
        )
    }

    fn small_config() -> PipelineConfig {
        PipelineConfig {
            evo: EvoConfig {
                population_size: 60,
                max_generations: 30,
                // Extra patience: with this small budget the search can
                // stall a few generations before escaping a local optimum.
                stall_generations: 12,
                num_threads: 2,
                seed: 7,
                ..EvoConfig::default()
            },
            ..PipelineConfig::default()
        }
    }

    #[test]
    fn pipeline_recovers_toy_machine_behaviour() {
        let mut backend = ModelBackend::new(toy_ground_truth());
        let result = run(5, 3, &mut backend, &small_config());
        // Congruence: 5 forms -> 3 classes.
        assert_eq!(result.num_classes, 3);
        assert!((result.congruent_fraction - 0.4).abs() < 1e-12);
        // The inferred mapping explains the training data well.
        assert!(
            result.evo.objectives.error < 0.05,
            "pipeline error {}",
            result.evo.objectives.error
        );
        // Expanded mapping covers all 5 instructions and congruent forms
        // share decompositions.
        assert_eq!(result.mapping.num_insts(), 5);
        assert_eq!(
            result.mapping.decomposition(InstId(0)),
            result.mapping.decomposition(InstId(1))
        );
        assert_eq!(
            result.mapping.decomposition(InstId(2)),
            result.mapping.decomposition(InstId(3))
        );
    }

    #[test]
    fn disabled_filtering_keeps_all_classes() {
        let mut cfg = small_config();
        cfg.congruence_filtering = false;
        cfg.evo.max_generations = 5;
        let mut backend = ModelBackend::new(toy_ground_truth());
        let result = run(5, 3, &mut backend, &cfg);
        assert_eq!(result.num_classes, 5);
        assert_eq!(result.congruent_fraction, 0.0);
    }

    #[test]
    fn bookkeeping_is_populated() {
        let mut cfg = small_config();
        cfg.evo.max_generations = 3;
        let mut backend = ModelBackend::new(toy_ground_truth());
        let result = run(5, 3, &mut backend, &cfg);
        assert!(result.num_experiments >= 5 + 10);
        assert_eq!(result.measurements_performed, result.num_experiments as u64);
        assert!(result.num_distinct_uops() >= 1);
        assert!(result.inference_time > Duration::ZERO);
    }

    #[test]
    fn cached_measurements_are_not_billed_again() {
        let mut cfg = small_config();
        cfg.evo.max_generations = 2;
        let mut backend = CachingBackend::new(ModelBackend::new(toy_ground_truth()));
        let first = run(5, 3, &mut backend, &cfg);
        assert_eq!(first.measurements_performed, first.num_experiments as u64);
        // The second run over the same universe hits the cache for every
        // experiment: zero real measurements, zero benchmarking time.
        let second = run(5, 3, &mut backend, &cfg);
        assert_eq!(second.num_experiments, first.num_experiments);
        assert_eq!(second.measurements_performed, 0);
        assert_eq!(second.benchmarking_time, Duration::ZERO);
    }

    /// A backend that always returns one measurement, whatever the batch.
    struct BrokenBackend;

    impl MeasurementBackend for BrokenBackend {
        fn measure_batch(&mut self, _experiments: &[Experiment]) -> Vec<f64> {
            vec![1.0]
        }
        fn name(&self) -> &str {
            "broken"
        }
        fn stats(&self) -> BackendStats {
            BackendStats::default()
        }
    }

    #[test]
    #[should_panic(expected = "batch size mismatch")]
    fn wrong_measurement_count_panics() {
        run(2, 2, &mut BrokenBackend, &small_config());
    }

    #[test]
    fn adaptive_budget_smaller_than_seed_stops_after_singletons() {
        let mut cfg = small_config();
        cfg.selection = SelectionPolicy::Disagreement { top_k: 2 };
        // Less than the 5 mandatory singletons: the seed sweep runs
        // anyway, but verification pairs and all rounds are skipped.
        cfg.budget = MeasurementBudget::measurements(3);
        let mut backend = ModelBackend::new(toy_ground_truth());
        let result = run(5, 3, &mut backend, &cfg);
        assert_eq!(result.measurements_performed, 5);
        assert_eq!(result.rounds.len(), 1);
        assert_eq!(result.num_experiments, 5);
        // Congruence seeding was skipped → identity partition.
        assert_eq!(result.num_classes, 5);
        assert_eq!(result.congruent_fraction, 0.0);
    }

    #[test]
    fn adaptive_verification_pairs_respect_the_budget() {
        let mut cfg = small_config();
        cfg.selection = SelectionPolicy::Disagreement { top_k: 2 };
        // Room for exactly one verification pair after the 5 singletons.
        cfg.budget = MeasurementBudget::measurements(6);
        let mut backend = ModelBackend::new(toy_ground_truth());
        let result = run(5, 3, &mut backend, &cfg);
        assert_eq!(result.measurements_performed, 6, "budget overshot");
        // Of the two merge candidates (i1→i0, i3→i2) only the first
        // could be verified; the unverified one stays its own class.
        assert_eq!(result.num_classes, 4);
    }
}
