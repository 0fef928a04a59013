//! The inference workloads: `infer-oneshot` (the paper's Figure-5
//! pipeline on A72 subsets) and `infer-adaptive` (budgeted disagreement
//! selection with islands and checkpoints on SKL subsets).
//!
//! Each run draws `subsets` seeded form subsets and runs one `Session`
//! per subset, then runs the first `repeat` subsets again until the
//! run's time is up. Averaging over many subsets keeps the figures from
//! hinging on which forms one seed happened to draw; the repeats check
//! that every session's deterministic work repeats byte for byte.

use crate::stats::{draw_subsets, median, mix, trimmed_mean, Fnv};
use crate::trace::Trace;
use crate::{Layers, Outcome, RunArgs};
use pmevo::core::checkpoint::SessionCheckpoint;
use pmevo::core::{
    BackendStats, CompiledExperiments, Experiment, InferenceAlgorithm, InferredMapping, InstId,
    MeasuredExperiment, MeasurementBackend, MeasurementBudget, SelectionPolicy, ThreeLevelMapping,
    ThroughputSolver,
};
use pmevo::evo::{
    evolve_islands, CheckpointConfig, CongruencePartition, EvoConfig, ExperimentGenerator,
    FitnessEngine, IslandConfig, IslandStart, PipelineConfig, PmEvoAlgorithm,
};
use pmevo::isa::{InstructionSet, LoopBuilder};
use pmevo::machine::{platforms, simulate_kernel, MeasureConfig, Platform, SimBackend};
use pmevo::{Session, SessionBuilder, SessionReport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One inference workload's fixed parameters.
pub struct Spec {
    platform: fn() -> Platform,
    subsets: usize,
    forms: usize,
    /// Subsets run again after the first pass.
    repeat: usize,
    adaptive: bool,
}

/// Singletons, the full pair corpus, congruence, one island and polish,
/// with the default noisy `MeasureConfig`, population and generations.
pub const ONESHOT: Spec = Spec {
    platform: platforms::a72,
    subsets: 15,
    forms: 26,
    repeat: 15,
    adaptive: false,
};

/// Disagreement selection under a measurement budget, two islands,
/// checkpointing every `CHECKPOINT_EVERY` generations.
pub const ADAPTIVE: Spec = Spec {
    platform: platforms::skl,
    subsets: 36,
    forms: 24,
    repeat: 4,
    adaptive: true,
};

const TOP_K: usize = 24;
const BUDGET: u64 = 120;
const ISLANDS: u32 = 2;
const POPULATION: usize = 40;
const GENERATIONS: u32 = 10;
const CHECKPOINT_EVERY: u32 = 2;
/// Experiments replayed through loop generation and the simulator.
const SIM_REPLAY: usize = 128;

impl Spec {
    fn selection(&self) -> SelectionPolicy {
        if self.adaptive {
            SelectionPolicy::Disagreement { top_k: TOP_K }
        } else {
            SelectionPolicy::OneShot
        }
    }

    fn budget(&self) -> MeasurementBudget {
        if self.adaptive {
            MeasurementBudget::measurements(BUDGET)
        } else {
            MeasurementBudget::UNLIMITED
        }
    }

    /// The inference algorithm both the untraced and the traced sessions
    /// run.
    fn algorithm(&self, seed: u64, checkpoint: &Path) -> PmEvoAlgorithm {
        let mut algorithm = PmEvoAlgorithm::with_selection(seed, self.selection(), self.budget());
        if self.adaptive {
            let evo = &mut algorithm.config.evo;
            evo.population_size = POPULATION;
            evo.max_generations = GENERATIONS;
            // Every evolution runs its full generation count, so session
            // cost does not hinge on when one seed happens to stall.
            evo.stall_generations = GENERATIONS;
            algorithm.config.islands.count = ISLANDS;
            algorithm.config.checkpoint = Some(CheckpointConfig::new(checkpoint, CHECKPOINT_EVERY));
        }
        algorithm
    }

    fn builder(&self, platform: &Platform, seed: u64) -> SessionBuilder {
        Session::builder()
            .platform(platform.clone())
            .seed(seed)
            .selection(self.selection())
            .budget(self.budget())
    }

    /// The session as a user would build it, measuring with the
    /// platform's default simulator backend.
    fn plain_session(&self, platform: &Platform, seed: u64, checkpoint: &Path) -> Session {
        self.builder(platform, seed)
            .algorithm(self.algorithm(seed, checkpoint))
            .build()
            .expect("workload sessions are well-formed")
    }

    /// The same session with its measurement backend and inference
    /// algorithm wrapped in timing decorators.
    fn traced_session(
        &self,
        platform: &Platform,
        seed: u64,
        checkpoint: &Path,
        probe: &Probe,
        op: u32,
    ) -> Session {
        self.builder(platform, seed)
            .backend(TimedBackend {
                inner: SimBackend::new(platform.clone(), MeasureConfig::default()),
                probe: probe.clone(),
                op,
            })
            .algorithm(TimedAlgorithm {
                inner: self.algorithm(seed, checkpoint),
                probe: probe.clone(),
                op,
            })
            .build()
            .expect("workload sessions are well-formed")
    }
}

/// Each form's ground-truth port-usage class: forms with equal
/// decompositions share a class, numbered in order of first appearance.
/// Subsets are stratified by it, so how many distinct classes a session
/// infers (which sets most of its cost) hardly depends on the seed.
fn port_classes(platform: &Platform) -> Vec<u32> {
    let gt = platform.ground_truth();
    let mut seen: HashMap<Vec<(u32, u64)>, u32> = HashMap::new();
    (0..gt.num_insts() as u32)
        .map(|i| {
            let key = gt
                .decomposition(InstId(i))
                .iter()
                .map(|u| (u.count, u.ports.mask()))
                .collect();
            let next = seen.len() as u32;
            *seen.entry(key).or_insert(next)
        })
        .collect()
}

/// A platform restricted to the forms `ids` (ground truth, timing and
/// pipeline shape carried over).
fn restrict(platform: &Platform, ids: &[u32]) -> Platform {
    let mut isa = InstructionSet::new(platform.isa().name());
    let mut decomp = Vec::with_capacity(ids.len());
    let mut exec = Vec::with_capacity(ids.len());
    for &i in ids {
        let id = InstId(i);
        isa.push(platform.isa().form(id).clone());
        decomp.push(platform.ground_truth().decomposition(id).to_vec());
        exec.push(platform.exec_params(id));
    }
    Platform::new(
        platform.name(),
        platform.info().clone(),
        isa,
        ThreeLevelMapping::new(platform.num_ports(), decomp),
        exec,
        platform.fetch_width(),
        platform.window_size(),
    )
}

/// What the traced decorators record.
#[derive(Clone)]
struct Probe {
    trace: Trace,
    /// Every measured experiment, tagged with its operation.
    captured: Arc<Mutex<Vec<(u32, MeasuredExperiment)>>>,
    /// Requested and performed measurements seen through the session's
    /// caching backend.
    requested: Arc<Mutex<BackendStats>>,
}

struct TimedBackend {
    inner: SimBackend,
    probe: Probe,
    op: u32,
}

impl MeasurementBackend for TimedBackend {
    fn measure_batch(&mut self, experiments: &[Experiment]) -> Vec<f64> {
        let inner = &mut self.inner;
        let out = self.probe.trace.span("machine.measure_batch", self.op, || {
            inner.measure_batch(experiments)
        });
        let mut captured = self.probe.captured.lock().expect("capture list poisoned");
        captured.extend(
            experiments
                .iter()
                .zip(&out)
                .map(|(e, &t)| (self.op, MeasuredExperiment::new(e.clone(), t))),
        );
        out
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn stats(&self) -> BackendStats {
        self.inner.stats()
    }
}

struct TimedAlgorithm {
    inner: PmEvoAlgorithm,
    probe: Probe,
    op: u32,
}

impl InferenceAlgorithm for TimedAlgorithm {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn infer(
        &self,
        num_insts: usize,
        num_ports: usize,
        backend: &mut dyn MeasurementBackend,
    ) -> InferredMapping {
        let before = backend.stats();
        let out = self.probe.trace.span("evo.infer", self.op, || {
            self.inner.infer(num_insts, num_ports, backend)
        });
        let delta = backend.stats().since(&before);
        let mut seen = self.probe.requested.lock().expect("stats poisoned");
        *seen = seen.plus(&delta);
        out
    }

    fn set_worker_threads(&mut self, threads: usize) {
        self.inner.set_worker_threads(threads);
    }
}

/// The deterministic outcome of one session: everything in its report
/// except wall-clock timings.
#[derive(Debug, Clone, PartialEq)]
struct SessionWork {
    measurements: u64,
    experiments: usize,
    classes: usize,
    round_measurements: Vec<u64>,
    mapping_fnv: u64,
    /// Held-out accuracy as raw bits, so a NaN compares equal to itself.
    mape_bits: u64,
    pcc_bits: u64,
}

impl SessionWork {
    fn of(report: &SessionReport) -> SessionWork {
        let mut fnv = Fnv::default();
        fnv.bytes(report.mapping.to_json().as_bytes());
        let accuracy = report
            .accuracy
            .as_ref()
            .expect("platform sessions report accuracy");
        SessionWork {
            measurements: report.measurements_performed,
            experiments: report.num_experiments,
            classes: report.num_classes,
            round_measurements: report
                .rounds
                .iter()
                .map(|r| r.measurements_performed)
                .collect(),
            mapping_fnv: fnv.0,
            mape_bits: accuracy.mape.to_bits(),
            pcc_bits: accuracy.pearson.to_bits(),
        }
    }

    fn record(&self, prefix: &str, out: &mut Vec<(String, String)>) {
        out.push((
            format!("{prefix}.measurements"),
            self.measurements.to_string(),
        ));
        out.push((
            format!("{prefix}.experiments"),
            self.experiments.to_string(),
        ));
        out.push((format!("{prefix}.classes"), self.classes.to_string()));
        out.push((
            format!("{prefix}.round_measurements"),
            format!("{:?}", self.round_measurements),
        ));
        out.push((
            format!("{prefix}.mapping_fnv"),
            format!("{:016x}", self.mapping_fnv),
        ));
        out.push((
            format!("{prefix}.holdout_mape_bits"),
            format!("{:016x}", self.mape_bits),
        ));
        out.push((
            format!("{prefix}.holdout_pcc_bits"),
            format!("{:016x}", self.pcc_bits),
        ));
    }
}

/// Runs one inference workload.
pub fn run(spec: &Spec, args: &RunArgs, dir: &Path) -> Outcome {
    let mut out = Outcome::default();
    let k = spec.subsets;
    // Set-up runs once before the sessions and is timed again before
    // every session: the host's speed swings by half for seconds at a
    // time, so only samples spread over the whole run give a median that
    // does not hinge on one instant.
    let setup = |out: &mut Outcome| -> Vec<Platform> {
        let started = Instant::now();
        let base = (spec.platform)();
        let subsets = draw_subsets(&port_classes(&base), k, spec.forms, args.seed);
        let platforms_of = subsets
            .iter()
            .map(|ids| restrict(&base, ids))
            .collect::<Vec<_>>();
        out.setup_s.push(started.elapsed().as_secs_f64());
        out.attempted += 1;
        let mut fnv = Fnv::default();
        for ids in &subsets {
            fnv.bytes(
                &ids.iter()
                    .flat_map(|i| i.to_le_bytes())
                    .collect::<Vec<u8>>(),
            );
        }
        let digest = ("subsets_fnv".to_owned(), format!("{:016x}", fnv.0));
        match out.work.first() {
            None => out.work.push(digest),
            Some(first) if *first != digest => {
                out.fail("the seeded subset draw differed between set-ups")
            }
            Some(_) => {}
        }
        platforms_of
    };
    let platforms_of = setup(&mut out);
    let seeds: Vec<u64> = (0..k as u64).map(|s| mix(args.seed, s)).collect();
    let checkpoints: Vec<PathBuf> = (0..k)
        .map(|s| dir.join(format!("checkpoint-{s}.json")))
        .collect();
    out.params = vec![
        ("platform", platforms_of[0].name().to_owned()),
        ("subsets", k.to_string()),
        ("forms_per_subset", spec.forms.to_string()),
        ("session_seeds", format!("{seeds:?}")),
        ("selection", format!("{:?}", spec.selection())),
        ("budget", format!("{:?}", spec.budget().max_measurements)),
        (
            "islands",
            if spec.adaptive { ISLANDS } else { 1 }.to_string(),
        ),
        (
            "population",
            if spec.adaptive {
                POPULATION
            } else {
                EvoConfig::default().population_size
            }
            .to_string(),
        ),
        (
            "checkpoint_every",
            if spec.adaptive {
                CHECKPOINT_EVERY.to_string()
            } else {
                "off".into()
            },
        ),
    ];

    let probe = Probe {
        trace: Trace::new(),
        captured: Arc::default(),
        requested: Arc::default(),
    };
    // Per subset: (traced?, Session::run seconds) for every pass.
    let mut times: Vec<Vec<(bool, f64)>> = vec![Vec::new(); k];
    let mut reference: Vec<Option<SessionWork>> = vec![None; k];
    // Per repeated subset: the first traced session's op and report.
    let mut traced_reports: Vec<Option<(u32, SessionReport)>> = vec![None; spec.repeat];
    let mut op_subset: Vec<usize> = Vec::new();
    let started = Instant::now();
    let mut pass = 0usize;
    // Pass 0 runs every subset; later passes repeat the first
    // `spec.repeat` subsets, so every run checks that their work repeats
    // byte for byte, until the run's time is up (at least one repeat). A
    // traced run alternates untraced and traced passes, so the tracing
    // overhead and the equality of their work are measured inside one
    // process.
    while pass < 2 || started.elapsed().as_secs_f64() < args.seconds {
        let traced = args.trace && pass % 2 == 1;
        for s in 0..if pass == 0 { k } else { spec.repeat } {
            setup(&mut out);
            let op = op_subset.len() as u32;
            op_subset.push(s);
            let session = if traced {
                spec.traced_session(&platforms_of[s], seeds[s], &checkpoints[s], &probe, op)
            } else {
                spec.plain_session(&platforms_of[s], seeds[s], &checkpoints[s])
            };
            let t = Instant::now();
            let report = if traced {
                probe.trace.span("session.run", op, || session.run())
            } else {
                session.run()
            };
            times[s].push((traced, t.elapsed().as_secs_f64()));
            out.attempted += 1;
            let work = SessionWork::of(&report);
            match &reference[s] {
                None => reference[s] = Some(work),
                Some(r) if *r != work => out.fail(&format!(
                    "subset {s}: pass {pass} (traced: {traced}) differs from pass 0"
                )),
                Some(_) => {}
            }
            if traced && traced_reports[s].is_none() {
                traced_reports[s] = Some((op, report));
            }
        }
        pass += 1;
    }
    out.params.push(("passes", pass.to_string()));

    // End-to-end: each subset's median untraced Session::run time,
    // averaged over the subsets without the fastest and slowest tenth.
    let subset_median = |s: usize, traced: bool| -> Option<f64> {
        let t: Vec<f64> = times[s]
            .iter()
            .filter(|x| x.0 == traced)
            .map(|x| x.1)
            .collect();
        (!t.is_empty()).then(|| median(&t))
    };
    let infer_s = trimmed_mean(
        &(0..k)
            .filter_map(|s| subset_median(s, false))
            .collect::<Vec<_>>(),
        0.1,
    );
    out.latency_ms = infer_s * 1e3;
    let per_subset: Vec<String> = times
        .iter()
        .map(|t| {
            t.iter()
                .map(|x| format!("{:.3}", x.1))
                .collect::<Vec<_>>()
                .join("/")
        })
        .collect();
    out.params.push(("session_s", per_subset.join(" ")));
    let works: Vec<&SessionWork> = reference
        .iter()
        .map(|w| w.as_ref().expect("every subset ran"))
        .collect();
    for (s, w) in works.iter().enumerate() {
        w.record(&format!("subset{s}"), &mut out.work);
    }
    let per_session =
        |f: &dyn Fn(&SessionWork) -> f64| works.iter().map(|w| f(w)).sum::<f64>() / k as f64;
    let measurements = per_session(&|w| w.measurements as f64);
    let mape = per_session(&|w| f64::from_bits(w.mape_bits));
    let pcc = per_session(&|w| f64::from_bits(w.pcc_bits));
    out.named = vec![
        ("infer_s", infer_s, "s"),
        ("measurements", measurements, "count"),
        ("holdout_mape", mape, "%"),
        ("holdout_pcc", pcc, "r"),
    ];

    if args.trace {
        // Paired by subset: traced minus untraced median run time.
        let overhead: Vec<f64> = (0..spec.repeat)
            .filter_map(|s| Some(subset_median(s, true)? - subset_median(s, false)?))
            .collect();
        let l = &mut out.layers;
        l.set("infer.measurements", measurements);
        l.set("infer.holdout_mape", mape);
        l.set("infer.holdout_pcc", pcc);
        l.set(
            "trace.overhead_ms",
            overhead.iter().sum::<f64>() * 1e3 / overhead.len().max(1) as f64,
        );
        layer_metrics(&probe, &works, l);
        let traced: Vec<(u32, SessionReport)> = traced_reports.into_iter().flatten().collect();
        let failures = replays(
            spec,
            args.seed,
            &probe,
            &platforms_of,
            &op_subset,
            &traced,
            &checkpoints,
            dir,
            l,
        );
        for f in failures {
            out.fail(&f);
        }
        out.trace = Some(probe.trace);
    }
    out
}

/// Per-session layer figures of the traced sessions.
fn layer_metrics(probe: &Probe, works: &[&SessionWork], l: &mut Layers) {
    let totals = probe.trace.totals();
    let sessions = totals.get("session.run").map_or(1, |t| t.count) as f64;
    let measure = totals
        .get("machine.measure_batch")
        .copied()
        .unwrap_or_default();
    let experiments = probe.captured.lock().expect("capture list poisoned").len() as f64;
    l.set("machine.measure_s", measure.total_s / sessions);
    l.set("machine.batches", measure.count as f64 / sessions);
    l.set("machine.experiments", experiments / sessions);
    l.set(
        "machine.us_per_exp",
        measure.total_s * 1e6 / experiments.max(1.0),
    );
    l.set(
        "evo.self_s",
        totals.get("evo.infer").map_or(0.0, |t| t.self_s) / sessions,
    );
    l.set(
        "session.self_s",
        totals.get("session.run").map_or(0.0, |t| t.self_s) / sessions,
    );
    let seen = *probe.requested.lock().expect("stats poisoned");
    l.set(
        "backend.dedup_ratio",
        seen.measurements_performed as f64 / seen.measurements_requested.max(1) as f64,
    );
    let rounds: usize = works.iter().map(|w| w.round_measurements.len()).sum();
    let measured: u64 = works.iter().map(|w| w.measurements).sum();
    l.set("evo.rounds", rounds as f64 / works.len() as f64);
    l.set(
        "evo.round_measurements",
        measured as f64 / rounds.max(1) as f64,
    );
    l.set(
        "evo.classes",
        works.iter().map(|w| w.classes as f64).sum::<f64>() / works.len() as f64,
    );
}

/// Single-thread replays of single layers on what the traced sessions
/// measured. They run after the timed passes, outside every end-to-end
/// timer. Returns the checks that failed.
#[allow(clippy::too_many_arguments)]
fn replays(
    spec: &Spec,
    seed: u64,
    probe: &Probe,
    platforms_of: &[Platform],
    op_subset: &[usize],
    traced: &[(u32, SessionReport)],
    checkpoints: &[PathBuf],
    dir: &Path,
    l: &mut Layers,
) -> Vec<String> {
    let captured = probe
        .captured
        .lock()
        .expect("capture list poisoned")
        .clone();
    // The corpus each traced session measured, in order, with its subset.
    let corpora: Vec<(usize, Vec<MeasuredExperiment>)> = traced
        .iter()
        .map(|(op, _)| {
            (
                op_subset[*op as usize],
                captured
                    .iter()
                    .filter(|c| c.0 == *op)
                    .map(|c| c.1.clone())
                    .collect(),
            )
        })
        .collect();
    let k = corpora.len();
    let mut rng = StdRng::seed_from_u64(mix(seed, 0x5EED_5A3B));

    // isa + machine: loop generation and the cycle-level simulator.
    let config = MeasureConfig::default();
    let (mut loopgen_s, mut sim_s, mut cycles) = (0.0, 0.0, 0u64);
    for _ in 0..SIM_REPLAY {
        let (subset, corpus) = &corpora[rng.gen_range(0..k)];
        let e = &corpus[rng.gen_range(0..corpus.len())].experiment;
        let platform = &platforms_of[*subset];
        let t = Instant::now();
        let kernel = LoopBuilder::new(platform.isa())
            .body_len(config.body_len)
            .build(e);
        loopgen_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let result = simulate_kernel(
            platform,
            &kernel,
            config.warmup_iters,
            config.warmup_iters + config.measure_iters,
        );
        sim_s += t.elapsed().as_secs_f64();
        cycles += result.total_cycles;
    }
    l.set("isa.loopgen_us", loopgen_s * 1e6 / SIM_REPLAY as f64);
    l.set("machine.sim_us", sim_s * 1e6 / SIM_REPLAY as f64);
    l.set("machine.sim_cycles_per_us", cycles as f64 / (sim_s * 1e6));

    let indiv = |c: usize| -> Vec<f64> {
        (0..platforms_of[corpora[c].0].isa().len() as u32)
            .map(|i| {
                corpora[c]
                    .1
                    .iter()
                    .find(|m| m.experiment.counts() == [(InstId(i), 1)])
                    .expect("every session measures all singletons")
                    .throughput
            })
            .collect()
    };

    // evo: experiment generation and congruence on each captured corpus.
    if !spec.adaptive {
        let (mut expgen_s, mut congruence_s) = (0.0, 0.0);
        for (c, (subset, corpus)) in corpora.iter().enumerate() {
            let universe: Vec<InstId> = (0..platforms_of[*subset].isa().len() as u32)
                .map(InstId)
                .collect();
            let indiv_tp = indiv(c);
            let t = Instant::now();
            let generator = ExperimentGenerator::new(universe.clone());
            let generated = [generator.singletons(), generator.pairs(&indiv_tp)].concat();
            expgen_s += t.elapsed().as_secs_f64();
            std::hint::black_box(generated);
            let t = Instant::now();
            let partition =
                CongruencePartition::compute(&universe, corpus, PipelineConfig::default().epsilon);
            congruence_s += t.elapsed().as_secs_f64();
            std::hint::black_box(partition.num_classes());
        }
        l.set("evo.expgen_ms", expgen_s * 1e3 / k as f64);
        l.set("evo.congruence_ms", congruence_s * 1e3 / k as f64);
    }

    // evo: fitness, delta evaluation and one island generation on the
    // first subset's corpus.
    let (subset, corpus) = &corpora[0];
    let n = platforms_of[*subset].isa().len();
    let ports = platforms_of[*subset].num_ports();
    let indiv_tp = indiv(0);
    if spec.adaptive {
        let population: Vec<ThreeLevelMapping> = (0..POPULATION)
            .map(|_| ThreeLevelMapping::sample_random(&mut rng, n, ports, &indiv_tp))
            .collect();
        let population = Arc::new(population);
        let mut engine = FitnessEngine::new(corpus, 1);
        engine.evaluate_batch(&population);
        let t = Instant::now();
        std::hint::black_box(engine.evaluate_batch(&population));
        l.set(
            "evo.fitness_ns_per_eval",
            t.elapsed().as_secs_f64() * 1e9 / POPULATION as f64,
        );

        let base = &traced[0].1.mapping;
        let t = Instant::now();
        for donor in population.iter() {
            let changed = InstId(rng.gen_range(0..n as u32));
            let mut mutated = base.clone();
            mutated.set_decomposition(changed, donor.decomposition(changed).to_vec());
            let cache = engine.build_cache(base);
            std::hint::black_box(engine.try_update(&mutated, &cache, changed));
        }
        l.set(
            "evo.delta_eval_us",
            t.elapsed().as_secs_f64() * 1e6 / POPULATION as f64,
        );

        let evo = EvoConfig {
            population_size: POPULATION,
            max_generations: 1,
            seed,
            ..EvoConfig::default()
        };
        let islands = IslandConfig {
            count: ISLANDS,
            ..IslandConfig::default()
        };
        let t = Instant::now();
        let result = evolve_islands(
            n,
            ports,
            corpus,
            &indiv_tp,
            &evo,
            &islands,
            IslandStart::Fresh(Vec::new()),
            false,
            None,
        );
        l.set("evo.generation_ms", t.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(result.result.objectives);

        // checkpoint: the artifact the session itself wrote last.
        let t = Instant::now();
        let snapshot = SessionCheckpoint::load(&checkpoints[*subset])
            .expect("the traced session wrote a checkpoint");
        l.set("checkpoint.load_ms", t.elapsed().as_secs_f64() * 1e3);
        let copy = dir.join("checkpoint-replay.json");
        let t = Instant::now();
        snapshot.save(&copy).expect("checkpoint replay save");
        l.set("checkpoint.save_ms", t.elapsed().as_secs_f64() * 1e3);
        l.set(
            "checkpoint.bytes",
            std::fs::metadata(&copy).map_or(0, |m| m.len()) as f64,
        );
    }

    // solver: the inferred mapping over the measured corpus.
    let compiled = CompiledExperiments::compile(corpus);
    let mut solver = ThroughputSolver::new();
    solver.load_mapping(&compiled, &traced[0].1.mapping);
    let m = compiled.num_experiments();
    let t = Instant::now();
    let scalar: Vec<f64> = (0..m).map(|e| solver.predict(&compiled, e)).collect();
    l.set(
        "solver.predict_ns",
        t.elapsed().as_secs_f64() * 1e9 / m as f64,
    );
    let indices: Vec<u32> = (0..m as u32).collect();
    let mut batch = Vec::new();
    let t = Instant::now();
    solver.predict_batch(&compiled, &indices, &mut batch);
    l.set(
        "solver.batch_ns",
        t.elapsed().as_secs_f64() * 1e9 / m as f64,
    );
    if scalar == batch {
        Vec::new()
    } else {
        vec!["the batch and scalar solver paths disagree".to_owned()]
    }
}
