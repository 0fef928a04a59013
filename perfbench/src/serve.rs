//! The `serve` workload: an in-process `pmevo_serve::Server` on loopback
//! TCP, driven by this process with two threads over two connections.
//!
//! Connection A carries the timed query stream; connection B carries
//! `!reload` of fleet entries at a fixed cadence, a thin background
//! query stream (so windows can merge connections) and the final
//! `!stats`. The generator thread writes both connections and polls B;
//! the receiver thread reads A. Every answer is checked bit for bit
//! against the offline `Predictor::predict_routed` answer on an
//! identical store.

use crate::stats::{
    due_latencies_ms, due_ns, max_passing_rate, median, mix, percentile, tail_percentile, Fnv, Rung,
};
use crate::trace::Trace;
use crate::{Outcome, RunArgs};
use pmevo::core::bottleneck::throughput_naive;
use pmevo::core::json::{self, Value};
use pmevo::core::{
    CompiledExperiments, Experiment, InstId, MappingArtifact, MeasuredExperiment, PortSet,
    ThreeLevelMapping, ThroughputSolver, UopEntry,
};
use pmevo::machine::{platforms, Platform};
use pmevo::predict::{MappingId, MappingStore, Predictor, PredictorConfig};
use pmevo::serve::{route_line, store_from_specs, ServeConfig, Server};
use pmevo::x86::{normalize, parse_corpus, parse_line, NormInst, Resolver, UarchTable};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A fleet base: its name, its platform (ground truth and forms), and
/// the uarch table that resolves x86 text onto those forms.
type Base = (&'static str, fn() -> Platform, fn() -> UarchTable);

/// The ground truths the fleet is built from.
const BASES: [Base; 3] = [
    ("SKL", platforms::skl, pmevo::x86::skl),
    ("ZEN", platforms::zen, pmevo::x86::zen),
    ("A72", platforms::a72, pmevo::x86::a72),
];
/// Seeded perturbed copies of each ground truth, under free names.
const VARIANTS: usize = 4;
/// Store budget as a share of the fleet's payload bytes.
const BUDGET_PCT: u64 = 25;
/// Distinct queries; the stream reuses them with a skew.
const POOL: usize = 4096;
/// Stream index = `POOL * u^SKEW` for uniform `u`: a hot head, a long tail.
const SKEW: i32 = 3;
/// The fixed rate of the open loop. At 50k lines/s the store's reloads
/// and the client keep a 2-vCPU host about 70% busy, and the queueing
/// that leaves makes the median latency of one run swing by a quarter
/// from run to run; at 20k lines/s windows still merge many lines and
/// the median follows the server's work per window.
const OPEN_RATE: f64 = 20_000.0;
/// Share of `--seconds` spent in the fixed-rate phase.
const OPEN_SHARE: f64 = 0.75;
const LADDER_START: f64 = 2_000.0;
const LADDER_STEP: f64 = 1.5;
const LADDER_RUNGS: usize = 12;
const RUNG_S: f64 = 0.5;
const LIMIT_MS: f64 = 5.0;
const RELOAD_EVERY_S: f64 = 0.25;
/// One background query on connection B per this many lines on A.
const BACKGROUND_EVERY: usize = 20;
const SETUP_REPEATS: usize = 15;
const NAIVE_SAMPLE: usize = 256;
const RELOAD_SAMPLE: usize = 64;
const DRAIN_TIMEOUT: Duration = Duration::from_secs(20);
const CORPUS: &str = include_str!("../../tests/fixtures/x86_corpus.txt");

/// One fleet entry: a registered name and the artifact behind it.
struct Entry {
    name: String,
    base: usize,
    spec: String,
}

/// One distinct query line.
struct Query {
    entry: usize,
    line: String,
}

/// Everything set-up produces.
struct Setup {
    entries: Vec<Entry>,
    budget: u64,
    pool: Vec<Query>,
    server: Server,
    a: TcpStream,
    b: TcpStream,
    work: Vec<(String, String)>,
    parse_s: f64,
    resolve_s: f64,
    blocks: usize,
    mapped: usize,
}

fn perturb(gt: &ThreeLevelMapping, num_ports: usize, rng: &mut StdRng) -> ThreeLevelMapping {
    let mut m = gt.clone();
    for i in 0..m.num_insts() as u32 {
        if rng.gen_range(0..8) != 0 {
            continue;
        }
        let mut decomp = m.decomposition(InstId(i)).to_vec();
        let at = rng.gen_range(0..decomp.len());
        let toggled = decomp[at].ports.mask() ^ (1u64 << rng.gen_range(0..num_ports));
        if toggled != 0 {
            decomp[at] = UopEntry::new(decomp[at].count, PortSet::from_mask(toggled));
        }
        m.set_decomposition(InstId(i), decomp);
    }
    m
}

fn setup(dir: &Path, seed: u64) -> Setup {
    let bases: Vec<Platform> = BASES.iter().map(|b| (b.1)()).collect();
    let names: Vec<Vec<String>> = bases
        .iter()
        .map(|p| p.isa().forms().iter().map(|f| f.name.clone()).collect())
        .collect();

    // The fleet: each ground truth plus seeded perturbed copies, written
    // as binary artifacts.
    let mut rng = StdRng::seed_from_u64(mix(seed, 1));
    let mut entries = Vec::new();
    let mut fleet_fnv = Fnv::default();
    for (b, platform) in bases.iter().enumerate() {
        for v in 0..=VARIANTS {
            let (name, mapping) = if v == 0 {
                (BASES[b].0.to_owned(), platform.ground_truth().clone())
            } else {
                (
                    format!("{}_v{v}", BASES[b].0),
                    perturb(platform.ground_truth(), platform.num_ports(), &mut rng),
                )
            };
            let bytes = MappingArtifact::new(names[b].clone(), mapping).to_bytes();
            fleet_fnv.bytes(&bytes);
            let path = dir.join(format!("{name}.bin"));
            std::fs::write(&path, &bytes).expect("write fleet artifact");
            let spec = format!("{name}={}", path.to_str().expect("run directory is UTF-8"));
            entries.push(Entry {
                name,
                base: b,
                spec,
            });
        }
    }
    let specs: Vec<String> = entries.iter().map(|e| e.spec.clone()).collect();
    let unbudgeted = store_from_specs(&specs, None).expect("fleet registers");
    let payload: u64 = unbudgeted
        .ids()
        .map(|id| unbudgeted.get(id).payload_bytes())
        .sum();
    drop(unbudgeted);
    let budget = payload * BUDGET_PCT / 100;
    let store = store_from_specs(&specs, Some(budget)).expect("fleet registers under a budget");

    // x86 blocks from the corpus, resolved onto every base's forms.
    let t = Instant::now();
    let blocks: Vec<Vec<Option<NormInst>>> = parse_corpus(CORPUS)
        .iter()
        .map(|b| {
            b.lines
                .iter()
                .map(|(_, text)| parse_line(text).ok().flatten().map(|i| normalize(&i)))
                .collect()
        })
        .collect();
    let parse_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let resolved: Vec<Vec<Experiment>> = BASES
        .iter()
        .zip(&bases)
        .map(|(base, platform)| {
            let resolver = Resolver::new((base.2)(), platform.isa());
            blocks
                .iter()
                .filter_map(|insts| {
                    let mut counts = Vec::new();
                    for inst in insts {
                        counts.push((resolver.resolve(inst.as_ref()?).ok()?, 1));
                    }
                    (!counts.is_empty()).then(|| Experiment::from_counts(&counts))
                })
                .collect()
        })
        .collect();
    let resolve_s = t.elapsed().as_secs_f64();

    // The query pool: half corpus blocks, half seeded synthetic blocks,
    // spread over the fleet.
    let mut pool = Vec::with_capacity(POOL);
    let mut pool_fnv = Fnv::default();
    for q in 0..POOL {
        // Round-robin over the fleet, so every seed loads the store alike.
        let entry = q % entries.len();
        let b = entries[entry].base;
        let experiment = if rng.gen_range(0..2) == 0 && !resolved[b].is_empty() {
            resolved[b][rng.gen_range(0..resolved[b].len())].clone()
        } else {
            let counts: Vec<(InstId, u32)> = (0..rng.gen_range(1..=4))
                .map(|_| {
                    (
                        InstId(rng.gen_range(0..names[b].len() as u32)),
                        rng.gen_range(1..=3),
                    )
                })
                .collect();
            Experiment::from_counts(&counts)
        };
        let terms: Vec<String> = experiment
            .iter()
            .map(|(i, n)| format!("{}:{n}", names[b][i.index()]))
            .collect();
        let line = format!("{}:{}", entries[entry].name, terms.join(","));
        pool_fnv.bytes(line.as_bytes());
        pool.push(Query { entry, line });
    }

    let server = Server::new(store, ServeConfig::default()).expect("non-empty store");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = listener.local_addr().expect("bound address");
    server.listen_tcp(listener);
    let a = TcpStream::connect(addr).expect("connect A");
    let b = TcpStream::connect(addr).expect("connect B");
    a.set_nodelay(true).expect("nodelay");
    b.set_nodelay(true).expect("nodelay");

    let mapped: usize = resolved.iter().map(Vec::len).sum();
    let work = vec![
        ("fleet.entries".into(), entries.len().to_string()),
        ("fleet.payload_bytes".into(), payload.to_string()),
        ("fleet.fnv".into(), format!("{:016x}", fleet_fnv.0)),
        ("x86.blocks".into(), blocks.len().to_string()),
        ("x86.mapped_block_resolutions".into(), mapped.to_string()),
        ("pool.fnv".into(), format!("{:016x}", pool_fnv.0)),
    ];
    Setup {
        entries,
        budget,
        pool,
        server,
        a,
        b,
        work,
        parse_s,
        resolve_s,
        blocks: blocks.len(),
        mapped,
    }
}

/// The offline answer to every pool query: same routing, same parse,
/// same store configuration, answered by `predict_routed`.
fn offline_answers(
    s: &Setup,
    out: &mut Outcome,
    rng: &mut StdRng,
) -> (Vec<f64>, Vec<(MappingId, Experiment)>, MappingStore) {
    let specs: Vec<String> = s.entries.iter().map(|e| e.spec.clone()).collect();
    let store = store_from_specs(&specs, Some(s.budget)).expect("fleet registers");
    let default_name = store.get(MappingId(0)).name().to_owned();
    let queries: Vec<(MappingId, Experiment)> = s
        .pool
        .iter()
        .map(|q| {
            let (id, text) =
                route_line(&store, &default_name, &q.line).expect("default mapping exists");
            (id, store.get(id).parse(text).expect("pool lines parse"))
        })
        .collect();
    let predictor = Predictor::new(
        store.clone(),
        PredictorConfig {
            workers: 1,
            cache_capacity: 0,
        },
    );
    let expected: Vec<f64> = predictor
        .try_predict_routed(&queries)
        .into_iter()
        .map(|r| {
            r.unwrap_or_else(|e| {
                out.fail(&format!("offline prediction failed: {e}"));
                f64::NAN
            })
        })
        .collect();
    // A seeded sample against the textbook bottleneck oracle.
    for _ in 0..NAIVE_SAMPLE {
        let q = rng.gen_range(0..queries.len());
        let (id, e) = &queries[q];
        let mapping = store.get(*id).mapping().expect("artifact stays readable");
        let naive = throughput_naive(&mapping.uop_masses(e));
        if ((naive - expected[q]) / naive).abs() > 1e-9 {
            out.fail(&format!(
                "pool query {q}: served {} but the naive oracle gives {naive}",
                expected[q]
            ));
        }
    }
    (expected, queries, store)
}

/// Reads a response record: its line number, and the mapping name and
/// cycles when it is an answer rather than an error.
fn parse_record(text: &str) -> (Option<usize>, Option<(&str, f64)>) {
    let field = |key: &str| {
        let start = text.find(key)? + key.len();
        let rest = &text[start..];
        Some(&rest[..rest.find([',', '}'])?])
    };
    let line = field("\"line\":").and_then(|v| v.parse().ok());
    let name = field("\"mapping\":\"").and_then(|label| label.split('@').next());
    let cycles = field("\"cycles\":").and_then(|v| v.parse().ok());
    (line, name.zip(cycles))
}

/// Why a record is not the expected answer to pool query `q`, if it is not.
fn verdict(
    text: &str,
    q: usize,
    entries: &[Entry],
    pool: &[Query],
    expected: &[f64],
) -> Option<String> {
    match parse_record(text).1 {
        Some((name, cycles))
            if name == entries[pool[q].entry].name && cycles.to_bits() == expected[q].to_bits() =>
        {
            None
        }
        _ => Some(format!(
            "pool query {q} answered {text}, expected {}",
            expected[q]
        )),
    }
}

/// What the receiver thread saw on connection A.
#[derive(Default)]
struct Received {
    failures: Vec<String>,
    failed: u64,
    warm_fnv: Fnv,
    open_fnv: Fnv,
}

/// The generator's side of connection B: reloads, background queries
/// and their answers, polled without blocking.
struct Control<'a> {
    b: TcpStream,
    buf: Vec<u8>,
    /// Sent and not yet answered: `Some((pool index, _))` for a query,
    /// `None` for a reload; with the send time.
    pending: VecDeque<(Option<usize>, u64)>,
    next_reload_ns: u64,
    reloads_sent: usize,
    reload_ms: Vec<f64>,
    background_sent: usize,
    entries: &'a [Entry],
    pool: &'a [Query],
    expected: &'a [f64],
    failures: Vec<String>,
    failed: u64,
    attempted: u64,
    reload_order: Vec<usize>,
}

impl Control<'_> {
    fn send(&mut self, text: &str, item: Option<usize>, now: u64) {
        write_all_retrying(&mut self.b, text.as_bytes());
        self.pending.push_back((item, now));
        self.attempted += 1;
    }

    /// Sends a due reload and reads whatever answers have arrived.
    fn poll(&mut self, now: u64, reloading: bool) {
        if reloading && now >= self.next_reload_ns {
            let entry =
                &self.entries[self.reload_order[self.reloads_sent % self.reload_order.len()]];
            let command = format!("!reload {}\n", entry.spec);
            self.send(&command, None, now);
            self.reloads_sent += 1;
            self.next_reload_ns = now + (RELOAD_EVERY_S * 1e9) as u64;
        }
        let mut chunk = [0u8; 16 << 10];
        loop {
            match self.b.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.fail(format!("connection B: {e}"));
                    break;
                }
            }
        }
        while let Some(end) = self.buf.iter().position(|&c| c == b'\n') {
            let line: Vec<u8> = self.buf.drain(..=end).collect();
            let text = String::from_utf8_lossy(&line);
            let Some((item, sent)) = self.pending.pop_front() else {
                self.fail(format!("unexpected record on B: {text}"));
                continue;
            };
            match item {
                None if text.contains("\"reloaded\"") => self
                    .reload_ms
                    .push(now_ns().saturating_sub(sent) as f64 / 1e6),
                None => self.fail(format!("reload failed: {text}")),
                Some(q) => self.check(q, text.trim_end()),
            }
        }
    }

    fn check(&mut self, q: usize, text: &str) {
        if let Some(why) = verdict(text, q, self.entries, self.pool, self.expected) {
            self.fail(why);
        }
    }

    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 10 {
            self.failures.push(message);
        }
    }
}

fn write_all_retrying(stream: &mut TcpStream, mut bytes: &[u8]) {
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(n) => bytes = &bytes[n..],
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                std::thread::sleep(Duration::from_micros(50))
            }
            Err(e) => panic!("write to the server failed: {e}"),
        }
    }
}

static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();

/// Nanoseconds since the first call (never 0, so 0 can mean "not yet").
fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64 + 1
}

/// Shared between generator and receiver: arrival time of each line on
/// connection A (0 = not yet) and how many have arrived.
struct Arrivals {
    at: Vec<AtomicU64>,
    count: AtomicUsize,
}

impl Arrivals {
    fn wait_for(&self, n: usize, control: &mut Control<'_>, reloading: bool) -> bool {
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        while self.count.load(Ordering::Acquire) < n {
            if Instant::now() > deadline {
                return false;
            }
            control.poll(now_ns(), reloading);
            std::thread::sleep(Duration::from_micros(200));
        }
        true
    }

    fn slice(&self, range: std::ops::Range<usize>) -> Vec<Option<u64>> {
        self.at[range]
            .iter()
            .map(|t| Some(t.load(Ordering::Acquire)).filter(|&t| t != 0))
            .collect()
    }
}

/// Sends `lines[range]` on A at `rate` (as fast as possible for `None`),
/// background queries on B, and reloads when `reloading`; returns the
/// phase start and the summed generator lag in seconds.
#[allow(clippy::too_many_arguments)]
fn send_phase(
    a: &mut TcpStream,
    control: &mut Control<'_>,
    pool: &[Query],
    stream: &[u32],
    background: &[u32],
    range: std::ops::Range<usize>,
    rate: Option<f64>,
    trace: Option<&Trace>,
    reloading: bool,
) -> (u64, f64) {
    let start = now_ns();
    let n = range.len();
    let mut buf = Vec::with_capacity(64 << 10);
    let (mut i, mut lag_s) = (0usize, 0.0);
    while i < n {
        let now = now_ns();
        let mut j = i;
        while j < n && rate.is_none_or(|r| due_ns(start, r, j) <= now) && buf.len() < (60 << 10) {
            let line = range.start + j;
            buf.extend_from_slice(pool[stream[line] as usize].line.as_bytes());
            buf.push(b'\n');
            if let Some(r) = rate {
                lag_s += now.saturating_sub(due_ns(start, r, j)) as f64 / 1e9;
                if line.is_multiple_of(BACKGROUND_EVERY) {
                    let q = background[control.background_sent % background.len()] as usize;
                    control.background_sent += 1;
                    let text = format!("{}\n", pool[q].line);
                    control.send(&text, Some(q), now);
                }
            }
            j += 1;
        }
        if j > i {
            match trace {
                Some(t) => t.span("serve.send", 0, || write_all_retrying(a, &buf)),
                None => write_all_retrying(a, &buf),
            }
            buf.clear();
            i = j;
        }
        control.poll(now, reloading);
        if let (Some(r), true) = (rate, i < n) {
            let next = due_ns(start, r, i);
            let now = now_ns();
            if next > now {
                std::thread::sleep(Duration::from_nanos(next - now));
            }
        }
    }
    (start, lag_s)
}

/// Runs the serve workload.
pub fn run(args: &RunArgs, dir: &Path) -> Outcome {
    let mut out = Outcome::default();
    let trace = Trace::new();
    let timed_setup = |r: usize, out: &mut Outcome| -> Setup {
        let sub = dir.join(format!("setup{r}"));
        std::fs::create_dir_all(&sub).expect("create set-up directory");
        let started = Instant::now();
        let s = setup(&sub, args.seed);
        out.setup_s.push(started.elapsed().as_secs_f64());
        out.attempted += 1;
        s
    };
    // Spare set-ups, timed and torn down again: a third before the load,
    // a third between the halves of the fixed-rate phase and a third
    // after the load, so the set-up median spans the whole run.
    let spare_setups =
        |rs: std::ops::Range<usize>, work: &[(String, String)], out: &mut Outcome| {
            for r in rs {
                let other = timed_setup(r, out);
                if other.work != work {
                    out.fail("set-up work differed between repeats of one seed");
                }
                other.server.stop();
                other.server.join();
            }
        };
    let s = timed_setup(0, &mut out);
    let third = SETUP_REPEATS / 3;
    spare_setups(1..third, &s.work, &mut out);
    out.work = s.work.clone();
    let mut rng = StdRng::seed_from_u64(mix(args.seed, 2));
    let (expected, queries, offline_store) = offline_answers(&s, &mut out, &mut rng);
    let mut expected_fnv = Fnv::default();
    expected.iter().for_each(|&c| expected_fnv.f64(c));
    out.work.push((
        "pool.expected_fnv".into(),
        format!("{:016x}", expected_fnv.0),
    ));

    // The line stream on A: the pool once in order (warm-up), then
    // skewed reuse for the fixed-rate phase and the ladder.
    let open_n = (OPEN_RATE * OPEN_SHARE * args.seconds) as usize;
    let rungs: Vec<f64> = (0..LADDER_RUNGS)
        .map(|k| LADDER_START * LADDER_STEP.powi(k as i32))
        .collect();
    let rung_n: Vec<usize> = rungs.iter().map(|r| (r * RUNG_S) as usize).collect();
    let total = POOL + open_n + rung_n.iter().sum::<usize>();
    let skewed = |rng: &mut StdRng| (POOL as f64 * rng.gen::<f64>().powi(SKEW)) as u32;
    let stream: Vec<u32> = (0..POOL as u32)
        .chain((POOL..total).map(|_| skewed(&mut rng)))
        .collect();
    let background: Vec<u32> = (0..4096).map(|_| skewed(&mut rng)).collect();
    let mut reload_order: Vec<usize> = (0..s.entries.len()).collect();
    for i in (1..reload_order.len()).rev() {
        reload_order.swap(i, rng.gen_range(0..=i));
    }
    out.params = vec![
        ("fleet_entries", s.entries.len().to_string()),
        ("store_budget_bytes", s.budget.to_string()),
        ("pool", POOL.to_string()),
        ("open_rate", OPEN_RATE.to_string()),
        ("open_lines", open_n.to_string()),
        ("ladder", format!("{rungs:?}")),
        ("rung_s", RUNG_S.to_string()),
        ("limit_ms", LIMIT_MS.to_string()),
        ("reload_every_s", RELOAD_EVERY_S.to_string()),
        ("connections", "2".into()),
        ("client_threads", "2".into()),
    ];

    let arrivals = Arrivals {
        at: (0..total).map(|_| AtomicU64::new(0)).collect(),
        count: AtomicUsize::new(0),
    };
    s.b.set_nonblocking(true).expect("non-blocking B");
    let mut control = Control {
        b: s.b.try_clone().expect("clone B"),
        buf: Vec::new(),
        pending: VecDeque::new(),
        next_reload_ns: 0,
        reloads_sent: 0,
        reload_ms: Vec::new(),
        background_sent: 0,
        entries: &s.entries,
        pool: &s.pool,
        expected: &expected,
        failures: Vec::new(),
        failed: 0,
        attempted: 0,
        reload_order,
    };
    let reader = s.a.try_clone().expect("clone A");
    // A server that goes silent ends the receiver instead of hanging it.
    reader
        .set_read_timeout(Some(DRAIN_TIMEOUT))
        .expect("read timeout on A");
    let mut a = s.a.try_clone().expect("clone A");
    let (entries, pool, expected_ref, stream_ref, arrivals_ref) =
        (&s.entries, &s.pool, &expected, &stream, &arrivals);
    let mut phases = Vec::new();
    let mut ladder = Vec::new();
    let mut sent_a = 0usize;
    let received = std::thread::scope(|scope| {
        let receiver = scope.spawn(move || {
            let mut got = Received::default();
            for line in BufReader::new(reader).lines() {
                let Ok(text) = line else { break };
                let now = now_ns();
                let (line, answer) = parse_record(&text);
                let idx = line.map(|l| l - 1).filter(|&i| i < stream_ref.len());
                let why = match idx {
                    Some(i) => {
                        let cycles = answer.map_or(f64::NAN, |a| a.1);
                        if i < POOL {
                            got.warm_fnv.f64(cycles);
                        } else if i < POOL + open_n {
                            got.open_fnv.f64(cycles);
                        }
                        verdict(&text, stream_ref[i] as usize, entries, pool, expected_ref)
                    }
                    None => Some(format!("record for no line sent: {text}")),
                };
                if let Some(why) = why {
                    got.failed += 1;
                    if got.failures.len() < 10 {
                        got.failures.push(format!("connection A: {why}"));
                    }
                }
                if let Some(idx) = idx {
                    arrivals_ref.at[idx].store(now, Ordering::Release);
                }
                arrivals_ref.count.fetch_add(1, Ordering::AcqRel);
            }
            got
        });

        // Warm-up: every pool query once, as fast as the server takes them.
        send_phase(
            &mut a,
            &mut control,
            pool,
            stream_ref,
            &background,
            0..POOL,
            None,
            None,
            false,
        );
        sent_a = POOL;
        // Every phase waits for its answers; a server that stops answering
        // ends the load there, and its missing answers count as failed.
        let mut healthy = arrivals.wait_for(POOL, &mut control, false);
        // The fixed-rate phase, in two halves; a traced run records spans
        // in the second half only, so the halves give the tracing overhead.
        control.next_reload_ns = now_ns();
        let half = open_n / 2;
        for (h, range) in [POOL..POOL + half, POOL + half..POOL + open_n]
            .into_iter()
            .enumerate()
        {
            if !healthy {
                break;
            }
            let t = (args.trace && h == 1).then_some(&trace);
            let end = range.end;
            let (start, lag) = send_phase(
                &mut a,
                &mut control,
                pool,
                stream_ref,
                &background,
                range.clone(),
                Some(OPEN_RATE),
                t,
                true,
            );
            sent_a = end;
            healthy = arrivals.wait_for(end, &mut control, true);
            phases.push((start, range, lag));
            if h == 0 {
                spare_setups(third..2 * third, &s.work, &mut out);
            }
        }
        // The ladder: fixed geometric rates until the first rung that
        // misses the limit or leaves a backlog.
        let mut first = POOL + open_n;
        for (&rate, &n) in rungs.iter().zip(&rung_n) {
            if !healthy {
                break;
            }
            let range = first..first + n;
            let (start, _) = send_phase(
                &mut a,
                &mut control,
                pool,
                stream_ref,
                &background,
                range.clone(),
                Some(rate),
                None,
                false,
            );
            sent_a = range.end;
            // Lines still unanswered when the rung's last line was due,
            // beyond the rate x limit that may legitimately be in flight.
            let last_due = due_ns(start, rate, n - 1);
            let now = now_ns();
            if last_due > now {
                std::thread::sleep(Duration::from_nanos(last_due - now));
            }
            let in_flight = range
                .end
                .saturating_sub(arrivals.count.load(Ordering::Acquire));
            let backlog = in_flight.saturating_sub((rate * LIMIT_MS / 1e3).ceil() as usize);
            if !arrivals.wait_for(range.end, &mut control, false) {
                break;
            }
            let mut lat = due_latencies_ms(start, rate, &arrivals.slice(range.clone()));
            lat.sort_by(|x, y| x.total_cmp(y));
            let rung = Rung {
                rate,
                p99_ms: tail(&lat),
                backlog,
            };
            ladder.push(rung);
            first = range.end;
            if !rung.passes(LIMIT_MS) {
                break;
            }
        }
        // Drain B, then read the daemon's counters.
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        while !control.pending.is_empty() && Instant::now() < deadline {
            control.poll(now_ns(), false);
            std::thread::sleep(Duration::from_micros(200));
        }
        a.shutdown(Shutdown::Write).expect("half-close A");
        receiver.join().expect("receiver thread")
    });
    let unanswered = sent_a.saturating_sub(arrivals.count.load(Ordering::Acquire));
    out.attempted += sent_a as u64 + control.attempted;
    out.failed +=
        received.failed + control.failed + unanswered as u64 + control.pending.len() as u64;
    out.failures
        .extend(received.failures.iter().chain(&control.failures).cloned());
    if received.warm_fnv != expected_fnv {
        out.fail("warm-up answers differ from the offline answers");
    }
    out.work.push(("open.lines".into(), open_n.to_string()));
    out.work.push((
        "open.answers_fnv".into(),
        format!("{:016x}", received.open_fnv.0),
    ));

    let stats = read_stats(&mut control);
    let snapshot = s.server.predictor().snapshot();
    s.server.stop();
    s.server.join();
    spare_setups(2 * third..SETUP_REPEATS, &s.work, &mut out);

    let half_lat = |p: &(u64, std::ops::Range<usize>, f64)| {
        let mut lat = due_latencies_ms(p.0, OPEN_RATE, &arrivals.slice(p.1.clone()));
        lat.sort_by(|x, y| x.total_cmp(y));
        lat
    };
    let halves: Vec<Vec<f64>> = phases.iter().map(half_lat).collect();
    let mut all: Vec<f64> = halves.concat();
    all.sort_by(|x, y| x.total_cmp(y));
    let p50 = percentile(&all, 50.0);
    let p99 = tail(&all);
    let max_rps = max_passing_rate(&ladder, LIMIT_MS).unwrap_or(0.0);
    let half_p50 = |h: usize| halves.get(h).map_or(f64::NAN, |l| percentile(l, 50.0));
    out.latency_ms = if args.trace { half_p50(0) } else { p50 };
    out.named = vec![
        ("serve_p50_ms", p50, "ms"),
        ("serve_p99_ms", p99, "ms"),
        ("serve_samples", all.len() as f64, "count"),
        ("serve_max_rps", max_rps, "1/s"),
    ];
    let rungs_run: Vec<String> = ladder
        .iter()
        .map(|r| {
            format!(
                "{:.0}/s p99 {:.3} ms backlog {}",
                r.rate, r.p99_ms, r.backlog
            )
        })
        .collect();
    out.params.push(("ladder_run", rungs_run.join("; ")));

    if args.trace {
        let l = &mut out.layers;
        l.set("serve.p99_ms", p99);
        l.set("serve.samples", all.len() as f64);
        l.set("serve.max_rps", max_rps);
        l.set("trace.overhead_ms", half_p50(1) - half_p50(0));
        let lag: f64 = phases.iter().map(|p| p.2).sum();
        l.set("serve.gen_lag_ms", lag * 1e3 / open_n.max(1) as f64);
        l.set(
            "serve.reload_ms",
            if control.reload_ms.is_empty() {
                0.0
            } else {
                median(&control.reload_ms)
            },
        );
        l.set("x86.parse_us", s.parse_s * 1e6 / s.blocks as f64);
        l.set(
            "x86.resolve_us",
            s.resolve_s * 1e6 / (s.blocks * BASES.len()) as f64,
        );
        l.set(
            "x86.block_coverage",
            s.mapped as f64 / (s.blocks * BASES.len()) as f64,
        );
        if let Some(stats) = &stats {
            stats_layers(stats, l);
        }
        reload_replay(&snapshot, l);
        solver_replay(&queries, &expected, &offline_store, l);
        out.trace = Some(trace);
    }
    if stats.is_none() {
        out.fail("no !stats answer");
    }
    out
}

/// The 99th percentile of ascending latencies, or the highest lower
/// percentile that still has ten samples beyond it (`f64::INFINITY`
/// with no usable samples, which fails any limit).
fn tail(sorted: &[f64]) -> f64 {
    tail_percentile(sorted.len()).map_or(f64::INFINITY, |p| percentile(sorted, p.min(99.0)))
}

/// Sends `!stats` on B and waits for its record.
fn read_stats(control: &mut Control<'_>) -> Option<Value> {
    let mut b = control.b.try_clone().ok()?;
    write_all_retrying(&mut b, b"!stats\n");
    let deadline = Instant::now() + DRAIN_TIMEOUT;
    let mut chunk = [0u8; 16 << 10];
    while Instant::now() < deadline {
        match b.read(&mut chunk) {
            Ok(0) => return None,
            Ok(n) => control.buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1))
            }
            Err(_) => return None,
        }
        if let Some(end) = control.buf.iter().position(|&c| c == b'\n') {
            return json::parse(&String::from_utf8_lossy(&control.buf[..end])).ok();
        }
    }
    None
}

fn num(v: Option<&Value>) -> f64 {
    match v {
        Some(Value::Num(x)) => *x,
        Some(Value::UInt(n)) => *n as f64,
        _ => 0.0,
    }
}

fn stats_layers(record: &Value, l: &mut crate::Layers) {
    let Some(st) = record.get("stats") else {
        return;
    };
    let windows = num(st.get("coalesced_windows")).max(1.0);
    l.set("predict.hit_ratio", num(st.get("hit_rate")));
    l.set("predict.miss_solve_ms", num(st.get("miss_solve_ms")));
    l.set("predict.window_mean", num(st.get("queries")) / windows);
    l.set(
        "predict.cross_conn_ratio",
        num(st.get("cross_connection_windows")) / windows,
    );
    let store = st.get("store");
    l.set(
        "store.evictions",
        num(store.and_then(|s| s.get("evictions"))),
    );
    l.set("store.reloads", num(store.and_then(|s| s.get("reloads"))));
    l.set(
        "store.resident_bytes",
        num(store.and_then(|s| s.get("resident_bytes"))),
    );
}

/// Times `StoredMapping::mapping()` on entries the budget evicted.
fn reload_replay(store: &MappingStore, l: &mut crate::Layers) {
    let evicted: Vec<MappingId> = store
        .ids()
        .filter(|&id| !store.get(id).is_resident())
        .take(RELOAD_SAMPLE)
        .collect();
    let mut total = 0.0;
    for &id in &evicted {
        let t = Instant::now();
        let m = store.get(id).mapping().expect("evicted artifact reloads");
        total += t.elapsed().as_secs_f64();
        std::hint::black_box(m);
    }
    l.set("store.reload_us", total * 1e6 / evicted.len().max(1) as f64);
}

/// Times the scalar and batch solver paths on the cold query set, one
/// fleet entry at a time.
fn solver_replay(
    queries: &[(MappingId, Experiment)],
    expected: &[f64],
    store: &MappingStore,
    l: &mut crate::Layers,
) {
    let (mut scalar_s, mut batch_s) = (0.0, 0.0);
    let mut solver = ThroughputSolver::new();
    for id in store.ids() {
        let group: Vec<MeasuredExperiment> = queries
            .iter()
            .zip(expected)
            .filter(|(q, _)| q.0 == id)
            .map(|(q, &t)| MeasuredExperiment::new(q.1.clone(), t))
            .collect();
        if group.is_empty() {
            continue;
        }
        let mapping = store.get(id).mapping().expect("artifact stays readable");
        let compiled = CompiledExperiments::compile(&group);
        solver.load_mapping(&compiled, &mapping);
        let t = Instant::now();
        for e in 0..group.len() {
            std::hint::black_box(solver.predict(&compiled, e));
        }
        scalar_s += t.elapsed().as_secs_f64();
        let indices: Vec<u32> = (0..group.len() as u32).collect();
        let mut out = Vec::new();
        let t = Instant::now();
        solver.predict_batch(&compiled, &indices, &mut out);
        batch_s += t.elapsed().as_secs_f64();
    }
    l.set("solver.predict_ns", scalar_s * 1e9 / queries.len() as f64);
    l.set("solver.batch_ns", batch_s * 1e9 / queries.len() as f64);
}
