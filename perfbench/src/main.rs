//! The repository benchmark: one command, three workloads, end-to-end
//! metrics from untraced runs and per-layer metrics from traced runs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload infer-oneshot|infer-adaptive|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the lines before it print every
//! metric by name with its unit, the deterministic `work` record and the
//! provenance. The full record (and, for traced runs, the span list) is
//! written under `perfbench/results/`. See `perfbench/README.md`.

mod infer;
mod serve;
mod stats;
mod trace;

use pmevo::core::json::{self, Value};
use stats::{median, Fnv};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use trace::Trace;

const WORKLOADS: [&str; 3] = ["infer-oneshot", "infer-adaptive", "serve"];

/// End-to-end metrics, reported by every untraced run of every workload.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("latency_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics, reported by every traced run. A workload that does
/// not exercise a layer reports 0 for it.
const LAYERS: [(&str, &str); 43] = [
    ("machine.measure_s", "s"),
    ("machine.experiments", "count"),
    ("machine.batches", "count"),
    ("machine.us_per_exp", "us"),
    ("isa.loopgen_us", "us"),
    ("machine.sim_us", "us"),
    ("machine.sim_cycles_per_us", "1/us"),
    ("backend.dedup_ratio", "ratio"),
    ("session.self_s", "s"),
    ("evo.self_s", "s"),
    ("evo.expgen_ms", "ms"),
    ("evo.congruence_ms", "ms"),
    ("evo.classes", "count"),
    ("evo.fitness_ns_per_eval", "ns"),
    ("evo.delta_eval_us", "us"),
    ("evo.generation_ms", "ms"),
    ("evo.rounds", "count"),
    ("evo.round_measurements", "count"),
    ("checkpoint.save_ms", "ms"),
    ("checkpoint.load_ms", "ms"),
    ("checkpoint.bytes", "bytes"),
    ("solver.predict_ns", "ns"),
    ("solver.batch_ns", "ns"),
    ("predict.hit_ratio", "ratio"),
    ("predict.miss_solve_ms", "ms"),
    ("predict.window_mean", "count"),
    ("predict.cross_conn_ratio", "ratio"),
    ("store.evictions", "count"),
    ("store.reloads", "count"),
    ("store.reload_us", "us"),
    ("store.resident_bytes", "bytes"),
    ("serve.gen_lag_ms", "ms"),
    ("serve.reload_ms", "ms"),
    ("serve.p99_ms", "ms"),
    ("serve.samples", "count"),
    ("serve.max_rps", "1/s"),
    ("x86.parse_us", "us"),
    ("x86.resolve_us", "us"),
    ("x86.block_coverage", "ratio"),
    ("infer.measurements", "count"),
    ("infer.holdout_mape", "%"),
    ("infer.holdout_pcc", "r"),
    ("trace.overhead_ms", "ms"),
];

/// Command-line arguments of one run.
pub struct RunArgs {
    workload: String,
    /// Seed every generated input is drawn from.
    pub seed: u64,
    /// How long the timed part of the run lasts.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
    };
    let mut seen = [false; 4];
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} expects {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(bad(&WORKLOADS.join(", ")));
                }
                (run.workload, seen[0]) = (value.clone(), true);
            }
            "--seed" => (run.seed, seen[1]) = (value.parse().map_err(|_| bad("an integer"))?, true),
            "--seconds" => {
                run.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(run.seconds > 0.0 && run.seconds <= 600.0) {
                    return Err(bad("a number of seconds in (0, 600]"));
                }
                seen[2] = true;
            }
            "--trace" => {
                run.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                };
                seen[3] = true;
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if seen.contains(&false) {
        return Err("all of --workload, --seed, --seconds and --trace are required".into());
    }
    Ok(run)
}

/// Per-layer values of one traced run.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Records one per-layer metric.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from [`LAYERS`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            LAYERS.iter().any(|l| l.0 == name),
            "unknown layer metric {name}"
        );
        self.0.insert(name, value);
    }
}

/// What a workload hands back.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (set-ups, sessions, lines, control verbs).
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// The first failure messages.
    pub failures: Vec<String>,
    /// Every set-up's duration.
    pub setup_s: Vec<f64>,
    /// The workload's `latency_ms`.
    pub latency_ms: f64,
    /// Workload-specific end-to-end figures, with units, for the report.
    pub named: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer metrics (traced runs).
    pub layers: Layers,
    /// Deterministic counts and digests: equal for equal seeds.
    pub work: Vec<(String, String)>,
    /// Workload parameters.
    pub params: Vec<(&'static str, String)>,
    /// The span log of a traced run.
    pub trace: Option<Trace>,
}

impl Outcome {
    /// Counts one failed check.
    pub fn fail(&mut self, message: &str) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(message.to_owned());
        }
    }
}

/// A per-run scratch directory, removed when the run ends.
struct RunDir(PathBuf);

impl RunDir {
    fn create(base: &Path) -> RunDir {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let dir = base.join(format!("run-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create the run directory");
        RunDir(dir)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host, toolchain and source fingerprint stamped on every result.
fn provenance(root: &Path) -> Vec<(&'static str, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))?
                .split(':')
                .nth(1)
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("nproc", nproc.to_string()),
        ("cpu_model", cpu),
        ("rustc", env!("PERFBENCH_RUSTC").to_owned()),
        (
            "git_commit",
            git_commit(root).unwrap_or_else(|| "none (not a git checkout)".into()),
        ),
        ("source_fnv", format!("{:016x}", source_digest(root))),
    ]
}

fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let Some(name) = head.trim().strip_prefix("ref: ") else {
        return Some(head.trim().to_owned());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(name)) {
        return Some(id.trim().to_owned());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(name))
        .and_then(|l| l.split(' ').next())
        .map(str::to_owned)
}

/// FNV-1a over the path and bytes of every source file the benchmark
/// builds from, in sorted order — a commit stand-in that also works in a
/// checkout without git metadata.
fn source_digest(root: &Path) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else if path
                .extension()
                .is_some_and(|e| e == "rs" || e == "toml" || e == "lock" || e == "txt")
            {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for part in [
        "Cargo.toml",
        "Cargo.lock",
        "src",
        "crates",
        "tests/fixtures",
        "perfbench/src",
        "perfbench/Cargo.toml",
    ] {
        let path = root.join(part);
        if path.is_dir() {
            walk(&path, &mut files);
        } else {
            files.push(path);
        }
    }
    files.sort();
    let mut fnv = Fnv::default();
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            fnv.bytes(
                f.strip_prefix(root)
                    .unwrap_or(&f)
                    .to_string_lossy()
                    .as_bytes(),
            );
            fnv.bytes(&bytes);
        }
    }
    fnv.0
}

fn strings(pairs: &[(impl AsRef<str>, String)]) -> Value {
    Value::Obj(
        pairs
            .iter()
            .map(|(k, v)| (k.as_ref().to_owned(), Value::Str(v.clone())))
            .collect(),
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload {} --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = here
        .parent()
        .expect("the benchmark lives inside the repository");
    let provenance = provenance(root);
    let dir = RunDir::create(&here.join("tmp"));
    let mut out = match args.workload.as_str() {
        "infer-oneshot" => infer::run(&infer::ONESHOT, &args, &dir.0),
        "infer-adaptive" => infer::run(&infer::ADAPTIVE, &args, &dir.0),
        _ => serve::run(&args, &dir.0),
    };

    let setup_s = median(&out.setup_s);
    let ok_frac = 1.0 - out.failed as f64 / out.attempted.max(1) as f64;
    let rss = peak_rss_mb();
    let e2e = [setup_s, out.latency_ms, rss, ok_frac];
    let mut metrics: Vec<(&str, f64, &str)> = if args.trace {
        LAYERS
            .iter()
            .map(|&(name, unit)| (name, out.layers.0.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(e2e)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect()
    };
    for m in &mut metrics {
        if !m.1.is_finite() {
            out.fail(&format!("metric {} is not finite", m.0));
            m.1 = 0.0;
        }
    }
    let mut work_fnv = Fnv::default();
    for (k, v) in &out.work {
        work_fnv.bytes(k.as_bytes());
        work_fnv.bytes(v.as_bytes());
    }

    // The human-readable report: every named metric with its unit.
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let named: Vec<(&str, f64, &str)> = [
        ("setup_s", setup_s, "s"),
        ("failed_frac", 1.0 - ok_frac, "ratio"),
        ("peak_rss_mb", rss, "MB"),
    ]
    .into_iter()
    .chain(out.named.iter().copied())
    .collect();
    let reported = metrics.iter().filter(|m| !named.iter().any(|n| n.0 == m.0));
    for (name, value, unit) in named.iter().chain(reported) {
        println!("  {name:<28} {value:>14.6} {unit}");
    }
    println!("  work_fnv                     {:016x}", work_fnv.0);
    for f in &out.failures {
        println!("  FAILED: {f}");
    }
    for (k, v) in provenance.iter().chain(&out.params) {
        println!("  {k}: {v}");
    }

    let num_obj = |items: &[(&str, f64, &str)]| {
        Value::Obj(
            items
                .iter()
                .map(|(n, v, u)| {
                    (
                        n.to_string(),
                        Value::Obj(vec![
                            ("value".into(), Value::Num(*v)),
                            ("unit".into(), Value::Str(u.to_string())),
                        ]),
                    )
                })
                .collect(),
        )
    };
    let record = Value::Obj(vec![
        ("workload".into(), Value::Str(args.workload.clone())),
        ("seed".into(), Value::UInt(args.seed)),
        ("seconds".into(), Value::Num(args.seconds)),
        ("trace".into(), Value::Bool(args.trace)),
        ("provenance".into(), strings(&provenance)),
        ("params".into(), strings(&out.params)),
        ("work".into(), strings(&out.work)),
        (
            "work_fnv".into(),
            Value::Str(format!("{:016x}", work_fnv.0)),
        ),
        ("timing".into(), num_obj(&named)),
        ("metrics".into(), num_obj(&metrics)),
        (
            "setup_samples_s".into(),
            Value::Arr(out.setup_s.iter().map(|&s| Value::Num(s)).collect()),
        ),
        (
            "failures".into(),
            Value::Arr(out.failures.iter().map(|f| Value::Str(f.clone())).collect()),
        ),
    ]);
    let results = here.join("results");
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    if std::fs::create_dir_all(&results).is_ok() {
        let _ = std::fs::write(
            results.join(format!("{stem}.json")),
            json::write_pretty(&record),
        );
        if let Some(t) = &out.trace {
            let _ = std::fs::write(results.join(format!("{stem}.spans.jsonl")), t.to_jsonl());
        }
    }
    drop(dir);

    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!(r#""{n}":{{"value":{v},"unit":"{u}"}}"#))
        .collect();
    println!(
        r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        body.join(",")
    );
}
