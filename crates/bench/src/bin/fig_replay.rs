//! BHive-style corpus replay through the real-ISA front end: stream a
//! synthetic corpus of disassembled x86-64 basic blocks through the
//! `pmevo-x86` resolver and a [`Predictor`], per target uarch, and
//! report coverage, accounting and throughput.
//!
//! Usage: `cargo run --release -p pmevo-bench --bin fig_replay
//!         [--blocks 2000] [--uarch skl,zen,a72] [--jobs-list 1,2,8]
//!         [--cache 65536] [--seed 7] [--timings]
//!         [--out BENCH_replay.json]`
//!
//! The corpus is seeded and identical for every uarch (the A72 column
//! exercises the cross-ISA translation table on the same x86 text).
//! Each uarch is replayed once per worker count in `--jobs-list`, and
//! the accounting JSON of every cell is asserted byte-identical — the
//! replay result is a pure function of (corpus, uarch, mapping), never
//! of predictor parallelism. **Without** `--timings` the artifact
//! contains no wall-clock fields, so two runs emit identical bytes and
//! CI double-runs and `cmp`s them, exactly like `fig_budget` and
//! `fig_predict`. With `--timings` each cell additionally reports
//! blocks/second.

use pmevo_core::flags::{self, flag, list_flag, num_flag, switch, Exit};
use pmevo_core::json::{self, Value};
use pmevo_machine::{platforms, Platform};
use pmevo_predict::{MappingId, MappingStore, Predictor, PredictorConfig};
use pmevo_stats::Table;
use pmevo_x86::{accounting_json, replay, synthetic_corpus, Resolver};
use std::process::ExitCode;
use std::time::Instant;

/// Ground-truth store for one platform, the stand-in for a deployed
/// inferred artifact.
fn build_store(p: &Platform) -> (MappingStore, MappingId) {
    let mut store = MappingStore::new();
    let names = p.isa().forms().iter().map(|f| f.name.clone()).collect();
    let id = store.insert(p.name(), names, p.ground_truth().clone());
    (store, id)
}

fn main() -> ExitCode {
    flags::run("", run)
}

fn run(args: &[String]) -> Result<(), Exit> {
    let seed = num_flag(args, "--seed", 7u64)?;
    let blocks = num_flag(args, "--blocks", 2000usize)?;
    let cache_capacity = num_flag(args, "--cache", 1usize << 16)?;
    let jobs_list: Vec<usize> = list_flag(args, "--jobs-list", "1,2,8")?;
    let timings = switch(args, "--timings");
    let out = flag(args, "--out")?.unwrap_or_else(|| "BENCH_replay.json".into());
    let uarchs = list_flag::<String>(args, "--uarch", "skl,zen,a72")?
        .into_iter()
        .map(|name| {
            let name = name.to_lowercase();
            match pmevo_x86::by_name(&name) {
                Some(table) => Ok((name, table)),
                None => Err(flags::unknown_name("--uarch", &name, "skl, zen or a72")),
            }
        })
        .collect::<Result<Vec<_>, Exit>>()?;

    let corpus = synthetic_corpus(blocks, seed);
    let uarch_names: Vec<&String> = uarchs.iter().map(|(name, _)| name).collect();
    println!("fig_replay: {blocks} basic blocks (seed {seed}) against {uarch_names:?}\n");

    let mut table = Table::new(vec![
        "uarch", "workers", "blocks", "mapped", "inst cov", "checksum", "blocks/s",
    ]);
    let mut uarch_rows: Vec<Value> = Vec::with_capacity(uarchs.len());
    for (name, uarch) in &uarchs {
        let platform = platforms::by_name(uarch.platform())
            .expect("every uarch table names a built-in platform");
        let mut reference: Option<String> = None;
        let mut cells: Vec<Value> = Vec::with_capacity(jobs_list.len());
        for &workers in &jobs_list {
            // A fresh resolver, store and predictor per cell: no cache
            // state leaks between worker counts.
            let resolver = Resolver::new(uarch.clone(), platform.isa());
            let (store, id) = build_store(&platform);
            let predictor =
                Predictor::new(store, PredictorConfig { workers, cache_capacity });
            let started = Instant::now();
            let r = replay(&corpus, &resolver, &predictor, id);
            let elapsed = started.elapsed();
            let acc_json = accounting_json(&r.accounting);
            // The determinism contract of the whole subsystem: worker
            // count never changes a byte of the accounting.
            match &reference {
                None => reference = Some(acc_json.clone()),
                Some(first) => assert_eq!(
                    &acc_json, first,
                    "accounting must be byte-identical across worker counts ({name})"
                ),
            }
            let blocks_per_sec =
                timings.then(|| r.accounting.blocks as f64 / elapsed.as_secs_f64());
            table.row(vec![
                name.clone(),
                workers.to_string(),
                r.accounting.blocks.to_string(),
                r.accounting.mapped_blocks.to_string(),
                format!("{:.1}%", 100.0 * r.accounting.inst_coverage()),
                format!("{:016x}", r.accounting.checksum),
                blocks_per_sec.map(|b| format!("{b:.0}")).unwrap_or_else(|| "-".into()),
            ]);
            cells.push(Value::Obj(vec![
                ("workers".into(), Value::UInt(workers as u64)),
                (
                    "blocks_per_sec".into(),
                    blocks_per_sec.map(Value::Num).unwrap_or(Value::Null),
                ),
            ]));
        }
        let accounting =
            json::parse(reference.as_deref().expect("at least one worker cell"))
                .expect("accounting JSON parses");
        uarch_rows.push(Value::Obj(vec![
            ("uarch".into(), Value::Str(name.clone())),
            ("platform".into(), Value::Str(platform.name().to_string())),
            ("accounting".into(), accounting),
            ("cells".into(), Value::Arr(cells)),
        ]));
    }
    println!("{table}");

    let artifact = Value::Obj(vec![
        ("seed".into(), Value::UInt(seed)),
        ("blocks".into(), Value::UInt(blocks as u64)),
        ("uarchs".into(), Value::Arr(uarch_rows)),
    ]);
    let text = json::write_pretty(&artifact);
    std::fs::write(&out, &text)
        .map_err(|e| Exit::failure(format!("error: cannot write {out}: {e}")))?;
    let parsed = json::parse(&text).expect("emitted artifact parses");
    let n = parsed.get("uarchs").and_then(Value::as_arr).expect("artifact has uarchs").len();
    assert_eq!(n, uarchs.len(), "artifact covers every uarch");
    println!("wrote {n} uarch replays to {out}");
    Ok(())
}
