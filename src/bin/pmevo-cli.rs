//! `pmevo-cli` — command-line front end for the PMEvo reproduction.
//!
//! Subcommands:
//!
//! * `platforms` — list the built-in simulated machines;
//! * `infer --platform SKL [--population 300] [--algorithm pmevo]
//!   [--seed N] [--out mapping.json] [--format json|bin]
//!   [--report report.json]` — run an inference session and write the
//!   mapping (and optionally the full session report); `--format bin`
//!   writes the compact binary artifact ([`MappingArtifact`]), which
//!   embeds the platform's instruction-name table; `--islands N` evolves
//!   N subpopulations over one worker pool, `--checkpoint FILE` writes a
//!   resumable evolution-state artifact every `--checkpoint-every`
//!   generations, and `--resume` continues from it bit-identically
//!   (flags not repeated are adopted from the artifact);
//! * `show --platform SKL --mapping mapping.json [--limit 20]` — render
//!   a mapping in uops.info-style notation;
//! * `convert --in artifact --out artifact [--platform SKL]` — convert
//!   a mapping artifact between JSON and the compact binary format (the
//!   direction is sniffed from the input's magic); JSON inputs need
//!   `--platform` to supply the name table the binary format embeds;
//! * `predict --mapping SKL=skl.json [--mapping ZEN=zen.json ...]
//!   [--jobs 4] [--cache 65536] [--batch 1024]` — the serving mode:
//!   read line-oriented instruction sequences from stdin (optionally
//!   prefixed `PLATFORM:`), answer each as a JSON line on stdout
//!   through a cached, worker-pooled [`pmevo_predict::Predictor`];
//! * `predict --platform SKL --mapping mapping.json --experiment
//!   "add_r64_r64:2,imul_r64_r64:1"` — one-off mode: predict (and
//!   measure) one experiment's throughput;
//! * `predict --corpus blocks.txt --isa x86 --uarch skl
//!   --mapping SKL=skl.json` — corpus replay: parse a BHive-style file
//!   of disassembled basic blocks (AT&T or Intel syntax), resolve each
//!   instruction onto the target microarchitecture's form universe via
//!   [`pmevo::x86`], predict every fully-mapped block's throughput, and
//!   finish with one deterministic coverage/accounting JSON line;
//! * `client --connect HOST:PORT | --unix PATH` — pipe stdin to a
//!   running `pmevo-serve` daemon and its responses to stdout (the
//!   socket-framed equivalent of `predict`'s stdin/stdout pipe).
//!
//! Exit code 2 on usage errors, 1 on malformed flag values and runtime
//! failures; never a panic on the serving paths.

use pmevo::core::flags::{
    self, byte_flag, flag, flag_all, num_flag, positive_flag, switch, Exit,
};
use pmevo::core::json::{self, Value};
use pmevo::core::{
    render, suggest, Experiment, InstId, MappingArtifact, SequenceParseError, ServeRecord,
    ThreeLevelMapping,
};
use pmevo::machine::{platforms, MeasureConfig, Measurer, Platform};
use pmevo::predict::{MappingId, MappingStore, Predictor, PredictorConfig};
use pmevo::serve::{load_spec_artifact, route_line, store_from_specs};
use pmevo::{Session, SessionCheckpoint};
use std::io::{BufRead, Read, Write};
use std::process::ExitCode;

const USAGE: &str = "usage: pmevo-cli <platforms|infer|show|predict|convert|client> [flags]\n\
     \n\
     pmevo-cli platforms\n\
     pmevo-cli infer   --platform SKL [--population 300] [--generations N]\n\
                       [--algorithm pmevo] [--seed N] [--out mapping.json]\n\
                       [--format json|bin] [--report report.json]\n\
                       [--islands N] [--selection one-shot|disagreement|uniform]\n\
                       [--top-k N] [--budget MEASUREMENTS]\n\
                       [--checkpoint FILE [--checkpoint-every GENS] [--resume]\n\
                        [--halt-after-checkpoints N]]\n\
                       (--resume continues from FILE bit-identically; flags\n\
                        not repeated are adopted from the artifact)\n\
     pmevo-cli show    --platform SKL --mapping mapping.json [--limit 20]\n\
     pmevo-cli convert --in artifact --out artifact [--platform SKL]\n\
                       (JSON <-> compact binary; JSON to binary needs\n\
                        --platform for the instruction-name table)\n\
     pmevo-cli predict --mapping SKL=skl.json [--mapping ZEN=zen.json ...]\n\
                       [--jobs N] [--cache N] [--batch N] [--store-budget BYTES]\n\
                       (streams stdin sequences like \"SKL: add_r64_r64; imul_r64_r64 x2\"\n\
                        to JSON throughputs on stdout)\n\
     pmevo-cli predict --platform SKL --mapping mapping.json \\\n\
                       --experiment \"add_r64_r64:2,imul_r64_r64:1\"\n\
     pmevo-cli predict --corpus blocks.txt --uarch skl [--isa x86]\n\
                       --mapping SKL=skl.json [--jobs N] [--cache N]\n\
                       (replays a basic-block corpus: one JSON line per\n\
                        block, then one accounting line, on stdout)\n\
     pmevo-cli client  --connect HOST:PORT | --unix PATH\n\
                       (pipes stdin to a pmevo-serve daemon, responses to stdout)";

/// The platform named by the required `--platform` flag.
fn platform(args: &[String]) -> Result<Platform, Exit> {
    flags::name_flag(args, "--platform", platforms::NAMES, platforms::by_name)?
        .ok_or_else(|| Exit::usage_error("missing --platform"))
}

fn load_mapping(args: &[String], platform: &Platform) -> Result<ThreeLevelMapping, Exit> {
    let path = flag(args, "--mapping")?
        .ok_or_else(|| Exit::usage_error("missing --mapping <file.json>"))?;
    let data = std::fs::read_to_string(&path)
        .map_err(|e| Exit::failure(format!("cannot read {path}: {e}")))?;
    let mapping = ThreeLevelMapping::from_json(&data)
        .map_err(|e| Exit::failure(format!("cannot parse {path}: {e}")))?;
    if mapping.num_insts() != platform.isa().len() || mapping.num_ports() != platform.num_ports() {
        return Err(Exit::failure(format!(
            "mapping shape ({} insts, {} ports) does not match platform {} ({} insts, {} ports)",
            mapping.num_insts(),
            mapping.num_ports(),
            platform.name(),
            platform.isa().len(),
            platform.num_ports()
        )));
    }
    Ok(mapping)
}

/// Parses `"name:count,name:count"` into an experiment.
fn parse_experiment(platform: &Platform, spec: &str) -> Result<Experiment, String> {
    let mut counts: Vec<(InstId, u32)> = Vec::new();
    for part in spec.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (name, count) = match part.rsplit_once(':') {
            Some((n, c)) => (
                n.trim(),
                c.trim()
                    .parse::<u32>()
                    .map_err(|_| format!("bad count in {part:?}"))?,
            ),
            None => (part, 1),
        };
        let id = platform.isa().find(name).ok_or_else(|| {
            let names = platform.isa().forms().iter().map(|f| f.name.as_str());
            match suggest::nearest(name, names) {
                Some(s) => format!("unknown instruction form {name:?} (did you mean {s:?}?)"),
                None => format!("unknown instruction form {name:?}"),
            }
        })?;
        counts.push((id, count));
    }
    if counts.is_empty() {
        return Err("empty experiment".to_string());
    }
    Ok(Experiment::from_counts(&counts))
}

fn cmd_platforms() -> Result<(), Exit> {
    for p in [
        platforms::skl(),
        platforms::zen(),
        platforms::a72(),
        platforms::tiny(),
    ] {
        println!(
            "{:4} {:10} {:8} {} forms, {} ports, fetch {}, window {}",
            p.name(),
            p.info().microarch,
            p.info().isa_name,
            p.isa().len(),
            p.num_ports(),
            p.fetch_width(),
            p.window_size()
        );
    }
    Ok(())
}

fn cmd_infer(args: &[String]) -> Result<(), Exit> {
    let platform = platform(args)?;
    let mut population = positive_flag(args, "--population", 300)?;
    let mut seed = num_flag(args, "--seed", 0x90ADu64)?;
    let generations = num_flag(args, "--generations", 0u32)?;
    let mut islands = positive_flag(args, "--islands", 1)? as u32;
    let mut selection = flags::selection_flag(args)?;
    let mut budget = flags::budget_flag(args)?;
    let checkpoint_path = flag(args, "--checkpoint")?;
    let checkpoint_every = num_flag(args, "--checkpoint-every", 8u32)?;
    let halt_after = num_flag(args, "--halt-after-checkpoints", 0u32)?;
    let format = flags::name_flag(args, "--format", "json or bin", |f| {
        ["json", "bin"].into_iter().find(|known| *known == f)
    })?
    .unwrap_or("json");
    let out = flag(args, "--out")?
        .unwrap_or_else(|| format!("pmevo_{}.{format}", platform.name().to_lowercase()));
    let report_path = flag(args, "--report")?;
    let algorithm = flag(args, "--algorithm")?.unwrap_or_else(|| "pmevo".into());
    // A resumed run adopts the artifact's header for every flag the user
    // did not repeat, so `--checkpoint FILE --resume` alone continues a
    // run bit-identically; explicitly conflicting flags are rejected by
    // the session builder. Every header flag was parsed above, so one
    // that is present was given with a value.
    let snapshot = if switch(args, "--resume") {
        let path = checkpoint_path.as_deref().ok_or_else(|| {
            Exit::usage_error("--resume needs --checkpoint FILE (the artifact to continue from)")
        })?;
        let snapshot = SessionCheckpoint::load(std::path::Path::new(path))
            .map_err(|e| Exit::failure(format!("error: cannot resume: {e}")))?;
        if !switch(args, "--seed") {
            seed = snapshot.seed;
        }
        if !switch(args, "--population") {
            population = snapshot.population_size as usize;
        }
        if !switch(args, "--islands") {
            islands = snapshot.islands;
        }
        if !switch(args, "--selection") {
            selection = snapshot.selection;
        }
        if !switch(args, "--budget") {
            budget = snapshot.budget;
        }
        Some(snapshot)
    } else {
        None
    };
    // The binary artifact embeds the instruction-name table; capture it
    // before the platform moves into the session builder.
    let inst_names: Vec<String> =
        platform.isa().forms().iter().map(|f| f.name.clone()).collect();

    if algorithm != "pmevo" && (checkpoint_path.is_some() || islands > 1) {
        return Err(Exit::usage_error(
            "--islands and --checkpoint are only supported by the pmevo algorithm",
        ));
    }
    let baseline = match algorithm.as_str() {
        "pmevo" => None,
        name => Some(pmevo::baselines::by_name(name, seed).ok_or_else(|| {
            flags::unknown_name("--algorithm", name, "pmevo, counting, random or lp")
        })?),
    };
    // Fail before measuring anything, not at the first checkpoint write.
    if let Some(path) = checkpoint_path.as_deref() {
        check_checkpoint_writable(path)
            .map_err(|e| Exit::failure(format!("error: cannot write checkpoint {path}: {e}")))?;
    }
    eprintln!(
        "inferring port mapping for {} with {algorithm} (population {population}, seed {seed}) ...",
        platform.name()
    );
    let mut builder = Session::builder()
        .platform(platform)
        .seed(seed)
        .population(population)
        .islands(islands)
        .selection(selection)
        .budget(budget);
    if generations > 0 {
        builder = builder.max_generations(generations);
    }
    if let Some(path) = checkpoint_path {
        builder = builder.checkpoint(path, checkpoint_every);
    }
    if let Some(snapshot) = snapshot {
        builder = builder.resume_from(snapshot);
    }
    if halt_after > 0 {
        builder = builder.halt_after_checkpoints(halt_after);
    }
    if let Some(baseline) = baseline {
        builder = builder.algorithm(baseline);
    }
    let report = builder.build().map_err(|e| Exit::usage_error(e.to_string()))?.run();
    eprintln!("{report}");
    if let Some(report_path) = report_path {
        std::fs::write(&report_path, report.to_json_pretty())
            .map_err(|e| Exit::failure(format!("cannot write {report_path}: {e}")))?;
        eprintln!("session report written to {report_path}");
    }
    let artifact_bytes = if format == "bin" {
        MappingArtifact::new(inst_names, report.mapping.clone()).to_bytes()
    } else {
        report.mapping.to_json_pretty().into_bytes()
    };
    std::fs::write(&out, artifact_bytes)
        .map_err(|e| Exit::failure(format!("cannot write {out}: {e}")))?;
    println!("{out}");
    Ok(())
}

/// Checks that checkpoints can be saved to `path`. A save writes a
/// `.tmp` sibling and renames it into place, so that sibling must be
/// creatable; the probe file is removed again.
fn check_checkpoint_writable(path: &str) -> std::io::Result<()> {
    let tmp = std::path::Path::new(path).with_extension("tmp");
    std::fs::OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(false)
        .open(&tmp)?;
    std::fs::remove_file(&tmp)
}

/// `convert`: re-encode a mapping artifact between JSON and the compact
/// binary format, sniffing the direction from the input's content. The
/// binary format embeds the instruction-name table, so converting *to*
/// it needs `--platform`; converting *from* it drops the table (the
/// JSON artifact format has none — it is the mapping alone).
fn cmd_convert(args: &[String]) -> Result<(), Exit> {
    let (Some(input), Some(out)) = (flag(args, "--in")?, flag(args, "--out")?) else {
        return Err(Exit::usage_error("convert needs --in <artifact> and --out <artifact>"));
    };
    let bytes =
        std::fs::read(&input).map_err(|e| Exit::failure(format!("cannot read {input}: {e}")))?;
    let written = if MappingArtifact::sniff(&bytes) {
        let artifact = MappingArtifact::from_bytes(&bytes)
            .map_err(|e| Exit::failure(format!("cannot decode {input}: {e}")))?;
        std::fs::write(&out, artifact.mapping().to_json_pretty())
    } else {
        // JSON in: the name table must come from a built-in platform.
        let platform = flags::name_flag(args, "--platform", platforms::NAMES, platforms::by_name)?
            .ok_or_else(|| {
                Exit::usage_error(
                    "converting a JSON artifact to binary needs --platform \
                     (the binary format embeds the platform's instruction names)",
                )
            })?;
        let (_, loaded) = load_spec_artifact(platform.name(), &input)
            .map_err(|message| Exit::failure(format!("error: {message}")))?;
        std::fs::write(&out, MappingArtifact::new(loaded.inst_names, loaded.mapping).to_bytes())
    };
    written.map_err(|e| Exit::failure(format!("cannot write {out}: {e}")))?;
    println!("{out}");
    Ok(())
}

fn cmd_show(args: &[String]) -> Result<(), Exit> {
    let platform = platform(args)?;
    let limit = num_flag(args, "--limit", usize::MAX)?;
    let mapping = load_mapping(args, &platform)?;
    let s = render::summary(&mapping, |i| platform.isa().form(i).name.clone());
    for (name, decomp) in s.lines().iter().take(limit) {
        println!("{name:28} {decomp}");
    }
    if s.lines().len() > limit {
        println!("... ({} more)", s.lines().len() - limit);
    }
    println!();
    print!("port pressure:");
    for (p, mass) in s.port_usage().iter().enumerate() {
        print!("  p{p}={mass:.1}");
    }
    println!();
    Ok(())
}

/// Loads the `--mapping` flags of serving mode into a store. Accepts
/// `NAME=file` (a built-in platform name, which provides the
/// instruction names, or any name with a binary artifact, which embeds
/// them) or a bare `file.json` with `--platform`; bare specs are
/// normalized to `NAME=path` so the daemon and the offline pipe share
/// one loader ([`store_from_specs`]). `--store-budget` caps the bytes
/// of mapping payloads held resident; the rest reload lazily.
fn build_store(args: &[String]) -> Result<MappingStore, Exit> {
    let budget = byte_flag(args, "--store-budget")?;
    let mut specs = flag_all(args, "--mapping")?;
    if specs.iter().any(|s| !s.contains('=')) {
        let platform = platform(args)?;
        for spec in &mut specs {
            if !spec.contains('=') {
                *spec = format!("{}={spec}", platform.name());
            }
        }
    }
    store_from_specs(&specs, budget)
        .map_err(|message| Exit::usage_error(format!("error: {message}")).with_usage())
}

/// Settles a run's stdout writes under the exit contract: a closed pipe
/// (`… | head -1`) means the reader has all it wants, so the run stops
/// quietly with `Ok(false)` and exits 0; any other write failure is a
/// runtime error.
fn stdout_open(written: std::io::Result<()>) -> Result<bool, Exit> {
    match written {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(false),
        Err(e) => Err(Exit::failure(format!("error: cannot write to stdout: {e}"))),
    }
}

/// Serving mode: stream sequences from stdin through a [`Predictor`],
/// one JSON result line per input line, in input order.
fn cmd_predict_stream(args: &[String]) -> Result<(), Exit> {
    // Flags are validated before any file is touched, so a typo'd
    // `--jobs abc` is reported as itself, not masked by a store error.
    let jobs = positive_flag(args, "--jobs", 1)?;
    let cache = num_flag(args, "--cache", 1usize << 16)?;
    // `--batch 0` would silently turn the flush threshold into
    // "always", so zero is rejected rather than clamped.
    let batch = positive_flag(args, "--batch", 1024)?;
    let store = build_store(args)?;
    // Unprefixed lines go to the latest version of the first-loaded
    // name, matching how prefixed lines resolve. `build_store` already
    // refused an empty store, so the first id exists.
    let Some(first_id) = store.ids().next() else {
        return Err(Exit::usage_error(
            "error: at least one --mapping NAME=file.json is required",
        ));
    };
    let default_name = store.get(first_id).name().to_owned();
    let predictor = Predictor::new(store, PredictorConfig { workers: jobs, cache_capacity: cache });
    let store = predictor.snapshot();
    let labels: Vec<String> = store.ids().map(|id| store.get(id).label()).collect();

    let stdin = std::io::stdin();
    if std::io::IsTerminal::is_terminal(&stdin) {
        eprintln!(
            "reading sequences from stdin (one per line, Ctrl-D to finish); \
             use --experiment \"form:count,...\" for a one-off prediction"
        );
    }
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    // One entry per pending input line: a routed sequence or a parse
    // failure (kept in the batch so output stays strictly line-ordered).
    enum Entry {
        Seq(MappingId, Experiment),
        Failed(String),
    }
    let mut pending: Vec<(u64, Entry)> = Vec::with_capacity(batch);
    let mut errors = 0u64;
    let flush = |pending: &mut Vec<(u64, Entry)>, out: &mut dyn Write| -> std::io::Result<()> {
        // The predictor groups the window per mapping; results come back
        // in input order and are re-interleaved with the failed lines.
        let (slots, queries): (Vec<usize>, Vec<(MappingId, Experiment)>) = pending
            .iter()
            .enumerate()
            .filter_map(|(slot, (_, e))| match e {
                Entry::Seq(id, seq) => Some((slot, (*id, seq.clone()))),
                Entry::Failed(_) => None,
            })
            .unzip();
        let mut cycles = vec![None; pending.len()];
        for (slot, t) in slots.into_iter().zip(predictor.try_predict_routed(&queries)) {
            cycles[slot] = Some(t);
        }
        for ((line, entry), t) in pending.drain(..).zip(cycles) {
            let record = match (entry, t) {
                (Entry::Seq(id, _), Some(Ok(cycles))) => {
                    ServeRecord::Cycles { line, mapping: labels[id.index()].clone(), cycles }
                }
                // An evicted payload whose lazy reload failed (artifact
                // gone from under a budgeted store): the error names the
                // artifact path, and the stream keeps going.
                (Entry::Seq(..), Some(Err(e))) => ServeRecord::Error {
                    line,
                    message: format!("prediction unavailable: {e}"),
                },
                // The predictor answers every routed query; an empty
                // slot would be a predictor bug — report it as this
                // line's record instead of killing the whole stream.
                (Entry::Seq(..), None) => {
                    ServeRecord::Error { line, message: "prediction unavailable".to_string() }
                }
                (Entry::Failed(message), _) => ServeRecord::Error { line, message },
            };
            writeln!(out, "{}", record.to_json_line())?;
        }
        Ok(())
    };

    for (idx, line) in stdin.lock().lines().enumerate() {
        let line_no = idx as u64 + 1;
        let line = line
            .map_err(|e| Exit::failure(format!("stdin read error at line {line_no}: {e}")))?;
        // An optional `PLATFORM:` prefix routes the line to a specific
        // stored mapping; the prefix is only consumed when it names one
        // (case-insensitively) — shared with the daemon via
        // `serve::route_line`.
        let Some((id, seq_text)) = route_line(&store, &default_name, &line) else {
            errors += 1;
            pending.push((
                line_no,
                Entry::Failed(format!("no mapping registered under {default_name:?}")),
            ));
            continue;
        };
        match store.get(id).parse(seq_text) {
            Ok(e) => pending.push((line_no, Entry::Seq(id, e))),
            Err(SequenceParseError::Empty) => {} // blank/comment line
            Err(err) => {
                errors += 1;
                pending.push((line_no, Entry::Failed(err.to_string())));
            }
        }
        if pending.len() >= batch && !stdout_open(flush(&mut pending, &mut out))? {
            return Ok(());
        }
    }
    if !stdout_open(flush(&mut pending, &mut out).and_then(|()| out.flush()))? {
        return Ok(());
    }
    let stats = predictor.stats();
    eprintln!(
        "predicted {} sequences in {} batches ({} workers, {:.1}% cache hits, {} errors)",
        stats.queries,
        stats.batches,
        predictor.workers(),
        100.0 * stats.hit_rate(),
        errors
    );
    Ok(())
}

/// Corpus replay: parse a BHive-style file of disassembled basic
/// blocks, resolve every instruction onto the `--uarch` table's form
/// universe, predict each fully-mapped block's throughput, and emit one
/// JSON record per block plus a final accounting line. Everything on
/// stdout is a pure function of (corpus, uarch, mapping) — worker count
/// never changes a byte.
fn cmd_predict_corpus(args: &[String], corpus_path: &str) -> Result<(), Exit> {
    if let Some(isa) = flag(args, "--isa")? {
        if !isa.eq_ignore_ascii_case("x86") {
            return Err(Exit::usage_error(format!(
                "unsupported --isa {isa}; corpus replay reads x86-64 disassembly"
            )));
        }
    }
    let uarch = flag(args, "--uarch")?
        .ok_or_else(|| Exit::usage_error("missing --uarch (skl, zen or a72) for corpus replay"))?;
    let table = pmevo::x86::by_name(&uarch).ok_or_else(|| {
        Exit::usage_error(format!("unknown uarch {uarch}; expected skl, zen or a72"))
    })?;
    let jobs = positive_flag(args, "--jobs", 1)?;
    let cache = num_flag(args, "--cache", 1usize << 16)?;
    let store = build_store(args)?;
    let id = store.latest(table.platform()).ok_or_else(|| {
        Exit::usage_error(format!(
            "corpus replay on {} needs --mapping {}=file.json",
            table.name(),
            table.platform()
        ))
    })?;
    let label = store.get(id).label();
    // The platform with the same name as the table provides the form
    // universe the table's keys resolve into.
    let platform = platforms::by_name(table.platform()).ok_or_else(|| {
        Exit::failure(format!("no built-in platform named {}", table.platform()))
    })?;
    let corpus = std::fs::read_to_string(corpus_path)
        .map_err(|e| Exit::failure(format!("cannot read {corpus_path}: {e}")))?;
    let predictor = Predictor::new(store, PredictorConfig { workers: jobs, cache_capacity: cache });
    let uarch_name = table.name();
    let resolver = pmevo::x86::Resolver::new(table, platform.isa());
    let r = pmevo::x86::replay(&corpus, &resolver, &predictor, id);

    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    let mut write_records = || -> std::io::Result<()> {
        for (block, outcome) in r.outcomes.iter().enumerate() {
            let record = match &outcome.result {
                pmevo::x86::BlockResult::Cycles(cycles) => Value::Obj(vec![
                    ("block".into(), Value::UInt(block as u64)),
                    ("line".into(), Value::UInt(u64::from(outcome.start_line))),
                    ("insts".into(), Value::UInt(u64::from(outcome.insts))),
                    ("mapping".into(), Value::Str(label.clone())),
                    ("cycles".into(), Value::Num(*cycles)),
                ]),
                pmevo::x86::BlockResult::Unmapped { line, column, reason, detail } => Value::Obj(vec![
                    ("block".into(), Value::UInt(block as u64)),
                    ("line".into(), Value::UInt(u64::from(*line))),
                    ("column".into(), Value::UInt(u64::from(*column))),
                    ("reason".into(), Value::Str((*reason).to_string())),
                    ("error".into(), Value::Str(detail.clone())),
                ]),
            };
            writeln!(out, "{}", json::write_compact(&record))?;
        }
        writeln!(out, "{}", pmevo::x86::accounting_json(&r.accounting))?;
        out.flush()
    };
    if !stdout_open(write_records())? {
        return Ok(());
    }
    let acc = &r.accounting;
    eprintln!(
        "replayed {} blocks ({} insts) on {} against {label}: \
         {} predicted, block coverage {:.1}%, inst coverage {:.1}%",
        acc.blocks,
        acc.insts,
        uarch_name,
        acc.mapped_blocks,
        100.0 * acc.block_coverage(),
        100.0 * acc.inst_coverage()
    );
    for (reason, n) in &acc.by_reason {
        eprintln!("  unmapped blocks: {n} {reason}");
    }
    Ok(())
}

fn cmd_predict(args: &[String]) -> Result<(), Exit> {
    if let Some(path) = flag(args, "--corpus")? {
        // --corpus switches predict into BHive-style replay mode.
        return cmd_predict_corpus(args, &path);
    }
    let Some(spec) = flag(args, "--experiment")? else {
        // No --experiment: the streaming serving mode.
        return cmd_predict_stream(args);
    };
    let platform = platform(args)?;
    let mapping = load_mapping(args, &platform)?;
    let experiment = parse_experiment(&platform, &spec).map_err(Exit::usage_error)?;
    let predicted = mapping.throughput(&experiment);
    let measured = Measurer::new(&platform, MeasureConfig::default()).measure(&experiment);
    println!("experiment: {experiment}");
    println!("predicted:  {predicted:.3} cycles");
    println!("measured:   {measured:.3} cycles (simulator)");
    println!(
        "rel. error: {:.1}%",
        100.0 * (predicted - measured).abs() / measured
    );
    Ok(())
}

/// Pipes stdin to a running `pmevo-serve` daemon and the daemon's
/// responses to stdout. The write half is shut down at stdin EOF; the
/// daemon then answers everything still queued and closes, so "read
/// until EOF" collects exactly the responses for our lines — no response
/// counting, no sentinel records.
fn run_client<S>(
    stream: S,
    shutdown_write: impl FnOnce(&S) -> std::io::Result<()> + Send,
) -> Result<(), Exit>
where
    S: Read + Write + Send + Sync + 'static,
    for<'a> &'a S: Read + Write,
{
    std::thread::scope(|scope| {
        let sender = scope.spawn(|| -> std::io::Result<()> {
            let mut to_daemon = &stream;
            std::io::copy(&mut std::io::stdin().lock(), &mut to_daemon)?;
            to_daemon.flush()?;
            shutdown_write(&stream)
        });
        let mut stdout = std::io::stdout().lock();
        let received = std::io::copy(&mut BufReadAdapter(&stream), &mut stdout);
        let sent = sender.join().expect("sender thread");
        match (sent, received) {
            (Ok(()), Ok(_)) => Ok(()),
            (Err(e), _) => Err(Exit::failure(format!("error: sending to daemon failed: {e}"))),
            (_, Err(e)) => {
                Err(Exit::failure(format!("error: reading daemon responses failed: {e}")))
            }
        }
    })
}

/// `std::io::copy` source over `&S` (reads borrow the stream shared
/// with the sender thread).
struct BufReadAdapter<'a, S>(&'a S);

impl<S> Read for BufReadAdapter<'_, S>
where
    for<'a> &'a S: Read,
{
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.0.read(buf)
    }
}

fn cmd_client(args: &[String]) -> Result<(), Exit> {
    match (flag(args, "--connect")?, flag(args, "--unix")?) {
        (Some(addr), None) => {
            let stream = std::net::TcpStream::connect(&addr)
                .map_err(|e| Exit::failure(format!("error: cannot connect to {addr}: {e}")))?;
            run_client(stream, |s| s.shutdown(std::net::Shutdown::Write))
        }
        #[cfg(unix)]
        (None, Some(path)) => {
            let stream = std::os::unix::net::UnixStream::connect(&path)
                .map_err(|e| Exit::failure(format!("error: cannot connect to {path}: {e}")))?;
            run_client(stream, |s| s.shutdown(std::net::Shutdown::Write))
        }
        #[cfg(not(unix))]
        (None, Some(_)) => Err(Exit::failure("error: --unix is only supported on Unix platforms")),
        _ => Err(Exit::usage_error(
            "error: client needs exactly one of --connect HOST:PORT or --unix PATH",
        )
        .with_usage()),
    }
}

fn main() -> ExitCode {
    flags::run(USAGE, |args| match args.first().map(String::as_str) {
        Some("platforms") => cmd_platforms(),
        Some("infer") => cmd_infer(&args[1..]),
        Some("show") => cmd_show(&args[1..]),
        Some("convert") => cmd_convert(&args[1..]),
        Some("predict") => cmd_predict(&args[1..]),
        Some("client") => cmd_client(&args[1..]),
        _ => Err(Exit::usage_error("").with_usage()),
    })
}
