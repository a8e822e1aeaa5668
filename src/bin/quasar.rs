//! `quasar` — command-line frontend for the AS-routing-model pipeline.
//!
//! Subcommands:
//!   generate  --out FILE [--scale tiny|small|medium|large] [--seed N]
//!             synthesize an Internet and write its feeds as MRT
//!             TABLE_DUMP_V2 (plus FILE.updates.mrt with an UPDATE stream)
//!   analyze   FILE            §3 analyses of an MRT feed file
//!   train     (FILE | --scale tiny|small|medium|large) --out MODEL.json
//!             [--threads N] [--seed N]
//!             [--checkpoint-dir D [--checkpoint-every N] [--resume]]
//!             refine a model against ALL feeds and persist it; with
//!             --scale instead of FILE, a synthetic Internet is generated
//!             at that preset and trained on directly
//!             (--threads 0 / absent = all cores; the result is
//!             byte-identical for every thread count). With
//!             --checkpoint-dir the refinement state is checkpointed
//!             every N rounds (default 1) and --resume continues an
//!             interrupted run from the latest checkpoint, producing
//!             a byte-identical final model.
//!   predict   FILE [--split point|origin|both] [--seed N]
//!             train on half the feeds, predict the other half
//!   diagnose  FILE [--seed N]
//!             train on half the feeds and attribute validation
//!             mismatches to the AS where reproduction first breaks
//!   stable    FILE [--snapshot T] [--window SECS]
//!             replay RIB+updates, keep the stable snapshot routes,
//!             print the dataset summary
//!   whatif    FILE --depeer A:B [--model MODEL.json]
//!             train on all feeds (or load a persisted model) and report
//!             the predicted impact of removing the A--B adjacency
//!   whatif    --json --model MODEL.json [--depeer A:B] [--add-peering A:B]
//!             [--filter ASN:NEIGHBOR:PREFIX]
//!             apply the changes (in flag order) to a persisted model and
//!             print the routing diff as one JSON line — byte-identical
//!             to the server's answer for the same scenario
//!   predict   --model MODEL.json --prefix P --observer N [--path A,B,C]
//!             one-shot route prediction from a persisted model, printed
//!             as one JSON line — byte-identical to the server's answer
//!   serve     MODEL.json [--listen ADDR] [--workers N] [--max-sessions N]
//!             [--max-pending N] [--deadline-ms MS] [--shards N]
//!             [--quarantine-after N] [--prewarm]
//!             long-running query server (see `quasar-serve` crate docs);
//!             --max-pending bounds the accept queue (excess connections
//!             are shed with an `overloaded` reply), --deadline-ms caps
//!             per-request compute time (0 = unlimited), --shards N splits
//!             the prefixes over N shards (default 1, 0 = one shard per
//!             core), --quarantine-after N quarantines and rebuilds a
//!             shard after N panics (0 = disabled), --prewarm simulates
//!             every prefix into the shard caches before the listener
//!             starts answering
//!   query     ADDR JSON [JSON...]
//!             send newline-delimited JSON requests to a running server;
//!             `overloaded` replies are retried with jittered backoff
//!   health    ADDR
//!             readiness probe: print the server's health reply (fleet +
//!             per-shard self-healing state, stream heartbeat) as one
//!             JSON line. Exit 0 when healthy, 1 when degraded, 2 on
//!             usage errors, 3 when the server is unreachable — made for
//!             wait-until-ready loops and orchestrator probes
//!   stream    --updates FILE --model OUT [--serve ADDR] [--window-ms N]
//!             [--max-window N] [--follow] [--idle-ms N] [--state DIR]
//!             [--threads N] [--max-retries N]
//!             replay (or with --follow, tail) an MRT BGP4MP update file:
//!             each window of updates is applied to the live path set,
//!             only the dirtied prefixes are re-refined, the epoch is
//!             persisted to OUT, and (with --serve) hot-swapped into a
//!             running server through its validated atomic reload. The
//!             final per-window report is printed as one JSON line.
//!             --window-ms is record time, rounded up to whole seconds,
//!             so windowing is a pure function of the stream. --state
//!             persists the trainer cache for crash-safe resume.
//!             --max-retries bounds transient-fault retries (serve
//!             transport, ingest reads); a serve outage beyond that trips
//!             the circuit breaker: training continues locally and the
//!             newest epoch is swapped in on recovery.
//!   stream-stats ADDR
//!             print the streaming status a pipeline last pushed to the
//!             server at ADDR (one JSON line; fails if none arrived yet)
//!   lint      MODEL.json [--json] [--deny warn|error]
//!             static audit of a persisted model: typed, severity-ranked
//!             diagnostics (rule ids QL0001-QL0009) with no simulation.
//!             Exit 0 when no finding reaches the --deny threshold
//!             (default error), 1 on findings at/above it or a load
//!             failure, 2 on usage errors — suitable as a CI gate
//!   sast      [--root DIR] [--json] [--deny warn|error]
//!             static audit of the workspace's own Rust sources: lock
//!             acquisition order, atomic-ordering justifications,
//!             failpoint-registry consistency, protocol exhaustiveness,
//!             forbidden patterns (rule ids QS0001-QS0007), each with a
//!             file:line:col span. Same exit-code contract as `lint`

use quasar::bgpsim::types::Asn;
use quasar::diversity::prelude::*;
use quasar::lint::{Report, Severity};
use quasar::model::prelude::*;
use quasar::netgen::prelude::*;
use quasar::serve::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::process::exit;
use std::sync::Arc;

fn main() {
    // Register the static analyzer with the core audit hook so train /
    // resume runs log a post-training audit summary to stderr.
    quasar::lint::install();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        usage("missing subcommand")
    };
    match cmd.as_str() {
        "generate" => cmd_generate(&args[1..]),
        "train" => cmd_train(&args[1..]),
        "analyze" => cmd_analyze(&args[1..]),
        "predict" => cmd_predict(&args[1..]),
        "diagnose" => cmd_diagnose(&args[1..]),
        "stable" => cmd_stable(&args[1..]),
        "whatif" => cmd_whatif(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "query" => cmd_query(&args[1..]),
        "health" => cmd_health(&args[1..]),
        "stream" => cmd_stream(&args[1..]),
        "stream-stats" => cmd_stream_stats(&args[1..]),
        "lint" => cmd_lint(&args[1..]),
        "sast" => cmd_sast(&args[1..]),
        other => usage(&format!("unknown subcommand {other}")),
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: quasar generate --out FILE [--scale tiny|small|medium|large] [--seed N]\n\
         \x20      quasar train (FILE | --scale tiny|small|medium|large) --out MODEL.json [--threads N] [--seed N] [--checkpoint-dir D [--checkpoint-every N] [--resume]]\n\
         \x20      quasar analyze FILE\n\
         \x20      quasar predict FILE [--split point|origin|both] [--seed N]\n\
         \x20      quasar diagnose FILE [--seed N]\n\
         \x20      quasar stable FILE [--snapshot T] [--window SECS]\n\
         \x20      quasar whatif FILE --depeer A:B [--model MODEL.json]\n\
         \x20      quasar whatif --json --model MODEL.json [--depeer A:B] [--add-peering A:B] [--filter ASN:NEIGHBOR:PREFIX]\n\
         \x20      quasar predict --model MODEL.json --prefix P --observer N [--path A,B,C]\n\
         \x20      quasar serve MODEL.json [--listen ADDR] [--workers N] [--max-sessions N] [--max-pending N] [--deadline-ms MS] [--shards N] [--quarantine-after N] [--prewarm]\n\
         \x20      quasar query ADDR JSON [JSON...]\n\
         \x20      quasar health ADDR\n\
         \x20      quasar stream --updates FILE --model OUT [--serve ADDR] [--window-ms N] [--max-window N] [--follow] [--idle-ms N] [--state DIR] [--threads N] [--max-retries N]\n\
         \x20      quasar stream-stats ADDR\n\
         \x20      quasar lint MODEL.json [--json] [--deny warn|error]\n\
         \x20      quasar sast [--root DIR] [--json] [--deny warn|error]"
    );
    exit(2)
}

/// Prints an error and exits nonzero — the terminal step of every CLI
/// parse/IO failure, so a bad flag or path never silently falls back to a
/// default.
fn die(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    exit(1)
}

/// Parses the value of `--name`, naming the flag and the offending value
/// on failure instead of silently substituting a default.
fn parsed_flag<T>(args: &[String], name: &str) -> Option<T>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    flag(args, name).map(|s| {
        s.parse()
            .unwrap_or_else(|e| die(format!("bad {name} `{s}`: {e}")))
    })
}

/// Parses an `A:B` AS pair, naming the flag on failure.
fn parse_as_pair(spec: &str, flag_name: &str) -> (u32, u32) {
    spec.split_once(':')
        .and_then(|(x, y)| Some((x.parse::<u32>().ok()?, y.parse::<u32>().ok()?)))
        .unwrap_or_else(|| die(format!("bad {flag_name} `{spec}`, want A:B")))
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// The first argument that is neither a flag nor a flag's value (every
/// `--flag` but the boolean ones takes a value).
fn positional(args: &[String]) -> Option<String> {
    let mut skip = false;
    for a in args {
        if skip {
            skip = false;
            continue;
        }
        if a.starts_with("--") {
            skip = !matches!(a.as_str(), "--json" | "--resume" | "--prewarm" | "--follow");
            continue;
        }
        return Some(a.clone());
    }
    None
}

fn load_dataset(path: &str) -> (Vec<ObservationPoint>, Dataset) {
    let bytes = std::fs::read(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(1)
    });
    // Prefer TABLE_DUMP_V2; fall back to the legacy 2005-era TABLE_DUMP
    // format if the file contains no V2 records.
    match import_table_dump_v2(&bytes) {
        Ok((points, obs)) if !obs.is_empty() => (points, quasar::dataset_from_observations(&obs)),
        _ => {
            let (points, obs) = import_table_dump(&bytes).unwrap_or_else(|e| {
                eprintln!("cannot parse {path} as TABLE_DUMP_V2 or TABLE_DUMP: {e}");
                exit(1)
            });
            if obs.is_empty() {
                eprintln!("{path}: no routes found in either MRT RIB format");
                exit(1)
            }
            eprintln!("{path}: legacy TABLE_DUMP format detected");
            (points, quasar::dataset_from_observations(&obs))
        }
    }
}

/// Maps a `--scale` name to a generator preset.
fn scale_config(name: &str, seed: u64) -> Option<NetGenConfig> {
    match name {
        "tiny" => Some(NetGenConfig::tiny(seed)),
        "small" => Some(NetGenConfig::small(seed)),
        "medium" => Some(NetGenConfig::medium(seed)),
        "large" => Some(NetGenConfig::large(seed)),
        _ => None,
    }
}

fn cmd_generate(args: &[String]) {
    let out = flag(args, "--out").unwrap_or_else(|| usage("generate requires --out"));
    let seed: u64 = parsed_flag(args, "--seed").unwrap_or(20051113);
    let scale = flag(args, "--scale").unwrap_or_else(|| "small".into());
    let cfg = scale_config(&scale, seed)
        .unwrap_or_else(|| usage("bad --scale, want tiny|small|medium|large"));
    eprintln!("generating {scale} internet (seed {seed}) ...");
    let net = SyntheticInternet::generate(cfg);
    let bytes = export_table_dump_v2(&net.observation_points, &net.observations);
    // Raw bytes (no persist header): the archive must stay MRT-parseable.
    atomic_write_bytes(&out, &bytes).unwrap_or_else(|e| {
        eprintln!("cannot write {out}: {e}");
        exit(1)
    });
    println!(
        "wrote {out}: {} feeds, {} routes, {} bytes",
        net.observation_points.len(),
        net.observations.len(),
        bytes.len()
    );

    // Companion archive: RIB dump + UPDATE stream with flapping.
    let ucfg = UpdateStreamConfig::default();
    let records = generate_update_stream(&net.observation_points, &net.observations, &ucfg, seed);
    let mut w = quasar::mrt::io::MrtWriter::new(Vec::new());
    for r in &records {
        w.write_record(r).expect("in-memory write");
    }
    let ubytes = w.finish().expect("in-memory flush");
    let upath = format!("{out}.updates.mrt");
    atomic_write_bytes(&upath, &ubytes).unwrap_or_else(|e| {
        eprintln!("cannot write {upath}: {e}");
        exit(1)
    });
    println!(
        "wrote {upath}: {} records, {} bytes",
        records.len(),
        ubytes.len()
    );
}

fn cmd_train(args: &[String]) {
    let out = flag(args, "--out").unwrap_or_else(|| usage("train requires --out"));
    let threads: usize = parsed_flag(args, "--threads").unwrap_or(0);
    let checkpoint_dir = flag(args, "--checkpoint-dir");
    let checkpoint_every: u64 = parsed_flag(args, "--checkpoint-every").unwrap_or(1);
    let resume = args.iter().any(|a| a == "--resume");
    if resume && checkpoint_dir.is_none() {
        usage("--resume requires --checkpoint-dir");
    }
    let dataset = match (positional(args), flag(args, "--scale")) {
        (Some(_), Some(_)) => usage("train takes FILE or --scale, not both"),
        (Some(path), None) => load_dataset(&path).1,
        (None, Some(scale)) => {
            let seed: u64 = parsed_flag(args, "--seed").unwrap_or(20051113);
            let cfg = scale_config(&scale, seed)
                .unwrap_or_else(|| usage("bad --scale, want tiny|small|medium|large"));
            eprintln!("generating {scale} internet (seed {seed}) ...");
            let net = SyntheticInternet::generate(cfg);
            quasar::dataset_from_observations(&net.observations)
        }
        (None, None) => usage("train requires FILE or --scale"),
    };
    let cfg = RefineConfig {
        threads,
        ..RefineConfig::default()
    };
    eprintln!(
        "refining against all {} routes on {} thread(s) ...",
        dataset.len(),
        cfg.effective_threads()
    );
    let policy = checkpoint_dir.as_ref().map(|d| CheckpointPolicy {
        dir: std::path::PathBuf::from(d),
        every: checkpoint_every.max(1),
        keep: 2,
    });
    let fresh = |policy: Option<&CheckpointPolicy>| -> (AsRoutingModel, RefineReport) {
        let mut model = AsRoutingModel::initial(&dataset.as_graph(), &dataset.prefixes());
        let report = refine_checkpointed(&mut model, &dataset, &cfg, policy)
            .unwrap_or_else(|e| die(format!("refinement failed: {e}")));
        (model, report)
    };
    let (mut model, report) = match (&policy, resume) {
        (Some(p), true) => match resume_refine(&dataset, &cfg, p) {
            Ok(resumed) => {
                eprintln!("resumed refinement from checkpoints in {}", p.dir.display());
                resumed
            }
            // No usable checkpoint is the expected state on a first run
            // (or after a crash before round 1); start fresh rather than
            // forcing callers to know whether a prior attempt got far
            // enough to write state.
            Err(RefineError::Persist(PersistError::NoCheckpoint { .. })) => {
                eprintln!("no checkpoint found in {}; starting fresh", p.dir.display());
                fresh(Some(p))
            }
            Err(e) => die(format!("cannot resume refinement: {e}")),
        },
        _ => fresh(policy.as_ref()),
    };
    model.generalize_med_preferences();
    let json = model.to_json().unwrap_or_else(|e| {
        eprintln!("cannot serialize model: {e}");
        exit(1)
    });
    quasar::model::persist::save_artifact(
        &out,
        quasar::model::persist::KIND_MODEL,
        json.as_bytes(),
    )
    .unwrap_or_else(|e| {
        eprintln!("cannot write {out}: {e}");
        exit(1)
    });
    // The final model is durably on disk; the intermediate state has
    // served its purpose and would only confuse a later --resume.
    if let Some(p) = &policy {
        for (_, ckpt) in quasar::model::persist::list_checkpoints(&p.dir) {
            std::fs::remove_file(&ckpt).ok();
        }
    }
    let stats = model.stats();
    println!(
        "wrote {out}: converged={} | {} quasi-routers | {} rules | {} bytes",
        report.converged(),
        stats.quasi_routers,
        stats.policy_rules,
        json.len()
    );
    // Attribute any residual training mismatches to the AS where
    // reproduction first breaks — the same §5 diagnostic `quasar
    // diagnose` runs on a held-out split.
    let diag = diagnose(&model, &dataset);
    if diag.matched < diag.routes {
        println!(
            "{} of {} training routes not fully reproduced; top offender ASes:",
            diag.routes - diag.matched,
            diag.routes
        );
        for (asn, n) in diag.top_offenders(5) {
            println!("  {asn:<10} {n} routes");
        }
    }
}

fn cmd_lint(args: &[String]) {
    let (path, json, deny) = audit_args(args, None);
    let path = path.unwrap_or_else(|| usage("lint requires MODEL.json"));
    finish_audit(&quasar::lint::audit(&load_model(&path)), json, deny)
}

fn cmd_sast(args: &[String]) {
    let (root, json, deny) = audit_args(args, Some("--root"));
    let root = root.unwrap_or_else(|| ".".to_string());
    let report = quasar::lint::source::analyze_workspace(std::path::Path::new(&root))
        .unwrap_or_else(|e| die(format!("cannot scan {root}: {e}")));
    finish_audit(&report, json, deny)
}

/// Parses the arguments `lint` and `sast` share, strictly: `--json`,
/// `--deny warn|error` (default error), and one operand — the value of
/// `operand_flag`, or a positional when there is none. Anything else is a
/// usage error. Returns `(operand, json, deny)`.
fn audit_args(args: &[String], operand_flag: Option<&str>) -> (Option<String>, bool, Severity) {
    let (mut operand, mut json, mut deny) = (None, false, Severity::Error);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--deny" => {
                deny = match it.next().map(String::as_str) {
                    Some("info") => {
                        usage("--deny info would reject every informational note; use warn")
                    }
                    s => s
                        .and_then(Severity::parse)
                        .unwrap_or_else(|| usage("--deny wants warn|error")),
                }
            }
            f if Some(f) == operand_flag => {
                operand = Some(
                    it.next()
                        .cloned()
                        .unwrap_or_else(|| usage(&format!("{f} requires a value"))),
                )
            }
            f if f.starts_with("--") => usage(&format!("unknown flag {f}")),
            p if operand_flag.is_none() && operand.is_none() => operand = Some(p.to_string()),
            p => usage(&format!("unexpected argument {p}")),
        }
    }
    (operand, json, deny)
}

/// Prints an audit report and exits: 1 when a finding reaches `deny`,
/// else 0.
fn finish_audit(report: &Report, json: bool, deny: Severity) -> ! {
    if json {
        let line = report
            .to_json()
            .unwrap_or_else(|e| die(format!("cannot serialize report: {e}")));
        println!("{line}");
    } else {
        print!("{}", report.render_text());
    }
    exit(i32::from(report.denies(deny)))
}

fn load_model(path: &str) -> AsRoutingModel {
    quasar::model::persist::load_model(path).unwrap_or_else(|e| {
        eprintln!("cannot load model {path}: {e}");
        if let Some(hint) = e.hint() {
            eprintln!("hint: {hint}");
        }
        exit(1)
    })
}

fn cmd_analyze(args: &[String]) {
    let path = positional(args).unwrap_or_else(|| usage("analyze requires FILE"));
    let (points, dataset) = load_dataset(&path);
    let s = summarize(&dataset, &[]);
    println!("{path}: {} feeds, {} routes", points.len(), dataset.len());
    println!(
        "ASes {} | edges {} | level-1 {:?} | transit {} | stubs {}+{}",
        s.ases,
        s.edges,
        s.level1.iter().map(|a| a.0).collect::<Vec<_>>(),
        s.transit,
        s.single_homed_stubs,
        s.multi_homed_stubs
    );
    let h = PathDiversityHistogram::from_dataset(&dataset);
    println!(
        "diversity: {:.1}% of AS pairs see >1 path (max {})",
        100.0 * h.fraction_with_more_than(1),
        h.max_diversity()
    );
    let q = DiversityQuantiles::from_dataset(&dataset);
    print!("max received paths per AS, percentiles:");
    for (pct, v) in q.table1_row() {
        print!(" p{pct}={v}");
    }
    println!();
}

fn cmd_predict(args: &[String]) {
    if flag(args, "--model").is_some() {
        return cmd_predict_oneshot(args);
    }
    let path = positional(args).unwrap_or_else(|| usage("predict requires FILE"));
    let seed: u64 = parsed_flag(args, "--seed").unwrap_or(7);
    let split = flag(args, "--split").unwrap_or_else(|| "point".into());
    let (_, dataset) = load_dataset(&path);
    let (training, validation) = match split.as_str() {
        "point" => dataset.split_by_point(0.5, seed),
        "origin" => dataset.split_by_origin(0.5, seed),
        "both" => dataset.split_combined(0.5, seed),
        _ => usage("bad --split"),
    };
    eprintln!(
        "training on {} routes, validating on {} ...",
        training.len(),
        validation.len()
    );
    let mut model = AsRoutingModel::initial(&dataset.as_graph(), &dataset.prefixes());
    let report = refine(&mut model, &training, &RefineConfig::default()).unwrap_or_else(|e| {
        eprintln!("refinement failed: {e}");
        exit(1)
    });
    if split != "point" {
        // Unseen prefixes benefit from the §4.7 generalization.
        model.generalize_med_preferences();
    }
    let stats = model.stats();
    println!(
        "model: converged={} | {} quasi-routers over {} ASes | {} rules",
        report.converged(),
        stats.quasi_routers,
        stats.ases,
        stats.policy_rules
    );
    let ev = evaluate(&model, &validation);
    println!(
        "prediction: RIB-Out {:.1}% | down-to-tie-break {:.1}% | RIB-In bound {:.1}%",
        100.0 * ev.counts.rib_out_rate(),
        100.0 * ev.counts.tie_break_rate(),
        100.0 * ev.counts.rib_in_rate()
    );
}

fn cmd_diagnose(args: &[String]) {
    let path = positional(args).unwrap_or_else(|| usage("diagnose requires FILE"));
    let seed: u64 = parsed_flag(args, "--seed").unwrap_or(7);
    let (_, dataset) = load_dataset(&path);
    let (training, validation) = dataset.split_by_point(0.5, seed);
    eprintln!(
        "training on {} routes, diagnosing {} ...",
        training.len(),
        validation.len()
    );
    let mut model = AsRoutingModel::initial(&dataset.as_graph(), &dataset.prefixes());
    refine(&mut model, &training, &RefineConfig::default()).unwrap_or_else(|e| {
        eprintln!("refinement failed: {e}");
        exit(1)
    });
    let diag = diagnose(&model, &validation);
    println!(
        "{} of {} validation routes fully reproduced",
        diag.matched, diag.routes
    );
    println!("ASes where reproduction first breaks (top 10):");
    for (asn, n) in diag.top_offenders(10) {
        println!("  {asn:<10} {n} routes");
    }
    println!(
        "(interpretation: these ASes carry observed diversity the training\n\
         feeds never exposed — more vantage points there would help most)"
    );
}

fn cmd_stable(args: &[String]) {
    let path = positional(args).unwrap_or_else(|| usage("stable requires FILE"));
    let snapshot: u32 = parsed_flag(args, "--snapshot").unwrap_or(SNAPSHOT_TIME);
    let window: u32 = parsed_flag(args, "--window").unwrap_or(3_600);
    let bytes = std::fs::read(&path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(1)
    });
    let records = quasar::mrt::io::MrtReader::new(&bytes[..])
        .read_all()
        .unwrap_or_else(|e| {
            eprintln!("cannot parse {path}: {e}");
            exit(1)
        });
    let (points, obs) = reconstruct_stable(&records, snapshot, window);
    let dataset = quasar::dataset_from_observations(&obs);
    println!(
        "{path}: {} records -> {} feeds, {} stable routes at t={snapshot} (window {window}s)",
        records.len(),
        points.len(),
        dataset.len()
    );
    let s = summarize(&dataset, &[]);
    println!(
        "ASes {} | edges {} | distinct paths {}",
        s.ases, s.edges, s.distinct_paths
    );
}

fn cmd_whatif(args: &[String]) {
    if args.iter().any(|a| a == "--json") {
        return cmd_whatif_json(args);
    }
    let path = positional(args).unwrap_or_else(|| usage("whatif requires FILE"));
    let spec = flag(args, "--depeer").unwrap_or_else(|| usage("whatif requires --depeer A:B"));
    let (a, b) = parse_as_pair(&spec, "--depeer");
    let (points, dataset) = load_dataset(&path);

    let model = if let Some(mp) = flag(args, "--model") {
        load_model(&mp)
    } else {
        let mut m = AsRoutingModel::initial(&dataset.as_graph(), &dataset.prefixes());
        refine(&mut m, &dataset, &RefineConfig::default()).unwrap_or_else(|e| {
            eprintln!("refinement failed: {e}");
            exit(1)
        });
        m
    };
    let mut edited = model.clone();
    let silenced = edited.depeer(Asn(a), Asn(b));
    if silenced == 0 {
        eprintln!("no sessions between AS{a} and AS{b}");
        exit(1)
    }
    let observers: Vec<Asn> = {
        let mut v: Vec<Asn> = points.iter().map(|p| p.observer_as()).collect();
        v.sort();
        v.dedup();
        v
    };
    let (mut same, mut moved, mut lost) = (0usize, 0usize, 0usize);
    for &prefix in model.prefixes().keys() {
        let before = model.simulate(prefix).expect("converges");
        let after = edited.simulate(prefix).expect("converges");
        for &obs in &observers {
            for r in model.quasi_routers_of(obs) {
                let x = before.best_route(r).map(|r| r.as_path.clone());
                let y = after.best_route(r).map(|r| r.as_path.clone());
                match (x, y) {
                    (Some(p), Some(q)) if p == q => same += 1,
                    (Some(_), Some(_)) => moved += 1,
                    (Some(_), None) => lost += 1,
                    (None, _) => {}
                }
            }
        }
    }
    println!(
        "de-peering AS{a} -- AS{b} ({silenced} sessions): {same} unchanged, {moved} re-routed, {lost} unreachable"
    );
}

/// Collects `--depeer`/`--add-peering`/`--filter` specs in flag order —
/// scenario changes apply sequentially, so order is part of the scenario.
fn collect_change_specs(args: &[String]) -> Vec<ChangeSpec> {
    let mut specs = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let value = |name: &str| -> String {
            args.get(i + 1)
                .cloned()
                .unwrap_or_else(|| die(format!("{name} needs a value")))
        };
        match args[i].as_str() {
            "--depeer" => {
                let v = value("--depeer");
                let (a, b) = parse_as_pair(&v, "--depeer");
                specs.push(ChangeSpec::Depeer { a, b });
                i += 2;
            }
            "--add-peering" => {
                let v = value("--add-peering");
                let (a, b) = parse_as_pair(&v, "--add-peering");
                specs.push(ChangeSpec::AddPeering { a, b });
                i += 2;
            }
            "--filter" => {
                let v = value("--filter");
                let mut parts = v.splitn(3, ':');
                let spec = (|| {
                    Some(ChangeSpec::FilterPrefix {
                        asn: parts.next()?.parse().ok()?,
                        neighbor: parts.next()?.parse().ok()?,
                        prefix: parts.next()?.to_string(),
                    })
                })()
                .unwrap_or_else(|| die(format!("bad --filter `{v}`, want ASN:NEIGHBOR:PREFIX")));
                specs.push(spec);
                i += 2;
            }
            _ => i += 1,
        }
    }
    specs
}

/// Writes one line to stdout. A closed pipe (e.g. `| head`) is a normal
/// way for the reader to stop early, not a crash.
fn print_line(line: &str) {
    let mut out = std::io::stdout();
    let result = out.write_all(line.as_bytes()).and_then(|()| out.flush());
    if let Err(e) = result {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            exit(0);
        }
        die(format!("cannot write to stdout: {e}"));
    }
}

/// Prints a server response as one JSON line; error responses go to
/// stderr with a nonzero exit so scripts can trust exit codes.
fn print_response(resp: Response) {
    if let Response::Error(e) = &resp {
        die(&e.message);
    }
    let json =
        serde_json::to_string(&resp).unwrap_or_else(|e| die(format!("cannot serialize: {e}")));
    print_line(&format!("{json}\n"));
}

fn cmd_whatif_json(args: &[String]) {
    let model_path =
        flag(args, "--model").unwrap_or_else(|| usage("whatif --json requires --model MODEL.json"));
    let changes = collect_change_specs(args);
    if changes.is_empty() {
        usage("whatif --json requires at least one --depeer/--add-peering/--filter");
    }
    let state = ShardedState::new(load_model(&model_path), ServeConfig::default(), 1);
    print_response(state.dispatch(&Request::Diff {
        changes,
        prefixes: None,
    }));
}

fn cmd_predict_oneshot(args: &[String]) {
    let model_path = flag(args, "--model").expect("checked by caller");
    let prefix =
        flag(args, "--prefix").unwrap_or_else(|| usage("predict --model requires --prefix P"));
    let observer: u32 = parsed_flag(args, "--observer")
        .unwrap_or_else(|| usage("predict --model requires --observer N"));
    let observed_path: Option<Vec<u32>> = flag(args, "--path").map(|s| {
        s.split(',')
            .map(|t| {
                t.trim()
                    .parse()
                    .unwrap_or_else(|e| die(format!("bad --path element `{t}`: {e}")))
            })
            .collect()
    });
    let state = ShardedState::new(load_model(&model_path), ServeConfig::default(), 1);
    print_response(state.dispatch(&Request::Predict {
        prefix,
        observer,
        observed_path,
    }));
}

fn cmd_serve(args: &[String]) {
    let model_path = positional(args).unwrap_or_else(|| usage("serve requires MODEL.json"));
    let listen = flag(args, "--listen").unwrap_or_else(|| "127.0.0.1:0".into());
    let mut config = ServeConfig::default();
    if let Some(w) = parsed_flag::<usize>(args, "--workers") {
        config.workers = w.max(1);
    }
    if let Some(m) = parsed_flag::<usize>(args, "--max-sessions") {
        config.max_sessions = m;
    }
    if let Some(p) = parsed_flag::<usize>(args, "--max-pending") {
        config.max_pending = p.max(1);
    }
    if let Some(d) = parsed_flag::<u64>(args, "--deadline-ms") {
        config.deadline_ms = d;
    }
    if let Some(q) = parsed_flag::<u64>(args, "--quarantine-after") {
        config.quarantine_threshold = q;
    }
    // 0 = one shard per core. Replies are byte-identical at every count.
    let shards = match parsed_flag::<usize>(args, "--shards").unwrap_or(1) {
        0 => std::thread::available_parallelism()
            .map(|c| c.get())
            .unwrap_or(4),
        n => n,
    };
    let prewarm = args.iter().any(|a| a == "--prewarm");
    let model = load_model(&model_path);
    let stats = model.stats();
    let prefixes = model.prefixes().len();
    let listener = TcpListener::bind(&listen)
        .unwrap_or_else(|e| die(format!("cannot listen on {listen}: {e}")));
    let addr = listener
        .local_addr()
        .unwrap_or_else(|e| die(format!("cannot resolve listen address: {e}")));
    let state = Arc::new(ShardedState::new(model, config, shards));
    // The address line goes first and alone to stdout so wrappers (tests,
    // scripts) can read the ephemeral port; progress chatter is stderr.
    println!("quasar-serve listening on {addr}");
    std::io::stdout().flush().ok();
    eprintln!(
        "serving {prefixes} prefixes over {} ASes ({} quasi-routers) with {} worker(s) across {} shard(s)",
        stats.ases,
        stats.quasi_routers,
        config.workers,
        state.shards()
    );
    if prewarm {
        // Warm before serving so the first client hits a full cache; the
        // listener is bound but not yet accepting.
        let warmed = state.prewarm();
        eprintln!(
            "prewarmed {warmed} prefix(es) across {} shard(s)",
            state.shards()
        );
    }
    if let Err(e) = serve(state, listener) {
        die(format!("serve failed: {e}"));
    }
    eprintln!("quasar-serve drained, exiting");
}

/// A lazily-(re)connected client connection to the query server. A shed
/// connection is closed by the server after its `overloaded` reply, so the
/// client must be able to reconnect between attempts.
struct QueryClient {
    addr: String,
    conn: Option<(TcpStream, BufReader<TcpStream>)>,
}

impl QueryClient {
    fn new(addr: &str) -> Self {
        QueryClient {
            addr: addr.to_string(),
            conn: None,
        }
    }

    /// Sends one request line and reads one reply line, connecting first
    /// if needed. Any transport failure drops the cached connection so the
    /// next attempt starts from a fresh connect.
    fn exchange(&mut self, json: &str) -> Result<String, String> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(&self.addr)
                .map_err(|e| format!("cannot connect to {}: {e}", self.addr))?;
            let reader = stream
                .try_clone()
                .map_err(|e| format!("cannot clone connection: {e}"))?;
            self.conn = Some((stream, BufReader::new(reader)));
        }
        let (stream, reader) = self.conn.as_mut().expect("connected above");
        let result = stream
            .write_all(format!("{json}\n").as_bytes())
            .map_err(|e| format!("cannot send to {}: {e}", self.addr))
            .and_then(|()| {
                let mut reply = String::new();
                reader
                    .read_line(&mut reply)
                    .map_err(|e| format!("cannot read reply: {e}"))?;
                if reply.is_empty() {
                    return Err("server closed the connection".into());
                }
                Ok(reply)
            });
        if result.is_err() {
            self.conn = None;
        }
        result
    }
}

/// How many times a request that keeps drawing `overloaded` replies is
/// retried before the last reply is surfaced to the caller.
const QUERY_MAX_RETRIES: u32 = 5;

fn cmd_stream(args: &[String]) {
    use quasar::stream::prelude::*;
    let updates = flag(args, "--updates").unwrap_or_else(|| usage("stream requires --updates"));
    let model_out = flag(args, "--model").unwrap_or_else(|| usage("stream requires --model"));
    let window_ms: u64 = parsed_flag(args, "--window-ms").unwrap_or(1_000);
    let cfg = StreamConfig {
        updates: updates.into(),
        model_out: model_out.into(),
        state_dir: flag(args, "--state").map(Into::into),
        serve_addr: flag(args, "--serve"),
        // Record timestamps have one-second resolution, so sub-second
        // requests round up to the smallest honest window.
        window_secs: window_ms.div_ceil(1_000).max(1).min(u64::from(u32::MAX)) as u32,
        max_window_updates: parsed_flag(args, "--max-window").unwrap_or(10_000),
        follow: args.iter().any(|a| a == "--follow"),
        idle_timeout_ms: parsed_flag(args, "--idle-ms").unwrap_or(2_000),
        threads: parsed_flag(args, "--threads").unwrap_or(0),
        max_retries: parsed_flag(args, "--max-retries").unwrap_or(3),
        ..StreamConfig::default()
    };
    let mut pipeline = Pipeline::new(cfg).unwrap_or_else(|e| die(e));
    let report = pipeline.run_file().unwrap_or_else(|e| die(e));
    let json =
        serde_json::to_string(&report).unwrap_or_else(|e| die(format!("cannot serialize: {e}")));
    print_line(&json);
    // A source-side fault (truncated tail, undecodable frame) degraded
    // gracefully — every prior window was served — but scripts must see
    // that the stream did not run to completion.
    if report.source_error.is_some() {
        exit(1);
    }
}

fn cmd_stream_stats(args: &[String]) {
    let Some(addr) = positional(args) else {
        usage("stream-stats requires ADDR")
    };
    let metrics = quasar::stream::client::ServeClient::new(addr)
        .metrics()
        .unwrap_or_else(|e| die(e));
    match metrics.stream {
        Some(status) => {
            let json = serde_json::to_string(&status)
                .unwrap_or_else(|e| die(format!("cannot serialize: {e}")));
            print_line(&json);
        }
        None => die("no streaming pipeline has reported to this server yet"),
    }
}

fn cmd_health(args: &[String]) {
    let Some(addr) = positional(args) else {
        usage("health requires ADDR")
    };
    // Readiness-probe exit codes: 0 healthy, 1 degraded (reachable but a
    // shard is quarantined or rebuilding), 3 unreachable. Orchestrators
    // route on the code; humans read the JSON line.
    match quasar::stream::client::ServeClient::new(addr).health() {
        Ok(health) => {
            let json = serde_json::to_string(&health)
                .unwrap_or_else(|e| die(format!("cannot serialize: {e}")));
            print_line(&json);
            if health.status != "healthy" {
                exit(1);
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            exit(3);
        }
    }
}

fn cmd_query(args: &[String]) {
    let (addr, lines) = match args.split_first() {
        Some((a, rest)) if !rest.is_empty() && !a.starts_with("--") => (a, rest),
        _ => usage("query requires ADDR and at least one JSON request"),
    };
    let mut client = QueryClient::new(addr);
    // Seeded per process so parallel clients retrying against the same
    // overloaded server spread out instead of stampeding in lockstep:
    // 10ms doubling per attempt with up to +50% jitter, the workspace's
    // shared backoff policy.
    let mut backoff = quasar::model::backoff::Backoff::new(
        10,
        10_000,
        u64::from(std::process::id()) ^ 0x5155_4153_4152_3121,
    );
    let mut failed = false;
    for line in lines {
        // Validate locally first: a typo should produce a parse error
        // naming the offending input, not a server round trip.
        let req: Request = serde_json::from_str(line)
            .unwrap_or_else(|e| die(format!("bad request `{line}`: {e}")));
        let json = serde_json::to_string(&req)
            .unwrap_or_else(|e| die(format!("cannot serialize request: {e}")));
        // Each request starts its schedule over; the jitter stream keeps
        // advancing so retries never re-correlate.
        backoff.reset();
        let reply = loop {
            let reply = client.exchange(&json).unwrap_or_else(|e| die(e));
            let overloaded = matches!(serde_json::from_str(&reply), Ok(Response::Overloaded(_)));
            if !overloaded || backoff.attempt() >= QUERY_MAX_RETRIES {
                break reply;
            }
            // A deadline-exceeded reply is NOT retried — the request
            // itself is too expensive, and retrying would re-burn the
            // server's budget.
            let delay = backoff.next_delay();
            eprintln!(
                "server overloaded; retry {}/{QUERY_MAX_RETRIES} in {}ms",
                backoff.attempt(),
                delay.as_millis()
            );
            std::thread::sleep(delay);
        };
        print_line(&reply);
        // An error reply, or an overload that outlived every retry, means
        // the request did not get a real answer — scripts must see that
        // in the exit code.
        if matches!(
            serde_json::from_str(&reply),
            Ok(Response::Error(_)) | Ok(Response::Overloaded(_))
        ) {
            failed = true;
        }
    }
    if failed {
        exit(1);
    }
}
