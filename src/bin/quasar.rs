//! `quasar` — command-line frontend for the AS-routing-model pipeline.
//!
//! Every subcommand form is one row of [`COMMANDS`]: its synopsis, the
//! flags it takes (switches, and flags that take a value), the shape of
//! its positional arguments and its handler; `quasar` with no arguments
//! prints every synopsis. Parsing is strict and finishes before any file
//! is read or written: an unknown flag, a flag without its value, an
//! unparsable value, a stray or missing positional argument, or a flag of
//! the subcommand's other form is a usage error (exit 2), and so is a
//! flag that takes a value given twice (only whatif's changes repeat).
//! I/O and runtime failures exit 1. What each subcommand does is
//! documented on its handler.

use quasar::bgpsim::types::Asn;
use quasar::diversity::prelude::*;
use quasar::lint::{Report, Severity};
use quasar::model::prelude::*;
use quasar::netgen::prelude::*;
use quasar::serve::prelude::*;
use quasar::stream::client::ServeClient;
use quasar::{HeldOut, Scale, Split};
use std::io::Write;
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::exit;
use std::sync::Arc;

/// The shape of a subcommand's positional arguments.
#[derive(Clone, Copy)]
enum Operands {
    Zero,
    Optional,
    Required,
    /// An address, then one or more JSON request lines.
    AddrAndLines,
}

/// One subcommand form.
struct Command {
    name: &'static str,
    /// A row with a form flag applies only when that flag is given; it
    /// precedes the default row of the same name.
    form: Option<&'static str>,
    synopsis: &'static str,
    switches: &'static [&'static str],
    values: &'static [&'static str],
    operands: Operands,
    run: fn(&Args),
}

use Operands::{AddrAndLines, Optional, Required, Zero};

/// The value flags that may be given more than once: whatif's changes,
/// applied in the order given.
const REPEATABLE: &[&str] = &["--depeer", "--add-peering", "--filter"];

#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command { name: "generate", form: None, run: cmd_generate, operands: Zero,
        synopsis: "generate --out FILE [--scale tiny|small|medium|large] [--seed N]",
        switches: &[], values: &["--out", "--scale", "--seed"] },
    Command { name: "train", form: None, run: cmd_train, operands: Optional,
        synopsis: "train (FILE | --scale tiny|small|medium|large [--seed N]) --out MODEL.json [--threads N] \
                   [--checkpoint-dir D [--resume]]",
        switches: &["--resume"],
        values: &["--out", "--scale", "--seed", "--threads", "--checkpoint-dir"] },
    Command { name: "analyze", form: None, run: cmd_analyze, operands: Required,
        synopsis: "analyze FILE", switches: &[], values: &[] },
    Command { name: "predict", form: Some("--model"), run: cmd_predict_model, operands: Zero,
        synopsis: "predict --model MODEL.json --prefix P --observer N [--path A,B,C]",
        switches: &[], values: &["--model", "--prefix", "--observer", "--path"] },
    Command { name: "predict", form: None, run: cmd_predict, operands: Required,
        synopsis: "predict FILE [--split point|origin|both] [--seed N]",
        switches: &[], values: &["--split", "--seed"] },
    Command { name: "diagnose", form: None, run: cmd_diagnose, operands: Required,
        synopsis: "diagnose FILE [--seed N]", switches: &[], values: &["--seed"] },
    Command { name: "stable", form: None, run: cmd_stable, operands: Required,
        synopsis: "stable FILE [--snapshot T] [--window SECS]",
        switches: &[], values: &["--snapshot", "--window"] },
    Command { name: "whatif", form: None, run: cmd_whatif, operands: Optional,
        synopsis: "whatif (FILE | --model MODEL.json) (--depeer A:B | --add-peering A:B | \
                   --filter ASN:NEIGHBOR:PREFIX)... [--json]",
        switches: &["--json"], values: &["--model", "--depeer", "--add-peering", "--filter"] },
    Command { name: "serve", form: None, run: cmd_serve, operands: Required,
        synopsis: "serve MODEL.json [--listen ADDR] [--workers N] [--max-sessions N] [--max-pending N] \
                   [--deadline-ms MS] [--shards N] [--prewarm]",
        switches: &["--prewarm"],
        values: &["--listen", "--workers", "--max-sessions", "--max-pending", "--deadline-ms",
                  "--shards"] },
    Command { name: "query", form: None, run: cmd_query, operands: AddrAndLines,
        synopsis: "query ADDR JSON [JSON...]", switches: &[], values: &[] },
    Command { name: "health", form: None, run: cmd_health, operands: Required,
        synopsis: "health ADDR", switches: &[], values: &[] },
    Command { name: "stream", form: None, run: cmd_stream, operands: Zero,
        synopsis: "stream --updates FILE --model OUT [--serve ADDR] [--window-ms N] [--max-window N] \
                   [--follow] [--idle-ms N] [--state DIR] [--threads N] [--max-retries N]",
        switches: &["--follow"],
        values: &["--updates", "--model", "--serve", "--window-ms", "--max-window", "--idle-ms",
                  "--state", "--threads", "--max-retries"] },
    Command { name: "lint", form: None, run: cmd_lint, operands: Required,
        synopsis: "lint MODEL.json [--json] [--deny warn|error]",
        switches: &["--json"], values: &["--deny"] },
    Command { name: "sast", form: None, run: cmd_sast, operands: Zero,
        synopsis: "sast [--root DIR] [--json] [--deny warn|error]",
        switches: &["--json"], values: &["--root", "--deny"] },
    Command { name: "repro", form: None, run: cmd_repro, operands: Zero,
        synopsis: "repro [--exp all|ID[,ID...]] [--scale tiny|small|medium|large] [--seed N] [--obs N] \
                   [--counts N,N,...] [--csv DIR]",
        switches: &[], values: &["--exp", "--scale", "--seed", "--obs", "--counts", "--csv"] },
];

/// A subcommand's arguments, checked against its row.
struct Args {
    row: &'static Command,
    /// Flags in the order given, each with its value (`None` for a switch).
    flags: Vec<(&'static str, Option<String>)>,
    operands: Vec<String>,
}

impl Args {
    fn parse(args: &[String]) -> Args {
        let Some((name, rest)) = args.split_first() else {
            usage("missing subcommand")
        };
        let given = |flag: &str| rest.iter().any(|a| a == flag);
        let row = COMMANDS
            .iter()
            .find(|c| c.name == name && c.form.is_none_or(given))
            .unwrap_or_else(|| usage(&format!("unknown subcommand {name}")));
        let (mut flags, mut operands) = (Vec::new(), Vec::new());
        let mut it = rest.iter();
        while let Some(arg) = it.next() {
            if let Some(&flag) = row.switches.iter().find(|f| *f == arg) {
                flags.push((flag, None));
            } else if let Some(&flag) = row.values.iter().find(|f| *f == arg) {
                if flags.iter().any(|(f, _)| *f == flag) && !REPEATABLE.contains(&flag) {
                    usage(&format!("{flag} given twice"))
                }
                let value = it.next().filter(|v| !v.starts_with("--"));
                let value = value.unwrap_or_else(|| usage(&format!("{flag} requires a value")));
                flags.push((flag, Some(value.clone())));
            } else if arg.starts_with("--") {
                usage(&format!("unknown flag {arg} for `quasar {}`", row.synopsis))
            } else {
                operands.push(arg.clone());
            }
        }
        let n = operands.len();
        let fits = match row.operands {
            Zero => n == 0,
            Optional => n <= 1,
            Required => n == 1,
            AddrAndLines => n >= 2,
        };
        if !fits {
            usage(&format!(
                "{n} positional argument(s) for `quasar {}`",
                row.synopsis
            ))
        }
        Args {
            row,
            flags,
            operands,
        }
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| *f == flag)
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(f, _)| *f == flag)
            .and_then(|(_, v)| v.as_deref())
    }

    /// The value of a flag this form cannot run without.
    fn need(&self, flag: &str) -> &str {
        self.value(flag)
            .unwrap_or_else(|| usage(&format!("`quasar {}` requires {flag}", self.row.synopsis)))
    }

    /// The typed value of `flag`, naming the flag and the value when it
    /// does not parse.
    fn get<T>(&self, flag: &str) -> Option<T>
    where
        T: std::str::FromStr,
        T::Err: std::fmt::Display,
    {
        self.value(flag).map(|s| {
            s.parse()
                .unwrap_or_else(|e| usage(&format!("bad {flag} `{s}`: {e}")))
        })
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&args);
    (args.row.run)(&args)
}

/// Reports a usage error with every synopsis and exits 2.
fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    for (i, c) in COMMANDS.iter().enumerate() {
        let lead = if i == 0 { "usage:" } else { "      " };
        eprintln!("{lead} quasar {}", c.synopsis);
    }
    exit(2)
}

/// Reports an I/O or runtime failure and exits 1.
fn die(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    exit(1)
}

/// Parses an `A:B` AS pair, naming the flag on failure.
fn parse_as_pair(spec: &str, flag: &str) -> (u32, u32) {
    spec.split_once(':')
        .and_then(|(x, y)| Some((x.parse::<u32>().ok()?, y.parse::<u32>().ok()?)))
        .unwrap_or_else(|| usage(&format!("bad {flag} `{spec}`, want A:B")))
}

fn load_dataset(path: &str) -> (Vec<ObservationPoint>, Dataset) {
    let bytes = std::fs::read(path).unwrap_or_else(|e| die(format!("cannot read {path}: {e}")));
    // Prefer TABLE_DUMP_V2; fall back to the legacy 2005-era TABLE_DUMP
    // format if the file contains no V2 records.
    match import_table_dump_v2(&bytes) {
        Ok((points, obs)) if !obs.is_empty() => (points, quasar::dataset_from_observations(&obs)),
        _ => {
            let (points, obs) = import_table_dump(&bytes).unwrap_or_else(|e| {
                die(format!(
                    "cannot parse {path} as TABLE_DUMP_V2 or TABLE_DUMP: {e}"
                ))
            });
            if obs.is_empty() {
                die(format!("{path}: no routes found in either MRT RIB format"));
            }
            eprintln!("{path}: legacy TABLE_DUMP format detected");
            (points, quasar::dataset_from_observations(&obs))
        }
    }
}

fn load_model(path: &str) -> AsRoutingModel {
    quasar::model::persist::load_model(path).unwrap_or_else(|e| match e.hint() {
        Some(hint) => die(format!("cannot load model {path}: {e}\nhint: {hint}")),
        None => die(format!("cannot load model {path}: {e}")),
    })
}

/// The Internet generated at the `--scale` preset and `--seed`, and
/// its seed.
fn synthesize(scale: Scale, a: &Args) -> (SyntheticInternet, u64) {
    let seed = a.get("--seed").unwrap_or(20051113);
    eprintln!("generating {scale:?} internet (seed {seed}) ...");
    (SyntheticInternet::generate(scale.config(seed)), seed)
}

/// Runs the library's training recipe, exiting 1 when it fails.
fn trained(
    universe: &Dataset,
    training: &Dataset,
    cfg: &TrainConfig,
) -> (AsRoutingModel, TrainReport) {
    train(universe, training, cfg).unwrap_or_else(|e| die(format!("training failed: {e}")))
}

/// Splits the feeds of FILE in half with `split` and the `--seed` and
/// trains on one half by the split's shipping recipe.
fn train_on_half(a: &Args, split: Split) -> HeldOut {
    let seed = a.get("--seed").unwrap_or(7);
    let (_, dataset) = load_dataset(&a.operands[0]);
    eprintln!("training on one half of {} routes ...", dataset.len());
    quasar::train_held_out(&dataset, split, seed, &split.recipe())
        .unwrap_or_else(|e| die(format!("training failed: {e}")))
}

/// `generate`: synthesizes an Internet and writes its feeds to FILE as
/// MRT TABLE_DUMP_V2, plus `FILE.updates.mrt` with a RIB dump and a
/// flapping UPDATE stream.
fn cmd_generate(a: &Args) {
    let out = a.need("--out");
    let (net, seed) = synthesize(a.get("--scale").unwrap_or(Scale::Small), a);
    let bytes = export_table_dump_v2(&net.observation_points, &net.observations);
    // Raw bytes (no persist header): the archive must stay MRT-parseable.
    atomic_write_bytes(out, &bytes).unwrap_or_else(|e| die(format!("cannot write {out}: {e}")));
    println!(
        "wrote {out}: {} feeds, {} routes, {} bytes",
        net.observation_points.len(),
        net.observations.len(),
        bytes.len()
    );

    let ucfg = UpdateStreamConfig::default();
    let records = generate_update_stream(&net.observation_points, &net.observations, &ucfg, seed);
    let mut w = quasar::mrt::io::MrtWriter::new(Vec::new());
    for r in &records {
        w.write_record(r).expect("in-memory write");
    }
    let ubytes = w.finish().expect("in-memory flush");
    let upath = format!("{out}.updates.mrt");
    atomic_write_bytes(&upath, &ubytes)
        .unwrap_or_else(|e| die(format!("cannot write {upath}: {e}")));
    println!(
        "wrote {upath}: {} records, {} bytes",
        records.len(),
        ubytes.len()
    );
}

/// `train`: runs the library's training recipe (refinement, then the
/// §4.7 generalisation) against all feeds of FILE, or of an Internet
/// generated at a `--scale` preset, persists the model and prints the
/// wall time of each phase. `--threads 0` (the default) uses every core;
/// the model is byte-identical at every thread count. With
/// `--checkpoint-dir` refinement keeps a log there, one record per
/// finished domain and repair round, and `--resume` continues an
/// interrupted run from it into a byte-identical model.
fn cmd_train(a: &Args) {
    let out = a.need("--out");
    let checkpoint_dir = a.value("--checkpoint-dir");
    if a.has("--resume") && checkpoint_dir.is_none() {
        usage("--resume requires --checkpoint-dir");
    }
    let cfg = TrainConfig {
        refine: RefineConfig {
            threads: a.get("--threads").unwrap_or(0),
            ..RefineConfig::default()
        },
        checkpoint: checkpoint_dir.map(PathBuf::from),
        resume: a.has("--resume"),
        generalize: true,
    };
    let dataset = match (a.operands.first(), a.get("--scale")) {
        (Some(path), None) if !a.has("--seed") => load_dataset(path).1,
        (None, Some(scale)) => quasar::dataset_from(&synthesize(scale, a).0),
        _ => usage("train takes FILE or --scale NAME [--seed N]"),
    };
    eprintln!(
        "refining against all {} routes on {} thread(s) ...",
        dataset.len(),
        cfg.refine.effective_threads()
    );
    let (model, report) = trained(&dataset, &dataset, &cfg);
    // The one command that writes a trained artifact audits it: `clean`,
    // or the tally, then one line per finding.
    let audit = quasar::lint::audit(&model);
    let tally = match audit.diagnostics.is_empty() {
        true => "clean".to_string(),
        false => format!(
            "{} error(s), {} warning(s), {} info(s)",
            audit.errors(),
            audit.warnings(),
            audit.infos()
        ),
    };
    eprintln!("audit [post-train]: {tally}");
    for d in &audit.diagnostics {
        eprintln!("audit [post-train]:   {d}");
    }
    if let Some(dir) = cfg.checkpoint.as_ref().filter(|_| cfg.resume) {
        let dir = dir.display();
        if report.resumed {
            eprintln!("resumed refinement from the log in {dir}");
        } else {
            eprintln!("no checkpoint found in {dir}; starting fresh");
        }
    }
    let bytes = save_model(out, &model).unwrap_or_else(|e| die(format!("cannot write {out}: {e}")));
    // The final model is durably on disk; the log has served its
    // purpose and would only confuse a later --resume.
    if let Some(dir) = &cfg.checkpoint {
        std::fs::remove_file(dir.join(quasar::model::persist::LOG_FILE)).ok();
    }
    let stats = model.stats();
    println!(
        "wrote {out}: converged={} | {} quasi-routers | {} rules | {bytes} bytes",
        report.refine.converged(),
        stats.quasi_routers,
        stats.policy_rules,
    );
    println!("phases: {}", report.phases);
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

/// The `--deny warn|error` threshold of `lint` and `sast` (default error).
fn deny_threshold(a: &Args) -> Severity {
    match a.value("--deny") {
        None => Severity::Error,
        Some("info") => usage("--deny info would reject every informational note; use warn"),
        Some(s) => Severity::parse(s).unwrap_or_else(|| usage("--deny wants warn|error")),
    }
}

/// `lint`: static audit of a persisted model — typed, severity-ranked
/// diagnostics (rule ids QL0001-QL0009) with no simulation. Exit 0 when
/// no finding reaches the `--deny` threshold, 1 on findings at or above
/// it or a load failure, 2 on usage errors.
fn cmd_lint(a: &Args) {
    let deny = deny_threshold(a);
    let report = quasar::lint::audit(&load_model(&a.operands[0]));
    finish_audit(&report, a.has("--json"), deny)
}

/// `sast`: static audit of the workspace's own Rust sources (lock order,
/// atomic-ordering justifications, failpoint registry, protocol
/// exhaustiveness, forbidden patterns; rule ids QS0001-QS0007), each with
/// a file:line:col span. Same exit codes as `lint`.
fn cmd_sast(a: &Args) {
    let deny = deny_threshold(a);
    let root = a.value("--root").unwrap_or(".");
    let report = quasar::lint::source::analyze_workspace(std::path::Path::new(root))
        .unwrap_or_else(|e| die(format!("cannot scan {root}: {e}")));
    finish_audit(&report, a.has("--json"), deny)
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

/// `analyze`: the §3 analyses of an MRT feed file.
fn cmd_analyze(a: &Args) {
    let path = &a.operands[0];
    let (points, dataset) = load_dataset(path);
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

/// `predict FILE`: trains on half the feeds and predicts the other half.
/// Unseen prefixes (`--split origin|both`) get the §4.7 generalisation.
fn cmd_predict(a: &Args) {
    let h = train_on_half(a, a.get("--split").unwrap_or(Split::Point));
    let stats = h.model.stats();
    println!(
        "model: converged={} | {} quasi-routers over {} ASes | {} rules",
        h.report.refine.converged(),
        stats.quasi_routers,
        stats.ases,
        stats.policy_rules
    );
    let ev = evaluate(&h.model, &h.validation);
    println!(
        "prediction: RIB-Out {:.1}% | down-to-tie-break {:.1}% | RIB-In bound {:.1}%",
        100.0 * ev.counts.rib_out_rate(),
        100.0 * ev.counts.tie_break_rate(),
        100.0 * ev.counts.rib_in_rate()
    );
}

/// `diagnose`: trains on half the feeds and attributes validation
/// mismatches to the AS where reproduction first breaks.
fn cmd_diagnose(a: &Args) {
    let h = train_on_half(a, Split::Point);
    let diag = diagnose(&h.model, &h.validation);
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

/// `stable`: replays RIB dumps and updates, keeps the routes stable
/// around the snapshot and prints the dataset summary.
fn cmd_stable(a: &Args) {
    let path = &a.operands[0];
    let snapshot = a.get("--snapshot").unwrap_or(SNAPSHOT_TIME);
    let window = a.get("--window").unwrap_or(3_600);
    let bytes = std::fs::read(path).unwrap_or_else(|e| die(format!("cannot read {path}: {e}")));
    let records = quasar::mrt::io::MrtReader::new(&bytes[..])
        .read_all()
        .unwrap_or_else(|e| die(format!("cannot parse {path}: {e}")));
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

/// The `--depeer`/`--add-peering`/`--filter` changes in the order given:
/// a scenario applies its changes in sequence.
fn change_specs(a: &Args) -> Vec<ChangeSpec> {
    let spec = |(flag, value): &(&str, Option<String>)| {
        let v = value.as_deref()?;
        Some(match *flag {
            "--depeer" => {
                let (a, b) = parse_as_pair(v, flag);
                ChangeSpec::Depeer { a, b }
            }
            "--add-peering" => {
                let (a, b) = parse_as_pair(v, flag);
                ChangeSpec::AddPeering { a, b }
            }
            "--filter" => {
                let mut parts = v.splitn(3, ':');
                (|| {
                    Some(ChangeSpec::FilterPrefix {
                        asn: parts.next()?.parse().ok()?,
                        neighbor: parts.next()?.parse().ok()?,
                        prefix: parts.next()?.to_string(),
                    })
                })()
                .unwrap_or_else(|| usage(&format!("bad --filter `{v}`, want ASN:NEIGHBOR:PREFIX")))
            }
            _ => return None,
        })
    };
    a.flags.iter().filter_map(spec).collect()
}

/// `whatif`: applies the changes to a model trained on all feeds of FILE
/// (by the same recipe as `train`) or loaded from `--model`, and answers
/// them with the served `diff` over every quasi-router and prefix
/// (through a one-shard state, so `--json` prints the server's reply byte
/// for byte). Without `--json` it prints the reply's counts on one line.
/// A `--depeer` of two ASes that have no session in the model, and that
/// no earlier `--add-peering` joins, is an error.
fn cmd_whatif(a: &Args) {
    let changes = change_specs(a);
    if changes.is_empty() {
        usage("whatif requires at least one --depeer, --add-peering or --filter");
    }
    let model = match (a.operands.first(), a.value("--model")) {
        (Some(path), None) => {
            let (_, dataset) = load_dataset(path);
            trained(&dataset, &dataset, &TrainConfig::default()).0
        }
        (None, Some(path)) => load_model(path),
        _ => usage("whatif takes FILE or --model MODEL.json"),
    };
    for (i, change) in changes.iter().enumerate() {
        let ChangeSpec::Depeer { a, b } = *change else {
            continue;
        };
        let theirs = model.quasi_routers_of(Asn(b));
        let peered = model
            .quasi_routers_of(Asn(a))
            .into_iter()
            .any(|x| theirs.iter().any(|&y| model.network().has_session(x, y)));
        let added = [(a, b), (b, a)]
            .map(|(a, b)| ChangeSpec::AddPeering { a, b })
            .iter()
            .any(|add| changes[..i].contains(add));
        if !peered && !added {
            die(format!("no sessions between AS{a} and AS{b}"));
        }
    }
    let state = ShardedState::new(model, ServeConfig::default(), 1);
    match state.dispatch(&Request::Diff {
        changes,
        prefixes: None,
    }) {
        Response::Diff(d) if !a.has("--json") => println!(
            "{} change(s) over {} router-prefix pairs: {} unchanged, {} rerouted, {} lost, \
             {} gained, {} diverged prefix(es)",
            d.changes, d.pairs, d.unchanged, d.rerouted, d.lost, d.gained, d.diverged_prefixes
        ),
        reply => print_response(reply),
    }
}

/// Writes a serialized value to stdout as one line. A closed pipe (e.g.
/// `| head`) is a normal way for the reader to stop early, not a crash.
fn print_json(json: serde_json::Result<String>) {
    let json = json.unwrap_or_else(|e| die(format!("cannot serialize: {e}")));
    let mut out = std::io::stdout();
    if let Err(e) = writeln!(out, "{json}").and_then(|()| out.flush()) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            exit(0);
        }
        die(format!("cannot write to stdout: {e}"));
    }
}

/// Prints a reply as one JSON line; an error reply goes to stderr with
/// exit 1 so scripts can trust exit codes.
fn print_response(resp: Response) {
    if let Response::Error(e) = &resp {
        die(&e.message);
    }
    print_json(serde_json::to_string(&resp))
}

/// `predict --model`: one-shot route prediction from a persisted model,
/// printed as one JSON line — byte-identical to the server's answer.
fn cmd_predict_model(a: &Args) {
    let prefix = a.need("--prefix").to_string();
    let observer = a
        .get("--observer")
        .unwrap_or_else(|| usage("predict --model requires --observer N"));
    let observed_path: Option<Vec<u32>> = a.value("--path").map(|s| {
        s.split(',')
            .map(|t| {
                t.trim()
                    .parse()
                    .unwrap_or_else(|e| usage(&format!("bad --path element `{t}`: {e}")))
            })
            .collect()
    });
    let state = ShardedState::new(load_model(a.need("--model")), ServeConfig::default(), 1);
    print_response(state.dispatch(&Request::Predict {
        prefix,
        observer,
        observed_path,
    }))
}

/// `serve`: the long-running query server (see the `quasar-serve` crate).
/// `--max-pending` bounds the accept queue (excess connections are shed
/// with an `overloaded` reply), `--deadline-ms` caps per-request compute
/// time (0 = unlimited), `--shards N` splits the prefixes over N shards
/// (default 1, 0 = one per core), and `--prewarm` simulates every prefix
/// into the shard caches before the listener starts answering. A panic
/// while handling a request fails that request alone; its shard keeps
/// serving.
fn cmd_serve(a: &Args) {
    let listen = a.value("--listen").unwrap_or("127.0.0.1:0");
    let defaults = ServeConfig::default();
    let config = ServeConfig {
        workers: a
            .get("--workers")
            .map_or(defaults.workers, |w: usize| w.max(1)),
        max_sessions: a.get("--max-sessions").unwrap_or(defaults.max_sessions),
        max_pending: a
            .get("--max-pending")
            .map_or(defaults.max_pending, |p: usize| p.max(1)),
        deadline_ms: a.get("--deadline-ms").unwrap_or(defaults.deadline_ms),
    };
    // 0 = one shard per core. Replies are byte-identical at every count.
    let shards = match a.get("--shards").unwrap_or(1) {
        0 => std::thread::available_parallelism()
            .map(|c| c.get())
            .unwrap_or(4),
        n => n,
    };
    let model = load_model(&a.operands[0]);
    let stats = model.stats();
    let prefixes = model.prefixes().len();
    let listener = TcpListener::bind(listen)
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
    if a.has("--prewarm") {
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

/// `stream`: replays (or with `--follow`, tails) an MRT BGP4MP update
/// file. Each window of updates is applied to the live path set, only the
/// dirtied prefixes are re-refined, the epoch is persisted to OUT and,
/// with `--serve`, hot-swapped into a running server through its
/// validated atomic reload; the final per-window report is one JSON line.
/// `--window-ms` is record time rounded up to whole seconds, so windowing
/// is a pure function of the stream. `--state` persists the trainer cache
/// for crash-safe resume. `--max-retries` bounds transient-fault retries;
/// a serve outage beyond it trips the circuit breaker: training goes on
/// locally and the newest epoch is swapped in on recovery.
fn cmd_stream(a: &Args) {
    use quasar::stream::prelude::*;
    let window_ms: u64 = a.get("--window-ms").unwrap_or(1_000);
    let cfg = StreamConfig {
        updates: a.need("--updates").into(),
        model_out: a.need("--model").into(),
        state_dir: a.value("--state").map(Into::into),
        serve_addr: a.value("--serve").map(Into::into),
        // Record timestamps have one-second resolution, so sub-second
        // requests round up to the smallest honest window.
        window_secs: window_ms.div_ceil(1_000).max(1).min(u64::from(u32::MAX)) as u32,
        max_window_updates: a.get("--max-window").unwrap_or(10_000),
        follow: a.has("--follow"),
        idle_timeout_ms: a.get("--idle-ms").unwrap_or(2_000),
        threads: a.get("--threads").unwrap_or(0),
        max_retries: a.get("--max-retries").unwrap_or(3),
        ..StreamConfig::default()
    };
    let mut pipeline = Pipeline::new(cfg).unwrap_or_else(|e| die(e));
    let report = pipeline.run_file().unwrap_or_else(|e| die(e));
    print_json(serde_json::to_string(&report));
    // A source-side fault (truncated tail, undecodable frame) degraded
    // gracefully — every prior window was served — but scripts must see
    // that the stream did not run to completion.
    if report.source_error.is_some() {
        exit(1);
    }
}

/// `health`: liveness and readiness probe printing the server's `metrics`
/// reply (generation, panic counters, per-shard table, and the last
/// stream report under `"stream"` with its age) as one JSON line. Exit 0
/// when the server answers, 2 on usage errors, 3 when the server is
/// unreachable.
fn cmd_health(a: &Args) {
    match ServeClient::new(a.operands[0].clone()).metrics() {
        Ok(metrics) => print_json(serde_json::to_string(&metrics)),
        Err(e) => {
            eprintln!("error: {e}");
            exit(3);
        }
    }
}

/// `repro`: runs the paper's experiments (`quasar::repro`) on an Internet
/// generated at `--scale` (default small) and `--seed` (default
/// 20051113), printing each table; `--obs` overrides the observation-AS
/// count, `--counts` sets the density sweep and `--csv` writes plot data
/// to DIR. `all` (the default) runs every experiment but `density` and
/// `seeds`.
fn cmd_repro(a: &Args) {
    let counts = a.value("--counts").map(|s| {
        s.split(',')
            .map(|n| n.parse().ok())
            .collect::<Option<Vec<usize>>>()
            .unwrap_or_else(|| usage(&format!("bad --counts `{s}`, want N,N,...")))
    });
    let opts = quasar::repro::Options {
        exps: a.get("--exp").unwrap_or_default(),
        scale: a.get("--scale").unwrap_or(Scale::Small),
        seed: a.get("--seed").unwrap_or(20051113),
        obs: a.get("--obs"),
        counts,
        csv: a.value("--csv").map(Into::into),
    };
    quasar::repro::run(&opts).unwrap_or_else(|e| die(e))
}

/// `query`: sends each JSON request to the server at ADDR and prints each
/// reply as one line. `overloaded` replies and transport faults are
/// retried up to 5 times with jittered backoff that honours the reply's
/// `retry_after_ms`; a deadline-exceeded reply is not retried. Exit 1 if
/// any reply is an error or an overload that outlived every retry.
fn cmd_query(a: &Args) {
    let (addr, lines) = a.operands.split_first().expect("checked by the parser");
    // Seeded per process so parallel clients retrying against the same
    // overloaded server spread out instead of stampeding in lockstep.
    let seed = u64::from(std::process::id()) ^ 0x5155_4153_4152_3121;
    let client = ServeClient::new(addr.clone()).with_retries(5, seed);
    let mut failed = false;
    for line in lines {
        // Validate locally first: a typo should produce a parse error
        // naming the offending input, not a server round trip.
        let req: Request = serde_json::from_str(line)
            .unwrap_or_else(|e| die(format!("bad request `{line}`: {e}")));
        let reply = client.request(&req).unwrap_or_else(|e| die(e));
        failed |= matches!(reply, Response::Error(_) | Response::Overloaded(_));
        print_json(serde_json::to_string(&reply));
    }
    if failed {
        exit(1);
    }
}
