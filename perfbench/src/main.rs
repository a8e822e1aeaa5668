//! `quasar-perfbench` — the end-to-end and per-layer benchmark of the
//! quasar pipeline. See README.md for the workloads and metrics.
//!
//! Usage:
//!   `quasar-perfbench --workload train-dump|query-mix|stream-swap
//!        --seed N --seconds S --trace 0|1`
//!   `quasar-perfbench --workload all [--seed N] [--seconds S]`
//!
//! A single-workload run prints a host-stamped report on stderr and, as
//! the last line of stdout, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics untraced (`--trace
//! 0`), the per-layer metrics traced (`--trace 1`). `--workload all`
//! runs every workload untraced and traced, each in a child process, and
//! prints the combined table: every metric with its unit, ops attempted
//! and failed, the correctness verdicts, each layer's share of each
//! workload's wall time, and the tracing overhead.

mod input;
mod net;
mod probe;
mod query_mix;
mod report;
mod stream_swap;
mod trace;
mod train_dump;
mod util;

use input::Scale;
use report::Outcome;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use trace::{CountingAlloc, Tracer};
use util::Host;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Set-ups per run; `setup_s` is their median, each scaled by a
/// calibration run just before it.
pub const SETUPS: usize = 3;
/// Refinement threads of the timed trainings. One: a two-thread
/// refinement on a two-core host shares its cores with the server, the
/// reader and the benchmark, and waits at every phase for whichever core
/// is busy elsewhere, so its times measure the scheduler (a CPU-bound
/// process beside a train-dump run slowed its dump-to-answer median by
/// 18 % on two threads, not at all on one).
pub const THREADS: usize = 1;
/// Refinement threads of the correctness references, which are untimed:
/// a thread count other than [`THREADS`], so the checks also cover the
/// model's independence of the thread count.
pub const CHECK_THREADS: usize = 2;
/// A run whose generator sent its p99 request later than this against
/// schedule did not offer the planned load: it fails its check instead
/// of reporting its latency as the server's. (The refinement, the server
/// and the generator share the reference host's two cores, so wake-ups
/// run a few milliseconds late while a window retrains.)
pub const LAG_BOUND_MS: f64 = 25.0;

pub const WORKLOADS: &[&str] = &["train-dump", "query-mix", "stream-swap"];

/// One run's settings and its tracer.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
    pub tracer: Tracer,
    /// Scratch directory for dumps, archives and artifacts.
    pub work: PathBuf,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Always [`Scale::Bench`] from the command line; the self-test runs
    /// [`Scale::Tiny`].
    scale: Scale,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let flag = |name: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let workload = flag("--workload")
        .ok_or("--workload is required")?
        .to_string();
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let num = |name: &str, default: &str| -> Result<f64, String> {
        let v = flag(name).unwrap_or(default);
        v.parse::<f64>()
            .ok()
            .filter(|x| x.is_finite() && *x >= 0.0)
            .ok_or(format!("bad {name} `{v}`"))
    };
    let seed_arg = flag("--seed").unwrap_or("1");
    let seed: u64 = seed_arg
        .parse()
        .map_err(|_| format!("bad --seed `{seed_arg}`"))?;
    let seconds = num("--seconds", "10")?;
    let trace = match flag("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace `{other}`, want 0 or 1")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        scale: Scale::Bench,
    })
}

/// Where scratch files and traces go: `.perfbench/` under the directory
/// the benchmark runs from.
fn out_dir() -> PathBuf {
    PathBuf::from(".perfbench")
}

fn run_one(args: &Args) -> Outcome {
    let work = out_dir().join(format!(
        "work-{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&work).expect("create the scratch directory");
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        scale: args.scale,
        tracer: Tracer::new(args.trace),
        work: work.clone(),
    };
    let outcome = match args.workload.as_str() {
        "train-dump" => train_dump::run(&ctx),
        "query-mix" => query_mix::run(&ctx),
        "stream-swap" => stream_swap::run(&ctx),
        other => unreachable!("workload {other} was validated"),
    };
    if args.trace {
        let path = out_dir().join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        ctx.tracer
            .write_jsonl(&path, &Host::probe(), &args.workload, args.seed);
    }
    let _ = std::fs::remove_dir_all(&work);
    outcome
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("quasar-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let host = Host::probe();
    let outcome = run_one(&args);
    outcome.print_report(&args.workload, &host.stamp(), args.trace);
    let tsv = out_dir().join(format!(
        "result-{}-trace{}-seed{}.tsv",
        args.workload,
        u8::from(args.trace),
        args.seed
    ));
    if let Err(e) = std::fs::write(&tsv, outcome.tsv()) {
        eprintln!("cannot write {}: {e}", tsv.display());
    }
    println!("{}", outcome.json_line(args.trace));
    ExitCode::SUCCESS
}

/// `(kind, name) -> (value, unit)` rows of one child run's TSV.
type Rows = std::collections::BTreeMap<(String, String), (f64, String)>;

fn read_rows(path: &std::path::Path) -> Option<Rows> {
    let text = std::fs::read_to_string(path).ok()?;
    Some(
        text.lines()
            .filter_map(|l| {
                let f: Vec<&str> = l.split('\t').collect();
                (f.len() == 4).then(|| {
                    (
                        (f[0].to_string(), f[1].to_string()),
                        (f[2].parse().unwrap_or(0.0), f[3].to_string()),
                    )
                })
            })
            .collect(),
    )
}

/// The one command: every workload untraced and traced, in child
/// processes (so peak RSS is per workload), then the combined table.
fn run_all(args: &Args) -> ExitCode {
    let host = Host::probe();
    let stamp = host.stamp();
    let exe = std::env::current_exe().expect("own executable path");
    let mut ok = true;
    let mut runs: std::collections::BTreeMap<(&str, u8), Rows> = Default::default();
    for &w in WORKLOADS {
        for trace in [0u8, 1] {
            let status = Command::new(&exe)
                .args([
                    "--workload",
                    w,
                    "--seed",
                    &args.seed.to_string(),
                    "--seconds",
                    &args.seconds.to_string(),
                    "--trace",
                    &trace.to_string(),
                ])
                .stdout(Stdio::null())
                .status();
            let tsv = out_dir().join(format!("result-{w}-trace{trace}-seed{}.tsv", args.seed));
            match (status, read_rows(&tsv)) {
                (Ok(s), Some(rows)) if s.success() => {
                    runs.insert((w, trace), rows);
                }
                (status, _) => {
                    eprintln!("{w} trace={trace}: run failed ({status:?})");
                    ok = false;
                }
            }
        }
    }

    println!(
        "# quasar-perfbench --workload all | seed={} seconds={} | {stamp}",
        args.seed, args.seconds
    );
    let get = |w: &str, t: u8, kind: &str, name: &str| -> f64 {
        runs.get(&(w, t))
            .and_then(|rows| rows.get(&(kind.to_string(), name.to_string())))
            .map_or(0.0, |r| r.0)
    };
    let (mut attempted, mut failed, mut correct) = (0.0, 0.0, true);
    for &w in WORKLOADS {
        let (Some(plain), Some(traced)) = (runs.get(&(w, 0)), runs.get(&(w, 1))) else {
            continue;
        };
        println!("\n## {w} | {stamp}");
        for t in [0u8, 1] {
            let ops = |name: &str| get(w, t, "ops", name);
            attempted += ops("attempted");
            failed += ops("failed");
            correct &= ops("correct") == 1.0;
            println!(
                "ops (trace={t}): attempted={} failed={} correct={} | {stamp}",
                ops("attempted"),
                ops("failed"),
                ops("correct") == 1.0
            );
        }
        // Tracing overhead: the traced run's end-to-end figures against
        // the untraced run's.
        println!(
            "{:<36} {:>12} {:>12} {:>9}  unit",
            "metric", "untraced", "traced", "overhead"
        );
        for ((kind, name), (v, unit)) in plain {
            if kind == "e2e" || kind == "named" {
                let tv = traced
                    .get(&(kind.clone(), name.clone()))
                    .map_or(0.0, |r| r.0);
                let overhead = if *v != 0.0 { 100.0 * (tv - v) / v } else { 0.0 };
                println!(
                    "{:<36} {v:>12.4} {tv:>12.4} {overhead:>8.1}%  {unit} | {stamp}",
                    format!("{kind}:{name}")
                );
            }
        }
        for ((kind, name), (v, unit)) in traced {
            if kind == "layer" {
                println!(
                    "{:<36} {:>12} {v:>12.4} {:>9}  {unit} | {stamp}",
                    format!("layer:{name}"),
                    "",
                    ""
                );
            }
        }
    }

    println!("\n## predicted split vs measured | {stamp}");
    let largest_share = |w: &str| {
        report::SHARES
            .iter()
            .map(|name| (get(w, 1, "layer", name), &name["share.".len()..]))
            .fold((f64::MIN, ""), |a, b| if b.0 > a.0 { b } else { a })
            .1
    };
    let predictions = [
        (
            "core.refine is the largest layer of train-dump",
            largest_share("train-dump") == "core.refine",
            format!("largest: {}", largest_share("train-dump")),
        ),
        (
            "core.refine is absent from query-mix",
            get("query-mix", 1, "layer", "core.refine_s") == 0.0,
            format!(
                "core.refine_s = {}",
                get("query-mix", 1, "layer", "core.refine_s")
            ),
        ),
        (
            "serve.net_queue_us exceeds serve.handle_us.predict on query-mix",
            get("query-mix", 1, "layer", "serve.net_queue_us")
                > get("query-mix", 1, "layer", "serve.handle_us.predict"),
            format!(
                "{:.1} us vs {:.1} us",
                get("query-mix", 1, "layer", "serve.net_queue_us"),
                get("query-mix", 1, "layer", "serve.handle_us.predict")
            ),
        ),
        (
            "persist + swap exceed refine on stream-swap replay windows",
            get("stream-swap", 1, "layer", "stream.persist_ms")
                + get("stream-swap", 1, "layer", "stream.swap_ms")
                > get("stream-swap", 1, "layer", "stream.train_ms.replay"),
            format!(
                "{:.0} + {:.0} ms vs {:.0} ms",
                get("stream-swap", 1, "layer", "stream.persist_ms"),
                get("stream-swap", 1, "layer", "stream.swap_ms"),
                get("stream-swap", 1, "layer", "stream.train_ms.replay")
            ),
        ),
    ];
    for (what, held, detail) in predictions {
        println!(
            "{} {what} ({detail}) | {stamp}",
            if held { "HOLDS" } else { "DOES NOT HOLD" }
        );
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{}}}}",
        ok && correct,
        attempted.max(1.0) as u64,
        failed as u64
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The self-test: every workload at the `tiny` preset, untraced and
    /// traced, reports every named metric with its unit and passes every
    /// correctness check.
    #[test]
    fn every_workload_reports_every_metric_and_passes_its_checks() {
        for &w in WORKLOADS {
            for trace in [false, true] {
                let args = Args {
                    workload: w.into(),
                    seed: 3,
                    seconds: 1.0,
                    trace,
                    scale: Scale::Tiny,
                };
                let out = run_one(&args);
                assert!(
                    out.correct(),
                    "{w} trace={trace}: {:?} {:?}",
                    out.checks,
                    out.failures
                );
                assert!(out.attempted > 0);
                let line = out.json_line(trace);
                let list = if trace {
                    report::PER_LAYER
                } else {
                    report::END_TO_END
                };
                for (name, unit) in list {
                    let needle = format!("\"{name}\":{{\"value\":");
                    assert!(line.contains(&needle), "{w}: {name} missing in {line}");
                    assert!(
                        line.contains(&format!("\"unit\":\"{unit}\"")),
                        "{w}: unit {unit}"
                    );
                }
                if !trace {
                    for (name, _) in report::END_TO_END {
                        let v = out.e2e.get(name).copied().unwrap_or(0.0);
                        assert!(v > 0.0, "{w}: end-to-end metric {name} is {v}");
                    }
                }
                let named: &[(&str, &str)] = match w {
                    "train-dump" => &[
                        ("train_s", "s"),
                        ("first_answer_s", "s"),
                        ("heldout_tiebreak_pct", "%"),
                        ("query_p50_ms", "ms"),
                        ("query_p99_ms", "ms"),
                    ],
                    "query-mix" => &[
                        ("query_p50_ms", "ms"),
                        ("query_p99_ms", "ms"),
                        ("whatif_p50_ms", "ms"),
                    ],
                    _ => &[
                        ("window_to_swap_p50_s", "s"),
                        ("replay_s", "s"),
                        ("query_p50_ms", "ms"),
                        ("query_p99_ms", "ms"),
                    ],
                };
                for (name, unit) in named {
                    assert!(
                        out.named
                            .iter()
                            .any(|(n, v, u)| n == name && u == unit && *v > 0.0),
                        "{w}: workload metric {name} [{unit}] missing"
                    );
                }
            }
        }
    }

    #[test]
    fn bad_arguments_are_rejected() {
        let a = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        assert!(parse_args(&a("--workload nope")).is_err());
        assert!(parse_args(&a("--workload query-mix --trace 2")).is_err());
        assert!(parse_args(&a("--workload query-mix --seconds x")).is_err());
        assert!(parse_args(&a("--workload query-mix --seed -1")).is_err());
        assert!(parse_args(&a("--seed 1")).is_err());
        let ok = parse_args(&a("--workload query-mix --seed 4 --seconds 2 --trace 1")).unwrap();
        assert_eq!((ok.seed, ok.seconds, ok.trace), (4, 2.0, true));
    }
}
