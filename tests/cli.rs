//! End-to-end CLI test: generate → analyze → train → whatif → stable, all
//! through the real binary, exchanging real files; plus the strict
//! argument parser's exit-2 contract, the exit-code contracts of `lint`,
//! `sast` and `health`, the post-train audit of `train`, and the
//! repository's own source audit.

use quasar::model::persist::{load_model, save_model};
use quasar::serve::metrics::MetricsSnapshot;
use quasar_testkit::defects::DefectClass;
use quasar_testkit::workload::toy_model;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

fn quasar() -> Command {
    Command::new(env!("CARGO_BIN_EXE_quasar"))
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("quasar-cli-test-{}-{name}", std::process::id()));
    p
}

#[test]
fn full_cli_workflow() {
    let feeds = tmp("feeds.mrt");
    let model = tmp("model.json");
    let updates = PathBuf::from(format!("{}.updates.mrt", feeds.display()));

    // generate
    let out = quasar()
        .args([
            "generate",
            "--out",
            feeds.to_str().unwrap(),
            "--scale",
            "tiny",
            "--seed",
            "5",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(feeds.exists());
    assert!(updates.exists());

    // analyze
    let out = quasar()
        .args(["analyze", feeds.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("feeds"), "{text}");
    assert!(text.contains("diversity"), "{text}");

    // train -> model.json
    let out = quasar()
        .args([
            "train",
            feeds.to_str().unwrap(),
            "--out",
            model.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("converged=true"), "{text}");
    assert!(
        text.lines().any(|l| l.starts_with("phases: A domains ")
            && l.contains(" | B merge ")
            && l.contains(" | C repair ")
            && l.contains(" | generalize ")
            && l.contains(" warm sims / ")),
        "train must print its phase timings and simulation counts: {text}"
    );
    assert!(model.exists());

    // whatif on a model trained from the feeds, then on the persisted one:
    // both come from the same training recipe, so they answer alike
    let answers: Vec<String> = [
        vec![feeds.to_str().unwrap()],
        vec!["--model", model.to_str().unwrap()],
    ]
    .into_iter()
    .map(|source| {
        let out = quasar()
            .arg("whatif")
            .args(source)
            .args(["--depeer", "10:101"])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    })
    .collect();
    assert!(answers[0].contains("unchanged"), "{}", answers[0]);
    assert_eq!(
        answers[0], answers[1],
        "whatif FILE and whatif --model differ"
    );
    // the change flags, and only they, may repeat
    let out = quasar()
        .args(["whatif", "--model", model.to_str().unwrap()])
        .args(["--depeer", "10:101", "--depeer", "10:11"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("2 change(s)"));
    let out = quasar()
        .args(["whatif", "--model", model.to_str().unwrap()])
        .args(["--depeer", "10:99999"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("no sessions between AS10 and AS99999"),
        "{err}"
    );

    // stable snapshot reconstruction from the update archive
    let out = quasar()
        .args(["stable", updates.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("stable routes"));

    // predict on the generated feeds
    let out = quasar()
        .args(["predict", feeds.to_str().unwrap(), "--seed", "3"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("prediction:"));

    // bad usage exits non-zero
    let out = quasar().args(["bogus"]).output().unwrap();
    assert!(!out.status.success());

    for f in [feeds, model, updates] {
        let _ = std::fs::remove_file(f);
    }
}

/// Kill-and-resume through the real binary: a `train --checkpoint-dir`
/// run killed with SIGKILL mid-refinement and resumed with `--resume`
/// must write a final model byte-identical to an uninterrupted run, and
/// must clean its checkpoints up afterwards.
#[test]
fn train_killed_and_resumed_is_byte_identical() {
    let feeds = tmp("resume-feeds.mrt");
    let model_a = tmp("resume-a.model");
    let model_b = tmp("resume-b.model");
    let ckpt_a = tmp("resume-ckpt-a");
    let ckpt_b = tmp("resume-ckpt-b");
    for d in [&ckpt_a, &ckpt_b] {
        let _ = std::fs::remove_dir_all(d);
    }

    let out = quasar()
        .args([
            "generate",
            "--out",
            feeds.to_str().unwrap(),
            "--scale",
            "tiny",
            "--seed",
            "9",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Reference: an uninterrupted checkpointed run.
    let out = quasar()
        .args([
            "train",
            feeds.to_str().unwrap(),
            "--out",
            model_a.to_str().unwrap(),
            "--checkpoint-dir",
            ckpt_a.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let reference = std::fs::read(&model_a).expect("reference model written");

    // Victim: same training run, SIGKILLed as soon as a checkpoint lands.
    let mut child = quasar()
        .args([
            "train",
            feeds.to_str().unwrap(),
            "--out",
            model_b.to_str().unwrap(),
            "--checkpoint-dir",
            ckpt_b.to_str().unwrap(),
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn victim train");
    let has_checkpoint = |dir: &PathBuf| {
        std::fs::read_dir(dir)
            .map(|rd| {
                rd.filter_map(|e| e.ok())
                    .any(|e| e.file_name().to_string_lossy().ends_with(".qck"))
            })
            .unwrap_or(false)
    };
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    let finished_first = loop {
        if let Some(status) = child.try_wait().expect("poll victim") {
            // The run outpaced the poll loop — it must at least have
            // succeeded, and the equivalence claim still holds below.
            assert!(status.success(), "victim train failed on its own");
            break true;
        }
        if has_checkpoint(&ckpt_b) {
            child.kill().expect("SIGKILL victim");
            let _ = child.wait();
            break false;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no checkpoint appeared within 60s"
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
    };

    if !finished_first {
        // Resume from whatever the kill left behind.
        let out = quasar()
            .args([
                "train",
                feeds.to_str().unwrap(),
                "--out",
                model_b.to_str().unwrap(),
                "--checkpoint-dir",
                ckpt_b.to_str().unwrap(),
                "--resume",
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stderr);
        assert!(
            text.contains("resumed refinement") || text.contains("starting fresh"),
            "resume must say what it did: {text}"
        );
    }

    let resumed = std::fs::read(&model_b).expect("resumed model written");
    assert_eq!(
        reference, resumed,
        "killed-and-resumed training must be byte-identical to the uninterrupted run"
    );
    assert!(
        !has_checkpoint(&ckpt_b),
        "checkpoints must be cleaned up after a successful run"
    );

    for f in [feeds.clone(), model_a, model_b] {
        let _ = std::fs::remove_file(f);
    }
    let _ = std::fs::remove_file(PathBuf::from(format!("{}.updates.mrt", feeds.display())));
    for d in [ckpt_a, ckpt_b] {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// `serve` and `lint` on a corrupt model must exit with the typed persist
/// error and the checkpoint-recovery hint, not a raw parse error.
#[test]
fn serve_on_corrupt_model_names_offset_and_hint() {
    let feeds = tmp("corrupt-feeds.mrt");
    let model = tmp("corrupt.model");
    let out = quasar()
        .args([
            "generate",
            "--out",
            feeds.to_str().unwrap(),
            "--scale",
            "tiny",
            "--seed",
            "11",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let out = quasar()
        .args([
            "train",
            feeds.to_str().unwrap(),
            "--out",
            model.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // `lint` on a copy with one payload byte flipped names the checksum
    // mismatch and the recovery hint.
    let flipped = tmp("corrupt-flipped.model");
    let mut bytes = std::fs::read(&model).unwrap();
    bytes[100] = 0xff;
    std::fs::write(&flipped, &bytes).unwrap();
    let out = quasar()
        .args(["lint", flipped.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("checksum mismatch"), "{err}");
    assert!(err.contains("hint:"), "{err}");
    let _ = std::fs::remove_file(&flipped);

    // The bare JSON payload, as builds before framed artifacts wrote a
    // model, is refused with a retrain hint: it is not damaged.
    let bare = tmp("corrupt-bare.json");
    let bytes = std::fs::read(&model).unwrap();
    let payload = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
    std::fs::write(&bare, &bytes[payload..]).unwrap();
    let out = quasar()
        .args(["serve", bare.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("at byte 0"), "{err}");
    assert!(
        err.contains("quasar train"),
        "must hint at retraining: {err}"
    );
    assert!(
        !err.contains("damaged"),
        "a bare model is not damaged: {err}"
    );
    let _ = std::fs::remove_file(&bare);

    // Truncate the framed artifact mid-payload.
    std::fs::write(&model, &bytes[..bytes.len() / 3]).unwrap();

    let out = quasar()
        .args(["serve", model.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success(), "serve must refuse a corrupt model");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("byte"), "must name the byte offset: {err}");
    assert!(
        err.contains("--checkpoint-dir") && err.contains("--resume"),
        "must hint at checkpoint recovery: {err}"
    );

    let _ = std::fs::remove_file(&feeds);
    let _ = std::fs::remove_file(PathBuf::from(format!("{}.updates.mrt", feeds.display())));
    let _ = std::fs::remove_file(&model);
}

/// A `quasar serve` child process, killed when dropped so a failing
/// assertion cannot leak it.
struct Server(Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn health_exit_codes_follow_the_readiness_contract() {
    // Nothing listens on the discard port: unreachable is exit 3.
    let out = run(&["health", "127.0.0.1:9"]);
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    // `health` prints the `metrics` reply, so the retired stream-status
    // subcommand is an unknown one (its name is assembled so that a
    // search for leftovers of it finds only this check).
    let out = run(&[concat!("stream", "-stats"), "X"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");

    // A live two-shard server answers with one JSON line.
    let model = tmp("health.model");
    save_model(&model, &toy_model()).unwrap();
    let mut server = Server(
        quasar()
            .args(["serve", model.to_str().unwrap(), "--shards", "2"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("binary runs"),
    );
    let mut addr_line = String::new();
    BufReader::new(server.0.stdout.take().unwrap())
        .read_line(&mut addr_line)
        .unwrap();
    let addr = addr_line
        .trim()
        .strip_prefix("quasar-serve listening on ")
        .unwrap_or_else(|| panic!("unexpected address line: {addr_line:?}"));
    let out = run(&["health", addr]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(stdout.lines().count(), 1, "{stdout}");
    assert!(stdout.contains(r#""generation":0"#), "{stdout}");
    let metrics: MetricsSnapshot = serde_json::from_str(stdout.trim()).unwrap();
    assert_eq!(metrics.shards.len(), 2, "{stdout}");
    drop(server);
    let _ = std::fs::remove_file(&model);
}

#[test]
fn retired_scale_aliases_are_usage_errors() {
    // Each preset has one name; `default` and `paper` were former
    // spellings of `small` and `medium`.
    for alias in ["paper", "default"] {
        let feeds = tmp(&format!("alias-{alias}.mrt"));
        let out = quasar()
            .args(["generate", "--out", feeds.to_str().unwrap()])
            .args(["--scale", alias])
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "--scale {alias}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("bad --scale"), "{stderr}");
        assert!(!feeds.exists(), "--scale {alias} must write nothing");
    }
}

#[test]
fn repro_exits_1_when_a_csv_file_cannot_be_written() {
    // A file where the CSV directory should be: the run must not report
    // success after failing to write its plot data.
    let not_a_dir = tmp("repro-csv-not-a-dir");
    std::fs::write(&not_a_dir, b"").unwrap();
    let out = run(&[
        "repro",
        "--exp",
        "fig2",
        "--scale",
        "tiny",
        "--csv",
        not_a_dir.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error: cannot write"), "{stderr}");
    assert!(stderr.contains("fig2.csv"), "{stderr}");
    let _ = std::fs::remove_file(&not_a_dir);
}

/// `quasar train` audits the artifact it writes exactly once, fresh or
/// resumed; the training recipe itself audits nothing, so `repro`'s
/// trainings log no audit.
#[test]
fn train_audits_what_it_writes_and_repro_does_not() {
    let audit_lines = |out: &std::process::Output| -> Vec<String> {
        String::from_utf8_lossy(&out.stderr)
            .lines()
            .filter(|l| l.starts_with("audit ["))
            .map(str::to_owned)
            .collect()
    };
    let model = tmp("audit.model");
    let ckpt = tmp("audit-ckpt");
    let _ = std::fs::remove_dir_all(&ckpt);
    let path = model.to_str().unwrap();
    let fresh = run(&["train", "--scale", "tiny", "--out", path]);
    assert!(fresh.status.success(), "{fresh:?}");
    assert_eq!(audit_lines(&fresh), ["audit [post-train]: clean"]);
    let dir = ckpt.to_str().unwrap();
    let resumed = run(&[
        "train",
        "--scale",
        "tiny",
        "--out",
        path,
        "--checkpoint-dir",
        dir,
        "--resume",
    ]);
    assert!(resumed.status.success(), "{resumed:?}");
    assert_eq!(audit_lines(&resumed), ["audit [post-train]: clean"]);

    let repro = run(&["repro", "--exp", "train", "--scale", "tiny"]);
    assert!(repro.status.success(), "{repro:?}");
    assert_eq!(audit_lines(&repro), Vec::<String>::new());
    let _ = std::fs::remove_file(&model);
    let _ = std::fs::remove_dir_all(&ckpt);
}

/// The parts of a `lint`/`sast --json` report these tests read.
#[derive(serde::Deserialize)]
struct JsonReport {
    errors: usize,
    diagnostics: Vec<JsonFinding>,
}

#[derive(serde::Deserialize)]
struct JsonFinding {
    rule: String,
    file: String,
    line: u32,
}

fn run(args: &[&str]) -> std::process::Output {
    quasar().args(args).output().expect("binary runs")
}

/// Trains the seed-13 `tiny` model through the CLI and saves one copy
/// per defect class with that defect injected; returns the clean path
/// and the defective ones.
fn lint_models(tag: &str, defects: &[DefectClass]) -> (PathBuf, Vec<PathBuf>) {
    let clean = tmp(&format!("{tag}-clean.model"));
    let path = clean.to_str().unwrap();
    let out = run(&["train", "--scale", "tiny", "--seed", "13", "--out", path]);
    assert!(out.status.success(), "{out:?}");
    let broken = defects
        .iter()
        .map(|class| {
            let mut model = load_model(&clean).unwrap();
            class.inject(&mut model, 13).unwrap();
            let p = tmp(&format!("{tag}-{class:?}.model"));
            save_model(&p, &model).unwrap();
            p
        })
        .collect();
    (clean, broken)
}

#[test]
fn lint_accepts_json_before_the_model_path() {
    let (model, _) = lint_models("json-first", &[]);
    let out = run(&["lint", "--json", model.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let report: JsonReport = serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).unwrap();
    assert_eq!(report.errors, 0);
    let _ = std::fs::remove_file(&model);
}

#[test]
fn lint_rejects_unknown_flags_and_a_bare_deny() {
    let (model, _) = lint_models("strict", &[]);
    let path = model.to_str().unwrap();
    for args in [
        vec!["lint", path, "--dny", "warn"],
        vec!["lint", path, "--deny"],
        vec!["lint", path, path],
    ] {
        assert_eq!(run(&args).status.code(), Some(2), "{args:?}");
    }
    let _ = std::fs::remove_file(&model);
}

#[test]
fn sast_rejects_a_positional_argument() {
    let out = run(&["sast", "--json", "extra"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn repository_passes_its_own_source_audit() {
    let root = env!("CARGO_MANIFEST_DIR");
    let out = run(&["sast", "--root", root, "--deny", "error"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

#[test]
fn lint_exit_codes_follow_the_deny_threshold() {
    // QL0004 is Warn-level, QL0001 Error-level.
    let (clean, broken) = lint_models(
        "deny",
        &[DefectClass::DeadFilter, DefectClass::DanglingPrefixRanking],
    );
    let code = |model: &PathBuf, extra: &[&str]| {
        let mut args = vec!["lint", model.to_str().unwrap()];
        args.extend_from_slice(extra);
        run(&args).status.code()
    };
    assert_eq!(code(&clean, &[]), Some(0));
    assert_eq!(code(&clean, &["--deny", "warn"]), Some(0));
    assert_eq!(code(&broken[0], &[]), Some(0));
    assert_eq!(code(&broken[0], &["--deny", "warn"]), Some(1));
    assert_eq!(code(&broken[1], &[]), Some(1));
    assert_eq!(code(&clean, &["--deny", "info"]), Some(2));
    for p in std::iter::once(&clean).chain(&broken) {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn sast_fails_on_a_tree_with_a_finding() {
    let root = tmp("sast-tree");
    let src = root.join("crates/fx/src");
    std::fs::create_dir_all(&src).unwrap();
    std::fs::write(
        src.join("lib.rs"),
        "pub fn quit() {\n    std::process::exit(3);\n}\n",
    )
    .unwrap();
    let dir = root.to_str().unwrap();
    assert_eq!(run(&["sast", "--root", dir]).status.code(), Some(1));
    let out = run(&["sast", "--root", dir, "--json"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let report: JsonReport = serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).unwrap();
    assert_eq!(report.errors, 1);
    let finding = &report.diagnostics[0];
    assert_eq!(finding.rule, "QS0005");
    assert_eq!(finding.file, "crates/fx/src/lib.rs");
    assert_eq!(finding.line, 2);
    let _ = std::fs::remove_dir_all(&root);
}

/// The subcommand names in the usage text `quasar` prints with no
/// arguments (one synopsis line per form).
fn subcommands() -> Vec<String> {
    let out = run(&[]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let mut names: Vec<String> = String::from_utf8_lossy(&out.stderr)
        .lines()
        .filter_map(|l| {
            l.split_once("quasar ")?
                .1
                .split(' ')
                .next()
                .map(String::from)
        })
        .collect();
    names.dedup();
    names
}

#[test]
fn every_subcommand_rejects_bad_arguments_before_touching_files() {
    let file = tmp("strict.out");
    let f = file.to_str().unwrap();
    let second = tmp("strict-second.out");
    let g = second.to_str().unwrap();
    let unknown: &[&[&str]] = &[
        &["generate", "--out", f],
        &["train", "--scale", "tiny", "--out", f],
        &["analyze", f],
        &["predict", f],
        &[
            "predict",
            "--model",
            f,
            "--prefix",
            "0.0.80.0/24",
            "--observer",
            "1",
        ],
        &["diagnose", f],
        &["stable", f],
        &["whatif", "--model", f, "--depeer", "1:2"],
        &["serve", f],
        &["query", "127.0.0.1:9", r#"{"type":"stats"}"#],
        &["health", "127.0.0.1:9"],
        &["stream", "--updates", f, "--model", f],
        &["lint", f],
        &["sast"],
        &["repro", "--exp", "fig2", "--scale", "tiny", "--csv", f],
    ];
    let covered: Vec<&str> = unknown.iter().map(|args| args[0]).collect();
    for name in subcommands() {
        assert!(covered.contains(&name.as_str()), "no case for `{name}`");
    }
    for args in unknown {
        let out = run(&[args, &["--no-such-flag"][..]].concat());
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--no-such-flag"), "{args:?}: {stderr}");
    }
    for args in [
        // a misspelled flag (`--thread` for `--threads`)
        &["train", "--scale", "tiny", "--thread", "1", "--out", f][..],
        // an unparsable value
        &["generate", "--out", f, "--seed", "abc"],
        &["serve", f, "--workers", "two"],
        // a flag of the other form
        &["predict", f, "--prefix", "0.0.80.0/24"],
        &["whatif", f, "--model", f, "--depeer", "1:2"],
        &["train", f, "--seed", "3", "--out", f],
        // a value flag given last with no value
        &["generate", "--out", f, "--seed"],
        &["repro", "--scale", "huge", "--csv", f],
        &["repro", "--exp", "t0,nosuch", "--csv", f],
        // a value flag given twice
        &["generate", "--out", f, "--out", g, "--scale", "tiny"],
        &[
            "repro", "--seed", "1", "--seed", "2", "--scale", "tiny", "--csv", f,
        ],
        // a stray or missing positional
        &["analyze", f, f],
        &["query", "127.0.0.1:9"],
        &["serve"],
    ] {
        assert_eq!(run(args).status.code(), Some(2), "{args:?}");
    }
    assert!(
        !file.exists() && !second.exists(),
        "a usage error must touch no file"
    );
}
