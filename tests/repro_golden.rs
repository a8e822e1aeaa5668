//! Golden snapshot tests for `quasar repro`: the paper-table output for
//! a fixed seed at tiny scale is pinned byte-for-byte under
//! `tests/golden/`. Any change to the numbers — an engine tweak, a
//! refinement reordering, an RNG drift — shows up as a readable diff
//! here instead of silently rewriting the paper's tables.
//!
//! To bless intentional changes:
//! `UPDATE_GOLDEN=1 cargo test --test repro_golden`

use quasar::repro::EXPERIMENT_IDS;
use std::path::PathBuf;
use std::process::Command;

/// The pinned invocation: default seed, tiny scale.
const SEED: &str = "20051113";
const SCALE: &str = "tiny";

/// Experiments with a checked-in snapshot: every id but `scale`, whose
/// output carries wall-clock timings. All of them together run in a few
/// seconds at tiny scale, in debug.
fn experiments() -> impl Iterator<Item = &'static str> {
    EXPERIMENT_IDS.iter().copied().filter(|&id| id != "scale")
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn repro() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_quasar"));
    cmd.arg("repro");
    cmd
}

/// Runs `quasar repro --exp <exp>` and returns its stdout. Stderr carries
/// timing chatter and is intentionally not part of the snapshot.
fn run_repro(exp: &str) -> String {
    let out = repro()
        .args(["--exp", exp, "--scale", SCALE, "--seed", SEED])
        .output()
        .unwrap_or_else(|e| panic!("failed to launch repro for {exp}: {e}"));
    assert!(
        out.status.success(),
        "repro --exp {exp} exited with {:?}\nstderr:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("repro output is UTF-8")
}

/// First line where two snapshots differ, for a readable failure.
fn first_diff_line(want: &str, got: &str) -> String {
    for (i, (w, g)) in want.lines().zip(got.lines()).enumerate() {
        if w != g {
            return format!("line {}:\n  golden: {w}\n  actual: {g}", i + 1);
        }
    }
    format!(
        "line counts differ: golden {} vs actual {}",
        want.lines().count(),
        got.lines().count()
    )
}

fn check_golden(exp: &str) {
    let got = run_repro(exp);
    let path = golden_dir().join(format!("{exp}.txt"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &got).unwrap_or_else(|e| panic!("write {path:?}: {e}"));
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {path:?} ({e}); \
             regenerate with UPDATE_GOLDEN=1 cargo test --test repro_golden"
        )
    });
    assert!(
        want == got,
        "repro --exp {exp} --scale {SCALE} --seed {SEED} diverged from {path:?}\n{}\n\
         If the change is intentional, bless it with UPDATE_GOLDEN=1.",
        first_diff_line(&want, &got)
    );
}

#[test]
fn every_experiment_matches_its_snapshot() {
    for exp in experiments() {
        check_golden(exp);
    }
}

#[test]
fn golden_set_is_complete() {
    // Every experiment listed above has a fixture, and every fixture
    // corresponds to a listed experiment — no orphans either way.
    let dir = golden_dir();
    let mut on_disk: Vec<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("golden dir {dir:?} missing: {e}"))
        .filter_map(|e| {
            let name = e.ok()?.file_name().into_string().ok()?;
            name.strip_suffix(".txt").map(str::to_string)
        })
        .collect();
    on_disk.sort();
    let mut listed: Vec<String> = experiments().map(String::from).collect();
    listed.sort();
    assert_eq!(
        on_disk, listed,
        "golden fixtures out of sync with the experiment ids"
    );
}

#[test]
fn counts_with_an_unparsable_entry_is_a_usage_error() {
    // `--counts` feeds the density sweep; a bad entry must stop the run
    // before any work, not shrink the sweep to the entries that parse.
    let out = repro()
        .args(["--exp", "density", "--scale", SCALE, "--counts", "4,x,8"])
        .output()
        .expect("launch repro");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bad --counts"), "{stderr}");
    assert!(out.stdout.is_empty(), "no experiment may run: {out:?}");
}

#[test]
fn an_unknown_experiment_id_is_a_usage_error() {
    // A typo in an id must not read as a successful run of nothing.
    let out = repro()
        .args(["--exp", "t0,nosuch", "--scale", SCALE])
        .output()
        .expect("launch repro");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown experiment \"nosuch\""), "{stderr}");
    assert!(stderr.contains("t0|fig2|t1"), "known ids listed: {stderr}");
    assert!(out.stdout.is_empty(), "no experiment may run: {out:?}");
}
