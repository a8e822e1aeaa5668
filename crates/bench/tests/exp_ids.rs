//! The experiment ids the documents name must be ids `repro` accepts, and
//! an id it does not know must be a usage error.

use quasar_bench::EXPERIMENT_IDS;
use std::path::PathBuf;
use std::process::Command;

/// The documents that quote `repro --exp ID` command lines.
const DOCS: &[&str] = &[
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "results/README.md",
];

/// Every comma-separated id following `repro --exp ` in `text`.
fn quoted_ids(text: &str) -> impl Iterator<Item = &str> {
    text.match_indices("repro --exp ").flat_map(|(at, needle)| {
        let rest = &text[at + needle.len()..];
        let end = rest
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-' || c == ','))
            .unwrap_or(rest.len());
        rest[..end].split(',').filter(|id| !id.is_empty())
    })
}

#[test]
fn every_documented_experiment_id_is_accepted() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut quoted = 0;
    let mut unknown = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc))
            .unwrap_or_else(|e| panic!("cannot read {doc}: {e}"));
        for id in quoted_ids(&text) {
            quoted += 1;
            if id != "all" && !EXPERIMENT_IDS.contains(&id) {
                unknown.push(format!("{doc}: repro --exp {id}"));
            }
        }
    }
    assert!(
        quoted > 0,
        "no `repro --exp` command line found in {DOCS:?}"
    );
    assert!(unknown.is_empty(), "ids repro rejects: {unknown:#?}");
}

#[test]
fn unknown_experiment_id_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--exp", "t0,atoms", "--scale", "tiny"])
        .output()
        .expect("repro starts");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown experiment \"atoms\""));
}
