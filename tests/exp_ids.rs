//! The experiment ids the documents name must be ids `quasar repro`
//! accepts (an id it does not know is a usage error, which
//! `tests/repro_golden.rs` checks).

use quasar::repro::EXPERIMENT_IDS;
use std::path::PathBuf;

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
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
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
