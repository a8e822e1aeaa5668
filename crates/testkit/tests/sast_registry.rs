//! Regression lock between the chaos suites and the analyzer's failpoint
//! registry: every name the big fault-injection tests arm or clear must
//! resolve to a real inject site somewhere in the workspace. This is the
//! same reconciliation `quasar sast` (QS0003) performs over the whole
//! repo, pinned here to the two suites that drive failpoint drills so a
//! renamed site breaks loudly in the testkit job too.

use quasar_lint::source::collect_workspace;
use quasar_lint::source::lexer::lex;
use quasar_lint::source::rules::failpoints::{patterns_overlap, refs_in, sites_in, FailName};
use std::path::Path;

fn workspace_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every inject site in the workspace, extracted exactly as QS0003 does.
fn registry() -> Vec<FailName> {
    let files = collect_workspace(&workspace_root()).expect("walk workspace");
    let mut sites = Vec::new();
    for f in &files {
        sites.extend(sites_in(f, &lex(&f.text)));
    }
    assert!(
        !sites.is_empty(),
        "the workspace defines failpoint sites; extraction must find them"
    );
    sites
}

#[test]
fn chaos_suite_failpoint_refs_are_a_subset_of_the_registry() {
    let sites = registry();
    let files = collect_workspace(&workspace_root()).expect("walk workspace");
    let suites = [
        "crates/testkit/tests/streaming_failpoints.rs",
        "crates/testkit/tests/shard_chaos.rs",
    ];
    for suite in suites {
        let file = files
            .iter()
            .find(|f| f.path == suite)
            .unwrap_or_else(|| panic!("suite {suite} must exist in the workspace walk"));
        let refs = refs_in(file, &lex(&file.text), false);
        assert!(
            !refs.is_empty(),
            "{suite} is a fault-injection suite; it must reference failpoints"
        );
        for r in &refs {
            assert!(
                sites
                    .iter()
                    .any(|s| patterns_overlap(&s.pattern, &r.pattern)),
                "{}:{} arms `{}` but no inject site in the workspace defines it",
                r.file,
                r.line,
                r.pattern
            );
        }
    }
}

#[test]
fn registry_covers_the_documented_subsystems() {
    // The registry spans persistence, refinement, serving, and streaming;
    // a refactor that silently drops a whole subsystem's instrumentation
    // should fail here before the chaos suites start passing vacuously.
    let sites = registry();
    for prefix in ["persist.", "refine.", "serve.", "stream."] {
        assert!(
            sites.iter().any(|s| s.pattern.starts_with(prefix)),
            "no inject site under `{prefix}*` — did a subsystem lose its instrumentation?"
        );
    }
}
