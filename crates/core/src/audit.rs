//! Post-training audit hook.
//!
//! The static analyzer lives in `quasar-lint`, which depends on this crate
//! — so `refine` cannot call it directly. Instead the binary (or any other
//! top-level consumer) installs an auditor function here once at startup,
//! and the training recipe ([`crate::train()`]) runs it on every model it
//! produces, logging findings without ever invoking the simulator.

use crate::model::AsRoutingModel;
use std::sync::OnceLock;

/// Severity tallies plus a pre-rendered summary, as returned by an
/// installed auditor.
#[derive(Debug, Clone, Default)]
pub struct AuditSummary {
    /// Findings that make the model unsound (dangling references,
    /// duplicated rankings, reflector cycles, ...).
    pub errors: usize,
    /// Findings that are suspicious but not disqualifying.
    pub warnings: usize,
    /// Advisory findings.
    pub infos: usize,
    /// Human-readable rendering of the findings, one per line.
    pub rendered: String,
}

impl AuditSummary {
    /// True when the audit produced no findings at any severity.
    pub fn is_clean(&self) -> bool {
        self.errors == 0 && self.warnings == 0 && self.infos == 0
    }

    /// One-line tally, e.g. `1 error(s), 2 warning(s), 0 info(s)`.
    pub fn tally(&self) -> String {
        format!(
            "{} error(s), {} warning(s), {} info(s)",
            self.errors, self.warnings, self.infos
        )
    }
}

/// An installed model auditor.
pub type Auditor = fn(&AsRoutingModel) -> AuditSummary;

static AUDITOR: OnceLock<Auditor> = OnceLock::new();

/// Installs the process-wide auditor. The first installation wins; later
/// calls are no-ops, so concurrent tests can install it racily.
pub fn install_auditor(f: Auditor) {
    let _ = AUDITOR.set(f);
}

/// True when an auditor has been installed.
pub fn auditor_installed() -> bool {
    AUDITOR.get().is_some()
}

/// Runs the installed auditor, or `None` when none is installed.
pub fn run(model: &AsRoutingModel) -> Option<AuditSummary> {
    AUDITOR.get().map(|f| f(model))
}

/// Audits `model` and logs the outcome to stderr, prefixed with
/// `context` (e.g. `post-train`): one `clean`
/// line when there are no findings, the tally plus one line per finding
/// otherwise. Silent only when no auditor is installed.
pub(crate) fn log_audit(context: &str, model: &AsRoutingModel) {
    let Some(summary) = run(model) else {
        return;
    };
    if summary.is_clean() {
        eprintln!("audit [{context}]: clean");
        return;
    }
    eprintln!("audit [{context}]: {}", summary.tally());
    for line in summary.rendered.lines() {
        eprintln!("audit [{context}]:   {line}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_tally_and_cleanliness() {
        let clean = AuditSummary::default();
        assert!(clean.is_clean());
        let dirty = AuditSummary {
            errors: 1,
            warnings: 2,
            infos: 0,
            rendered: String::new(),
        };
        assert!(!dirty.is_clean());
        assert_eq!(dirty.tally(), "1 error(s), 2 warning(s), 0 info(s)");
    }

    #[test]
    fn install_is_first_wins_and_run_uses_it() {
        fn fake(_: &AsRoutingModel) -> AuditSummary {
            AuditSummary {
                errors: 7,
                ..AuditSummary::default()
            }
        }
        install_auditor(fake);
        assert!(auditor_installed());
        install_auditor(|_| AuditSummary::default()); // ignored: first wins
        let graph = quasar_topology::graph::AsGraph::default();
        let model = AsRoutingModel::initial(&graph, &std::collections::BTreeMap::new());
        let summary = run(&model).expect("auditor installed");
        assert_eq!(summary.errors, 7);
    }
}
