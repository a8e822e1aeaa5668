//! # quasar-lint — static analysis for trained models and for the sources
//!
//! The refinement heuristic of *"Building an AS-topology model that
//! captures route diversity"* (SIGCOMM 2006) mutates a model thousands of
//! times: per-prefix MED rankings, shorter-path egress filters,
//! quasi-router duplication. Any bug in that pipeline — or any corruption
//! of a persisted artifact — produces a model that is *structurally*
//! wrong long before a simulation reveals it behaviorally. [`audit`]
//! checks an [`AsRoutingModel`] **without running the simulator**: every
//! model rule is a pure walk over routers, sessions, and policy chains.
//!
//! The [`source`] rule set audits the workspace's own Rust sources the
//! same way: lexically, with a hand-rolled lexer, for the concurrency and
//! protocol invariants DESIGN.md documents. Both rule sets report through
//! one diagnostics core: [`Severity`], [`Diagnostic`] (anchored at a
//! model [`Location`] or a `file:line:col` span) and [`Report`].
//!
//! ## Model rules
//!
//! | id     | name                 | severity | what it catches |
//! |--------|----------------------|----------|-----------------|
//! | QL0001 | dangling-prefix      | Error    | a filter or MED ranking names a prefix the model does not route |
//! | QL0002 | dangling-as          | Error    | a matcher names an AS with no quasi-router |
//! | QL0003 | unreachable-router   | Warn     | a quasi-router with no sessions that originates nothing |
//! | QL0004 | dead-filter          | Warn     | a rule that can never match any route on its chain |
//! | QL0005 | shadowed-rule        | Warn     | a rule fully subsumed by an earlier terminal rule |
//! | QL0006 | med-contradiction    | Error/Warn | duplicated (Error), non-total or preferring-nothing (Warn) per-prefix MED rankings |
//! | QL0007 | dispute-cycle        | Warn     | a cycle in the per-prefix local-pref dispute digraph |
//! | QL0008 | reflector-cycle      | Error    | a cycle in the route-reflection client digraph (CLUSTER_LIST is not modeled) |
//! | QL0009 | coverage-gap         | Info     | a prefix that cannot leave its origin AS through any permitted egress |
//!
//! ## Source rules
//!
//! | id     | name                     | severity |
//! |--------|--------------------------|----------|
//! | QS0001 | lock-order               | error    |
//! | QS0002 | atomic-ordering          | error (warn for an empty justification) |
//! | QS0003 | failpoint-registry       | error    |
//! | QS0004 | protocol-exhaustiveness  | error    |
//! | QS0005 | process-exit             | error    |
//! | QS0006 | println-in-library       | error    |
//! | QS0007 | unsafe-code              | error    |
//!
//! Severity semantics: **Error** findings make the model (or the source
//! tree) unsound — the serve `reload` path vetoes an epoch swap on them;
//! **Warn** findings are suspicious but a converged model can
//! legitimately carry them; **Info** findings are advisory (the model is
//! relationship-agnostic, so a coverage gap may be intentional).
//!
//! A freshly refined, converged model is clean at `Error` severity by
//! construction: refinement installs exactly one `SetMed` per
//! (session, prefix), references only prefixes it routes, never touches
//! `from_asn`/`origin_asn`/local-pref matchers, and builds no iBGP
//! sessions at all.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must surface failures as typed errors (or `expect` with an
// invariant message, annotated at the use site); unit tests are exempt.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

use quasar_core::model::AsRoutingModel;
use serde::{Serialize, Serializer};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

mod rules;
pub mod source;

/// How bad a finding is. Ordered: `Info < Warn < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory; expected on some legitimate models.
    Info,
    /// Suspicious; worth a look but not disqualifying.
    Warn,
    /// The model or source tree is unsound; shipping it is a bug.
    Error,
}

impl Severity {
    /// Lowercase name as used by `--deny` and the JSON renderer.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }

    /// Parses `info`/`warn`/`error` (as accepted by `--deny`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "info" => Some(Severity::Info),
            "warn" => Some(Severity::Warn),
            "error" => Some(Severity::Error),
            _ => None,
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Stable identifiers of the model (`QL`) and source (`QS`) rules. Codes
/// are append-only: a rule may be retired but its code is never reused,
/// so CI logs and suppression comments stay meaningful across versions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// QL0001: a matcher or ranking names a prefix the model doesn't route.
    DanglingPrefix,
    /// QL0002: a matcher names an AS with no quasi-router.
    DanglingAs,
    /// QL0003: a session-less quasi-router that originates nothing.
    UnreachableRouter,
    /// QL0004: a rule that can never match a route on its chain.
    DeadFilter,
    /// QL0005: a rule fully subsumed by an earlier terminal rule.
    ShadowedRule,
    /// QL0006: duplicated / non-total / preferring-nothing MED rankings.
    MedContradiction,
    /// QL0007: a cycle in the per-prefix local-pref dispute digraph.
    DisputeCycle,
    /// QL0008: a cycle in the route-reflection client digraph.
    ReflectorCycle,
    /// QL0009: a prefix with no permitted egress out of its origin AS.
    CoverageGap,
    /// QS0001: locks acquired while another guard is live must follow the
    /// declared ascending-shard order; undeclared nesting is an error.
    LockOrder,
    /// QS0002: `Ordering::Relaxed` on a non-counter atomic needs a
    /// `// sast: relaxed-ok <reason>` justification.
    AtomicOrdering,
    /// QS0003: every failpoint name armed in tests exists at an inject
    /// site and every inject site is armed somewhere — no dead or
    /// misspelled sites.
    FailpointRegistry,
    /// QS0004: every serve `Request` variant has a dispatch arm, a
    /// same-named `Response` variant that is actually rendered, and a
    /// metrics kind.
    ProtocolExhaustiveness,
    /// QS0005: `process::exit` outside `src/bin` trees.
    ProcessExit,
    /// QS0006: `println!` in library crates (stdout belongs to binaries).
    PrintlnInLibrary,
    /// QS0007: `unsafe` in library code (the bench counting allocator
    /// lives in a binary tree and is exempt by classification).
    UnsafeCode,
}

impl RuleId {
    /// The stable code, e.g. `QL0004`.
    pub fn code(self) -> &'static str {
        match self {
            RuleId::DanglingPrefix => "QL0001",
            RuleId::DanglingAs => "QL0002",
            RuleId::UnreachableRouter => "QL0003",
            RuleId::DeadFilter => "QL0004",
            RuleId::ShadowedRule => "QL0005",
            RuleId::MedContradiction => "QL0006",
            RuleId::DisputeCycle => "QL0007",
            RuleId::ReflectorCycle => "QL0008",
            RuleId::CoverageGap => "QL0009",
            RuleId::LockOrder => "QS0001",
            RuleId::AtomicOrdering => "QS0002",
            RuleId::FailpointRegistry => "QS0003",
            RuleId::ProtocolExhaustiveness => "QS0004",
            RuleId::ProcessExit => "QS0005",
            RuleId::PrintlnInLibrary => "QS0006",
            RuleId::UnsafeCode => "QS0007",
        }
    }

    /// Short kebab-case name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            RuleId::DanglingPrefix => "dangling-prefix",
            RuleId::DanglingAs => "dangling-as",
            RuleId::UnreachableRouter => "unreachable-router",
            RuleId::DeadFilter => "dead-filter",
            RuleId::ShadowedRule => "shadowed-rule",
            RuleId::MedContradiction => "med-contradiction",
            RuleId::DisputeCycle => "dispute-cycle",
            RuleId::ReflectorCycle => "reflector-cycle",
            RuleId::CoverageGap => "coverage-gap",
            RuleId::LockOrder => "lock-order",
            RuleId::AtomicOrdering => "atomic-ordering",
            RuleId::FailpointRegistry => "failpoint-registry",
            RuleId::ProtocolExhaustiveness => "protocol-exhaustiveness",
            RuleId::ProcessExit => "process-exit",
            RuleId::PrintlnInLibrary => "println-in-library",
            RuleId::UnsafeCode => "unsafe-code",
        }
    }
}

/// Where in the model a finding points. All fields optional; rendered as
/// a compact `r1.0 -> r2.0 export[3] prefix 10.9.0.0/16` suffix.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub struct ModelLocation {
    /// The quasi-router the finding is about (e.g. `r7018.0`).
    pub router: Option<String>,
    /// The session direction, announcing router first (`r1.0 -> r2.0`).
    pub session: Option<String>,
    /// Which chain of the direction: `export` or `import`.
    pub chain: Option<String>,
    /// Zero-based rule index within the chain.
    pub rule_index: Option<usize>,
    /// The prefix the finding is scoped to.
    pub prefix: Option<String>,
}

impl fmt::Display for ModelLocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts: Vec<String> = Vec::new();
        if let Some(r) = &self.router {
            parts.push(r.clone());
        }
        if let Some(s) = &self.session {
            parts.push(s.clone());
        }
        match (&self.chain, self.rule_index) {
            (Some(c), Some(i)) => parts.push(format!("{c}[{i}]")),
            (Some(c), None) => parts.push(c.clone()),
            (None, Some(i)) => parts.push(format!("rule[{i}]")),
            (None, None) => {}
        }
        if let Some(p) = &self.prefix {
            parts.push(format!("prefix {p}"));
        }
        f.write_str(&parts.join(" "))
    }
}

/// Where a finding points: a place in a trained model, or a span in a
/// source file. Spans order by file, then line, then column.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Location {
    /// A place in the audited model.
    Model(ModelLocation),
    /// A `file:line:col` span in a source file.
    Span {
        /// Workspace-relative, `/`-separated path.
        file: String,
        /// 1-based line.
        line: u32,
        /// 1-based column.
        col: u32,
    },
}

/// One finding: a rule, its severity, a message, and where it points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which rule fired.
    pub rule: RuleId,
    /// How bad it is.
    pub severity: Severity,
    /// Human-readable description of the defect.
    pub message: String,
    /// Where it sits.
    pub location: Location,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (sev, code, msg) = (self.severity, self.rule.code(), &self.message);
        match &self.location {
            Location::Span { file, line, col } => {
                write!(f, "{sev}[{code}] {file}:{line}:{col}: {msg}")
            }
            Location::Model(at) => {
                let loc = at.to_string();
                if loc.is_empty() {
                    write!(f, "{sev}[{code}]: {msg}")
                } else {
                    write!(f, "{sev}[{code}]: {msg} ({loc})")
                }
            }
        }
    }
}

impl Serialize for Diagnostic {
    fn serialize(&self, s: &mut Serializer) {
        s.begin_map();
        s.field("rule", self.rule.code());
        s.field("name", self.rule.name());
        s.field("severity", self.severity.as_str());
        match &self.location {
            Location::Model(at) => {
                s.field("message", &self.message);
                s.field("location", at);
            }
            Location::Span { file, line, col } => {
                s.field("file", file);
                s.field("line", line);
                s.field("col", col);
                s.field("message", &self.message);
            }
        }
        s.end_map();
    }
}

/// What one pass examined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scanned {
    /// A trained model, by size.
    Model {
        /// Quasi-routers in the audited model.
        quasi_routers: usize,
        /// Sessions in the audited model.
        sessions: usize,
        /// Prefixes the model routes.
        prefixes: usize,
        /// Policy rules examined across every chain.
        rules_scanned: usize,
    },
    /// Source files.
    Source {
        /// Files analyzed.
        files: usize,
    },
}

/// The result of one pass: every finding plus what was scanned.
#[derive(Debug, Clone)]
pub struct Report {
    /// All findings: model findings in rule-code order, source findings
    /// in span order.
    pub diagnostics: Vec<Diagnostic>,
    /// What the pass examined.
    pub scanned: Scanned,
    /// Wall time of the pass, microseconds.
    pub elapsed_micros: u64,
}

impl Report {
    fn count(&self, sev: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == sev)
            .count()
    }

    /// Error-level findings.
    pub fn errors(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Warn-level findings.
    pub fn warnings(&self) -> usize {
        self.count(Severity::Warn)
    }

    /// Info-level findings.
    pub fn infos(&self) -> usize {
        self.count(Severity::Info)
    }

    /// True when any finding is at or above `threshold` (the `--deny`
    /// semantics; the CLI maps it to exit code 1).
    pub fn denies(&self, threshold: Severity) -> bool {
        self.diagnostics.iter().any(|d| d.severity >= threshold)
    }

    /// Per-rule counts: code → (rule, worst severity, findings).
    fn per_rule(&self) -> BTreeMap<&'static str, (RuleId, Severity, usize)> {
        let mut out: BTreeMap<&'static str, (RuleId, Severity, usize)> = BTreeMap::new();
        for d in &self.diagnostics {
            let entry = out.entry(d.rule.code()).or_insert((d.rule, d.severity, 0));
            entry.1 = entry.1.max(d.severity);
            entry.2 += 1;
        }
        out
    }

    /// The distinct rule codes that fired (for tests and terse summaries).
    pub fn fired_codes(&self) -> BTreeSet<&'static str> {
        self.diagnostics.iter().map(|d| d.rule.code()).collect()
    }

    /// One line summarizing Error-level findings — the serve `reload`
    /// veto message. Empty string when there are none.
    pub fn error_summary(&self) -> String {
        let errors: Vec<&Diagnostic> = self
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        let Some(first) = errors.first() else {
            return String::new();
        };
        let mut codes: Vec<&'static str> = Vec::new();
        for d in &errors {
            if !codes.contains(&d.rule.code()) {
                codes.push(d.rule.code());
            }
        }
        format!(
            "{} error-level audit finding(s) [{}]; first: {first}",
            errors.len(),
            codes.join(", "),
        )
    }

    /// Human-readable rendering. A model report is a header, per-rule
    /// counts, then every finding; a source report is every finding, then
    /// a summary footer.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        if let Scanned::Model {
            quasi_routers,
            sessions,
            prefixes,
            rules_scanned,
        } = self.scanned
        {
            out.push_str(&format!(
                "audit: {} finding(s) ({} error, {} warn, {} info) — {quasi_routers} quasi-routers, \
                 {sessions} sessions, {prefixes} prefixes, {rules_scanned} policy rules scanned in {}us\n",
                self.diagnostics.len(),
                self.errors(),
                self.warnings(),
                self.infos(),
                self.elapsed_micros,
            ));
            if self.diagnostics.is_empty() {
                out.push_str("clean: no findings\n");
                return out;
            }
            for (code, (rule, worst, count)) in self.per_rule() {
                out.push_str(&format!(
                    "  {code} {:<20} {count} finding(s), worst {worst}\n",
                    rule.name()
                ));
            }
        }
        for d in &self.diagnostics {
            out.push_str(&format!("{d}\n"));
        }
        if let Scanned::Source { files } = self.scanned {
            out.push_str(&format!(
                "sast: {files} file(s) scanned, {} error(s), {} warning(s)\n",
                self.errors(),
                self.warnings()
            ));
        }
        out
    }

    /// Machine-readable one-line JSON rendering.
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string(self)
    }
}

impl Serialize for Report {
    fn serialize(&self, s: &mut Serializer) {
        s.begin_map();
        match self.scanned {
            Scanned::Model {
                quasi_routers,
                sessions,
                prefixes,
                rules_scanned,
            } => {
                s.field("errors", &self.errors());
                s.field("warnings", &self.warnings());
                s.field("infos", &self.infos());
                s.field("quasi_routers", &quasi_routers);
                s.field("sessions", &sessions);
                s.field("prefixes", &prefixes);
                s.field("rules_scanned", &rules_scanned);
                s.field("elapsed_micros", &self.elapsed_micros);
                s.key("rules");
                s.begin_seq();
                for (code, (rule, worst, count)) in self.per_rule() {
                    s.elem();
                    s.begin_map();
                    s.field("rule", code);
                    s.field("name", rule.name());
                    s.field("worst", worst.as_str());
                    s.field("count", &count);
                    s.end_map();
                }
                s.end_seq();
            }
            Scanned::Source { files } => {
                s.field("files", &files);
                s.field("errors", &self.errors());
                s.field("warnings", &self.warnings());
            }
        }
        s.field("diagnostics", &self.diagnostics);
        s.end_map();
    }
}

/// Runs every model rule over `model` and returns the full report.
/// Purely static: no simulation is invoked, so runtime is linear-ish in
/// routers + sessions + policy rules (+ a BFS per deny-affected prefix).
pub fn audit(model: &AsRoutingModel) -> Report {
    let started = std::time::Instant::now();
    let mut report = rules::run_all(model);
    report.diagnostics.sort_by_key(|d| (d.rule, d.severity));
    report.elapsed_micros = started.elapsed().as_micros() as u64;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model_report(diagnostics: Vec<Diagnostic>) -> Report {
        Report {
            diagnostics,
            scanned: Scanned::Model {
                quasi_routers: 0,
                sessions: 0,
                prefixes: 0,
                rules_scanned: 0,
            },
            elapsed_micros: 0,
        }
    }

    #[test]
    fn severity_is_ordered_and_parses() {
        assert!(Severity::Info < Severity::Warn);
        assert!(Severity::Warn < Severity::Error);
        assert_eq!(Severity::parse("warn"), Some(Severity::Warn));
        assert_eq!(Severity::parse("ERROR"), None);
        assert_eq!(Severity::Error.as_str(), "error");
    }

    #[test]
    fn rule_codes_are_stable_and_unique() {
        use RuleId::*;
        let all = [
            DanglingPrefix,
            DanglingAs,
            UnreachableRouter,
            DeadFilter,
            ShadowedRule,
            MedContradiction,
            DisputeCycle,
            ReflectorCycle,
            CoverageGap,
            LockOrder,
            AtomicOrdering,
            FailpointRegistry,
            ProtocolExhaustiveness,
            ProcessExit,
            PrintlnInLibrary,
            UnsafeCode,
        ];
        let codes: BTreeSet<&str> = all.iter().map(|r| r.code()).collect();
        assert_eq!(codes.len(), all.len());
        assert_eq!(DanglingPrefix.code(), "QL0001");
        assert_eq!(CoverageGap.code(), "QL0009");
        assert_eq!(LockOrder.code(), "QS0001");
        assert_eq!(UnsafeCode.code(), "QS0007");
    }

    #[test]
    fn report_counts_and_deny_threshold() {
        let mut report = model_report(Vec::new());
        assert!(!report.denies(Severity::Info));
        report.diagnostics.push(Diagnostic {
            rule: RuleId::DeadFilter,
            severity: Severity::Warn,
            message: "x".into(),
            location: Location::Model(ModelLocation::default()),
        });
        assert!(report.denies(Severity::Warn));
        assert!(!report.denies(Severity::Error));
        assert_eq!(report.warnings(), 1);
        assert_eq!(report.fired_codes(), BTreeSet::from(["QL0004"]));
    }

    #[test]
    fn renderers_include_codes_and_locations() {
        let report = model_report(vec![Diagnostic {
            rule: RuleId::DanglingPrefix,
            severity: Severity::Error,
            message: "ranking names unrouted prefix".into(),
            location: Location::Model(ModelLocation {
                session: Some("r1.0 -> r2.0".into()),
                chain: Some("import".into()),
                rule_index: Some(3),
                prefix: Some("10.9.0.0/16".into()),
                ..ModelLocation::default()
            }),
        }]);
        let text = report.render_text();
        assert!(text.contains("QL0001"), "text: {text}");
        assert!(text.contains("import[3]"), "text: {text}");
        let json = report.to_json().expect("report serializes");
        assert!(json.contains("\"rule\":\"QL0001\""), "json: {json}");
        assert!(json.contains("\"severity\":\"error\""), "json: {json}");
        assert!(json.contains("\"errors\":1"), "json: {json}");
    }

    #[test]
    fn source_json_escapes_and_summarizes() {
        let report = Report {
            diagnostics: vec![Diagnostic {
                rule: RuleId::ProcessExit,
                severity: Severity::Error,
                message: "say \"no\"".into(),
                location: Location::Span {
                    file: "a.rs".into(),
                    line: 3,
                    col: 7,
                },
            }],
            scanned: Scanned::Source { files: 1 },
            elapsed_micros: 0,
        };
        let json = report.to_json().expect("report serializes");
        assert!(json.contains("\"rule\":\"QS0005\""));
        assert!(json.contains("say \\\"no\\\""));
        assert!(report.denies(Severity::Error));
        assert!(report.denies(Severity::Info));
        assert_eq!(report.errors(), 1);
    }

    #[test]
    fn error_summary_names_codes() {
        let mut report = model_report(Vec::new());
        assert_eq!(report.error_summary(), "");
        report.diagnostics.push(Diagnostic {
            rule: RuleId::MedContradiction,
            severity: Severity::Error,
            message: "duplicate ranking".into(),
            location: Location::Model(ModelLocation::default()),
        });
        let s = report.error_summary();
        assert!(s.contains("QL0006"), "summary: {s}");
        assert!(s.contains("1 error-level"), "summary: {s}");
    }
}
