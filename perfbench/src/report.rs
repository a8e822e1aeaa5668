//! What a workload run produces, and how it is printed: a human-readable
//! report on stderr (every row host-stamped) and one JSON object as the
//! last line of stdout.

use std::collections::BTreeMap;

/// `(name, unit)` of the end-to-end metrics. Every workload reports all
/// of them; see README.md for what each means on each workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("change_to_answer_p50_ref_s", "s"),
    ("heldout_tiebreak_pct", "%"),
    ("peak_rss_mib", "MiB"),
];

/// `(name, unit)` of the per-layer metrics of a traced run. A layer the
/// workload leaves idle reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("mrt.decode_s", "s"),
    ("core.dataset_s", "s"),
    ("core.refine_s", "s"),
    ("core.refine.allocs", "count"),
    ("core.refine.alloc_mib", "MiB"),
    ("core.refine.domains", "count"),
    ("core.refine.repair_rounds", "count"),
    ("core.refine.iterations", "count"),
    ("core.refine.quasi_routers", "count"),
    ("bgpsim.simulate_ms", "ms"),
    ("bgpsim.messages", "count"),
    ("core.generalize_s", "s"),
    ("core.persist.save_s", "s"),
    ("core.persist.load_s", "s"),
    ("core.persist.mib", "MiB"),
    ("serve.start_s", "s"),
    ("serve.handle_us.predict", "us"),
    ("serve.handle_us.explain", "us"),
    ("serve.handle_ms.diff", "ms"),
    ("core.whatif.diff_ms", "ms"),
    ("serve.server_p50_us", "us"),
    ("serve.net_queue_us", "us"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.cache_misses", "count"),
    ("serve.post_swap_misses", "count"),
    ("serve.errors", "count"),
    ("serve.shed", "count"),
    ("serve.deadline_exceeded", "count"),
    ("stream.delta_ms", "ms"),
    ("stream.train_ms.incremental", "ms"),
    ("stream.train_ms.replay", "ms"),
    ("stream.persist_ms", "ms"),
    ("stream.swap_ms", "ms"),
    ("stream.dirty_prefixes", "count"),
    ("stream.replay_ratio", "ratio"),
    ("gen.lag_ms", "ms"),
    ("gen.query_p50_ms", "ms"),
    ("gen.query_p99_ms", "ms"),
    ("share.mrt", "%"),
    ("share.core.dataset", "%"),
    ("share.core.refine", "%"),
    ("share.core.generalize", "%"),
    ("share.core.persist", "%"),
    ("share.serve", "%"),
    ("share.net", "%"),
    ("share.stream", "%"),
    ("share.client", "%"),
    ("share.bench", "%"),
    ("host.calib_ms", "ms"),
    ("trace.spans", "count"),
];

/// The per-layer metrics that split a traced run's wall time: each is
/// `share.<layer>`, the layer's self time as a share of the timed phase.
pub const SHARES: &[&str] = &[
    "share.mrt",
    "share.core.dataset",
    "share.core.refine",
    "share.core.generalize",
    "share.core.persist",
    "share.serve",
    "share.net",
    "share.stream",
    "share.client",
    "share.bench",
];

/// One workload run's results.
#[derive(Default)]
pub struct Outcome {
    /// End-to-end metrics by name (units from [`END_TO_END`]).
    pub e2e: BTreeMap<&'static str, f64>,
    /// The workload's own end-to-end figures under the names the paper's
    /// pipeline uses (`train_s`, `whatif_p50_ms`, ...): `(name, value,
    /// unit)`, printed in the report.
    pub named: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer metrics by name (units from [`PER_LAYER`]).
    pub layers: BTreeMap<&'static str, f64>,
    /// Operations attempted and failed, failures broken down by kind.
    pub attempted: u64,
    pub failures: BTreeMap<String, u64>,
    /// Correctness checks: `(name, passed, detail)`.
    pub checks: Vec<(String, bool, String)>,
    /// Sample counts behind the timing percentiles, for the report.
    pub samples: Vec<(&'static str, usize)>,
}

impl Outcome {
    pub fn fail(&mut self, kind: &str, n: u64) {
        if n > 0 {
            *self.failures.entry(kind.to_string()).or_default() += n;
        }
    }

    pub fn failed(&self) -> u64 {
        self.failures.values().sum::<u64>()
    }

    pub fn check(&mut self, name: &str, passed: bool, detail: String) {
        self.attempted += 1;
        if !passed {
            self.fail("check", 1);
        }
        self.checks.push((name.to_string(), passed, detail));
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.1) && self.failed() == 0
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.layers.insert(name, value);
    }

    /// The machine-readable JSON line: end-to-end metrics untraced,
    /// per-layer metrics traced.
    pub fn json_line(&self, traced: bool) -> String {
        let (list, values) = if traced {
            (PER_LAYER, &self.layers)
        } else {
            (END_TO_END, &self.e2e)
        };
        let metrics: Vec<String> = list
            .iter()
            .map(|(name, unit)| {
                let v = values.get(name).copied().unwrap_or(0.0);
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    json_number(v)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed(),
            metrics.join(",")
        )
    }

    /// Every figure as `name<TAB>value<TAB>unit` lines, for the combined
    /// `--workload all` report.
    pub fn tsv(&self) -> String {
        let mut out = String::new();
        let mut row = |kind: &str, name: &str, v: f64, unit: &str| {
            out.push_str(&format!("{kind}\t{name}\t{}\t{unit}\n", json_number(v)));
        };
        for (name, unit) in END_TO_END {
            row(
                "e2e",
                name,
                self.e2e.get(name).copied().unwrap_or(0.0),
                unit,
            );
        }
        for (name, v, unit) in &self.named {
            row("named", name, *v, unit);
        }
        for (name, unit) in PER_LAYER {
            row(
                "layer",
                name,
                self.layers.get(name).copied().unwrap_or(0.0),
                unit,
            );
        }
        row("ops", "attempted", self.attempted as f64, "count");
        row("ops", "failed", self.failed() as f64, "count");
        row(
            "ops",
            "correct",
            f64::from(u8::from(self.correct())),
            "bool",
        );
        out
    }

    /// The human-readable report, one host-stamped row per figure.
    pub fn print_report(&self, workload: &str, stamp: &str, traced: bool) {
        let p = |what: &str| eprintln!("[{workload}] {what} | {stamp}");
        p(&format!(
            "ops attempted={} succeeded={} failed={}",
            self.attempted,
            self.attempted.saturating_sub(self.failed()),
            self.failed()
        ));
        for (kind, n) in &self.failures {
            p(&format!("failed {kind}={n}"));
        }
        for (name, passed, detail) in &self.checks {
            p(&format!(
                "check {name}: {} ({detail})",
                if *passed { "pass" } else { "FAIL" }
            ));
        }
        for (name, unit) in END_TO_END {
            let v = self.e2e.get(name).copied().unwrap_or(0.0);
            p(&format!("e2e {name} = {} {unit}", fmt_value(v)));
        }
        for (name, v, unit) in &self.named {
            p(&format!("workload {name} = {} {unit}", fmt_value(*v)));
        }
        for (name, n) in &self.samples {
            p(&format!("samples {name} = {n}"));
        }
        if traced {
            for (name, unit) in PER_LAYER {
                let v = self.layers.get(name).copied().unwrap_or(0.0);
                p(&format!("layer {name} = {} {unit}", fmt_value(v)));
            }
        }
    }
}

/// A JSON number with every digit Rust's shortest round-trip form has;
/// non-finite values (never expected) become 0.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

fn fmt_value(v: f64) -> String {
    if v.abs() >= 100.0 || v == v.trunc() {
        format!("{v:.0}")
    } else {
        format!("{v:.4}")
    }
}

/// Fills `share.<layer>` from self time per layer over `wall_s`.
pub fn fill_shares(out: &mut Outcome, self_times: &BTreeMap<&'static str, f64>, wall_s: f64) {
    for name in SHARES {
        let layer = &name["share.".len()..];
        let t = self_times.get(layer).copied().unwrap_or(0.0);
        out.layer(name, 100.0 * t / wall_s.max(1e-9));
    }
}
