//! The paper's experiments, as `quasar repro` prints them: one function
//! per table or figure (DESIGN.md's experiment index) and its printer.
//! EXPERIMENTS.md records paper-vs-measured. Every held-out model comes
//! from [`train_held_out`], the trainer behind `quasar predict FILE`, so an
//! experiment and the CLI give one answer to one question. Performance is
//! measured by `perfbench/`, not here.

use crate::{dataset_from, train_held_out, HeldOut, Scale, Split};
use quasar_core::prelude::*;
use quasar_diversity::prelude::*;
use quasar_netgen::observe::SyntheticInternet;
use quasar_topology::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::time::Instant;

/// The ids `repro --exp` accepts besides `all`, in the order `run` runs
/// them.
#[rustfmt::skip]
pub const EXPERIMENT_IDS: &[&str] = &[
    "t0", "fig2", "t1", "spread", "t2", "degrees", "train", "pred-op", "pred-origin", "pred-both",
    "gen", "qr", "cov", "scale", "density", "seeds", "ablate-single", "ablate-lp", "ablate-rel",
];

/// The experiments `--exp` selects: `all` (the default), or a
/// comma-separated list of ids.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Selection(Option<BTreeSet<&'static str>>);

impl FromStr for Selection {
    type Err = String;

    fn from_str(s: &str) -> Result<Selection, String> {
        if s == "all" {
            return Ok(Selection(None));
        }
        let known = |id| EXPERIMENT_IDS.iter().copied().find(|&k| k == id);
        let ids = s.split(',').map(|id| {
            known(id).ok_or_else(|| {
                let all = EXPERIMENT_IDS.join("|");
                format!("unknown experiment {id:?}, want {all}|all")
            })
        });
        Ok(Selection(Some(ids.collect::<Result<_, _>>()?)))
    }
}

impl Selection {
    /// Whether `id` runs. `density` and `seeds` each re-train several
    /// full models; they are opt-in even under `all`.
    fn wants(&self, id: &str) -> bool {
        match &self.0 {
            None => id != "density" && id != "seeds",
            Some(ids) => ids.contains(id),
        }
    }
}

/// What `quasar repro` runs.
#[derive(Debug, Clone)]
pub struct Options {
    /// The experiments.
    pub exps: Selection,
    /// The generator preset.
    pub scale: Scale,
    /// The generator and split seed.
    pub seed: u64,
    /// Observation ASes, overriding the preset's.
    pub obs: Option<usize>,
    /// The observation-AS counts of the density sweep.
    pub counts: Option<Vec<usize>>,
    /// Where to write the CSV plot data of `fig2`, `t1`, `degrees` and
    /// `density`.
    pub csv: Option<PathBuf>,
}

/// Everything the experiments share: the synthetic Internet (the "real
/// world") and its cleaned observation dataset.
pub struct Context {
    /// The ground truth.
    pub internet: SyntheticInternet,
    /// Cleaned feeds.
    pub dataset: Dataset,
    /// Scale used.
    pub scale: Scale,
    /// Seed used.
    pub seed: u64,
}

impl Context {
    /// Generates the synthetic Internet and derives the dataset. `obs`
    /// overrides the number of observation ASes (the E-density lever; the
    /// paper's >80 % regime needs vantage coverage comparable to
    /// RouteViews+RIPE's).
    pub fn new(scale: Scale, seed: u64, obs: Option<usize>) -> Context {
        let mut cfg = scale.config(seed);
        if let Some(n) = obs {
            cfg.num_observation_ases = n;
        }
        let internet = SyntheticInternet::generate(cfg);
        Context {
            dataset: dataset_from(&internet),
            internet,
            scale,
            seed,
        }
    }

    /// Trains on one half of `split` of the context's dataset by `cfg`.
    fn held_out(&self, split: Split, cfg: &TrainConfig) -> HeldOut {
        train_held_out(&self.dataset, split, self.seed, cfg)
            .expect("refinement simulations of a generated Internet run")
    }
}

/// Table 2 output: both baseline rows plus relationship-inference accuracy
/// against the generator's ground truth (a measurement the paper could
/// never make).
#[derive(Debug, Clone)]
pub struct Table2 {
    /// Shortest-path baseline row.
    pub shortest_path: Table2Row,
    /// Relationship-policy baseline row.
    pub relationships: Table2Row,
    /// Inferred relationship counts `(customer-provider, peer, sibling)`.
    pub inferred_counts: (usize, usize, usize),
    /// Fraction of classified edges whose inferred class matches ground
    /// truth.
    pub inference_accuracy: f64,
}

/// Table 2: single-router baselines.
pub fn exp_t2(ctx: &Context) -> Table2 {
    let graph = ctx.dataset.as_graph();
    let prefixes = ctx.dataset.prefixes();
    let paths = ctx.dataset.paths();

    let sp = shortest_path_model(&graph, &prefixes);
    let shortest_path = table2_row(&sp, &ctx.dataset);

    let level1 = tier1_clique(&graph, &ctx.internet.as_topology.tier1());
    let rels = infer_relationships(&graph, &paths, &level1, &InferenceConfig::default());
    let rel_model = relationship_model(&graph, &prefixes, &rels);
    let relationships = table2_row(&rel_model, &ctx.dataset);

    // Score inference against the generator's ground truth.
    let truth = ctx.internet.as_topology.ground_truth_relationships();
    let mut correct = 0usize;
    let mut scored = 0usize;
    for (&(a, b), inferred) in rels.iter() {
        if let Some(true_rel) = truth.get(a, b) {
            scored += 1;
            let ok = match (inferred, true_rel) {
                (
                    Relationship::CustomerProvider { provider: p1, .. },
                    Relationship::CustomerProvider { provider: p2, .. },
                ) => *p1 == p2,
                (Relationship::PeerPeer, Relationship::PeerPeer)
                | (Relationship::Sibling, Relationship::Sibling)
                // The paper folds siblings into peerings (fn. 2).
                | (Relationship::Sibling, Relationship::PeerPeer)
                | (Relationship::PeerPeer, Relationship::Sibling) => true,
                _ => false,
            };
            if ok {
                correct += 1;
            }
        }
    }
    Table2 {
        shortest_path,
        relationships,
        inferred_counts: rels.counts(),
        inference_accuracy: if scored == 0 {
            0.0
        } else {
            correct as f64 / scored as f64
        },
    }
}

/// Training result: refinement statistics plus the training-set evaluation
/// (which must be a perfect RIB-Out reproduction when converged).
#[derive(Debug, Clone)]
pub struct TrainResult {
    /// Training routes.
    pub training_routes: usize,
    /// Refinement converged on every prefix.
    pub converged: bool,
    /// Prefixes refined.
    pub prefixes: usize,
    /// Total / max iterations.
    pub iterations: (usize, usize),
    /// Quasi-routers before/after.
    pub quasi_routers: (usize, usize),
    /// Policy rules installed.
    pub rules: usize,
    /// Training-set evaluation.
    pub training_eval: Evaluation,
}

impl TrainResult {
    /// Sums up a refinement of `model` on `training`.
    fn new(model: &AsRoutingModel, report: &RefineReport, training: &Dataset) -> TrainResult {
        let stats = model.stats();
        TrainResult {
            training_routes: training.len(),
            converged: report.converged(),
            prefixes: report.prefixes.len(),
            iterations: (report.total_iterations(), report.max_iterations()),
            // Refinement starts from one quasi-router per AS.
            quasi_routers: (stats.ases, stats.quasi_routers),
            rules: stats.policy_rules,
            training_eval: evaluate(model, training),
        }
    }

    fn of(h: &HeldOut) -> TrainResult {
        TrainResult::new(&h.model, &h.report.refine, &h.training)
    }
}

/// Prediction result on a held-out validation set, with the §3.3 baseline
/// alongside for the same validation routes.
#[derive(Debug, Clone)]
pub struct PredResult {
    /// Validation routes evaluated.
    pub validation_routes: usize,
    /// Refined-model evaluation.
    pub refined: Evaluation,
    /// Shortest-path baseline evaluation on the same validation set.
    pub baseline: Evaluation,
    /// Training summary for reference.
    pub train: TrainResult,
}

impl PredResult {
    /// Scores `model` and the shortest-path baseline on `validation`.
    fn new(
        ctx: &Context,
        model: &AsRoutingModel,
        validation: &Dataset,
        train: TrainResult,
    ) -> Self {
        let base = shortest_path_model(&ctx.dataset.as_graph(), &ctx.dataset.prefixes());
        PredResult {
            validation_routes: validation.len(),
            refined: evaluate(model, validation),
            baseline: evaluate(&base, validation),
            train,
        }
    }

    fn of(ctx: &Context, h: &HeldOut) -> Self {
        PredResult::new(ctx, &h.model, &h.validation, TrainResult::of(h))
    }
}

/// E-pred-*: train on one side of a split by the shipping recipe, predict
/// the other.
pub fn exp_predict(ctx: &Context, split: Split) -> PredResult {
    PredResult::of(ctx, &ctx.held_out(split, &split.recipe()))
}

/// E-qr: quasi-router count distribution after training.
#[derive(Debug, Clone)]
pub struct QuasiRouterGrowth {
    /// Histogram: quasi-routers-per-AS -> number of ASes.
    pub histogram: BTreeMap<usize, usize>,
    /// Largest AS (by quasi-routers).
    pub max: usize,
    /// Mean quasi-routers per AS.
    pub mean: f64,
}

/// E-qr: measures how many quasi-routers the model needed.
pub fn exp_quasi_router_growth(model: &AsRoutingModel) -> QuasiRouterGrowth {
    let counts = model.quasi_router_counts();
    let mut histogram: BTreeMap<usize, usize> = BTreeMap::new();
    for &c in counts.values() {
        *histogram.entry(c).or_default() += 1;
    }
    let total: usize = counts.values().sum();
    QuasiRouterGrowth {
        max: counts.values().copied().max().unwrap_or(0),
        mean: if counts.is_empty() {
            0.0
        } else {
            total as f64 / counts.len() as f64
        },
        histogram,
    }
}

/// A-1router: refinement with quasi-router duplication disabled.
pub fn exp_ablate_single_router(ctx: &Context) -> PredResult {
    let mut cfg = Split::Point.recipe();
    cfg.refine.allow_duplication = false;
    PredResult::of(ctx, &ctx.held_out(Split::Point, &cfg))
}

/// A-lp: refinement ranking with local-pref instead of MED (the design the
/// paper rejected). Returns the train result plus the number of prefixes
/// whose propagation diverged.
pub fn exp_ablate_localpref(ctx: &Context) -> (TrainResult, usize) {
    let mut cfg = Split::Point.recipe();
    cfg.refine.ranking = RankingAttr::LocalPref;
    let h = ctx.held_out(Split::Point, &cfg);
    let outcomes = &h.report.refine.prefixes;
    let diverged = outcomes.iter().filter(|p| p.diverged).count();
    (TrainResult::of(&h), diverged)
}

/// A-agnostic: seed the model with inferred-relationship policies before
/// refining, vs. the paper's agnostic start. The one experiment that
/// refines a model other than the initial one, so it calls [`refine`]
/// itself.
pub fn exp_ablate_relationship_seed(ctx: &Context) -> PredResult {
    let (training, validation) = Split::Point.apply(&ctx.dataset, ctx.seed);
    let graph = ctx.dataset.as_graph();
    let paths = ctx.dataset.paths();
    let level1 = tier1_clique(&graph, &ctx.internet.as_topology.tier1());
    let rels = infer_relationships(&graph, &paths, &level1, &InferenceConfig::default());

    let mut model = relationship_model(&graph, &ctx.dataset.prefixes(), &rels);
    let report = refine(&mut model, &training, &RefineConfig::default())
        .expect("refinement simulations of a generated Internet run");
    let train = TrainResult::new(&model, &report, &training);
    PredResult::new(ctx, &model, &validation, train)
}

/// E-gen (§4.7 extension): origin-split prediction with and without
/// generalizing the per-prefix MED rankings into per-session defaults.
#[derive(Debug, Clone)]
pub struct GeneralizationResult {
    /// Plain refined model on held-out origins.
    pub without: Evaluation,
    /// After `generalize_med_preferences`: the model `quasar predict
    /// --split origin` ships.
    pub with: Evaluation,
    /// Defaults installed.
    pub defaults: usize,
}

/// Runs the §4.7 generalization experiment: the origin-split recipe with
/// the generalisation held back until the refined model is scored.
pub fn exp_generalize(ctx: &Context) -> GeneralizationResult {
    let cfg = TrainConfig {
        generalize: false,
        ..Split::Origin.recipe()
    };
    let mut h = ctx.held_out(Split::Origin, &cfg);
    let without = evaluate(&h.model, &h.validation);
    let defaults = h.model.generalize_med_preferences();
    let with = evaluate(&h.model, &h.validation);
    GeneralizationResult {
        without,
        with,
        defaults,
    }
}

/// E-seeds: robustness of the headline result across independently
/// generated topologies.
#[derive(Debug, Clone)]
pub struct SeedSensitivity {
    /// Per seed: (refined tie-break, baseline tie-break).
    pub per_seed: Vec<(u64, f64, f64)>,
    /// Mean and sample standard deviation of the refined tie-break rate.
    pub refined_mean_std: (f64, f64),
    /// Mean and sample standard deviation of the baseline tie-break rate.
    pub baseline_mean_std: (f64, f64),
}

/// Repeats the observation-point-split prediction across `seeds`,
/// regenerating the Internet each time, and reports the spread. The
/// conclusions must not hinge on one lucky topology.
pub fn exp_seed_sensitivity(scale: Scale, seeds: &[u64]) -> SeedSensitivity {
    let mut per_seed = Vec::new();
    for &seed in seeds {
        let ctx = Context::new(scale, seed, None);
        let pred = exp_predict(&ctx, Split::Point);
        per_seed.push((
            seed,
            pred.refined.counts.tie_break_rate(),
            pred.baseline.counts.tie_break_rate(),
        ));
    }
    let stats = |vals: Vec<f64>| -> (f64, f64) {
        let n = vals.len() as f64;
        let mean = vals.iter().sum::<f64>() / n;
        let var = vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0).max(1.0);
        (mean, var.sqrt())
    };
    SeedSensitivity {
        refined_mean_std: stats(per_seed.iter().map(|&(_, r, _)| r).collect()),
        baseline_mean_std: stats(per_seed.iter().map(|&(_, _, b)| b).collect()),
        per_seed,
    }
}

/// One point of the observation-density sweep.
#[derive(Debug, Clone)]
pub struct DensityPoint {
    /// Observation ASes requested.
    pub observation_ases: usize,
    /// Feeds actually sampled.
    pub points: usize,
    /// The point-split prediction at this density.
    pub pred: PredResult,
}

/// E-density: prediction accuracy as a function of vantage-point count —
/// quantifies the paper's "exploiting a large number of observation
/// points" premise. Same topology seed throughout; only the feed sampling
/// varies.
pub fn exp_density(ctx: &Context, counts: &[usize]) -> Vec<DensityPoint> {
    counts
        .iter()
        .map(|&n| {
            let dense = Context::new(ctx.scale, ctx.seed, Some(n));
            DensityPoint {
                observation_ases: n,
                points: dense.internet.observation_points.len(),
                pred: exp_predict(&dense, Split::Point),
            }
        })
        .collect()
}

/// One E-scale measurement: the engine's per-prefix simulation cost
/// (paper §4.1: "it is thus possible to perform large-scale simulations
/// for single prefixes on topologies with more than 16,500 routers split
/// among 14,500 ASes in 2–45 minutes with 200 MB–2 GB memory" — C-BGP,
/// 2006 hardware).
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// The initial model's size.
    pub model: ModelStats,
    /// Prefixes simulated.
    pub prefixes: usize,
    /// Mean messages per prefix simulation.
    pub mean_messages: f64,
    /// Mean wall time per prefix simulation (µs).
    pub mean_micros: f64,
}

/// E-scale: simulates up to `max_prefixes` prefixes on the initial model
/// of `dataset` and reports the means.
pub fn exp_scale(dataset: &Dataset, max_prefixes: usize) -> ScalePoint {
    let graph = dataset.as_graph();
    let model = AsRoutingModel::initial(&graph, &dataset.prefixes());
    let prefixes: Vec<_> = model.prefixes().keys().copied().collect();
    let n = prefixes.len().min(max_prefixes).max(1);

    let mut total_msgs = 0u64;
    let start = Instant::now();
    for &p in prefixes.iter().take(n) {
        let res = model.simulate(p).expect("initial model converges");
        total_msgs += res.stats.messages;
    }
    let elapsed = start.elapsed();

    ScalePoint {
        model: model.stats(),
        prefixes: n,
        mean_messages: total_msgs as f64 / n as f64,
        mean_micros: elapsed.as_micros() as f64 / n as f64,
    }
}

/// Runs the selected experiments in index order, printing each to stdout
/// and writing CSV plot data when asked. Fails only when a CSV file
/// cannot be written.
pub fn run(opts: &Options) -> Result<(), String> {
    let (scale, seed) = (opts.scale, opts.seed);
    eprintln!("# building context (scale {scale:?}, seed {seed}) ...");
    let t0 = Instant::now();
    let ctx = Context::new(scale, seed, opts.obs);
    eprintln!(
        "# context ready in {:.1?}: {} ASes, {} observed routes",
        t0.elapsed(),
        ctx.internet.as_topology.len(),
        ctx.dataset.len()
    );
    let want = |id: &str| opts.exps.wants(id);
    let csv = |name: &str, header: &str, rows: Vec<String>| match &opts.csv {
        Some(dir) => write_csv(dir, name, header, &rows),
        None => Ok(()),
    };

    // T0, Figure 2, Table 1 and §3.2 are the `diversity` analyses of the
    // feeds; the clique search is seeded with the true tier-1 ASes, like
    // the paper's well-known tier-1 list.
    if want("t0") {
        print_t0(&summarize(&ctx.dataset, &ctx.internet.as_topology.tier1()));
    }
    if want("fig2") {
        let h = PathDiversityHistogram::from_dataset(&ctx.dataset);
        print_fig2(&h);
        csv("fig2.csv", "distinct_paths,pairs", csv_pairs(h.rows()))?;
    }
    if want("t1") {
        let q = DiversityQuantiles::from_dataset(&ctx.dataset);
        print_t1(&q);
        csv("t1.csv", "percentile,max_paths", csv_pairs(q.table1_row()))?;
    }
    if want("spread") {
        print_spread(&PrefixSpread::from_dataset(&ctx.dataset));
    }
    if want("t2") {
        print_t2(&exp_t2(&ctx));
    }
    if want("degrees") {
        let d = DegreeDistribution::from_graph(&ctx.dataset.as_graph());
        csv("degrees.csv", "degree,ccdf", csv_pairs(d.ccdf()))?;
        print_degrees(&d);
    }
    if want("train") || want("qr") || want("cov") || want("pred-op") {
        // One training run shared by the dependent experiments.
        let h = ctx.held_out(Split::Point, &Split::Point.recipe());
        if want("train") {
            print_train(&TrainResult::of(&h));
            // §5 mismatch attribution on the held-out half: which ASes
            // carry diversity the training feeds never exposed.
            let diag = diagnose(&h.model, &h.validation);
            println!(
                "validation reproduction: {} of {} routes | top offender ASes:",
                diag.matched, diag.routes
            );
            for (asn, n) in diag.top_offenders(5) {
                println!("  {asn:<10} {n} routes");
            }
        }
        if want("pred-op") || want("cov") {
            let pred = PredResult::of(&ctx, &h);
            if want("pred-op") {
                print_pred("E-pred-op (held-out observation points)", &pred);
            }
            if want("cov") {
                print_cov(&pred.refined);
            }
        }
        if want("qr") {
            print_qr(&exp_quasi_router_growth(&h.model));
        }
    }
    if want("pred-origin") {
        let pred = exp_predict(&ctx, Split::Origin);
        print_pred("E-pred-origin (held-out origin ASes)", &pred);
    }
    if want("gen") {
        print_gen(&exp_generalize(&ctx));
    }
    if want("pred-both") {
        let pred = exp_predict(&ctx, Split::Both);
        print_pred("E-pred-both (held-out points x origins)", &pred);
    }
    if want("scale") {
        print_scale(&exp_scale(&ctx.dataset, 200));
    }
    if want("density") {
        let counts = opts.counts.clone().unwrap_or_else(|| match scale {
            Scale::Tiny => vec![5, 10, 20, 40],
            _ => vec![30, 60, 120, 240, 400],
        });
        let pts = exp_density(&ctx, &counts);
        let rows = pts.iter().map(|p| {
            let (r, b) = (p.pred.refined.counts, p.pred.baseline.counts);
            let (n, points, routes) = (p.observation_ases, p.points, p.pred.train.training_routes);
            let rates = (r.tie_break_rate(), r.rib_in_rate(), b.tie_break_rate());
            format!("{n},{points},{routes},{},{},{}", rates.0, rates.1, rates.2)
        });
        let header = "obs_ases,points,training_routes,refined_tie_break,refined_rib_in,\
                      baseline_tie_break";
        csv("density.csv", header, rows.collect())?;
        print_density(&pts);
    }
    if want("seeds") {
        let seeds: Vec<u64> = (1..=7).map(|i| seed.wrapping_add(i)).collect();
        print_seeds(&exp_seed_sensitivity(scale, &seeds));
    }
    if want("ablate-single") {
        print_ablate_single(&exp_ablate_single_router(&ctx));
    }
    if want("ablate-lp") {
        let (train, diverged) = exp_ablate_localpref(&ctx);
        println!("\n== A-lp: local-pref ranking instead of MED (rejected in §4.6) ==");
        println!(
            "prefixes diverged: {diverged} of {} | training RIB-Out: {:.1}%",
            train.prefixes,
            100.0 * train.training_eval.counts.rib_out_rate()
        );
    }
    if want("ablate-rel") {
        print_ablate_rel(&exp_ablate_relationship_seed(&ctx));
    }
    Ok(())
}

/// CSV rows of two columns.
fn csv_pairs<A: Display, B: Display>(rows: impl IntoIterator<Item = (A, B)>) -> Vec<String> {
    rows.into_iter().map(|(a, b)| format!("{a},{b}")).collect()
}

/// Writes one CSV artifact under `dir`, creating the directory as needed.
fn write_csv(dir: &Path, name: &str, header: &str, rows: &[String]) -> Result<(), String> {
    let path = dir.join(name);
    let mut contents = format!("{header}\n");
    for row in rows {
        contents.push_str(row);
        contents.push('\n');
    }
    let fail = |e: &dyn Display| format!("cannot write {}: {e}", path.display());
    std::fs::create_dir_all(dir).map_err(|e| fail(&e))?;
    atomic_write_bytes(&path, contents.as_bytes()).map_err(|e| fail(&e))?;
    eprintln!("# wrote {}", path.display());
    Ok(())
}

/// An evaluation's RIB-Out, down-to-tie-break and RIB-In match rates, in
/// percent.
fn percent(ev: &Evaluation) -> [f64; 3] {
    let c = ev.counts;
    [c.rib_out_rate(), c.tie_break_rate(), c.rib_in_rate()].map(|r| 100.0 * r)
}

fn print_t0(s: &DatasetSummary) {
    println!("\n== T0: dataset summary (paper §3.1) ==");
    println!(
        "routes {} | distinct AS-paths {} | AS pairs {}",
        s.routes, s.distinct_paths, s.as_pairs
    );
    println!(
        "observation points {} in {} ASes",
        s.observation_points, s.observer_ases
    );
    println!("AS graph: {} nodes, {} edges", s.ases, s.edges);
    println!(
        "level-1 clique ({}): {:?}",
        s.level1.len(),
        s.level1.iter().map(|a| a.0).collect::<Vec<_>>()
    );
    println!("level-2 {} | other {}", s.level2, s.other);
    println!(
        "transit {} | single-homed stubs {} | multi-homed stubs {}",
        s.transit, s.single_homed_stubs, s.multi_homed_stubs
    );
    println!(
        "pruned graph: {} nodes, {} edges  (paper: 14,563 / 52,288)",
        s.pruned_nodes, s.pruned_edges
    );
}

fn print_fig2(h: &PathDiversityHistogram) {
    println!("\n== Figure 2: #distinct AS-paths per (origin, observer) AS pair ==");
    println!("{:>8} {:>10}", "paths", "pairs");
    for (k, n) in h.rows() {
        if n > 0 {
            println!("{k:>8} {n:>10}");
        }
    }
    println!(
        "pairs with >1 path : {:.1}%   (paper: >30%)",
        100.0 * h.fraction_with_more_than(1)
    );
    println!(
        "pairs with >10 paths: {}   (paper: >5,000 at full scale)",
        h.pairs_with_more_than(10)
    );
}

fn print_t1(q: &DiversityQuantiles) {
    println!("\n== Table 1: max #unique AS-paths received per AS ==");
    print!("percentile :");
    for (pct, _) in q.table1_row() {
        print!(" {pct:>4}");
    }
    println!();
    print!("max paths  :");
    for (_, v) in q.table1_row() {
        print!(" {v:>4}");
    }
    println!();
    println!(
        "ASes receiving >=2 for some prefix: {:.1}% (paper: >50%) | >=5: {:.1}% (paper: ~10%) | >=10: {:.1}% (paper: ~2%)",
        100.0 * q.fraction_at_least(2),
        100.0 * q.fraction_at_least(5),
        100.0 * q.fraction_at_least(10)
    );
}

fn print_spread(s: &PrefixSpread) {
    println!("\n== §3.2: prefixes per AS-path ==");
    println!(
        "single-prefix paths {:.1}% (paper: <50%) | busiest path {} prefixes | log-log slope {:?}",
        100.0 * s.single_prefix_fraction(),
        s.max_prefixes(),
        s.log_log_slope().map(|v| (v * 100.0).round() / 100.0)
    );
}

fn print_t2(t: &Table2) {
    println!("\n== Table 2: single-router-per-AS baselines ==");
    println!(
        "{:<28} {:>14} {:>20}",
        "", "Shortest Path", "Customer/Peering"
    );
    let (sp, rel) = (&t.shortest_path, &t.relationships);
    for (label, a, b) in [
        ("AS-paths which agree", sp.agree, rel.agree),
        ("  disagree", sp.disagree(), rel.disagree()),
        (
            "  .. path not available",
            sp.not_available,
            rel.not_available,
        ),
        (
            "  .. shorter path chosen",
            sp.shorter_exists,
            rel.shorter_exists,
        ),
        ("  .. lowest neighbor id", sp.tie_break, rel.tie_break),
        ("  .. other policy step", sp.other, rel.other),
    ] {
        println!("{label:<28} {:>13.1}% {:>19.1}%", 100.0 * a, 100.0 * b);
    }
    println!(
        "(paper: agree 23.5% / 12.5%; not-available 49.4% / 54.5%; shorter 4.7% / 5.7%; tie-break 22.2% / 27.3%)"
    );
    let (cp, pp, sib) = t.inferred_counts;
    println!(
        "inferred relationships: {cp} customer-provider, {pp} peer, {sib} sibling | accuracy vs ground truth {:.1}%",
        100.0 * t.inference_accuracy
    );
}

fn print_degrees(d: &DegreeDistribution) {
    println!("\n== Degrees: AS-graph degree distribution (paper §1 power-law context) ==");
    println!(
        "mean {:.2} | max {} | CCDF log-log slope {:?} (Faloutsos et al. report ~-1.2 for the real AS graph)",
        d.mean(),
        d.max(),
        d.power_law_slope().map(|v| (v * 100.0).round() / 100.0)
    );
}

fn print_train(t: &TrainResult) {
    println!("\n== E-train: refinement against the training set ==");
    println!(
        "training routes {} over {} prefixes | converged: {}",
        t.training_routes, t.prefixes, t.converged
    );
    println!(
        "iterations: total {} / max-per-prefix {} | quasi-routers {} -> {} | rules {}",
        t.iterations.0, t.iterations.1, t.quasi_routers.0, t.quasi_routers.1, t.rules
    );
    println!(
        "training reproduction: {:.1}% RIB-Out (paper: exact match by construction)",
        100.0 * t.training_eval.counts.rib_out_rate()
    );
}

fn print_pred(title: &str, p: &PredResult) {
    println!("\n== {title} ==");
    println!("validation routes: {}", p.validation_routes);
    for (label, ev) in [("refined model:", &p.refined), ("baseline:", &p.baseline)] {
        let [out, tie, rib_in] = percent(ev);
        println!(
            "{label:<16} RIB-Out {out:>5.1}% | +tie-break {tie:>5.1}% | RIB-In bound {rib_in:>5.1}%"
        );
    }
    println!("(paper: >80% of test cases matched down to the final BGP tie break)");
}

fn print_gen(g: &GeneralizationResult) {
    println!("\n== E-gen (§4.7): per-session MED defaults for unseen prefixes ==");
    println!("defaults installed: {}", g.defaults);
    for (label, ev) in [("without", &g.without), ("with   ", &g.with)] {
        let [out, tie, rib_in] = percent(ev);
        println!("{label}: RIB-Out {out:.1}% | tie-break {tie:.1}% | RIB-In {rib_in:.1}%");
    }
}

fn print_cov(ev: &Evaluation) {
    println!("\n== E-cov: per-prefix RIB-Out coverage of unique AS-paths ==");
    let c = ev.coverage;
    let pct = |n: usize| 100.0 * n as f64 / c.prefixes.max(1) as f64;
    println!(
        "prefixes {} | >=50% matched: {:.1}% | >=90%: {:.1}% | 100%: {:.1}%",
        c.prefixes,
        pct(c.at_least_50),
        pct(c.at_least_90),
        pct(c.full)
    );
}

fn print_qr(g: &QuasiRouterGrowth) {
    println!("\n== E-qr: quasi-routers per AS after refinement ==");
    println!("{:>14} {:>8}", "quasi-routers", "ASes");
    for (k, n) in &g.histogram {
        println!("{k:>14} {n:>8}");
    }
    println!("max {} | mean {:.2}", g.max, g.mean);
}

fn print_scale(p: &ScalePoint) {
    println!("\n== E-scale: per-prefix simulation cost on the initial model ==");
    println!(
        "{} ASes | {} routers | {} sessions | {} prefixes sampled",
        p.model.ases, p.model.quasi_routers, p.model.sessions, p.prefixes
    );
    println!(
        "mean {:.0} BGP messages, {:.0} us per prefix simulation",
        p.mean_messages, p.mean_micros
    );
    println!("(paper/C-BGP 2006: 16.5k routers, 2-45 min per prefix, 200MB-2GB)");
}

fn print_density(pts: &[DensityPoint]) {
    println!("\n== E-density: prediction accuracy vs number of vantage points ==");
    println!(
        "{:>8} {:>7} {:>10} {:>16} {:>12} {:>16}",
        "obs-ASes", "points", "train-rts", "refined tiebrk", "RIB-In", "baseline tiebrk"
    );
    for p in pts {
        let ([_, tie, rib_in], [_, base, _]) =
            (percent(&p.pred.refined), percent(&p.pred.baseline));
        println!(
            "{:>8} {:>7} {:>10} {tie:>15.1}% {rib_in:>11.1}% {base:>15.1}%",
            p.observation_ases, p.points, p.pred.train.training_routes
        );
    }
}

fn print_seeds(r: &SeedSensitivity) {
    println!("\n== E-seeds: headline robustness across generated topologies ==");
    for (s, refined, base) in &r.per_seed {
        println!(
            "seed {s}: refined tie-break {:.1}% | baseline {:.1}%",
            100.0 * refined,
            100.0 * base
        );
    }
    println!(
        "refined {:.1}% +/- {:.1} | baseline {:.1}% +/- {:.1}",
        100.0 * r.refined_mean_std.0,
        100.0 * r.refined_mean_std.1,
        100.0 * r.baseline_mean_std.0,
        100.0 * r.baseline_mean_std.1
    );
}

fn print_ablate_single(pred: &PredResult) {
    let t = &pred.train;
    println!("\n== A-1router: refinement without quasi-router duplication ==");
    println!(
        "training RIB-Out: {:.1}% (full model: 100%) | quasi-routers {} -> {}",
        100.0 * t.training_eval.counts.rib_out_rate(),
        t.quasi_routers.0,
        t.quasi_routers.1
    );
    let ([_, tie, _], [_, base, _]) = (percent(&pred.refined), percent(&pred.baseline));
    println!("validation tie-break match: {tie:.1}% (vs {base:.1}% baseline)");
}

fn print_ablate_rel(pred: &PredResult) {
    let t = &pred.train;
    println!("\n== A-agnostic: relationship-seeded start vs agnostic start ==");
    println!(
        "training converged: {} | training RIB-Out: {:.1}%",
        t.converged,
        100.0 * t.training_eval.counts.rib_out_rate()
    );
    let [out, tie, rib_in] = percent(&pred.refined);
    println!("validation: RIB-Out {out:.1}%, tie-break {tie:.1}%, RIB-In {rib_in:.1}%");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> Context {
        Context::new(Scale::Tiny, 11, None)
    }

    #[test]
    fn t2_baselines_bounded() {
        let t = exp_t2(&ctx());
        assert!(t.shortest_path.agree > 0.0 && t.shortest_path.agree < 1.0);
        assert!(t.relationships.agree > 0.0 && t.relationships.agree < 1.0);
        assert!(
            t.inference_accuracy > 0.5,
            "accuracy {}",
            t.inference_accuracy
        );
    }

    #[test]
    fn prediction_beats_baseline_and_reproduces_training() {
        let p = exp_predict(&ctx(), Split::Point);
        assert!(p.train.converged);
        let training = p.train.training_eval.counts;
        assert_eq!(training.rib_out, training.total);
        // Strictly better than the single-router baseline, and well above
        // chance; the paper's >80 % needs vantage density the tiny
        // configuration does not have (see E-density).
        assert!(p.refined.counts.tie_break_rate() > p.baseline.counts.tie_break_rate());
        assert!(p.refined.counts.tie_break_rate() > 0.7);
    }

    #[test]
    fn held_out_experiments_score_the_shipped_recipe() {
        // `quasar predict --split origin` generalises; so must E-pred-origin,
        // and E-gen's `with` line is that same model.
        let c = Context::new(Scale::Tiny, 20051113, None);
        let gen = exp_generalize(&c);
        assert_eq!(exp_predict(&c, Split::Origin).refined, gen.with);
        assert_ne!(gen.with, gen.without);
    }

    #[test]
    fn single_router_ablation_caps_training_match() {
        let pred = exp_ablate_single_router(&ctx());
        // Without duplication the training set cannot be fully reproduced
        // whenever genuine concurrent-path diversity exists.
        let training = pred.train.training_eval.counts;
        assert!(
            training.rib_out < training.total,
            "ablation unexpectedly perfect"
        );
    }

    #[test]
    fn scale_measurement_runs() {
        let p = exp_scale(&ctx().dataset, 10);
        assert!(p.mean_messages > 0.0);
        assert!(p.model.quasi_routers >= p.model.ases);
        assert_eq!(p.prefixes, 10);
    }

    #[test]
    fn selection_parses_all_or_known_ids() {
        let all: Selection = "all".parse().unwrap();
        assert_eq!(all, Selection::default());
        assert!(all.wants("t0") && !all.wants("density") && !all.wants("seeds"));
        let some: Selection = "t0,density".parse().unwrap();
        assert!(some.wants("density") && !some.wants("fig2"));
        let err = "t0,nosuch".parse::<Selection>().unwrap_err();
        assert!(err.contains("unknown experiment \"nosuch\""), "{err}");
        assert!("all,t0".parse::<Selection>().is_err());
    }
}
