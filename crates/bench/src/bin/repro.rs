//! `repro` — regenerates every table and figure of the paper.
//!
//! Usage:
//!   `repro [--exp ID] [--scale tiny|small|medium|large] [--seed N] [--obs N]`
//!
//! Experiment ids (see DESIGN.md): t0, fig2, t1, spread, t2, degrees,
//! train, pred-op, pred-origin, pred-both, gen, qr, cov, scale, density,
//! seeds, ablate-single, ablate-lp, ablate-rel; comma-separated lists
//! allowed; `all` (default) runs everything except `density` and `seeds`.

use quasar_bench::*;
use quasar_core::prelude::*;

fn main() {
    let mut exp = "all".to_string();
    let mut scale = Scale::Small;
    let mut seed = 20051113u64;
    let mut obs: Option<usize> = None;
    let mut counts: Option<Vec<usize>> = None;
    let mut csv_dir: Option<String> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--exp" => {
                exp = args.get(i + 1).cloned().unwrap_or_default();
                if exp != "all" {
                    if let Some(bad) = exp.split(',').find(|id| !EXPERIMENT_IDS.contains(id)) {
                        usage(&format!("unknown experiment {bad:?}"));
                    }
                }
                i += 2;
            }
            "--scale" => {
                scale = args
                    .get(i + 1)
                    .and_then(|s| Scale::parse(s))
                    .unwrap_or_else(|| usage("bad --scale"));
                i += 2;
            }
            "--seed" => {
                seed = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("bad --seed"));
                i += 2;
            }
            "--obs" => {
                obs = Some(
                    args.get(i + 1)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage("bad --obs")),
                );
                i += 2;
            }
            "--counts" => {
                counts = Some(
                    args.get(i + 1)
                        .and_then(|s| s.split(',').map(|x| x.parse().ok()).collect())
                        .unwrap_or_else(|| usage("bad --counts")),
                );
                i += 2;
            }
            "--csv" => {
                csv_dir = Some(
                    args.get(i + 1)
                        .cloned()
                        .unwrap_or_else(|| usage("bad --csv")),
                );
                i += 2;
            }
            other => usage(&format!("unknown argument {other}")),
        }
    }

    eprintln!("# building context (scale {scale:?}, seed {seed}) ...");
    let t0 = std::time::Instant::now();
    let ctx = Context::build_with_obs(scale, seed, obs);
    eprintln!(
        "# context ready in {:.1?}: {} ASes, {} observed routes",
        t0.elapsed(),
        ctx.internet.as_topology.len(),
        ctx.dataset.len()
    );

    let all = exp == "all";
    let wanted: std::collections::BTreeSet<&str> = exp.split(',').collect();
    // `density` and `seeds` each re-train several full models; they are
    // opt-in even under `all`.
    let want = |id: &str| (all && id != "density" && id != "seeds") || wanted.contains(id);

    if want("t0") {
        print_t0(&ctx);
    }
    if want("fig2") {
        print_fig2(&ctx);
        if let Some(dir) = &csv_dir {
            let h = exp_fig2(&ctx);
            let mut csv = String::from("distinct_paths,pairs\n");
            for (k, n) in h.rows() {
                csv.push_str(&format!("{k},{n}\n"));
            }
            write_csv(dir, "fig2.csv", &csv);
        }
    }
    if want("t1") {
        print_t1(&ctx);
        if let Some(dir) = &csv_dir {
            let q = exp_t1(&ctx);
            let mut csv = String::from("percentile,max_paths\n");
            for (pct, v) in q.table1_row() {
                csv.push_str(&format!("{pct},{v}\n"));
            }
            write_csv(dir, "t1.csv", &csv);
        }
    }
    if want("spread") {
        print_spread(&ctx);
    }
    if want("t2") {
        print_t2(&ctx);
    }
    if want("degrees") {
        use quasar_diversity::prelude::DegreeDistribution;
        let d = DegreeDistribution::from_graph(&ctx.dataset.as_graph());
        if let Some(dir) = &csv_dir {
            let mut csv = String::from("degree,ccdf\n");
            for (deg, f) in d.ccdf() {
                csv.push_str(&format!("{deg},{f}\n"));
            }
            write_csv(dir, "degrees.csv", &csv);
        }
        println!("\n== Degrees: AS-graph degree distribution (paper §1 power-law context) ==");
        println!(
            "mean {:.2} | max {} | CCDF log-log slope {:?} (Faloutsos et al. report ~-1.2 for the real AS graph)",
            d.mean(),
            d.max(),
            d.power_law_slope().map(|v| (v * 100.0).round() / 100.0)
        );
    }
    if want("train") || want("qr") || want("cov") || want("pred-op") {
        // One training run shared by the dependent experiments.
        let (training, validation) = SplitKind::ByPoint.split(&ctx.dataset, ctx.seed);
        let (model, train) = train_model(&ctx, &training, &RefineConfig::default());
        if want("train") {
            print_train(&train);
            // §5 mismatch attribution on the held-out half: which ASes
            // carry diversity the training feeds never exposed.
            let diag = diagnose(&model, &validation);
            println!(
                "validation reproduction: {} of {} routes | top offender ASes:",
                diag.matched, diag.routes
            );
            for (asn, n) in diag.top_offenders(5) {
                println!("  {asn:<10} {n} routes");
            }
        }
        if want("pred-op") || want("cov") {
            let refined = evaluate(&model, &validation);
            if want("pred-op") {
                let graph = ctx.dataset.as_graph();
                let base = shortest_path_model(&graph, &ctx.dataset.prefixes());
                let baseline = evaluate(&base, &validation);
                let pred = PredResult {
                    validation_routes: validation.len(),
                    refined: refined.clone(),
                    baseline,
                    train: train.clone(),
                };
                print_pred("E-pred-op (held-out observation points)", &pred);
            }
            if want("cov") {
                print_cov(&refined);
            }
        }
        if want("qr") {
            print_qr(&exp_quasi_router_growth(&model));
        }
    }
    if want("pred-origin") {
        let pred = exp_predict(&ctx, SplitKind::ByOrigin);
        print_pred("E-pred-origin (held-out origin ASes)", &pred);
    }
    if want("gen") {
        let g = exp_generalize(&ctx);
        println!("\n== E-gen (§4.7): per-session MED defaults for unseen prefixes ==");
        println!("defaults installed: {}", g.defaults);
        println!(
            "without: RIB-Out {:.1}% | tie-break {:.1}% | RIB-In {:.1}%",
            100.0 * g.without.counts.rib_out_rate(),
            100.0 * g.without.counts.tie_break_rate(),
            100.0 * g.without.counts.rib_in_rate()
        );
        println!(
            "with   : RIB-Out {:.1}% | tie-break {:.1}% | RIB-In {:.1}%",
            100.0 * g.with.counts.rib_out_rate(),
            100.0 * g.with.counts.tie_break_rate(),
            100.0 * g.with.counts.rib_in_rate()
        );
    }
    if want("pred-both") {
        let pred = exp_predict(&ctx, SplitKind::Combined);
        print_pred("E-pred-both (held-out points x origins)", &pred);
    }
    if want("scale") {
        print_scale(&ctx);
    }
    if want("density") {
        let counts: Vec<usize> = counts.unwrap_or_else(|| match scale {
            Scale::Tiny => vec![5, 10, 20, 40],
            _ => vec![30, 60, 120, 240, 400],
        });
        let pts = exp_density(&ctx, &counts);
        if let Some(dir) = &csv_dir {
            let mut csv =
                String::from("obs_ases,points,training_routes,refined_tie_break,refined_rib_in,baseline_tie_break\n");
            for p in &pts {
                csv.push_str(&format!(
                    "{},{},{},{},{},{}\n",
                    p.observation_ases,
                    p.points,
                    p.training_routes,
                    p.refined_tie_break,
                    p.refined_rib_in,
                    p.baseline_tie_break
                ));
            }
            write_csv(dir, "density.csv", &csv);
        }
        println!("\n== E-density: prediction accuracy vs number of vantage points ==");
        println!(
            "{:>8} {:>7} {:>10} {:>16} {:>12} {:>16}",
            "obs-ASes", "points", "train-rts", "refined tiebrk", "RIB-In", "baseline tiebrk"
        );
        for p in pts {
            println!(
                "{:>8} {:>7} {:>10} {:>15.1}% {:>11.1}% {:>15.1}%",
                p.observation_ases,
                p.points,
                p.training_routes,
                100.0 * p.refined_tie_break,
                100.0 * p.refined_rib_in,
                100.0 * p.baseline_tie_break
            );
        }
    }
    if want("seeds") {
        let seeds: Vec<u64> = (1..=7).map(|i| seed.wrapping_add(i)).collect();
        let r = exp_seed_sensitivity(scale, &seeds);
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
    if want("ablate-single") {
        let (train, pred) = exp_ablate_single_router(&ctx);
        println!("\n== A-1router: refinement without quasi-router duplication ==");
        println!(
            "training RIB-Out: {:.1}% (full model: 100%) | quasi-routers {} -> {}",
            100.0 * train.training_eval.counts.rib_out_rate(),
            train.quasi_routers.0,
            train.quasi_routers.1
        );
        println!(
            "validation tie-break match: {:.1}% (vs {:.1}% baseline)",
            100.0 * pred.refined.counts.tie_break_rate(),
            100.0 * pred.baseline.counts.tie_break_rate()
        );
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
        let (train, pred) = exp_ablate_relationship_seed(&ctx);
        println!("\n== A-agnostic: relationship-seeded start vs agnostic start ==");
        println!(
            "training converged: {} | training RIB-Out: {:.1}%",
            train.converged,
            100.0 * train.training_eval.counts.rib_out_rate()
        );
        println!(
            "validation: RIB-Out {:.1}%, tie-break {:.1}%, RIB-In {:.1}%",
            100.0 * pred.refined.counts.rib_out_rate(),
            100.0 * pred.refined.counts.tie_break_rate(),
            100.0 * pred.refined.counts.rib_in_rate()
        );
    }
}

/// Writes one CSV artifact, creating the directory as needed.
fn write_csv(dir: &str, name: &str, contents: &str) {
    let path = std::path::Path::new(dir).join(name);
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    match quasar_core::persist::atomic_write_bytes(&path, contents.as_bytes()) {
        Ok(()) => eprintln!("# wrote {}", path.display()),
        Err(e) => eprintln!("# cannot write {}: {e}", path.display()),
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: repro [--exp {}|all] [--scale tiny|small|medium|large] [--seed N] [--obs N] [--counts N,N,...] [--csv DIR]",
        EXPERIMENT_IDS.join("|")
    );
    std::process::exit(2)
}

fn print_t0(ctx: &Context) {
    let s = exp_t0(ctx);
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

fn print_fig2(ctx: &Context) {
    let h = exp_fig2(ctx);
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

fn print_t1(ctx: &Context) {
    let q = exp_t1(ctx);
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

fn print_spread(ctx: &Context) {
    let s = exp_prefix_spread(ctx);
    println!("\n== §3.2: prefixes per AS-path ==");
    println!(
        "single-prefix paths {:.1}% (paper: <50%) | busiest path {} prefixes | log-log slope {:?}",
        100.0 * s.single_prefix_fraction(),
        s.max_prefixes(),
        s.log_log_slope().map(|v| (v * 100.0).round() / 100.0)
    );
}

fn print_t2(ctx: &Context) {
    let t = exp_t2(ctx);
    println!("\n== Table 2: single-router-per-AS baselines ==");
    println!(
        "{:<28} {:>14} {:>20}",
        "", "Shortest Path", "Customer/Peering"
    );
    let row = |label: &str, a: f64, b: f64| {
        println!("{label:<28} {:>13.1}% {:>19.1}%", 100.0 * a, 100.0 * b);
    };
    row(
        "AS-paths which agree",
        t.shortest_path.agree,
        t.relationships.agree,
    );
    row(
        "  disagree",
        t.shortest_path.disagree(),
        t.relationships.disagree(),
    );
    row(
        "  .. path not available",
        t.shortest_path.not_available,
        t.relationships.not_available,
    );
    row(
        "  .. shorter path chosen",
        t.shortest_path.shorter_exists,
        t.relationships.shorter_exists,
    );
    row(
        "  .. lowest neighbor id",
        t.shortest_path.tie_break,
        t.relationships.tie_break,
    );
    row(
        "  .. other policy step",
        t.shortest_path.other,
        t.relationships.other,
    );
    println!(
        "(paper: agree 23.5% / 12.5%; not-available 49.4% / 54.5%; shorter 4.7% / 5.7%; tie-break 22.2% / 27.3%)"
    );
    let (cp, pp, sib) = t.inferred_counts;
    println!(
        "inferred relationships: {cp} customer-provider, {pp} peer, {sib} sibling | accuracy vs ground truth {:.1}%",
        100.0 * t.inference_accuracy
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
    let line = |label: &str, ev: &Evaluation| {
        println!(
            "{label:<16} RIB-Out {:>5.1}% | +tie-break {:>5.1}% | RIB-In bound {:>5.1}%",
            100.0 * ev.counts.rib_out_rate(),
            100.0 * ev.counts.tie_break_rate(),
            100.0 * ev.counts.rib_in_rate()
        );
    };
    line("refined model:", &p.refined);
    line("baseline:", &p.baseline);
    println!("(paper: >80% of test cases matched down to the final BGP tie break)");
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

fn print_scale(ctx: &Context) {
    println!("\n== E-scale: per-prefix simulation cost on the initial model ==");
    let p = measure_scale(&ctx.dataset, 200);
    println!(
        "{} ASes | {} routers | {} sessions | {} prefixes sampled",
        p.ases, p.routers, p.sessions, p.prefixes
    );
    println!(
        "mean {:.0} BGP messages, {:.0} us per prefix simulation",
        p.mean_messages, p.mean_micros
    );
    println!("(paper/C-BGP 2006: 16.5k routers, 2-45 min per prefix, 200MB-2GB)");
}
