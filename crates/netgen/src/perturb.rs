//! Seeded routing perturbations and before/after update streams.
//!
//! The streaming pipeline (`quasar-stream`) needs deterministic ground
//! truth: an update file whose final state is known exactly, so the
//! incrementally-maintained model can be compared against a from-scratch
//! retrain. This module produces that ground truth from one synthetic
//! Internet:
//!
//! * [`perturb_observations`] derives an "after" observation set from a
//!   "before" set by applying seeded **graph-preserving path shifts**: a
//!   feed switches to an alternative route for one prefix (the observable
//!   effect of a link flap upstream), and the shift is kept only if it
//!   neither adds nor removes an AS-graph edge. Every prefix keeps its
//!   origin;
//! * [`transition_stream`] renders the before→after difference as a valid
//!   MRT archive: the before-RIB as a TABLE_DUMP_V2 dump plus one BGP4MP
//!   UPDATE per changed `(feed, prefix)` route, timestamp-ordered, both
//!   built by the shared writers in [`crate::mrt_io`].
//!
//! Replaying the stream through [`crate::updates::reconstruct_stable`]
//! (or the live pipeline) recovers exactly the after set. Because the AS
//! graph and the origin map stay the same, the perturbed set exercises the
//! incremental trainer's fast path: only the shifted prefixes retrain.

use crate::mrt_io::{update_record, write_rib_dump};
use crate::observe::{ObservationPoint, RouteObservation};
use crate::updates::UpdateStreamConfig;
use quasar_bgpsim::aspath::AsPath;
use quasar_bgpsim::types::{Asn, Prefix};
use quasar_mrt::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// How many path shifts to attempt. Each is best-effort: a shift that
/// would add or remove an AS-graph edge, or finds no donor path, is
/// skipped.
#[derive(Debug, Clone, Copy)]
pub struct PerturbationConfig {
    /// Feeds that switch to an alternative path for one prefix.
    pub path_shifts: usize,
}

impl PerturbationConfig {
    /// A config applying up to `path_shifts` graph-preserving path
    /// shifts — the after set has the same AS graph and origins, so the
    /// incremental trainer retrains nothing but the shifted prefixes.
    pub fn graph_preserving(path_shifts: usize) -> Self {
        PerturbationConfig { path_shifts }
    }
}

/// What [`perturb_observations`] did, with the after set and the exact
/// ground truth the delta detector must recover.
#[derive(Debug, Clone)]
pub struct Perturbation {
    /// The perturbed observation set, sorted by (prefix, point).
    pub after: Vec<RouteObservation>,
    /// Applied path shifts: `(feed, prefix)` routes now on a new path.
    pub shifted: Vec<(u32, Prefix)>,
    /// Every prefix whose observed routes differ from before, ascending.
    pub dirty_prefixes: Vec<Prefix>,
}

/// Undirected edge key.
fn edge_key(a: Asn, b: Asn) -> (Asn, Asn) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Multiset of AS-graph edges over an observation set.
fn edge_counts(obs: &BTreeMap<(u32, Prefix), AsPath>) -> BTreeMap<(Asn, Asn), usize> {
    let mut counts: BTreeMap<(Asn, Asn), usize> = BTreeMap::new();
    for path in obs.values() {
        for (a, b) in path.edges() {
            *counts.entry(edge_key(a, b)).or_insert(0) += 1;
        }
    }
    counts
}

/// Applies seeded graph-preserving path shifts to `before` and returns
/// the perturbed set plus ground truth about what changed. Deterministic
/// in `seed`. Shifts that would change the AS graph (or find no viable
/// donor) are skipped, so the returned ground truth — not the requested
/// count — is authoritative.
pub fn perturb_observations(
    points: &[ObservationPoint],
    before: &[RouteObservation],
    cfg: &PerturbationConfig,
    seed: u64,
) -> Perturbation {
    perturb_at(points, before, cfg, seed, None)
}

/// Like [`perturb_observations`], but path shifts are drawn only from a
/// contiguous block of the ascending prefix list: `block = (start, len)`
/// over the distinct-prefix index space. A contiguous dirty block maps to
/// a contiguous run of refinement domains, which is how the stream bench
/// measures the incremental speedup at a bounded dirty fraction.
pub fn perturb_observations_in_block(
    points: &[ObservationPoint],
    before: &[RouteObservation],
    cfg: &PerturbationConfig,
    seed: u64,
    block: (usize, usize),
) -> Perturbation {
    perturb_at(points, before, cfg, seed, Some(block))
}

fn perturb_at(
    points: &[ObservationPoint],
    before: &[RouteObservation],
    cfg: &PerturbationConfig,
    seed: u64,
    block: Option<(usize, usize)>,
) -> Perturbation {
    let mut rng = StdRng::seed_from_u64(seed);
    let point_as: BTreeMap<u32, Asn> = points.iter().map(|p| (p.id, p.observer_as())).collect();

    // Working state: (feed, prefix) -> path.
    let mut state: BTreeMap<(u32, Prefix), AsPath> = before
        .iter()
        .map(|o| ((o.point, o.prefix), o.as_path.clone()))
        .collect();
    let mut counts = edge_counts(&state);
    let prefixes: BTreeSet<Prefix> = state.keys().map(|(_, p)| *p).collect();
    let eligible: BTreeSet<Prefix> = match block {
        Some((start, len)) => prefixes.into_iter().skip(start).take(len).collect(),
        None => prefixes,
    };

    let mut shifted: Vec<(u32, Prefix)> = Vec::new();
    let mut dirty: BTreeSet<Prefix> = BTreeSet::new();

    // A feed abandons its current path for `prefix` and re-learns the
    // route over a different first hop — the observable effect of a link
    // flap or a policy change upstream. The new path is spliced from
    // another feed's path for the same prefix (so it ends at the same
    // origin), re-headed with this feed's observer AS; it is only applied
    // if the splice edge already exists in the graph and dropping the old
    // path leaves every one of its edges covered elsewhere.
    let mut shift_candidates: Vec<(u32, Prefix)> = state
        .keys()
        .filter(|(_, p)| eligible.contains(p))
        .copied()
        .collect();
    shift_candidates.shuffle(&mut rng);
    for (feed, prefix) in shift_candidates {
        if shifted.len() >= cfg.path_shifts {
            break;
        }
        let Some(observer) = point_as.get(&feed).copied() else {
            continue;
        };
        let old = state[&(feed, prefix)].clone();
        // Donor tails for the same prefix from other feeds.
        let mut donors: Vec<AsPath> = state
            .iter()
            .filter(|((f, p), _)| *p == prefix && *f != feed)
            .map(|(_, path)| path.clone())
            .collect();
        donors.shuffle(&mut rng);
        let Some(new_path) = donors.iter().find_map(|donor| {
            let tail: Vec<Asn> = donor.iter().skip(1).collect();
            let candidate = if donor.head() == Some(observer) {
                donor.clone()
            } else {
                let first = *tail.first()?;
                if counts.get(&edge_key(observer, first)).copied().unwrap_or(0) == 0 {
                    return None; // splice edge would be new
                }
                let mut asns = Vec::with_capacity(tail.len() + 1);
                asns.push(observer);
                asns.extend(tail.iter().copied());
                AsPath::new(asns)
            };
            if candidate == old || candidate.has_loop() {
                return None;
            }
            // Dropping `old` must not remove any graph edge: every edge
            // needs a second user or coverage by the candidate.
            let candidate_edges: BTreeSet<(Asn, Asn)> =
                candidate.edges().map(|(a, b)| edge_key(a, b)).collect();
            let safe = old.edges().all(|(a, b)| {
                let k = edge_key(a, b);
                counts.get(&k).copied().unwrap_or(0) >= 2 || candidate_edges.contains(&k)
            });
            safe.then_some(candidate)
        }) else {
            continue;
        };
        for (a, b) in old.edges() {
            if let Some(c) = counts.get_mut(&edge_key(a, b)) {
                *c = c.saturating_sub(1);
            }
        }
        for (a, b) in new_path.edges() {
            *counts.entry(edge_key(a, b)).or_insert(0) += 1;
        }
        state.insert((feed, prefix), new_path);
        shifted.push((feed, prefix));
        dirty.insert(prefix);
    }

    let after: Vec<RouteObservation> = state
        .into_iter()
        .map(|((point, prefix), as_path)| RouteObservation {
            point,
            observer_as: point_as.get(&point).copied().unwrap_or(Asn::RESERVED),
            prefix,
            as_path,
        })
        .collect();
    Perturbation {
        after,
        shifted,
        dirty_prefixes: dirty.into_iter().collect(),
    }
}

/// Renders the before→after transition as an MRT archive: the peer table
/// and the *before* RIB at `cfg.dump_time`, then one BGP4MP UPDATE per
/// changed `(feed, prefix)` route — withdrawals for routes that vanish,
/// announcements for routes that appear or change — at seeded timestamps
/// inside the stable window (so
/// [`reconstruct_stable`](crate::updates::reconstruct_stable) at
/// `cfg.snapshot_time` recovers exactly the after set). Records are
/// timestamp-ordered after the dump.
pub fn transition_stream(
    points: &[ObservationPoint],
    before: &[RouteObservation],
    after: &[RouteObservation],
    cfg: &UpdateStreamConfig,
    seed: u64,
) -> Vec<MrtRecord> {
    assert!(
        cfg.dump_time < cfg.snapshot_time,
        "dump must precede snapshot"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut records = Vec::new();
    write_rib_dump(
        points,
        before,
        "quasar-transition",
        cfg.dump_time,
        cfg.dump_time,
        |r| records.push(r),
    );

    // The diff, one update per changed route, inside the stable window.
    let before_map: BTreeMap<(u32, Prefix), &AsPath> = before
        .iter()
        .map(|o| ((o.point, o.prefix), &o.as_path))
        .collect();
    let after_map: BTreeMap<(u32, Prefix), &AsPath> = after
        .iter()
        .map(|o| ((o.point, o.prefix), &o.as_path))
        .collect();
    let cutoff = cfg.snapshot_time.saturating_sub(cfg.stability_window);
    assert!(cfg.dump_time + 1 < cutoff, "no room inside stable window");
    let point_by_id: BTreeMap<u32, &ObservationPoint> = points.iter().map(|p| (p.id, p)).collect();
    let mut updates: Vec<MrtRecord> = Vec::new();
    let mut push_update = |(feed, prefix): (u32, Prefix), path: Option<&AsPath>| {
        if let Some(p) = point_by_id.get(&feed) {
            let t = rng.gen_range(cfg.dump_time + 1..cutoff);
            updates.push(update_record(t, p, prefix, path));
        }
    };
    for &key in before_map.keys() {
        if !after_map.contains_key(&key) {
            push_update(key, None);
        }
    }
    for (&key, &path) in &after_map {
        if before_map.get(&key) != Some(&path) {
            push_update(key, Some(path));
        }
    }
    updates.sort_by_key(|r| r.timestamp);
    records.extend(updates);
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetGenConfig;
    use crate::observe::SyntheticInternet;
    use crate::updates::reconstruct_stable;

    fn sorted_keys(obs: &[RouteObservation]) -> Vec<(u32, Prefix, String)> {
        let mut v: Vec<_> = obs
            .iter()
            .map(|o| (o.point, o.prefix, o.as_path.to_string()))
            .collect();
        v.sort();
        v.dedup();
        v
    }

    fn graph_and_origins(
        obs: &[RouteObservation],
    ) -> (BTreeSet<(Asn, Asn)>, BTreeMap<Prefix, Asn>) {
        let mut edges = BTreeSet::new();
        let mut origins = BTreeMap::new();
        for o in obs {
            for (a, b) in o.as_path.edges() {
                edges.insert(edge_key(a, b));
            }
            if let Some(or) = o.as_path.origin() {
                origins.insert(o.prefix, or);
            }
        }
        (edges, origins)
    }

    #[test]
    fn graph_preserving_shifts_keep_graph_and_origins() {
        let net = SyntheticInternet::generate(NetGenConfig::tiny(41));
        let cfg = PerturbationConfig::graph_preserving(6);
        let p = perturb_observations(&net.observation_points, &net.observations, &cfg, 7);
        assert!(!p.shifted.is_empty(), "no shift candidates found at all");
        let keys = |obs: &[RouteObservation]| -> Vec<(u32, Prefix)> {
            obs.iter().map(|o| (o.point, o.prefix)).collect()
        };
        assert_eq!(
            keys(&net.observations).into_iter().collect::<BTreeSet<_>>(),
            keys(&p.after).into_iter().collect::<BTreeSet<_>>(),
            "a shift neither withdraws nor adds a route"
        );
        let (e0, o0) = graph_and_origins(&net.observations);
        let (e1, o1) = graph_and_origins(&p.after);
        assert_eq!(e0, e1, "AS graph must be unchanged");
        assert_eq!(o0, o1, "origin map must be unchanged");
        assert_eq!(
            p.dirty_prefixes,
            p.shifted
                .iter()
                .map(|(_, pfx)| *pfx)
                .collect::<BTreeSet<_>>()
                .into_iter()
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn transition_stream_replays_to_the_after_set() {
        let net = SyntheticInternet::generate(NetGenConfig::tiny(43));
        // A hand-built after set over the (feed, prefix)-ordered routes:
        // every 7th route is withdrawn, every 5th moves to the path its
        // feed has for the previous prefix, and one new prefix appears.
        let by_route: BTreeMap<(u32, Prefix), &RouteObservation> = net
            .observations
            .iter()
            .map(|o| ((o.point, o.prefix), o))
            .collect();
        let routes: Vec<&RouteObservation> = by_route.into_values().collect();
        let mut after: Vec<RouteObservation> = Vec::new();
        let (mut withdrawn, mut changed) = (0usize, 0usize);
        for (i, o) in routes.iter().enumerate() {
            if i % 7 == 3 {
                withdrawn += 1;
                continue;
            }
            let mut o = (*o).clone();
            if let Some(prev) = routes[..i]
                .last()
                .filter(|prev| i % 5 == 1 && prev.point == o.point && prev.as_path != o.as_path)
            {
                o.as_path = prev.as_path.clone();
                changed += 1;
            }
            after.push(o);
        }
        let fresh = Prefix::new(0xC633_6400, 24);
        assert!(routes.iter().all(|o| o.prefix != fresh));
        after.push(RouteObservation {
            prefix: fresh,
            ..routes[0].clone()
        });
        assert!(withdrawn > 0 && changed > 0);

        let ucfg = UpdateStreamConfig::default();
        let recs = transition_stream(
            &net.observation_points,
            &net.observations,
            &after,
            &ucfg,
            10,
        );
        let (_, obs) = reconstruct_stable(&recs, ucfg.snapshot_time, ucfg.stability_window);
        assert_eq!(sorted_keys(&obs), sorted_keys(&after));
        // One withdrawal per vanished route, one announcement per changed
        // or new one.
        let (mut withdrawals, mut announcements) = (0, 0);
        for r in &recs {
            if let MrtBody::Bgp4mp(m) = &r.body {
                if let BgpMessage::Update(u) = &m.message {
                    withdrawals += u.withdrawn.len();
                    announcements += u.announced.len();
                }
            }
        }
        assert_eq!(withdrawals, withdrawn);
        assert_eq!(announcements, changed + 1);
    }

    #[test]
    fn transition_stream_round_trips_through_bytes() {
        let net = SyntheticInternet::generate(NetGenConfig::tiny(44));
        let pcfg = PerturbationConfig::graph_preserving(4);
        let p = perturb_observations(&net.observation_points, &net.observations, &pcfg, 11);
        let ucfg = UpdateStreamConfig::default();
        let recs = transition_stream(
            &net.observation_points,
            &net.observations,
            &p.after,
            &ucfg,
            12,
        );
        let mut w = MrtWriter::new(Vec::new());
        for r in &recs {
            w.write_record(r).unwrap();
        }
        let bytes = w.finish().unwrap();
        let back = MrtReader::new(&bytes[..]).read_all().unwrap();
        assert_eq!(back, recs);
    }

    #[test]
    fn block_perturbation_stays_inside_the_block() {
        let net = SyntheticInternet::generate(NetGenConfig::tiny(45));
        let all: BTreeSet<Prefix> = net.observations.iter().map(|o| o.prefix).collect();
        let prefixes: Vec<Prefix> = all.into_iter().collect();
        let block = (2usize, 5usize);
        let allowed: BTreeSet<Prefix> = prefixes
            .iter()
            .skip(block.0)
            .take(block.1)
            .copied()
            .collect();
        let cfg = PerturbationConfig::graph_preserving(100);
        let p = perturb_observations_in_block(
            &net.observation_points,
            &net.observations,
            &cfg,
            13,
            block,
        );
        for d in &p.dirty_prefixes {
            assert!(allowed.contains(d), "{d} escaped the block");
        }
    }
}
