//! Ground-truth simulation and observation-point sampling.
//!
//! A [`SyntheticInternet`] plays the role of the real Internet in the
//! paper's pipeline: it routes at router level with iBGP/IGP/policies, and
//! we only ever show the model what a route collector would see — the best
//! route each *feed router* would export to a collector session, i.e.
//! `(observation point, prefix, AS-path)` triples (§3.1). Observation ASes
//! are sampled with a bias towards the core ("There are relatively more
//! observation points in the level-1 and level-2 ASes").

use crate::config::NetGenConfig;
use crate::hierarchy::{AsLevelTopology, Tier};
use crate::policies::{
    apply_gao_policies, inject_origin_te, inject_weird_policies, WeirdPolicyRecord,
};
use crate::routers::RouterLevel;
use quasar_bgpsim::aspath::AsPath;
use quasar_bgpsim::network::Network;
use quasar_bgpsim::types::{Asn, Prefix, RouterId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One BGP feed: a collector session to a specific router.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObservationPoint {
    /// Stable feed identifier (index into the feed list).
    pub id: u32,
    /// The router the collector peers with.
    pub router: RouterId,
}

impl ObservationPoint {
    /// The AS hosting this feed.
    pub fn observer_as(&self) -> Asn {
        self.router.asn()
    }
}

/// One observed route: what the collector learned from one feed for one
/// prefix.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RouteObservation {
    /// The feed that saw this route.
    pub point: u32,
    /// The AS hosting the feed.
    pub observer_as: Asn,
    /// The destination prefix.
    pub prefix: Prefix,
    /// The full AS-path, observer's AS first (as a collector records it).
    pub as_path: AsPath,
}

/// The complete synthetic Internet: ground truth plus the feeds derived
/// from it.
#[derive(Debug)]
pub struct SyntheticInternet {
    /// Generator configuration used.
    pub cfg: NetGenConfig,
    /// AS-level ground truth (true relationships included).
    pub as_topology: AsLevelTopology,
    /// Router-level ground-truth network with all policies installed.
    pub network: Network,
    /// Border routers per AS.
    pub routers: BTreeMap<Asn, Vec<RouterId>>,
    /// One prefix per AS, `(prefix, origin)`.
    pub prefixes: Vec<(Prefix, Asn)>,
    /// The sampled feeds.
    pub observation_points: Vec<ObservationPoint>,
    /// Everything the collector saw, sorted by (prefix, point).
    pub observations: Vec<RouteObservation>,
    /// Non-standard policies that were injected (ground-truth bookkeeping).
    pub weird_policies: Vec<WeirdPolicyRecord>,
}

impl SyntheticInternet {
    /// Generates topology, policies, feeds, and runs the ground-truth
    /// simulation for every prefix. Deterministic in `cfg.seed`.
    pub fn generate(cfg: NetGenConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let as_topology = AsLevelTopology::generate(&cfg, &mut rng);
        let rl = RouterLevel::expand(&as_topology, &cfg, &mut rng);
        let RouterLevel {
            mut network,
            routers,
            ebgp_links,
        } = rl;
        let rl_view = RouterLevel {
            network: network.clone(),
            routers: routers.clone(),
            ebgp_links,
        };
        // Prefix plan: one per single-homed origin, several per multihomed
        // origin (real origins announce many prefixes; per-prefix policies
        // need prefixes to differentiate).
        let mut prefixes: Vec<(Prefix, Asn)> = Vec::new();
        for (&asn, g) in &as_topology.ases {
            let (lo, hi) = cfg.prefixes_per_multihomed;
            let k = if g.providers.len() >= 2 {
                rng.gen_range(lo..=hi.max(lo)).min(8)
            } else {
                1
            };
            for n in 0..k {
                prefixes.push((Prefix::for_origin_nth(asn, n), asn));
            }
        }

        apply_gao_policies(&mut network, &as_topology, &rl_view);
        let mut weird_policies = inject_weird_policies(
            &mut network,
            &as_topology,
            &rl_view,
            &cfg,
            &mut rng,
            &prefixes,
        );
        weird_policies.extend(inject_origin_te(
            &mut network,
            &as_topology,
            &rl_view,
            &cfg,
            &mut rng,
            &prefixes,
        ));

        let observation_points = sample_observation_points(&as_topology, &routers, &cfg, &mut rng);

        let observations = collect_observations(&network, &routers, &prefixes, &observation_points);

        SyntheticInternet {
            cfg,
            as_topology,
            network,
            routers,
            prefixes,
            observation_points,
            observations,
            weird_policies,
        }
    }

    /// Distinct observer ASes.
    pub fn observer_ases(&self) -> Vec<Asn> {
        let mut v: Vec<Asn> = self
            .observation_points
            .iter()
            .map(|p| p.observer_as())
            .collect();
        v.sort();
        v.dedup();
        v
    }
}

/// Samples observation ASes with a core bias, then 1..3 feed routers in
/// each.
fn sample_observation_points(
    topo: &AsLevelTopology,
    routers: &BTreeMap<Asn, Vec<RouterId>>,
    cfg: &NetGenConfig,
    rng: &mut StdRng,
) -> Vec<ObservationPoint> {
    // Weighted pool: core ASes appear more often, mirroring the RouteViews/
    // RIPE peer distribution.
    let mut pool: Vec<Asn> = Vec::new();
    for g in topo.ases.values() {
        let w = match g.tier {
            Tier::Tier1 => 8,
            Tier::Tier2 => 4,
            Tier::Tier3 => 2,
            Tier::Stub => 1,
        };
        pool.extend(std::iter::repeat_n(g.asn, w));
    }
    pool.shuffle(rng);
    let mut chosen: Vec<Asn> = Vec::new();
    for a in pool {
        if !chosen.contains(&a) {
            chosen.push(a);
            if chosen.len() >= cfg.num_observation_ases.min(topo.len()) {
                break;
            }
        }
    }
    chosen.sort();

    let mut points = Vec::new();
    for asn in chosen {
        let rs = &routers[&asn];
        let feeds = if rs.len() > 1 && rng.gen_bool(cfg.multi_feed_prob) {
            rng.gen_range(2..=rs.len())
        } else {
            1
        };
        let mut picked: Vec<RouterId> = rs.clone();
        picked.shuffle(rng);
        picked.truncate(feeds);
        picked.sort();
        for r in picked {
            points.push(ObservationPoint {
                id: points.len() as u32,
                router: r,
            });
        }
    }
    points
}

/// Runs the per-prefix ground-truth simulations (in parallel) and extracts
/// what each feed would export to the collector. Output order is
/// deterministic: by (prefix index, point id).
pub fn collect_observations(
    network: &Network,
    routers: &BTreeMap<Asn, Vec<RouterId>>,
    prefixes: &[(Prefix, Asn)],
    points: &[ObservationPoint],
) -> Vec<RouteObservation> {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(prefixes.len().max(1));
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Vec<RouteObservation>> = vec![Vec::new(); prefixes.len()];
    let slot_refs: Vec<parking_lot::Mutex<&mut Vec<RouteObservation>>> =
        slots.iter_mut().map(parking_lot::Mutex::new).collect();

    crossbeam::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|_| loop {
                // sast: relaxed-ok work-claim ticket; results are published through the channel/join, only claim uniqueness matters
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= prefixes.len() {
                    break;
                }
                let (prefix, origin) = prefixes[i];
                let origins = &routers[&origin];
                let res = network
                    .simulate(prefix, origins)
                    .expect("ground-truth simulation converges");
                let mut out = Vec::new();
                for p in points {
                    if let Some(best) = res.best_route(p.router) {
                        // What the feed exports to the collector: its best
                        // route with its own ASN prepended.
                        let as_path = best.as_path.prepend(p.router.asn());
                        out.push(RouteObservation {
                            point: p.id,
                            observer_as: p.observer_as(),
                            prefix,
                            as_path,
                        });
                    }
                }
                **slot_refs[i].lock() = out;
            });
        }
    })
    .expect("worker threads join");

    drop(slot_refs);
    slots.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn internet(seed: u64) -> SyntheticInternet {
        SyntheticInternet::generate(NetGenConfig::tiny(seed))
    }

    #[test]
    fn generation_produces_observations() {
        let net = internet(1);
        assert!(!net.observations.is_empty());
        assert!(!net.observation_points.is_empty());
        // Multihomed origins announce several prefixes.
        assert!(net.prefixes.len() >= net.as_topology.len());
        let origins: std::collections::BTreeSet<Asn> =
            net.prefixes.iter().map(|&(_, o)| o).collect();
        assert_eq!(origins.len(), net.as_topology.len());
    }

    #[test]
    fn observations_start_with_observer_as() {
        let net = internet(2);
        for o in &net.observations {
            assert_eq!(o.as_path.head(), Some(o.observer_as));
            assert!(!o.as_path.has_loop(), "loop in {}", o.as_path);
        }
    }

    #[test]
    fn observations_end_at_prefix_origin() {
        let net = internet(3);
        let by_prefix: BTreeMap<Prefix, Asn> = net.prefixes.iter().copied().collect();
        for o in &net.observations {
            assert_eq!(o.as_path.origin(), Some(by_prefix[&o.prefix]));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = internet(4);
        let b = internet(4);
        assert_eq!(a.observations, b.observations);
        assert_eq!(a.observation_points, b.observation_points);
    }

    #[test]
    fn observer_sampling_respects_count() {
        let net = internet(5);
        assert!(net.observer_ases().len() <= net.cfg.num_observation_ases);
        assert!(!net.observer_ases().is_empty());
    }

    #[test]
    fn some_route_diversity_exists() {
        // The defining phenomenon: at least one (origin, observer AS) pair
        // must see more than one distinct AS-path.
        let net = internet(6);
        let mut by_pair: BTreeMap<(Asn, Asn), Vec<&AsPath>> = BTreeMap::new();
        for o in &net.observations {
            by_pair
                .entry((o.observer_as, o.as_path.origin().unwrap()))
                .or_default()
                .push(&o.as_path);
        }
        let diverse = by_pair
            .values()
            .filter(|paths| {
                let mut v: Vec<_> = paths.iter().collect();
                v.sort();
                v.dedup();
                v.len() > 1
            })
            .count();
        assert!(diverse > 0, "no route diversity generated");
    }
}
