//! Prediction-failure diagnostics.
//!
//! The paper's metrics say *how often* prediction fails; operators also
//! need to know *where*. This module attributes each validation mismatch
//! to the AS closest to the origin at which the observed path's suffix
//! stops being selected in the model — "the AS which is closest to the
//! originating AS with a discrepancy" (§4.6), reused as an analysis lens.

use crate::metrics::{match_level, MatchLevel};
use crate::model::AsRoutingModel;
use crate::observed::{Dataset, ObservedRoute};
use quasar_bgpsim::engine::SimulationResult;
use quasar_bgpsim::types::{Asn, Prefix};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Where and how often the model loses observed paths.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MismatchDiagnostics {
    /// Per AS: number of validation routes whose reproduction first breaks
    /// at that AS.
    pub first_failure_at: BTreeMap<Asn, usize>,
    /// Routes examined.
    pub routes: usize,
    /// Routes fully matched (no failure point).
    pub matched: usize,
}

impl MismatchDiagnostics {
    /// The worst offenders, descending by failure count.
    pub fn top_offenders(&self, n: usize) -> Vec<(Asn, usize)> {
        let mut v: Vec<(Asn, usize)> = self
            .first_failure_at
            .iter()
            .map(|(&a, &c)| (a, c))
            .collect();
        v.sort_by_key(|&(a, c)| (std::cmp::Reverse(c), a));
        v.truncate(n);
        v
    }
}

/// Attributes every non-reproduced route of `dataset` to its first failing
/// AS. One simulation per prefix, in parallel; the tally does not depend
/// on the order in which prefixes finish.
pub fn diagnose(model: &AsRoutingModel, dataset: &Dataset) -> MismatchDiagnostics {
    let mut by_prefix: BTreeMap<Prefix, Vec<&ObservedRoute>> = BTreeMap::new();
    for r in dataset.routes() {
        by_prefix.entry(r.prefix).or_default().push(r);
    }
    let mut out = MismatchDiagnostics::default();
    let tallied: Result<(), std::convert::Infallible> = crate::pool::run(
        crate::pool::all_cores(),
        by_prefix.into_iter().collect(),
        |(prefix, routes), scratch| {
            let res = match model.prefixes().contains_key(&prefix) {
                true => model.simulate_with(prefix, scratch).ok(),
                false => None,
            };
            diagnose_prefix(model, res.as_ref(), &routes)
        },
        |_, part| {
            out.routes += part.routes;
            out.matched += part.matched;
            for (asn, n) in part.first_failure_at {
                *out.first_failure_at.entry(asn).or_default() += n;
            }
            Ok(())
        },
    );
    let Ok(()) = tallied;
    out
}

/// [`diagnose`] for the routes of one prefix, given its simulation (`None`
/// for a prefix the model does not route).
fn diagnose_prefix(
    model: &AsRoutingModel,
    res: Option<&SimulationResult>,
    routes: &[&ObservedRoute],
) -> MismatchDiagnostics {
    let mut out = MismatchDiagnostics::default();
    for r in routes {
        out.routes += 1;
        let Some(res) = res else {
            // Unknown prefix: attribute to the origin AS.
            if let Some(o) = r.as_path.origin() {
                *out.first_failure_at.entry(o).or_default() += 1;
            }
            continue;
        };
        // Walk suffixes origin-first; the first AS whose suffix is not
        // RIB-Out matched is the failure point.
        let mut failed_at: Option<Asn> = None;
        for n in 1..=r.as_path.len() {
            let suffix = r.as_path.suffix(n);
            let Some(asn) = suffix.head() else {
                continue; // unreachable: a length-n suffix with n >= 1
            };
            let routers = model.quasi_routers_of(asn);
            if match_level(res, &routers, &suffix) != MatchLevel::RibOut {
                failed_at = Some(asn);
                break;
            }
        }
        match failed_at {
            Some(asn) => *out.first_failure_at.entry(asn).or_default() += 1,
            None => out.matched += 1,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observed::ObservedRoute;
    use crate::refine::{refine, RefineConfig};
    use quasar_bgpsim::aspath::AsPath;

    fn dataset(routes: &[(&[u32], u32, u32)]) -> Dataset {
        Dataset::new(routes.iter().map(|&(p, origin, point)| ObservedRoute {
            point,
            observer_as: Asn(p[0]),
            prefix: Prefix::for_origin(Asn(origin)),
            as_path: AsPath::from_u32s(p),
        }))
    }

    #[test]
    fn trained_model_has_no_failures_on_training() {
        let d = dataset(&[(&[1, 2, 3], 3, 0), (&[1, 4, 3], 3, 0)]);
        let mut model = AsRoutingModel::initial(&d.as_graph(), &d.prefixes());
        refine(&mut model, &d, &RefineConfig::default()).unwrap();
        let diag = diagnose(&model, &d);
        assert_eq!(diag.matched, diag.routes);
        assert!(diag.first_failure_at.is_empty());
    }

    #[test]
    fn untrained_tie_break_loser_attributed_to_observer() {
        // Diamond: AS1's default pick is 2-3; the observed 1-4-3 fails
        // first at AS1 (AS4 itself reproduces fine).
        let d = dataset(&[(&[1, 2, 3], 3, 0), (&[1, 4, 3], 3, 0)]);
        let model = AsRoutingModel::initial(&d.as_graph(), &d.prefixes());
        let diag = diagnose(&model, &d);
        assert_eq!(diag.routes, 2);
        assert_eq!(diag.matched, 1);
        assert_eq!(diag.first_failure_at.get(&Asn(1)), Some(&1));
    }

    #[test]
    fn unknown_prefix_attributed_to_origin() {
        let d = dataset(&[(&[1, 2], 2, 0)]);
        let model = AsRoutingModel::initial(&d.as_graph(), &d.prefixes());
        let other = dataset(&[(&[1, 999], 999, 0)]);
        let diag = diagnose(&model, &other);
        assert_eq!(diag.first_failure_at.get(&Asn(999)), Some(&1));
    }

    #[test]
    fn diagnostics_serde_round_trip() {
        let mut diag = MismatchDiagnostics {
            routes: 12,
            matched: 9,
            ..Default::default()
        };
        diag.first_failure_at.insert(Asn(7), 2);
        diag.first_failure_at.insert(Asn(701), 1);
        let json = serde_json::to_string(&diag).unwrap();
        let back: MismatchDiagnostics = serde_json::from_str(&json).unwrap();
        assert_eq!(back, diag);
        assert_eq!(back.top_offenders(10), diag.top_offenders(10));
    }

    #[test]
    fn top_offenders_truncates_to_n() {
        let mut diag = MismatchDiagnostics::default();
        for a in 1..=10u32 {
            diag.first_failure_at.insert(Asn(a), a as usize);
        }
        let top = diag.top_offenders(3);
        assert_eq!(top, vec![(Asn(10), 10), (Asn(9), 9), (Asn(8), 8)]);
    }

    #[test]
    fn top_offenders_sorted() {
        let mut diag = MismatchDiagnostics::default();
        diag.first_failure_at.insert(Asn(1), 3);
        diag.first_failure_at.insert(Asn(2), 7);
        diag.first_failure_at.insert(Asn(3), 7);
        assert_eq!(
            diag.top_offenders(2),
            vec![(Asn(2), 7), (Asn(3), 7)],
            "descending count, ascending ASN on ties"
        );
    }
}
