//! # quasar-bgpsim — a per-prefix steady-state BGP simulator
//!
//! A from-scratch reimplementation of the simulation substrate the paper
//! *"Building an AS-topology model that captures route diversity"*
//! (Mühlbauer et al., SIGCOMM 2006) obtains from C-BGP: given a topology of
//! (quasi-)routers connected by eBGP/iBGP sessions with per-session
//! import/export policies, compute the steady-state BGP routing for one
//! prefix at a time.
//!
//! The crate is deliberately synchronous and allocation-light: simulating a
//! prefix over tens of thousands of routers is a CPU-bound graph
//! computation, so the engine is a deterministic sweep loop rather than an
//! async system.
//!
//! ## Feature inventory
//!
//! Implemented:
//! * full BGP decision process (local-origination, local-pref, AS-path
//!   length, origin, MED in always-compare and per-neighbor modes,
//!   eBGP>iBGP, IGP cost / hot-potato, lowest-router-id tie-break) with
//!   per-candidate elimination-step tracking;
//! * eBGP with loop detection, attribute scrubbing, split horizon;
//! * iBGP full mesh and RFC 4456 route reflection (client marking,
//!   ORIGINATOR_ID loop prevention);
//! * RFC 1997 communities, transitive, with engine-honored NO_EXPORT and
//!   NO_ADVERTISE;
//! * ordered import/export policy chains (prefix / neighbor / origin /
//!   path-length / local-pref / community matchers; deny, accept,
//!   set-local-pref, set-MED, add/remove-community actions);
//! * per-AS IGP (Dijkstra) for hot-potato costing;
//! * deterministic Gauss-Seidel propagation with divergence detection
//!   (BAD GADGET is caught; DISAGREE converges);
//! * serde persistence of networks and policies.
//!
//! Deliberately **not** modeled (out of the paper's scope):
//! * timers, MRAI, route flap damping, graceful restart — the engine
//!   computes the converged steady state only (§1: "we model the
//!   equilibrium behavior of this system");
//! * CLUSTER_LIST (avoid reflector cycles; ORIGINATOR_ID is enforced);
//! * multipath/add-path, confederations, prefix aggregation;
//! * TCP/session liveness — sessions are always up.
//!
//! ## Layers
//! * [`types`] — [`types::Asn`], [`types::RouterId`] (the paper's
//!   `ASN << 16 | index` encoding), [`types::Prefix`].
//! * [`aspath`] — AS-path manipulation: prepending, loops, suffix walks.
//! * [`route`] — attributed routes (local-pref, MED, origin, IGP cost).
//! * [`policy`] — ordered match/action rule chains for import/export.
//! * [`decision`] — the full BGP decision process with per-candidate
//!   elimination-step tracking (needed for the paper's "potential RIB-Out
//!   match" metric).
//! * [`igp`] — Dijkstra shortest paths for hot-potato costing.
//! * [`network`] — routers + sessions + policies.
//! * [`engine`] — the per-prefix propagation loop, the converged
//!   [`engine::SimulationResult`] and its run counters
//!   ([`engine::SimStats`]: messages, activations, best-route changes).
//!
//! ## Example
//! ```
//! use quasar_bgpsim::prelude::*;
//!
//! // AS1 --- AS2 --- AS3 (origin)
//! let mut net = Network::new(DecisionConfig::default());
//! let (r1, r2, r3) = (
//!     net.add_router(RouterId::new(Asn(1), 0)),
//!     net.add_router(RouterId::new(Asn(2), 0)),
//!     net.add_router(RouterId::new(Asn(3), 0)),
//! );
//! net.add_session(r1, r2, SessionKind::Ebgp).unwrap();
//! net.add_session(r2, r3, SessionKind::Ebgp).unwrap();
//!
//! let prefix = Prefix::for_origin(Asn(3));
//! let result = net.simulate(prefix, &[r3]).unwrap();
//! assert_eq!(result.best_route(r1).unwrap().as_path.to_string(), "2 3");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must surface failures as typed errors (or `expect` with an
// invariant message, annotated at the use site); unit tests are exempt.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod aspath;
pub mod decision;
pub mod engine;
pub mod error;
#[cfg(feature = "testkit")]
pub mod fail;
pub mod igp;
pub mod network;
pub mod policy;
pub mod route;
pub mod types;

/// Convenient glob-import of the commonly used names.
pub mod prelude {
    pub use crate::aspath::{AsPath, AsPathPattern};
    pub use crate::decision::{decide, DecisionConfig, DecisionOutcome, MedMode, Step};
    pub use crate::engine::{RouterRib, SimStats, SimulationResult};
    pub use crate::error::SimError;
    pub use crate::igp::{IgpCosts, IgpTopology};
    pub use crate::network::{
        DirectionPolicies, Network, Session, SessionDirectionView, SessionKind,
    };
    pub use crate::policy::{Action, Policy, PolicyRule, RouteMatch};
    pub use crate::route::{
        LearnedVia, Origin, Route, DEFAULT_LOCAL_PREF, NO_ADVERTISE, NO_EXPORT,
    };
    pub use crate::types::{Asn, Prefix, RouterId};
}
