//! Per-prefix steady-state route propagation.
//!
//! This is the C-BGP-equivalent core (§2, §4.1 of the paper): it "models
//! the propagation of BGP messages and reproduces the selection performed
//! by each router", computing "the steady-state choice of the BGP routers
//! after the exchange of the BGP messages has converged". There is no
//! timer/MRAI machinery — routers are activated sequentially in a fixed
//! (Gauss-Seidel) order, each draining a latest-update-wins inbox, so a
//! given (network, prefix, origins) triple always converges to the same
//! RIBs, and instances with several stable solutions (DISAGREE) settle
//! deterministically instead of oscillating.
//!
//! Semantics implemented:
//! * **Announce/implicit-withdraw per session**: a session carries at most
//!   one current route per direction; a new announcement replaces it, a
//!   withdraw removes it.
//! * **Import**: eBGP loop detection (own ASN in path), then the import
//!   policy chain; denied or looped updates clear the session's RIB-In
//!   entry.
//! * **Export**: sender-side split horizon (never echo the best route back
//!   over the session it was learned from), iBGP full-mesh rule (never
//!   re-advertise an iBGP-learned route over iBGP), then the export policy
//!   chain applied to the Loc-RIB form of the route (i.e. *before* the
//!   sender's ASN is prepended), then eBGP attribute scrubbing (prepend own
//!   ASN, reset local-pref, clear the non-transitive MED).
//! * **Hot-potato input**: routes received over iBGP are costed with the
//!   IGP distance from the receiver to the announcing border router.
//!
//! Allocation: a run on a laid-out [`SimScratch`] allocates only for what
//! its result hands back and for new paths.
//! * An activation picks its winner over borrowed candidates without
//!   allocating (`decision::best_of`) and clones the winner only when it
//!   changed.
//! * A best change builds at most one new path: the router's ASN is
//!   prepended once and the shared path goes out over every eBGP session
//!   of the fan-out, since export policies never rewrite the path.
//! * Import runs the policy chain on the update it already owns.
//! * A plain run moves the converged candidates out of the scratch into
//!   its result instead of cloning them, and records only each router's
//!   winner; the full decision outcome is computed when first asked for
//!   ([`RouterRib::outcome`]). The scratch is reused only for the
//!   adjacency it was laid out for (see [`SimScratch`]).
//!
//! Warm start: a run through [`Network::simulate_kept`] or
//! [`Network::resimulate`] leaves its converged per-slot state in the
//! scratch and clones the candidates (the paths are shared `Arc`s) into
//! its result. [`Network::resimulate`] then re-converges the same prefix
//! on the same adjacency after a policy edit: it re-exports over the
//! directed sessions whose policies changed and runs the same
//! Gauss-Seidel loop, under the same `engine.simulate` failpoint and
//! message budget, rebuilding only the RIBs of the routers it activated.
//! It equals a cold run only where the stable state is unique; the
//! contract is on [`Network::resimulate`].

use crate::aspath::AsPath;
use crate::decision::{best_of, decide, DecisionConfig, DecisionOutcome};
use crate::error::SimError;
use crate::network::{Network, SessionKind};
use crate::route::{LearnedVia, Route, DEFAULT_LOCAL_PREF, NO_ADVERTISE, NO_EXPORT};
use crate::types::{Prefix, RouterId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Counters describing one simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// BGP messages delivered (announcements + withdraws).
    pub messages: u64,
    /// Messages suppressed because they duplicated the last one sent on
    /// that session direction.
    pub suppressed: u64,
    /// High-water mark of the message queue.
    pub peak_queue: usize,
    /// Router activations (inbox drains followed by a decision). A warm
    /// run rebuilds the RIBs of the routers it activated, no others.
    pub activations: u64,
    /// Activations whose decision changed the router's best route; each
    /// builds at most one new path.
    pub best_changes: u64,
    /// Whether the run started from a kept steady state
    /// ([`Network::resimulate`]) rather than from empty RIBs.
    pub warm: bool,
}

/// Final state of one router after convergence.
#[derive(Debug, Clone)]
pub struct RouterRib {
    /// The router.
    pub router: RouterId,
    /// Post-import candidate routes: the locally originated route (if any)
    /// first, then the per-session Adj-RIB-In entries in deterministic
    /// peer-sorted (adjacency) order.
    pub candidates: Vec<Route>,
    /// Index of the selected best route in `candidates`.
    best: Option<usize>,
    /// The decision process `candidates` were ranked with.
    cfg: DecisionConfig,
    /// The full decision outcome, computed on first use.
    outcome: OnceLock<DecisionOutcome>,
}

impl RouterRib {
    /// The selected best route, if any.
    pub fn best(&self) -> Option<&Route> {
        self.best.map(|i| &self.candidates[i])
    }

    /// Decision-process outcome over `candidates`, including the step at
    /// which each losing candidate was eliminated. Simulation records only
    /// the winner, so the first call runs the decision process and later
    /// calls reuse its outcome.
    pub fn outcome(&self) -> &DecisionOutcome {
        self.outcome
            .get_or_init(|| decide(&self.candidates, &self.cfg))
    }

    /// Renders a human-readable account of the decision at this router:
    /// every candidate with its attributes and the step that eliminated
    /// it. Useful when debugging why a model disagrees with an observed
    /// route.
    pub fn explain(&self) -> String {
        use std::fmt::Write;
        let outcome = self.outcome();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}: {} candidate(s)",
            self.router,
            self.candidates.len()
        );
        for (i, c) in self.candidates.iter().enumerate() {
            let verdict = match outcome.eliminated_at[i] {
                None => "BEST".to_string(),
                Some(step) => format!("lost at {step:?}"),
            };
            let path = if c.as_path.is_empty() {
                "(local)".to_string()
            } else {
                c.as_path.to_string()
            };
            let from = c
                .from_router
                .map(|r| r.to_string())
                .unwrap_or_else(|| "local".into());
            let _ = writeln!(
                out,
                "  [{i}] path [{path}] from {from} lp={} med={:?} origin={:?} {:?} igp={} -> {verdict}",
                c.local_pref, c.med, c.origin, c.learned, c.igp_cost
            );
        }
        out
    }
}

/// Converged per-prefix routing state for every router of the network.
#[derive(Debug, Clone)]
pub struct SimulationResult {
    /// The simulated prefix.
    pub prefix: Prefix,
    index: Arc<HashMap<RouterId, usize>>,
    ribs: Vec<RouterRib>,
    /// Run counters.
    pub stats: SimStats,
    /// The id of the run that produced this result, when a scratch kept
    /// its converged state for [`Network::resimulate`].
    run: Option<u64>,
}

impl SimulationResult {
    /// RIB state of `router`, if it exists.
    pub fn rib(&self, router: RouterId) -> Option<&RouterRib> {
        self.index.get(&router).map(|&i| &self.ribs[i])
    }

    /// The best route selected by `router`.
    pub fn best_route(&self, router: RouterId) -> Option<&Route> {
        self.rib(router).and_then(|r| r.best())
    }

    /// Iterates over all router RIBs.
    pub fn ribs(&self) -> impl Iterator<Item = &RouterRib> {
        self.ribs.iter()
    }
}

/// Reusable per-worker simulation buffers.
///
/// One steady-state run needs O(routers + adjacency) of vector state; a
/// fresh `SimScratch` allocates it, and every later simulation on a network
/// with the same adjacency clears the buffers in place instead of
/// reallocating. The buffers are keyed on the adjacency itself (a copy of
/// `Network::adj`, compared in O(sessions) per run), not on router and
/// session counts: two networks of equal counts can wire their sessions
/// differently, and a slot table sized for one would index out of bounds
/// in the other. Refinement workers keep one scratch each across all the
/// prefix simulations they execute — the dominant allocation saving of the
/// sharded refinement scheduler.
///
/// The scratch also holds state between runs. [`Network::simulate_with`]
/// moves the converged candidate routes out of the buffers into its
/// result, leaving nothing to resume from. [`Network::simulate_kept`] and
/// [`Network::resimulate`] keep the converged per-slot state (Adj-RIB-In,
/// Adj-RIB-Out, best routes) and record which run it belongs to: the run's
/// id, prefix and origins. A later [`Network::resimulate`] of that run's
/// result starts from this state; any other run replaces it.
#[derive(Debug, Default)]
pub struct SimScratch {
    /// The adjacency the buffers were laid out for.
    adj: Vec<Vec<(usize, usize)>>,
    /// Per router, per adjacency slot (peer-sorted order).
    slots: Vec<Vec<Slot>>,
    local: Vec<Option<Route>>,
    best: Vec<Option<Route>>,
    dirty: Vec<bool>,
    /// Routers the current run activated: the only RIBs a warm run
    /// rebuilds.
    activated: Vec<bool>,
    /// The run whose converged state the buffers hold, if any.
    kept: Option<Kept>,
}

/// Which run a scratch's converged state belongs to.
#[derive(Debug)]
struct Kept {
    /// The run's id, also stamped on its result.
    run: u64,
    prefix: Prefix,
    /// The origins, sorted and deduplicated.
    origins: Vec<RouterId>,
}

/// Source of run ids, unique across every scratch of the process, so a
/// result handed to another scratch never matches that scratch's state.
static NEXT_RUN: AtomicU64 = AtomicU64::new(1);

/// The per-session state one router keeps about one peer.
#[derive(Debug, Default)]
struct Slot {
    /// Adj-RIB-In: the peer's announcement after import.
    rib_in: Option<Route>,
    /// Latest-update-wins inbox (`Some(None)` = a pending withdraw).
    pending: Option<Option<Route>>,
    /// Adj-RIB-Out: what this router last sent to the peer.
    sent: Option<Route>,
    /// This session's slot in the peer's adjacency list, so updates land
    /// in vec-indexed inbox slots without any per-message map lookups.
    peer_slot: usize,
}

/// A warm start the scratch can serve: the previous result and the
/// changed sessions as `(dense sender, adjacency slot)` pairs.
struct Resume {
    prev: SimulationResult,
    seeds: Vec<(usize, usize)>,
}

/// How a run starts and what it leaves behind.
enum Start<'c> {
    /// From empty RIBs; `keep` leaves the converged state in the scratch.
    Cold { keep: bool },
    /// From the state `prev`'s run left in the scratch, after the policies
    /// of the `changed` directed sessions were edited.
    Warm {
        prev: SimulationResult,
        changed: &'c [(RouterId, RouterId)],
    },
}

impl SimScratch {
    /// A fresh, empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lays out (or, on a matching adjacency, clears in place) the buffers
    /// for `net`.
    fn prepare(&mut self, net: &Network) {
        if self.adj == net.adj {
            for slot in self.slots.iter_mut().flatten() {
                slot.rib_in = None;
                slot.pending = None;
                slot.sent = None;
            }
            self.local.fill(None);
            self.best.fill(None);
            self.dirty.fill(false);
            self.activated.fill(false);
            return;
        }
        let n = net.routers.len();
        self.adj.clone_from(&net.adj);
        self.slots = net
            .adj
            .iter()
            .map(|a| a.iter().map(|_| Slot::default()).collect())
            .collect();
        self.local = vec![None; n];
        self.best = vec![None; n];
        self.dirty = vec![false; n];
        self.activated = vec![false; n];
        // Pair the two slots of every session: the first endpoint seen
        // waits in `seen` until the second one links both.
        let mut seen: Vec<Option<(usize, usize)>> = vec![None; net.sessions.len()];
        for (r, adj) in net.adj.iter().enumerate() {
            for (pos, &(sid, _)) in adj.iter().enumerate() {
                if let Some((q, qpos)) = seen[sid] {
                    self.slots[r][pos].peer_slot = qpos;
                    self.slots[q][qpos].peer_slot = pos;
                } else {
                    seen[sid] = Some((r, pos));
                }
            }
        }
    }

    /// The warm start of `prev` on `net` from `origins`, if this scratch
    /// still holds the converged state of `prev`'s run for the same
    /// prefix, origins and adjacency and every `changed` pair names a
    /// session of `net`; `None` sends the run cold.
    fn resume(
        &self,
        net: &Network,
        prev: SimulationResult,
        origins: &[RouterId],
        changed: &[(RouterId, RouterId)],
    ) -> Option<Resume> {
        let kept = self.kept.as_ref()?;
        if prev.run != Some(kept.run)
            || prev.prefix != kept.prefix
            || kept.origins != origins
            || self.adj != net.adj
        {
            return None;
        }
        let mut seeds = Vec::with_capacity(changed.len());
        for &(from, to) in changed {
            let sid = net.session_id(from, to).ok()?;
            let r = *net.index.get(&from)?;
            let pos = net.adj[r].iter().position(|&(s, _)| s == sid)?;
            seeds.push((r, pos));
        }
        Some(Resume { prev, seeds })
    }
}

struct RunState<'n, 's> {
    net: &'n Network,
    /// Borrowed scratch buffers: `slots` holds each router's per-peer
    /// Adj-RIB-In, inbox and Adj-RIB-Out (see [`Slot`]), `local` the
    /// locally originated routes, `best` the current selections, and
    /// `dirty` the routers with pending work. Slot order is the router's
    /// `Network::adj` order, i.e. sorted by peer RouterId.
    sc: &'s mut SimScratch,
    /// Total pending updates across all inboxes (peak tracking).
    queued: usize,
    stats: SimStats,
}

impl Network {
    /// Simulates the propagation of `prefix`, originated at `origins`, to
    /// steady state. Returns the converged RIBs of every router.
    ///
    /// Routers are activated sequentially in a fixed order (Gauss-Seidel
    /// style), each draining its inbox, re-running the decision process,
    /// and exporting before the next router activates. Sequential
    /// activation converges on instances with multiple stable solutions
    /// (e.g. DISAGREE) where synchronous schedules oscillate, and is
    /// deterministic: a given (network, prefix, origins) always yields the
    /// same RIBs.
    ///
    /// # Errors
    /// [`SimError::UnknownRouter`] if an origin is not in the network;
    /// [`SimError::Divergence`] if the message budget is exhausted — the
    /// installed policies admit no stable solution (cf. §4.6 of the paper
    /// on local-pref-induced divergence).
    pub fn simulate(
        &self,
        prefix: Prefix,
        origins: &[RouterId],
    ) -> Result<SimulationResult, SimError> {
        let start = Start::Cold { keep: false };
        self.simulate_inner(prefix, origins, &mut SimScratch::new(), start)
    }

    /// Like [`Network::simulate`], but reusing the caller's [`SimScratch`]
    /// buffers — the bulk-simulation path used by refinement workers, where
    /// per-run allocation would dominate.
    pub fn simulate_with(
        &self,
        prefix: Prefix,
        origins: &[RouterId],
        scratch: &mut SimScratch,
    ) -> Result<SimulationResult, SimError> {
        let start = Start::Cold { keep: false };
        self.simulate_inner(prefix, origins, scratch, start)
    }

    /// Like [`Network::simulate_with`], but keeps the converged state in
    /// `scratch` (the result gets clones of the candidates), so that
    /// [`Network::resimulate`] can re-converge the prefix from it after a
    /// policy edit.
    pub fn simulate_kept(
        &self,
        prefix: Prefix,
        origins: &[RouterId],
        scratch: &mut SimScratch,
    ) -> Result<SimulationResult, SimError> {
        let start = Start::Cold { keep: true };
        self.simulate_inner(prefix, origins, scratch, start)
    }

    /// Warm start: re-simulates `prev`'s prefix from `origins` after the
    /// policies of the `changed` directed sessions were edited. A pair
    /// `(from, to)` covers the export policy at `from` towards `to` and
    /// the import policy at `to` for routes from `from`.
    ///
    /// `prev` must come from [`Network::simulate_kept`] or
    /// `resimulate` on `scratch`, with no other run on `scratch` since.
    /// The run starts from the converged state that run left there: each
    /// changed session's sender re-exports its best route under the new
    /// policies and the receiver re-imports it (even an unchanged message,
    /// since the import side may be what changed), then the Gauss-Seidel
    /// loop runs to steady state under the same `engine.simulate`
    /// failpoint and message budget as a cold run. Only the routers it
    /// activates get rebuilt RIBs; every other RIB is `prev`'s. The state
    /// is kept again for the next re-simulation.
    ///
    /// The run goes cold (and [`SimStats::warm`] is false) when `scratch`
    /// does not hold `prev`'s state, when `origins` or the adjacency
    /// differ from `prev`'s run, or when a changed pair names no session.
    ///
    /// # Contract
    /// The result equals a cold run's only if
    /// * `changed` names every directed session whose policies changed
    ///   since `prev`'s run, and nothing else in the network changed;
    /// * the prefix has one stable state on this network. It does when
    ///   every session is eBGP and no policy makes a router prefer a
    ///   longer AS path over a shorter one, i.e. no local-pref rules: the
    ///   decision process then ranks path length first, which leaves no
    ///   dispute wheel (Griffin, Shepherd & Wilfong 2002). On an instance
    ///   with several stable states (DISAGREE) a warm run can settle on
    ///   another one than a cold run.
    ///
    /// # Errors
    /// As [`Network::simulate`].
    pub fn resimulate(
        &self,
        prev: SimulationResult,
        origins: &[RouterId],
        changed: &[(RouterId, RouterId)],
        scratch: &mut SimScratch,
    ) -> Result<SimulationResult, SimError> {
        let prefix = prev.prefix;
        let start = Start::Warm { prev, changed };
        self.simulate_inner(prefix, origins, scratch, start)
    }

    fn simulate_inner(
        &self,
        prefix: Prefix,
        origins: &[RouterId],
        scratch: &mut SimScratch,
        start: Start<'_>,
    ) -> Result<SimulationResult, SimError> {
        // Failpoint: lets tests fail/delay a simulation at its entry, the
        // spot where real resource exhaustion would surface.
        #[cfg(feature = "testkit")]
        if crate::fail::inject("engine.simulate") {
            return Err(SimError::Injected {
                point: "engine.simulate",
            });
        }
        let n = self.routers.len();
        // Deterministic origination order.
        let mut sorted_origins: Vec<RouterId> = origins.to_vec();
        sorted_origins.sort();
        sorted_origins.dedup();
        let (keep, resume) = match start {
            Start::Cold { keep } => (keep, None),
            Start::Warm { prev, changed } => {
                (true, scratch.resume(self, prev, &sorted_origins, changed))
            }
        };
        // From here on the buffers no longer hold any finished run's state.
        scratch.kept = None;
        match &resume {
            Some(_) => scratch.activated.fill(false),
            None => scratch.prepare(self),
        }
        let mut st = RunState {
            net: self,
            sc: scratch,
            queued: 0,
            stats: SimStats::default(),
        };

        if let Some(resume) = &resume {
            st.stats.warm = true;
            for &(r, pos) in &resume.seeds {
                st.reexport(r, pos);
            }
        } else {
            for o in &sorted_origins {
                let i = *self.index.get(o).ok_or(SimError::UnknownRouter(*o))?;
                st.sc.local[i] = Some(Route::originate(prefix));
                st.sc.dirty[i] = true;
            }
        }

        let budget = self.effective_budget();
        loop {
            let mut any = false;
            for r in 0..n {
                if !st.sc.dirty[r] {
                    continue;
                }
                any = true;
                st.activate(r);
                if st.stats.messages > budget {
                    return Err(SimError::Divergence {
                        prefix,
                        processed: st.stats.messages,
                    });
                }
            }
            if !any {
                break;
            }
        }

        let mut res = st.into_result(prefix, keep, resume.map(|r| r.prev));
        if keep {
            // sast: relaxed-ok unique-id ticket; only distinctness matters, no memory is published through it
            let run = NEXT_RUN.fetch_add(1, Ordering::Relaxed);
            res.run = Some(run);
            scratch.kept = Some(Kept {
                run,
                prefix,
                origins: sorted_origins,
            });
        }
        Ok(res)
    }
}

impl RunState<'_, '_> {
    /// Activates dense router `r`: drains its inbox, re-decides, exports.
    fn activate(&mut self, r: usize) {
        self.sc.dirty[r] = false;
        self.sc.activated[r] = true;
        self.stats.activations += 1;
        // Drain the inbox slots in place (adjacency = peer-sorted order).
        for slot in 0..self.sc.slots[r].len() {
            let Some(update) = self.sc.slots[r][slot].pending.take() else {
                continue;
            };
            self.queued -= 1;
            self.stats.messages += 1;
            let sid = self.net.adj[r][slot].0;
            self.install(sid, r, slot, update);
        }
        self.recompute_and_export(r);
    }

    /// Installs one update received by dense router `to` over session
    /// `sid` (at adjacency slot `slot`) into its Adj-RIB-In (post-import).
    fn install(&mut self, sid: usize, to: usize, slot: usize, update: Option<Route>) {
        let session = &self.net.sessions[sid];
        let from = session.peer_of(to);
        let receiver_id = self.net.routers[to];
        let sender_id = self.net.routers[from];

        let installed: Option<Route> = update.and_then(|mut route| {
            // eBGP loop detection: reject a path already containing the
            // receiver's AS.
            if session.kind == SessionKind::Ebgp && route.as_path.contains(receiver_id.asn()) {
                return None;
            }
            // RFC 4456 ORIGINATOR_ID loop prevention: a reflected route
            // must never be re-installed at the router that injected it.
            if session.kind == SessionKind::Ibgp && route.originator == Some(receiver_id) {
                return None;
            }
            // Fill receiver-side fields *before* the import policy so
            // matchers can see the announcing neighbor.
            route.from_router = Some(sender_id);
            route.from_asn = route.as_path.head();
            match session.kind {
                SessionKind::Ebgp => {
                    route.learned = LearnedVia::Ebgp;
                    route.igp_cost = 0;
                }
                SessionKind::Ibgp => {
                    route.learned = LearnedVia::Ibgp;
                    route.igp_cost = self.net.igp_cost(receiver_id.asn(), receiver_id, sender_id);
                }
            }
            session.direction(from).import.apply_owned(route)
        });

        self.sc.slots[to][slot].rib_in = installed;
    }

    /// Re-runs the decision process at dense router `r`; if the best route
    /// changed, delivers (possibly suppressed) updates to every peer's
    /// inbox.
    fn recompute_and_export(&mut self, r: usize) {
        // Copy the network reference out of `self` so iterating adjacency
        // does not hold a borrow of the whole state (this used to clone the
        // adjacency list on every activation).
        let net = self.net;
        // Pick the winner over borrowed candidates; clone it only when it
        // actually changed.
        let new_best: Option<Route> = {
            let candidates = self.sc.local[r]
                .iter()
                .chain(self.sc.slots[r].iter().filter_map(|s| s.rib_in.as_ref()));
            let nb = best_of(candidates, &net.cfg).map(|(_, b)| b);
            if nb == self.sc.best[r].as_ref() {
                return;
            }
            nb.cloned()
        };
        self.stats.best_changes += 1;
        self.sc.best[r] = new_best;

        // Fan out over sessions in deterministic (peer-sorted) order. The
        // eBGP form of the path is built on the first eBGP export and
        // shared by the rest.
        let mut ebgp_path = None;
        for (pos, &(sid, peer)) in net.adj[r].iter().enumerate() {
            let msg = self.export_over(r, sid, &mut ebgp_path);
            let slot = &mut self.sc.slots[r][pos];
            if slot.sent == msg {
                self.stats.suppressed += 1;
                continue;
            }
            // The message is recorded once per copy that must live on: the
            // Adj-RIB-Out bookkeeping and the peer's inbox slot.
            slot.sent = msg.clone();
            let peer_slot = slot.peer_slot;
            self.enqueue(peer, peer_slot, msg);
        }
    }

    /// Warm start: re-exports dense router `r`'s best route over its
    /// adjacency slot `pos`, whose policies changed, and delivers it even
    /// when it equals what was sent before — the receiver's import policy
    /// may be the part that changed.
    fn reexport(&mut self, r: usize, pos: usize) {
        let (sid, peer) = self.net.adj[r][pos];
        let msg = self.export_over(r, sid, &mut None);
        let slot = &mut self.sc.slots[r][pos];
        slot.sent = msg.clone();
        let peer_slot = slot.peer_slot;
        self.enqueue(peer, peer_slot, msg);
    }

    /// Puts `msg` in `peer`'s inbox slot `peer_slot`, replacing any
    /// pending update.
    fn enqueue(&mut self, peer: usize, peer_slot: usize, msg: Option<Route>) {
        let inbox = &mut self.sc.slots[peer][peer_slot].pending;
        if inbox.replace(msg).is_none() {
            self.queued += 1;
        }
        self.sc.dirty[peer] = true;
        self.stats.peak_queue = self.stats.peak_queue.max(self.queued);
    }

    /// Builds the update dense router `r` sends over session `sid`
    /// (`None` = withdraw). `ebgp_path` caches the best path with `r`'s
    /// ASN prepended across the sessions of one fan-out: export policies
    /// never rewrite the path, so every eBGP session announces the same
    /// one.
    fn export_over(&self, r: usize, sid: usize, ebgp_path: &mut Option<AsPath>) -> Option<Route> {
        let session = &self.net.sessions[sid];
        let best = self.sc.best[r].as_ref()?;
        // RFC 1997 well-known communities, honored by the protocol itself.
        if best.has_community(NO_ADVERTISE) {
            return None;
        }
        if session.kind == SessionKind::Ebgp && best.has_community(NO_EXPORT) {
            return None;
        }
        // Sender-side split horizon: never echo back over the learning
        // session.
        if let Some(from_router) = best.from_router {
            let peer_id = self.net.routers[session.peer_of(r)];
            if from_router == peer_id {
                return None;
            }
        }
        // iBGP: internal routes are re-advertised internally only under
        // RFC 4456 route reflection — client routes to everyone,
        // non-client routes to clients (plain full mesh reflects nothing).
        let mut reflected = false;
        if session.kind == SessionKind::Ibgp && best.learned == LearnedVia::Ibgp {
            let me = self.net.routers[r];
            let peer_id = self.net.routers[session.peer_of(r)];
            let from_client = best
                .from_router
                .is_some_and(|f| self.net.is_rr_client(me, f));
            let to_client = self.net.is_rr_client(me, peer_id);
            if !(from_client || to_client) {
                return None;
            }
            reflected = true;
        }
        // Export policy on the Loc-RIB form.
        let mut out = session.direction(r).export.apply(best)?;
        if session.kind == SessionKind::Ebgp {
            let own = self.net.routers[r].asn();
            out.as_path = ebgp_path
                .get_or_insert_with(|| best.as_path.prepend(own))
                .clone();
            out.local_pref = DEFAULT_LOCAL_PREF;
            out.med = None; // non-transitive
        }
        if reflected {
            // Stamp the injector on first reflection (RFC 4456 §8).
            out.originator = out.originator.or(best.from_router);
        }
        if session.kind == SessionKind::Ebgp {
            out.originator = None; // meaningless outside the AS
        }
        out.from_router = None;
        out.from_asn = None;
        out.igp_cost = 0;
        Some(out)
    }

    /// Dense router `r`'s converged RIB. Its candidates are cloned when
    /// the scratch keeps its state, and otherwise moved out (the next
    /// run's `prepare` would reset them anyway).
    fn rib(&mut self, r: usize, keep: bool) -> RouterRib {
        let (local, slots) = (&mut self.sc.local[r], &mut self.sc.slots[r]);
        let len =
            usize::from(local.is_some()) + slots.iter().filter(|s| s.rib_in.is_some()).count();
        let mut candidates = Vec::with_capacity(len);
        if keep {
            candidates.extend(local.iter().cloned());
            candidates.extend(slots.iter().filter_map(|s| s.rib_in.clone()));
        } else {
            candidates.extend(local.take());
            candidates.extend(slots.iter_mut().filter_map(|s| s.rib_in.take()));
        }
        let best = best_of(candidates.iter(), &self.net.cfg).map(|(i, _)| i);
        RouterRib {
            router: self.net.routers[r],
            candidates,
            best,
            cfg: self.net.cfg,
            outcome: OnceLock::new(),
        }
    }

    /// The converged result, with each router's winner. A warm run patches
    /// `prev`'s RIBs: only the routers it activated can have changed.
    fn into_result(
        mut self,
        prefix: Prefix,
        keep: bool,
        prev: Option<SimulationResult>,
    ) -> SimulationResult {
        let n = self.net.routers.len();
        let ribs = match prev {
            Some(prev) => {
                let mut ribs = prev.ribs;
                for (r, rib) in ribs.iter_mut().enumerate() {
                    if self.sc.activated[r] {
                        *rib = self.rib(r, true);
                    }
                }
                ribs
            }
            None => (0..n).map(|r| self.rib(r, keep)).collect(),
        };
        SimulationResult {
            prefix,
            index: Arc::clone(&self.net.index),
            ribs,
            stats: self.stats,
            run: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::DecisionConfig;
    use crate::policy::{Action, Policy, PolicyRule, RouteMatch};
    use crate::types::Asn;

    fn rid(asn: u32, idx: u16) -> RouterId {
        RouterId::new(Asn(asn), idx)
    }

    /// Line: AS1 - AS2 - AS3, prefix at AS3.
    fn line() -> Network {
        let mut net = Network::new(DecisionConfig::default());
        for a in 1..=3u32 {
            net.add_router(rid(a, 0));
        }
        net.add_session(rid(1, 0), rid(2, 0), SessionKind::Ebgp)
            .unwrap();
        net.add_session(rid(2, 0), rid(3, 0), SessionKind::Ebgp)
            .unwrap();
        net
    }

    #[test]
    fn propagation_along_line() {
        let net = line();
        let p = Prefix::for_origin(Asn(3));
        let res = net.simulate(p, &[rid(3, 0)]).unwrap();
        assert_eq!(res.best_route(rid(3, 0)).unwrap().as_path.len(), 0);
        assert_eq!(res.best_route(rid(2, 0)).unwrap().as_path.to_string(), "3");
        assert_eq!(
            res.best_route(rid(1, 0)).unwrap().as_path.to_string(),
            "2 3"
        );
    }

    #[test]
    fn rib_out_recorded() {
        let net = line();
        let p = Prefix::for_origin(Asn(3));
        let res = net.simulate(p, &[rid(3, 0)]).unwrap();
        // What AS2 announced to AS1 is what AS1 selected.
        let out = res.best_route(rid(1, 0)).unwrap();
        assert_eq!(out.as_path.to_string(), "2 3");
        // AS1 announces nothing back to AS2 beyond loop-rejected paths:
        // split horizon keeps the learning session silent.
        let rib2 = res.rib(rid(2, 0)).unwrap();
        assert!(rib2
            .candidates
            .iter()
            .all(|c| c.from_router != Some(rid(1, 0))));
    }

    /// Two networks of equal router and session counts whose third
    /// session lands on different routers (4–1 in one, 4–3 in the other)
    /// must each get a scratch laid out for their own adjacency.
    #[test]
    fn scratch_reused_across_networks_of_the_same_shape() {
        let build = |third: u32| {
            let mut net = Network::new(DecisionConfig::default());
            for a in 1..=4u32 {
                net.add_router(rid(a, 0));
            }
            for (x, y) in [(1, 2), (2, 3), (4, third)] {
                net.add_session(rid(x, 0), rid(y, 0), SessionKind::Ebgp)
                    .unwrap();
            }
            net
        };
        let (a, b) = (build(1), build(3));
        let p = Prefix::for_origin(Asn(4));
        let mut scratch = SimScratch::new();
        let on_a = a.simulate_with(p, &[rid(4, 0)], &mut scratch).unwrap();
        let on_b = b.simulate_with(p, &[rid(4, 0)], &mut scratch).unwrap();
        let path = |res: &SimulationResult, asn: u32| {
            res.best_route(rid(asn, 0)).unwrap().as_path.to_string()
        };
        assert_eq!(path(&on_a, 3), "2 1 4");
        assert_eq!(path(&on_b, 1), "2 3 4");
        let fresh = b.simulate(p, &[rid(4, 0)]).unwrap();
        for (x, y) in on_b.ribs().zip(fresh.ribs()) {
            assert_eq!(x.candidates, y.candidates);
            assert_eq!(x.outcome(), y.outcome());
        }
    }

    #[test]
    fn unknown_origin_errors() {
        let net = line();
        let p = Prefix::for_origin(Asn(9));
        assert!(matches!(
            net.simulate(p, &[rid(9, 0)]),
            Err(SimError::UnknownRouter(_))
        ));
    }

    /// Square: 1-2, 1-4, 2-3, 4-3; origin at 3. AS1 hears two equal-length
    /// paths (2 3) and (4 3); tie-break picks the lower neighbor id (AS2).
    #[test]
    fn tie_break_on_square() {
        let mut net = Network::new(DecisionConfig::default());
        for a in 1..=4u32 {
            net.add_router(rid(a, 0));
        }
        net.add_session(rid(1, 0), rid(2, 0), SessionKind::Ebgp)
            .unwrap();
        net.add_session(rid(1, 0), rid(4, 0), SessionKind::Ebgp)
            .unwrap();
        net.add_session(rid(2, 0), rid(3, 0), SessionKind::Ebgp)
            .unwrap();
        net.add_session(rid(4, 0), rid(3, 0), SessionKind::Ebgp)
            .unwrap();
        let p = Prefix::for_origin(Asn(3));
        let res = net.simulate(p, &[rid(3, 0)]).unwrap();
        let rib1 = res.rib(rid(1, 0)).unwrap();
        assert_eq!(rib1.candidates.len(), 2);
        assert_eq!(rib1.best().unwrap().as_path.to_string(), "2 3");
        // The loser survived to the tie-break.
        assert_eq!(rib1.outcome().tie_break_survivors().len(), 2);
    }

    #[test]
    fn med_import_policy_flips_choice() {
        // Same square, but AS1 prefers routes announced by AS4 via MED.
        let mut net = Network::new(DecisionConfig::default());
        for a in 1..=4u32 {
            net.add_router(rid(a, 0));
        }
        net.add_session(rid(1, 0), rid(2, 0), SessionKind::Ebgp)
            .unwrap();
        net.add_session(rid(1, 0), rid(4, 0), SessionKind::Ebgp)
            .unwrap();
        net.add_session(rid(2, 0), rid(3, 0), SessionKind::Ebgp)
            .unwrap();
        net.add_session(rid(4, 0), rid(3, 0), SessionKind::Ebgp)
            .unwrap();
        let p = Prefix::for_origin(Asn(3));
        let mut prefer4 = Policy::permit_all();
        prefer4.push(PolicyRule::new(RouteMatch::prefix(p), Action::SetMed(0)));
        net.set_import_policy(rid(1, 0), rid(4, 0), prefer4)
            .unwrap();
        let mut demote2 = Policy::permit_all();
        demote2.push(PolicyRule::new(RouteMatch::prefix(p), Action::SetMed(10)));
        net.set_import_policy(rid(1, 0), rid(2, 0), demote2)
            .unwrap();
        let res = net.simulate(p, &[rid(3, 0)]).unwrap();
        assert_eq!(
            res.best_route(rid(1, 0)).unwrap().as_path.to_string(),
            "4 3"
        );
    }

    #[test]
    fn export_filter_blocks_propagation() {
        let mut net = line();
        let p = Prefix::for_origin(Asn(3));
        let mut deny = Policy::permit_all();
        deny.push(PolicyRule::new(RouteMatch::prefix(p), Action::Deny));
        net.set_export_policy(rid(2, 0), rid(1, 0), deny).unwrap();
        let res = net.simulate(p, &[rid(3, 0)]).unwrap();
        assert!(res.best_route(rid(1, 0)).is_none());
        assert!(res.best_route(rid(2, 0)).is_some());
    }

    #[test]
    fn ibgp_full_mesh_no_reflection() {
        // AS2 has two routers, full iBGP mesh; only r0 has the eBGP session
        // to the origin AS3. r1 must learn via iBGP; a third router r2 also
        // connected only to r1 over iBGP must NOT learn the route (no
        // reflection).
        let mut net = Network::new(DecisionConfig::default());
        net.add_router(rid(3, 0));
        for i in 0..3u16 {
            net.add_router(rid(2, i));
        }
        net.add_session(rid(2, 0), rid(3, 0), SessionKind::Ebgp)
            .unwrap();
        net.add_session(rid(2, 0), rid(2, 1), SessionKind::Ibgp)
            .unwrap();
        net.add_session(rid(2, 1), rid(2, 2), SessionKind::Ibgp)
            .unwrap();
        let p = Prefix::for_origin(Asn(3));
        let res = net.simulate(p, &[rid(3, 0)]).unwrap();
        assert!(res.best_route(rid(2, 1)).is_some());
        assert_eq!(res.best_route(rid(2, 1)).unwrap().learned, LearnedVia::Ibgp);
        assert!(res.best_route(rid(2, 2)).is_none());
    }

    #[test]
    fn ebgp_loop_rejected() {
        // Triangle 1-2-3 with origin at 1: no router may install a path
        // containing its own AS.
        let mut net = Network::new(DecisionConfig::default());
        for a in 1..=3u32 {
            net.add_router(rid(a, 0));
        }
        net.add_session(rid(1, 0), rid(2, 0), SessionKind::Ebgp)
            .unwrap();
        net.add_session(rid(2, 0), rid(3, 0), SessionKind::Ebgp)
            .unwrap();
        net.add_session(rid(3, 0), rid(1, 0), SessionKind::Ebgp)
            .unwrap();
        let p = Prefix::for_origin(Asn(1));
        let res = net.simulate(p, &[rid(1, 0)]).unwrap();
        for rib in res.ribs() {
            for c in &rib.candidates {
                assert!(!c.as_path.contains(rib.router.asn()));
            }
        }
        assert_eq!(res.best_route(rid(2, 0)).unwrap().as_path.to_string(), "1");
        assert_eq!(res.best_route(rid(3, 0)).unwrap().as_path.to_string(), "1");
    }

    #[test]
    fn multi_origin_anycast() {
        let net = line();
        let p = Prefix::new(0xC0000000, 24);
        let res = net.simulate(p, &[rid(1, 0), rid(3, 0)]).unwrap();
        // AS2 hears both origins with 1-hop paths; lower neighbor id wins.
        let best = res.best_route(rid(2, 0)).unwrap();
        assert_eq!(best.as_path.to_string(), "1");
    }

    #[test]
    fn stats_count_messages() {
        let net = line();
        let p = Prefix::for_origin(Asn(3));
        let res = net.simulate(p, &[rid(3, 0)]).unwrap();
        assert!(res.stats.messages >= 2);
    }

    /// Griffin's BAD GADGET: three ASes around an origin, each preferring
    /// the route through its clockwise neighbor (via local-pref) over its
    /// direct route. No stable solution exists; the engine must detect the
    /// oscillation instead of spinning forever. This is exactly the
    /// divergence the paper cites as the reason to avoid local-pref
    /// ranking (§4.6).
    #[test]
    fn bad_gadget_reports_divergence() {
        let mut net = Network::new(DecisionConfig::default());
        for a in 0..=3u32 {
            net.add_router(rid(a + 1, 0)); // ASes 1 (origin), 2, 3, 4
        }
        let origin = rid(1, 0);
        for a in 2..=4u32 {
            net.add_session(rid(a, 0), origin, SessionKind::Ebgp)
                .unwrap();
        }
        net.add_session(rid(2, 0), rid(3, 0), SessionKind::Ebgp)
            .unwrap();
        net.add_session(rid(3, 0), rid(4, 0), SessionKind::Ebgp)
            .unwrap();
        net.add_session(rid(4, 0), rid(2, 0), SessionKind::Ebgp)
            .unwrap();
        // Each AS prefers the 2-hop route via its clockwise neighbor.
        for (me, pref) in [(2u32, 3u32), (3, 4), (4, 2)] {
            let mut p = Policy::permit_all();
            p.push(PolicyRule::new(
                RouteMatch::any(),
                Action::SetLocalPref(200),
            ));
            net.set_import_policy(rid(me, 0), rid(pref, 0), p).unwrap();
        }
        let prefix = Prefix::for_origin(Asn(1));
        let err = net.simulate(prefix, &[origin]).unwrap_err();
        assert!(matches!(err, SimError::Divergence { .. }), "got {err:?}");
    }

    /// DISAGREE has two stable solutions; the deterministic engine must
    /// settle on one (and always the same one).
    #[test]
    fn disagree_converges_deterministically() {
        let build = || {
            let mut net = Network::new(DecisionConfig::default());
            for a in 1..=3u32 {
                net.add_router(rid(a, 0));
            }
            net.add_session(rid(2, 0), rid(1, 0), SessionKind::Ebgp)
                .unwrap();
            net.add_session(rid(3, 0), rid(1, 0), SessionKind::Ebgp)
                .unwrap();
            net.add_session(rid(2, 0), rid(3, 0), SessionKind::Ebgp)
                .unwrap();
            for (me, pref) in [(2u32, 3u32), (3, 2)] {
                let mut p = Policy::permit_all();
                p.push(PolicyRule::new(
                    RouteMatch::any(),
                    Action::SetLocalPref(200),
                ));
                net.set_import_policy(rid(me, 0), rid(pref, 0), p).unwrap();
            }
            net
        };
        let prefix = Prefix::for_origin(Asn(1));
        let a = build().simulate(prefix, &[rid(1, 0)]).unwrap();
        let b = build().simulate(prefix, &[rid(1, 0)]).unwrap();
        assert_eq!(a.best_route(rid(2, 0)), b.best_route(rid(2, 0)));
        assert_eq!(a.best_route(rid(3, 0)), b.best_route(rid(3, 0)));
        // Exactly one of AS2/AS3 got its preferred indirect route.
        let via_indirect = [a.best_route(rid(2, 0)), a.best_route(rid(3, 0))]
            .iter()
            .filter(|r| r.map(|r| r.as_path.len()) == Some(2))
            .count();
        assert_eq!(via_indirect, 1);
    }

    #[test]
    fn no_export_stops_at_as_boundary() {
        // 1 - 2 - 3 line; AS3's export towards AS2 tags NO_EXPORT: AS2
        // uses the route, AS1 never hears it.
        let mut net = line();
        let p = Prefix::for_origin(Asn(3));
        let mut tag = Policy::permit_all();
        tag.push(PolicyRule::new(
            RouteMatch::prefix(p),
            Action::AddCommunity(crate::route::NO_EXPORT),
        ));
        net.set_export_policy(rid(3, 0), rid(2, 0), tag).unwrap();
        let res = net.simulate(p, &[rid(3, 0)]).unwrap();
        let at2 = res.best_route(rid(2, 0)).unwrap();
        assert!(at2.has_community(crate::route::NO_EXPORT));
        assert!(res.best_route(rid(1, 0)).is_none(), "NO_EXPORT leaked");
    }

    #[test]
    fn no_advertise_stays_on_router() {
        // AS2 has two routers (iBGP); the import at r0 tags NO_ADVERTISE:
        // r0 keeps the route, r1 never learns it.
        let mut net = Network::new(DecisionConfig::default());
        net.add_router(rid(3, 0));
        net.add_router(rid(2, 0));
        net.add_router(rid(2, 1));
        net.add_session(rid(2, 0), rid(3, 0), SessionKind::Ebgp)
            .unwrap();
        net.add_session(rid(2, 0), rid(2, 1), SessionKind::Ibgp)
            .unwrap();
        let p = Prefix::for_origin(Asn(3));
        let mut tag = Policy::permit_all();
        tag.push(PolicyRule::new(
            RouteMatch::prefix(p),
            Action::AddCommunity(crate::route::NO_ADVERTISE),
        ));
        net.set_import_policy(rid(2, 0), rid(3, 0), tag).unwrap();
        let res = net.simulate(p, &[rid(3, 0)]).unwrap();
        assert!(res.best_route(rid(2, 0)).is_some());
        assert!(res.best_route(rid(2, 1)).is_none(), "NO_ADVERTISE leaked");
    }

    #[test]
    fn communities_are_transitive_across_ebgp() {
        let mut net = line();
        let p = Prefix::for_origin(Asn(3));
        let mut tag = Policy::permit_all();
        tag.push(PolicyRule::new(
            RouteMatch::prefix(p),
            Action::AddCommunity(0x00CC_0001),
        ));
        net.set_export_policy(rid(3, 0), rid(2, 0), tag).unwrap();
        let res = net.simulate(p, &[rid(3, 0)]).unwrap();
        // Two AS hops later the community is still attached.
        assert!(res
            .best_route(rid(1, 0))
            .unwrap()
            .has_community(0x00CC_0001));
    }

    #[test]
    fn explanation_lists_candidates_and_verdicts() {
        let mut net = Network::new(DecisionConfig::default());
        for a in 1..=4u32 {
            net.add_router(rid(a, 0));
        }
        net.add_session(rid(1, 0), rid(2, 0), SessionKind::Ebgp)
            .unwrap();
        net.add_session(rid(1, 0), rid(4, 0), SessionKind::Ebgp)
            .unwrap();
        net.add_session(rid(2, 0), rid(3, 0), SessionKind::Ebgp)
            .unwrap();
        net.add_session(rid(4, 0), rid(3, 0), SessionKind::Ebgp)
            .unwrap();
        let p = Prefix::for_origin(Asn(3));
        let res = net.simulate(p, &[rid(3, 0)]).unwrap();
        let text = res.rib(rid(1, 0)).unwrap().explain();
        assert!(text.contains("BEST"), "{text}");
        assert!(text.contains("lost at TieBreak"), "{text}");
        assert!(text.contains("2 3"), "{text}");
        // The origin's own explanation shows the local route winning.
        let origin_text = res.rib(rid(3, 0)).unwrap().explain();
        assert!(origin_text.contains("(local)"), "{origin_text}");
    }

    #[test]
    fn stats_count_activations_and_best_changes_along_line() {
        let net = line();
        let p = Prefix::for_origin(Asn(3));
        let res = net.simulate(p, &[rid(3, 0)]).unwrap();
        // Routers sweep in order r1, r2, r3. r3 originates (best change,
        // announces "3" to r2); r2 learns "3" (best change, announces
        // "2 3" to r1, split horizon suppresses the echo to r3); r1 learns
        // "2 3" (best change, nothing to send back).
        assert_eq!(res.stats.best_changes, 3);
        assert_eq!(res.stats.activations, 3);
        assert_eq!(res.stats.messages, 2);
        assert_eq!(res.stats.suppressed, 2);

        // Originated at both ends: r1 announces "1" to r2, r2 takes it and
        // sends "2 1" on to r3, r3 keeps its local route and announces
        // "3" to r2. r2's second activation ties "1" against "3" and keeps
        // the lower router id's route: an activation with no best change.
        let res = net.simulate(p, &[rid(1, 0), rid(3, 0)]).unwrap();
        assert_eq!(res.stats.best_changes, 3);
        assert_eq!(res.stats.activations, 4);
        assert_eq!(res.stats.messages, 3);
        assert_eq!(res.stats.suppressed, 1);
    }

    #[test]
    fn empty_network_simulates_nothing() {
        let net = Network::new(DecisionConfig::default());
        let res = net.simulate(Prefix::new(0, 0), &[]).unwrap();
        assert_eq!(res.ribs().count(), 0);
    }
}
