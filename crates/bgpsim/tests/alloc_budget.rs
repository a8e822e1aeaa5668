//! Allocation budget of one warm-scratch simulation, counted in work.
//!
//! Once a [`SimScratch`] is laid out for a network, a simulation may
//! allocate only for what it hands back or must build anew:
//! - one eBGP path per best-route change (the router's ASN prepended once
//!   and shared by every eBGP session of the fan-out);
//! - per router, the result's candidate list (the result records only the
//!   winner; the full decision outcome is computed when first asked for);
//! - a few vectors per run (sorted origins, the RIB list).
//!
//! Policy chains build their prefix index on their first evaluation, which
//! the warm-up run pays. The bound is the run's best-route changes
//! (`SimStats::best_changes`) plus routers plus a small constant. The
//! allocator below counts only the calls made by the thread that switched
//! counting on, so concurrently running tests cannot disturb the figure.

use quasar_bgpsim::engine::SimScratch;
use quasar_bgpsim::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count_call() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = CALLS.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are const-initialized
// thread-locals that never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_call();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_call();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocator calls made by `f` on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    CALLS.with(|c| c.set(0));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, CALLS.with(Cell::get))
}

const ASES: u32 = 40;

fn rid(asn: u32, idx: u16) -> RouterId {
    RouterId::new(Asn(asn), idx)
}

/// Routers of `asn`: every fifth AS has two, joined by iBGP.
fn routers(asn: u32) -> u16 {
    if asn.is_multiple_of(5) {
        2
    } else {
        1
    }
}

/// A fixed 40-AS topology (a ring plus pseudo-random chords) with the rule
/// kinds refinement installs: per-prefix MED rankings on import and
/// per-prefix shorter-path filters on export, interleaved with rules for
/// another prefix so every chain is scanned.
fn network(p: Prefix, other: Prefix) -> Network {
    let mut net = Network::new(DecisionConfig::default());
    for a in 1..=ASES {
        for i in 0..routers(a) {
            net.add_router(rid(a, i));
        }
        if routers(a) == 2 {
            net.add_session(rid(a, 0), rid(a, 1), SessionKind::Ibgp)
                .unwrap();
        }
    }
    let mut lcg: u64 = 0x9E37_79B9;
    let mut next = |m: u32| {
        lcg = lcg
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((lcg >> 33) % u64::from(m)) as u32
    };
    let mut edges = Vec::new();
    for a in 1..=ASES {
        edges.push((a, a % ASES + 1));
        edges.push((a, next(ASES) + 1));
    }
    for (k, (a, b)) in edges.into_iter().enumerate() {
        let (x, y) = (rid(a, next(2) as u16 % routers(a)), rid(b, 0));
        if a == b || net.has_session(x, y) {
            continue;
        }
        net.add_session(x, y, SessionKind::Ebgp).unwrap();
        let mut import = Policy::permit_all();
        import.push(PolicyRule::new(
            RouteMatch::prefix(other),
            Action::SetMed(7),
        ));
        import.push(PolicyRule::new(
            RouteMatch::prefix(p),
            Action::SetMed(if k % 3 == 0 { 0 } else { 10 }),
        ));
        net.set_import_policy(x, y, import).unwrap();
        if k % 4 == 1 {
            let mut export = Policy::permit_all();
            export.push(PolicyRule::new(RouteMatch::prefix(other), Action::Deny));
            export.push(PolicyRule::new(
                RouteMatch {
                    prefix: Some(p),
                    path_shorter_than: Some(3),
                    ..RouteMatch::any()
                },
                Action::Deny,
            ));
            net.set_export_policy(y, x, export).unwrap();
        }
    }
    net
}

#[test]
fn warm_simulation_allocates_per_best_change_and_router() {
    let p = Prefix::for_origin(Asn(1));
    let net = network(p, Prefix::for_origin(Asn(2)));
    let origins = net.routers_of(Asn(1));
    let cold = net.simulate(p, &origins).unwrap();

    let mut scratch = SimScratch::new();
    net.simulate_with(p, &origins, &mut scratch).unwrap();
    let (warm, calls) = allocations(|| net.simulate_with(p, &origins, &mut scratch).unwrap());

    for (a, b) in warm.ribs().zip(cold.ribs()) {
        assert_eq!(a.candidates, b.candidates);
        assert_eq!(a.outcome(), b.outcome());
    }
    let best_changes = warm.stats.best_changes;
    assert_eq!(best_changes, cold.stats.best_changes);
    let routers = net.num_routers() as u64;
    let budget = best_changes + routers + 8;
    assert!(
        calls <= budget,
        "{calls} allocator calls for one warm simulation; budget {budget} = \
         {best_changes} best changes + {routers} routers + 8"
    );
}

/// A warm re-simulation after one MED edit allocates for what it
/// changes, not for the network: per re-policied session one rebuilt
/// prefix index and one re-exported path, per activation at most one new
/// path and one rebuilt candidate list, and a few vectors per run.
#[test]
fn warm_resimulation_after_a_med_edit_allocates_per_change() {
    let p = Prefix::for_origin(Asn(1));
    let mut net = network(p, Prefix::for_origin(Asn(2)));
    let origins = net.routers_of(Asn(1));
    let mut scratch = SimScratch::new();
    let kept = net.simulate_kept(p, &origins, &mut scratch).unwrap();

    // Re-rank at the router with the most peers: its last peer best.
    let q = (1..=ASES)
        .map(|a| rid(a, 0))
        .max_by_key(|&r| net.peers_of(r).len())
        .unwrap();
    let peers = net.peers_of(q);
    let mut changed = Vec::new();
    for (j, &peer) in peers.iter().enumerate() {
        let policy = net.import_policy_mut(q, peer).unwrap();
        policy
            .remove_rules(|r| r.matcher.prefix == Some(p) && matches!(r.action, Action::SetMed(_)));
        let med = if j + 1 == peers.len() { 0 } else { 10 };
        policy.push(PolicyRule::new(RouteMatch::prefix(p), Action::SetMed(med)));
        changed.push((peer, q));
    }

    let (warm, calls) = allocations(|| {
        net.resimulate(kept, &origins, &changed, &mut scratch)
            .unwrap()
    });
    assert!(warm.stats.warm, "the kept state must serve the warm start");
    let cold = net.simulate(p, &origins).unwrap();
    for (a, b) in warm.ribs().zip(cold.ribs()) {
        assert_eq!(a.candidates, b.candidates);
        assert_eq!(a.best(), b.best());
    }
    let routers = net.num_routers() as u64;
    let activations = warm.stats.activations;
    assert!(
        activations < routers,
        "{activations} activations: the edit should not reach all {routers} routers"
    );
    let sessions = changed.len() as u64;
    let budget = 2 * sessions + 2 * activations + 8;
    assert!(
        calls <= budget,
        "{calls} allocator calls for one warm re-simulation; budget {budget} = \
         2 * {sessions} re-policied sessions + 2 * {activations} activations + 8"
    );
}
