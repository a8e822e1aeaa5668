//! The one worker pool of the crate: refinement domains, repair-round
//! simulations, held-out evaluation and mismatch diagnosis all fan out
//! through [`run`].

use quasar_bgpsim::engine::SimScratch;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// The worker count of the whole-model passes ([`crate::predict::evaluate`],
/// [`crate::diagnostics::diagnose`]) and of refinement at `threads == 0`
/// ([`crate::refine::RefineConfig::effective_threads`]): every available
/// core.
pub(crate) fn all_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Runs `work` over every item on up to `threads` scoped workers. Workers
/// claim items through one atomic ticket and each reuses one
/// [`SimScratch`] across its claims. Every result goes back to the calling
/// thread, which hands it to `take` with the item's index — in claim
/// order, so `take` must not assume index order. When `take` returns an
/// error, no further item is claimed, the results still in flight are
/// dropped, and that error is returned.
///
/// With one thread, or at most one item, everything runs inline on the
/// caller's stack (in index order) and no thread is spawned.
///
/// # Panics
///
/// Re-raises a worker's panic once every worker has stopped.
// `expect` below: a scope error means a worker panicked, which must
// propagate.
#[allow(clippy::expect_used)]
pub(crate) fn run<T, R, E>(
    threads: usize,
    items: Vec<T>,
    work: impl Fn(T, &mut SimScratch) -> R + Sync,
    mut take: impl FnMut(usize, R) -> Result<(), E>,
) -> Result<(), E>
where
    T: Send,
    R: Send,
{
    if threads.min(items.len()) <= 1 {
        let mut scratch = SimScratch::new();
        for (i, item) in items.into_iter().enumerate() {
            take(i, work(item, &mut scratch))?;
        }
        return Ok(());
    }
    // The `Option` lets the claiming worker take the item out by value.
    let slots: Vec<parking_lot::Mutex<Option<T>>> = items
        .into_iter()
        .map(|item| parking_lot::Mutex::new(Some(item)))
        .collect();
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let (tx, rx) = std::sync::mpsc::channel::<(usize, R)>();
    let mut outcome = Ok(());
    crossbeam::thread::scope(|s| {
        for _ in 0..threads.min(slots.len()) {
            let tx = tx.clone();
            let (slots, next, stop, work) = (&slots, &next, &stop, &work);
            s.spawn(move |_| {
                let mut scratch = SimScratch::new();
                // sast: relaxed-ok advisory stop flag; a stale read costs one extra claim, results stay channel-ordered
                while !stop.load(Ordering::Relaxed) {
                    // sast: relaxed-ok work-claim ticket; results are published through the channel/join, only claim uniqueness matters
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = slots.get(i).and_then(|slot| slot.lock().take()) else {
                        break;
                    };
                    if tx.send((i, work(item, &mut scratch))).is_err() {
                        break;
                    }
                }
            });
        }
        // Dropping the original sender ends the receive loop once every
        // worker has exited, claimed items or not.
        drop(tx);
        for (i, result) in rx {
            if outcome.is_ok() {
                outcome = take(i, result);
                if outcome.is_err() {
                    // sast: relaxed-ok advisory stop flag; a stale read costs one extra claim, results stay channel-ordered
                    stop.store(true, Ordering::Relaxed);
                }
            }
        }
    })
    .expect("worker threads join");
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_item_runs_once_at_any_thread_count() {
        for threads in [1, 2, 4] {
            let mut seen = vec![0usize; 50];
            let ok: Result<(), ()> = run(
                threads,
                (0..50).collect(),
                |i: usize, _| i * 2,
                |i, r| {
                    assert_eq!(r, i * 2);
                    seen[i] += 1;
                    Ok(())
                },
            );
            assert!(ok.is_ok());
            assert!(seen.iter().all(|&n| n == 1), "threads={threads}: {seen:?}");
        }
    }

    #[test]
    fn the_first_error_from_take_is_returned_and_later_results_dropped() {
        for threads in [1, 2] {
            let mut taken = 0;
            let err = run(
                threads,
                (0..10_000).collect(),
                |i: usize, _| i,
                |_, _| {
                    taken += 1;
                    Err("stop")
                },
            );
            assert_eq!(err, Err("stop"));
            assert_eq!(taken, 1, "threads={threads}");
        }
    }
}
