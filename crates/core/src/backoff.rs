//! Seeded, capped, jittered exponential backoff.
//!
//! Every retry loop in the workspace — the [`ServeClient`] (behind the
//! streaming pipeline and `quasar query`) riding out overloaded replies
//! and serve outages, the ingest tail retrying transient reads — wants
//! the same policy: delays that double from a base, are capped, and carry
//! up to +50% deterministic jitter so a fleet of clients does not retry
//! in lockstep. This module is the one implementation they all share.
//!
//! Determinism is deliberate: the jitter stream is a [SplitMix64]
//! sequence derived from a caller-supplied seed, so tests can assert
//! exact delay schedules and two runs with the same seed behave
//! identically. Callers that want per-process spread seed with e.g.
//! `process::id()`.
//!
//! [SplitMix64]: https://prng.di.unimi.it/splitmix64.c
//!
//! [`ServeClient`]: ../../quasar_stream/client/struct.ServeClient.html

use std::time::Duration;

/// Advances `state` one SplitMix64 step and returns the next value.
///
/// The standard mixer: a Weyl sequence increment followed by two
/// xor-shift-multiply rounds. Good enough to decorrelate retry jitter;
/// not a cryptographic generator.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A capped jittered exponential backoff schedule.
///
/// Delay for attempt `n` (1-based) is `min(base << (n-1), cap)` plus a
/// jitter of up to half that, drawn from the seeded generator. The
/// attempt counter saturates, so a long-lived loop can keep calling
/// [`Backoff::next_delay`] without overflow; [`Backoff::reset`] rewinds
/// the schedule after a success.
#[derive(Debug, Clone)]
pub struct Backoff {
    base_ms: u64,
    cap_ms: u64,
    attempt: u32,
    rng: u64,
}

impl Backoff {
    /// A schedule starting at `base_ms`, doubling per attempt, capped at
    /// `cap_ms` (before jitter), with jitter drawn from `seed`.
    ///
    /// A `base_ms` of 0 is clamped to 1 so the schedule still advances.
    pub fn new(base_ms: u64, cap_ms: u64, seed: u64) -> Self {
        let base_ms = base_ms.max(1);
        Backoff {
            base_ms,
            cap_ms: cap_ms.max(base_ms),
            attempt: 0,
            rng: seed,
        }
    }

    /// How many delays have been handed out since the last reset.
    pub fn attempt(&self) -> u32 {
        self.attempt
    }

    /// Rewinds the schedule to its first step (the jitter stream keeps
    /// advancing — rewinding it would re-correlate retry storms).
    pub fn reset(&mut self) {
        self.attempt = 0;
    }

    /// The next delay in the schedule: doubled, capped, jittered.
    pub fn next_delay(&mut self) -> Duration {
        self.attempt = self.attempt.saturating_add(1);
        Duration::from_millis(self.delay_ms())
    }

    /// Like [`Backoff::next_delay`], but honouring a server-provided
    /// floor (e.g. an overloaded reply's `retry_after_ms`): the returned
    /// delay is never shorter than the floor.
    pub fn next_delay_at_least(&mut self, floor_ms: u64) -> Duration {
        let scheduled = self.next_delay();
        scheduled.max(Duration::from_millis(floor_ms))
    }

    /// The current attempt's delay in milliseconds.
    fn delay_ms(&mut self) -> u64 {
        let shift = u32::min(self.attempt.saturating_sub(1), 63);
        let exp = self
            .base_ms
            .checked_shl(shift)
            .unwrap_or(self.cap_ms)
            .min(self.cap_ms);
        let jitter = splitmix64(&mut self.rng) % (exp / 2 + 1);
        exp + jitter
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_double_from_base_and_jitter_stays_under_half() {
        let mut b = Backoff::new(10, 10_000, 7);
        for attempt in 1..=6u32 {
            let exp = 10u64 << (attempt - 1);
            let got = b.next_delay().as_millis() as u64;
            assert!(
                (exp..=exp + exp / 2).contains(&got),
                "attempt {attempt}: delay {got} outside [{exp}, {}]",
                exp + exp / 2
            );
        }
    }

    #[test]
    fn cap_bounds_the_exponential_term() {
        let mut b = Backoff::new(100, 400, 1);
        for _ in 0..20 {
            let got = b.next_delay().as_millis() as u64;
            assert!(got <= 400 + 200, "delay {got} exceeds cap plus jitter");
        }
        assert_eq!(b.attempt(), 20);
    }

    #[test]
    fn same_seed_gives_the_same_schedule() {
        let mut a = Backoff::new(10, 1_000, 42);
        let mut b = Backoff::new(10, 1_000, 42);
        let left: Vec<_> = (0..8).map(|_| a.next_delay()).collect();
        let right: Vec<_> = (0..8).map(|_| b.next_delay()).collect();
        assert_eq!(left, right);
    }

    #[test]
    fn different_seeds_decorrelate_the_jitter() {
        let mut a = Backoff::new(10, 1_000_000, 1);
        let mut b = Backoff::new(10, 1_000_000, 2);
        let left: Vec<_> = (0..10).map(|_| a.next_delay()).collect();
        let right: Vec<_> = (0..10).map(|_| b.next_delay()).collect();
        assert_ne!(left, right, "two seeds should not share a jitter stream");
    }

    #[test]
    fn reset_rewinds_the_exponent_but_not_the_jitter_stream() {
        let mut b = Backoff::new(10, 10_000, 3);
        let _ = b.next_delay();
        let _ = b.next_delay();
        b.reset();
        assert_eq!(b.attempt(), 0);
        let after = b.next_delay().as_millis() as u64;
        assert!((10..=15).contains(&after), "post-reset delay {after}");
    }

    #[test]
    fn floor_lifts_short_delays_and_leaves_long_ones() {
        let mut b = Backoff::new(10, 10_000, 9);
        let lifted = b.next_delay_at_least(500);
        assert!(lifted >= Duration::from_millis(500));
        // Deep into the schedule the exponential term dominates any floor.
        for _ in 0..8 {
            let _ = b.next_delay();
        }
        let deep = b.next_delay_at_least(1);
        assert!(deep >= Duration::from_millis(2_560));
    }

    #[test]
    fn zero_base_still_advances() {
        let mut b = Backoff::new(0, 100, 5);
        let d = b.next_delay();
        assert!(d >= Duration::from_millis(1));
    }

    #[test]
    fn overflowing_shift_saturates_at_the_cap() {
        let mut b = Backoff::new(u64::MAX / 2, u64::MAX / 2, 1);
        for _ in 0..70 {
            let _ = b.next_delay();
        }
        // 70 doublings of a huge base must not panic or wrap.
        assert!(b.next_delay() >= Duration::from_millis(1));
    }
}
