//! Jittered exponential backoff over **virtual** time.
//!
//! Replica RPCs that hit a transient fault are retried on a schedule that
//! doubles from a base delay up to a ceiling, with deterministic jitter
//! drawn from a SplitMix64 stream seeded per (operation, replica). No wall
//! clock is involved anywhere: a [`Backoff`] only *computes* delays in
//! virtual nanoseconds and the caller charges them to the cost model, so
//! tests drive the schedule with a mock clock and never sleep.

use simos::apps::mix64;
use std::fmt;

/// The retry schedule: `min(ceiling, base * 2^attempt)` with equal jitter
/// (half fixed, half uniformly random), for at most `max_retries` retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BackoffPolicy {
    /// First-retry delay before jitter, in virtual ns.
    pub(crate) base_ns: u64,
    /// Hard cap on the un-jittered delay, in virtual ns.
    pub(crate) ceiling_ns: u64,
    /// How many retries are attempted before giving up.
    pub(crate) max_retries: u32,
    /// Seed for the jitter stream. The same seed always yields the same
    /// schedule — replication stays deterministic under fault injection.
    pub(crate) jitter_seed: u64,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            base_ns: 50_000,        // 50 µs: one interconnect round-trip-ish
            ceiling_ns: 1_600_000,  // 1.6 ms cap
            max_retries: 6,
            jitter_seed: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

/// The retry budget ran out: the replica kept failing transiently for
/// `attempts` consecutive tries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RetriesExhausted {
    pub(crate) attempts: u32,
}

impl fmt::Display for RetriesExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "retry budget exhausted after {} attempts", self.attempts)
    }
}

impl std::error::Error for RetriesExhausted {}

/// One operation's backoff state. Create a fresh one per (op, replica) so
/// the jitter stream is a pure function of the policy seed and the salt.
#[derive(Debug, Clone)]
pub(crate) struct Backoff {
    policy: BackoffPolicy,
    attempt: u32,
    rng: u64,
}

/// SplitMix64's stream increment: draw `n` of a stream is
/// `mix64(seed + n * GAMMA)`.
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

impl Backoff {
    /// `salt` distinguishes streams that share a policy (e.g. replica index
    /// hashed with the object key), keeping concurrent retries decorrelated
    /// but still fully deterministic.
    pub(crate) fn new(policy: BackoffPolicy, salt: u64) -> Self {
        Backoff {
            policy,
            attempt: 0,
            rng: policy.jitter_seed ^ salt,
        }
    }

    /// The next delay to wait before retrying, or the typed exhaustion
    /// error once the budget is spent. Never sleeps — the caller charges
    /// the returned virtual nanoseconds.
    pub(crate) fn next_delay_ns(&mut self) -> Result<u64, RetriesExhausted> {
        if self.attempt >= self.policy.max_retries {
            return Err(RetriesExhausted {
                attempts: self.attempt,
            });
        }
        let exp = self
            .policy
            .base_ns
            .saturating_mul(1u64.checked_shl(self.attempt).unwrap_or(u64::MAX))
            .min(self.policy.ceiling_ns);
        self.attempt += 1;
        // Equal jitter: half the delay is fixed, half uniform in [0, exp/2].
        let half = exp / 2;
        let jitter = if half == 0 {
            0
        } else {
            let draw = mix64(self.rng);
            self.rng = self.rng.wrapping_add(GAMMA);
            draw % (half + 1)
        };
        Ok(half + jitter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The mock clock: accumulates virtual delays the way the replicated
    /// store charges them to the cost model. No thread ever sleeps.
    #[derive(Default)]
    struct MockClock {
        now_ns: u64,
    }

    impl MockClock {
        fn advance(&mut self, ns: u64) {
            self.now_ns += ns;
        }
    }

    fn drain(policy: BackoffPolicy, salt: u64) -> (Vec<u64>, RetriesExhausted) {
        let mut b = Backoff::new(policy, salt);
        let mut clock = MockClock::default();
        let mut delays = Vec::new();
        loop {
            match b.next_delay_ns() {
                Ok(d) => {
                    clock.advance(d);
                    delays.push(clock.now_ns);
                }
                Err(e) => return (delays, e),
            }
        }
    }

    #[test]
    fn schedule_is_deterministic_under_a_seed() {
        let p = BackoffPolicy::default();
        let (a, _) = drain(p, 7);
        let (b, _) = drain(p, 7);
        assert_eq!(a, b, "same seed+salt must replay the same schedule");
        let (c, _) = drain(p, 8);
        assert_ne!(a, c, "different salts must decorrelate the jitter");
    }

    #[test]
    fn delays_grow_exponentially_and_cap_at_the_ceiling() {
        let p = BackoffPolicy {
            base_ns: 100,
            ceiling_ns: 1000,
            max_retries: 8,
            jitter_seed: 42,
        };
        let mut b = Backoff::new(p, 0);
        let mut prev_cap = 0u64;
        for attempt in 0..p.max_retries {
            let d = b.next_delay_ns().unwrap();
            let exp = (p.base_ns << attempt).min(p.ceiling_ns);
            assert!(
                d >= exp / 2 && d <= exp,
                "attempt {attempt}: delay {d} outside [{}, {exp}]",
                exp / 2
            );
            // The un-jittered envelope is monotone until it hits the cap.
            assert!(exp >= prev_cap);
            prev_cap = exp;
        }
        assert_eq!(prev_cap, p.ceiling_ns, "schedule must reach the ceiling");
    }

    #[test]
    fn gives_up_after_the_retry_budget_with_a_typed_error() {
        let p = BackoffPolicy {
            max_retries: 3,
            ..BackoffPolicy::default()
        };
        let (delays, err) = drain(p, 1);
        assert_eq!(delays.len(), 3);
        assert_eq!(err, RetriesExhausted { attempts: 3 });
        assert_eq!(err.to_string(), "retry budget exhausted after 3 attempts");
    }

    #[test]
    fn zero_retry_budget_fails_immediately() {
        let p = BackoffPolicy {
            max_retries: 0,
            ..BackoffPolicy::default()
        };
        let mut b = Backoff::new(p, 0);
        assert_eq!(b.next_delay_ns(), Err(RetriesExhausted { attempts: 0 }));
    }

    #[test]
    fn mock_clock_total_matches_summed_delays() {
        // The whole point of virtual-time backoff: total elapsed time is
        // exactly the sum of the computed delays, reproducibly.
        let p = BackoffPolicy::default();
        let (a, _) = drain(p, 3);
        let total = *a.last().unwrap();
        let mut b = Backoff::new(p, 3);
        let mut sum = 0u64;
        while let Ok(d) = b.next_delay_ns() {
            sum += d;
        }
        assert_eq!(sum, total);
    }
}
