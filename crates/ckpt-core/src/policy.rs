//! Checkpoint-initiation policies.
//!
//! Table 1's "initiation" column separates systems whose checkpoints only
//! the application can trigger (`automatic`) from those an external party
//! can drive (`user`). The paper's autonomic-computing argument goes
//! further: initiation should be *self-managing* — "adjustment of the
//! checkpoint interval to the failure rate of the system". This module
//! provides the interval mathematics and an adaptive policy that learns
//! both the checkpoint cost and the failure rate online.

/// Young's first-order optimal checkpoint interval: `sqrt(2 · C · MTBF)`
/// for checkpoint cost `C`. (J. W. Young, CACM 1974 — the standard formula
/// the paper's era used for interval selection.)
pub fn young_interval(ckpt_cost_ns: u64, mtbf_ns: u64) -> u64 {
    if ckpt_cost_ns == 0 || mtbf_ns == 0 {
        return mtbf_ns.max(1);
    }
    let v = (2.0 * ckpt_cost_ns as f64 * mtbf_ns as f64).sqrt();
    v.round() as u64
}

/// Expected fraction of useful work (utilization) for periodic
/// checkpointing with interval `T`, checkpoint cost `C`, restart cost `R`,
/// under exponential failures with the given MTBF. First-order model:
/// overhead = C/T (checkpoint tax) + (T/2 + R)/MTBF (expected rework +
/// restart per failure).
pub fn expected_utilization(t_ns: u64, c_ns: u64, r_ns: u64, mtbf_ns: u64) -> f64 {
    if t_ns == 0 || mtbf_ns == 0 {
        return 0.0;
    }
    let t = t_ns as f64;
    let c = c_ns as f64;
    let r = r_ns as f64;
    let m = mtbf_ns as f64;
    let overhead = c / (t + c) + (t / 2.0 + r) / m;
    (1.0 - overhead).max(0.0)
}

/// How checkpoints are initiated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Only explicit external requests.
    UserInitiated,
    /// Fixed-period timer.
    Periodic { interval_ns: u64 },
    /// Self-tuning: Young's interval from observed cost and failure rate.
    Adaptive,
}

/// An adaptive interval policy: EWMA of observed checkpoint costs plus an
/// online MTBF estimate from observed failures.
#[derive(Debug, Clone)]
pub struct AdaptivePolicy {
    /// Prior MTBF used until failures are observed.
    pub mtbf_prior_ns: u64,
    /// Clamp bounds for the produced interval.
    pub min_interval_ns: u64,
    pub max_interval_ns: u64,
    cost_ewma_ns: f64,
    failures: Vec<u64>,
    observation_start_ns: u64,
}

impl AdaptivePolicy {
    pub fn new(mtbf_prior_ns: u64) -> Self {
        AdaptivePolicy {
            mtbf_prior_ns,
            min_interval_ns: 1_000_000,              // 1 ms
            max_interval_ns: 3_600_000_000_000,      // 1 h
            cost_ewma_ns: 0.0,
            failures: Vec::new(),
            observation_start_ns: 0,
        }
    }

    /// Record the measured cost of a completed checkpoint.
    pub fn note_checkpoint_cost(&mut self, cost_ns: u64) {
        if self.cost_ewma_ns == 0.0 {
            self.cost_ewma_ns = cost_ns as f64;
        } else {
            self.cost_ewma_ns = 0.7 * self.cost_ewma_ns + 0.3 * cost_ns as f64;
        }
    }

    /// Record an observed failure at virtual time `at_ns`.
    pub fn note_failure(&mut self, at_ns: u64) {
        self.failures.push(at_ns);
    }

    /// Current MTBF estimate: observed failure spacing once ≥2 failures are
    /// seen, blended toward the prior before that.
    pub fn mtbf_estimate(&self, now_ns: u64) -> u64 {
        match self.failures.len() {
            0 => self.mtbf_prior_ns,
            1 => {
                // One failure: crude rate = observation window / 1.
                let window = now_ns.saturating_sub(self.observation_start_ns).max(1);
                (window + self.mtbf_prior_ns) / 2
            }
            n => {
                let first = self.failures[0];
                let last = self.failures[n - 1];
                ((last - first) / (n as u64 - 1)).max(1)
            }
        }
    }

    /// The interval to use right now.
    pub fn current_interval(&self, now_ns: u64) -> u64 {
        let cost = if self.cost_ewma_ns > 0.0 {
            self.cost_ewma_ns as u64
        } else {
            // No cost observed yet: be conservative (1 s).
            1_000_000_000
        };
        young_interval(cost, self.mtbf_estimate(now_ns))
            .clamp(self.min_interval_ns, self.max_interval_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEC: u64 = 1_000_000_000;

    #[test]
    fn young_interval_matches_formula() {
        // C = 2 s, MTBF = 1 h → sqrt(2·2·3600) = 120 s.
        let t = young_interval(2 * SEC, 3600 * SEC);
        assert_eq!(t, 120 * SEC);
    }

    #[test]
    fn young_interval_handles_degenerate_inputs() {
        assert_eq!(young_interval(0, 100), 100);
        assert_eq!(young_interval(100, 0), 1);
    }

    #[test]
    fn utilization_is_maximized_near_youngs_interval() {
        let c = 2 * SEC;
        let r = 30 * SEC;
        let mtbf = 3600 * SEC;
        let t_opt = young_interval(c, mtbf);
        let u_opt = expected_utilization(t_opt, c, r, mtbf);
        // Much shorter and much longer intervals must both be worse.
        assert!(u_opt > expected_utilization(t_opt / 20, c, r, mtbf));
        assert!(u_opt > expected_utilization(t_opt * 20, c, r, mtbf));
        assert!(u_opt > 0.9);
    }

    #[test]
    fn utilization_degrades_with_shorter_mtbf() {
        let c = 2 * SEC;
        let r = 30 * SEC;
        let u_long = expected_utilization(120 * SEC, c, r, 3600 * SEC);
        let u_short = expected_utilization(120 * SEC, c, r, 600 * SEC);
        assert!(u_long > u_short);
    }

    #[test]
    fn adaptive_policy_shrinks_interval_when_failures_arrive() {
        let mut p = AdaptivePolicy::new(3600 * SEC);
        p.note_checkpoint_cost(2 * SEC);
        let relaxed = p.current_interval(0);
        // Failures every 10 minutes.
        for i in 1..=5u64 {
            p.note_failure(i * 600 * SEC);
        }
        let tight = p.current_interval(5 * 600 * SEC);
        assert!(
            tight < relaxed,
            "interval should shrink: {relaxed} → {tight}"
        );
        assert_eq!(p.mtbf_estimate(0), 600 * SEC);
    }

    #[test]
    fn adaptive_policy_tracks_cost_changes() {
        let mut p = AdaptivePolicy::new(3600 * SEC);
        p.note_checkpoint_cost(SEC);
        let cheap = p.current_interval(0);
        for _ in 0..20 {
            p.note_checkpoint_cost(100 * SEC);
        }
        let expensive = p.current_interval(0);
        assert!(
            expensive > cheap,
            "costlier checkpoints should be spaced out: {cheap} → {expensive}"
        );
    }

    #[test]
    fn interval_clamped_to_bounds() {
        let mut p = AdaptivePolicy::new(1); // absurdly failing system
        p.note_checkpoint_cost(1);
        assert_eq!(p.current_interval(0), p.min_interval_ns);
        let mut q = AdaptivePolicy::new(u64::MAX / 4);
        q.note_checkpoint_cost(u64::MAX / 4);
        assert_eq!(q.current_interval(0), q.max_interval_ns);
    }
}
