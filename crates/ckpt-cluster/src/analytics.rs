//! Utilization analytics: how checkpoint interval, checkpoint cost and
//! MTBF trade off — the capability-computing arithmetic that motivates the
//! whole paper (BlueGene/L's 65,536 nodes, MTBF "orders of magnitude
//! shorter" than job run times).
//!
//! Two layers:
//!
//! * [`simulate_job`] — runs a *real* job on the kernel-level cluster with
//!   failure injection and coordinated checkpointing, measuring actual
//!   completion time and lost work. Small scale, fully mechanistic.
//! * [`stochastic_run`] — an event-level Monte-Carlo model (no kernels)
//!   that scales to 65,536 nodes, validated against the same first-order
//!   analytics in [`ckpt_core::policy`]. This is how the BlueGene/L
//!   extrapolation in the experiments is produced.

use crate::cluster::{Cluster, FailureConfig};
use crate::mpi::{JobInterrupt, MpiJob};
use crate::shard::ShardedCoordinator;
use ckpt_core::tracker::TrackerKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simos::apps::{AppParams, NativeKind};
use simos::cost::CostModel;
use simos::types::{SimError, SimResult};

/// Configuration of a mechanistic fault-tolerant run.
#[derive(Debug, Clone)]
pub struct JobRunConfig {
    pub n_nodes: usize,
    pub n_ranks: u32,
    pub target_supersteps: u64,
    pub steps_per_superstep: u64,
    pub checkpoint_every_supersteps: u64,
    pub kind: NativeKind,
    pub params: AppParams,
    pub failure: FailureConfig,
    pub tracker: TrackerKind,
    pub cost: CostModel,
}

impl JobRunConfig {
    pub fn small() -> Self {
        JobRunConfig {
            n_nodes: 3,
            n_ranks: 3,
            target_supersteps: 20,
            steps_per_superstep: 4,
            checkpoint_every_supersteps: 5,
            kind: NativeKind::SparseRandom,
            params: AppParams::small(),
            failure: FailureConfig::none(),
            tracker: TrackerKind::KernelPage,
            cost: CostModel::circa_2005(),
        }
    }
}

/// What a mechanistic run produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobRunReport {
    pub completed: bool,
    pub total_ns: u64,
    pub failures: u64,
    pub recoveries: u64,
    pub checkpoints: u64,
    pub checkpoint_bytes: u64,
    /// Supersteps that were executed more than once due to rollback.
    pub supersteps_reexecuted: u64,
}

/// Run a job to completion under failures with periodic coordinated
/// checkpointing. Gives up after `max_recoveries` consecutive failed
/// recovery attempts.
pub fn simulate_job(cfg: &JobRunConfig) -> SimResult<JobRunReport> {
    let mut cluster = Cluster::new(cfg.n_nodes, cfg.cost.clone(), cfg.failure.clone());
    let mut job = MpiJob::launch(
        &mut cluster,
        "job",
        cfg.n_ranks,
        cfg.kind,
        cfg.params.clone(),
        cfg.steps_per_superstep,
        32 * 1024,
    )?;
    let mut coord = ShardedCoordinator::per_image("ftrun", cfg.tracker);
    let mut recoveries = 0u64;
    let mut reexec = 0u64;
    let mut max_superstep_seen = 0u64;
    let give_up_at = 10_000u64;
    let mut attempts = 0u64;
    while job.completed_supersteps() < cfg.target_supersteps {
        attempts += 1;
        if attempts > give_up_at {
            return Err(SimError::Timeout("job never completed".into()));
        }
        match job.superstep(&mut cluster) {
            Ok(()) => {
                let done = job.completed_supersteps();
                if done <= max_superstep_seen {
                    reexec += 1;
                } else {
                    max_superstep_seen = done;
                }
                if cfg.checkpoint_every_supersteps > 0
                    && done % cfg.checkpoint_every_supersteps == 0
                {
                    coord.checkpoint(&mut cluster, &job)?;
                }
            }
            Err(JobInterrupt::NodeLost(_)) => {
                // Wait for enough capacity, then recover from the last
                // coordinated checkpoint (or restart from scratch if none).
                while cluster.alive_nodes().is_empty() {
                    cluster.advance(cfg.failure.repair_ns.max(1_000_000));
                }
                if coord.has_checkpoint() {
                    coord.restart(&mut cluster, &mut job)?;
                } else {
                    job = MpiJob::launch(
                        &mut cluster,
                        "job",
                        cfg.n_ranks,
                        cfg.kind,
                        cfg.params.clone(),
                        cfg.steps_per_superstep,
                        32 * 1024,
                    )?;
                }
                recoveries += 1;
            }
        }
    }
    Ok(JobRunReport {
        completed: true,
        total_ns: cluster.now(),
        failures: cluster.failure_log.len() as u64,
        recoveries,
        checkpoints: coord.outcomes.len() as u64,
        checkpoint_bytes: coord.outcomes.iter().map(|o| o.total_bytes).sum(),
        supersteps_reexecuted: reexec,
    })
}

/// One data point of the large-scale stochastic model.
#[derive(Debug, Clone, PartialEq)]
pub struct StochasticReport {
    pub n_nodes: u64,
    pub job_mtbf_ns: f64,
    pub total_ns: u64,
    pub useful_ns: u64,
    pub failures: u64,
    pub checkpoints: u64,
    pub utilization: f64,
}

/// Event-level Monte-Carlo: a job of `work_ns` useful nanoseconds runs on
/// `n_nodes` nodes whose *aggregate* failure process is exponential with
/// rate `n / node_mtbf`. Periodic checkpoints cost `ckpt_cost_ns`;
/// a failure rolls back to the last checkpoint and pays `restart_cost_ns`.
pub fn stochastic_run(
    n_nodes: u64,
    node_mtbf_ns: u64,
    ckpt_interval_ns: u64,
    ckpt_cost_ns: u64,
    restart_cost_ns: u64,
    work_ns: u64,
    seed: u64,
) -> StochasticReport {
    assert!(n_nodes > 0 && node_mtbf_ns > 0 && ckpt_interval_ns > 0);
    let job_mtbf = node_mtbf_ns as f64 / n_nodes as f64;
    let mut rng = StdRng::seed_from_u64(seed);
    let draw = |rng: &mut StdRng| -> f64 {
        let u: f64 = rng.gen_range(1e-12..1.0f64);
        -job_mtbf * u.ln()
    };
    let mut clock = 0f64;
    let mut done_work = 0u64; // work preserved by the last checkpoint
    let mut failures = 0u64;
    let mut checkpoints = 0u64;
    let mut next_failure = draw(&mut rng);
    // Each segment: compute ckpt_interval of work then checkpoint. The
    // segment size depends only on `done_work`, so it is recomputed on
    // commit rather than on every failure retry (the hot path when the
    // interval is much longer than the job MTBF).
    let mut segment_work = ckpt_interval_ns.min(work_ns) as f64;
    let mut segment_span = segment_work + ckpt_cost_ns as f64;
    while done_work < work_ns {
        if clock + segment_span <= next_failure {
            // Segment completes and commits.
            clock += segment_span;
            done_work += segment_work as u64;
            checkpoints += 1;
            segment_work = ckpt_interval_ns.min(work_ns - done_work) as f64;
            segment_span = segment_work + ckpt_cost_ns as f64;
        } else {
            // Failure mid-segment: everything since the last checkpoint is
            // lost; pay restart and continue.
            failures += 1;
            clock = next_failure + restart_cost_ns as f64;
            next_failure = clock + draw(&mut rng);
        }
        // Defensive bound for absurd configurations.
        if failures > 10_000_000 {
            break;
        }
    }
    let total = clock.round() as u64;
    StochasticReport {
        n_nodes,
        job_mtbf_ns: job_mtbf,
        total_ns: total.max(1),
        useful_ns: work_ns.min(done_work),
        failures,
        checkpoints,
        utilization: work_ns as f64 / total.max(1) as f64,
    }
}

/// Sweep checkpoint intervals for a fixed system; returns
/// (interval, mean utilization over `trials`).
pub fn interval_sweep(
    n_nodes: u64,
    node_mtbf_ns: u64,
    ckpt_cost_ns: u64,
    restart_cost_ns: u64,
    work_ns: u64,
    intervals: &[u64],
    trials: u64,
) -> Vec<(u64, f64)> {
    // Every (interval, trial) pair is an independent Monte-Carlo run with
    // its own seed, so all of them fan out on the pool at once. The means
    // are then folded per interval in trial order — the same f64 summation
    // order as the serial loop, so the sweep is bit-identical at any width.
    let jobs: Vec<(u64, u64)> = intervals
        .iter()
        .flat_map(|&t| (0..trials).map(move |i| (t, i)))
        .collect();
    let utils = ckpt_par::global().par_map_ordered(jobs, || (), |_, _, (t, i)| {
        stochastic_run(
            n_nodes,
            node_mtbf_ns,
            t,
            ckpt_cost_ns,
            restart_cost_ns,
            work_ns,
            0xC0FFEE + i,
        )
        .utilization
    });
    intervals
        .iter()
        .enumerate()
        .map(|(k, &t)| {
            let lo = k * trials as usize;
            let mean = utils[lo..lo + trials as usize].iter().sum::<f64>() / trials as f64;
            (t, mean)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckpt_core::policy::young_interval;

    const SEC: u64 = 1_000_000_000;

    #[test]
    fn failure_free_mechanistic_run_completes() {
        let cfg = JobRunConfig::small();
        let r = simulate_job(&cfg).unwrap();
        assert!(r.completed);
        assert_eq!(r.failures, 0);
        assert_eq!(r.recoveries, 0);
        assert!(r.checkpoints >= 3);
        assert_eq!(r.supersteps_reexecuted, 0);
    }

    /// A run configuration long enough (in virtual time) for failures on a
    /// millisecond MTBF to actually land during the job.
    fn heavy_cfg() -> JobRunConfig {
        let mut cfg = JobRunConfig::small();
        cfg.n_nodes = 4;
        cfg.n_ranks = 4;
        cfg.kind = NativeKind::DenseSweep;
        cfg.params.mem_bytes = 128 * 1024; // ~85 us per step per rank
        cfg.steps_per_superstep = 20;
        cfg.target_supersteps = 10;
        cfg.checkpoint_every_supersteps = 2;
        cfg
    }

    #[test]
    fn run_with_failures_completes_and_reexecutes_some_work() {
        let mut cfg = heavy_cfg();
        cfg.failure = FailureConfig::with_mtbf(20_000_000, 2_000_000, 3);
        let r = simulate_job(&cfg).unwrap();
        assert!(r.completed);
        assert!(r.failures > 0, "no failures injected");
        assert!(r.recoveries > 0);
    }

    #[test]
    fn checkpointing_beats_no_checkpointing_under_failures() {
        // Without checkpoints the job restarts from scratch each failure;
        // with them it only loses the tail. Completion time must reflect
        // that (run both on identical failure seeds).
        let mut with = heavy_cfg();
        with.failure = FailureConfig::with_mtbf(40_000_000, 2_000_000, 9);
        let mut without = with.clone();
        without.checkpoint_every_supersteps = 0;
        let a = simulate_job(&with).unwrap();
        let b = simulate_job(&without).unwrap();
        assert!(a.failures > 0, "seed produced no failures");
        assert!(
            a.total_ns < b.total_ns,
            "with ckpt {} should beat without {}",
            a.total_ns,
            b.total_ns
        );
    }

    #[test]
    fn stochastic_utilization_peaks_near_young() {
        let n = 1024;
        let node_mtbf = 3600 * SEC; // per-node 1 h → job MTBF ≈ 3.5 s
        let c = SEC / 2;
        let r = 5 * SEC;
        let work = 2_000 * SEC;
        let t_young = young_interval(c, (node_mtbf as f64 / n as f64) as u64);
        let sweep = interval_sweep(
            n,
            node_mtbf,
            c,
            r,
            work,
            &[t_young / 16, t_young, t_young * 16],
            8,
        );
        let u = |i: usize| sweep[i].1;
        assert!(u(1) > u(0), "Young {} ≤ too-short {}", u(1), u(0));
        assert!(u(1) > u(2), "Young {} ≤ too-long {}", u(1), u(2));
    }

    #[test]
    fn utilization_collapses_at_bluegene_scale_without_short_intervals() {
        // 65,536 nodes with per-node MTBF of 10 h → job MTBF ≈ 0.55 s at
        // full scale. With a 1-minute interval the machine does almost no
        // useful work; with Young's interval it does far better.
        let n = 65_536;
        let node_mtbf = 36_000 * SEC;
        let c = SEC / 10;
        let long = stochastic_run(n, node_mtbf, 60 * SEC, c, SEC, 60 * SEC, 7);
        let t_young = young_interval(c, (node_mtbf as f64 / n as f64) as u64);
        let tuned = stochastic_run(n, node_mtbf, t_young.max(1), c, SEC, 60 * SEC, 7);
        assert!(
            tuned.utilization > 2.0 * long.utilization,
            "tuned {} vs naive {}",
            tuned.utilization,
            long.utilization
        );
    }

    #[test]
    fn stochastic_model_tracks_analytic_first_order() {
        // Where the interval is well below the job MTBF (the regime the
        // first-order model is valid in), Monte-Carlo mean utilization
        // should be within a few points of the closed form.
        let n = 16;
        let node_mtbf = 3600 * SEC; // job MTBF = 225 s
        let c = SEC;
        let r = 10 * SEC;
        let t = 30 * SEC;
        let mc: f64 = (0..32)
            .map(|i| {
                stochastic_run(n, node_mtbf, t, c, r, 2_000 * SEC, 100 + i).utilization
            })
            .sum::<f64>()
            / 32.0;
        let analytic = ckpt_core::policy::expected_utilization(
            t,
            c,
            r,
            (node_mtbf as f64 / n as f64) as u64,
        );
        assert!(
            (mc - analytic).abs() < 0.1,
            "Monte-Carlo {mc:.3} vs analytic {analytic:.3}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = stochastic_run(128, 3600 * SEC, 60 * SEC, SEC, 5 * SEC, 500 * SEC, 11);
        let b = stochastic_run(128, 3600 * SEC, 60 * SEC, SEC, 5 * SEC, 500 * SEC, 11);
        assert_eq!(a, b);
    }
}
