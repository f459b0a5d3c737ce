//! An LSF-style centralized batch manager — the user-level management
//! layer the paper contrasts with system-level autonomy.
//!
//! Section 4.1: "The common practice to provide flexibility is by
//! integrating the user-initiation operations within a batch management
//! software such as the LSF … we believe that the lack of these
//! capabilities at system-level is a limiting factor to enable autonomic
//! computers because … (2) \[it\] reduces the scalability and fault
//! tolerance of autonomic computers because the management is
//! centralized."
//!
//! [`BatchManager`] makes both criticisms measurable:
//!
//! * **centralized initiation**: each checkpoint round issues one remote
//!   request per managed node *serially from the manager*, so round
//!   latency grows linearly with cluster size — versus the per-node
//!   autonomic daemon whose rounds are local and concurrent;
//! * **single point of failure**: if the manager node is down, nobody
//!   initiates checkpoints at all.

use crate::cluster::Cluster;
use crate::node::NodeId;
use ckpt_core::autonomic::AutonomicDaemon;
use simos::types::{Pid, SimError, SimResult};

/// One process under batch management.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ManagedJob {
    pub node: NodeId,
    pub pid: Pid,
}

/// What one manager-driven checkpoint round cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchRoundReport {
    pub requests_sent: usize,
    pub requests_failed: usize,
    /// Virtual time from round start to the last acknowledgement reaching
    /// the manager.
    pub round_latency_ns: u64,
}

/// The centralized manager. It lives on one node and drives checkpoint
/// daemons on the others over the network.
pub struct BatchManager {
    pub home: NodeId,
    pub jobs: Vec<ManagedJob>,
    /// Name of the daemon module installed on each managed node.
    pub daemon_name: String,
    pub rounds: Vec<BatchRoundReport>,
}

impl BatchManager {
    pub fn new(home: NodeId, daemon_name: &str) -> Self {
        BatchManager {
            home,
            jobs: Vec::new(),
            daemon_name: daemon_name.to_string(),
            rounds: Vec::new(),
        }
    }

    pub fn manage(&mut self, node: NodeId, pid: Pid) {
        self.jobs.push(ManagedJob { node, pid });
    }

    /// Drive one checkpoint round from the manager: for each managed job,
    /// a request message travels manager → node (network latency), the
    /// node's daemon checkpoints the process, and an acknowledgement
    /// travels back. Requests are issued serially — the centralization the
    /// paper criticizes.
    pub fn checkpoint_round(&mut self, cluster: &mut Cluster) -> SimResult<BatchRoundReport> {
        // The manager must be up at all.
        if !cluster.nodes[self.home.0 as usize].alive() {
            return Err(SimError::Usage(format!(
                "batch manager node {} is down — no checkpoints happen (the \
                 single-point-of-failure problem)",
                self.home
            )));
        }
        let t0 = cluster
            .node(self.home)
            .kernel()
            .expect("alive")
            .now();
        let mut sent = 0usize;
        let mut failed = 0usize;
        let mut manager_clock = t0;
        for job in self.jobs.clone() {
            sent += 1;
            // Request: manager pays send cost; serialization happens on
            // the manager's clock.
            let (net_latency, _) = {
                let mk = cluster.node(self.home).kernel().expect("alive");
                let lat = mk.cost.net_latency_ns;
                mk.stats.syscalls += 1;
                let t = mk.cost.syscall_round_trip() + lat;
                mk.charge(t);
                (lat, ())
            };
            manager_clock += net_latency;
            // Target node services the request (if it is alive).
            let Some(k) = cluster.node(job.node).kernel() else {
                failed += 1;
                continue;
            };
            // Bring the target's clock up to the request's arrival.
            if k.now() < manager_clock {
                let dt = manager_clock - k.now();
                let _ = k.run_for(dt);
            }
            let ok = k
                .with_module_mut::<AutonomicDaemon, _>(&self.daemon_name, |d, k| {
                    d.checkpoint_now(k, job.pid).is_ok()
                })
                .unwrap_or(false);
            if !ok {
                failed += 1;
                continue;
            }
            // Acknowledgement back to the manager.
            let done_at = cluster.node(job.node).kernel().expect("alive").now() + net_latency;
            manager_clock = manager_clock.max(done_at);
        }
        // The manager's clock reflects the serialized round.
        {
            let mk = cluster.node(self.home).kernel().expect("alive");
            if mk.now() < manager_clock {
                let dt = manager_clock - mk.now();
                let _ = mk.run_for(dt);
            }
        }
        let report = BatchRoundReport {
            requests_sent: sent,
            requests_failed: failed,
            round_latency_ns: manager_clock - t0,
        };
        self.rounds.push(report.clone());
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::FailureConfig;
    use ckpt_core::autonomic::{self, AutonomicConfig};
    use simos::apps::{AppParams, NativeKind};
    use simos::cost::CostModel;

    /// Build a cluster with one managed app per node (plus a daemon
    /// installed per node but with automatic timers disabled — the batch
    /// manager is the only initiator).
    fn setup(n: usize) -> (Cluster, BatchManager) {
        let mut cluster = Cluster::new(n, CostModel::circa_2005(), FailureConfig::none());
        let mut mgr = BatchManager::new(NodeId(0), "lsfd");
        for i in 0..n {
            let node = NodeId(i as u32);
            let remote = cluster.nodes[i].remote.clone();
            let k = cluster.node(node).kernel().unwrap();
            let mut p = AppParams::small();
            p.total_steps = u64::MAX;
            let pid = k.spawn_native(NativeKind::SparseRandom, p).unwrap();
            let cfg = AutonomicConfig {
                module_name: "lsfd".into(),
                job: format!("batch-{i}"),
                adaptive: false,
                initial_interval_ns: u64::MAX / 4, // timer effectively off
                ..Default::default()
            };
            let name = autonomic::install(k, cfg, remote).unwrap();
            autonomic::register(k, &name, pid).unwrap();
            mgr.manage(node, pid);
        }
        (cluster, mgr)
    }

    #[test]
    fn round_checkpoints_every_managed_job() {
        let (mut cluster, mut mgr) = setup(3);
        cluster.advance(10_000_000);
        let r = mgr.checkpoint_round(&mut cluster).unwrap();
        assert_eq!(r.requests_sent, 3);
        assert_eq!(r.requests_failed, 0);
        for i in 0..3 {
            let k = cluster.node(NodeId(i)).kernel().unwrap();
            let n = k
                .with_module_mut::<AutonomicDaemon, _>("lsfd", |d, _| d.outcomes.len())
                .unwrap();
            assert_eq!(n, 1, "node {i} not checkpointed");
        }
    }

    #[test]
    fn round_latency_grows_with_cluster_size() {
        let latency = |n: usize| {
            let (mut cluster, mut mgr) = setup(n);
            cluster.advance(10_000_000);
            mgr.checkpoint_round(&mut cluster).unwrap().round_latency_ns
        };
        let small = latency(2);
        let big = latency(8);
        assert!(
            big > 2 * small,
            "serialized rounds must scale with size: {small} vs {big}"
        );
    }

    #[test]
    fn dead_manager_means_no_checkpoints() {
        let (mut cluster, mut mgr) = setup(3);
        cluster.advance(5_000_000);
        cluster.inject_failure(NodeId(0));
        assert!(mgr.checkpoint_round(&mut cluster).is_err());
        // The other nodes' daemons took no checkpoints on their own.
        for i in 1..3 {
            let k = cluster.node(NodeId(i)).kernel().unwrap();
            let n = k
                .with_module_mut::<AutonomicDaemon, _>("lsfd", |d, _| d.outcomes.len())
                .unwrap();
            assert_eq!(n, 0);
        }
    }

    #[test]
    fn dead_member_is_reported_not_fatal() {
        let (mut cluster, mut mgr) = setup(3);
        cluster.advance(5_000_000);
        cluster.inject_failure(NodeId(2));
        let r = mgr.checkpoint_round(&mut cluster).unwrap();
        assert_eq!(r.requests_sent, 3);
        assert_eq!(r.requests_failed, 1);
    }
}
