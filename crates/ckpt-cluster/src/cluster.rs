//! The cluster: nodes advanced in lock-step, a shared remote checkpoint
//! server, and exponential fail-stop failure injection.
//!
//! The paper's motivating arithmetic: machines like BlueGene/L (65,536
//! nodes) have an aggregate MTBF "orders of magnitude shorter than the
//! execution times of the applications they are intended to run", under
//! fail-stop semantics "where faults can always be detected". The injector
//! draws i.i.d. exponential failure times per node; a failed node loses its
//! kernel and volatile state, its local media become unreachable, and it
//! returns after a repair delay.

use crate::node::{Node, NodeId};
use ckpt_core::{shared_storage, SharedStorage};
use ckpt_replica::{ReplicaConfig, ReplicatedStore, Striped, StripedReplicaSet};
use ckpt_storage::{RemoteServer, RemoteStore};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simos::cost::CostModel;
use simos::trace::{ClusterEvent, TraceHandle};
use simos::types::{SimError, SimResult};
use simos::Kernel;
use std::sync::Arc;

/// Failure-injection configuration.
#[derive(Debug, Clone)]
pub struct FailureConfig {
    /// Per-node mean time between failures (ns of virtual time). `None`
    /// disables injection.
    pub node_mtbf_ns: Option<u64>,
    /// Time from failure to the node rejoining.
    pub repair_ns: u64,
    pub seed: u64,
}

impl FailureConfig {
    pub fn none() -> Self {
        FailureConfig {
            node_mtbf_ns: None,
            repair_ns: 0,
            seed: 0,
        }
    }

    pub fn with_mtbf(node_mtbf_ns: u64, repair_ns: u64, seed: u64) -> Self {
        FailureConfig {
            node_mtbf_ns: Some(node_mtbf_ns),
            repair_ns,
            seed,
        }
    }
}

/// A failure event that occurred during an advance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailureEvent {
    pub(crate) node: NodeId,
    pub(crate) at_ns: u64,
}

/// The cluster.
pub struct Cluster {
    pub nodes: Vec<Node>,
    pub remote_server: Arc<RemoteServer>,
    /// The shared striped pool behind every node's remote handle when the
    /// cluster was built with [`Cluster::new_striped`].
    striped_set: Option<Arc<StripedReplicaSet>>,
    now_ns: u64,
    failure_cfg: FailureConfig,
    rng: StdRng,
    /// Next scheduled failure per node (virtual time).
    next_failure: Vec<Option<u64>>,
    /// Pending repairs: (node index, due time).
    pending_repair: Vec<(usize, u64)>,
    /// All failures so far.
    pub failure_log: Vec<FailureEvent>,
    /// Cluster-wide trace sink, shared with every node kernel (a no-op
    /// sink unless [`Cluster::set_trace`] installs a recording one).
    trace: TraceHandle,
}

impl Cluster {
    /// A cluster whose remote stable storage is one single-server
    /// [`RemoteStore`] per node onto [`Cluster::remote_server`].
    pub fn new(n_nodes: usize, cost: CostModel, failure_cfg: FailureConfig) -> Self {
        let remote_server = RemoteServer::new(1 << 40);
        let server = remote_server.clone();
        let mut c = Self::with_remote(n_nodes, cost, failure_cfg, move |_| {
            shared_storage(RemoteStore::new(server.clone()))
        });
        c.remote_server = remote_server;
        c
    }

    /// A cluster whose nodes' remote stable-storage handles come from
    /// `remote` — whatever tier that is. Hand every node its own client
    /// onto one shared node set (a `ReplicatedStore` or `ErasureStore` per
    /// node over one `ReplicaSet`, say) and a checkpoint committed by one
    /// node is readable from any survivor — the paper's survivability
    /// requirement; the caller keeps the set to damage or inspect it.
    pub fn with_remote(
        n_nodes: usize,
        cost: CostModel,
        failure_cfg: FailureConfig,
        mut remote: impl FnMut(NodeId) -> SharedStorage,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(failure_cfg.seed);
        let nodes: Vec<Node> = (0..n_nodes as u32)
            .map(|i| Node::with_remote(NodeId(i), cost.clone(), remote(NodeId(i))))
            .collect();
        let next_failure = (0..n_nodes)
            .map(|_| Self::draw_failure(&mut rng, &failure_cfg, 0))
            .collect();
        Cluster {
            nodes,
            // Part of the public surface; no node points at it unless the
            // cluster came from `Cluster::new`.
            remote_server: RemoteServer::new(1 << 40),
            striped_set: None,
            now_ns: 0,
            failure_cfg,
            rng,
            next_failure,
            pending_repair: Vec::new(),
            failure_log: Vec::new(),
            trace: TraceHandle::disabled(),
        }
    }

    /// Build a cluster whose remote stable storage is a striped replica
    /// pool: `stripes` independent quorum sets of `n_replicas` each (write
    /// quorum `w`), keys routed by lineage hash. Every cluster node gets
    /// its own [`ckpt_replica::StripedStore`] client onto the same shared
    /// pool, so commits to different rank lineages overlap in virtual time
    /// instead of serializing behind one replica set.
    pub fn new_striped(
        n_nodes: usize,
        cost: CostModel,
        failure_cfg: FailureConfig,
        stripes: usize,
        n_replicas: usize,
        w: usize,
    ) -> Self {
        let set = StripedReplicaSet::new(stripes, n_replicas);
        let cfg = ReplicaConfig::new(n_replicas, w);
        let mut c = Self::with_remote(n_nodes, cost, failure_cfg, |_| {
            shared_storage(Striped::new(set.clone(), |stripe| {
                ReplicatedStore::new(stripe, cfg)
            }))
        });
        c.striped_set = Some(set);
        c
    }

    /// The shared striped pool of a [`Cluster::new_striped`] cluster.
    ///
    /// Public for ckptbench (`benchmark/src/cluster.rs`).
    pub fn striped_set(&self) -> Option<&Arc<StripedReplicaSet>> {
        self.striped_set.as_ref()
    }

    /// Install a trace sink on the cluster and every node kernel (nodes
    /// repaired later inherit it too).
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
        for node in self.nodes.iter_mut() {
            if let Some(k) = node.kernel() {
                k.set_trace(self.trace.clone());
            }
        }
    }

    /// The cluster-wide trace sink.
    pub(crate) fn trace(&self) -> &TraceHandle {
        &self.trace
    }

    fn draw_failure(rng: &mut StdRng, cfg: &FailureConfig, now: u64) -> Option<u64> {
        let mtbf = cfg.node_mtbf_ns? as f64;
        // Exponential inter-arrival via inverse CDF.
        let u: f64 = rng.gen_range(1e-12..1.0);
        Some(now + (-mtbf * u.ln()) as u64)
    }

    pub fn now(&self) -> u64 {
        self.now_ns
    }

    pub fn node(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.0 as usize]
    }

    /// The kernel of node `id`, or the typed [`SimError::NodeDown`].
    pub fn kernel(&mut self, id: NodeId) -> SimResult<&mut Kernel> {
        self.node(id).kernel().ok_or(SimError::NodeDown(id.0))
    }

    pub fn alive_nodes(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.alive())
            .map(|n| n.id)
            .collect()
    }

    /// Advance every node by `ns`, processing failure and repair events at
    /// their scheduled instants (to a `chunk`-granularity within the
    /// window). Returns the failures that occurred.
    pub fn advance(&mut self, ns: u64) -> Vec<FailureEvent> {
        let deadline = self.now_ns + ns;
        let mut events = Vec::new();
        while self.now_ns < deadline {
            // Next interesting instant: earliest failure/repair within the
            // window, else the deadline.
            let mut next = deadline;
            for t in self.next_failure.iter().flatten() {
                if *t > self.now_ns {
                    next = next.min(*t);
                }
            }
            for (_, t) in &self.pending_repair {
                if *t > self.now_ns {
                    next = next.min(*t);
                }
            }
            let step = next - self.now_ns;
            if step > 0 {
                for node in self.nodes.iter_mut() {
                    if let Some(k) = node.kernel() {
                        let _ = k.run_for(step);
                    }
                }
                self.now_ns = next;
            }
            // Fire due failures.
            for i in 0..self.nodes.len() {
                if let Some(t) = self.next_failure[i] {
                    if t <= self.now_ns && self.nodes[i].alive() {
                        self.nodes[i].fail();
                        self.trace
                            .cluster(ClusterEvent::FailureInjected { node: i as u32 }, self.now_ns);
                        events.push(FailureEvent {
                            node: NodeId(i as u32),
                            at_ns: self.now_ns,
                        });
                        self.pending_repair
                            .push((i, self.now_ns + self.failure_cfg.repair_ns));
                        self.next_failure[i] =
                            Self::draw_failure(&mut self.rng, &self.failure_cfg, self.now_ns)
                                .map(|f| f + self.failure_cfg.repair_ns);
                    }
                }
            }
            // Fire due repairs.
            let now = self.now_ns;
            let mut due: Vec<usize> = Vec::new();
            self.pending_repair.retain(|(i, t)| {
                if *t <= now {
                    due.push(*i);
                    false
                } else {
                    true
                }
            });
            for i in due {
                self.nodes[i].repair(now);
                if let Some(k) = self.nodes[i].kernel() {
                    k.set_trace(self.trace.clone());
                }
                self.trace
                    .cluster(ClusterEvent::NodeRepaired { node: i as u32 }, now);
            }
            if step == 0 && next == deadline {
                break;
            }
        }
        self.failure_log.extend(events.iter().copied());
        events
    }

    /// Force a failure on a specific node right now (for directed tests).
    pub fn inject_failure(&mut self, id: NodeId) -> FailureEvent {
        let i = id.0 as usize;
        self.nodes[i].fail();
        self.trace
            .cluster(ClusterEvent::FailureInjected { node: id.0 }, self.now_ns);
        let ev = FailureEvent {
            node: id,
            at_ns: self.now_ns,
        };
        self.failure_log.push(ev);
        self.pending_repair
            .push((i, self.now_ns + self.failure_cfg.repair_ns));
        ev
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simos::apps::{AppParams, NativeKind};

    #[test]
    fn advance_moves_all_clocks_together() {
        let mut c = Cluster::new(3, CostModel::circa_2005(), FailureConfig::none());
        c.advance(50_000_000);
        assert_eq!(c.now(), 50_000_000);
        for n in &c.nodes {
            assert_eq!(n.kernel_ref().unwrap().now(), 50_000_000);
        }
    }

    #[test]
    fn failures_follow_configured_mtbf_roughly() {
        // 4 nodes, MTBF 100 ms, run 2 s → expect ~80 failures; accept a
        // wide band (repair downtime lowers the effective rate).
        let mut c = Cluster::new(
            4,
            CostModel::circa_2005(),
            FailureConfig::with_mtbf(100_000_000, 10_000_000, 42),
        );
        c.advance(2_000_000_000);
        let n = c.failure_log.len();
        assert!(n > 30, "too few failures: {n}");
        assert!(n < 200, "too many failures: {n}");
    }

    #[test]
    fn failed_node_loses_processes_and_returns_after_repair() {
        let mut c = Cluster::new(
            2,
            CostModel::circa_2005(),
            FailureConfig::with_mtbf(u64::MAX / 4, 20_000_000, 1),
        );
        let pid = c
            .node(NodeId(0))
            .kernel()
            .unwrap()
            .spawn_native(NativeKind::SparseRandom, AppParams::small())
            .unwrap();
        c.advance(10_000_000);
        c.inject_failure(NodeId(0));
        assert!(!c.nodes[0].alive());
        // Repair happens during further advance.
        c.advance(30_000_000);
        assert!(c.nodes[0].alive());
        assert!(c.node(NodeId(0)).kernel().unwrap().process(pid).is_none());
        // Clock resynchronized with the cluster.
        assert_eq!(c.nodes[0].now(), c.now());
    }

    #[test]
    fn erasure_cluster_shares_one_coded_shard_group() {
        let set = ckpt_replica::ReplicaSet::new(6);
        let c = Cluster::with_remote(2, CostModel::circa_2005(), FailureConfig::none(), |_| {
            shared_storage(ckpt_ec::ErasureStore::new(set.clone(), 4, 2))
        });
        // A commit through node 0's client is reconstructible through
        // node 1's — even after m shard nodes die.
        let cost = CostModel::circa_2005();
        c.nodes[0]
            .remote
            .lock()
            .store("ckpt/a", b"coded once, readable anywhere", &cost)
            .unwrap();
        set.node(0).fail();
        set.node(5).fail();
        let (bytes, _) = c.nodes[1].remote.lock().load("ckpt/a", &cost).unwrap();
        assert_eq!(bytes, b"coded once, readable anywhere");
    }

    #[test]
    fn deterministic_under_same_seed() {
        let run = |seed: u64| -> Vec<u64> {
            let mut c = Cluster::new(
                3,
                CostModel::circa_2005(),
                FailureConfig::with_mtbf(50_000_000, 5_000_000, seed),
            );
            c.advance(500_000_000);
            c.failure_log.iter().map(|e| e.at_ns).collect()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}
