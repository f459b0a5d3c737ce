//! The sharded control plane: hierarchical coordinated rounds with
//! batched quorum commits.
//!
//! One flat [`Coordinator`](crate::coordinator::Coordinator) barriers
//! every rank and commits every image through one replica set — fine at
//! survey scale, a bottleneck at the paper's capability scale (BlueGene/L:
//! 65,536 nodes). Skjellum et al. (PAPERS.md) argue the checkpoint
//! *service* itself must scale and survive faults. This module is that
//! service:
//!
//! * **Two levels.** Ranks are partitioned across shard coordinators.
//!   Each shard runs a local coordinated round — freeze, capture, encode
//!   — and commits its round's images as ONE framed batched quorum commit
//!   ([`ckpt_storage::StableStorage::store_batch`]): one admission/backoff/ack cycle
//!   per replica per shard round instead of per image.
//! * **Two phases.** The root commits the global cut only after every
//!   shard's quorum ack (phase 1 = shard commits, phase 2 = root commit).
//!   Both phases carry faultpoint sites — `shard/s<i>/commit` and
//!   `shard/root/commit` — so the crash matrix can kill the protocol
//!   between any two steps. A round that dies part-way burns its
//!   sequence number and leaves the previous cut as the recovery point:
//!   restart can never observe a mix of rounds.
//! * **O(shard) root.** The root aggregates per-shard summaries
//!   ([`ShardRound`]) — it never rescans ranks. Rank bookkeeping for
//!   restart is refreshed only when membership changes (first round,
//!   post-restart), not per round.
//!
//! The [`scale_round`] model extends the measurement to 1k–10k simulated
//! nodes (report `c14`): real [`ckpt_replica::StripedStore`] commits with synthetic
//! per-rank payloads, the paper's exponential MTBF arithmetic on top.

use crate::cluster::Cluster;
use crate::coordinator::{capture_rank_encoded, restart_saved_ranks};
use crate::mpi::{MpiJob, RankRef};
use ckpt_core::tracker::{Tracker, TrackerKind};
use ckpt_par::Pool;
use ckpt_replica::{ReplicaConfig, ReplicatedStore, Striped, StripedReplicaSet};
use ckpt_storage::ImageKey;
use simos::cost::CostModel;
use simos::faultpoint::{Fault, FaultHandle};
use simos::types::{SimError, SimResult};
use std::collections::BTreeMap;
use std::sync::Arc;

/// What one shard reported to the root: everything the root needs, and
/// all it ever looks at — O(shards) per round, never O(ranks).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRound {
    pub shard: usize,
    pub ranks: usize,
    pub bytes: u64,
    /// Virtual time of this shard's batched quorum commit.
    pub commit_ns: u64,
    /// Acknowledgement cycles the commit consumed (1 per stripe touched).
    pub ack_cycles: u64,
}

/// Per-round result of a hierarchical coordinated checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierOutcome {
    pub seq: u64,
    pub shards: usize,
    pub ranks: usize,
    pub total_bytes: u64,
    /// Wall (virtual) time of the whole round (all shards + root commit).
    pub round_ns: u64,
    /// Total replica ack cycles across all shard commits — compare with
    /// `ranks` (what the per-image path would pay).
    pub ack_cycles: u64,
    pub incremental: bool,
    /// Per-shard summaries, in shard order.
    pub shard_rounds: Vec<ShardRound>,
}

/// The two-level coordinated-checkpoint driver for one job.
pub struct ShardedCoordinator {
    pub job_key: String,
    shards: usize,
    tracker_kind: TrackerKind,
    trackers: BTreeMap<u32, Tracker>,
    seq: u64,
    /// Newest sequence number the ROOT committed (phase 2). Shard commits
    /// at a higher seq that never reached phase 2 are dead weight in
    /// storage, not recovery points.
    committed_seq: u64,
    saved_ranks: Vec<u32>,
    /// Set when rank membership changed (launch, restart); the next
    /// commit refreshes `saved_ranks` once instead of every round.
    membership_stale: bool,
    faults: FaultHandle,
    pool: Arc<Pool>,
    pub outcomes: Vec<HierOutcome>,
}

impl ShardedCoordinator {
    /// `shards` shard coordinators under one root. `shards` is clamped to
    /// the rank count at round time; 1 shard degenerates to the flat
    /// protocol (plus the root commit point).
    pub fn new(job_key: &str, tracker_kind: TrackerKind, shards: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        ShardedCoordinator {
            job_key: job_key.to_string(),
            shards,
            tracker_kind,
            trackers: BTreeMap::new(),
            seq: 0,
            committed_seq: 0,
            saved_ranks: Vec::new(),
            membership_stale: true,
            faults: FaultHandle::disabled(),
            pool: ckpt_par::global().clone(),
            outcomes: Vec::new(),
        }
    }

    pub fn with_faults(mut self, faults: FaultHandle) -> Self {
        self.faults = faults;
        self
    }

    pub fn with_pool(mut self, pool: Arc<Pool>) -> Self {
        self.pool = pool;
        self
    }

    pub fn committed_seq(&self) -> u64 {
        self.committed_seq
    }

    pub fn has_checkpoint(&self) -> bool {
        self.committed_seq > 0 && !self.saved_ranks.is_empty()
    }

    /// Check a protocol faultpoint. Transients are absorbed by one retry
    /// (the next check); anything else aborts the round.
    fn protocol_fault(&self, site: &str, bytes: u64) -> SimResult<()> {
        if self.faults.is_off() {
            return Ok(());
        }
        match self.faults.check(site, bytes) {
            None => Ok(()),
            Some(Fault::Transient) => match self.faults.check(site, bytes) {
                None | Some(Fault::Transient) => Ok(()),
                Some(_) => Err(SimError::Usage(format!("{site}: coordinator lost"))),
            },
            Some(_) => Err(SimError::Usage(format!("{site}: coordinator lost"))),
        }
    }

    /// Take a hierarchical coordinated checkpoint of every rank. Must be
    /// called at a superstep boundary (quiescent channels — which is what
    /// lets shards commit one after another inside a single consistent
    /// cut: no rank runs until the round returns).
    ///
    /// Transactional end to end: any shard failure, or a root failure
    /// between the last shard ack and the global commit, aborts the round
    /// — staged images are deleted best-effort, every frozen rank is
    /// thawed, the sequence number is burned, and
    /// [`ShardedCoordinator::restart`] still points at the previous cut.
    pub fn checkpoint(&mut self, cluster: &mut Cluster, job: &MpiJob) -> SimResult<HierOutcome> {
        let t0 = cluster.now();
        self.seq += 1;
        let seq = self.seq;
        let incremental = self.committed_seq > 0
            && self.committed_seq + 1 == seq
            && self.tracker_kind.supports_incremental();

        let n_ranks = job.ranks.len();
        let shards = self.shards.min(n_ranks.max(1));
        let per_shard = n_ranks.div_ceil(shards);

        let mut shard_rounds: Vec<ShardRound> = Vec::with_capacity(shards);
        let mut staged: Vec<RankRef> = Vec::new();
        let mut max_node_time = t0;

        // Phase 1: every shard runs its local round and commits one batch.
        for (s, shard_ranks) in job.ranks.chunks(per_shard).enumerate() {
            match self.shard_round(cluster, s, shard_ranks, seq, incremental) {
                Ok(round) => {
                    for r in shard_ranks {
                        if let Some(k) = cluster.node(r.node).kernel() {
                            max_node_time = max_node_time.max(k.now());
                        }
                    }
                    staged.extend_from_slice(shard_ranks);
                    shard_rounds.push(round);
                }
                Err(e) => {
                    self.abort_round(cluster, seq, &staged);
                    return Err(e);
                }
            }
        }

        // Phase 2: the root turns the acked shard set into the global cut.
        // A crash HERE is the interesting window — every shard committed,
        // but the cut does not exist yet, so recovery must use seq - 1.
        let total_bytes: u64 = shard_rounds.iter().map(|r| r.bytes).sum();
        if let Err(e) = self.protocol_fault("shard/root/commit", total_bytes) {
            self.abort_round(cluster, seq, &staged);
            return Err(e);
        }
        self.committed_seq = seq;
        if self.membership_stale {
            self.saved_ranks = job.ranks.iter().map(|r| r.rank).collect();
            self.membership_stale = false;
        }

        // Barrier: every node waits for the slowest shard.
        for node in cluster.alive_nodes() {
            let k = cluster.node(node).kernel().expect("alive");
            if k.now() < max_node_time {
                let dt = max_node_time - k.now();
                let _ = k.run_for(dt);
            }
        }
        let outcome = HierOutcome {
            seq,
            shards,
            ranks: n_ranks,
            total_bytes,
            round_ns: max_node_time - t0,
            ack_cycles: shard_rounds.iter().map(|r| r.ack_cycles).sum(),
            incremental,
            shard_rounds,
        };
        cluster.trace().cluster(
            simos::trace::ClusterEvent::CoordRound {
                ranks: n_ranks as u32,
                bytes: total_bytes,
                round_ns: outcome.round_ns,
            },
            max_node_time,
        );
        self.outcomes.push(outcome.clone());
        Ok(outcome)
    }

    /// One shard's local round: capture + encode every rank (left frozen),
    /// one batched quorum commit through the shard leader's remote handle,
    /// then charge, re-arm, thaw. On error every still-frozen rank of this
    /// shard is thawed and the error propagates to the root for abort.
    fn shard_round(
        &mut self,
        cluster: &mut Cluster,
        s: usize,
        shard_ranks: &[RankRef],
        seq: u64,
        incremental: bool,
    ) -> SimResult<ShardRound> {
        let pool = self.pool.clone();
        let mut captures: Vec<(RankRef, Vec<u8>)> = Vec::with_capacity(shard_ranks.len());
        let thaw_all = |cluster: &mut Cluster, captures: &[(RankRef, Vec<u8>)]| {
            for (r, _) in captures {
                if let Some(k) = cluster.node(r.node).kernel() {
                    let _ = k.thaw_process(r.pid);
                }
            }
        };
        for r in shard_ranks {
            let tracker = self
                .trackers
                .entry(r.rank)
                .or_insert_with(|| Tracker::new(self.tracker_kind));
            match capture_rank_encoded(cluster, *r, seq, incremental, tracker, &pool) {
                Ok(bytes) => captures.push((*r, bytes)),
                Err(e) => {
                    thaw_all(cluster, &captures);
                    return Err(e);
                }
            }
        }
        let shard_bytes: u64 = captures.iter().map(|(_, b)| b.len() as u64).sum();

        // The shard coordinator itself can die between capture and commit.
        if let Err(e) = self.protocol_fault(&format!("shard/s{s}/commit"), shard_bytes) {
            thaw_all(cluster, &captures);
            return Err(e);
        }

        // One framed batch through the shard leader's remote handle.
        let leader = captures[0].0;
        let remote = cluster.nodes[leader.node.0 as usize].remote.clone();
        let cost = {
            let k = cluster
                .node(leader.node)
                .kernel()
                .ok_or_else(|| SimError::Usage(format!("{} down at shard commit", leader.node)))?;
            k.cost.clone()
        };
        let keys: Vec<String> = captures
            .iter()
            .map(|(r, _)| ImageKey::new(&self.job_key, r.rank, seq).to_string())
            .collect();
        let objects: Vec<(&str, &[u8])> = keys
            .iter()
            .zip(&captures)
            .map(|(k, (_, b))| (k.as_str(), b.as_slice()))
            .collect();
        let (receipt, store_label) = {
            let mut st = remote.lock();
            let rc = st.store_batch(&objects, &cost).map_err(|e| {
                SimError::Usage(format!("shard {s} batched commit failed: {e}"))
            });
            match rc {
                Ok(rc) => (rc, st.label()),
                Err(e) => {
                    drop(st);
                    thaw_all(cluster, &captures);
                    return Err(e);
                }
            }
        };

        // Commit landed: charge every participant (they all wait for the
        // shard's quorum ack), re-arm dirty tracking, thaw.
        for (r, bytes) in &captures {
            let k = cluster
                .node(r.node)
                .kernel()
                .ok_or_else(|| SimError::Usage(format!("{} down after shard commit", r.node)))?;
            k.charge(k.cost.memcpy(bytes.len() as u64) + receipt.time_ns);
            self.trackers
                .get_mut(&r.rank)
                .expect("tracker created at capture")
                .arm(k, r.pid)?;
            k.thaw_process(r.pid)?;
        }
        if let Some(k) = cluster.node(leader.node).kernel() {
            k.trace.storage(
                simos::trace::StorageOp::Store,
                &store_label,
                receipt.bytes,
                receipt.time_ns,
            );
        }
        Ok(ShardRound {
            shard: s,
            ranks: captures.len(),
            bytes: receipt.bytes,
            commit_ns: receipt.time_ns,
            ack_cycles: receipt.ack_cycles,
        })
    }

    /// Best-effort removal of an aborted round's staged images; restart
    /// correctness relies on `committed_seq`, not on this cleanup.
    fn abort_round(&mut self, cluster: &mut Cluster, seq: u64, staged: &[RankRef]) {
        for r in staged {
            let remote = cluster.nodes[r.node.0 as usize].remote.clone();
            let mut s = remote.lock();
            let _ = s.delete(&ImageKey::new(&self.job_key, r.rank, seq).to_string());
        }
    }

    /// Restart every rank from the newest ROOT-committed cut (shard
    /// commits beyond it are ignored by construction — loads are capped at
    /// `committed_seq`).
    pub fn restart(&mut self, cluster: &mut Cluster, job: &mut MpiJob) -> SimResult<()> {
        if !self.has_checkpoint() {
            return Err(SimError::Usage("no hierarchical checkpoint to restart".into()));
        }
        let saved = self.saved_ranks.clone();
        restart_saved_ranks(
            cluster,
            job,
            &self.job_key,
            &saved,
            self.committed_seq,
            self.tracker_kind,
            &mut self.trackers,
        )?;
        self.membership_stale = true;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The 1k–10k node scale model (report c14).
// ---------------------------------------------------------------------------

/// One configuration of the scale sweep: `nodes` simulated ranks (one per
/// node), partitioned over `shards` shard coordinators, committing into a
/// striped pool of `stripes` quorum sets of `replicas` replicas each.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    pub nodes: usize,
    pub shards: usize,
    pub stripes: usize,
    pub replicas: usize,
    pub write_quorum: usize,
    /// Mean per-rank (incremental) image size; actual sizes are drawn
    /// deterministically in `[mean/2, 3*mean/2)`.
    pub mean_image_bytes: u64,
    /// Per-node MTBF, hours (the paper's Table 2 regime).
    pub mtbf_hours: f64,
    pub seed: u64,
}

/// What one [`scale_round`] measured.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalePoint {
    pub nodes: usize,
    pub shards: usize,
    pub stripes: usize,
    pub dirty_bytes: u64,
    /// Slowest rank's local capture (memcpy of its image).
    pub capture_ns: u64,
    /// Commit phase: busiest stripe's total commit time (stripes are
    /// independent, shards hitting the same stripe serialize on it).
    pub commit_ns: u64,
    /// capture + commit + the root's two-phase network round-trips.
    pub round_ns: u64,
    /// Replica ack cycles the batched path actually paid.
    pub batched_ack_cycles: u64,
    /// What the per-image path would pay: one cycle per rank.
    pub per_image_ack_cycles: u64,
    /// P(at least one node fails during the round) under exponential
    /// failures: `1 - exp(-nodes * round / mtbf)`.
    pub p_disturb: f64,
    /// Expected rework per round: a disturbed sharded round redoes one
    /// shard; a disturbed monolithic round redoes everything.
    pub expected_redo_ns: u64,
    pub expected_redo_mono_ns: u64,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Run one hierarchical round at scale: deterministic synthetic per-rank
/// payloads (no kernels — the control plane is what is being measured),
/// REAL batched quorum commits through a [`ckpt_replica::StripedStore`], the paper's
/// MTBF arithmetic on the resulting round time.
pub fn scale_round(cfg: &ScaleConfig, cost: &CostModel) -> ScalePoint {
    scale_round_with_pool(cfg, cost, ckpt_par::global().clone())
}

/// [`scale_round`] with an explicit worker pool (width 1 = the exact
/// serial path; results are identical at every width).
pub fn scale_round_with_pool(cfg: &ScaleConfig, cost: &CostModel, pool: Arc<Pool>) -> ScalePoint {
    assert!(cfg.nodes >= 1 && cfg.shards >= 1 && cfg.stripes >= 1);
    // Per-rank payloads: pure, deterministic, fanned out on the pool with
    // ordered merge (width-invariant by construction).
    let seed = cfg.seed;
    let mean = cfg.mean_image_bytes.max(2);
    let payloads: Vec<(String, Vec<u8>)> = pool.par_map_ordered(
        (0..cfg.nodes).collect(),
        || (),
        |_, _, rank| {
            let h = splitmix64(seed ^ (rank as u64).wrapping_mul(0x2545_f491_4f6c_dd1d));
            let len = (mean / 2 + h % mean) as usize;
            let key = ImageKey::new("scale", rank as u32, 1).to_string();
            (key, vec![(rank & 0xff) as u8; len])
        },
    );
    let dirty_bytes: u64 = payloads.iter().map(|(_, d)| d.len() as u64).sum();
    let capture_ns = payloads
        .iter()
        .map(|(_, d)| cost.memcpy(d.len() as u64))
        .max()
        .unwrap_or(0);

    // One batched commit per shard; stripes are independent in virtual
    // time, but shards routed to the same stripe serialize on it.
    let quorum = ReplicaConfig::new(cfg.replicas, cfg.write_quorum);
    let mut store = Striped::new(StripedReplicaSet::new(cfg.stripes, cfg.replicas), |set| {
        ReplicatedStore::new(set, quorum)
    })
    .with_pool(pool.clone());
    let per_shard = cfg.nodes.div_ceil(cfg.shards);
    let mut stripe_busy = vec![0u64; cfg.stripes];
    let mut batched_ack_cycles = 0u64;
    for shard in payloads.chunks(per_shard) {
        let objects: Vec<(&str, &[u8])> = shard
            .iter()
            .map(|(k, d)| (k.as_str(), d.as_slice()))
            .collect();
        let receipts = store
            .store_batch_detailed(&objects, cost)
            .expect("healthy pool commits");
        for (j, r) in receipts {
            stripe_busy[j] += r.time_ns;
            batched_ack_cycles += r.ack_cycles;
        }
    }
    let commit_ns = stripe_busy.iter().copied().max().unwrap_or(0);
    // Two-phase root: shard-ack collection + global commit broadcast.
    let round_ns = capture_ns + commit_ns + 2 * cost.net_latency_ns;

    // The paper's exponential-failure arithmetic at aggregate scale.
    let round_s = round_ns as f64 / 1e9;
    let mtbf_s = cfg.mtbf_hours * 3600.0;
    let lambda = cfg.nodes as f64 * round_s / mtbf_s;
    let p_disturb = 1.0 - (-lambda).exp();
    let expected_redo_ns = (p_disturb * round_ns as f64 / cfg.shards as f64) as u64;
    let expected_redo_mono_ns = (p_disturb * round_ns as f64) as u64;

    ScalePoint {
        nodes: cfg.nodes,
        shards: cfg.shards,
        stripes: cfg.stripes,
        dirty_bytes,
        capture_ns,
        commit_ns,
        round_ns,
        batched_ack_cycles,
        per_image_ack_cycles: cfg.nodes as u64,
        p_disturb,
        expected_redo_ns,
        expected_redo_mono_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::FailureConfig;
    use crate::coordinator::Coordinator;
    use crate::node::NodeId;
    use simos::apps::{AppParams, NativeKind};

    fn setup_striped(
        n_nodes: usize,
        n_ranks: u32,
        shards: usize,
    ) -> (Cluster, MpiJob, ShardedCoordinator) {
        let mut c = Cluster::new_striped(
            n_nodes,
            CostModel::circa_2005(),
            FailureConfig::none(),
            4,
            3,
            2,
        );
        let job = MpiJob::launch(
            &mut c,
            "app",
            n_ranks,
            NativeKind::SparseRandom,
            AppParams::small(),
            6,
            32 * 1024,
        )
        .unwrap();
        let coord = ShardedCoordinator::new("job1", TrackerKind::KernelPage, shards);
        (c, job, coord)
    }

    #[test]
    fn hierarchical_round_commits_and_amortizes_acks() {
        // 16 ranks over 2 shards and 4 stripes: a shard round pays at most
        // one ack cycle per stripe it touches (≤ 2 × 4 = 8), while the
        // per-image path would pay 16.
        let (mut c, mut job, mut coord) = setup_striped(4, 16, 2);
        for _ in 0..2 {
            job.superstep(&mut c).unwrap();
        }
        let o = coord.checkpoint(&mut c, &job).unwrap();
        assert_eq!((o.ranks, o.shards), (16, 2));
        assert_eq!(o.shard_rounds.len(), 2);
        assert!(o.total_bytes > 0);
        assert!(
            o.ack_cycles < o.ranks as u64,
            "batched commits must pay fewer ack cycles ({}) than ranks ({})",
            o.ack_cycles,
            o.ranks
        );
        // The job continues, and the next round is incremental.
        job.superstep(&mut c).unwrap();
        let o2 = coord.checkpoint(&mut c, &job).unwrap();
        assert!(o2.incremental);
        assert!(o2.total_bytes < o.total_bytes);
    }

    #[test]
    fn sharded_recovery_matches_failure_free_run() {
        let reference = {
            let (mut c, mut job, _) = setup_striped(3, 6, 2);
            for _ in 0..6 {
                job.superstep(&mut c).unwrap();
            }
            job.rank_states(&mut c).unwrap()
        };
        let (mut c, mut job, mut coord) = setup_striped(3, 6, 2);
        for _ in 0..3 {
            job.superstep(&mut c).unwrap();
        }
        coord.checkpoint(&mut c, &job).unwrap();
        job.superstep(&mut c).unwrap(); // will be lost
        c.inject_failure(NodeId(1));
        let _ = job.superstep(&mut c);
        coord.restart(&mut c, &mut job).unwrap();
        assert_eq!(job.completed_supersteps(), 3);
        for r in &job.ranks {
            assert_ne!(r.node, NodeId(1));
        }
        for _ in 0..3 {
            job.superstep(&mut c).unwrap();
        }
        assert_eq!(job.rank_states(&mut c).unwrap(), reference);
    }

    #[test]
    fn shard_count_does_not_change_recovered_state() {
        // The whole point of width-invariance: 1, 2, or 8 shards commit
        // the SAME cut — recovered application state is byte-identical,
        // and identical to the flat coordinator's.
        let run_sharded = |shards: usize| {
            let (mut c, mut job, mut coord) = setup_striped(3, 6, shards);
            for _ in 0..3 {
                job.superstep(&mut c).unwrap();
            }
            coord.checkpoint(&mut c, &job).unwrap();
            c.inject_failure(NodeId(0));
            let _ = job.superstep(&mut c);
            coord.restart(&mut c, &mut job).unwrap();
            for _ in 0..2 {
                job.superstep(&mut c).unwrap();
            }
            job.rank_states(&mut c).unwrap()
        };
        let flat = {
            let mut c = Cluster::new_striped(
                3,
                CostModel::circa_2005(),
                FailureConfig::none(),
                4,
                3,
                2,
            );
            let mut job = MpiJob::launch(
                &mut c,
                "app",
                6,
                NativeKind::SparseRandom,
                AppParams::small(),
                6,
                32 * 1024,
            )
            .unwrap();
            let mut coord = Coordinator::new("job1", TrackerKind::KernelPage);
            for _ in 0..3 {
                job.superstep(&mut c).unwrap();
            }
            coord.checkpoint(&mut c, &job).unwrap();
            c.inject_failure(NodeId(0));
            let _ = job.superstep(&mut c);
            coord.restart(&mut c, &mut job).unwrap();
            for _ in 0..2 {
                job.superstep(&mut c).unwrap();
            }
            job.rank_states(&mut c).unwrap()
        };
        let one = run_sharded(1);
        assert_eq!(one, run_sharded(2), "2 shards diverged from 1");
        assert_eq!(one, run_sharded(8), "8 shards diverged from 1");
        assert_eq!(one, flat, "sharded cut diverged from the flat protocol");
    }

    #[test]
    fn root_crash_after_all_shard_acks_recovers_at_previous_cut() {
        let (mut c, mut job, mut coord) = setup_striped(3, 6, 2);
        for _ in 0..2 {
            job.superstep(&mut c).unwrap();
        }
        coord.checkpoint(&mut c, &job).unwrap(); // seq 1, the safe cut
        job.superstep(&mut c).unwrap();
        // Arm the root commit point: every shard acks seq 2, then the
        // root dies before phase 2.
        coord = ShardedCoordinator {
            faults: FaultHandle::armed("shard/root/commit@1", Fault::FailStop),
            ..coord
        };
        assert!(coord.checkpoint(&mut c, &job).is_err());
        assert_eq!(coord.committed_seq(), 1, "seq 2 must not be a recovery point");
        // Recovery lands on superstep 2 (the seq-1 cut), never a mix.
        coord.restart(&mut c, &mut job).unwrap();
        assert_eq!(job.completed_supersteps(), 2);
        job.superstep(&mut c).unwrap();
        assert_eq!(job.completed_supersteps(), 3);
    }

    #[test]
    fn shard_crash_mid_round_aborts_cleanly() {
        let (mut c, mut job, mut coord) = setup_striped(3, 6, 3);
        for _ in 0..2 {
            job.superstep(&mut c).unwrap();
        }
        coord.checkpoint(&mut c, &job).unwrap();
        job.superstep(&mut c).unwrap();
        coord = ShardedCoordinator {
            faults: FaultHandle::armed("shard/s1/commit@1", Fault::FailStop),
            ..coord
        };
        assert!(coord.checkpoint(&mut c, &job).is_err());
        assert_eq!(coord.committed_seq(), 1);
        // Every rank was thawed by the abort: the job keeps running.
        job.superstep(&mut c).unwrap();
        assert_eq!(job.completed_supersteps(), 4);
        // And a clean retry commits (seq 2 was burned, seq 3 lands).
        coord.faults = FaultHandle::disabled();
        let o = coord.checkpoint(&mut c, &job).unwrap();
        assert_eq!(o.seq, 3);
        assert_eq!(coord.committed_seq(), 3);
    }

    #[test]
    fn scale_round_is_width_and_determinism_stable() {
        let cfg = ScaleConfig {
            nodes: 1000,
            shards: 8,
            stripes: 4,
            replicas: 3,
            write_quorum: 2,
            mean_image_bytes: 1024,
            mtbf_hours: 10.0,
            seed: 42,
        };
        let cost = CostModel::circa_2005();
        let p1 = scale_round_with_pool(&cfg, &cost, Arc::new(Pool::new(1)));
        let p4 = scale_round_with_pool(&cfg, &cost, Arc::new(Pool::new(4)));
        let p8 = scale_round_with_pool(&cfg, &cost, Arc::new(Pool::new(8)));
        assert_eq!(p1, p4, "pool width 4 changed the scale model");
        assert_eq!(p1, p8, "pool width 8 changed the scale model");
        assert!(p1.batched_ack_cycles < p1.per_image_ack_cycles / 10);
        assert!(p1.p_disturb > 0.0 && p1.p_disturb < 1.0);
    }

    #[test]
    fn more_stripes_shrink_the_commit_phase() {
        let cost = CostModel::circa_2005();
        let base = ScaleConfig {
            nodes: 2000,
            shards: 8,
            stripes: 1,
            replicas: 3,
            write_quorum: 2,
            mean_image_bytes: 1024,
            mtbf_hours: 10.0,
            seed: 7,
        };
        let narrow = scale_round(&base, &cost);
        let wide = scale_round(&ScaleConfig { stripes: 8, ..base }, &cost);
        assert!(
            wide.commit_ns * 2 < narrow.commit_ns,
            "8 stripes must overlap commits: {} vs {}",
            wide.commit_ns,
            narrow.commit_ns
        );
    }
}
