//! Coordinated checkpointing and restart of parallel jobs — the LAM/MPI /
//! CoCheck scheme of the survey.
//!
//! The protocol exploits the bulk-synchronous structure of [`crate::mpi`]:
//! at a superstep boundary no messages are in flight, so a globally
//! consistent cut is simply "freeze every rank, checkpoint every rank,
//! thaw". Images go to **remote** stable storage (each node pays its own
//! network cost), which is what makes recovery from a node loss possible
//! at all — the paper's criticism of local-only systems.
//!
//! As the paper notes of LAM/MPI, the scheme is transparent to the
//! *application* but not to the *message-passing layer*: it is the job
//! driver (this module) that knows where the boundaries are.

use crate::cluster::Cluster;
use crate::mpi::{MpiJob, RankRef};
use ckpt_core::capture::{capture_image, restore_image, CaptureOptions, RestoreOptions, RestorePid};
use ckpt_core::tracker::{Tracker, TrackerKind};
use ckpt_core::mechanism::commit_image;
use ckpt_storage::{load_chain_at, ImageKey};
use simos::types::{SimError, SimResult};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Per-round result of a coordinated checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoordOutcome {
    pub seq: u64,
    pub ranks: usize,
    pub total_bytes: u64,
    /// Wall (virtual) time of the slowest rank's checkpoint — the job
    /// resumes only when all ranks are done (it is a barrier).
    pub round_ns: u64,
    pub incremental: bool,
}

/// Freeze rank `r` and capture + encode its image (pool-chunked CRC),
/// returning the encoded bytes. On success the rank is left **frozen** —
/// the caller commits the bytes (inline, or as part of a shard's batched
/// quorum commit) and thaws it; on error the rank is thawed best-effort
/// here and nothing is recorded.
pub(crate) fn capture_rank_encoded(
    cluster: &mut Cluster,
    r: RankRef,
    seq: u64,
    incremental: bool,
    tracker: &mut Tracker,
    pool: &Arc<ckpt_par::Pool>,
) -> SimResult<Vec<u8>> {
    let k = cluster
        .node(r.node)
        .kernel()
        .ok_or_else(|| SimError::Usage(format!("{} down during checkpoint", r.node)))?;
    k.freeze_process(r.pid)?;
    let pool_stats0 = pool.stats();
    let result = (|| -> SimResult<Vec<u8>> {
        let opts = if incremental && tracker.is_armed() {
            let c = tracker.collect(k, r.pid)?;
            let mut o = CaptureOptions::incremental("coordinated", seq, seq - 1, c.pages);
            o.node = r.node.0;
            o.encode_pool = Some(pool.clone());
            o
        } else {
            let mut o = CaptureOptions::full("coordinated", seq);
            o.node = r.node.0;
            o.encode_pool = Some(pool.clone());
            o
        };
        let mut img = capture_image(k, r.pid, &opts)?;
        // Key images by *rank*, which is stable across migrations.
        img.header.pid = r.rank;
        // Serialize (pool-chunked CRC) while frozen; the commit happens
        // outside, in whatever order the protocol requires.
        Ok(ckpt_image::encode_with_pool(&img, pool))
    })();
    ckpt_core::mechanism::count_pool_activity(&k.trace, pool, pool_stats0);
    result.inspect_err(|_| {
        let _ = k.thaw_process(r.pid);
    })
}

/// Restart every saved rank from the cut committed at `committed_seq`,
/// placing ranks round-robin on the currently alive nodes. Shared by the
/// flat [`Coordinator`] and the sharded one — the restore path is
/// identical; only how the cut was *committed* differs.
#[allow(clippy::too_many_arguments)]
pub(crate) fn restart_saved_ranks(
    cluster: &mut Cluster,
    job: &mut MpiJob,
    job_key: &str,
    saved_ranks: &[u32],
    committed_seq: u64,
    tracker_kind: TrackerKind,
    trackers: &mut BTreeMap<u32, Tracker>,
) -> SimResult<()> {
    // Kill any surviving ranks (a consistent cut requires all ranks to
    // roll back together).
    for r in &job.ranks {
        if let Some(k) = cluster.node(r.node).kernel() {
            if k.process(r.pid).is_some() {
                k.post_signal(r.pid, simos::signal::Sig::SIGKILL);
                let _ = k.run_for(1_000_000);
                let _ = k.reap(r.pid);
            }
        }
    }
    let alive = cluster.alive_nodes();
    if alive.is_empty() {
        return Err(SimError::Usage("no alive nodes to restart on".into()));
    }
    let mut new_ranks = Vec::new();
    for (i, rank) in saved_ranks.iter().copied().enumerate() {
        let node = alive[i % alive.len()];
        let remote = cluster.nodes[node.0 as usize].remote.clone();
        let k = cluster.node(node).kernel().expect("alive");
        let (full, load_ns, load_label) = {
            let s = remote.lock();
            let (img, t) = load_chain_at(&**s, job_key, rank, committed_seq, &k.cost)
                .map_err(|e| SimError::Usage(format!("coordinated load failed: {e}")))?;
            (img, t, s.label())
        };
        k.charge(load_ns);
        k.trace.storage(
            simos::trace::StorageOp::Load,
            &load_label,
            full.memory_bytes(),
            load_ns,
        );
        let pid = restore_image(k, &full, &RestoreOptions::fresh_running(RestorePid::Fresh))?;
        // Tracking state does not survive migration; re-arm fresh.
        if let Some(t) = trackers.get_mut(&rank) {
            *t = Tracker::new(tracker_kind);
        }
        new_ranks.push(RankRef { rank, node, pid });
    }
    // Trackers were re-created above (unarmed), so the next checkpoint
    // round is automatically full; the sequence number keeps increasing
    // so chain lineage in storage stays valid.
    job.ranks = new_ranks;
    job.resync_supersteps(cluster)?;
    Ok(())
}

/// The coordinated-checkpoint driver for one job.
pub struct Coordinator {
    pub job_key: String,
    tracker_kind: TrackerKind,
    trackers: BTreeMap<u32, Tracker>,
    seq: u64,
    /// Newest sequence number at which **every** rank's image landed. A
    /// round that fails part-way burns its seq; restart loads chains
    /// capped at this value so it can never mix rounds.
    committed_seq: u64,
    /// Ranks recorded at the last completed checkpoint (for restart).
    saved_ranks: Vec<u32>,
    saved_pids: BTreeMap<u32, u32>,
    pub outcomes: Vec<CoordOutcome>,
    /// Pool for each rank's page encode (pipelined with the gather) and
    /// chunked image CRC. The per-rank *commit* sequence — store on the
    /// shared remote, virtual-time charge, tracker re-arm, thaw — stays
    /// strictly serialized in rank order: the remote server and the fault
    /// plan are shared state whose operation order is observable, and
    /// same-node ranks observe each other's charges through `taken_at_ns`.
    pool: Arc<ckpt_par::Pool>,
}

impl Coordinator {
    pub fn new(job_key: &str, tracker_kind: TrackerKind) -> Self {
        Self::with_pool(job_key, tracker_kind, ckpt_par::global().clone())
    }

    /// [`Coordinator::new`] with an explicit encode pool (width 1 = the
    /// exact serial path).
    pub fn with_pool(job_key: &str, tracker_kind: TrackerKind, pool: Arc<ckpt_par::Pool>) -> Self {
        Coordinator {
            job_key: job_key.to_string(),
            tracker_kind,
            trackers: BTreeMap::new(),
            seq: 0,
            committed_seq: 0,
            saved_ranks: Vec::new(),
            saved_pids: BTreeMap::new(),
            outcomes: Vec::new(),
            pool,
        }
    }

    /// Take a coordinated checkpoint of every rank. Must be called at a
    /// superstep boundary (quiescent channels).
    ///
    /// The round is transactional: the previous checkpoint stays the
    /// recovery point until **every** rank's image has landed. A failure
    /// part-way (a node lost mid-round, a store fault) returns a typed
    /// error, best-effort deletes the partial images, burns the round's
    /// sequence number, and leaves [`Coordinator::restart`] pointing at
    /// the last fully committed cut — never at a mix of rounds.
    pub fn checkpoint(&mut self, cluster: &mut Cluster, job: &MpiJob) -> SimResult<CoordOutcome> {
        let t0 = cluster.now();
        self.seq += 1;
        let seq = self.seq;
        // An incremental round is only valid when its parent (seq - 1) is
        // the committed cut; after an aborted round the seq gap forces the
        // next round full, which also re-baselines every tracker.
        let incremental = self.committed_seq > 0
            && self.committed_seq + 1 == seq
            && self.tracker_kind.supports_incremental();
        let mut total_bytes = 0u64;
        let mut max_node_time = t0;
        let mut staged: Vec<RankRef> = Vec::new();
        for r in &job.ranks {
            match self.checkpoint_rank(cluster, *r, seq, incremental) {
                Ok(bytes) => {
                    total_bytes += bytes;
                    if let Some(k) = cluster.node(r.node).kernel() {
                        max_node_time = max_node_time.max(k.now());
                    }
                    staged.push(*r);
                }
                Err(e) => {
                    self.abort_round(cluster, seq, &staged);
                    return Err(e);
                }
            }
        }
        // Commit point: all ranks landed.
        self.committed_seq = seq;
        self.saved_ranks = staged.iter().map(|r| r.rank).collect();
        self.saved_pids = staged.iter().map(|r| (r.rank, r.pid.0)).collect();
        // Barrier: every node waits for the slowest checkpoint.
        let target = max_node_time;
        for node in cluster.alive_nodes() {
            let k = cluster.node(node).kernel().expect("alive");
            if k.now() < target {
                let dt = target - k.now();
                let _ = k.run_for(dt);
            }
        }
        let outcome = CoordOutcome {
            seq,
            ranks: job.ranks.len(),
            total_bytes,
            round_ns: target - t0,
            incremental,
        };
        cluster.trace().cluster(
            simos::trace::ClusterEvent::CoordRound {
                ranks: job.ranks.len() as u32,
                bytes: total_bytes,
                round_ns: outcome.round_ns,
            },
            target,
        );
        self.outcomes.push(outcome.clone());
        Ok(outcome)
    }

    /// Freeze, capture, store, re-arm, and thaw one rank. On any error the
    /// rank is thawed best-effort and nothing is recorded.
    fn checkpoint_rank(
        &mut self,
        cluster: &mut Cluster,
        r: RankRef,
        seq: u64,
        incremental: bool,
    ) -> SimResult<u64> {
        let pool = self.pool.clone();
        let tracker = self
            .trackers
            .entry(r.rank)
            .or_insert_with(|| Tracker::new(self.tracker_kind));
        let remote = cluster.nodes[r.node.0 as usize].remote.clone();
        let job_key = self.job_key.clone();
        // Capture + encode leaves the rank frozen; commit the pre-encoded
        // bytes in rank order on the shared remote, then thaw.
        let bytes = capture_rank_encoded(cluster, r, seq, incremental, tracker, &pool)?;
        let k = cluster
            .node(r.node)
            .kernel()
            .ok_or_else(|| SimError::Usage(format!("{} down during checkpoint", r.node)))?;
        let result = (|| -> SimResult<u64> {
            let receipt = commit_image(k, &remote, &job_key, r.rank, seq, &bytes)
                .map_err(|e| SimError::Usage(format!("coordinated store failed: {e}")))?;
            let t = k.cost.memcpy(receipt.bytes) + receipt.time_ns;
            k.charge(t);
            tracker.arm(k, r.pid)?;
            Ok(receipt.bytes)
        })();
        match result {
            Ok(bytes) => {
                k.thaw_process(r.pid)?;
                Ok(bytes)
            }
            Err(e) => {
                let _ = k.thaw_process(r.pid);
                Err(e)
            }
        }
    }

    /// Best-effort removal of an aborted round's partial images. A remote
    /// that is unreachable (its node just died) simply keeps the orphan;
    /// correctness does not depend on this cleanup because restart loads
    /// are capped at [`Self::committed_seq`].
    fn abort_round(&mut self, cluster: &mut Cluster, seq: u64, staged: &[RankRef]) {
        for r in staged {
            let remote = cluster.nodes[r.node.0 as usize].remote.clone();
            let mut s = remote.lock();
            let _ = s.delete(&ImageKey::new(&self.job_key, r.rank, seq).to_string());
        }
    }

    /// Whether a completed checkpoint exists to recover from.
    pub fn has_checkpoint(&self) -> bool {
        self.committed_seq > 0 && !self.saved_ranks.is_empty()
    }

    /// Restart every rank of the job from the newest coordinated
    /// checkpoint, placing ranks round-robin on the currently alive nodes
    /// (ranks from lost nodes migrate automatically). Rebuilds the job's
    /// rank table and resynchronizes its superstep counter.
    pub fn restart(&mut self, cluster: &mut Cluster, job: &mut MpiJob) -> SimResult<()> {
        if !self.has_checkpoint() {
            return Err(SimError::Usage("no coordinated checkpoint to restart".into()));
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
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::FailureConfig;
    use crate::node::NodeId;
    use simos::apps::{AppParams, NativeKind};
    use simos::cost::CostModel;

    fn setup(n_nodes: usize, n_ranks: u32) -> (Cluster, MpiJob, Coordinator) {
        let mut c = Cluster::new(n_nodes, CostModel::circa_2005(), FailureConfig::none());
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
        let coord = Coordinator::new("job1", TrackerKind::KernelPage);
        (c, job, coord)
    }

    #[test]
    fn coordinated_checkpoint_then_clean_continue() {
        let (mut c, mut job, mut coord) = setup(3, 6);
        for _ in 0..2 {
            job.superstep(&mut c).unwrap();
        }
        let o = coord.checkpoint(&mut c, &job).unwrap();
        assert_eq!(o.ranks, 6);
        assert!(!o.incremental);
        assert!(o.total_bytes > 0);
        // Job continues normally.
        job.superstep(&mut c).unwrap();
        assert_eq!(job.completed_supersteps(), 3);
        // Second checkpoint is incremental and smaller.
        let o2 = coord.checkpoint(&mut c, &job).unwrap();
        assert!(o2.incremental);
        assert!(o2.total_bytes < o.total_bytes);
    }

    #[test]
    fn recovery_after_node_loss_migrates_and_preserves_progress() {
        let (mut c, mut job, mut coord) = setup(3, 6);
        for _ in 0..3 {
            job.superstep(&mut c).unwrap();
        }
        coord.checkpoint(&mut c, &job).unwrap();
        // More progress that will be lost.
        job.superstep(&mut c).unwrap();
        assert_eq!(job.completed_supersteps(), 4);
        // Node 1 dies and stays dead.
        c.inject_failure(NodeId(1));
        assert!(matches!(
            job.superstep(&mut c),
            Err(crate::mpi::JobInterrupt::NodeLost(_))
        ));
        coord.restart(&mut c, &mut job).unwrap();
        // Rolled back to superstep 3 (the checkpoint), ranks only on alive
        // nodes.
        assert_eq!(job.completed_supersteps(), 3);
        for r in &job.ranks {
            assert_ne!(r.node, NodeId(1));
        }
        // The job completes from there.
        for _ in 0..3 {
            job.superstep(&mut c).unwrap();
        }
        assert_eq!(job.completed_supersteps(), 6);
    }

    #[test]
    fn recovery_after_node_loss_with_live_migration_rebalance() {
        // Node-loss recovery followed by the live-migration replacement
        // route: once the lost node is repaired, a rank is moved back to
        // it by iterative pre-copy — no rollback, no job restart — and
        // the job still completes with the rank table consistent.
        let (mut c, mut job, mut coord) = setup(3, 6);
        for _ in 0..3 {
            job.superstep(&mut c).unwrap();
        }
        coord.checkpoint(&mut c, &job).unwrap();
        c.inject_failure(NodeId(1));
        assert!(matches!(
            job.superstep(&mut c),
            Err(crate::mpi::JobInterrupt::NodeLost(_))
        ));
        coord.restart(&mut c, &mut job).unwrap();
        assert_eq!(job.completed_supersteps(), 3);
        // The failed node comes back (FailureConfig::none has zero repair
        // delay, so the next advance repairs it) — empty.
        c.advance(1_000_000);
        assert!(c.node(NodeId(1)).alive());
        assert!(job.ranks.iter().all(|r| r.node != NodeId(1)));
        // Repopulate it by live-migrating one rank back.
        let victim = job
            .ranks
            .iter()
            .position(|r| r.node != NodeId(1))
            .expect("some rank lives elsewhere");
        let moved_rank = job.ranks[victim].rank;
        let rep = crate::livemig::rebalance_rank_live(
            &mut c,
            &mut job,
            victim,
            NodeId(1),
            &crate::livemig::LiveMigConfig::default(),
        )
        .unwrap();
        assert_eq!(job.ranks[victim].node, NodeId(1));
        assert_eq!(job.ranks[victim].pid, rep.new_pid);
        assert_eq!(job.ranks[victim].rank, moved_rank);
        // Live migration lost nothing: still at superstep 3, and the job
        // runs to completion with the migrated rank participating.
        assert_eq!(job.completed_supersteps(), 3);
        for _ in 0..3 {
            job.superstep(&mut c).unwrap();
        }
        assert_eq!(job.completed_supersteps(), 6);
    }

    #[test]
    fn recovered_run_matches_failure_free_run() {
        // The gold standard: states after recovery + N supersteps must
        // equal an uninterrupted run's states at the same superstep.
        let reference = {
            let (mut c, mut job, _): (Cluster, MpiJob, Coordinator) = setup(2, 4);
            for _ in 0..6 {
                job.superstep(&mut c).unwrap();
            }
            job.rank_states(&mut c).unwrap()
        };
        let (mut c, mut job, mut coord) = setup(2, 4);
        for _ in 0..3 {
            job.superstep(&mut c).unwrap();
        }
        coord.checkpoint(&mut c, &job).unwrap();
        job.superstep(&mut c).unwrap(); // superstep 4, will be lost
        c.inject_failure(NodeId(0));
        let _ = job.superstep(&mut c);
        coord.restart(&mut c, &mut job).unwrap();
        assert_eq!(job.completed_supersteps(), 3);
        for _ in 0..3 {
            job.superstep(&mut c).unwrap();
        }
        let recovered = job.rank_states(&mut c).unwrap();
        assert_eq!(recovered, reference, "recovered run diverged");
    }

    #[test]
    fn restart_without_checkpoint_refuses() {
        let (mut c, mut job, mut coord) = setup(2, 2);
        assert!(coord.restart(&mut c, &mut job).is_err());
    }
}
