//! Coordinated checkpointing and restart of parallel jobs — the LAM/MPI /
//! CoCheck scheme of the survey, as one protocol whose commit granularity
//! is the shard.
//!
//! The protocol exploits the bulk-synchronous structure of [`crate::mpi`]:
//! at a superstep boundary no messages are in flight, so a globally
//! consistent cut is simply "freeze every rank, checkpoint every rank,
//! thaw". Images go to **remote** stable storage (each node pays its own
//! network cost), which is what makes recovery from a node loss possible
//! at all — the paper's criticism of local-only systems. As the paper
//! notes of LAM/MPI, the scheme is transparent to the *application* but
//! not to the *message-passing layer*: it is the job driver (this module)
//! that knows where the boundaries are.
//!
//! Committing every image on its own through one replica set is fine at
//! survey scale and a bottleneck at the paper's capability scale
//! (BlueGene/L: 65,536 nodes). Skjellum et al. (PAPERS.md) argue the
//! checkpoint *service* itself must scale and survive faults, so the cut
//! is taken hierarchically:
//!
//! * **Two levels.** Ranks are partitioned across shard coordinators.
//!   Each shard runs a local coordinated round — freeze, capture, encode
//!   — and commits its round's images as ONE framed batched quorum commit
//!   ([`ckpt_storage::StableStorage::store_batch`]): one admission/backoff/ack cycle
//!   per replica per shard round instead of per image. One rank per shard
//!   ([`ShardedCoordinator::per_image`]) is LAM/MPI's per-image protocol:
//!   every image is a batch of one through its own node's remote handle.
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
use crate::mpi::{MpiJob, RankRef};
use ckpt_core::capture::{capture_image, restore_image, CaptureOptions, RestoreOptions, RestorePid};
use ckpt_core::tracker::{Tracker, TrackerKind};
use ckpt_par::Pool;
use ckpt_replica::{ReplicaConfig, ReplicatedStore, Striped, StripedReplicaSet};
use ckpt_storage::{load_chain_at, ImageKey};
use simos::apps::mix64;
use simos::cost::CostModel;
use simos::faultpoint::{Fault, FaultHandle};
use simos::trace::StorageOp;
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

/// Per-round result of a coordinated checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierOutcome {
    pub seq: u64,
    pub shards: usize,
    pub ranks: usize,
    pub total_bytes: u64,
    /// Wall (virtual) time of the whole round (all shards + root commit):
    /// the job resumes only when the slowest rank is done (it is a barrier).
    pub round_ns: u64,
    /// Total replica ack cycles across all shard commits — compare with
    /// `ranks` (what the per-image protocol pays).
    pub ack_cycles: u64,
    pub incremental: bool,
    /// Per-shard summaries, in shard order.
    pub shard_rounds: Vec<ShardRound>,
}

/// The coordinated-checkpoint driver for one job.
pub struct ShardedCoordinator {
    pub job_key: String,
    shards: usize,
    tracker_kind: TrackerKind,
    trackers: BTreeMap<u32, Tracker>,
    seq: u64,
    /// Newest sequence number the ROOT committed (phase 2). A round that
    /// fails part-way burns its seq, and shard commits at a higher seq that
    /// never reached phase 2 are dead weight in storage, not recovery
    /// points: restart loads chains capped at this value so it can never
    /// mix rounds.
    committed_seq: u64,
    saved_ranks: Vec<u32>,
    /// Set when rank membership changed (launch, restart); the next
    /// commit refreshes `saved_ranks` once instead of every round.
    membership_stale: bool,
    faults: FaultHandle,
    /// Pool for each rank's page encode (pipelined with the gather) and
    /// chunked image CRC. The *commit* sequence — store on the shared
    /// remote, virtual-time charge, tracker re-arm, thaw — stays strictly
    /// serialized in rank order: the remote and the fault plan are shared
    /// state whose operation order is observable, and same-node ranks
    /// observe each other's charges through `taken_at_ns`.
    pool: Arc<Pool>,
    pub outcomes: Vec<HierOutcome>,
}

impl ShardedCoordinator {
    /// `shards` shard coordinators under one root, each committing its
    /// ranks' images as one batch. `shards` is clamped to the rank count at
    /// round time; 1 shard is one batch for the whole job, one shard per
    /// rank is [`ShardedCoordinator::per_image`].
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

    /// The LAM/MPI per-image protocol: one shard per rank, so every image
    /// is a commit of its own through its own node's remote handle.
    pub fn per_image(job_key: &str, tracker_kind: TrackerKind) -> Self {
        Self::new(job_key, tracker_kind, usize::MAX)
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

    /// Whether a completed checkpoint exists to recover from.
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

    /// Take a coordinated checkpoint of every rank. Must be called at a
    /// superstep boundary (quiescent channels — which is what lets shards
    /// commit one after another inside a single consistent cut: no rank
    /// runs until the round returns).
    ///
    /// Transactional end to end: the previous checkpoint stays the recovery
    /// point until the root commits. Any shard failure (a node lost
    /// mid-round, a store fault), or a root failure between the last shard
    /// ack and the global commit, aborts the round with a typed error —
    /// staged images are deleted best-effort, every frozen rank is thawed,
    /// the sequence number is burned, and [`ShardedCoordinator::restart`]
    /// still points at the previous cut, never at a mix of rounds.
    pub fn checkpoint(&mut self, cluster: &mut Cluster, job: &MpiJob) -> SimResult<HierOutcome> {
        let n_ranks = job.ranks.len();
        if n_ranks == 0 {
            return Err(SimError::Usage("coordinated checkpoint of a job with no ranks".into()));
        }
        let t0 = cluster.now();
        self.seq += 1;
        let seq = self.seq;
        // An incremental round is only valid when its parent (seq - 1) is
        // the committed cut; after an aborted round the seq gap forces the
        // next round full, which also re-baselines every tracker.
        let incremental = self.committed_seq > 0
            && self.committed_seq + 1 == seq
            && self.tracker_kind.supports_incremental();

        let shards = self.shards.min(n_ranks);
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

    /// One shard's local round: capture-all → protocol fault check → one
    /// `store_batch` → release-all. The release — thaw every rank this
    /// shard froze — runs on every way out, so a round that fails anywhere
    /// (a later rank's capture, the commit, the post-commit charge and
    /// re-arm) never leaves a rank stopped; the error propagates to the
    /// root for abort.
    fn shard_round(
        &mut self,
        cluster: &mut Cluster,
        s: usize,
        shard_ranks: &[RankRef],
        seq: u64,
        incremental: bool,
    ) -> SimResult<ShardRound> {
        let mut frozen = 0;
        let round = self.commit_frozen(cluster, s, shard_ranks, seq, incremental, &mut frozen);
        for r in &shard_ranks[..frozen] {
            if let Ok(k) = cluster.kernel(r.node) {
                let _ = k.thaw_process(r.pid);
            }
        }
        round
    }

    /// [`Self::shard_round`] between its first freeze and its release;
    /// `frozen` counts the leading ranks of `shard_ranks` it stopped.
    fn commit_frozen(
        &mut self,
        cluster: &mut Cluster,
        s: usize,
        shard_ranks: &[RankRef],
        seq: u64,
        incremental: bool,
        frozen: &mut usize,
    ) -> SimResult<ShardRound> {
        let mut images: Vec<Vec<u8>> = Vec::with_capacity(shard_ranks.len());
        for r in shard_ranks {
            cluster.kernel(r.node)?.freeze_process(r.pid)?;
            *frozen += 1;
            images.push(self.capture_rank(cluster, *r, seq, incremental)?);
        }
        let shard_bytes: u64 = images.iter().map(|b| b.len() as u64).sum();

        // The shard coordinator itself can die between capture and commit.
        self.protocol_fault(&format!("shard/s{s}/commit"), shard_bytes)?;

        // One framed batch through the shard leader's remote handle.
        let leader = shard_ranks[0].node;
        let remote = cluster.nodes[leader.0 as usize].remote.clone();
        let (cost, trace) = {
            let k = cluster.kernel(leader)?;
            (k.cost.clone(), k.trace.clone())
        };
        let keys: Vec<String> = shard_ranks
            .iter()
            .map(|r| ImageKey::new(&self.job_key, r.rank, seq).to_string())
            .collect();
        let objects: Vec<(&str, &[u8])> = keys
            .iter()
            .zip(&images)
            .map(|(k, b)| (k.as_str(), b.as_slice()))
            .collect();
        let (receipt, store_label) = {
            let mut st = remote.lock();
            let rc = st.store_batch(&objects, &cost).map_err(|e| {
                SimError::Usage(format!("shard {s} batched commit failed: {e}"))
            })?;
            (rc, st.label())
        };
        trace.storage(StorageOp::Store, &store_label, receipt.bytes, receipt.time_ns);

        // Commit landed: charge every participant (they all wait for the
        // shard's quorum ack) and re-arm dirty tracking.
        for (r, bytes) in shard_ranks.iter().zip(&images) {
            let k = cluster.kernel(r.node)?;
            k.charge(k.cost.memcpy(bytes.len() as u64) + receipt.time_ns);
            self.trackers
                .get_mut(&r.rank)
                .expect("tracker created at capture")
                .arm(k, r.pid)?;
        }
        Ok(ShardRound {
            shard: s,
            ranks: shard_ranks.len(),
            bytes: receipt.bytes,
            commit_ns: receipt.time_ns,
            ack_cycles: receipt.ack_cycles,
        })
    }

    /// Capture + encode (pool-chunked CRC) the image of frozen rank `r`;
    /// the commit happens outside, in whatever order the protocol requires.
    fn capture_rank(
        &mut self,
        cluster: &mut Cluster,
        r: RankRef,
        seq: u64,
        incremental: bool,
    ) -> SimResult<Vec<u8>> {
        let k = cluster.kernel(r.node)?;
        let tracker = self
            .trackers
            .entry(r.rank)
            .or_insert_with(|| Tracker::new(self.tracker_kind));
        let pool_stats0 = self.pool.stats();
        let encoded = (|| -> SimResult<Vec<u8>> {
            let mut opts = if incremental && tracker.is_armed() {
                let c = tracker.collect(k, r.pid)?;
                CaptureOptions::incremental("coordinated", seq, seq - 1, c.pages)
            } else {
                CaptureOptions::full("coordinated", seq)
            };
            opts.node = r.node.0;
            opts.encode_pool = Some(self.pool.clone());
            let mut img = capture_image(k, r.pid, &opts)?;
            // Key images by *rank*, which is stable across migrations.
            img.header.pid = r.rank;
            Ok(ckpt_image::encode_with_pool(&img, &self.pool))
        })();
        ckpt_core::mechanism::count_pool_activity(&k.trace, &self.pool, pool_stats0);
        encoded
    }

    /// Best-effort removal of an aborted round's staged images. A remote
    /// that is unreachable (its node just died) simply keeps the orphan;
    /// correctness does not depend on this cleanup because restart loads
    /// are capped at `committed_seq`.
    fn abort_round(&mut self, cluster: &mut Cluster, seq: u64, staged: &[RankRef]) {
        for r in staged {
            let remote = cluster.nodes[r.node.0 as usize].remote.clone();
            let mut s = remote.lock();
            let _ = s.delete(&ImageKey::new(&self.job_key, r.rank, seq).to_string());
        }
    }

    /// Restart every rank of the job from the newest ROOT-committed cut
    /// (shard commits beyond it are ignored by construction — loads are
    /// capped at `committed_seq`), placing ranks round-robin on the
    /// currently alive nodes (ranks from lost nodes migrate automatically).
    /// Rebuilds the job's rank table and resynchronizes its superstep
    /// counter.
    pub fn restart(&mut self, cluster: &mut Cluster, job: &mut MpiJob) -> SimResult<()> {
        if !self.has_checkpoint() {
            return Err(SimError::Usage("no coordinated checkpoint to restart".into()));
        }
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
        for (i, rank) in self.saved_ranks.iter().copied().enumerate() {
            let node = alive[i % alive.len()];
            let remote = cluster.nodes[node.0 as usize].remote.clone();
            let k = cluster.node(node).kernel().expect("alive");
            let (full, load_ns, load_label) = {
                let s = remote.lock();
                let (img, t) =
                    load_chain_at(&**s, &self.job_key, rank, self.committed_seq, &k.cost)
                        .map_err(|e| SimError::Usage(format!("coordinated load failed: {e}")))?;
                (img, t, s.label())
            };
            k.charge(load_ns);
            k.trace
                .storage(StorageOp::Load, &load_label, full.memory_bytes(), load_ns);
            let pid = restore_image(k, &full, &RestoreOptions::fresh_running(RestorePid::Fresh))?;
            // Tracking state does not survive migration; re-arm fresh.
            if let Some(t) = self.trackers.get_mut(&rank) {
                *t = Tracker::new(self.tracker_kind);
            }
            new_ranks.push(RankRef { rank, node, pid });
        }
        // Trackers were re-created above (unarmed), so the next checkpoint
        // round is automatically full; the sequence number keeps increasing
        // so chain lineage in storage stays valid.
        job.ranks = new_ranks;
        job.resync_supersteps(cluster)?;
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
            let h = mix64(seed ^ (rank as u64).wrapping_mul(0x2545_f491_4f6c_dd1d));
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
    use crate::node::NodeId;
    use simos::apps::{AppParams, NativeKind};

    fn launch(c: &mut Cluster, n_ranks: u32) -> MpiJob {
        MpiJob::launch(
            c,
            "app",
            n_ranks,
            NativeKind::SparseRandom,
            AppParams::small(),
            6,
            32 * 1024,
        )
        .unwrap()
    }

    fn per_image() -> ShardedCoordinator {
        ShardedCoordinator::per_image("job1", TrackerKind::KernelPage)
    }

    fn sharded(shards: usize) -> ShardedCoordinator {
        ShardedCoordinator::new("job1", TrackerKind::KernelPage, shards)
    }

    /// The per-image protocol over the plain remote server.
    fn setup(n_nodes: usize, n_ranks: u32) -> (Cluster, MpiJob, ShardedCoordinator) {
        let mut c = Cluster::new(n_nodes, CostModel::circa_2005(), FailureConfig::none());
        let job = launch(&mut c, n_ranks);
        (c, job, per_image())
    }

    fn setup_striped(
        n_nodes: usize,
        n_ranks: u32,
        coord: ShardedCoordinator,
    ) -> (Cluster, MpiJob, ShardedCoordinator) {
        let mut c = Cluster::new_striped(
            n_nodes,
            CostModel::circa_2005(),
            FailureConfig::none(),
            4,
            3,
            2,
        );
        let job = launch(&mut c, n_ranks);
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
    fn recovered_run_matches_failure_free_run() {
        // The gold standard: states after recovery + N supersteps must
        // equal an uninterrupted run's states at the same superstep.
        let reference = {
            let (mut c, mut job, _) = setup(2, 4);
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

    #[test]
    fn empty_job_is_refused_typed_and_burns_no_sequence_number() {
        let (mut c, job, _) = setup(2, 2);
        let empty = launch(&mut c, 0);
        for mut coord in [per_image(), sharded(2)] {
            let err = coord.checkpoint(&mut c, &empty).unwrap_err();
            assert!(matches!(err, SimError::Usage(_)), "typed refusal, got {err}");
            assert!(!coord.has_checkpoint());
            // A refused round is not an aborted one: the next is still seq 1.
            assert_eq!(coord.checkpoint(&mut c, &job).unwrap().seq, 1);
        }
    }

    #[test]
    fn hierarchical_round_commits_and_amortizes_acks() {
        // 16 ranks over 2 shards and 4 stripes: a shard round pays at most
        // one ack cycle per stripe it touches (≤ 2 × 4 = 8), while the
        // per-image path would pay 16.
        let (mut c, mut job, mut coord) = setup_striped(4, 16, sharded(2));
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
            let (mut c, mut job, _) = setup_striped(3, 6, sharded(2));
            for _ in 0..6 {
                job.superstep(&mut c).unwrap();
            }
            job.rank_states(&mut c).unwrap()
        };
        let (mut c, mut job, mut coord) = setup_striped(3, 6, sharded(2));
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
        // and identical to the per-image protocol's.
        let run_sharded = |coord: ShardedCoordinator| {
            let (mut c, mut job, mut coord) = setup_striped(3, 6, coord);
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
        let one = run_sharded(sharded(1));
        assert_eq!(one, run_sharded(sharded(2)), "2 shards diverged from 1");
        assert_eq!(one, run_sharded(sharded(8)), "8 shards diverged from 1");
        assert_eq!(one, run_sharded(per_image()), "per-image cut diverged from 1 shard");
    }

    #[test]
    fn root_crash_after_all_shard_acks_recovers_at_previous_cut() {
        let (mut c, mut job, mut coord) = setup_striped(3, 6, sharded(2));
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
        let (mut c, mut job, mut coord) = setup_striped(3, 6, sharded(3));
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
