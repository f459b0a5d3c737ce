//! The quorum-replicated stable-storage backend.
//!
//! A [`ReplicatedStore`] is one client handle onto a shared
//! [`ReplicaSet`]: writes fan out to all N replicas and commit at write
//! quorum `w > N/2`; reads probe every reachable replica, pick the
//! highest-version intact frame, and repair stale/torn/missing copies in
//! place. When more than `N - w` replicas are unreachable or corrupt the
//! operation is refused with the typed
//! [`StorageError::QuorumLost`] — a committed value could then live
//! entirely on the missing replicas, so any answer would be a guess.
//!
//! ## Why versions + digests are sufficient
//!
//! Every committed write lands intact on at least `w` replicas, so after
//! losing any `N - w` of them at least `2w - N ≥ 1` intact copies remain,
//! and no *newer* commit can hide entirely in the lost set. Frame digests
//! (FNV-1a over the full payload, written with the frame) make torn
//! copies self-identifying, and the per-key version order makes "newest
//! intact frame" well-defined — majority voting is not needed.
//!
//! ## Determinism
//!
//! All fault admission (replica reachability, queued transients,
//! `simos::faultpoint` checks at `replica/r<i>/store` / `replica/r<i>/load`)
//! and all backoff arithmetic run sequentially on the calling thread in
//! replica-index order; only the pure payload copies fan out on the
//! `ckpt-par` pool. Commit results, manifests, costs, and trace counters
//! are therefore identical at every pool width.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ckpt_par::Pool;
use ckpt_storage::{
    fnv1a64, fnv1a64_multi, BatchReceipt, ReplicaManifest, StableStorage, StorageClass,
    StorageError, StoreReceipt,
};
use simos::cost::CostModel;
use simos::faultpoint::{Fault, FaultHandle};
use simos::trace::TraceHandle;

use crate::backoff::{Backoff, BackoffPolicy};
use crate::node::{Admission, Frame, Probe, ReplicaSet};

/// Quorum configuration: N replicas, write quorum w with `N/2 < w <= N`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaConfig {
    pub n: usize,
    pub w: usize,
    pub backoff: BackoffPolicy,
}

impl ReplicaConfig {
    /// Panics unless `w > n/2` and `w <= n` — anything else is not a
    /// quorum system and silently weaker guarantees are exactly what this
    /// layer exists to rule out.
    pub fn new(n: usize, w: usize) -> Self {
        assert!(n >= 1, "need at least one replica");
        assert!(w <= n, "write quorum {w} cannot exceed replication factor {n}");
        assert!(w > n / 2, "write quorum {w} must be a majority of {n}");
        ReplicaConfig {
            n,
            w,
            backoff: BackoffPolicy::default(),
        }
    }

    /// Replicas the protocol tolerates losing while still answering.
    pub fn tolerated_losses(&self) -> usize {
        self.n - self.w
    }
}

/// Plain counters mirroring the [`simos::trace::ReplicationAgg`] deltas
/// this store emits, readable without a recording trace handle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplStats {
    pub commits: u64,
    pub retries: u64,
    pub repairs: u64,
    pub quorum_losses: u64,
    /// Quorum acknowledgement round-trips consumed: one per single-object
    /// store or delete, one per *entire* framed batch commit. The scale
    /// reports compare this across the per-image and batched paths.
    pub ack_cycles: u64,
    /// Payload digests computed on the commit path: one per object a
    /// commit attempts, however many replicas ingest it.
    pub payload_digests: u64,
}

#[derive(Default)]
struct StatCells {
    commits: AtomicU64,
    retries: AtomicU64,
    repairs: AtomicU64,
    quorum_losses: AtomicU64,
    ack_cycles: AtomicU64,
    payload_digests: AtomicU64,
}

/// One client handle on an N-way replicated store. Cheap to construct;
/// clones of the underlying [`ReplicaSet`] share all replica state.
pub struct ReplicatedStore {
    set: Arc<ReplicaSet>,
    cfg: ReplicaConfig,
    faults: FaultHandle,
    trace: TraceHandle,
    pool: Arc<Pool>,
    /// This *client's* reachability (its node may fail-stop); replica
    /// availability lives in the shared set.
    client_up: bool,
    /// Faultpoint site namespace: sites render as
    /// `{site_prefix}/r<i>/{op}`. The default `replica` keeps the
    /// historical names; a striped pool gives each stripe its own prefix
    /// so the crash matrix can tell the stripes apart.
    site_prefix: String,
    manifests: BTreeMap<String, ReplicaManifest>,
    stats: StatCells,
}

/// Per-replica write decision, resolved sequentially before the pool
/// executes the copies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WriteCmd {
    /// Full intact frame; counts toward the quorum.
    Full,
    /// Crash mid-write: persist `keep` payload bytes under the full
    /// digest, then the replica is down. Does not count toward quorum.
    Torn { keep: usize },
    /// Replica unreachable (or retries exhausted); nothing written.
    Skip,
}

impl WriteCmd {
    /// How many of a `len`-byte payload's bytes reach the medium, if any.
    fn kept(self, len: usize) -> Option<usize> {
        match self {
            WriteCmd::Full => Some(len),
            WriteCmd::Torn { keep } => Some(keep.min(len)),
            WriteCmd::Skip => None,
        }
    }
}

impl ReplicatedStore {
    /// A store over `set` with quorum `cfg`. Fault injection defaults to
    /// off, tracing to the no-op sink, and the pool to the global
    /// `CKPT_PAR_WORKERS`-sized pool.
    pub fn new(set: Arc<ReplicaSet>, cfg: ReplicaConfig) -> Self {
        assert_eq!(
            set.len(),
            cfg.n,
            "replica set has {} nodes but the quorum config says N={}",
            set.len(),
            cfg.n
        );
        ReplicatedStore {
            set,
            cfg,
            faults: FaultHandle::disabled(),
            trace: TraceHandle::disabled(),
            pool: ckpt_par::global().clone(),
            client_up: true,
            site_prefix: "replica".to_string(),
            manifests: BTreeMap::new(),
            stats: StatCells::default(),
        }
    }

    /// Convenience: a fresh N-node set plus its first client handle.
    pub fn fresh(n: usize, w: usize) -> Self {
        ReplicatedStore::new(ReplicaSet::new(n), ReplicaConfig::new(n, w))
    }

    pub fn with_faults(mut self, faults: FaultHandle) -> Self {
        self.faults = faults;
        self
    }

    pub fn with_trace(mut self, trace: TraceHandle) -> Self {
        self.trace = trace;
        self
    }

    pub fn with_pool(mut self, pool: Arc<Pool>) -> Self {
        self.pool = pool;
        self
    }

    pub fn with_backoff(mut self, backoff: BackoffPolicy) -> Self {
        self.cfg.backoff = backoff;
        self
    }

    /// Rename the faultpoint site namespace (default `replica`). A striped
    /// pool gives each stripe `stripe<k>` so the crash matrix can target a
    /// single stripe's replicas.
    pub fn with_site_prefix(mut self, prefix: impl Into<String>) -> Self {
        self.site_prefix = prefix.into();
        self
    }

    pub fn config(&self) -> ReplicaConfig {
        self.cfg
    }

    pub fn replica_set(&self) -> Arc<ReplicaSet> {
        self.set.clone()
    }

    /// Counters accumulated by this client handle.
    pub fn stats(&self) -> ReplStats {
        ReplStats {
            commits: self.stats.commits.load(Ordering::Relaxed),
            retries: self.stats.retries.load(Ordering::Relaxed),
            repairs: self.stats.repairs.load(Ordering::Relaxed),
            quorum_losses: self.stats.quorum_losses.load(Ordering::Relaxed),
            ack_cycles: self.stats.ack_cycles.load(Ordering::Relaxed),
            payload_digests: self.stats.payload_digests.load(Ordering::Relaxed),
        }
    }

    fn xfer_ns(&self, len: usize, cost: &CostModel) -> u64 {
        (len as f64 * cost.net_ns_per_byte).round() as u64
    }

    /// Resolve one replica's admission + fault checks into a decision,
    /// retrying transients on the jittered schedule. Returns the decision,
    /// retries consumed, and backoff virtual-ns accumulated.
    fn resolve_replica(&self, i: usize, op: &str, key: &str, bytes: u64) -> (WriteCmd, u64, u64) {
        let node = self.set.node(i);
        let site = format!("{}/r{i}/{op}", self.site_prefix);
        let salt = fnv1a64(key.as_bytes()) ^ (i as u64);
        let mut backoff = Backoff::new(self.cfg.backoff, salt);
        let mut retries = 0u64;
        let mut delay_ns = 0u64;
        loop {
            match node.admit() {
                Admission::Down => return (WriteCmd::Skip, retries, delay_ns),
                Admission::Transient => match backoff.next_delay_ns() {
                    Ok(d) => {
                        retries += 1;
                        delay_ns += d;
                        continue;
                    }
                    Err(_) => return (WriteCmd::Skip, retries, delay_ns),
                },
                Admission::Ok => {}
            }
            if !self.faults.is_off() {
                match self.faults.check(&site, bytes) {
                    Some(Fault::Transient) => match backoff.next_delay_ns() {
                        Ok(d) => {
                            retries += 1;
                            delay_ns += d;
                            continue;
                        }
                        Err(_) => return (WriteCmd::Skip, retries, delay_ns),
                    },
                    Some(Fault::TornWrite { keep_bytes }) if op != "load" => {
                        // The replica dies mid-write; the payload prefix is
                        // already on its medium.
                        node.fail();
                        return (
                            WriteCmd::Torn {
                                keep: keep_bytes as usize,
                            },
                            retries,
                            delay_ns,
                        );
                    }
                    Some(_) => {
                        // Fail-stop (and torn-on-read, which has no byte
                        // stream to tear): the replica node dies.
                        node.fail();
                        return (WriteCmd::Skip, retries, delay_ns);
                    }
                    None => {}
                }
            }
            return (WriteCmd::Full, retries, delay_ns);
        }
    }

    /// Undo the last committed write of `key`: drop that exact version from
    /// every replica and forget the manifest. Used by the striped pool to
    /// make a multi-stripe batch all-or-nothing when a *later* stripe
    /// refuses quorum — `drop_if_version` means an unrelated newer commit
    /// can never be clobbered.
    pub(crate) fn retract_commit(&mut self, key: &str) {
        if let Some(m) = self.manifests.remove(key) {
            for i in 0..self.cfg.n {
                self.set.node(i).drop_if_version(key, m.version);
            }
        }
    }

    fn bump_stats(&self, commits: u64, retries: u64, repairs: u64, losses: u64) {
        self.stats.commits.fetch_add(commits, Ordering::Relaxed);
        self.stats.retries.fetch_add(retries, Ordering::Relaxed);
        self.stats.repairs.fetch_add(repairs, Ordering::Relaxed);
        self.stats.quorum_losses.fetch_add(losses, Ordering::Relaxed);
        self.trace.replication(commits, retries, repairs, losses);
    }
}

impl StableStorage for ReplicatedStore {
    fn class(&self) -> StorageClass {
        StorageClass::Remote
    }

    fn label(&self) -> String {
        format!("replicated({},{})", self.cfg.n, self.cfg.w)
    }

    fn store(
        &mut self,
        key: &str,
        data: &[u8],
        cost: &CostModel,
    ) -> Result<StoreReceipt, StorageError> {
        if !self.client_up {
            return Err(StorageError::Unavailable);
        }
        let version = self.set.max_version(key) + 1;

        // Phase 1 (sequential, replica order): admission, fault checks,
        // retry/backoff — everything that must be deterministic.
        let mut total_retries = 0u64;
        let mut backoff_ns = 0u64;
        let cmds: Vec<(usize, WriteCmd)> = (0..self.cfg.n)
            .map(|i| {
                let (cmd, r, d) = self.resolve_replica(i, "store", key, data.len() as u64);
                total_retries += r;
                backoff_ns += d;
                (i, cmd)
            })
            .collect();

        // Pre-write snapshots: `put` replaces a replica's frame in place,
        // so a failed quorum needs the prior frames to roll back to the
        // committed state instead of leaving its acked replicas empty.
        let priors: Vec<Option<Frame>> = cmds
            .iter()
            .map(|(i, cmd)| {
                if *cmd == WriteCmd::Skip {
                    None
                } else {
                    self.set.node(*i).snapshot_frame(key)
                }
            })
            .collect();

        // Phase 2 (pool fan-out): the payload is digested once, here;
        // every replica ingests its own copy under that digest (a torn
        // one only a prefix). Each replica has its own lock; merge order
        // is the submission order, so this is width-invariant by
        // construction.
        let digest = fnv1a64(data);
        self.stats.payload_digests.fetch_add(1, Ordering::Relaxed);
        let set = self.set.clone();
        self.pool.par_map_ordered(
            cmds.clone(),
            || (),
            |_, _, (i, cmd)| {
                if let Some(keep) = cmd.kept(data.len()) {
                    set.node(i).put_frame(key, version, data[..keep].to_vec(), digest);
                }
            },
        );

        let acked: Vec<u32> = cmds
            .iter()
            .filter(|(_, c)| matches!(c, WriteCmd::Full))
            .map(|(i, _)| *i as u32)
            .collect();
        let xfer: u64 = cmds
            .iter()
            .map(|(_, c)| c.kept(data.len()).map_or(0, |n| self.xfer_ns(n, cost)))
            .sum();
        let time_ns = cost.net_latency_ns + xfer + backoff_ns;
        self.stats.ack_cycles.fetch_add(1, Ordering::Relaxed);

        if acked.len() < self.cfg.w {
            // Roll the failed commit back from the replicas that did take
            // it — reinstating each one's pre-write frame — so an
            // unacknowledged version never wins a later read and a
            // refused overwrite never destroys the committed copy.
            for &i in &acked {
                self.set
                    .node(i as usize)
                    .rollback_to(key, version, priors[i as usize].clone());
            }
            self.bump_stats(0, total_retries, 0, 1);
            return Err(StorageError::QuorumLost {
                acked: acked.len() as u32,
                needed: self.cfg.w as u32,
            });
        }

        self.manifests.insert(
            key.to_string(),
            ReplicaManifest {
                key: key.to_string(),
                version,
                digest,
                bytes: data.len() as u64,
                acked,
                n: self.cfg.n as u32,
                w: self.cfg.w as u32,
                coding: None,
            },
        );
        self.bump_stats(1, total_retries, 0, 0);
        Ok(StoreReceipt {
            key: key.to_string(),
            bytes: data.len() as u64,
            time_ns,
        })
    }

    fn load(&self, key: &str, cost: &CostModel) -> Result<(Vec<u8>, u64), StorageError> {
        if !self.client_up {
            return Err(StorageError::Unavailable);
        }

        // Sequential admission + fault checks in replica order; then one
        // batched probe classifies what every admitted replica holds (a
        // first read verifies all their frames in one multi-lane pass).
        let mut total_retries = 0u64;
        let mut backoff_ns = 0u64;
        let mut admitted: Vec<usize> = Vec::new();
        for i in 0..self.cfg.n {
            let (cmd, r, d) = self.resolve_replica(i, "load", key, 0);
            total_retries += r;
            backoff_ns += d;
            if cmd == WriteCmd::Full {
                admitted.push(i);
            }
        }
        let down = self.cfg.n - admitted.len();
        let mut missing = 0usize;
        let mut torn = 0usize;
        let mut valid: Vec<Frame> = Vec::new();
        for probe in self.set.probe_batch(&admitted, key) {
            match probe {
                Probe::Missing => missing += 1,
                Probe::Torn { .. } => torn += 1,
                Probe::Valid(f) => valid.push(f),
            }
        }

        let n = self.cfg.n;
        let w = self.cfg.w;
        let tolerated = n - w;
        if valid.is_empty() && torn == 0 {
            // No replica has ever seen this key — unless so many are down
            // that a committed copy could be hiding on them.
            self.bump_stats(0, total_retries, 0, u64::from(down > tolerated));
            return if down > tolerated {
                Err(StorageError::QuorumLost {
                    acked: 0,
                    needed: w as u32,
                })
            } else {
                Err(StorageError::NotFound(key.to_string()))
            };
        }

        // The key exists. Every unreachable, torn, or inexplicably missing
        // replica might hold a newer commit than the best intact frame we
        // can see; past `N - w` of them, "newest visible" is not "newest".
        let suspect = down + torn + missing;
        if suspect > tolerated {
            self.bump_stats(0, total_retries, 0, 1);
            return Err(StorageError::QuorumLost {
                acked: valid.len() as u32,
                needed: w as u32,
            });
        }

        // Ranking needs only frame metadata; the payloads stay where they
        // are (shared, not copied) until the winner's is returned.
        let winner = valid
            .into_iter()
            .max_by_key(|f| f.version)
            .expect("suspect <= N - w implies at least w intact frames");

        // Read-repair: rewrite the winning frame onto every reachable
        // replica holding a stale, torn, or missing copy. Pure copies
        // under the winner's verified digest — fan them out on the pool
        // like the write path.
        let reachable: Vec<usize> = (0..n).filter(|&i| !self.set.node(i).is_down()).collect();
        let lagging: Vec<usize> = reachable
            .iter()
            .zip(self.set.probe_batch(&reachable, key))
            .filter(|(_, probe)| match probe {
                Probe::Valid(f) => f.version < winner.version,
                Probe::Torn { .. } | Probe::Missing => true,
            })
            .map(|(&i, _)| i)
            .collect();
        let repairs = lagging.len() as u64;
        if !lagging.is_empty() {
            let set = self.set.clone();
            let fr = &winner;
            self.pool.par_map_ordered(
                lagging,
                || (),
                |_, _, i| {
                    if fr.tombstone {
                        set.node(i).put_tombstone(key, fr.version);
                    } else {
                        set.node(i).put_frame(key, fr.version, Vec::clone(&fr.data), fr.digest);
                    }
                },
            );
        }

        if winner.tombstone {
            // The newest committed frame is a delete marker; repairing the
            // stale copies above is what prevents resurrection.
            self.bump_stats(0, total_retries, repairs, 0);
            return Err(StorageError::NotFound(key.to_string()));
        }

        let time_ns = cost.net_latency_ns
            + self.xfer_ns(winner.data.len(), cost) * (1 + repairs)
            + backoff_ns;
        self.bump_stats(0, total_retries, repairs, 0);
        Ok((Vec::clone(&winner.data), time_ns))
    }

    fn delete(&mut self, key: &str) -> Result<(), StorageError> {
        if !self.client_up {
            return Err(StorageError::Unavailable);
        }
        let version = self.set.max_version(key) + 1;
        let mut acked = 0usize;
        let mut total_retries = 0u64;
        for i in 0..self.cfg.n {
            // Deletes take the same admission/retry path but have no
            // payload to tear, so no faultpoint site is consulted (the
            // site list stays exactly the write/read surface).
            let node = self.set.node(i);
            let salt = fnv1a64(key.as_bytes()) ^ (i as u64) ^ 0xde1e;
            let mut backoff = Backoff::new(self.cfg.backoff, salt);
            loop {
                match node.admit() {
                    Admission::Down => break,
                    Admission::Transient => {
                        if backoff.next_delay_ns().is_err() {
                            break;
                        }
                        total_retries += 1;
                        continue;
                    }
                    Admission::Ok => {
                        node.put_tombstone(key, version);
                        acked += 1;
                        break;
                    }
                }
            }
        }
        self.stats.ack_cycles.fetch_add(1, Ordering::Relaxed);
        if acked < self.cfg.w {
            self.bump_stats(0, total_retries, 0, 1);
            return Err(StorageError::QuorumLost {
                acked: acked as u32,
                needed: self.cfg.w as u32,
            });
        }
        self.manifests.remove(key);
        self.bump_stats(0, total_retries, 0, 0);
        Ok(())
    }

    fn list(&self) -> Vec<String> {
        if !self.client_up {
            return Vec::new();
        }
        // Optimistic union over reachable replicas: listing is advisory
        // (each key's actual readability is decided by the quorum read),
        // and must not silently hide keys whose copies are partially lost.
        let mut keys: Vec<String> = self
            .set
            .nodes()
            .iter()
            .filter(|n| !n.is_down())
            .flat_map(|n| n.keys())
            .collect();
        keys.sort();
        keys.dedup();
        keys
    }

    fn available(&self) -> bool {
        self.client_up && self.set.reachable() >= self.cfg.w
    }

    fn used_bytes(&self) -> u64 {
        // One logical copy's worth: the fullest reachable replica.
        self.set
            .nodes()
            .iter()
            .filter(|n| !n.is_down())
            .map(|n| n.used_bytes())
            .max()
            .unwrap_or(0)
    }

    fn on_node_failure(&mut self) {
        // The *client's* node fail-stopped. The replicas are elsewhere —
        // surviving this event is the entire point of the layer.
        self.client_up = false;
    }

    fn on_node_repair(&mut self) {
        self.client_up = true;
    }

    fn on_power_down(&mut self) {
        // Remote media are unaffected by the client node's power state.
    }

    fn replica_manifest(&self, key: &str) -> Option<ReplicaManifest> {
        self.manifests.get(key).cloned()
    }

    /// Framed batched quorum commit: the whole batch is one wire frame
    /// (header, then per-object records of `keylen | key | version |
    /// payloadlen | payload`), written to each replica in one admission /
    /// retry / acknowledgement cycle — `ack_cycles: 1` regardless of how
    /// many objects ride in it. A torn write persists a frame *prefix*:
    /// objects wholly below the tear land intact, the object straddling it
    /// lands torn (detectable by digest), objects above never reach the
    /// medium. Quorum is all-or-nothing for the batch: fewer than `w` full
    /// frames rolls every object back from the replicas that took it.
    fn store_batch(
        &mut self,
        objects: &[(&str, &[u8])],
        cost: &CostModel,
    ) -> Result<BatchReceipt, StorageError> {
        if !self.client_up {
            return Err(StorageError::Unavailable);
        }
        if objects.is_empty() {
            return Ok(BatchReceipt {
                objects: 0,
                bytes: 0,
                time_ns: 0,
                ack_cycles: 0,
            });
        }

        // Per-object commit versions, probed before any bytes move so the
        // whole batch either advances each key once or not at all.
        let versions: Vec<u64> = objects
            .iter()
            .map(|(k, _)| self.set.max_version(k) + 1)
            .collect();

        // Frame layout offsets: 16-byte frame header, then per-object
        // records of 20-byte record header + key + payload. Only the
        // offsets matter here (they decide what a torn write leaves
        // behind); the payloads themselves are stored per key.
        const FRAME_HEADER: u64 = 16;
        const RECORD_HEADER: u64 = 20;
        let mut payload_at: Vec<(u64, u64)> = Vec::with_capacity(objects.len());
        let mut off = FRAME_HEADER;
        for (k, d) in objects {
            off += RECORD_HEADER + k.len() as u64;
            payload_at.push((off, off + d.len() as u64));
            off += d.len() as u64;
        }
        let frame_bytes = off;

        // Phase 1 (sequential, replica order): ONE admission + fault-check
        // + retry/backoff cycle per replica for the entire batch — this is
        // the amortization over per-object stores.
        let batch_id = format!("batch/{}+{}", objects[0].0, objects.len());
        let mut total_retries = 0u64;
        let mut backoff_ns = 0u64;
        let cmds: Vec<(usize, WriteCmd)> = (0..self.cfg.n)
            .map(|i| {
                let (cmd, r, d) = self.resolve_replica(i, "batch", &batch_id, frame_bytes);
                total_retries += r;
                backoff_ns += d;
                (i, cmd)
            })
            .collect();

        // Pre-write snapshots for rollback: one per (replica, object),
        // taken before any frame is replaced.
        let priors: Vec<Vec<Option<Frame>>> = cmds
            .iter()
            .map(|(i, cmd)| {
                if *cmd == WriteCmd::Skip {
                    Vec::new()
                } else {
                    objects
                        .iter()
                        .map(|(k, _)| self.set.node(*i).snapshot_frame(k))
                        .collect()
                }
            })
            .collect();

        // Phase 2 (pool fan-out): every payload is digested once, as one
        // multi-lane batch; then pure copies, one replica per work item.
        let payloads: Vec<&[u8]> = objects.iter().map(|(_, d)| *d).collect();
        let digests = fnv1a64_multi(&payloads);
        self.stats
            .payload_digests
            .fetch_add(objects.len() as u64, Ordering::Relaxed);
        let set = self.set.clone();
        self.pool.par_map_ordered(
            cmds.clone(),
            || (),
            |_, _, (i, cmd)| {
                let Some(keep) = cmd.kept(frame_bytes as usize) else {
                    return;
                };
                let keep = keep as u64;
                for (j, (k, d)) in objects.iter().enumerate() {
                    let (ps, pe) = payload_at[j];
                    let record_start = ps - RECORD_HEADER - k.len() as u64;
                    // A tear below the record start leaves nothing of this
                    // object on the medium; one inside the payload leaves
                    // a prefix under the full payload's digest.
                    if keep > record_start {
                        let kept = (keep.min(pe).saturating_sub(ps)) as usize;
                        set.node(i).put_frame(k, versions[j], d[..kept].to_vec(), digests[j]);
                    }
                }
            },
        );

        let acked: Vec<u32> = cmds
            .iter()
            .filter(|(_, c)| matches!(c, WriteCmd::Full))
            .map(|(i, _)| *i as u32)
            .collect();
        let xfer: u64 = cmds
            .iter()
            .map(|(_, c)| c.kept(frame_bytes as usize).map_or(0, |n| self.xfer_ns(n, cost)))
            .sum();
        // One network round-trip for the whole frame.
        let time_ns = cost.net_latency_ns + xfer + backoff_ns;
        self.stats.ack_cycles.fetch_add(1, Ordering::Relaxed);

        if acked.len() < self.cfg.w {
            // All-or-nothing: peel every object of the failed batch back
            // off the replicas that took it, reinstating each replica's
            // pre-write frames so the previously committed values survive.
            for &i in &acked {
                for (j, (k, _)) in objects.iter().enumerate() {
                    self.set
                        .node(i as usize)
                        .rollback_to(k, versions[j], priors[i as usize][j].clone());
                }
            }
            self.bump_stats(0, total_retries, 0, 1);
            return Err(StorageError::QuorumLost {
                acked: acked.len() as u32,
                needed: self.cfg.w as u32,
            });
        }

        let mut payload_bytes = 0u64;
        for (j, (k, d)) in objects.iter().enumerate() {
            payload_bytes += d.len() as u64;
            self.manifests.insert(
                k.to_string(),
                ReplicaManifest {
                    key: k.to_string(),
                    version: versions[j],
                    digest: digests[j],
                    bytes: d.len() as u64,
                    acked: acked.clone(),
                    n: self.cfg.n as u32,
                    w: self.cfg.w as u32,
                    coding: None,
                },
            );
        }
        self.bump_stats(objects.len() as u64, total_retries, 0, 0);
        Ok(BatchReceipt {
            objects: objects.len() as u64,
            bytes: payload_bytes,
            time_ns,
            ack_cycles: 1,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost() -> CostModel {
        CostModel::circa_2005()
    }

    #[test]
    fn commit_reaches_all_replicas_and_records_a_manifest() {
        let mut s = ReplicatedStore::fresh(3, 2);
        let r = s.store("j/pid1/seq1", b"payload", &cost()).unwrap();
        assert_eq!(r.bytes, 7);
        let m = s.replica_manifest("j/pid1/seq1").unwrap();
        assert_eq!(m.acked, vec![0, 1, 2]);
        assert_eq!((m.n, m.w, m.version), (3, 2, 1));
        assert_eq!(m.digest, fnv1a64(b"payload"));
        let (bytes, _) = s.load("j/pid1/seq1", &cost()).unwrap();
        assert_eq!(bytes, b"payload");
        assert_eq!(s.stats().commits, 1);
    }

    #[test]
    fn one_replica_down_still_commits_at_w2() {
        let mut s = ReplicatedStore::fresh(3, 2);
        s.replica_set().node(2).fail();
        s.store("k", b"x", &cost()).unwrap();
        let m = s.replica_manifest("k").unwrap();
        assert_eq!(m.acked, vec![0, 1]);
        // The downed replica heals and gets read-repaired on first read.
        s.replica_set().node(2).repair();
        let before = s.stats().repairs;
        s.load("k", &cost()).unwrap();
        assert_eq!(s.stats().repairs, before + 1);
        assert!(matches!(
            s.replica_set().node(2).probe("k"),
            Probe::Valid(_)
        ));
    }

    #[test]
    fn losing_write_quorum_is_typed_and_rolled_back() {
        let mut s = ReplicatedStore::fresh(3, 2);
        s.replica_set().node(1).fail();
        s.replica_set().node(2).fail();
        let err = s.store("k", b"x", &cost()).unwrap_err();
        assert_eq!(err, StorageError::QuorumLost { acked: 1, needed: 2 });
        // The single landed copy was rolled back: after full repair the
        // key reads as never-written, not as a 1-copy "commit".
        s.replica_set().node(1).repair();
        s.replica_set().node(2).repair();
        assert!(matches!(
            s.load("k", &cost()),
            Err(StorageError::NotFound(_))
        ));
        assert_eq!(s.stats().quorum_losses, 1);
    }

    #[test]
    fn losing_more_than_n_minus_w_replicas_refuses_reads() {
        let mut s = ReplicatedStore::fresh(3, 2);
        s.store("k", b"committed", &cost()).unwrap();
        s.replica_set().node(0).fail();
        assert!(s.load("k", &cost()).is_ok(), "one loss is tolerated");
        s.replica_set().node(1).fail();
        let err = s.load("k", &cost()).unwrap_err();
        assert!(
            matches!(err, StorageError::QuorumLost { .. }),
            "two losses at (3,2) must refuse, got {err:?}"
        );
    }

    #[test]
    fn torn_replica_is_detected_and_repaired() {
        let mut s = ReplicatedStore::fresh(3, 2);
        s.store("k", b"0123456789", &cost()).unwrap();
        s.replica_set().node(1).corrupt_key("k");
        assert_eq!(s.replica_set().node(1).probe("k"), Probe::Torn { version: 1 });
        let (bytes, _) = s.load("k", &cost()).unwrap();
        assert_eq!(bytes, b"0123456789");
        // Repaired in place.
        assert!(matches!(
            s.replica_set().node(1).probe("k"),
            Probe::Valid(_)
        ));
        assert_eq!(s.stats().repairs, 1);
    }

    #[test]
    fn transient_faults_are_absorbed_by_backoff() {
        let mut s = ReplicatedStore::fresh(3, 2);
        s.replica_set().node(0).inject_transients(2);
        let r = s.store("k", b"x", &cost()).unwrap();
        assert_eq!(s.replica_manifest("k").unwrap().acked, vec![0, 1, 2]);
        assert_eq!(s.stats().retries, 2);
        // The backoff delay is charged to the modelled time.
        let clean = ReplicatedStore::fresh(3, 2)
            .store("k", b"x", &cost())
            .map(|r| r.time_ns)
            .unwrap();
        assert!(r.time_ns > clean, "retries must cost virtual time");
    }

    #[test]
    fn exhausted_retries_drop_the_replica_not_the_commit() {
        let mut s = ReplicatedStore::fresh(3, 2);
        let budget = s.config().backoff.max_retries;
        s.replica_set().node(0).inject_transients(budget + 4);
        s.store("k", b"x", &cost()).unwrap();
        assert_eq!(s.replica_manifest("k").unwrap().acked, vec![1, 2]);
    }

    #[test]
    fn delete_is_tombstoned_and_does_not_resurrect() {
        let mut s = ReplicatedStore::fresh(3, 2);
        s.store("k", b"old", &cost()).unwrap();
        // Replica 2 misses the delete entirely, keeping a stale copy.
        s.replica_set().node(2).fail();
        s.delete("k").unwrap();
        s.replica_set().node(2).repair();
        // The tombstone outranks the stale v1 frame; the read repairs the
        // straggler instead of resurrecting the deleted value.
        assert!(matches!(
            s.load("k", &cost()),
            Err(StorageError::NotFound(_))
        ));
        assert!(matches!(
            s.load("k", &cost()),
            Err(StorageError::NotFound(_))
        ));
    }

    #[test]
    fn versions_keep_climbing_across_client_restarts() {
        let set = ReplicaSet::new(3);
        let cfg = ReplicaConfig::new(3, 2);
        let mut a = ReplicatedStore::new(set.clone(), cfg);
        a.store("k", b"v1", &cost()).unwrap();
        a.store("k", b"v2", &cost()).unwrap();
        assert_eq!(a.replica_manifest("k").unwrap().version, 2);
        // A brand-new client (post-restart) probes the live version and
        // continues the order rather than restarting at 1.
        let mut b = ReplicatedStore::new(set, cfg);
        b.store("k", b"v3", &cost()).unwrap();
        assert_eq!(b.replica_manifest("k").unwrap().version, 3);
        let (bytes, _) = b.load("k", &cost()).unwrap();
        assert_eq!(bytes, b"v3");
    }

    #[test]
    fn client_node_failure_refuses_io_until_repair() {
        let mut s = ReplicatedStore::fresh(3, 2);
        s.store("k", b"x", &cost()).unwrap();
        s.on_node_failure();
        assert_eq!(s.load("k", &cost()), Err(StorageError::Unavailable));
        assert!(s.list().is_empty());
        assert!(!s.available());
        s.on_node_repair();
        assert!(s.available());
        assert_eq!(s.load("k", &cost()).unwrap().0, b"x");
    }

    #[test]
    fn batched_commit_amortizes_ack_cycles() {
        let mut batched = ReplicatedStore::fresh(3, 2);
        let objects: Vec<(String, Vec<u8>)> = (0..8)
            .map(|i| (format!("j/pid{i}/seq00000001"), vec![i as u8; 64]))
            .collect();
        let refs: Vec<(&str, &[u8])> = objects
            .iter()
            .map(|(k, d)| (k.as_str(), d.as_slice()))
            .collect();
        let r = batched.store_batch(&refs, &cost()).unwrap();
        assert_eq!((r.objects, r.ack_cycles), (8, 1));
        assert_eq!(batched.stats().commits, 8);
        assert_eq!(batched.stats().ack_cycles, 1);
        for (k, d) in &objects {
            assert_eq!(batched.load(k, &cost()).unwrap().0, *d);
            assert_eq!(batched.replica_manifest(k).unwrap().acked, vec![0, 1, 2]);
        }
        // The same commits one-by-one pay one ack cycle per object.
        let mut looped = ReplicatedStore::fresh(3, 2);
        for (k, d) in &objects {
            looped.store(k, d, &cost()).unwrap();
        }
        assert_eq!(looped.stats().ack_cycles, 8);
    }

    #[test]
    fn batch_quorum_loss_rolls_back_every_object() {
        let mut s = ReplicatedStore::fresh(3, 2);
        s.replica_set().node(1).fail();
        s.replica_set().node(2).fail();
        let err = s
            .store_batch(&[("a", b"aa".as_slice()), ("b", b"bb".as_slice())], &cost())
            .unwrap_err();
        assert_eq!(err, StorageError::QuorumLost { acked: 1, needed: 2 });
        s.replica_set().node(1).repair();
        s.replica_set().node(2).repair();
        for k in ["a", "b"] {
            assert!(
                matches!(s.load(k, &cost()), Err(StorageError::NotFound(_))),
                "object {k} of the failed batch must not survive"
            );
        }
        assert_eq!(s.stats().quorum_losses, 1);
    }

    #[test]
    fn torn_batch_frame_persists_a_detectable_prefix() {
        // Frame layout: 16B header, then "a"'s record (payload at 37..41)
        // and "b"'s (payload at 62..66). Tearing at byte 64 leaves "a"
        // intact on r0 and "b" torn mid-payload.
        let h = FaultHandle::armed("replica/r0/batch@1", Fault::TornWrite { keep_bytes: 64 });
        let mut s = ReplicatedStore::fresh(3, 2).with_faults(h);
        let r = s
            .store_batch(
                &[("a", b"aaaa".as_slice()), ("b", b"bbbb".as_slice())],
                &cost(),
            )
            .unwrap();
        assert_eq!(r.objects, 2);
        // r0 died mid-write; the quorum committed on r1+r2.
        assert_eq!(s.replica_manifest("a").unwrap().acked, vec![1, 2]);
        assert!(matches!(s.replica_set().node(0).probe("a"), Probe::Valid(_)));
        assert_eq!(
            s.replica_set().node(0).probe("b"),
            Probe::Torn { version: 1 },
            "the object straddling the tear must be self-identifying, not silent"
        );
        // Reads still see the committed values (and repair r0 once it heals).
        s.replica_set().node(0).repair();
        assert_eq!(s.load("a", &cost()).unwrap().0, b"aaaa");
        assert_eq!(s.load("b", &cost()).unwrap().0, b"bbbb");
        assert!(matches!(s.replica_set().node(0).probe("b"), Probe::Valid(_)));
    }

    #[test]
    fn batch_respects_site_prefix() {
        let h = FaultHandle::recording();
        let mut s = ReplicatedStore::fresh(3, 2)
            .with_faults(h.clone())
            .with_site_prefix("stripe4");
        s.store_batch(&[("k", b"x".as_slice())], &cost()).unwrap();
        let sites = h.sites();
        assert!(
            sites.iter().any(|s| s.name.starts_with("stripe4/r0/batch")),
            "expected stripe-prefixed batch sites, got {sites:?}"
        );
        assert!(sites.iter().all(|s| !s.name.starts_with("replica/")));
    }

    #[test]
    fn invalid_quorums_are_rejected() {
        assert!(std::panic::catch_unwind(|| ReplicaConfig::new(3, 1)).is_err());
        assert!(std::panic::catch_unwind(|| ReplicaConfig::new(4, 2)).is_err());
        assert!(std::panic::catch_unwind(|| ReplicaConfig::new(3, 4)).is_err());
        let c = ReplicaConfig::new(5, 3);
        assert_eq!(c.tolerated_losses(), 2);
    }
}
