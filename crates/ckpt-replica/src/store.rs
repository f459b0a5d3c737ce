//! The quorum-replicated stable-storage backend.
//!
//! A [`ReplicatedStore`] is one client handle onto a shared
//! [`ReplicaSet`]: writes put the full payload on all N replicas through
//! the shared commit protocol ([`crate::quorum`]) and commit at write
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

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ckpt_par::Pool;
use ckpt_storage::{
    fnv1a64, fnv1a64_multi, BatchReceipt, ReplicaManifest, StableStorage, StorageClass,
    StorageError, StoreReceipt,
};
use simos::cost::CostModel;
use simos::faultpoint::FaultHandle;
use simos::trace::TraceHandle;
use simos::types::SimResult;
use simos::Relink;

use crate::node::{Frame, Probe, ReplicaSet};
use crate::quorum::{CommitObject, QuorumClient, WireFrame};
use crate::stripe::StripeMember;

/// Quorum configuration: N replicas, write quorum w with `N/2 < w <= N`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaConfig {
    pub n: usize,
    pub w: usize,
}

impl ReplicaConfig {
    /// Panics unless `w > n/2` and `w <= n` — anything else is not a
    /// quorum system and silently weaker guarantees are exactly what this
    /// layer exists to rule out.
    pub fn new(n: usize, w: usize) -> Self {
        assert!(n >= 1, "need at least one replica");
        assert!(w <= n, "write quorum {w} cannot exceed replication factor {n}");
        assert!(w > n / 2, "write quorum {w} must be a majority of {n}");
        ReplicaConfig { n, w }
    }

    /// Replicas the protocol tolerates losing while still answering.
    pub fn tolerated_losses(&self) -> usize {
        self.n - self.w
    }
}

/// Plain counters mirroring the `replication.*` trace counters this store
/// emits, readable without a recording trace handle.
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

/// One client handle on an N-way replicated store: full-copy payloads
/// over the shared [`QuorumClient`] commit protocol, plus the quorum read
/// with read-repair. Cheap to construct; clones of the underlying
/// [`ReplicaSet`] share all replica state.
pub struct ReplicatedStore {
    core: QuorumClient,
    repairs: AtomicU64,
    payload_digests: AtomicU64,
}

impl ReplicatedStore {
    /// A store over `set` with quorum `cfg`. Fault injection defaults to
    /// off, tracing to the no-op sink, and the pool to the global
    /// `CKPT_PAR_WORKERS`-sized pool. Faultpoint sites render as
    /// `replica/r<i>/<op>`.
    pub fn new(set: Arc<ReplicaSet>, cfg: ReplicaConfig) -> Self {
        assert_eq!(
            set.len(),
            cfg.n,
            "replica set has {} nodes but the quorum config says N={}",
            set.len(),
            cfg.n
        );
        let counters = ["replication.commits", "replication.retries", "replication.quorum_losses"];
        ReplicatedStore {
            core: QuorumClient::new(set, cfg.w, "replica", 'r', None, counters),
            repairs: AtomicU64::new(0),
            payload_digests: AtomicU64::new(0),
        }
    }

    /// Convenience: a fresh N-node set plus its first client handle.
    pub fn fresh(n: usize, w: usize) -> Self {
        ReplicatedStore::new(ReplicaSet::new(n), ReplicaConfig::new(n, w))
    }

    pub fn with_faults(mut self, faults: FaultHandle) -> Self {
        self.core.set_faults(faults);
        self
    }

    pub fn with_trace(mut self, trace: TraceHandle) -> Self {
        self.core.set_trace(trace);
        self
    }

    pub fn with_pool(mut self, pool: Arc<Pool>) -> Self {
        self.core.set_pool(pool);
        self
    }

    pub fn replica_set(&self) -> Arc<ReplicaSet> {
        self.core.set().clone()
    }

    /// Counters accumulated by this client handle.
    pub fn stats(&self) -> ReplStats {
        let q = self.core.stats();
        ReplStats {
            commits: q.commits,
            retries: q.retries,
            repairs: self.repairs.load(Ordering::Relaxed),
            quorum_losses: q.quorum_losses,
            ack_cycles: q.ack_cycles,
            payload_digests: self.payload_digests.load(Ordering::Relaxed),
        }
    }

    /// Account the end of a read: replicas repaired, and whether it was
    /// refused for lack of a quorum.
    fn read_done(&self, repairs: u64, quorum_losses: u64) {
        self.repairs.fetch_add(repairs, Ordering::Relaxed);
        self.core.trace().count("replication.repairs", repairs);
        self.core.record(0, 0, quorum_losses);
    }

    /// Commit `objects` as one `wire` frame per replica. Every payload was
    /// digested once, by the caller (`digests`); every replica ingests its
    /// own copy under that digest — a torn one only a prefix.
    fn commit(
        &mut self,
        objects: &[(&str, &[u8])],
        digests: &[u64],
        wire: &WireFrame,
        cost: &CostModel,
    ) -> Result<BatchReceipt, StorageError> {
        self.payload_digests
            .fetch_add(digests.len() as u64, Ordering::Relaxed);
        let described: Vec<CommitObject<'_>> = objects
            .iter()
            .zip(digests)
            .map(|(&(key, d), &digest)| CommitObject {
                key,
                bytes: d.len() as u64,
                digest,
            })
            .collect();
        self.core.commit(
            &described,
            wire,
            |j, _| (Cow::Borrowed(objects[j].1), digests[j]),
            cost,
        )
    }
}

impl StripeMember for ReplicatedStore {
    const SITE_STEM: &'static str = "stripe";

    fn pool_label(&self, width: usize) -> String {
        let (n, w) = (self.core.set().len(), self.core.write_quorum());
        format!("striped({width}x{n},{w})")
    }

    fn quorum_mut(&mut self) -> &mut QuorumClient {
        &mut self.core
    }

    fn fork_member(&self, relink: &mut Relink) -> SimResult<Self> {
        let at = |c: &AtomicU64| AtomicU64::new(c.load(Ordering::Relaxed));
        Ok(ReplicatedStore {
            core: self.core.fork(relink)?,
            repairs: at(&self.repairs),
            payload_digests: at(&self.payload_digests),
        })
    }
}

impl StableStorage for ReplicatedStore {
    fn class(&self) -> StorageClass {
        StorageClass::Remote
    }

    fn label(&self) -> String {
        format!("replicated({},{})", self.core.set().len(), self.core.write_quorum())
    }

    /// A single object travels bare — its own `store` site, its un-framed
    /// length on the wire — through the same commit protocol as a batch.
    fn store(
        &mut self,
        key: &str,
        data: &[u8],
        cost: &CostModel,
    ) -> Result<StoreReceipt, StorageError> {
        self.core.ensure_up()?;
        let wire = WireFrame::bare(key, data.len() as u64);
        let r = self.commit(&[(key, data)], &[fnv1a64(data)], &wire, cost)?;
        Ok(StoreReceipt {
            key: key.to_string(),
            bytes: r.bytes,
            time_ns: r.time_ns,
        })
    }

    fn load(&self, key: &str, cost: &CostModel) -> Result<(Vec<u8>, u64), StorageError> {
        self.core.ensure_up()?;
        let set = self.core.set();

        // Sequential admission + fault checks in replica order; then one
        // batched probe classifies what every admitted replica holds (a
        // first read verifies all their frames in one multi-lane pass).
        let adm = self.core.admit_all("load", key, 0);
        let admitted: Vec<usize> = adm.admitted().collect();
        let n = set.len();
        let w = self.core.write_quorum();
        let tolerated = n - w;
        let down = n - admitted.len();
        let mut missing = 0usize;
        let mut torn = 0usize;
        let mut valid: Vec<Frame> = Vec::new();
        for probe in set.probe_batch(&admitted, key) {
            match probe {
                Probe::Missing => missing += 1,
                Probe::Torn { .. } => torn += 1,
                Probe::Valid(f) => valid.push(f),
            }
        }

        if valid.is_empty() && torn == 0 {
            // No replica has ever seen this key — unless so many are down
            // that a committed copy could be hiding on them.
            self.read_done(0, u64::from(down > tolerated));
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
            self.read_done(0, 1);
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
        let reachable: Vec<usize> = (0..n).filter(|&i| !set.node(i).is_down()).collect();
        let lagging: Vec<usize> = reachable
            .iter()
            .zip(set.probe_batch(&reachable, key))
            .filter(|(_, probe)| match probe {
                Probe::Valid(f) => f.version < winner.version,
                Probe::Torn { .. } | Probe::Missing => true,
            })
            .map(|(&i, _)| i)
            .collect();
        let repairs = lagging.len() as u64;
        let fr = &winner;
        let moved = lagging.len() * fr.data.len();
        self.core.pool().for_bytes(moved).par_map_ordered(lagging, || (), |_, _, i| {
            if fr.tombstone {
                set.node(i).put_tombstone(key, fr.version);
            } else {
                set.node(i).put_frame(key, fr.version, Vec::clone(&fr.data), fr.digest);
            }
        });

        // A tombstone winner means the newest committed frame is a delete
        // marker; repairing the stale copies above is what prevents
        // resurrection.
        self.read_done(repairs, 0);
        if winner.tombstone {
            return Err(StorageError::NotFound(key.to_string()));
        }
        let time_ns = cost.net_latency_ns
            + QuorumClient::xfer_ns(winner.data.len() as u64, cost) * (1 + repairs)
            + adm.backoff_ns;
        Ok((Vec::clone(&winner.data), time_ns))
    }

    fn delete(&mut self, key: &str) -> Result<(), StorageError> {
        self.core.delete(key)
    }

    fn list(&self) -> Vec<String> {
        self.core.list()
    }

    fn available(&self) -> bool {
        self.core.available()
    }

    fn used_bytes(&self) -> u64 {
        // One logical copy's worth: the fullest reachable replica.
        self.core
            .set()
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
        self.core.set_client_up(false);
    }

    fn on_node_repair(&mut self) {
        self.core.set_client_up(true);
    }

    fn on_power_down(&mut self) {
        // Remote media are unaffected by the client node's power state.
    }

    fn replica_manifest(&self, key: &str) -> Option<ReplicaManifest> {
        self.core.manifest(key)
    }

    fn fork(&self, relink: &mut Relink) -> SimResult<Box<dyn StableStorage>> {
        Ok(Box::new(self.fork_member(relink)?))
    }

    /// Framed batched quorum commit: the whole batch is one wire frame
    /// (see [`WireFrame::framed`]), written to each replica in one
    /// admission / retry / acknowledgement cycle — `ack_cycles: 1`
    /// regardless of how many objects ride in it. A torn write persists a
    /// frame *prefix*: objects wholly below the tear land intact, the
    /// object straddling it lands torn (detectable by digest), objects
    /// above never reach the medium. Quorum is all-or-nothing for the
    /// batch.
    fn store_batch(
        &mut self,
        objects: &[(&str, &[u8])],
        cost: &CostModel,
    ) -> Result<BatchReceipt, StorageError> {
        self.core.ensure_up()?;
        // All the batch's payloads are digested as one multi-lane pass.
        let payloads: Vec<&[u8]> = objects.iter().map(|(_, d)| *d).collect();
        let digests = fnv1a64_multi(&payloads);
        let wire = WireFrame::framed(objects.iter().map(|(k, d)| (*k, d.len() as u64)));
        self.commit(objects, &digests, &wire, cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backoff::BackoffPolicy;
    use simos::faultpoint::Fault;

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
        let budget = BackoffPolicy::default().max_retries;
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
    fn invalid_quorums_are_rejected() {
        assert!(std::panic::catch_unwind(|| ReplicaConfig::new(3, 1)).is_err());
        assert!(std::panic::catch_unwind(|| ReplicaConfig::new(4, 2)).is_err());
        assert!(std::panic::catch_unwind(|| ReplicaConfig::new(3, 4)).is_err());
        let c = ReplicaConfig::new(5, 3);
        assert_eq!(c.tolerated_losses(), 2);
    }
}
