//! The quorum store: one [`StableStorage`] backend over a shared
//! [`ReplicaSet`], generic over how an object is coded onto its nodes.
//!
//! A [`QuorumStore<C>`] is one client handle. Writes put one frame per
//! node through the commit protocol ([`crate::quorum`]) at write quorum
//! `w`. Reads admit and probe every node once, pick the newest intact
//! version, assemble its bytes and repair the reachable nodes that lag
//! it, the repairs fanned out on the pool. The [`Coding`] answers what
//! differs between tiers: the frames an object becomes, the label and
//! footprint, when a read must refuse, how the winning version is
//! assembled and which frame a repair writes. [`Replicate`] stores the
//! whole object on every node; `ckpt-ec`'s Reed-Solomon code one shard.
//!
//! ## Why versions + digests are sufficient
//!
//! Every committed write lands intact on at least `w > N/2` nodes, so
//! after losing any `N - w` of them at least `2w - N ≥ 1` intact frames
//! remain, and no *newer* commit can hide entirely in the lost set. Frame
//! digests (CRC-64 over the frame, written with it) make torn frames
//! self-identifying, and the per-key version order makes "newest intact
//! frame" well-defined — majority voting is not needed.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;

use ckpt_par::Pool;
use ckpt_storage::{
    digest64, fnv1a64, BatchReceipt, CodingGeometry, ReplicaManifest, StableStorage,
    StorageClass, StorageError, StoreReceipt,
};
use parking_lot::Mutex;
use simos::cost::CostModel;
use simos::faultpoint::FaultHandle;
use simos::trace::TraceHandle;
use simos::types::SimResult;
use simos::Relink;

use crate::node::{Frame, Probe, ReplicaSet};
use crate::quorum::{xfer_ns, LastCommit, QuorumStats, WireFrame};

/// The `simos::trace` counter each [`QuorumStats`] field of the same
/// name counts under (`ack_cycles` and `payload_digests` are not traced).
#[derive(Debug, Clone, Copy)]
pub struct Counters {
    pub commits: &'static str,
    pub retries: &'static str,
    pub quorum_losses: &'static str,
    pub repairs: &'static str,
    pub decodes: &'static str,
    pub shard_losses: &'static str,
}

/// `frame(j, i, digest)`: what node `i` stores for object `j`, whose
/// digest is `digest`, and that frame's digest.
pub trait FrameFor<'a>: FnMut(usize, usize, u64) -> (Cow<'a, [u8]>, u64) {}
impl<'a, F: FnMut(usize, usize, u64) -> (Cow<'a, [u8]>, u64)> FrameFor<'a> for F {}

/// `repair(i)`: the frame, and its digest, a read writes to lagging node
/// `i`.
pub trait Repair: Fn(usize) -> (Vec<u8>, u64) + Sync {}
impl<F: Fn(usize) -> (Vec<u8>, u64) + Sync> Repair for F {}

/// The winning version's bytes as a [`Coding`] assembled them.
pub struct Assembled<R> {
    pub bytes: Vec<u8>,
    /// The digest `bytes` were verified against.
    pub digest: u64,
    /// Whether the assembly decoded missing data.
    pub decoded: bool,
    /// Winning-version frames that crossed the wire to serve the read.
    pub frames_read: u64,
    /// What a repair writes to a lagging node ([`Repair`]).
    pub repair: R,
}

/// How a [`QuorumStore`] codes an object onto its nodes: everything in
/// which its tiers differ, as answers rather than branches.
pub trait Coding: Clone + Send + Sync + 'static {
    /// Faultpoint sites render as `<prefix>/<tag><i>/<op>`.
    const SITES: (&'static str, char);
    /// Stripe `j` of a [`Striped`](crate::Striped) pool renders its sites
    /// under `<STRIPE_STEM><j>/` instead.
    const STRIPE_STEM: &'static str;
    const COUNTERS: Counters;

    /// The [`StableStorage::label`] of a store over `n` nodes at write
    /// quorum `w`.
    fn label(&self, n: usize, w: usize) -> String;

    /// The label of a `width`-stripe pool of such stores.
    fn pool_label(&self, width: usize, n: usize, w: usize) -> String;

    /// One logical copy's footprint, from the reachable nodes' used bytes.
    fn used_bytes(per_node: impl Iterator<Item = u64>) -> u64;

    /// The bytes an `object_len`-byte object occupies in each node's wire
    /// frame.
    fn frame_len(&self, object_len: usize) -> u64;

    /// The wire frame a single-object store sends.
    fn single_wire(key: &str, frame_len: u64) -> WireFrame;

    /// Code `objects` for one commit: every object's digest (`digests`
    /// when the caller holds them), and the frame each node stores for
    /// each object — asked at most once per pair.
    fn code<'a>(
        &self,
        objects: &'a [(&'a str, &'a [u8])],
        digests: Option<&'a [u64]>,
        pool: &Arc<Pool>,
    ) -> (Cow<'a, [u64]>, impl FrameFor<'a> + use<'a, Self>);

    /// The typed refusal, if any, of a read at write quorum `w` that found
    /// `frames` (each admitted node's intact frame, by node) under a key
    /// some node holds, the newest of them `winner`.
    fn refusal(
        &self,
        w: usize,
        frames: &[Option<Frame>],
        winner: Option<&Frame>,
    ) -> Option<StorageError>;

    /// The bytes of the winning version `winner`, from `frames` (each
    /// admitted node's intact frame, by node), and the repair of the
    /// `lagging` nodes; or the typed refusal.
    fn assemble<'a>(
        &'a self,
        winner: &'a Frame,
        frames: &[Option<Frame>],
        lagging: &[usize],
        pool: &Arc<Pool>,
    ) -> Result<Assembled<impl Repair + use<'a, Self>>, StorageError>;
}

/// A coding that splits every object into `k` data shards plus `m`
/// parity shards, one per node.
pub trait ShardCoding: Coding {
    fn new(k: usize, m: usize) -> Self;
}

/// One client handle on a quorum store over a shared [`ReplicaSet`],
/// coding objects with `C`: the write quorum, the fault and trace
/// handles, the pool, the client's own reachability, the manifests of what
/// it committed and its counters. Cheap to construct; clones of the set
/// share all node state.
pub struct QuorumStore<C> {
    pub(crate) set: Arc<ReplicaSet>,
    pub(crate) w: usize,
    pub(crate) coding: C,
    /// Stamped into every manifest (`None` on the full-copy tier).
    pub(crate) geometry: Option<CodingGeometry>,
    pub(crate) faults: FaultHandle,
    pub(crate) trace: TraceHandle,
    pub(crate) pool: Arc<Pool>,
    /// This *client's* reachability (its node may fail-stop); node
    /// availability lives in the shared set.
    pub(crate) client_up: bool,
    /// Faultpoint sites render as `{site_prefix}/{tag}<i>/{op}`, the
    /// prefix and tag [`Coding::SITES`] unless a striped pool renames the
    /// prefix.
    pub(crate) site_prefix: String,
    pub(crate) manifests: BTreeMap<String, ReplicaManifest>,
    pub(crate) undo: LastCommit,
    pub(crate) stats: Mutex<QuorumStats>,
}

/// Quorum configuration: N replicas, write quorum w with `N/2 < w <= N`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaConfig {
    pub(crate) n: usize,
    pub(crate) w: usize,
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
}

/// Full replication: every node stores the whole object under the
/// object's own digest. A single object travels bare — its own `store`
/// site, its un-framed length on the wire.
#[derive(Debug, Clone, Copy)]
pub struct Replicate;

/// N-way full replication: sites `replica/r<i>/<op>`, label
/// `replicated(N,w)`.
pub type ReplicatedStore = QuorumStore<Replicate>;

impl Coding for Replicate {
    const SITES: (&'static str, char) = ("replica", 'r');
    const STRIPE_STEM: &'static str = "stripe";
    /// A full copy is never decoded, and its reads refuse with
    /// `QuorumLost`, so nothing counts under the last two.
    const COUNTERS: Counters = Counters {
        commits: "replication.commits",
        retries: "replication.retries",
        quorum_losses: "replication.quorum_losses",
        repairs: "replication.repairs",
        decodes: "replication.decodes",
        shard_losses: "replication.shard_losses",
    };

    fn label(&self, n: usize, w: usize) -> String {
        format!("replicated({n},{w})")
    }

    fn pool_label(&self, width: usize, n: usize, w: usize) -> String {
        format!("striped({width}x{n},{w})")
    }

    fn used_bytes(per_node: impl Iterator<Item = u64>) -> u64 {
        // The fullest reachable replica holds one logical copy.
        per_node.max().unwrap_or(0)
    }

    fn frame_len(&self, object_len: usize) -> u64 {
        object_len as u64
    }

    fn single_wire(key: &str, frame_len: u64) -> WireFrame {
        WireFrame::bare(key, frame_len)
    }

    /// Every replica copies the object itself, under the object's digest
    /// — a torn one only a prefix.
    fn code<'a>(
        &self,
        objects: &'a [(&'a str, &'a [u8])],
        digests: Option<&'a [u64]>,
        _: &Arc<Pool>,
    ) -> (Cow<'a, [u64]>, impl FrameFor<'a> + use<'a>) {
        let digests = digests.map_or_else(
            || Cow::Owned(objects.iter().map(|(_, d)| digest64(d)).collect()),
            Cow::Borrowed,
        );
        (digests, move |j, _, digest| (Cow::Borrowed(objects[j].1), digest))
    }

    /// Every unreachable, torn, or inexplicably missing replica might hold
    /// a newer commit than the best intact frame in sight; with fewer than
    /// `w` intact frames, "newest visible" is not "newest".
    fn refusal(
        &self,
        w: usize,
        frames: &[Option<Frame>],
        _: Option<&Frame>,
    ) -> Option<StorageError> {
        let intact = frames.iter().flatten().count();
        (intact < w).then_some(StorageError::QuorumLost {
            acked: intact as u32,
            needed: w as u32,
        })
    }

    /// The winning frame passed its node's digest check, so its recorded
    /// digest is the returned bytes', and a repair copies it.
    fn assemble<'a>(
        &'a self,
        winner: &'a Frame,
        _: &[Option<Frame>],
        _: &[usize],
        _: &Arc<Pool>,
    ) -> Result<Assembled<impl Repair + use<'a>>, StorageError> {
        Ok(Assembled {
            bytes: Vec::clone(&winner.data),
            digest: winner.digest,
            decoded: false,
            frames_read: 1,
            repair: |_| (Vec::clone(&winner.data), winner.digest),
        })
    }
}

impl QuorumStore<Replicate> {
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
        QuorumStore::build(set, cfg.w, None, Replicate)
    }

    /// Convenience: a fresh N-node set plus its first client handle.
    pub fn fresh(n: usize, w: usize) -> Self {
        QuorumStore::<Replicate>::new(ReplicaSet::new(n), ReplicaConfig::new(n, w))
    }
}

impl<C: ShardCoding> QuorumStore<C> {
    /// A store over `set` (which must have exactly `k + m` nodes) coding
    /// `k` data plus `m` parity shards, committing at the shard write
    /// quorum `k + ⌈m/2⌉`: a committed write then occupies enough nodes
    /// that `k` intact shards of a version prove no newer commit hides in
    /// the rest. Defaults as [`ReplicatedStore::new`].
    pub fn new(set: Arc<ReplicaSet>, k: usize, m: usize) -> Self {
        let coding = C::new(k, m);
        assert_eq!(
            set.len(),
            k + m,
            "shard set has {} nodes but a ({k},{m}) code needs {}",
            set.len(),
            k + m
        );
        let geometry = CodingGeometry {
            k: k as u32,
            m: m as u32,
        };
        QuorumStore::build(set, k + m.div_ceil(2), Some(geometry), coding)
    }

    /// Convenience: a fresh `k + m`-node set plus its first client handle.
    pub fn fresh(k: usize, m: usize) -> Self {
        QuorumStore::<C>::new(ReplicaSet::new(k + m), k, m)
    }
}

impl<C: Coding> QuorumStore<C> {
    /// Fault injection defaults to off, tracing to the no-op sink, and the
    /// pool to the global `CKPT_PAR_WORKERS`-sized pool; transients are
    /// retried on the one `BackoffPolicy::default` schedule.
    fn build(set: Arc<ReplicaSet>, w: usize, geometry: Option<CodingGeometry>, coding: C) -> Self {
        QuorumStore {
            set,
            w,
            coding,
            geometry,
            faults: FaultHandle::disabled(),
            trace: TraceHandle::disabled(),
            pool: ckpt_par::global().clone(),
            client_up: true,
            site_prefix: C::SITES.0.to_string(),
            manifests: BTreeMap::new(),
            undo: LastCommit::default(),
            stats: Mutex::default(),
        }
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

    pub fn replica_set(&self) -> Arc<ReplicaSet> {
        self.set.clone()
    }

    /// Counters accumulated by this client handle.
    pub fn stats(&self) -> QuorumStats {
        *self.stats.lock()
    }

    /// This store in a fork of its world: its set re-pointed through
    /// `relink` and consulting [`Relink::faults`], its manifests, undo
    /// record and counters carried over. Trace sink and pool are shared.
    pub(crate) fn fork_store(&self, relink: &mut Relink) -> SimResult<Self> {
        Ok(QuorumStore {
            set: ReplicaSet::fork(&self.set, relink)?,
            w: self.w,
            coding: self.coding.clone(),
            geometry: self.geometry,
            faults: relink.faults().clone(),
            trace: self.trace.clone(),
            pool: self.pool.clone(),
            client_up: self.client_up,
            site_prefix: self.site_prefix.clone(),
            manifests: self.manifests.clone(),
            undo: self.undo.clone(),
            stats: Mutex::new(self.stats()),
        })
    }

    /// `objects` as one framed batch ([`StableStorage::store_batch`]),
    /// under `digests` when the caller holds them.
    pub(crate) fn commit_framed(
        &mut self,
        objects: &[(&str, &[u8])],
        digests: Option<&[u64]>,
        cost: &CostModel,
    ) -> Result<BatchReceipt, StorageError> {
        let wire =
            WireFrame::framed(objects.iter().map(|(k, d)| (*k, self.coding.frame_len(d.len()))));
        self.commit(objects, digests, &wire, cost)
    }

    fn store_one(
        &mut self,
        key: &str,
        data: &[u8],
        digest: Option<&[u64]>,
        cost: &CostModel,
    ) -> Result<StoreReceipt, StorageError> {
        let wire = C::single_wire(key, self.coding.frame_len(data.len()));
        let r = self.commit(&[(key, data)], digest, &wire, cost)?;
        Ok(StoreReceipt {
            key: key.to_string(),
            bytes: r.bytes,
            time_ns: r.time_ns,
        })
    }

    /// The reachable nodes holding anything but an intact frame at
    /// `winner`'s version. When every reachable node was admitted and
    /// holds one in `frames`, the read's probe already shows nothing lags;
    /// otherwise a reachable node that was not admitted (its transients
    /// outlasted the retries) may hold anything, so every reachable one is
    /// probed again.
    fn lagging(&self, key: &str, winner: &Frame, frames: &[Option<Frame>]) -> Vec<usize> {
        let set = &self.set;
        let reachable: Vec<usize> = (0..set.len()).filter(|&i| !set.node(i).is_down()).collect();
        let current = frames.iter().flatten().filter(|f| f.version == winner.version);
        if current.count() == reachable.len() {
            return Vec::new();
        }
        reachable
            .iter()
            .zip(set.probe_batch(&reachable, key))
            .filter(|(_, probe)| match probe {
                Probe::Valid(f) => f.version < winner.version,
                Probe::Torn { .. } | Probe::Missing => true,
            })
            .map(|(&i, _)| i)
            .collect()
    }
}

impl<C: Coding> StableStorage for QuorumStore<C> {
    fn class(&self) -> StorageClass {
        StorageClass::Remote
    }

    fn label(&self) -> String {
        self.coding.label(self.set.len(), self.w)
    }

    fn store(
        &mut self,
        key: &str,
        data: &[u8],
        cost: &CostModel,
    ) -> Result<StoreReceipt, StorageError> {
        self.store_one(key, data, None, cost)
    }

    /// [`StableStorage::store`] under the caller's digest of `data`: the
    /// commit records it instead of hashing `data` again, and the first
    /// read verifies it.
    fn store_digested(
        &mut self,
        key: &str,
        data: &[u8],
        digest: u64,
        cost: &CostModel,
    ) -> Result<StoreReceipt, StorageError> {
        self.store_one(key, data, Some(&[digest]), cost)
    }

    fn load(&self, key: &str, cost: &CostModel) -> Result<(Vec<u8>, u64), StorageError> {
        let (data, time_ns, _) = self.load_verified(key, cost)?;
        Ok((data, time_ns))
    }

    /// The quorum read: admit and probe every node once (a first read
    /// verifies each frame against its digest), refuse as the coding
    /// says, assemble the newest version, repair the reachable nodes that
    /// lag it, and vouch for the digest the bytes were verified against.
    fn load_verified(
        &self,
        key: &str,
        cost: &CostModel,
    ) -> Result<(Vec<u8>, u64, Option<u64>), StorageError> {
        self.ensure_up()?;
        let set = &self.set;
        let (n, w) = (set.len(), self.w);

        // Sequential admission + fault checks in node order; then one
        // probe classifies what every admitted node holds.
        let adm = self.admit_all(Some("load"), fnv1a64(key.as_bytes()), 0);
        let admitted: Vec<usize> = adm.admitted().collect();
        let down = n - admitted.len();
        let mut torn = 0usize;
        let mut frames: Vec<Option<Frame>> = vec![None; n];
        for (&i, probe) in admitted.iter().zip(set.probe_batch(&admitted, key)) {
            match probe {
                Probe::Missing => {}
                Probe::Torn { .. } => torn += 1,
                Probe::Valid(f) => frames[i] = Some(f),
            }
        }
        // Ranking needs only frame metadata; the payloads stay where they
        // are (shared, not copied) until the winner's are assembled.
        let winner = frames.iter().flatten().max_by_key(|f| f.version).cloned();

        // No node has ever seen this key — unless so many are down that a
        // committed frame could be hiding on them.
        if winner.is_none() && torn == 0 && down <= n - w {
            return Err(StorageError::NotFound(key.to_string()));
        }
        if let Some(refusal) = self.coding.refusal(w, &frames, winner.as_ref()) {
            return Err(self.refused(refusal));
        }
        let winner = winner.expect("a read the coding does not refuse has a winning frame");

        // A tombstone winner means the newest committed frame is a delete
        // marker; repairing the stale frames is what prevents resurrection.
        let lagging = self.lagging(key, &winner, &frames);
        let assembled = if winner.tombstone {
            None
        } else {
            let got = self.coding.assemble(&winner, &frames, &lagging, &self.pool);
            Some(got.map_err(|refusal| self.refused(refusal))?)
        };

        // Read-repair: the winning version's frame onto every lagging
        // reachable node — pure work under a verified digest, fanned out on
        // the pool like the write path.
        let repairs = lagging.len() as u64;
        let moved = lagging.len() * winner.data.len();
        self.pool
            .for_bytes(moved)
            .par_map_ordered(lagging, || (), |_, _, i| match &assembled {
                None => set.node(i).put_tombstone(key, winner.version),
                Some(a) => {
                    let (frame, digest) = (a.repair)(i);
                    set.node(i).put_frame(key, winner.version, frame, digest);
                }
            });
        let decoded = assembled.as_ref().is_some_and(|a| a.decoded);
        self.read_done(repairs, decoded);
        let Some(a) = assembled else {
            return Err(StorageError::NotFound(key.to_string()));
        };

        // The frames that served the read cross the wire, plus one per
        // repaired node.
        let time_ns = cost.net_latency_ns
            + xfer_ns(winner.data.len() as u64, cost) * (a.frames_read + repairs)
            + adm.backoff_ns;
        Ok((a.bytes, time_ns, Some(a.digest)))
    }

    fn delete(&mut self, key: &str) -> Result<(), StorageError> {
        self.commit_tombstone(key)
    }

    /// Optimistic union over reachable nodes: listing is advisory (each
    /// key's actual readability is decided by the quorum read), and must
    /// not silently hide keys whose copies are partially lost.
    fn list(&self) -> Vec<String> {
        if !self.client_up {
            return Vec::new();
        }
        let mut keys: Vec<String> = self.set.up().flat_map(|n| n.keys()).collect();
        keys.sort();
        keys.dedup();
        keys
    }

    fn available(&self) -> bool {
        self.client_up && self.set.up().count() >= self.w
    }

    fn used_bytes(&self) -> u64 {
        C::used_bytes(self.set.up().map(|n| n.used_bytes()))
    }

    fn on_node_failure(&mut self) {
        // The *client's* node fail-stopped. The nodes are elsewhere —
        // surviving this event is the entire point of the layer.
        self.client_up = false;
    }

    fn on_node_repair(&mut self) {
        self.client_up = true;
    }

    fn on_power_down(&mut self) {
        // Remote media are unaffected by the client node's power state.
    }

    /// The manifest of `key`'s last commit through this client.
    fn replica_manifest(&self, key: &str) -> Option<ReplicaManifest> {
        self.manifests.get(key).cloned()
    }

    fn fork(&self, relink: &mut Relink) -> SimResult<Box<dyn StableStorage>> {
        Ok(Box::new(self.fork_store(relink)?))
    }

    /// Framed batched quorum commit: the whole batch is one wire frame per
    /// node (see [`WireFrame::framed`]) holding that node's frame of every
    /// object, written in one admission / retry / acknowledgement cycle —
    /// `ack_cycles: 1` regardless of how many objects ride in it. A torn
    /// write persists a frame *prefix*: objects wholly below the tear land
    /// intact, the object straddling it lands torn (detectable by digest),
    /// objects above never reach the medium. Quorum is all-or-nothing for
    /// the batch.
    fn store_batch(
        &mut self,
        objects: &[(&str, &[u8])],
        cost: &CostModel,
    ) -> Result<BatchReceipt, StorageError> {
        self.commit_framed(objects, None, cost)
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
        assert_eq!(m.digest, digest64(b"payload"));
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

    /// A replica whose load admission ran out of retries is reachable but
    /// unprobed, so a clean first probe proves nothing about it: the read
    /// still probes every reachable replica and repairs it. Once every
    /// frame is verified, a clean read repairs nothing and digests nothing.
    #[test]
    fn a_reachable_replica_that_was_not_admitted_is_still_repaired() {
        let mut s = ReplicatedStore::fresh(3, 2);
        let set = s.replica_set();
        s.store("k", b"v1", &cost()).unwrap();
        // Replica 0 misses the overwrite and keeps the v1 frame.
        set.node(0).fail();
        s.store("k", b"v2", &cost()).unwrap();
        set.node(0).repair();
        // Every transient its load admission retries is consumed, and one
        // more: it is left out of the quorum read but stays reachable.
        set.node(0)
            .inject_transients(BackoffPolicy::default().max_retries + 1);
        assert_eq!(s.load("k", &cost()).unwrap().0, b"v2");
        assert_eq!(
            s.stats().repairs,
            1,
            "the unadmitted stale replica is repaired"
        );
        assert!(matches!(set.node(0).probe("k"), Probe::Valid(f) if f.version == 2));
        s.load("k", &cost()).unwrap();
        let digests: u64 = set.nodes().iter().map(|n| n.digests_computed()).sum();
        s.load("k", &cost()).unwrap();
        assert_eq!(s.stats().repairs, 1);
        assert_eq!(
            set.nodes()
                .iter()
                .map(|n| n.digests_computed())
                .sum::<u64>(),
            digests,
            "a clean read of a verified key computes no digest"
        );
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
        assert_eq!((c.n, c.w), (5, 3));
    }
}
