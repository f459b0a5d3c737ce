//! Simulated remote replica nodes.
//!
//! A [`ReplicaNode`] is one independent remote store holding versioned,
//! digest-protected frames; a [`ReplicaSet`] is the N-node group a
//! [`QuorumStore`](crate::QuorumStore) fans out over. The set is
//! shared (`Arc`) so every client handle in a cluster sees the same replica
//! state — that is what makes checkpoint data survive the loss of the
//! *writing* node.
//!
//! Determinism split: reachability and transient-fault **admission** is
//! decided sequentially on the calling thread ([`ReplicaNode::admit`]
//! consumes queued transients in replica order), while the frame writes
//! themselves are pure data copies safe to fan out on the worker pool —
//! each node carries its own lock, so workers copying payloads to
//! different replicas never contend.
//!
//! Who digests what: the *committer* digests a payload once — or takes
//! the digest the layer above already holds
//! ([`StableStorage::store_digested`](ckpt_storage::StableStorage::store_digested))
//! — and every node ingests `(payload, digest)`
//! ([`ReplicaNode::put_frame`]); a node verifies a frame against that
//! digest on the first probe after it was written and keeps the verdict
//! with the frame, so a frame's bytes are hashed once on the way in and
//! once on the first read, never again until they change. A quorum read
//! hands the verified digest of its winner up
//! ([`StableStorage::load_verified`](ckpt_storage::StableStorage::load_verified)),
//! so the layer above need not hash the bytes again.
//!
//! Each node keeps its frames in one hash index, and every operation
//! visits a key's entry once: the verdict lives in the entry, not in a
//! second map beside it.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use ckpt_storage::digest64;
use parking_lot::Mutex;
use simos::types::SimResult;
use simos::Relink;

/// One replica's copy of one object. `digest` is computed over the *full*
/// payload at commit time; a torn write persists a prefix of `data` under
/// the full-payload digest, so the mismatch is detectable on every read.
/// The payload is shared (`Arc`), so handing a frame to a reader or keeping
/// one as a rollback snapshot never copies it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    pub version: u64,
    pub digest: u64,
    /// Deletion marker: tombstones win version ordering like any other
    /// frame, so a quorum delete cannot be resurrected by a stale copy.
    pub tombstone: bool,
    pub data: Arc<Vec<u8>>,
}

impl Frame {
    /// A frame is intact when its payload hashes to its recorded digest.
    pub fn intact(&self) -> bool {
        self.tombstone || digest64(&self.data) == self.digest
    }
}

/// Whether a replica will accept the next operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admission {
    Ok,
    /// One queued transient fault was consumed; retrying may succeed.
    Transient,
    /// The replica is fail-stopped; it refuses traffic until repaired.
    Down,
}

/// What a reachable replica holds under a key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Probe {
    Missing,
    /// Frame present but its digest does not match its payload (torn).
    Torn { version: u64 },
    /// Intact frame (tombstones included — the caller ranks by version).
    Valid(Frame),
}

/// A frame as a node holds it, with the verdict of its digest check once
/// a probe has run one. Tombstones are intact by construction; every
/// mutator that replaces or damages a frame resets the verdict.
#[derive(Clone)]
struct Held {
    frame: Frame,
    intact: Option<bool>,
}

impl Held {
    /// A frame just written, not yet probed.
    fn new(frame: Frame) -> Self {
        let intact = frame.tombstone.then_some(true);
        Held { frame, intact }
    }
}

/// The frame index's hasher: FxHash-style, a word of the key at a time,
/// with no random seed — nothing to draw per map, and the same table
/// layout in every run. The keys are this program's own object keys,
/// never outside input, so it needs no defence against crafted
/// collisions.
#[derive(Default, Clone, Copy)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        const K: u64 = 0xf135_7aea_2e62_a9c5;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let w = u64::from_le_bytes(w.try_into().expect("eight bytes"));
            self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(K);
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.0 = (self.0.rotate_left(5) ^ u64::from_le_bytes(w)).wrapping_mul(K);
        }
    }

    fn finish(&self) -> u64 {
        // The multiply leaves its entropy in the high bits; the table
        // indexes by the low ones.
        self.0.rotate_left(26)
    }
}

type FrameIndex = HashMap<String, Held, BuildHasherDefault<KeyHasher>>;

#[derive(Default, Clone)]
struct NodeState {
    frames: FrameIndex,
    /// How many full-payload digest computations this replica has done —
    /// the work a kept verdict saves (observable, so tests can pin
    /// repeated reads at zero extra digests).
    digests_computed: u64,
    /// Monotonic payload bytes this replica has accepted over its life —
    /// the interconnect traffic a commit actually costs, which is what
    /// dedup is supposed to shrink.
    bytes_ingested: u64,
    down: bool,
    /// Deterministic fault-rate knob: the next `k` admitted operations
    /// fail transiently, in order.
    pending_transients: u32,
}

/// One simulated remote replica node.
pub struct ReplicaNode {
    index: u32,
    state: Mutex<NodeState>,
}

impl ReplicaNode {
    fn new(index: u32) -> Self {
        ReplicaNode {
            index,
            state: Mutex::new(NodeState::default()),
        }
    }

    pub fn index(&self) -> u32 {
        self.index
    }

    /// The fork's copy of `node` (see [`ReplicaSet::fork`]). Payloads are
    /// immutable once written, so the copy shares their bytes and nothing
    /// else.
    fn fork(node: &Arc<ReplicaNode>, relink: &mut Relink) -> SimResult<Arc<ReplicaNode>> {
        relink.shared(node, |n, _| {
            Ok(Arc::new(ReplicaNode {
                index: n.index,
                state: Mutex::new(n.state.lock().clone()),
            }))
        })
    }

    pub fn is_down(&self) -> bool {
        self.state.lock().down
    }

    /// Fail-stop this replica: it refuses all traffic until repaired.
    /// Frames survive (the medium is stable) — only reachability is lost.
    pub fn fail(&self) {
        self.state.lock().down = true;
    }

    pub fn repair(&self) {
        self.state.lock().down = false;
    }

    /// Queue `k` deterministic transient failures for future admissions.
    pub fn inject_transients(&self, k: u32) {
        self.state.lock().pending_transients = k;
    }

    /// Admit (or refuse) one operation. Call this sequentially, in replica
    /// order, on the planning thread — it consumes queued transients, so
    /// admission order is part of the deterministic schedule.
    pub(crate) fn admit(&self) -> Admission {
        let mut s = self.state.lock();
        if s.down {
            Admission::Down
        } else if s.pending_transients > 0 {
            s.pending_transients -= 1;
            Admission::Transient
        } else {
            Admission::Ok
        }
    }

    /// Store an intact frame, digesting it here. Pure data copy —
    /// admission already happened. A committer that already holds the
    /// payload's digest uses [`ReplicaNode::put_frame`] instead.
    pub fn put(&self, key: &str, version: u64, data: &[u8]) {
        self.put_frame(key, version, data.to_vec(), digest64(data));
    }

    /// Ingest `data` as the frame under `key`, recorded under `digest` —
    /// the digest of the payload the committer *meant* to write. Nothing
    /// is hashed here: an intact write passes the payload's own digest, a
    /// torn one passes a prefix under the full payload's digest, which is
    /// exactly what the first probe then catches.
    pub fn put_frame(&self, key: &str, version: u64, data: Vec<u8>, digest: u64) {
        let mut s = self.state.lock();
        s.bytes_ingested += data.len() as u64;
        let frame = Frame {
            version,
            digest,
            tombstone: false,
            data: Arc::new(data),
        };
        s.frames.insert(key.to_string(), Held::new(frame));
    }

    /// Store a torn frame: the digest of the full payload over only its
    /// first `keep` bytes — exactly what a crash mid-write leaves behind.
    pub fn put_torn(&self, key: &str, version: u64, data: &[u8], keep: usize) {
        self.put_frame(key, version, data[..keep.min(data.len())].to_vec(), digest64(data));
    }

    /// Store a tombstone (quorum delete marker). Its digest is one its
    /// empty payload never matches (`digest64` of no bytes is 0), so a
    /// tombstone that loses its marker reads as torn, never as an empty
    /// object.
    pub fn put_tombstone(&self, key: &str, version: u64) {
        let frame = Frame {
            version,
            digest: !digest64(&[]),
            tombstone: true,
            data: Arc::default(),
        };
        self.state
            .lock()
            .frames
            .insert(key.to_string(), Held::new(frame));
    }

    /// Classify the frame under `key`. Pure read — admission is separate.
    ///
    /// The digest check's verdict is kept with the frame: the first probe
    /// of a frame pays the full-payload digest, repeated probes of the same
    /// committed frame are O(1). Every mutator resets the verdict, so a
    /// rewritten or corrupted frame is always re-checked.
    pub fn probe(&self, key: &str) -> Probe {
        let Some((frame, verdict)) = self.peek(key) else {
            return Probe::Missing;
        };
        // Digested outside the node lock.
        let intact = verdict.unwrap_or_else(|| {
            let intact = frame.intact();
            self.record_verdict(key, &frame, intact);
            intact
        });
        if intact {
            Probe::Valid(frame)
        } else {
            Probe::Torn {
                version: frame.version,
            }
        }
    }

    /// The frame under `key` and its digest verdict, if one was kept.
    fn peek(&self, key: &str) -> Option<(Frame, Option<bool>)> {
        let s = self.state.lock();
        let h = s.frames.get(key)?;
        Some((h.frame.clone(), h.intact))
    }

    /// Account one digest check of `frame` and keep its verdict — unless
    /// the node's frame changed while the check ran unlocked.
    fn record_verdict(&self, key: &str, frame: &Frame, intact: bool) {
        let mut s = self.state.lock();
        s.digests_computed += 1;
        if let Some(h) = s.frames.get_mut(key) {
            if Arc::ptr_eq(&h.frame.data, &frame.data) {
                h.intact = Some(intact);
            }
        }
    }

    /// Full-payload digest computations this replica has performed so far
    /// (the kept verdict in [`ReplicaNode::probe`] keeps this from scaling
    /// with the *read* count).
    pub fn digests_computed(&self) -> u64 {
        self.state.lock().digests_computed
    }

    /// Remove the frame under `key` outright (adversarial test hook —
    /// a real delete goes through tombstones).
    pub fn drop_key(&self, key: &str) {
        self.state.lock().frames.remove(key);
    }

    /// The raw frame under every key in `keys`, in order, under one lock
    /// — or `None` while the node is down. What a quorum commit reads
    /// before it writes: the versions it must climb above, and the
    /// snapshots a refused commit rolls back to instead of destroying the
    /// committed state. Pure read: no digest work, no counters, no
    /// payload copy.
    pub fn visible_frames<'k>(
        &self,
        keys: impl IntoIterator<Item = &'k str>,
    ) -> Option<Vec<Option<Frame>>> {
        let s = self.state.lock();
        if s.down {
            return None;
        }
        Some(
            keys.into_iter()
                .map(|k| s.frames.get(k).map(|h| h.frame.clone()))
                .collect(),
        )
    }

    /// Roll a failed quorum write back: if the frame under `key` is still
    /// at `version` (full or torn), remove it and reinstate `prior`, the
    /// frame this node held before the failed write fanned out.
    ///
    /// The dropped frame's bytes (full or torn prefix) come back out of
    /// `bytes_ingested`: the counter reports *committed* traffic, and a
    /// rolled-back write never committed. Without this, a torn frame from
    /// a failed quorum commit would inflate the C12/C16 traffic tables
    /// with attempted bytes. The reinstated payload is *not* re-counted:
    /// it was charged when the prior frame originally committed and never
    /// logically left the medium.
    pub(crate) fn rollback_to(&self, key: &str, version: u64, prior: Option<Frame>) {
        let mut s = self.state.lock();
        if s.uncommit(key, version) {
            if let Some(frame) = prior {
                s.frames.insert(key.to_string(), Held::new(frame));
            }
        }
    }

    /// Truncate the frame under `key` to half its payload, leaving the
    /// digest stale (adversarial torn-copy test hook).
    pub fn corrupt_key(&self, key: &str) {
        let mut s = self.state.lock();
        if let Some(h) = s.frames.get_mut(key) {
            h.intact = None;
            let f = &mut h.frame;
            let keep = f.data.len() / 2;
            Arc::make_mut(&mut f.data).truncate(keep);
            if f.tombstone {
                // A corrupted tombstone reads as a torn data frame.
                f.tombstone = false;
            }
        }
    }

    /// Keys of non-tombstone frames on this replica (reachability is the
    /// caller's concern — this is the raw medium contents), sorted.
    pub fn keys(&self) -> Vec<String> {
        let mut keys: Vec<String> = self
            .state
            .lock()
            .frames
            .iter()
            .filter(|(_, h)| !h.frame.tombstone)
            .map(|(k, _)| k.clone())
            .collect();
        keys.sort_unstable();
        keys
    }

    /// Payload bytes this replica has accepted for *committed* writes
    /// (torn writes count only what landed). Unlike [`used_bytes`], this
    /// is commit traffic, not occupancy: deletes and rewrites don't shrink
    /// it. The one thing that does is [`rollback_to`] — the rollback
    /// of a failed quorum commit retracts the attempt's bytes, so the
    /// counter reports what committed, not what was attempted.
    ///
    /// [`used_bytes`]: ReplicaNode::used_bytes
    /// [`rollback_to`]: ReplicaNode::rollback_to
    pub(crate) fn bytes_ingested(&self) -> u64 {
        self.state.lock().bytes_ingested
    }

    /// Payload bytes held (tombstones are empty).
    pub fn used_bytes(&self) -> u64 {
        self.state
            .lock()
            .frames
            .values()
            .map(|h| h.frame.data.len() as u64)
            .sum()
    }
}

impl NodeState {
    /// Remove the frame under `key` if it is at `version`, retracting its
    /// bytes from `bytes_ingested`; whether it did.
    fn uncommit(&mut self, key: &str, version: u64) -> bool {
        if self
            .frames
            .get(key)
            .is_none_or(|h| h.frame.version != version)
        {
            return false;
        }
        let h = self.frames.remove(key).expect("the frame was just found");
        self.bytes_ingested = self
            .bytes_ingested
            .saturating_sub(h.frame.data.len() as u64);
        true
    }
}

/// The shared N-node replica group.
pub struct ReplicaSet {
    nodes: Vec<Arc<ReplicaNode>>,
}

impl ReplicaSet {
    pub fn new(n: usize) -> Arc<Self> {
        assert!(n >= 1, "a replica set needs at least one node");
        Arc::new(ReplicaSet {
            nodes: (0..n as u32).map(|i| Arc::new(ReplicaNode::new(i))).collect(),
        })
    }

    /// The fork's copy of `set`: every client of one set in the original
    /// reaches one copy of it, node for node, in the fork.
    pub(crate) fn fork(set: &Arc<ReplicaSet>, relink: &mut Relink) -> SimResult<Arc<ReplicaSet>> {
        relink.shared(set, |s, relink| {
            let nodes = s
                .nodes
                .iter()
                .map(|n| ReplicaNode::fork(n, relink))
                .collect::<SimResult<_>>()?;
            Ok(Arc::new(ReplicaSet { nodes }))
        })
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `len`'s pair (a public `len` wants an `is_empty`).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    pub fn node(&self, i: usize) -> &Arc<ReplicaNode> {
        &self.nodes[i]
    }

    pub fn nodes(&self) -> &[Arc<ReplicaNode>] {
        &self.nodes
    }

    /// [`ReplicaNode::probe`] of the nodes at `indices`, in that order.
    pub fn probe_batch(&self, indices: &[usize], key: &str) -> Vec<Probe> {
        indices.iter().map(|&i| self.nodes[i].probe(key)).collect()
    }

    /// The nodes currently reachable, in node order.
    pub fn up(&self) -> impl Iterator<Item = &ReplicaNode> {
        self.nodes.iter().map(|n| &**n).filter(|n| !n.is_down())
    }

    /// Total commit traffic the whole group has accepted (sum of every
    /// node's `ReplicaNode::bytes_ingested`).
    pub fn bytes_ingested(&self) -> u64 {
        self.nodes.iter().map(|n| n.bytes_ingested()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn torn_frames_fail_the_digest() {
        let set = ReplicaSet::new(3);
        let n = set.node(0);
        n.put("k", 1, b"hello world");
        assert!(matches!(n.probe("k"), Probe::Valid(_)));
        n.put_torn("k", 2, b"hello world", 5);
        assert_eq!(n.probe("k"), Probe::Torn { version: 2 });
    }

    #[test]
    fn failed_nodes_refuse_admission_but_keep_frames() {
        let set = ReplicaSet::new(3);
        let n = set.node(1);
        n.put("k", 1, b"data");
        n.fail();
        assert_eq!(n.admit(), Admission::Down);
        n.repair();
        assert_eq!(n.admit(), Admission::Ok);
        // The original frame survived the outage untouched.
        match n.probe("k") {
            Probe::Valid(f) => assert_eq!((f.version, f.data.as_slice()), (1, &b"data"[..])),
            other => panic!("expected the v1 frame back, got {other:?}"),
        }
    }

    #[test]
    fn repeated_probes_do_not_redigest() {
        let set = ReplicaSet::new(1);
        let n = set.node(0);
        n.put("k", 1, &vec![7u8; 64 * 1024]);
        assert!(matches!(n.probe("k"), Probe::Valid(_)));
        assert_eq!(n.digests_computed(), 1);
        for _ in 0..16 {
            assert!(matches!(n.probe("k"), Probe::Valid(_)));
        }
        assert_eq!(n.digests_computed(), 1, "repeated reads must hit the memo");
        // A rewrite invalidates the memo...
        n.put("k", 2, b"new");
        assert!(matches!(n.probe("k"), Probe::Valid(_)));
        assert_eq!(n.digests_computed(), 2);
        // ...and so does in-place corruption at an unchanged version.
        n.corrupt_key("k");
        assert_eq!(n.probe("k"), Probe::Torn { version: 2 });
        assert_eq!(n.digests_computed(), 3);
        // Tombstones are trivially intact: no digest work at all.
        n.put_tombstone("k", 3);
        assert!(matches!(n.probe("k"), Probe::Valid(f) if f.tombstone));
        assert_eq!(n.digests_computed(), 3);
    }

    #[test]
    fn rollback_retracts_ingested_bytes_including_torn_prefixes() {
        let set = ReplicaSet::new(2);
        let a = set.node(0);
        let b = set.node(1);
        // A full frame on one node, a torn prefix on the other — the shape
        // a crashed quorum write leaves behind.
        a.put("k", 5, &[1u8; 100]);
        b.put_torn("k", 5, &[1u8; 100], 40);
        assert_eq!(set.bytes_ingested(), 140);
        // The failed commit rolls both back: attempted bytes come out.
        a.rollback_to("k", 5, None);
        b.rollback_to("k", 5, None);
        assert_eq!(set.bytes_ingested(), 0, "rolled-back bytes must not count as traffic");
        // A later committed write at a different version is untouched by a
        // stale rollback.
        a.put("k", 6, &[2u8; 30]);
        a.rollback_to("k", 5, None);
        assert_eq!(a.bytes_ingested(), 30);
    }

    #[test]
    fn injected_transients_are_consumed_in_admission_order() {
        let set = ReplicaSet::new(1);
        let n = set.node(0);
        n.inject_transients(2);
        assert_eq!(n.admit(), Admission::Transient);
        assert_eq!(n.admit(), Admission::Transient);
        assert_eq!(n.admit(), Admission::Ok);
    }
}
