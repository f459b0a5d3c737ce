//! The quorum-commit core both storage tiers stand on.
//!
//! A [`QuorumClient`] is one client's view of a shared [`ReplicaSet`]:
//! the write quorum, the retry schedule, the fault and trace handles, the
//! pool, the client's own reachability and the manifests of what it
//! committed. It knows nothing about *what* a node stores — the
//! replicated tier hands it one full payload per node, the erasure tier
//! one shard frame per node — only how bytes get onto `w` of `n` nodes or
//! onto none of them:
//!
//! 1. **versions** — each key's next version, read before any byte moves;
//! 2. **admission** ([`QuorumClient::admit_all`]) — reachability, queued
//!    transients and the `{prefix}/{tag}<i>/{op}` faultpoint, sequentially
//!    in node order on the calling thread, retrying transients on the
//!    jittered backoff schedule;
//! 3. **snapshots** — the frame every writing node holds under every key
//!    of the commit, before it is replaced;
//! 4. **fan-out** — the caller's frames land on their nodes: owned
//!    frames move in, borrowed payloads are copied on the pool, one work
//!    item per node (each node has its own lock); a torn node keeps only
//!    the prefix the [`WireFrame`] says reached its medium;
//! 5. **count** — fewer than `w` intact frames and *every node that took
//!    bytes* — acknowledged or torn — is rolled back to its snapshot, its
//!    ingested bytes retracted, and the commit refused with the typed
//!    [`StorageError::QuorumLost`]: a refused overwrite never destroys the
//!    committed value it failed to replace;
//! 6. **manifests + receipt** otherwise.
//!
//! Everything that must be deterministic (steps 1–3, 5–6) runs on the
//! calling thread; only the pure byte copies of step 4 run on the pool, so
//! commits, manifests, costs and counters are identical at every width.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ckpt_par::Pool;
use ckpt_storage::{fnv1a64, BatchReceipt, CodingGeometry, ReplicaManifest, StorageError};
use simos::cost::CostModel;
use simos::faultpoint::{Fault, FaultHandle};
use simos::trace::TraceHandle;
use simos::types::SimResult;
use simos::Relink;

use crate::backoff::{Backoff, BackoffPolicy};
use crate::node::{Admission, Frame, ReplicaSet};

/// Counters every quorum client keeps, whatever it stores.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QuorumStats {
    /// Objects committed at write quorum.
    pub commits: u64,
    /// Per-node transient faults absorbed by backoff-retry.
    pub retries: u64,
    /// Operations refused with [`StorageError::QuorumLost`].
    pub quorum_losses: u64,
    /// Acknowledgement round-trips: one per commit (single object or whole
    /// framed batch) and one per delete.
    pub ack_cycles: u64,
}

#[derive(Default)]
struct StatCells {
    commits: AtomicU64,
    retries: AtomicU64,
    quorum_losses: AtomicU64,
    ack_cycles: AtomicU64,
}

impl StatCells {
    fn copy(&self) -> StatCells {
        let at = |c: &AtomicU64| AtomicU64::new(c.load(Ordering::Relaxed));
        StatCells {
            commits: at(&self.commits),
            retries: at(&self.retries),
            quorum_losses: at(&self.quorum_losses),
            ack_cycles: at(&self.ack_cycles),
        }
    }
}

/// Per-node write decision, resolved sequentially before the pool moves
/// any byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WriteCmd {
    /// Full intact frame; counts toward the quorum.
    Full,
    /// Crash mid-write: the first `keep` wire bytes persist, then the node
    /// is down. Does not count toward quorum.
    Torn { keep: u64 },
    /// Node unreachable (or retries exhausted); nothing written.
    Skip,
}

impl WriteCmd {
    /// How many of a `len`-byte wire frame's bytes reach the medium, if
    /// any.
    fn kept(self, len: u64) -> Option<u64> {
        match self {
            WriteCmd::Full => Some(len),
            WriteCmd::Torn { keep } => Some(keep.min(len)),
            WriteCmd::Skip => None,
        }
    }
}

/// One sequential admission pass over every node of the set.
pub struct Admissions {
    cmds: Vec<WriteCmd>,
    /// Virtual time spent backing off across all nodes.
    pub backoff_ns: u64,
}

impl Admissions {
    /// The nodes that admitted the operation intact, in node order.
    pub fn admitted(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.cmds.len()).filter(|&i| self.cmds[i] == WriteCmd::Full)
    }
}

/// One object of a commit, as the manifest and the receipt describe it:
/// the *logical* payload's length and digest, whatever bytes each node
/// actually holds for it.
pub struct CommitObject<'a> {
    pub key: &'a str,
    pub bytes: u64,
    pub digest: u64,
}

/// The frame one commit sends to every node: its faultpoint op, its
/// admission identity, its length, and where each object's per-node bytes
/// sit in it — which is what decides what a torn write leaves behind.
pub struct WireFrame {
    op: &'static str,
    id: String,
    len: u64,
    /// Per object: the frame length from which the object exists on the
    /// medium at all, then its payload's byte range.
    records: Vec<(u64, u64, u64)>,
}

impl WireFrame {
    /// A single object sent bare under its own key: site op `store`, the
    /// un-framed payload length, and a tear anywhere leaves a prefix.
    pub fn bare(key: &str, len: u64) -> Self {
        WireFrame {
            op: "store",
            id: key.to_string(),
            len,
            records: vec![(0, 0, len)],
        }
    }

    /// The framed batch: a 16-byte frame header, then per object a 20-byte
    /// record header, the key, and `payload_len` bytes. Site op `batch`. A
    /// tear below an object's record leaves nothing of it on the medium;
    /// one inside its payload leaves a prefix under the full digest.
    pub fn framed<'a>(objects: impl IntoIterator<Item = (&'a str, u64)>) -> Self {
        const FRAME_HEADER: u64 = 16;
        const RECORD_HEADER: u64 = 20;
        let mut id = String::new();
        let mut records = Vec::new();
        let mut off = FRAME_HEADER;
        for (key, payload_len) in objects {
            if records.is_empty() {
                id = key.to_string();
            }
            let start = off + RECORD_HEADER + key.len() as u64;
            records.push((off + 1, start, start + payload_len));
            off = start + payload_len;
        }
        WireFrame {
            op: "batch",
            id: format!("batch/{id}+{}", records.len()),
            len: off,
            records,
        }
    }
}

/// One client handle's quorum machinery over a shared [`ReplicaSet`]. See
/// the module docs.
pub struct QuorumClient {
    set: Arc<ReplicaSet>,
    w: usize,
    faults: FaultHandle,
    trace: TraceHandle,
    /// The `simos::trace` counters this tier's `(commits, retries,
    /// quorum_losses)` deltas are counted under.
    counters: [&'static str; 3],
    pool: Arc<Pool>,
    /// This *client's* reachability (its node may fail-stop); node
    /// availability lives in the shared set.
    client_up: bool,
    /// Faultpoint sites render as `{site_prefix}/{node_tag}<i>/{op}`.
    site_prefix: String,
    node_tag: char,
    /// Stamped into every manifest (`None` on the full-copy tier).
    coding: Option<CodingGeometry>,
    manifests: BTreeMap<String, ReplicaManifest>,
    /// What the most recent commit replaced — what
    /// [`QuorumClient::retract_commit`] reinstates.
    undo: LastCommit,
    stats: StatCells,
}

#[derive(Default, Clone)]
struct LastCommit {
    /// Per object, in commit order: its key and the manifest it replaced.
    keys: Vec<(String, Option<ReplicaManifest>)>,
    /// Per writing node: the frame it held under each of those keys.
    priors: Vec<(usize, Vec<Option<Frame>>)>,
}

/// One node's pool work item in a commit: `(node, [(object, bytes to
/// copy, digest)])`.
type NodeCopies<'a> = (usize, Vec<(usize, &'a [u8], u64)>);

impl QuorumClient {
    /// A client of `set` committing at write quorum `w`. Fault injection
    /// defaults to off, tracing to the no-op sink, the pool to the global
    /// one; transients are retried on the one [`BackoffPolicy::default`]
    /// schedule.
    pub fn new(
        set: Arc<ReplicaSet>,
        w: usize,
        site_prefix: &str,
        node_tag: char,
        coding: Option<CodingGeometry>,
        counters: [&'static str; 3],
    ) -> Self {
        assert!(
            w <= set.len(),
            "write quorum {w} exceeds the {} nodes",
            set.len()
        );
        QuorumClient {
            set,
            w,
            faults: FaultHandle::disabled(),
            trace: TraceHandle::disabled(),
            counters,
            pool: ckpt_par::global().clone(),
            client_up: true,
            site_prefix: site_prefix.to_string(),
            node_tag,
            coding,
            manifests: BTreeMap::new(),
            undo: LastCommit::default(),
            stats: StatCells::default(),
        }
    }

    /// This client in a fork of its world: its set re-pointed through
    /// `relink` and consulting [`Relink::faults`], its manifests, undo
    /// record and counters carried over. Trace sink and pool are shared.
    pub fn fork(&self, relink: &mut Relink) -> SimResult<QuorumClient> {
        Ok(QuorumClient {
            set: ReplicaSet::fork(&self.set, relink)?,
            w: self.w,
            faults: relink.faults().clone(),
            trace: self.trace.clone(),
            counters: self.counters,
            pool: self.pool.clone(),
            client_up: self.client_up,
            site_prefix: self.site_prefix.clone(),
            node_tag: self.node_tag,
            coding: self.coding,
            manifests: self.manifests.clone(),
            undo: self.undo.clone(),
            stats: self.stats.copy(),
        })
    }

    pub fn set_faults(&mut self, faults: FaultHandle) {
        self.faults = faults;
    }

    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    pub fn set_pool(&mut self, pool: Arc<Pool>) {
        self.pool = pool;
    }

    pub fn set_site_prefix(&mut self, prefix: String) {
        self.site_prefix = prefix;
    }

    /// The client's node fail-stopped (`false`) or came back (`true`).
    pub fn set_client_up(&mut self, up: bool) {
        self.client_up = up;
    }

    pub fn set(&self) -> &Arc<ReplicaSet> {
        &self.set
    }

    pub fn write_quorum(&self) -> usize {
        self.w
    }

    pub fn trace(&self) -> &TraceHandle {
        &self.trace
    }

    pub fn pool(&self) -> &Arc<Pool> {
        &self.pool
    }

    pub fn stats(&self) -> QuorumStats {
        QuorumStats {
            commits: self.stats.commits.load(Ordering::Relaxed),
            retries: self.stats.retries.load(Ordering::Relaxed),
            quorum_losses: self.stats.quorum_losses.load(Ordering::Relaxed),
            ack_cycles: self.stats.ack_cycles.load(Ordering::Relaxed),
        }
    }

    /// Account `(commits, retries, quorum_losses)` deltas: the counters,
    /// and the tier's labelled trace counters. The read paths report their
    /// typed refusals through this too.
    pub fn record(&self, commits: u64, retries: u64, quorum_losses: u64) {
        self.stats.commits.fetch_add(commits, Ordering::Relaxed);
        self.stats.retries.fetch_add(retries, Ordering::Relaxed);
        self.stats
            .quorum_losses
            .fetch_add(quorum_losses, Ordering::Relaxed);
        for (name, n) in self.counters.into_iter().zip([commits, retries, quorum_losses]) {
            self.trace.count(name, n);
        }
    }

    /// `Unavailable` while the client's own node is down.
    pub fn ensure_up(&self) -> Result<(), StorageError> {
        if self.client_up {
            Ok(())
        } else {
            Err(StorageError::Unavailable)
        }
    }

    /// Modelled wire time for `len` bytes.
    pub fn xfer_ns(len: u64, cost: &CostModel) -> u64 {
        (len as f64 * cost.net_ns_per_byte).round() as u64
    }

    /// Resolve one node's admission + fault check into a decision,
    /// retrying transients on the jittered schedule. Returns the decision,
    /// retries consumed, and backoff virtual-ns accumulated.
    fn admit(&self, i: usize, op: &str, id: &str, bytes: u64) -> (WriteCmd, u64, u64) {
        let node = self.set.node(i);
        let site = format!("{}/{}{i}/{op}", self.site_prefix, self.node_tag);
        let salt = fnv1a64(id.as_bytes()) ^ (i as u64);
        let mut backoff = Backoff::new(BackoffPolicy::default(), salt);
        let mut retries = 0u64;
        let mut delay_ns = 0u64;
        loop {
            let fault = match node.admit() {
                Admission::Down => return (WriteCmd::Skip, retries, delay_ns),
                Admission::Transient => Some(Fault::Transient),
                Admission::Ok => self.faults.check(&site, bytes),
            };
            match fault {
                None => return (WriteCmd::Full, retries, delay_ns),
                Some(Fault::Transient) => match backoff.next_delay_ns() {
                    Ok(d) => {
                        retries += 1;
                        delay_ns += d;
                    }
                    Err(_) => return (WriteCmd::Skip, retries, delay_ns),
                },
                Some(Fault::TornWrite { keep_bytes }) if op != "load" => {
                    // The node dies mid-write; the frame prefix is already
                    // on its medium.
                    node.fail();
                    return (WriteCmd::Torn { keep: keep_bytes }, retries, delay_ns);
                }
                Some(_) => {
                    // Fail-stop (and torn-on-read, which has no byte
                    // stream to tear): the node dies.
                    node.fail();
                    return (WriteCmd::Skip, retries, delay_ns);
                }
            }
        }
    }

    /// Admit operation `op` (identity `id`, `bytes` on the wire) on every
    /// node, sequentially in node order — the deterministic schedule every
    /// load and every commit shares. Retries are accounted here.
    pub fn admit_all(&self, op: &str, id: &str, bytes: u64) -> Admissions {
        let mut total_retries = 0u64;
        let mut backoff_ns = 0u64;
        let cmds = (0..self.set.len())
            .map(|i| {
                let (cmd, retries, delay_ns) = self.admit(i, op, id, bytes);
                total_retries += retries;
                backoff_ns += delay_ns;
                cmd
            })
            .collect();
        self.record(0, total_retries, 0);
        Admissions { cmds, backoff_ns }
    }

    /// Commit `objects` as one `wire` frame per node: all of them at write
    /// quorum, or none of them anywhere. `frame_for(object, node)` yields
    /// the bytes (and their digest) that node stores for that object —
    /// borrowed bytes are copied on the pool, owned ones move; it is asked
    /// only for what actually reaches a medium, at most once per pair.
    pub fn commit<'a>(
        &mut self,
        objects: &[CommitObject<'_>],
        wire: &WireFrame,
        mut frame_for: impl FnMut(usize, usize) -> (Cow<'a, [u8]>, u64),
        cost: &CostModel,
    ) -> Result<BatchReceipt, StorageError> {
        self.ensure_up()?;
        if objects.is_empty() {
            return Ok(BatchReceipt {
                objects: 0,
                bytes: 0,
                time_ns: 0,
                ack_cycles: 0,
            });
        }
        assert_eq!(
            objects.len(),
            wire.records.len(),
            "one wire record per object"
        );

        // Per-object commit versions, read before any byte moves so the
        // commit advances each key once or not at all.
        let versions: Vec<u64> = objects
            .iter()
            .map(|o| self.set.max_version(o.key) + 1)
            .collect();

        // ONE admission + fault-check + retry/backoff cycle per node for
        // the whole frame, however many objects ride in it.
        let adm = self.admit_all(wire.op, &wire.id, wire.len);

        // Pre-write snapshots: `put_frame` replaces a node's frame in
        // place, so a failed quorum needs the prior frames to roll back to
        // the committed state instead of leaving the node empty or torn.
        // Then each writing node's share of the frame: object `j` exists
        // on the medium once `lands` bytes arrived, and keeps whatever of
        // its payload lies below the tear. Owned frames move into their
        // node right here; borrowed ones are copied on the pool below.
        let mut writers: Vec<(usize, Vec<Option<Frame>>)> = Vec::new();
        let mut copies: Vec<NodeCopies<'a>> = Vec::new();
        let mut wire_ns = 0u64;
        for (i, cmd) in adm.cmds.iter().enumerate() {
            let Some(keep) = cmd.kept(wire.len) else {
                continue;
            };
            wire_ns += Self::xfer_ns(keep, cost);
            let node = self.set.node(i);
            writers.push((
                i,
                objects.iter().map(|o| node.snapshot_frame(o.key)).collect(),
            ));
            let mut node_copies = Vec::new();
            for (j, &(lands, start, end)) in wire.records.iter().enumerate() {
                if keep < lands {
                    continue;
                }
                let kept = keep.min(end).saturating_sub(start) as usize;
                match frame_for(j, i) {
                    (Cow::Borrowed(bytes), digest) => node_copies.push((j, &bytes[..kept], digest)),
                    (Cow::Owned(mut bytes), digest) => {
                        bytes.truncate(kept);
                        node.put_frame(objects[j].key, versions[j], bytes, digest);
                    }
                }
            }
            if !node_copies.is_empty() {
                copies.push((i, node_copies));
            }
        }
        // One work item per node (each has its own lock); merge order is
        // the submission order, so this is width-invariant by construction.
        // A small object's copies stay on the caller thread.
        let set = &self.set;
        let moved = copies
            .iter()
            .flat_map(|(_, node_copies)| node_copies)
            .map(|(_, bytes, _)| bytes.len())
            .sum();
        self.pool.for_bytes(moved).par_map_ordered(
            copies,
            || (),
            |_, _, (i, node_copies)| {
                for (j, bytes, digest) in node_copies {
                    set.node(i)
                        .put_frame(objects[j].key, versions[j], bytes.to_vec(), digest);
                }
            },
        );

        let acked: Vec<u32> = adm.admitted().map(|i| i as u32).collect();
        // One network round-trip for the whole frame.
        let time_ns = cost.net_latency_ns + wire_ns + adm.backoff_ns;
        self.stats.ack_cycles.fetch_add(1, Ordering::Relaxed);

        if acked.len() < self.w {
            // All-or-nothing: peel every object back off every node that
            // took bytes — torn prefixes included; their nodes are down,
            // but they come back — reinstating each node's pre-write
            // frames, so an unacknowledged version never wins a later read
            // and a refused overwrite leaves the committed value, and the
            // traffic counter, exactly where they were.
            for (i, priors) in writers {
                for ((o, &version), prior) in objects.iter().zip(&versions).zip(priors) {
                    self.set.node(i).rollback_to(o.key, version, prior);
                }
            }
            self.record(0, 0, 1);
            return Err(StorageError::QuorumLost {
                acked: acked.len() as u32,
                needed: self.w as u32,
            });
        }

        let mut keys = Vec::with_capacity(objects.len());
        for (o, &version) in objects.iter().zip(&versions) {
            let replaced = self.manifests.insert(
                o.key.to_string(),
                ReplicaManifest {
                    key: o.key.to_string(),
                    version,
                    digest: o.digest,
                    bytes: o.bytes,
                    acked: acked.clone(),
                    n: self.set.len() as u32,
                    w: self.w as u32,
                    coding: self.coding,
                },
            );
            keys.push((o.key.to_string(), replaced));
        }
        self.undo = LastCommit {
            keys,
            priors: writers,
        };
        self.record(objects.len() as u64, 0, 0);
        Ok(BatchReceipt {
            objects: objects.len() as u64,
            bytes: objects.iter().map(|o| o.bytes).sum(),
            time_ns,
            ack_cycles: 1,
        })
    }

    /// Quorum delete: a tombstone above every visible version on at least
    /// `w` nodes. Same admission/retry path as a write but no payload to
    /// tear, so no faultpoint site is consulted (the site list stays
    /// exactly the write/read surface).
    pub fn delete(&mut self, key: &str) -> Result<(), StorageError> {
        self.ensure_up()?;
        let version = self.set.max_version(key) + 1;
        let mut acked = 0usize;
        let mut retries = 0u64;
        for (i, node) in self.set.nodes().iter().enumerate() {
            let salt = fnv1a64(key.as_bytes()) ^ (i as u64) ^ 0xde1e;
            let mut backoff = Backoff::new(BackoffPolicy::default(), salt);
            loop {
                match node.admit() {
                    Admission::Down => break,
                    Admission::Transient => {
                        if backoff.next_delay_ns().is_err() {
                            break;
                        }
                        retries += 1;
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
        if acked < self.w {
            self.record(0, retries, 1);
            return Err(StorageError::QuorumLost {
                acked: acked as u32,
                needed: self.w as u32,
            });
        }
        self.manifests.remove(key);
        self.record(0, retries, 0);
        Ok(())
    }

    /// Optimistic union over reachable nodes: listing is advisory (each
    /// key's actual readability is decided by the quorum read), and must
    /// not silently hide keys whose copies are partially lost.
    pub fn list(&self) -> Vec<String> {
        if !self.client_up {
            return Vec::new();
        }
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

    pub fn available(&self) -> bool {
        self.client_up && self.set.reachable() >= self.w
    }

    /// The manifest of `key`'s last commit through this client.
    pub fn manifest(&self, key: &str) -> Option<ReplicaManifest> {
        self.manifests.get(key).cloned()
    }

    /// Undo `key`'s write in the most recent commit: every node still at
    /// that exact version goes back to the frame it held before (an
    /// unrelated newer commit is never clobbered), and so does the
    /// manifest. A striped pool uses this to make a multi-stripe batch
    /// all-or-nothing when a *later* stripe refuses quorum.
    pub fn retract_commit(&mut self, key: &str) {
        let Some(m) = self.manifests.remove(key) else {
            return;
        };
        let at = self.undo.keys.iter().position(|(k, _)| k == key);
        for (i, node) in self.set.nodes().iter().enumerate() {
            let wrote = self.undo.priors.iter_mut().find(|(n, _)| *n == i);
            let prior = at.zip(wrote).and_then(|(j, (_, frames))| frames[j].take());
            node.rollback_to(key, m.version, prior);
        }
        if let Some(replaced) = at.and_then(|j| self.undo.keys[j].1.take()) {
            self.manifests.insert(key.to_string(), replaced);
        }
    }
}
