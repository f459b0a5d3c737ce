//! The quorum-commit protocol of a [`QuorumStore`].
//!
//! It knows nothing about *what* a node stores — the store's [`Coding`]
//! hands it one full payload or one shard frame per node — only how bytes
//! get onto `w` of `n` nodes or onto none of them:
//!
//! 1. **versions and snapshots** — what every reachable node holds under
//!    each key of the commit, read once before any byte moves: the key's
//!    next version, and the frame a refused commit rolls back to;
//! 2. **admission** ([`QuorumStore::admit_all`]) — reachability, queued
//!    transients and the `{prefix}/{tag}<i>/{op}` faultpoint, sequentially
//!    in node order on the calling thread, retrying transients on the
//!    jittered backoff schedule;
//! 3. **fan-out** — the caller's frames land on their nodes: owned
//!    frames move in, borrowed payloads are copied on the pool, one work
//!    item per node (each node has its own lock); a torn node keeps only
//!    the prefix the [`WireFrame`] says reached its medium;
//! 4. **count** — fewer than `w` intact frames and *every node that took
//!    bytes* — acknowledged or torn — is rolled back to its snapshot, its
//!    ingested bytes retracted, and the commit refused with the typed
//!    [`StorageError::QuorumLost`]: a refused overwrite never destroys the
//!    committed value it failed to replace;
//! 5. **manifests + receipt** otherwise.
//!
//! Everything that must be deterministic (steps 1–2, 4–5) runs on the
//! calling thread; only the pure byte copies of step 3 run on the pool, so
//! commits, manifests, costs and counters are identical at every width.

use std::borrow::Cow;

use ckpt_storage::{fnv1a64, BatchReceipt, ReplicaManifest, StorageError};
use simos::cost::CostModel;
use simos::faultpoint::Fault;

use crate::backoff::{Backoff, BackoffPolicy};
use crate::node::{Admission, Frame};
use crate::store::{Coding, QuorumStore};

/// Plain counters mirroring the `simos::trace` counters a quorum store
/// emits (its coding's [`Counters`](crate::Counters)), readable without
/// a recording trace handle.
///
/// ckptbench reads `commits`, `retries`, `repairs`, `decodes`,
/// `shard_losses`, `quorum_losses` and `ack_cycles`
/// (`benchmark/src/single.rs`).
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
    /// Frames reads rebuilt in place on lagging nodes.
    pub repairs: u64,
    /// Reads that decoded missing data.
    pub decodes: u64,
    /// Reads refused with [`StorageError::TooManyShardsLost`].
    pub shard_losses: u64,
    /// Object digests computed on the commit path: one per object a
    /// commit attempts without the caller's digest, however many nodes
    /// ingest it.
    pub payload_digests: u64,
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
pub(crate) struct Admissions {
    cmds: Vec<WriteCmd>,
    /// Virtual time spent backing off across all nodes.
    pub(crate) backoff_ns: u64,
}

impl Admissions {
    /// The nodes that admitted the operation intact, in node order.
    pub(crate) fn admitted(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.cmds.len()).filter(|&i| self.cmds[i] == WriteCmd::Full)
    }
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
    pub(crate) fn bare(key: &str, len: u64) -> Self {
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

/// What the most recent commit replaced — what
/// [`QuorumStore::retract_commit`] reinstates.
#[derive(Default, Clone)]
pub(crate) struct LastCommit {
    /// Per object, in commit order: its key and the manifest it replaced.
    keys: Vec<(String, Option<ReplicaManifest>)>,
    /// Per writing node: the frame it held under each of those keys.
    priors: Vec<(usize, Vec<Option<Frame>>)>,
}

/// One node's pool work item in a commit: `(node, [(object, bytes to
/// copy, digest)])`.
type NodeCopies<'a> = (usize, Vec<(usize, &'a [u8], u64)>);

impl<C: Coding> QuorumStore<C> {
    /// Account `(commits, retries, quorum_losses)` deltas: the counters,
    /// and their trace counters.
    fn record(&self, commits: u64, retries: u64, quorum_losses: u64) {
        {
            let mut s = self.stats.lock();
            s.commits += commits;
            s.retries += retries;
            s.quorum_losses += quorum_losses;
        }
        let c = &C::COUNTERS;
        self.trace.count(c.commits, commits);
        self.trace.count(c.retries, retries);
        self.trace.count(c.quorum_losses, quorum_losses);
    }

    /// Account the end of a read: the frames it repaired, and whether it
    /// decoded.
    pub(crate) fn read_done(&self, repairs: u64, decoded: bool) {
        {
            let mut s = self.stats.lock();
            s.repairs += repairs;
            s.decodes += u64::from(decoded);
        }
        self.trace.count(C::COUNTERS.repairs, repairs);
        self.trace.count(C::COUNTERS.decodes, u64::from(decoded));
    }

    /// Account a read's typed refusal, and hand it back: a
    /// [`StorageError::QuorumLost`] is a quorum loss, any other a shard
    /// loss.
    pub(crate) fn refused(&self, refusal: StorageError) -> StorageError {
        if matches!(refusal, StorageError::QuorumLost { .. }) {
            self.record(0, 0, 1);
        } else {
            self.stats.lock().shard_losses += 1;
            self.trace.count(C::COUNTERS.shard_losses, 1);
        }
        refusal
    }

    /// `Unavailable` while the client's own node is down.
    pub(crate) fn ensure_up(&self) -> Result<(), StorageError> {
        if self.client_up {
            Ok(())
        } else {
            Err(StorageError::Unavailable)
        }
    }

    /// [`ReplicaNode::visible_frames`](crate::node::ReplicaNode::visible_frames)
    /// of every node, in node order (`None` for a node that is down).
    fn visible_frames<'k>(
        &self,
        keys: impl IntoIterator<Item = &'k str> + Clone,
    ) -> Vec<Option<Vec<Option<Frame>>>> {
        let nodes = self.set.nodes().iter();
        nodes.map(|n| n.visible_frames(keys.clone())).collect()
    }

    /// Resolve one node's admission + fault check at its `op` site (none
    /// without an `op`) into a decision, retrying transients on the
    /// jittered schedule salted `salt`. Returns the decision, retries
    /// consumed, and backoff virtual-ns accumulated.
    fn admit(&self, i: usize, op: Option<&str>, salt: u64, bytes: u64) -> (WriteCmd, u64, u64) {
        let node = self.set.node(i);
        let site = op.map(|op| format!("{}/{}{i}/{op}", self.site_prefix, C::SITES.1));
        let mut backoff = Backoff::new(BackoffPolicy::default(), salt);
        let mut retries = 0u64;
        let mut delay_ns = 0u64;
        loop {
            let fault = match node.admit() {
                Admission::Down => return (WriteCmd::Skip, retries, delay_ns),
                Admission::Transient => Some(Fault::Transient),
                Admission::Ok => site.as_ref().and_then(|site| self.faults.check(site, bytes)),
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
                Some(Fault::TornWrite { keep_bytes }) if op != Some("load") => {
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

    /// Admit operation `op` (`bytes` on the wire) on every node,
    /// sequentially in node order — the deterministic schedule every load,
    /// commit and delete shares — under the backoff salt `salt ^ i` at
    /// node `i`; a commit or load salts with its identity's `fnv1a64`.
    /// Retries are accounted here.
    pub(crate) fn admit_all(&self, op: Option<&str>, salt: u64, bytes: u64) -> Admissions {
        let mut total_retries = 0u64;
        let mut backoff_ns = 0u64;
        let cmds = (0..self.set.len())
            .map(|i| {
                let (cmd, retries, delay_ns) = self.admit(i, op, salt ^ i as u64, bytes);
                total_retries += retries;
                backoff_ns += delay_ns;
                cmd
            })
            .collect();
        self.record(0, total_retries, 0);
        Admissions { cmds, backoff_ns }
    }

    /// Commit `objects` as one `wire` frame per node: all of them at write
    /// quorum, or none of them anywhere. The manifests and the receipt
    /// describe each *logical* payload — its length, and its digest
    /// (`digests` when the caller holds them) — whatever bytes each node
    /// actually holds for it: the frame the coding gives that node, which
    /// it is asked for only when it actually reaches a medium. Borrowed
    /// frames are copied on the pool, owned ones move.
    pub(crate) fn commit<'a>(
        &mut self,
        objects: &'a [(&'a str, &'a [u8])],
        digests: Option<&'a [u64]>,
        wire: &WireFrame,
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
        if digests.is_none() {
            self.stats.lock().payload_digests += objects.len() as u64;
        }
        let (digests, mut frame) = self.coding.code(objects, digests, &self.pool);

        // What every reachable node holds under the commit's keys, read
        // once before any byte moves: each key's commit version, above
        // every visible one (torn frames and tombstones included), so the
        // commit advances each key once or not at all — and the
        // pre-write snapshots. `put_frame` replaces a node's frame in
        // place, so a failed quorum needs the prior frames to roll back
        // to the committed state instead of leaving the node empty or
        // torn.
        let mut held = self.visible_frames(objects.iter().map(|o| o.0));
        let versions: Vec<u64> = (0..objects.len()).map(|j| next_version(&held, j)).collect();

        // ONE admission + fault-check + retry/backoff cycle per node for
        // the whole frame, however many objects ride in it.
        let adm = self.admit_all(Some(wire.op), fnv1a64(wire.id.as_bytes()), wire.len);

        // Each writing node's share of the frame: object `j` exists on the
        // medium once `lands` bytes arrived, and keeps whatever of its
        // payload lies below the tear. Owned frames move into their node
        // right here; borrowed ones are copied on the pool below.
        let mut writers: Vec<(usize, Vec<Option<Frame>>)> = Vec::new();
        let mut copies: Vec<NodeCopies<'a>> = Vec::new();
        let mut wire_ns = 0u64;
        for (i, cmd) in adm.cmds.iter().enumerate() {
            let Some(keep) = cmd.kept(wire.len) else {
                continue;
            };
            wire_ns += xfer_ns(keep, cost);
            let node = self.set.node(i);
            let prior = held[i]
                .take()
                .expect("a node that admitted the write was up when its frames were read");
            writers.push((i, prior));
            let mut node_copies = Vec::new();
            for (j, &(lands, start, end)) in wire.records.iter().enumerate() {
                if keep < lands {
                    continue;
                }
                let kept = keep.min(end).saturating_sub(start) as usize;
                match frame(j, i, digests[j]) {
                    (Cow::Borrowed(bytes), digest) => node_copies.push((j, &bytes[..kept], digest)),
                    (Cow::Owned(mut bytes), digest) => {
                        bytes.truncate(kept);
                        node.put_frame(objects[j].0, versions[j], bytes, digest);
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
                        .put_frame(objects[j].0, versions[j], bytes.to_vec(), digest);
                }
            },
        );

        let acked: Vec<u32> = adm.admitted().map(|i| i as u32).collect();
        // One network round-trip for the whole frame.
        let time_ns = cost.net_latency_ns + wire_ns + adm.backoff_ns;
        self.stats.lock().ack_cycles += 1;

        if acked.len() < self.w {
            // All-or-nothing: peel every object back off every node that
            // took bytes — torn prefixes included; their nodes are down,
            // but they come back — reinstating each node's pre-write
            // frames, so an unacknowledged version never wins a later read
            // and a refused overwrite leaves the committed value, and the
            // traffic counter, exactly where they were.
            for (i, priors) in writers {
                for ((o, &version), prior) in objects.iter().zip(&versions).zip(priors) {
                    self.set.node(i).rollback_to(o.0, version, prior);
                }
            }
            self.record(0, 0, 1);
            return Err(StorageError::QuorumLost {
                acked: acked.len() as u32,
                needed: self.w as u32,
            });
        }

        let mut keys = Vec::with_capacity(objects.len());
        for ((&(key, payload), &version), &digest) in objects.iter().zip(&versions).zip(&*digests) {
            let replaced = self.manifests.insert(
                key.to_string(),
                ReplicaManifest {
                    key: key.to_string(),
                    version,
                    digest,
                    bytes: payload.len() as u64,
                    acked: acked.clone(),
                    n: self.set.len() as u32,
                    w: self.w as u32,
                    coding: self.geometry,
                },
            );
            keys.push((key.to_string(), replaced));
        }
        self.undo = LastCommit {
            keys,
            priors: writers,
        };
        self.record(objects.len() as u64, 0, 0);
        Ok(BatchReceipt {
            objects: objects.len() as u64,
            bytes: objects.iter().map(|o| o.1.len() as u64).sum(),
            time_ns,
            ack_cycles: 1,
        })
    }

    /// Quorum delete: a tombstone above every visible version on at least
    /// `w` nodes. Same admission/retry path as a write but no payload to
    /// tear, so no faultpoint site is consulted (the site list stays
    /// exactly the write/read surface). Like a refused write, a refused
    /// delete takes its tombstones back off the nodes it reached: left
    /// there, one could outrank a write that commits while its node is
    /// down, and delete committed data on its return.
    pub(crate) fn commit_tombstone(&mut self, key: &str) -> Result<(), StorageError> {
        self.ensure_up()?;
        let held = self.visible_frames([key]);
        let version = next_version(&held, 0);
        // Its own backoff salt; a delete charges no virtual time.
        let adm = self.admit_all(None, fnv1a64(key.as_bytes()) ^ 0xde1e, 0);
        let acked: Vec<usize> = adm.admitted().collect();
        for &i in &acked {
            self.set.node(i).put_tombstone(key, version);
        }
        self.stats.lock().ack_cycles += 1;
        if acked.len() < self.w {
            for &i in &acked {
                let prior = held[i].as_ref().and_then(|frames| frames[0].clone());
                self.set.node(i).rollback_to(key, version, prior);
            }
            self.record(0, 0, 1);
            return Err(StorageError::QuorumLost {
                acked: acked.len() as u32,
                needed: self.w as u32,
            });
        }
        self.manifests.remove(key);
        Ok(())
    }

    /// Undo `key`'s write in the most recent commit: every node still at
    /// that exact version goes back to the frame it held before (an
    /// unrelated newer commit is never clobbered), and so does the
    /// manifest. A striped pool uses this to make a multi-stripe batch
    /// all-or-nothing when a *later* stripe refuses quorum.
    pub(crate) fn retract_commit(&mut self, key: &str) {
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

/// Modelled wire time for `len` bytes.
pub(crate) fn xfer_ns(len: u64, cost: &CostModel) -> u64 {
    (len as f64 * cost.net_ns_per_byte).round() as u64
}

/// One past the highest version any reachable node holds under key `j`
/// of `held` ([`QuorumStore::visible_frames`]), torn frames and
/// tombstones included; 1 if none holds one. No digest work: a write only
/// needs a version above everything visible, intact or not.
fn next_version(held: &[Option<Vec<Option<Frame>>>], j: usize) -> u64 {
    let visible = held.iter().flatten().filter_map(|f| f[j].as_ref());
    visible.map(|f| f.version).max().unwrap_or(0) + 1
}
