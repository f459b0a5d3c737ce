//! The erasure-coded stable-storage backend.
//!
//! An [`ErasureStore`] is one client handle onto a shared
//! [`ReplicaSet`] of `k + m` shard nodes: every object splits into `k`
//! data shards plus `m` Reed-Solomon parity shards, one shard per node.
//! A commit moves `(k + m) / k ×` the object's bytes over the wire where
//! an N-way replicated commit moves `N ×` — the bandwidth win this layer
//! exists for — while still surviving any `m` node losses.
//!
//! ## Write quorum
//!
//! A write commits when `w = k + ⌈m/2⌉` shard nodes acknowledge
//! (`w ≥ k + 1` since `m ≥ 1`). That choice makes reads safe by the same
//! argument the replicated store uses for `w > N/2`: a committed write
//! occupies at least `w` nodes, so if a read finds `≥ k` intact shards
//! at some version `v`, the at most `(k + m) − k = m < w` remaining
//! nodes cannot be hiding an entire newer commit — the reconstruction of
//! `v` is the newest committed value. The commit itself — admission,
//! snapshots, rollback of every node that took bytes on fewer than `w`
//! acks, the typed [`StorageError::QuorumLost`], manifests — is
//! [`QuorumClient::commit`], shared with the replicated tier; this store
//! supplies the shard frames.
//!
//! ## Read path
//!
//! Reads probe every node (frame digests make torn shards
//! self-identifying, exactly as on the replicated path; the first read
//! after a commit verifies all admitted frames as one multi-lane batch,
//! later reads hit the nodes' memo), pick the highest version any intact
//! shard carries, and reconstruct from any `k` intact shards, borrowed in
//! place — concatenation when all data shards survived, a GF(256)
//! matrix-inversion decode of just the missing ones otherwise. The
//! reassembled object is verified against the object digest carried in
//! every shard header; lost/torn/stale shards of *reachable* nodes are
//! then rebuilt in place (the read-repair analog; a down node's shard is
//! not rebuilt — nobody could take it). Fewer than `k` intact shards
//! refuses with the typed [`StorageError::TooManyShardsLost`] — never
//! silent corruption, never fabricated bytes.
//!
//! ## Determinism
//!
//! All fault admission (node reachability, queued transients,
//! `simos::faultpoint` checks at `ec/s<i>/store` / `ec/s<i>/load` /
//! `ec/s<i>/batch`) and all backoff arithmetic run sequentially on the
//! calling thread in shard-node order; only pure work — the object
//! digest (computed once per commit), frame builds, parity encodes, frame
//! digests, shard decodes — fans out on the `ckpt-par` pool behind its
//! ordered merge; nodes then take ownership of their frames. Commits,
//! manifests, costs, and counters are identical at every pool width.

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ckpt_par::Pool;
use ckpt_replica::{
    CommitObject, Frame, Probe, QuorumClient, ReplicaSet, StripeMember, Striped, WireFrame,
};
use ckpt_storage::{
    fnv1a64, fnv1a64_multi, BatchReceipt, CodingGeometry, ReplicaManifest, StableStorage,
    StorageClass, StorageError, StoreReceipt, FNV_LANES,
};
use simos::cost::CostModel;
use simos::faultpoint::FaultHandle;
use simos::trace::TraceHandle;
use simos::types::SimResult;
use simos::Relink;

use crate::rs::RsCode;

/// Per-shard frame header: magic, geometry, shard index, then the
/// object's length and digest so any `k` shards carry enough to verify
/// the reassembled object.
const SHARD_MAGIC: [u8; 4] = *b"ECS1";
const SHARD_HEADER: usize = 24;

/// Where the object digest sits in a shard header.
const DIGEST_AT: std::ops::Range<usize> = 16..24;

/// A shard frame: the header, then `shard` zero-padded to `shard_len`.
fn shard_frame(
    k: u8,
    m: u8,
    idx: u8,
    object_len: u64,
    object_digest: u64,
    shard: &[u8],
    shard_len: usize,
) -> Vec<u8> {
    let mut f = Vec::with_capacity(SHARD_HEADER + shard_len);
    f.extend_from_slice(&SHARD_MAGIC);
    f.extend_from_slice(&[k, m, idx, 0]);
    f.extend_from_slice(&object_len.to_le_bytes());
    f.extend_from_slice(&object_digest.to_le_bytes());
    f.extend_from_slice(shard);
    f.resize(SHARD_HEADER + shard_len, 0);
    f
}

/// Parse a shard frame; `None` if the header is malformed or the
/// geometry disagrees with the store's code (either way the shard is
/// unusable, which the caller counts as lost).
fn parse_shard(frame: &[u8], k: usize, m: usize) -> Option<(usize, u64, u64, &[u8])> {
    if frame.len() < SHARD_HEADER || frame[..4] != SHARD_MAGIC {
        return None;
    }
    if frame[4] as usize != k || frame[5] as usize != m {
        return None;
    }
    let idx = frame[6] as usize;
    let object_len = u64::from_le_bytes(frame[8..16].try_into().unwrap());
    let object_digest = u64::from_le_bytes(frame[DIGEST_AT].try_into().unwrap());
    Some((idx, object_len, object_digest, &frame[SHARD_HEADER..]))
}

/// Plain counters mirroring the `erasure.*` trace counters this store
/// emits, readable without a recording trace handle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EcStats {
    /// Objects committed (shard batches that reached write quorum).
    pub commits: u64,
    /// Per-node transient faults absorbed by backoff-retry.
    pub retries: u64,
    /// Reads that needed a matrix-inversion decode.
    pub decodes: u64,
    /// Lost/torn/stale shards rebuilt in place during reads.
    pub repairs: u64,
    /// Reads refused with [`StorageError::TooManyShardsLost`].
    pub shard_losses: u64,
    /// Writes refused with [`StorageError::QuorumLost`].
    pub quorum_losses: u64,
    /// Acknowledgement round-trips: one per single store or delete, one
    /// per entire framed shard batch.
    pub ack_cycles: u64,
}

/// One client handle on an erasure-coded store over `k + m` shard nodes:
/// RS shard frames over the shared [`QuorumClient`] commit protocol, plus
/// the decoding read with in-place shard repair.
pub struct ErasureStore {
    core: QuorumClient,
    code: RsCode,
    decodes: AtomicU64,
    repairs: AtomicU64,
    shard_losses: AtomicU64,
}

/// K independent RS(k, m) shard groups behind one facade, so the sharded
/// control plane commits its per-round batches as *coded* frames — the
/// batching amortization of the striped replica pool at `(k + m) / k ×`
/// the bytes instead of `N ×`. Sites `ecstripe<j>/s<i>/<op>`, label
/// `ecstriped(Kx rs(k,m))`.
pub type EcStripedStore = Striped<ErasureStore>;

impl ErasureStore {
    /// A store over `set` (which must have exactly `k + m` nodes) with an
    /// RS(k, m) code, committing at the shard write quorum `k + ⌈m/2⌉`.
    /// Fault injection defaults to off, tracing to the no-op sink, the
    /// pool to the global one. Faultpoint sites render as `ec/s<i>/<op>`.
    pub fn new(set: Arc<ReplicaSet>, k: usize, m: usize) -> Self {
        let code = RsCode::new(k, m);
        assert_eq!(
            set.len(),
            k + m,
            "shard set has {} nodes but RS({k},{m}) needs {}",
            set.len(),
            k + m
        );
        let coding = CodingGeometry {
            k: k as u32,
            m: m as u32,
        };
        let counters = ["erasure.encodes", "erasure.retries", "erasure.quorum_losses"];
        ErasureStore {
            core: QuorumClient::new(set, k + m.div_ceil(2), "ec", 's', Some(coding), counters),
            code,
            decodes: AtomicU64::new(0),
            repairs: AtomicU64::new(0),
            shard_losses: AtomicU64::new(0),
        }
    }

    /// Convenience: a fresh `k + m`-node set plus its first client handle.
    pub fn fresh(k: usize, m: usize) -> Self {
        ErasureStore::new(ReplicaSet::new(k + m), k, m)
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

    pub fn k(&self) -> usize {
        self.code.k()
    }

    pub fn m(&self) -> usize {
        self.code.m()
    }

    /// Shard write quorum `k + ⌈m/2⌉`.
    pub fn write_quorum(&self) -> usize {
        self.core.write_quorum()
    }

    pub fn replica_set(&self) -> Arc<ReplicaSet> {
        self.core.set().clone()
    }

    /// Counters accumulated by this client handle.
    pub fn stats(&self) -> EcStats {
        let q = self.core.stats();
        EcStats {
            commits: q.commits,
            retries: q.retries,
            decodes: self.decodes.load(Ordering::Relaxed),
            repairs: self.repairs.load(Ordering::Relaxed),
            shard_losses: self.shard_losses.load(Ordering::Relaxed),
            quorum_losses: q.quorum_losses,
            ack_cycles: q.ack_cycles,
        }
    }

    fn n(&self) -> usize {
        self.code.k() + self.code.m()
    }

    /// Account the end of a read: whether it decoded, the shards it
    /// repaired, and whether it was refused for lack of `k` intact shards.
    fn read_done(&self, decodes: u64, repairs: u64, shard_losses: u64) {
        self.decodes.fetch_add(decodes, Ordering::Relaxed);
        self.repairs.fetch_add(repairs, Ordering::Relaxed);
        self.shard_losses.fetch_add(shard_losses, Ordering::Relaxed);
        let trace = self.core.trace();
        trace.count("erasure.decodes", decodes);
        trace.count("erasure.shard_repairs", repairs);
        trace.count("erasure.shard_losses", shard_losses);
    }

    /// Encode a batch of objects into their `k + m` shard frames each,
    /// with every frame's digest: `(frames, frame digests, object
    /// digests)`, frames flat in `object × node` order. Pure work in two
    /// pool passes over the whole batch, each byte touched once per pass:
    /// first every object's digest beside its frames (data frames copied
    /// straight from the object's slices, parity accumulated in place),
    /// then — the headers carry the object digest, so it must come first —
    /// the frame digests, one fill of the multi-lane FNV per task.
    fn encode_frames(&self, objects: &[(&str, &[u8])]) -> (Vec<Vec<u8>>, Vec<u64>, Vec<u64>) {
        enum Piece {
            ObjectDigest(u64),
            Frame(Vec<u8>),
        }
        let (k, n) = (self.code.k(), self.n());
        let (kb, mb) = (k as u8, self.code.m() as u8);
        let slices: Vec<Vec<&[u8]>> =
            objects.iter().map(|(_, d)| self.code.data_slices(d)).collect();
        let tasks: Vec<(usize, usize)> = (0..objects.len())
            .flat_map(|j| (0..=n).map(move |t| (j, t)))
            .collect();
        // The digest and the data frames read each object once between
        // them, and every parity frame reads it once more.
        let object_bytes: usize = objects.iter().map(|(_, d)| d.len()).sum();
        let call = self.core.pool().for_bytes((2 + self.code.m()) * object_bytes);
        let pieces = call.par_map_ordered(tasks, || (), |_, _, (j, t)| {
            let data = objects[j].1;
            let Some(i) = t.checked_sub(1) else {
                return Piece::ObjectDigest(fnv1a64(data));
            };
            let sl = self.code.shard_len(data.len());
            let own: &[u8] = if i < k { slices[j][i] } else { &[] };
            let mut f = shard_frame(kb, mb, i as u8, data.len() as u64, 0, own, sl);
            if i >= k {
                self.code.shard_into(i, &slices[j], &mut f[SHARD_HEADER..]);
            }
            Piece::Frame(f)
        });
        let mut object_digests = Vec::with_capacity(objects.len());
        let mut frames = Vec::with_capacity(objects.len() * n);
        for piece in pieces {
            match piece {
                Piece::ObjectDigest(d) => object_digests.push(d),
                Piece::Frame(f) => frames.push(f),
            }
        }
        let frame_bytes = frames.iter().map(Vec::len).sum();
        let runs: Vec<(usize, &mut [Vec<u8>])> =
            frames.chunks_mut(FNV_LANES).enumerate().collect();
        let call = self.core.pool().for_bytes(frame_bytes);
        let frame_digests = call.par_map_ordered(runs, || (), |_, _, (r, run)| {
            for (o, f) in run.iter_mut().enumerate() {
                let j = (r * FNV_LANES + o) / n;
                f[DIGEST_AT].copy_from_slice(&object_digests[j].to_le_bytes());
            }
            let bufs: Vec<&[u8]> = run.iter().map(Vec::as_slice).collect();
            fnv1a64_multi(&bufs)
        });
        let frame_digests = frame_digests.into_iter().flatten().collect();
        (frames, frame_digests, object_digests)
    }
}

impl StripeMember for ErasureStore {
    const SITE_STEM: &'static str = "ecstripe";

    fn pool_label(&self, width: usize) -> String {
        format!("ecstriped({width}x {})", self.label())
    }

    fn quorum_mut(&mut self) -> &mut QuorumClient {
        &mut self.core
    }

    fn fork_member(&self, relink: &mut Relink) -> SimResult<Self> {
        let at = |c: &AtomicU64| AtomicU64::new(c.load(Ordering::Relaxed));
        Ok(ErasureStore {
            core: self.core.fork(relink)?,
            code: self.code.clone(),
            decodes: at(&self.decodes),
            repairs: at(&self.repairs),
            shard_losses: at(&self.shard_losses),
        })
    }
}

impl StableStorage for ErasureStore {
    fn class(&self) -> StorageClass {
        StorageClass::Remote
    }

    fn label(&self) -> String {
        format!("rs({},{})", self.code.k(), self.code.m())
    }

    fn store(
        &mut self,
        key: &str,
        data: &[u8],
        cost: &CostModel,
    ) -> Result<StoreReceipt, StorageError> {
        let r = self.store_batch(&[(key, data)], cost)?;
        Ok(StoreReceipt {
            key: key.to_string(),
            bytes: r.bytes,
            time_ns: r.time_ns,
        })
    }

    fn load(&self, key: &str, cost: &CostModel) -> Result<(Vec<u8>, u64), StorageError> {
        self.core.ensure_up()?;
        let set = self.core.set();
        let (k, m, n) = (self.code.k(), self.code.m(), self.n());

        // Sequential admission of every shard node, in node order; then
        // one batched probe — a first read verifies all the admitted
        // frames in one multi-lane pass over their bytes.
        let adm = self.core.admit_all("load", key, 0);
        let admitted: Vec<usize> = adm.admitted().collect();
        let down = n - admitted.len();
        let mut frames: Vec<Option<Frame>> = vec![None; n];
        for (&i, probe) in admitted.iter().zip(set.probe_batch(&admitted, key)) {
            if let Probe::Valid(f) = probe {
                frames[i] = Some(f);
            }
        }

        let winner = frames
            .iter()
            .flatten()
            .map(|f| f.version)
            .max()
            .unwrap_or(0);
        if winner == 0 {
            // No node has ever seen this key — unless so many are down
            // that a committed shard set could be hiding on them.
            let refused = down > n - self.core.write_quorum();
            self.read_done(0, 0, u64::from(refused));
            return if refused {
                Err(StorageError::TooManyShardsLost {
                    intact: 0,
                    needed: k as u32,
                })
            } else {
                Err(StorageError::NotFound(key.to_string()))
            };
        }

        // Tombstone wins: the newest commit is a delete marker. Repair it
        // onto every reachable lagging node so the key can't resurrect.
        if frames
            .iter()
            .flatten()
            .any(|f| f.version == winner && f.tombstone)
        {
            let lagging: Vec<usize> = (0..n)
                .filter(|&i| !set.node(i).is_down())
                .filter(|&i| !matches!(&frames[i], Some(f) if f.version == winner))
                .collect();
            let repairs = lagging.len() as u64;
            for i in lagging {
                set.node(i).put_tombstone(key, winner);
            }
            self.read_done(0, repairs, 0);
            return Err(StorageError::NotFound(key.to_string()));
        }

        // Borrow the intact shards of the winning version out of their
        // frames. A frame whose header is malformed or whose shard index
        // disagrees with its node counts as lost — it cannot be trusted
        // into the decode.
        let mut shards: Vec<Option<&[u8]>> = vec![None; n];
        let mut object_len = 0u64;
        let mut object_digest = 0u64;
        let mut shard_frame_len = 0usize;
        let mut intact = 0usize;
        for (i, f) in frames.iter().enumerate() {
            let Some(f) = f.as_ref().filter(|f| f.version == winner) else {
                continue;
            };
            if let Some((idx, olen, odig, shard)) = parse_shard(&f.data, k, m) {
                if idx == i {
                    shards[i] = Some(shard);
                    object_len = olen;
                    object_digest = odig;
                    shard_frame_len = f.data.len();
                    intact += 1;
                }
            }
        }
        if intact < k {
            self.read_done(0, 0, 1);
            return Err(StorageError::TooManyShardsLost {
                intact: intact as u32,
                needed: k as u32,
            });
        }

        // Rebuild what the read will use: the missing data shards (a
        // matrix-inversion decode; none when all data shards survived)
        // and the parity of reachable nodes that lack theirs, for the
        // repair below. A down node's parity would be thrown away.
        let needs_decode = (0..k).any(|i| shards[i].is_none());
        let lagging: Vec<usize> = (0..n)
            .filter(|&i| !set.node(i).is_down())
            .filter(|&i| shards[i].is_none())
            .collect();
        let rebuilt = self
            .code
            .rebuild_missing(&shards, |i| lagging.contains(&i), self.core.pool())
            .expect("intact >= k shards reconstruct");
        let rebuilt_shard = |i: usize| -> Option<&[u8]> {
            rebuilt.iter().find(|(at, _)| *at == i).map(|(_, s)| s.as_slice())
        };
        let data: Vec<&[u8]> = (0..k)
            .map(|i| shards[i].or_else(|| rebuilt_shard(i)).expect("data shard intact or decoded"))
            .collect();
        let object = self.code.join_slices(&data, object_len as usize);
        if fnv1a64(&object) != object_digest {
            // The shard set is internally inconsistent (can only happen
            // if the medium was damaged beyond what frame digests catch).
            // Refuse — returning the reassembly would be silent corruption.
            self.read_done(0, 0, 1);
            return Err(StorageError::TooManyShardsLost {
                intact: intact as u32,
                needed: k as u32,
            });
        }

        // Read-repair: rebuild the proper shard frame, at the winning
        // version, on every reachable node that doesn't hold it; the
        // repaired frames are digested here as one batch.
        let repairs = lagging.len() as u64;
        let repaired: Vec<Vec<u8>> = lagging
            .iter()
            .map(|&i| {
                let shard = rebuilt_shard(i).expect("lagging shards were rebuilt");
                let sl = shard.len();
                shard_frame(k as u8, m as u8, i as u8, object_len, object_digest, shard, sl)
            })
            .collect();
        let bufs: Vec<&[u8]> = repaired.iter().map(Vec::as_slice).collect();
        let digests = fnv1a64_multi(&bufs);
        for ((&i, frame), digest) in lagging.iter().zip(repaired).zip(digests) {
            set.node(i).put_frame(key, winner, frame, digest);
        }

        // k shard frames cross the wire to serve the read, plus one per
        // repaired node to rebuild it.
        let time_ns = cost.net_latency_ns
            + QuorumClient::xfer_ns(shard_frame_len as u64, cost) * (k as u64 + repairs)
            + adm.backoff_ns;
        self.read_done(u64::from(needs_decode), repairs, 0);
        Ok((object, time_ns))
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
        // Physical occupancy: the object spreads over the nodes, so the
        // sum — not the max — is one logical copy's coded footprint.
        self.core
            .set()
            .nodes()
            .iter()
            .filter(|n| !n.is_down())
            .map(|n| n.used_bytes())
            .sum()
    }

    fn on_node_failure(&mut self) {
        // The *client's* node fail-stopped; the shard nodes are elsewhere.
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

    /// Framed batched shard commit: each node receives ONE wire frame
    /// (see [`WireFrame::framed`]) holding its shard of every object in
    /// the batch — one admission / retry / acknowledgement cycle per node
    /// for the whole batch (`ack_cycles: 1`), the same amortization as the
    /// replicated batch path but at `(k + m) / k ×` the payload bytes
    /// instead of `N ×`. Torn writes persist a frame *prefix* with
    /// per-object semantics; fewer than `w` full frames rolls every object
    /// back on every node that took bytes.
    fn store_batch(
        &mut self,
        objects: &[(&str, &[u8])],
        cost: &CostModel,
    ) -> Result<BatchReceipt, StorageError> {
        self.core.ensure_up()?;
        let n = self.n();

        // Encode every object up front (pure pool work): frame
        // `j * n + i` is object j's shard frame for node i. Shard frames
        // of one object are equal-length, so the wire layout is the same
        // on every node; each node then takes ownership of its frames
        // under the digests computed here — moves, not copies.
        let (mut frames, frame_digests, object_digests) = self.encode_frames(objects);
        let wire = WireFrame::framed(
            objects
                .iter()
                .enumerate()
                .map(|(j, (key, _))| (*key, frames[j * n].len() as u64)),
        );
        let described: Vec<CommitObject<'_>> = objects
            .iter()
            .zip(&object_digests)
            .map(|(&(key, d), &digest)| CommitObject {
                key,
                bytes: d.len() as u64,
                digest,
            })
            .collect();
        self.core.commit(
            &described,
            &wire,
            |j, i| {
                let at = j * n + i;
                (Cow::Owned(std::mem::take(&mut frames[at])), frame_digests[at])
            },
            cost,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost() -> CostModel {
        CostModel::circa_2005()
    }

    fn payload(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8).collect()
    }

    #[test]
    fn commit_shards_across_all_nodes_and_reads_back() {
        let mut s = ErasureStore::fresh(4, 2);
        let data = payload(4096);
        let r = s.store("j/pid1/seq1", &data, &cost()).unwrap();
        assert_eq!(r.bytes, 4096);
        let man = s.replica_manifest("j/pid1/seq1").unwrap();
        assert_eq!(man.coding, Some(CodingGeometry { k: 4, m: 2 }));
        assert_eq!((man.n, man.w), (6, 5));
        assert_eq!(man.acked.len(), 6);
        let (bytes, _) = s.load("j/pid1/seq1", &cost()).unwrap();
        assert_eq!(bytes, data);
        assert_eq!(s.stats().commits, 1);
        assert_eq!(s.stats().decodes, 0, "all data shards intact: no decode");
    }

    #[test]
    fn coded_commit_ingests_a_fraction_of_replicated_bytes() {
        let data = payload(64 * 1024);
        let mut ec = ErasureStore::fresh(4, 2);
        ec.store("k", &data, &cost()).unwrap();
        let coded = ec.replica_set().bytes_ingested();

        let mut rep = ckpt_replica::ReplicatedStore::fresh(3, 2);
        rep.store("k", &data, &cost()).unwrap();
        let mirrored = rep.replica_set().bytes_ingested();

        // RS(4,2) moves 1.5x the payload (+ tiny headers); replication
        // moves 3x. The coded path must land at or under 0.55x.
        assert!(
            (coded as f64) < 0.55 * mirrored as f64,
            "coded {coded} vs mirrored {mirrored}"
        );
    }

    #[test]
    fn survives_any_m_losses_and_refuses_beyond() {
        let data = payload(10_000);
        for lost in 1..=2usize {
            let mut s = ErasureStore::fresh(4, 2);
            s.store("k", &data, &cost()).unwrap();
            for i in 0..lost {
                s.replica_set().node(i).fail();
            }
            let (bytes, _) = s.load("k", &cost()).unwrap();
            assert_eq!(bytes, data, "lost {lost} nodes");
        }
        let mut s = ErasureStore::fresh(4, 2);
        s.store("k", &data, &cost()).unwrap();
        for i in 0..3 {
            s.replica_set().node(i).fail();
        }
        assert_eq!(
            s.load("k", &cost()),
            Err(StorageError::TooManyShardsLost { intact: 3, needed: 4 })
        );
    }

    #[test]
    fn read_repair_rebuilds_dropped_and_torn_shards() {
        let data = payload(5000);
        let mut s = ErasureStore::fresh(4, 2);
        s.store("k", &data, &cost()).unwrap();
        let set = s.replica_set();
        set.node(1).drop_key("k");
        set.node(4).corrupt_key("k");
        let (bytes, _) = s.load("k", &cost()).unwrap();
        assert_eq!(bytes, data);
        assert_eq!(s.stats().repairs, 2);
        assert_eq!(s.stats().decodes, 1, "a data shard was lost: decode path");
        // Both repaired shards verify by digest on a fresh probe.
        for i in [1usize, 4] {
            assert!(
                matches!(set.node(i).probe("k"), Probe::Valid(_)),
                "node {i} not repaired intact"
            );
        }
        // And the next read is repair-free.
        s.load("k", &cost()).unwrap();
        assert_eq!(s.stats().repairs, 2);
    }

    #[test]
    fn write_quorum_miss_rolls_the_shards_back() {
        let mut s = ErasureStore::fresh(4, 2);
        // w = 5 of 6: two nodes down refuse the commit.
        s.replica_set().node(0).fail();
        s.replica_set().node(1).fail();
        let err = s.store("k", &payload(256), &cost()).unwrap_err();
        assert!(matches!(err, StorageError::QuorumLost { acked: 4, needed: 5 }));
        // Nothing leaked onto the four nodes that took shards.
        assert_eq!(s.replica_set().bytes_ingested(), 0);
        s.replica_set().node(0).repair();
        s.replica_set().node(1).repair();
        assert!(matches!(s.load("k", &cost()), Err(StorageError::NotFound(_))));
    }

    #[test]
    fn delete_tombstones_and_reads_refuse_afterward() {
        let mut s = ErasureStore::fresh(4, 2);
        s.store("k", &payload(100), &cost()).unwrap();
        s.delete("k").unwrap();
        assert!(matches!(s.load("k", &cost()), Err(StorageError::NotFound(_))));
        assert!(s.list().is_empty());
    }

    #[test]
    fn batch_commit_is_one_ack_cycle_and_all_or_nothing() {
        let mut s = ErasureStore::fresh(4, 2);
        let objects: Vec<(String, Vec<u8>)> = (0..8)
            .map(|i| (format!("o/{i}"), payload(300 + i * 17)))
            .collect();
        let refs: Vec<(&str, &[u8])> = objects
            .iter()
            .map(|(k, d)| (k.as_str(), d.as_slice()))
            .collect();
        let r = s.store_batch(&refs, &cost()).unwrap();
        assert_eq!((r.objects, r.ack_cycles), (8, 1));
        for (k, d) in &objects {
            assert_eq!(&s.load(k, &cost()).unwrap().0, d);
        }

        // Quorum miss: the whole batch disappears.
        let mut s2 = ErasureStore::fresh(4, 2);
        s2.replica_set().node(2).fail();
        s2.replica_set().node(3).fail();
        assert!(s2.store_batch(&refs, &cost()).is_err());
        s2.replica_set().node(2).repair();
        s2.replica_set().node(3).repair();
        for (k, _) in &objects {
            assert!(
                matches!(s2.load(k, &cost()), Err(StorageError::NotFound(_))),
                "object {k} leaked from the aborted batch"
            );
        }
        assert_eq!(s2.replica_set().bytes_ingested(), 0);
    }

    #[test]
    fn commit_latency_beats_equal_survivability_replication() {
        // RS(4,2) and replicated(3,2) both survive any single fault at
        // read time, but the coded commit moves half the bytes.
        let data = payload(256 * 1024);
        let c = cost();
        let mut ec = ErasureStore::fresh(4, 2);
        let t_ec = ec.store("k", &data, &c).unwrap().time_ns;
        let mut rep = ckpt_replica::ReplicatedStore::fresh(3, 2);
        let t_rep = rep.store("k", &data, &c).unwrap().time_ns;
        assert!(
            t_ec < t_rep,
            "coded commit {t_ec}ns must beat mirrored {t_rep}ns"
        );
    }
}
