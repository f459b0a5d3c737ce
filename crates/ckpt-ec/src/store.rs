//! The erasure-coded stable-storage backend: Reed-Solomon as a
//! [`Coding`] of `ckpt-replica`'s [`QuorumStore`].
//!
//! An [`ErasureStore`] splits every object into `k` data shards plus `m`
//! parity shards, one per node of a `k + m`-node set. A commit moves
//! `(k + m) / k ×` the object's bytes where an N-way replicated commit
//! moves `N ×`, and any `m` node losses are survivable.
//!
//! A write commits when `w = k + ⌈m/2⌉` shard nodes acknowledge. That
//! makes reads safe by the replicated store's argument for `w > N/2`: if
//! a read finds `≥ k` intact shards at some version `v`, the at most
//! `m < w` remaining nodes cannot hide an entire newer commit, so the
//! reconstruction of `v` is the newest committed value.
//!
//! A read reconstructs the newest version from any `k` intact shards,
//! borrowed in place — concatenation when all data shards survived, a
//! GF(256) decode of just the missing ones otherwise — and verifies it
//! against the object digest every shard header carries; that digest is
//! what the read vouches for. Fewer than `k` intact shards of the newest
//! version, every shard torn included, refuses with the typed
//! [`StorageError::TooManyShardsLost`]: never fabricated bytes. The
//! object digest (computed once per commit, and not at all when the
//! caller hands it down), frame builds, parity encodes, frame digests and
//! decodes fan out on the pool behind its ordered merge.

use std::borrow::Cow;
use std::sync::Arc;

use ckpt_par::Pool;
use ckpt_replica::{
    Assembled, Coding, Counters, Frame, FrameFor, QuorumStore, Repair, ShardCoding, Striped,
    WireFrame,
};
use ckpt_storage::{digest64, StorageError};

use crate::rs::RsCode;

/// Per-shard frame header: magic, geometry, shard index, then the
/// object's length and digest so any `k` shards carry enough to verify
/// the reassembled object.
const SHARD_MAGIC: [u8; 4] = *b"ECS1";
const SHARD_HEADER: usize = 24;

/// Where the object digest sits in a shard header.
const DIGEST_AT: std::ops::Range<usize> = 16..24;

/// Shard frames one pool task digests.
const FRAME_RUN: usize = 4;

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

/// Shard `i` among the `(index, shard)` pairs a read rebuilt.
fn rebuilt_shard(rebuilt: &[(usize, Vec<u8>)], i: usize) -> Option<&[u8]> {
    rebuilt.iter().find(|(at, _)| *at == i).map(|(_, s)| s.as_slice())
}

/// An RS(k, m) store over `k + m` shard nodes: sites `ec/s<i>/<op>`,
/// label `rs(k,m)`.
pub type ErasureStore = QuorumStore<RsCode>;

/// K independent RS(k, m) shard groups behind one facade, so the sharded
/// control plane commits its per-round batches as *coded* frames — the
/// batching amortization of the striped replica pool at `(k + m) / k ×`
/// the bytes instead of `N ×`. Sites `ecstripe<j>/s<i>/<op>`, label
/// `ecstriped(Kx rs(k,m))`.
pub type EcStripedStore = Striped<RsCode>;

impl ShardCoding for RsCode {
    fn new(k: usize, m: usize) -> Self {
        RsCode::new(k, m)
    }
}

impl Coding for RsCode {
    const SITES: (&'static str, char) = ("ec", 's');
    const STRIPE_STEM: &'static str = "ecstripe";
    const COUNTERS: Counters = Counters {
        commits: "erasure.encodes",
        retries: "erasure.retries",
        quorum_losses: "erasure.quorum_losses",
        repairs: "erasure.shard_repairs",
        decodes: "erasure.decodes",
        shard_losses: "erasure.shard_losses",
    };

    fn label(&self, _: usize, _: usize) -> String {
        format!("rs({},{})", self.k(), self.m())
    }

    fn pool_label(&self, width: usize, n: usize, w: usize) -> String {
        format!("ecstriped({width}x {})", self.label(n, w))
    }

    fn used_bytes(per_node: impl Iterator<Item = u64>) -> u64 {
        // Physical occupancy: the object spreads over the nodes, so the
        // sum — not the max — is one logical copy's coded footprint.
        per_node.sum()
    }

    fn frame_len(&self, object_len: usize) -> u64 {
        (SHARD_HEADER + self.shard_len(object_len)) as u64
    }

    /// A single object travels as a framed batch of one: `ec/s<i>/batch`.
    fn single_wire(key: &str, frame_len: u64) -> WireFrame {
        WireFrame::framed([(key, frame_len)])
    }

    /// Encode a batch of objects into their `k + m` shard frames each,
    /// with every frame's digest. Pure work in two pool passes over the
    /// whole batch, each byte touched once per pass: first every object's
    /// digest (unless the caller holds them) beside its frames (data
    /// frames copied straight from the object's slices, parity
    /// accumulated in place), then — the headers carry the object digest,
    /// so it must come first — the frame digests, `FRAME_RUN` frames
    /// per task. Frame `j * n + i` is object `j`'s for node `i`; shard
    /// frames of one object are equal-length, so the wire layout is the
    /// same on every node, and each node takes ownership of its frames —
    /// moves, not copies.
    fn code<'a>(
        &self,
        objects: &'a [(&'a str, &'a [u8])],
        digests: Option<&'a [u64]>,
        pool: &Arc<Pool>,
    ) -> (Cow<'a, [u64]>, impl FrameFor<'a> + use<'a>) {
        enum Piece {
            ObjectDigest(u64),
            Frame(Vec<u8>),
        }
        let (k, n) = (self.k(), self.k() + self.m());
        let (kb, mb) = (k as u8, self.m() as u8);
        let slices: Vec<Vec<&[u8]>> = objects.iter().map(|(_, d)| self.data_slices(d)).collect();
        // Task `(j, 0)` digests object `j`, `(j, 1 + i)` builds its frame
        // for node `i`.
        let first = usize::from(digests.is_some());
        let tasks: Vec<(usize, usize)> = (0..objects.len())
            .flat_map(|j| (first..=n).map(move |t| (j, t)))
            .collect();
        // The digest and the data frames read each object once each, and
        // every parity frame reads it once more.
        let object_bytes: usize = objects.iter().map(|(_, d)| d.len()).sum();
        let call = pool.for_bytes((2 - first + self.m()) * object_bytes);
        let pieces = call.par_map_ordered(tasks, || (), |_, _, (j, t)| {
            let data = objects[j].1;
            let Some(i) = t.checked_sub(1) else {
                return Piece::ObjectDigest(digest64(data));
            };
            let sl = self.shard_len(data.len());
            let own: &[u8] = if i < k { slices[j][i] } else { &[] };
            let mut f = shard_frame(kb, mb, i as u8, data.len() as u64, 0, own, sl);
            if i >= k {
                self.shard_into(i, &slices[j], &mut f[SHARD_HEADER..]);
            }
            Piece::Frame(f)
        });
        let mut object_digests = Vec::with_capacity(objects.len() * (1 - first));
        let mut frames = Vec::with_capacity(objects.len() * n);
        for piece in pieces {
            match piece {
                Piece::ObjectDigest(d) => object_digests.push(d),
                Piece::Frame(f) => frames.push(f),
            }
        }
        let object_digests = digests.map_or(Cow::Owned(object_digests), Cow::Borrowed);
        let frame_bytes = frames.iter().map(Vec::len).sum();
        let call = pool.for_bytes(frame_bytes);
        let runs: Vec<&mut [Vec<u8>]> = frames.chunks_mut(FRAME_RUN).collect();
        let frame_digests = call.par_map_ordered(runs, || (), |_, r, run| {
            let mut digests = Vec::with_capacity(run.len());
            for (o, f) in run.iter_mut().enumerate() {
                let j = (r * FRAME_RUN + o) / n;
                f[DIGEST_AT].copy_from_slice(&object_digests[j].to_le_bytes());
                digests.push(digest64(f));
            }
            digests
        });
        let frame_digests: Vec<u64> = frame_digests.into_iter().flatten().collect();
        let frame = move |j, i, _| {
            let at = j * n + i;
            (Cow::Owned(std::mem::take(&mut frames[at])), frame_digests[at])
        };
        (object_digests, frame)
    }

    /// A delete marker needs no shards; data needs `k` of its version,
    /// and a key whose every shard is torn has none.
    fn refusal(
        &self,
        _: usize,
        frames: &[Option<Frame>],
        winner: Option<&Frame>,
    ) -> Option<StorageError> {
        if winner.is_some_and(|f| f.tombstone) {
            return None;
        }
        let at = |f: &&Frame| winner.is_some_and(|w| w.version == f.version);
        let intact = frames.iter().flatten().filter(at).count();
        (intact < self.k()).then_some(StorageError::TooManyShardsLost {
            intact: intact as u32,
            needed: self.k() as u32,
        })
    }

    /// Borrow the intact shards of the winning version out of their
    /// frames, rebuild what the read uses — the missing data shards (a
    /// matrix-inversion decode; none when all data shards survived) and
    /// the parity of the lagging nodes, for their repair (a down node's
    /// parity would be thrown away) — and verify the reassembled object
    /// against the digest its shard headers carry. A repair writes the
    /// proper shard frame, at the winning version.
    fn assemble<'a>(
        &'a self,
        winner: &'a Frame,
        frames: &[Option<Frame>],
        lagging: &[usize],
        pool: &Arc<Pool>,
    ) -> Result<Assembled<impl Repair + use<'a>>, StorageError> {
        let (k, m) = (self.k(), self.m());
        // A frame whose header is malformed or whose shard index disagrees
        // with its node counts as lost — it cannot be trusted into the
        // decode.
        let mut shards: Vec<Option<&[u8]>> = vec![None; k + m];
        let (mut object_len, mut object_digest, mut intact) = (0u64, 0u64, 0usize);
        for (i, f) in frames.iter().enumerate() {
            let Some(f) = f.as_ref().filter(|f| f.version == winner.version) else {
                continue;
            };
            if let Some((idx, olen, odig, shard)) = parse_shard(&f.data, k, m) {
                if idx == i {
                    shards[i] = Some(shard);
                    (object_len, object_digest) = (olen, odig);
                    intact += 1;
                }
            }
        }
        let lost = StorageError::TooManyShardsLost {
            intact: intact as u32,
            needed: k as u32,
        };
        if intact < k {
            return Err(lost);
        }
        let decoded = (0..k).any(|i| shards[i].is_none());
        let rebuilt = self
            .rebuild_missing(&shards, |i| lagging.contains(&i), pool)
            .expect("intact >= k shards reconstruct");
        let data: Vec<&[u8]> = (0..k)
            .map(|i| shards[i].or_else(|| rebuilt_shard(&rebuilt, i)))
            .map(|s| s.expect("data shard intact or decoded"))
            .collect();
        let bytes = self.join_slices(&data, object_len as usize);
        if digest64(&bytes) != object_digest {
            // The shard set is internally inconsistent (can only happen
            // if the medium was damaged beyond what frame digests catch).
            // Refuse — returning the reassembly would be silent corruption.
            return Err(lost);
        }
        Ok(Assembled {
            bytes,
            digest: object_digest,
            decoded,
            frames_read: k as u64,
            repair: move |i: usize| {
                let shard = rebuilt_shard(&rebuilt, i).expect("lagging shards were rebuilt");
                let (kb, mb, at) = (k as u8, m as u8, i as u8);
                let frame = shard_frame(kb, mb, at, object_len, object_digest, shard, shard.len());
                let digest = digest64(&frame);
                (frame, digest)
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckpt_replica::Probe;
    use ckpt_storage::{CodingGeometry, StableStorage};
    use simos::cost::CostModel;

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
