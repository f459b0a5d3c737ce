//! Property tests on the content-addressed dedup store: any random
//! history of image versions written through a [`DedupStore`] must (a)
//! read back byte-identical — with identical receipts and identical
//! counter trajectories — no matter how wide the chunking pool is, and
//! (b) survive any order of deletions: the refcounted GC may only ever
//! free chunks no surviving manifest references, so every key that is
//! still stored loads bit-exact after every delete, and dropping the last
//! key drains the chunk index to empty (no leaks either). The store's
//! delta is tried against a bound; the bounded encoder must give the full
//! delta or nothing. Over a replicated backing store, which vouches for
//! the digests it verified, damage must end exactly as it does when dedup
//! hashes every chunk itself.
//!
//! Cases are generated deterministically by [`common::Gen`]; a failing
//! seed reproduces directly.

mod common;

use ckpt_restart::cas::delta::{xor_rle_encode, xor_rle_encode_within};
use ckpt_restart::cas::{CasStats, ChunkParams, DedupStore};
use ckpt_restart::par::Pool;
use ckpt_restart::replica::{Probe, ReplicaConfig, ReplicaSet, ReplicatedStore};
use ckpt_restart::storage::{
    ImageKey, LocalDisk, StableStorage, StorageClass, StorageError, StoreReceipt,
};
use common::Gen;
use simos::cost::CostModel;
use std::sync::Arc;

const CASES: u64 = 24;

/// A random lineage: version 0 is random bytes; each later version
/// mutates its parent (byte flips, a block rewrite, and sometimes a
/// length change) so histories mix near-duplicate and novel content.
/// Lengths run from 2 KB to 120 KB, so about half the objects are past
/// `ckpt_par::PAR_MIN_BYTES` and wide pools spread their chunk digests.
fn arb_history(g: &mut Gen) -> Vec<Vec<u8>> {
    let len = g.range(2, 6) as usize;
    let base_len = g.range(2_000, 120_000) as usize;
    let mut versions = vec![g.bytes(base_len)];
    for _ in 1..len {
        let mut v = versions.last().unwrap().clone();
        for _ in 0..g.range(1, 40) {
            let i = g.range(0, v.len() as u64) as usize;
            v[i] ^= g.byte() | 1;
        }
        if g.flag() {
            let at = g.range(0, v.len() as u64) as usize;
            let n = (g.range(64, 2_048) as usize).min(v.len() - at);
            let block = g.bytes(n);
            v[at..at + n].copy_from_slice(&block);
        }
        match g.range(0, 4) {
            0 => {
                let n = g.range(1, 4_096) as usize;
                let tail = g.bytes(n);
                v.extend(tail);
            }
            1 => v.truncate(v.len() - v.len().min(g.range(1, 2_048) as usize)),
            _ => {}
        }
        versions.push(v);
    }
    versions
}

#[allow(clippy::type_complexity)]
fn store_at_width(
    histories: &[Vec<Vec<u8>>],
    width: usize,
) -> (Vec<(String, u64)>, Vec<(String, Vec<u8>)>, CasStats) {
    let cost = CostModel::circa_2005();
    let mut store = DedupStore::new(Box::new(LocalDisk::new(1 << 30)))
        .with_params(ChunkParams::DEFAULT)
        .with_pool(Arc::new(Pool::new(width)));
    let stats = store.stats_handle();
    let mut receipts = Vec::new();
    let mut loaded = Vec::new();
    for (h, versions) in histories.iter().enumerate() {
        for (seq, v) in versions.iter().enumerate() {
            let key = ImageKey::new(format!("prop/h{h}"), 1, seq as u64).to_string();
            let r = store.store(&key, v, &cost).unwrap();
            receipts.push((key, r.bytes));
        }
    }
    for (h, versions) in histories.iter().enumerate() {
        for seq in 0..versions.len() {
            let key = ImageKey::new(format!("prop/h{h}"), 1, seq as u64).to_string();
            let (bytes, _) = store.load(&key, &cost).unwrap();
            loaded.push((key, bytes));
        }
    }
    (receipts, loaded, stats.snapshot())
}

#[test]
fn round_trip_is_byte_identical_at_every_pool_width() {
    for seed in 0..CASES {
        let mut g = Gen::new(seed);
        let histories: Vec<_> = (0..g.range(1, 4)).map(|_| arb_history(&mut g)).collect();

        let (r1, l1, s1) = store_at_width(&histories, 1);
        // Every version reads back exactly as written (width 1 first).
        let mut want = Vec::new();
        for (h, versions) in histories.iter().enumerate() {
            for (seq, v) in versions.iter().enumerate() {
                let key = ImageKey::new(format!("prop/h{h}"), 1, seq as u64).to_string();
                want.push((key, v.clone()));
            }
        }
        assert_eq!(l1, want, "seed {seed}: width-1 round trip corrupted bytes");

        for width in [4usize, 8] {
            let (r, l, s) = store_at_width(&histories, width);
            assert_eq!(r, r1, "seed {seed}: receipts differ at width {width}");
            assert_eq!(l, l1, "seed {seed}: loads differ at width {width}");
            assert_eq!(
                (s.logical_bytes, s.physical_bytes, s.novel_chunks, s.dup_chunks),
                (s1.logical_bytes, s1.physical_bytes, s1.novel_chunks, s1.dup_chunks),
                "seed {seed}: counters differ at width {width}"
            );
        }
    }
}

#[test]
fn gc_never_frees_a_chunk_a_live_chain_references() {
    let cost = CostModel::circa_2005();
    for seed in 0..CASES {
        let mut g = Gen::new(0x6C_0000 + seed);
        let histories: Vec<_> = (0..g.range(1, 4)).map(|_| arb_history(&mut g)).collect();
        let mut store = DedupStore::new(Box::new(LocalDisk::new(1 << 30)));
        let stats = store.stats_handle();

        let mut live: Vec<(String, Vec<u8>)> = Vec::new();
        for (h, versions) in histories.iter().enumerate() {
            for (seq, v) in versions.iter().enumerate() {
                let key = ImageKey::new(format!("prop/h{h}"), 1, seq as u64).to_string();
                store.store(&key, v, &cost).unwrap();
                live.push((key, v.clone()));
            }
        }

        // Delete in a random order; after each delete every surviving key
        // must still materialize bit-exactly — including delta children
        // whose raw base object was just pruned.
        while !live.is_empty() {
            let victim = g.range(0, live.len() as u64) as usize;
            let (key, _) = live.swap_remove(victim);
            store.delete(&key).unwrap();
            for (k, v) in &live {
                let (bytes, _) = store
                    .load(k, &cost)
                    .unwrap_or_else(|e| panic!("seed {seed}: {k} lost after deleting {key}: {e}"));
                assert_eq!(&bytes, v, "seed {seed}: {k} corrupted after deleting {key}");
            }
        }

        // With no surviving manifest, the refcounted index must drain —
        // GC is exact in both directions (no premature frees, no leaks).
        let s = stats.snapshot();
        assert_eq!(s.live_chunks, 0, "seed {seed}: chunk index leaked");
        assert_eq!(s.live_chunk_bytes, 0, "seed {seed}: chunk bytes leaked");
    }
}

/// The bounded delta is the full delta or nothing: for a random pair and a
/// near-identical one, at every limit from 0 to just past the full delta's
/// length, `xor_rle_encode_within` returns `Some(full)` exactly when
/// `full.len() <= limit`.
#[test]
fn bounded_delta_is_the_full_delta_or_nothing() {
    for seed in 0..CASES {
        let mut g = Gen::new(0xDE17A + seed);
        let (base_len, random_len) = (g.range(0, 2_000), g.range(0, 2_000));
        let base = g.bytes(base_len as usize);
        let random = g.bytes(random_len as usize);
        let mut near = base.clone();
        for _ in 0..g.range(0, 12) {
            if near.is_empty() {
                break;
            }
            let i = g.range(0, near.len() as u64) as usize;
            near[i] ^= g.byte() | 1;
        }
        if g.flag() {
            let tail_len = g.range(1, 64) as usize;
            let tail = g.bytes(tail_len);
            near.extend(tail);
        }
        for (label, cur) in [("random", random), ("near-identical", near)] {
            let full = xor_rle_encode(&base, &cur);
            for limit in 0..=full.len() + 2 {
                assert_eq!(
                    xor_rle_encode_within(&base, &cur, limit).as_ref(),
                    (full.len() <= limit).then_some(&full),
                    "seed {seed}, {label}: limit {limit}, full delta {} bytes",
                    full.len()
                );
            }
        }
    }
}

/// Forwards every call to the store below and keeps the trait's defaults
/// for the rest: it vouches for no digest on a load and takes none on a
/// store, so a [`DedupStore`] above it hashes every chunk it resolves and
/// the replicas below hash every payload they commit.
struct NoVouch(ReplicatedStore);

impl StableStorage for NoVouch {
    fn class(&self) -> StorageClass {
        self.0.class()
    }
    fn label(&self) -> String {
        self.0.label()
    }
    fn store(
        &mut self,
        key: &str,
        data: &[u8],
        c: &CostModel,
    ) -> Result<StoreReceipt, StorageError> {
        self.0.store(key, data, c)
    }
    fn load(&self, key: &str, c: &CostModel) -> Result<(Vec<u8>, u64), StorageError> {
        self.0.load(key, c)
    }
    fn delete(&mut self, key: &str) -> Result<(), StorageError> {
        self.0.delete(key)
    }
    fn list(&self) -> Vec<String> {
        self.0.list()
    }
    fn available(&self) -> bool {
        self.0.available()
    }
    fn used_bytes(&self) -> u64 {
        self.0.used_bytes()
    }
    fn on_node_failure(&mut self) {
        self.0.on_node_failure()
    }
    fn on_node_repair(&mut self) {
        self.0.on_node_repair()
    }
    fn on_power_down(&mut self) {
        self.0.on_power_down()
    }
}

/// What every node of `set` holds, key by key.
fn frames(set: &ReplicaSet) -> Vec<Vec<(String, Probe)>> {
    set.nodes()
        .iter()
        .map(|n| {
            n.keys()
                .into_iter()
                .map(|k| (k.clone(), n.probe(&k)))
                .collect()
        })
        .collect()
}

/// Dedup over `replicated(3,2)` takes the replicas' verified digests;
/// the same stack seen through [`NoVouch`] hashes instead. Both commit the
/// same histories (a replica sometimes down for a commit), the same random
/// damage lands on both replica sets — corrupted, dropped, torn and stale
/// frames, and chunks overwritten with other bytes — and nodes go down
/// for the read. Every image
/// must load as the bytes written or fail with the same typed error on
/// both sides, and the replicas must end holding the same frames.
#[test]
fn a_vouched_digest_never_turns_damage_into_bytes() {
    let cost = CostModel::circa_2005();
    for seed in 0..CASES {
        let mut g = Gen::new(0x0D16_E570 + seed);
        let histories: Vec<_> = (0..g.range(1, 3)).map(|_| arb_history(&mut g)).collect();
        let sets = [ReplicaSet::new(3), ReplicaSet::new(3)];
        let replicated =
            |set: &Arc<ReplicaSet>| ReplicatedStore::new(set.clone(), ReplicaConfig::new(3, 2));
        let mut stores = [
            DedupStore::new(Box::new(replicated(&sets[0]))),
            DedupStore::new(Box::new(NoVouch(replicated(&sets[1])))),
        ];
        let mut written = Vec::new();
        for (h, versions) in histories.iter().enumerate() {
            for (seq, v) in versions.iter().enumerate() {
                let key = ImageKey::new(format!("vouch/h{h}"), 1, seq as u64).to_string();
                let down = g.flag().then(|| g.range(0, 3) as usize);
                for (store, set) in stores.iter_mut().zip(&sets) {
                    if let Some(i) = down {
                        set.node(i).fail();
                    }
                    store.store(&key, v, &cost).unwrap();
                    if let Some(i) = down {
                        set.node(i).repair();
                    }
                }
                written.push((key, v.clone()));
            }
        }
        assert_eq!(
            frames(&sets[0]),
            frames(&sets[1]),
            "seed {seed}: a handed-down digest differs from the replica's own"
        );

        let keys: Vec<String> = sets[0].node(0).keys();
        for _ in 0..g.range(1, 16) {
            let key = &keys[g.range(0, keys.len() as u64) as usize];
            let i = g.range(0, 3) as usize;
            // A newer intact frame under an image key is a legitimate
            // overwrite; under a chunk's content address it is damage.
            let how = g.range(0, if key.starts_with("cas/") { 5 } else { 4 });
            let held = match sets[0].node(i).probe(key) {
                Probe::Valid(f) => Some((f.version, f.data.to_vec())),
                Probe::Torn { version } => Some((version, Vec::new())),
                Probe::Missing => None,
            };
            let other_len = g.range(1, 4_096) as usize;
            let other = g.bytes(other_len);
            let (version, mut data) = held.unwrap_or((1, Vec::new()));
            if data.is_empty() {
                data = other.clone();
            }
            let keep = g.range(0, data.len() as u64) as usize;
            for set in &sets {
                let node = set.node(i);
                match how {
                    0 => node.corrupt_key(key),
                    1 => node.drop_key(key),
                    // A newer write torn mid-frame: a prefix under the
                    // full payload's digest.
                    2 => node.put_torn(key, version + 1, &data, keep),
                    // A replica that missed the latest commit.
                    3 => node.put(key, version.saturating_sub(1), &other),
                    // An intact frame of the wrong bytes above the rest.
                    _ => node.put(key, version + 1, &other),
                }
            }
        }
        let down: Vec<usize> = (0..3).filter(|_| g.range(0, 4) == 0).collect();
        for set in &sets {
            for &i in &down {
                set.node(i).fail();
            }
        }

        for (key, v) in &written {
            let [a, b] = [0, 1].map(|side| stores[side].load(key, &cost).map(|(bytes, _)| bytes));
            assert_eq!(a, b, "seed {seed}: {key} differs with and without vouching");
            match a {
                Ok(bytes) => assert_eq!(&bytes, v, "seed {seed}: {key} loaded damaged bytes"),
                Err(e) => assert!(
                    matches!(
                        &e,
                        StorageError::MissingChunk { .. }
                            | StorageError::QuorumLost { .. }
                            | StorageError::CorruptManifest { .. }
                    ) || e == StorageError::NotFound(key.clone()),
                    "seed {seed}: {key} failed untyped: {e:?}"
                ),
            }
        }
        assert_eq!(
            frames(&sets[0]),
            frames(&sets[1]),
            "seed {seed}: read-repair diverged"
        );
    }
}
