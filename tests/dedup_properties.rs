//! Property tests on the content-addressed dedup store: any random
//! history of image versions written through a [`DedupStore`] must (a)
//! read back byte-identical — with identical receipts and identical
//! counter trajectories — no matter how wide the chunking pool is, and
//! (b) survive any order of deletions: the refcounted GC may only ever
//! free chunks no surviving manifest references, so every key that is
//! still stored loads bit-exact after every delete, and dropping the last
//! key drains the chunk index to empty (no leaks either). The store's
//! delta is tried against a bound; the bounded encoder must give the full
//! delta or nothing.
//!
//! Cases are generated deterministically by [`common::Gen`]; a failing
//! seed reproduces directly.

mod common;

use ckpt_restart::cas::delta::{xor_rle_encode, xor_rle_encode_within};
use ckpt_restart::cas::{CasStats, ChunkParams, DedupStore};
use ckpt_restart::par::Pool;
use ckpt_restart::storage::{ImageKey, LocalDisk, StableStorage};
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
