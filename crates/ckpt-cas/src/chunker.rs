//! Content-defined chunking with a gear rolling hash.
//!
//! Fixed-size chunking defeats dedup the moment one byte is inserted —
//! every later chunk boundary shifts. Content-defined boundaries are
//! chosen where a rolling hash of the recent window hits a mask, so they
//! re-synchronize after an edit and identical content re-chunks
//! identically wherever it appears. Boundary selection is strictly
//! sequential (it is a scan, and determinism demands one answer); only
//! the per-chunk digests fan out on the [`ckpt_par`] pool, merged in
//! chunk order, so the result is byte-for-byte identical at any pool
//! width.

use ckpt_par::Pool;
use ckpt_storage::digest64;
use simos::apps::mix64;

/// Chunking parameters: minimum chunk size, average-size exponent
/// (boundary probability `2^-avg_bits` per byte once past `min`), and a
/// hard maximum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkParams {
    /// No boundary before this many bytes (also the floor for the final
    /// chunk, which may be shorter only at end of input).
    pub(crate) min: usize,
    /// Expected chunk size is roughly `min + 2^avg_bits` bytes.
    pub(crate) avg_bits: u32,
    /// Forced boundary at this many bytes.
    pub(crate) max: usize,
}

impl ChunkParams {
    /// Defaults tuned for page-image payloads: 1 KiB min / ~5 KiB avg /
    /// 16 KiB max, a few chunks per 4 KiB-page run.
    pub const DEFAULT: ChunkParams = ChunkParams { min: 1024, avg_bits: 12, max: 16384 };

    /// Coarse parameters for fault-matrix runs: fewer chunks per object
    /// keeps the number of per-chunk crash sites (and matrix cells)
    /// bounded.
    pub const COARSE: ChunkParams = ChunkParams { min: 8192, avg_bits: 14, max: 65536 };
}

impl Default for ChunkParams {
    fn default() -> Self {
        Self::DEFAULT
    }
}

/// One chunk of an object: `data[offset..offset + len]`.
///
/// Public because [`split_and_digest`] returns it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkSpan {
    pub(crate) offset: usize,
    pub(crate) len: usize,
}

/// The gear table: one pseudo-random 64-bit word per byte value, fixed at
/// compile time so chunk boundaries are stable across runs and builds.
const GEAR: [u64; 256] = {
    let mut t = [0u64; 256];
    let mut i = 0;
    while i < 256 {
        t[i] = mix64(i as u64 ^ 0x434B_5054_4341_5344);
        i += 1;
    }
    t
};

/// Split `data` into content-defined spans. Concatenated spans cover
/// `data` exactly, in order. Empty input yields no spans.
pub(crate) fn split(data: &[u8], p: &ChunkParams) -> Vec<ChunkSpan> {
    assert!(p.min >= 1 && p.max >= p.min, "degenerate chunk params");
    let mask: u64 = (1u64 << p.avg_bits) - 1;
    let mut spans = Vec::new();
    let mut start = 0usize;
    let mut h: u64 = 0;
    let mut i = 0usize;
    while i < data.len() {
        h = (h << 1).wrapping_add(GEAR[data[i] as usize]);
        i += 1;
        let len = i - start;
        if (len >= p.min && (h & mask) == mask) || len >= p.max {
            spans.push(ChunkSpan { offset: start, len });
            start = i;
            h = 0;
        }
    }
    if start < data.len() {
        spans.push(ChunkSpan { offset: start, len: data.len() - start });
    }
    spans
}

/// Chunks one pool task digests.
const DIGEST_RUN: usize = 16;

/// Split and digest: boundaries found serially, per-chunk [`digest64`]s
/// computed on `pool` — a run of chunks per task — with ordered merge (on
/// the caller alone for an input under
/// [`ckpt_par::PAR_MIN_BYTES`]). Returns `(span, digest)` in chunk order —
/// identical output at any pool width.
///
/// Public for ckptbench (`benchmark/src/replay.rs`).
pub fn split_and_digest(data: &[u8], p: &ChunkParams, pool: &Pool) -> Vec<(ChunkSpan, u64)> {
    let spans = split(data, p);
    let runs: Vec<&[ChunkSpan]> = spans.chunks(DIGEST_RUN).collect();
    let digests = pool.for_bytes(data.len()).par_map_ordered(runs, || (), |_, _, run| {
        run.iter()
            .map(|s| digest64(&data[s.offset..s.offset + s.len]))
            .collect::<Vec<u64>>()
    });
    spans.iter().copied().zip(digests.into_iter().flatten()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo_bytes(n: usize, seed: u64) -> Vec<u8> {
        let mut v = Vec::with_capacity(n);
        let mut x = seed;
        while v.len() < n {
            x = mix64(x);
            v.extend_from_slice(&x.to_le_bytes());
        }
        v.truncate(n);
        v
    }

    #[test]
    fn spans_cover_input_exactly() {
        let data = pseudo_bytes(100_000, 7);
        let p = ChunkParams::DEFAULT;
        let spans = split(&data, &p);
        let mut at = 0;
        for s in &spans {
            assert_eq!(s.offset, at);
            assert!(s.len <= p.max);
            at += s.len;
        }
        assert_eq!(at, data.len());
        // Every span except possibly the last respects the minimum.
        for s in &spans[..spans.len() - 1] {
            assert!(s.len >= p.min);
        }
    }

    #[test]
    fn boundaries_resync_after_insertion() {
        let base = pseudo_bytes(80_000, 11);
        let mut edited = base.clone();
        edited.splice(1000..1000, [0xAAu8; 17]);
        let p = ChunkParams::DEFAULT;
        let a: std::collections::HashSet<u64> = split(&base, &p)
            .iter()
            .map(|s| digest64(&base[s.offset..s.offset + s.len]))
            .collect();
        let b: Vec<u64> = split(&edited, &p)
            .iter()
            .map(|s| digest64(&edited[s.offset..s.offset + s.len]))
            .collect();
        let shared = b.iter().filter(|d| a.contains(d)).count();
        assert!(
            shared * 2 > b.len(),
            "most chunks must survive a 17-byte insertion ({shared}/{})",
            b.len()
        );
    }

    /// 200,000 bytes: past `ckpt_par::PAR_MIN_BYTES`, so wide pools spread
    /// the digest runs.
    #[test]
    fn digest_fanout_is_width_invariant() {
        let data = pseudo_bytes(200_000, 3);
        let p = ChunkParams::DEFAULT;
        let serial = split_and_digest(&data, &p, &Pool::new(1));
        for w in [2, 4, 8] {
            assert_eq!(serial, split_and_digest(&data, &p, &Pool::new(w)));
        }
    }

    #[test]
    fn empty_input_has_no_spans() {
        assert!(split(&[], &ChunkParams::DEFAULT).is_empty());
    }
}
