//! Page encoding in runs on a pool, byte-identical to the serial path.
//!
//! Page encoding is a pure function of page content, so encoding pages on
//! a pool and merging in page order gives exactly the serial record list.
//! The pool's unit of work is a *run*: consecutive items carrying at least
//! [`PAR_MIN_BYTES`] of payload, the least a pool task is worth. One task
//! per run keeps the per-task bookkeeping (a queue pop, a merge-board
//! place) off the per-page path. Capture encodes the frozen guest's pages
//! where they sit ([`encode_page_slices`]): a raw page is copied once, into
//! its record. The image body is written in the same runs
//! ([`crate::codec::encode_with_pool`]), each run CRC'd while it is hot and
//! the run CRCs folded with [`crate::crc::crc32_combine`].
//!
//! On a pool of width 1, and for a call under [`PAR_MIN_BYTES`] at any
//! width, the runs are encoded in order on the caller.

use crate::compress::{encode_owned_page_with, encode_page_with, EncodeScratch, PageEncoding};
use crate::format::PageRecord;
use ckpt_par::{Pool, PAR_MIN_BYTES};
use std::ops::Range;

/// Encode gathered `(page_no, data)` pairs into [`PageRecord`]s on the
/// pool, in page order. A page stored raw keeps its `data` as the payload
/// (moved, not copied).
pub fn encode_pages(pool: &Pool, pages: Vec<(u64, Vec<u8>)>) -> Vec<PageRecord> {
    encode_in_runs(pool, pages, encode_owned_page_with)
}

/// Encode `(page_no, data)` pairs borrowed from where the pages sit (a
/// frozen address space) into [`PageRecord`]s on the pool, in page order.
/// A page stored raw is copied once, into its record.
pub fn encode_page_slices(pool: &Pool, pages: Vec<(u64, &[u8])>) -> Vec<PageRecord> {
    encode_in_runs(pool, pages, encode_page_with)
}

fn encode_in_runs<D, F>(pool: &Pool, pages: Vec<(u64, D)>, encode: F) -> Vec<PageRecord>
where
    D: AsRef<[u8]> + Send,
    F: Fn(D, &mut EncodeScratch) -> (PageEncoding, Vec<u8>) + Sync,
{
    let sizes: Vec<usize> = pages.iter().map(|(_, data)| data.as_ref().len()).collect();
    let mut pages = pages.into_iter();
    let runs: Vec<Vec<(u64, D)>> = runs(&sizes)
        .into_iter()
        .map(|run| pages.by_ref().take(run.len()).collect())
        .collect();
    let encoded = pool.for_bytes(sizes.iter().sum()).par_map_ordered(
        runs,
        EncodeScratch::default,
        |scratch, _, run| {
            run.into_iter()
                .map(|(page_no, data)| {
                    let (enc, payload) = encode(data, scratch);
                    PageRecord {
                        page_no,
                        enc,
                        payload,
                    }
                })
                .collect::<Vec<_>>()
        },
    );
    encoded.into_iter().flatten().collect()
}

/// Cut items of the given byte sizes into runs of consecutive items, each
/// closed once it holds [`PAR_MIN_BYTES`] (the last may hold less).
pub(crate) fn runs(sizes: &[usize]) -> Vec<Range<usize>> {
    let mut runs = Vec::new();
    let (mut start, mut bytes) = (0, 0);
    for (i, size) in sizes.iter().enumerate() {
        bytes += size;
        if bytes >= PAR_MIN_BYTES {
            runs.push(start..i + 1);
            (start, bytes) = (i + 1, 0);
        }
    }
    if start < sizes.len() {
        runs.push(start..sizes.len());
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(seed: u64) -> Vec<u8> {
        // Mix of zero, constant-fill, and incompressible pages by seed.
        match seed % 3 {
            0 => vec![0u8; 4096],
            1 => vec![(seed >> 2) as u8; 4096],
            _ => (0..4096u64)
                .map(|i| (i.wrapping_mul(seed | 1) >> 5) as u8)
                .collect(),
        }
    }

    /// 97 pages (388 KiB, seven runs) cross `ckpt_par::PAR_MIN_BYTES`; 15
    /// pages stay under it. Both must equal the serial records at every
    /// width, owned or borrowed.
    #[test]
    fn run_encode_matches_serial_at_every_width() {
        for n in [97u64, 15, 0] {
            let gathered: Vec<(u64, Vec<u8>)> = (0..n).map(|p| (p, page(p))).collect();
            let want: Vec<PageRecord> = gathered
                .iter()
                .map(|(p, d)| PageRecord::capture(*p, d))
                .collect();
            for w in [1usize, 2, 4, 8] {
                let pool = Pool::new(w);
                assert_eq!(
                    encode_pages(&pool, gathered.clone()),
                    want,
                    "{n} pages, width {w}"
                );
                let slices = gathered.iter().map(|(p, d)| (*p, &d[..])).collect();
                assert_eq!(
                    encode_page_slices(&pool, slices),
                    want,
                    "{n} pages, slices, width {w}"
                );
            }
        }
    }

    #[test]
    fn runs_cover_every_item_once_and_close_at_the_gate() {
        let page = PAR_MIN_BYTES / 16;
        assert_eq!(runs(&[]), Vec::<Range<usize>>::new());
        assert_eq!(runs(&[page; 3]), vec![0..3]);
        assert_eq!(runs(&[page; 33]), vec![0..16, 16..32, 32..33]);
        assert_eq!(runs(&[0, PAR_MIN_BYTES, 0, 0]), vec![0..2, 2..4]);
        assert_eq!(runs(&[PAR_MIN_BYTES - 1, 1, 5]), vec![0..2, 2..3]);
    }
}
