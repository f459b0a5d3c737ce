//! Parallel page encoding and chunked CRC, byte-identical to the serial
//! path.
//!
//! Two facts make the image pipeline parallelizable without changing a
//! single output byte:
//!
//! * page encoding is a pure function of page content — encoding pages on
//!   a pool and merging in page order ([`Pool::par_map_ordered`] /
//!   [`Pool::pipeline_ordered`]) gives exactly the serial record list;
//! * CRC-32 is linear over GF(2) — chunks hashed independently combine
//!   via [`crate::crc::crc32_combine`] into the one-shot CRC of the whole
//!   buffer.
//!
//! On a pool of width 1, and for a call under [`ckpt_par::PAR_MIN_BYTES`]
//! at any width, every helper here degenerates to the pre-existing serial
//! code path.

use crate::compress::EncodeScratch;
use crate::crc::{crc32, crc32_combine, Crc32};
use crate::format::PageRecord;
use ckpt_par::Pool;
use simos::mem::PAGE_SIZE;

/// Encode gathered `(page_no, data)` pairs into [`PageRecord`]s on the
/// pool, merged in submission (page) order. Each worker reuses one
/// [`EncodeScratch`] across all pages it encodes.
pub fn encode_pages(pool: &Pool, pages: Vec<(u64, Vec<u8>)>) -> Vec<PageRecord> {
    let moved = pages.iter().map(|(_, data)| data.len()).sum();
    let call = pool.for_bytes(moved);
    call.par_map_ordered(pages, EncodeScratch::new, |scratch, _i, (page_no, data)| {
        PageRecord::capture_with(page_no, &data, scratch)
    })
}

/// Pipelined capture of `pages` pages: `feeder` runs on the caller thread
/// pushing `(page_no, data)` pairs (the gather stage — typically copying
/// pages out of a frozen guest address space) while pool workers compress
/// them (the encode stage). The two stages overlap; records come back in
/// feed order.
pub fn capture_pages_pipelined<G>(pool: &Pool, pages: usize, feeder: G) -> Vec<PageRecord>
where
    G: FnMut(&mut dyn FnMut((u64, Vec<u8>))),
{
    let call = pool.for_bytes(pages * PAGE_SIZE as usize);
    call.pipeline_ordered(feeder, EncodeScratch::new, |scratch, _i, (page_no, data)| {
        PageRecord::capture_with(page_no, &data, scratch)
    })
}

/// Chunk size for parallel CRC. Large enough that per-chunk overhead
/// (combine is ~18 GF(2) matrix squarings) is noise, small enough to
/// load-balance across workers for megabyte-scale images.
const CRC_CHUNK: usize = 256 * 1024;

/// CRC-32 of `data` computed in `CRC_CHUNK` pieces on the pool and
/// recombined — bit-identical to [`crc32`] at every width.
pub fn crc32_par(pool: &Pool, data: &[u8]) -> u32 {
    if data.len() <= CRC_CHUNK {
        return crc32(data);
    }
    let ranges: Vec<(usize, usize)> = (0..data.len())
        .step_by(CRC_CHUNK)
        .map(|lo| (lo, (lo + CRC_CHUNK).min(data.len())))
        .collect();
    let chunks = pool.for_bytes(data.len()).par_map_ordered(
        ranges,
        || (),
        |_, _, (lo, hi)| {
            let mut c = Crc32::new();
            c.update(&data[lo..hi]);
            (c.finalize(), (hi - lo) as u64)
        },
    );
    let mut acc = crc32(&[]);
    for (crc, len) in chunks {
        acc = crc32_combine(acc, crc, len);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::{encode_page, encode_page_with};

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

    /// 97 pages (388 KiB) cross `ckpt_par::PAR_MIN_BYTES`; 15 pages stay
    /// under it. Both must equal the serial records at every width.
    #[test]
    fn parallel_page_encode_matches_serial_at_every_width() {
        for n in [97u64, 15] {
            let gathered: Vec<(u64, Vec<u8>)> = (0..n).map(|p| (p, page(p))).collect();
            let want: Vec<PageRecord> = gathered
                .iter()
                .map(|(p, d)| PageRecord::capture(*p, d))
                .collect();
            for w in [1usize, 2, 4, 8] {
                let pool = Pool::new(w);
                assert_eq!(encode_pages(&pool, gathered.clone()), want, "{n} pages, width {w}");
                let piped = capture_pages_pipelined(&pool, gathered.len(), |push| {
                    for (p, d) in &gathered {
                        push((*p, d.clone()));
                    }
                });
                assert_eq!(piped, want, "{n} pages, pipelined, width {w}");
            }
        }
    }

    /// Three full CRC chunks and a tail: 780 KiB, past
    /// `ckpt_par::PAR_MIN_BYTES`, so wide pools hash the chunks in
    /// parallel.
    #[test]
    fn crc32_par_matches_serial() {
        let data: Vec<u8> = (0..3 * CRC_CHUNK + 12345)
            .map(|i| (i as u32).wrapping_mul(2654435761) as u8)
            .collect();
        let want = crc32(&data);
        for w in [1usize, 2, 4, 8] {
            let pool = Pool::new(w);
            assert_eq!(crc32_par(&pool, &data), want, "width {w}");
        }
        // Small inputs take the serial path but must agree too.
        let small = b"hello, checkpoint";
        assert_eq!(crc32_par(&Pool::new(8), small), crc32(small));
    }

    #[test]
    fn scratch_encode_agrees_with_plain_encode() {
        let mut scratch = EncodeScratch::new();
        for s in 0..24u64 {
            let d = page(s);
            assert_eq!(encode_page_with(&d, &mut scratch), encode_page(&d), "seed {s}");
        }
    }
}
