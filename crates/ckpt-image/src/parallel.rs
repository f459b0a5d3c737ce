//! Page encoding in runs on a pool, byte-identical to the serial path.
//!
//! Page encoding is a pure function of page content, so encoding pages on
//! a pool and merging in page order gives exactly the serial result. The
//! pool's unit of work is a *run*: consecutive items carrying at least
//! [`PAR_MIN_BYTES`] of payload, the least a pool task is worth. One task
//! per run keeps the per-task bookkeeping (a queue pop, a merge-board
//! place) off the per-page path.
//!
//! A checkpoint encodes its image from the pages where they sit in the
//! frozen address space ([`encode_borrowed_pages`]), in two pool calls.
//! The first classifies each page of a run (Zero, RLE into the run's
//! arena, or Raw), which gives every record's length, so the output buffer
//! is sized exactly. The second writes each run's records into its own
//! slice of that buffer, a raw page straight from the guest, and CRCs the
//! slice while it is hot (`crate::codec`'s `encode_records`, which
//! [`crate::encode_with_pool`] shares). A guest byte is copied once on its
//! way into the image. [`page_records`], for a caller that wants the
//! records themselves, takes the same first pass.
//!
//! On a pool of width 1, and for a call under [`PAR_MIN_BYTES`] at any
//! width, the runs are encoded in order on the caller.

use crate::codec::{encode_records, RecordView};
use crate::compress::{classify_page, encode_owned_page_with, PageEncoding};
use crate::format::{CheckpointImage, PageRecord};
use ckpt_par::{Pool, PAR_MIN_BYTES};
use std::ops::Range;

/// Encode gathered `(page_no, data)` pairs into [`PageRecord`]s on the
/// pool, in page order. A page stored raw keeps its `data` as the payload
/// (moved, not copied).
pub fn encode_pages(pool: &Pool, pages: Vec<(u64, Vec<u8>)>) -> Vec<PageRecord> {
    let sizes: Vec<usize> = pages.iter().map(|(_, data)| data.len()).collect();
    let mut pages = pages.into_iter();
    let runs: Vec<Vec<(u64, Vec<u8>)>> = runs(&sizes)
        .into_iter()
        .map(|run| pages.by_ref().take(run.len()).collect())
        .collect();
    let encoded =
        pool.for_bytes(sizes.iter().sum())
            .par_map_ordered(runs, Vec::new, |rle, _, run| {
                run.into_iter()
                    .map(|(page_no, data)| {
                        let (enc, payload) = encode_owned_page_with(data, rle);
                        PageRecord {
                            page_no,
                            enc,
                            payload,
                        }
                    })
                    .collect::<Vec<_>>()
            });
    encoded.into_iter().flatten().collect()
}

/// The [`PageRecord`]s of `(page_no, data)` pairs borrowed from where the
/// pages sit (a frozen address space), encoded on the pool, in page order;
/// with `compress` off every page is Raw. A raw page is copied once, into
/// its record.
pub fn page_records(pool: &Pool, pages: &[(u64, &[u8])], compress: bool) -> Vec<PageRecord> {
    let runs = classify(pool, pages, compress, |run| {
        run.records()
            .map(|r| PageRecord {
                page_no: r.page_no,
                enc: r.enc,
                payload: r.payload.to_vec(),
            })
            .collect::<Vec<_>>()
    });
    runs.into_iter().flatten().collect()
}

/// The image bytes of `state`, which carries no page records, with
/// `pages` encoded as its records: byte-identical to [`crate::encode`] of
/// `state` with the records [`page_records`] gives, at every width.
/// No page record is built: a raw page is copied once, from where it sits
/// into the image.
pub fn encode_borrowed_pages(
    state: &CheckpointImage,
    pages: &[(u64, &[u8])],
    compress: bool,
    pool: &Pool,
) -> Vec<u8> {
    assert!(state.pages.is_empty(), "the image's pages are `pages`");
    let runs = classify(pool, pages, compress, |run| run);
    encode_records(state, pages.len(), &runs, Classified::records, pool)
}

/// The first pass: `pages` classified in runs on the pool, each run handed
/// to `then` on its worker.
fn classify<'a, R: Send>(
    pool: &Pool,
    pages: &'a [(u64, &'a [u8])],
    compress: bool,
    then: impl Fn(Classified<'a>) -> R + Sync,
) -> Vec<R> {
    let sizes: Vec<usize> = pages.iter().map(|(_, data)| data.len()).collect();
    let runs: Vec<&[(u64, &[u8])]> = runs(&sizes).into_iter().map(|run| &pages[run]).collect();
    pool.for_bytes(sizes.iter().sum()).par_map_ordered(
        runs,
        || (),
        |_, _, run| then(Classified::new(run, compress)),
    )
}

/// One run of pages after the first pass.
struct Classified<'a> {
    pages: &'a [(u64, &'a [u8])],
    /// Each page's encoding, and where its RLE payload ends in `arena`.
    encs: Vec<(PageEncoding, usize)>,
    /// The run's RLE payloads, in page order.
    arena: Vec<u8>,
}

impl<'a> Classified<'a> {
    fn new(pages: &'a [(u64, &'a [u8])], compress: bool) -> Self {
        let mut arena = Vec::new();
        let encs = pages
            .iter()
            .map(|(_, data)| (classify_page(data, compress, &mut arena), arena.len()))
            .collect();
        Classified { pages, encs, arena }
    }

    fn records(&self) -> impl Iterator<Item = RecordView<'_>> {
        let mut start = 0;
        self.pages
            .iter()
            .zip(&self.encs)
            .map(move |(&(page_no, data), &(enc, end))| {
                let payload = match enc {
                    PageEncoding::Raw => data,
                    PageEncoding::Rle => &self.arena[start..end],
                    PageEncoding::Zero => &[],
                };
                start = end;
                RecordView {
                    page_no,
                    enc,
                    payload,
                }
            })
    }
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
    use crate::codec::{encode, tests::sample_image};

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
    /// pages stay under it. The second set runs zero, RLE and raw pages in
    /// stretches of 20, so a run of records is all 17-byte zero records,
    /// or all raw, or straddles both. At every width the owned and the
    /// borrowed records must equal the serial ones, and the image
    /// [`encode_borrowed_pages`] writes must equal [`encode`] of them,
    /// compressed or not.
    #[test]
    fn run_encode_matches_serial_at_every_width() {
        let mixed = (0..97u64).map(|p| (p, page(p)));
        let stretches = (0..150u64).map(|p| (p * 3, page(p / 20)));
        let sets: [Vec<(u64, Vec<u8>)>; 4] = [
            mixed.clone().collect(),
            mixed.take(15).collect(),
            Vec::new(),
            stretches.collect(),
        ];
        for gathered in sets {
            let n = gathered.len();
            let slices: Vec<(u64, &[u8])> = gathered.iter().map(|(p, d)| (*p, &d[..])).collect();
            let want: Vec<PageRecord> = gathered
                .iter()
                .map(|(p, d)| PageRecord::capture(*p, d))
                .collect();
            let raw: Vec<PageRecord> = gathered
                .iter()
                .map(|(p, d)| PageRecord {
                    page_no: *p,
                    enc: PageEncoding::Raw,
                    payload: d.clone(),
                })
                .collect();
            let mut state = sample_image();
            state.pages.clear();
            let image = |pages: &[PageRecord]| {
                let mut img = state.clone();
                img.pages = pages.to_vec();
                encode(&img)
            };
            let (want_bytes, raw_bytes) = (image(&want), image(&raw));
            for w in [1usize, 2, 4, 8] {
                let pool = Pool::new(w);
                assert_eq!(
                    encode_pages(&pool, gathered.clone()),
                    want,
                    "{n} pages, width {w}"
                );
                assert_eq!(
                    page_records(&pool, &slices, true),
                    want,
                    "{n} pages, slices, width {w}"
                );
                assert_eq!(
                    page_records(&pool, &slices, false),
                    raw,
                    "{n} pages, slices, uncompressed, width {w}"
                );
                assert!(
                    encode_borrowed_pages(&state, &slices, true, &pool) == want_bytes,
                    "{n} pages, image, width {w}"
                );
                assert!(
                    encode_borrowed_pages(&state, &slices, false, &pool) == raw_bytes,
                    "{n} pages, uncompressed image, width {w}"
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
