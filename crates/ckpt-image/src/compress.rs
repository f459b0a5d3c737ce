//! Page-payload compression: zero-page elision and byte-level RLE.
//!
//! Scientific-application address spaces are full of zero pages (untouched
//! heap, zero-initialized arrays); eliding them is the cheapest data
//! reduction a checkpointer can apply, orthogonal to incremental
//! checkpointing. RLE catches the next-most-common pattern (constant
//! fills) at negligible CPU cost — appropriate for the paper's era, where
//! checkpoint compression had to compete with a 50 MB/s disk, not a
//! 5 GB/s one.
//!
//! Most pages of a dense working set are incompressible, so the RLE
//! attempt must lose cheaply: a vectorized count of byte transitions
//! bounds the number of runs from below, and a page the bound proves
//! incompressible is stored raw without running the encoder.

/// How a page payload is stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageEncoding {
    /// Raw bytes.
    Raw,
    /// Run-length encoded (pairs of `count, byte`, count ≥ 1, ≤ 255).
    Rle,
    /// All-zero page: no payload at all.
    Zero,
}

impl PageEncoding {
    pub fn tag(self) -> u8 {
        match self {
            PageEncoding::Raw => 0,
            PageEncoding::Rle => 1,
            PageEncoding::Zero => 2,
        }
    }

    pub fn from_tag(t: u8) -> Option<Self> {
        match t {
            0 => Some(PageEncoding::Raw),
            1 => Some(PageEncoding::Rle),
            2 => Some(PageEncoding::Zero),
            _ => None,
        }
    }
}

/// Reusable per-worker scratch space for page encoding. Holding the RLE
/// buffer across pages means each worker grows it once to steady state
/// instead of re-growing a fresh `Vec` for every page it encodes.
#[derive(Debug, Default)]
pub struct EncodeScratch {
    rle: Vec<u8>,
}

/// RLE-encode `data` into `out` (cleared first). Returns `false` if the
/// encoding would not be smaller, leaving `out` in an unspecified state.
///
/// Every run emits exactly 2 bytes, so once `out.len() + 2 >= data.len()`
/// no completion can come in under the raw size — the check at the top of
/// the loop bails before the next run is even scanned, which on
/// incompressible pages skips most of the byte-compare work the old
/// run-boundary check still paid for.
fn rle_encode_into(data: &[u8], out: &mut Vec<u8>) -> bool {
    out.clear();
    if rle_cannot_win(data) {
        return false;
    }
    let mut i = 0;
    while i < data.len() {
        if out.len() + 2 >= data.len() {
            return false;
        }
        let b = data[i];
        let mut run = 1usize;
        while i + run < data.len() && data[i + run] == b && run < 255 {
            run += 1;
        }
        out.push(run as u8);
        out.push(b);
        i += run;
    }
    true
}

/// True when the RLE encoding of `data` is provably no smaller than `data`,
/// which is exactly when [`rle_encode_into`] would give up.
///
/// Every run costs 2 bytes and the encoder gives up once `2·runs ≥ len`.
/// Every byte that differs from its predecessor starts a run, so
/// `runs ≥ transitions + 1`. Transitions are counted a block at a time
/// (a `u8` tally per block, which the compiler vectorizes) and the count
/// stops as soon as the bound is met: on random data that is about half
/// way through.
fn rle_cannot_win(data: &[u8]) -> bool {
    if data.is_empty() {
        return false;
    }
    let mut blocks = data.chunks(128).zip(data[1..].chunks(128));
    let mut transitions = 0usize;
    while 2 * (transitions + 1) < data.len() {
        let Some((a, b)) = blocks.next() else {
            return false;
        };
        transitions += a.iter().zip(b).fold(0u8, |n, (x, y)| n + u8::from(x != y)) as usize;
    }
    true
}

/// RLE-decode into a buffer of known decoded size.
fn rle_decode(encoded: &[u8], decoded_len: usize) -> Result<Vec<u8>, CompressError> {
    if !encoded.len().is_multiple_of(2) {
        return Err(CompressError::Malformed("odd RLE payload length"));
    }
    let mut out = Vec::with_capacity(decoded_len);
    for pair in encoded.chunks_exact(2) {
        let (run, b) = (pair[0] as usize, pair[1]);
        if run == 0 {
            return Err(CompressError::Malformed("zero-length RLE run"));
        }
        if out.len() + run > decoded_len {
            return Err(CompressError::Malformed("RLE overflows decoded length"));
        }
        out.resize(out.len() + run, b);
    }
    if out.len() != decoded_len {
        return Err(CompressError::Malformed("RLE underfills decoded length"));
    }
    Ok(out)
}

/// Errors from payload decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompressError {
    Malformed(&'static str),
}

impl std::fmt::Display for CompressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompressError::Malformed(m) => write!(f, "malformed compressed payload: {m}"),
        }
    }
}

impl std::error::Error for CompressError {}

/// True iff `data` is all zero bytes — word-at-a-time, since this scan runs
/// once per captured page and zero pages dominate sparse working sets.
fn is_zero_page(data: &[u8]) -> bool {
    let mut chunks = data.chunks_exact(8);
    chunks.all(|c| u64::from_le_bytes(c.try_into().unwrap()) == 0)
        && chunks.remainder().iter().all(|&b| b == 0)
}

/// Choose the best encoding for a page and produce its payload.
pub fn encode_page(data: &[u8]) -> (PageEncoding, Vec<u8>) {
    encode_page_with(data, &mut EncodeScratch::default())
}

/// [`encode_page`] with caller-provided scratch space. The RLE pass writes
/// into the scratch buffer; only a successful encoding is copied out, as an
/// exact-size allocation.
pub fn encode_page_with(data: &[u8], scratch: &mut EncodeScratch) -> (PageEncoding, Vec<u8>) {
    compressed(data, scratch).unwrap_or_else(|| (PageEncoding::Raw, data.to_vec()))
}

/// [`encode_page_with`] for a page the caller owns: a Raw payload is `data`
/// itself, moved rather than copied.
pub(crate) fn encode_owned_page_with(
    data: Vec<u8>,
    scratch: &mut EncodeScratch,
) -> (PageEncoding, Vec<u8>) {
    compressed(&data, scratch).unwrap_or((PageEncoding::Raw, data))
}

/// The Zero or RLE encoding of `data`, or `None` when it must be stored raw.
fn compressed(data: &[u8], scratch: &mut EncodeScratch) -> Option<(PageEncoding, Vec<u8>)> {
    if is_zero_page(data) {
        return Some((PageEncoding::Zero, Vec::new()));
    }
    rle_encode_into(data, &mut scratch.rle).then(|| (PageEncoding::Rle, scratch.rle.clone()))
}

/// Decode a page payload back to `page_size` bytes.
pub fn decode_page(
    enc: PageEncoding,
    payload: &[u8],
    page_size: usize,
) -> Result<Vec<u8>, CompressError> {
    match enc {
        PageEncoding::Zero => Ok(vec![0u8; page_size]),
        PageEncoding::Raw => {
            if payload.len() != page_size {
                return Err(CompressError::Malformed("raw payload wrong length"));
            }
            Ok(payload.to_vec())
        }
        PageEncoding::Rle => rle_decode(payload, page_size),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PS: usize = 4096;

    #[test]
    fn malformed_rle_rejected() {
        assert!(rle_decode(&[1], PS).is_err()); // odd length
        assert!(rle_decode(&[0, 5], PS).is_err()); // zero run
        assert!(rle_decode(&[255, 1], 10).is_err()); // overflow
        assert!(rle_decode(&[5, 1], PS).is_err()); // underfill
    }

    #[test]
    fn raw_wrong_length_rejected() {
        assert!(decode_page(PageEncoding::Raw, &[1, 2, 3], PS).is_err());
    }

    /// The textbook encoder: emit every run, then compare sizes once.
    fn reference_rle(data: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < data.len() {
            let b = data[i];
            let mut run = 1usize;
            while i + run < data.len() && data[i + run] == b && run < 255 {
                run += 1;
            }
            out.push(run as u8);
            out.push(b);
            i += run;
        }
        out
    }

    /// What [`encode_page`] must return, from the textbook encoder.
    fn reference_page(data: &[u8]) -> (PageEncoding, Vec<u8>) {
        if data.iter().all(|&b| b == 0) {
            return (PageEncoding::Zero, Vec::new());
        }
        let rle = reference_rle(data);
        if rle.len() < data.len() {
            (PageEncoding::Rle, rle)
        } else {
            (PageEncoding::Raw, data.to_vec())
        }
    }

    /// `len` bytes in exactly `runs` runs of near-equal length (`runs` at
    /// most `len`), alternating two non-zero bytes.
    fn with_runs(len: usize, runs: usize) -> Vec<u8> {
        (0..len)
            .map(|i| if (i * runs / len).is_multiple_of(2) { 0xA5 } else { 0x5A })
            .collect()
    }

    fn lcg_bytes(len: usize, seed: u32) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                (state >> 24) as u8
            })
            .collect()
    }

    /// Zero, constant, incompressible and mixed pages, pages whose runs
    /// cross 255 (3, 5 and 16 runs) or sit at the bound (2047 to 2049
    /// runs), and short buffers of every length up to 64.
    fn corpus() -> Vec<Vec<u8>> {
        let mut mixed = vec![0u8; PS];
        mixed[0..100].fill(7);
        mixed[2000..2100].copy_from_slice(&(0..100).map(|i| i as u8).collect::<Vec<_>>());
        let mut pages = vec![
            vec![0u8; PS],
            vec![0xABu8; PS],
            (0..PS).map(|i| (i * 131 + 7) as u8).collect(),
            mixed,
            lcg_bytes(PS, 1),
            lcg_bytes(PS, 2),
        ];
        for runs in [3, 5, 16, 2047, 2048, 2049] {
            pages.push(with_runs(PS, runs));
        }
        for len in 0..=64usize {
            pages.push(vec![0; len]);
            pages.push(vec![9; len]);
            pages.push(lcg_bytes(len, len as u32));
            for runs in [1, 2, len / 2, len.saturating_sub(1), len] {
                if runs > 0 {
                    pages.push(with_runs(len, runs));
                }
            }
        }
        pages
    }

    #[test]
    fn encoders_equal_the_textbook_encoder_and_round_trip() {
        let mut scratch = EncodeScratch::default();
        for (i, page) in corpus().iter().enumerate() {
            let want = reference_page(page);
            assert_eq!(encode_page(page), want, "page {i} (len {})", page.len());
            let back = decode_page(want.0, &want.1, page.len());
            assert_eq!(back.as_ref(), Ok(page), "page {i}, round trip");
            assert_eq!(
                encode_page_with(page, &mut scratch),
                want,
                "page {i}, scratch"
            );
            assert_eq!(
                encode_owned_page_with(page.clone(), &mut scratch),
                want,
                "page {i}, owned"
            );
        }
    }

    /// The bound never gives up on a page RLE would shrink, and on pages
    /// with no run past 255 (where runs = transitions + 1) it gives up on
    /// every page RLE would not: at 2048 runs of a page, not at 2047.
    #[test]
    fn the_bound_is_sound_and_tight_without_long_runs() {
        for (i, page) in corpus().iter().enumerate() {
            let runs = reference_rle(page).len() / 2;
            let loses = !page.is_empty() && 2 * runs >= page.len();
            if rle_cannot_win(page) {
                assert!(loses, "page {i}: bound gave up on a winning page");
            }
            let transitions = page.windows(2).filter(|w| w[0] != w[1]).count();
            if !page.is_empty() && runs == transitions + 1 {
                assert_eq!(
                    rle_cannot_win(page),
                    loses,
                    "page {i} ({runs} runs, len {})",
                    page.len()
                );
            }
        }
    }
}
