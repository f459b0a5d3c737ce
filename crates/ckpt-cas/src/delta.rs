//! XOR-delta + run-length encoding between successive versions of an
//! object.
//!
//! Successive checkpoint images of one process lineage differ in few
//! pages; XOR against the previous version turns the unchanged majority
//! into zero bytes, and the RLE pass collapses the zero runs. The stream
//! is self-delimiting: a `u64` output length, then `(zero_run, literal_run,
//! literal bytes)` records with varint run lengths. Decoding XORs the
//! reconstructed stream back over the base (positions past the base's end
//! XOR against zero, so the delta also extends the object).
//!
//! A delta is only worth storing if it is small; [`xor_rle_encode_within`]
//! is the bounded form for that caller, giving up (`None`) as soon as the
//! delta is known to pass its limit, and returning the very bytes of
//! [`xor_rle_encode`] whenever it does not.

/// LEB128-style varint.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

fn get_varint(data: &[u8], at: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *data.get(*at)?;
        *at += 1;
        if shift >= 64 {
            return None;
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

/// Don't break a literal run for a zero run shorter than this — the two
/// varint headers would cost more than the zeros they elide.
const MIN_ZERO_RUN: usize = 4;

/// Encode `cur` as an XOR+RLE delta against `base`.
pub fn xor_rle_encode(base: &[u8], cur: &[u8]) -> Vec<u8> {
    xor_rle_encode_within(base, cur, usize::MAX).expect("no delta is longer than usize::MAX")
}

/// [`xor_rle_encode`] for a caller that only wants a delta of at most
/// `limit` bytes: `Some` of exactly the full delta when it fits, `None`
/// otherwise. A delta that cannot fit is abandoned as soon as the bytes it
/// must hold pass `limit` — a literal run is at least as long as the part
/// already scanned — so against a limit of half the object, a version that
/// shares little with its base costs about half a scan, not a whole scan
/// and a whole copy.
pub fn xor_rle_encode_within(base: &[u8], cur: &[u8], limit: usize) -> Option<Vec<u8>> {
    let x = |i: usize| cur[i] ^ base.get(i).copied().unwrap_or(0);
    let n = cur.len();
    let mut out = Vec::with_capacity(64);
    put_varint(&mut out, n as u64);
    let mut i = 0usize;
    while i < n {
        let zero_start = i;
        while i < n && x(i) == 0 {
            i += 1;
        }
        let zeros = i - zero_start;
        // This record costs at least its two varints and every literal
        // byte scanned below; what `limit` leaves for those literals:
        let budget = limit.checked_sub(out.len() + 2)?;
        // Literal run: until end, or until a zero run long enough to be
        // worth a record boundary.
        let lit_start = i;
        while i < n {
            if i - lit_start > budget {
                return None;
            }
            if x(i) == 0 {
                let mut j = i;
                while j < n && x(j) == 0 {
                    j += 1;
                }
                if j - i >= MIN_ZERO_RUN || j == n {
                    break;
                }
                i = j;
            } else {
                i += 1;
            }
        }
        put_varint(&mut out, zeros as u64);
        put_varint(&mut out, (i - lit_start) as u64);
        for k in lit_start..i {
            out.push(x(k));
        }
    }
    (out.len() <= limit).then_some(out)
}

/// Decode a delta produced by [`xor_rle_encode`] back into the full
/// object. Returns `None` on any malformed input (truncation, length
/// overrun) — the caller maps that to a typed corruption error.
pub(crate) fn xor_rle_decode(base: &[u8], delta: &[u8]) -> Option<Vec<u8>> {
    let mut at = 0usize;
    let n = usize::try_from(get_varint(delta, &mut at)?).ok()?;
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let zeros = usize::try_from(get_varint(delta, &mut at)?).ok()?;
        let lits = usize::try_from(get_varint(delta, &mut at)?).ok()?;
        if out.len() + zeros + lits > n || at + lits > delta.len() {
            return None;
        }
        for _ in 0..zeros {
            let i = out.len();
            out.push(base.get(i).copied().unwrap_or(0));
        }
        for k in 0..lits {
            let i = out.len();
            out.push(delta[at + k] ^ base.get(i).copied().unwrap_or(0));
        }
        at += lits;
    }
    if at != delta.len() {
        return None;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo(n: usize, seed: u64) -> Vec<u8> {
        let mut v = Vec::with_capacity(n);
        let mut x = seed;
        for _ in 0..n {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(seed | 1);
            v.push((x >> 33) as u8);
        }
        v
    }

    #[test]
    fn round_trips_arbitrary_pairs() {
        for (bn, cn, s) in [(0, 0, 1), (100, 100, 2), (100, 50, 3), (50, 100, 4), (0, 77, 5)] {
            let base = pseudo(bn, s);
            let cur = pseudo(cn, s + 100);
            let d = xor_rle_encode(&base, &cur);
            assert_eq!(xor_rle_decode(&base, &d).unwrap(), cur);
        }
    }

    #[test]
    fn near_identical_versions_compress_hard() {
        let base = pseudo(64 * 1024, 9);
        let mut cur = base.clone();
        cur[100] ^= 1;
        cur[40_000] ^= 0xff;
        let d = xor_rle_encode(&base, &cur);
        assert_eq!(xor_rle_decode(&base, &d).unwrap(), cur);
        assert!(d.len() < 64, "two changed bytes must encode tiny, got {}", d.len());
    }

    #[test]
    fn truncated_delta_is_detected() {
        let base = pseudo(1000, 2);
        let cur = pseudo(1000, 3);
        let d = xor_rle_encode(&base, &cur);
        for cut in [0, 1, d.len() / 2, d.len() - 1] {
            assert!(xor_rle_decode(&base, &d[..cut]).is_none(), "cut at {cut}");
        }
        let mut extended = d.clone();
        extended.push(0);
        assert!(xor_rle_decode(&base, &extended).is_none(), "trailing garbage");
    }
}
