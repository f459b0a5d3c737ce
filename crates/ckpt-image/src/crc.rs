//! CRC-32 (IEEE 802.3 polynomial) for image integrity.
//!
//! Checkpoint data that restores silently wrong is worse than a failed
//! restart — every image carries a trailing CRC over its entire encoding,
//! and the reader refuses images whose CRC does not match. Every
//! checkpointed page flows through here twice, once when its image is
//! written and once when a restart reads it, and both happen while the
//! process is frozen.
//!
//! [`crc32`] is the one entry point. On an x86-64 CPU with PCLMULQDQ and
//! SSE4.1 (detected at run time) it folds the input with carry-less
//! multiplication, the construction of Intel's "Fast CRC Computation for
//! Generic Polynomials Using PCLMULQDQ" used by zlib and Linux's
//! `crc32-pclmul`: four 128-bit lanes fold 64 bytes a step, the lanes fold
//! into one, further 16-byte blocks fold into it, and the last 128 bits
//! reduce to 64 and then, by Barrett reduction, to the 32-bit CRC. Bytes
//! after the last whole 16-byte block, and all input on other CPUs or
//! shorter than 64 bytes, go through slicing-by-8: eight compile-time
//! tables consume 8 bytes a step, bit-identical to the byte-at-a-time
//! Sarwate loop. Both paths give the same CRC; the tests hold each to the
//! bitwise definition.
//!
//! The fold constants are not tabulated by hand: each is `x^n mod P` in
//! the CRC's reflected bit order, computed at compile time, where `n` is
//! the distance in bits a lane is moved forward (a 64-byte step moves the
//! high and low halves of a lane by 4·128 ± 32 bits, a 16-byte fold by
//! 128 ± 32, the 128 → 64 reduction by 64). The Barrett step multiplies by
//! `μ = ⌊x^64 / P⌋` and by `P` itself.
//!
//! [`crc32_combine`] joins the CRCs of two adjacent pieces without reading
//! either again, so an image body can be CRC'd run by run on a pool as it
//! is written. It costs one GF(2) multiplication per set bit of the
//! length, over a 32-entry table built at compile time.

const POLY: u32 = 0xEDB8_8320;

/// Build the 8 × 256-entry slicing tables at compile time. `TABLES[0]` is
/// the classic Sarwate table; `TABLES[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// One-shot CRC-32 of a buffer: folded by carry-less multiplication from
/// 64 bytes on where the CPU has PCLMULQDQ and SSE4.1, slicing-by-8
/// otherwise and for the bytes after the last 16-byte block.
pub fn crc32(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= 64
        && is_x86_feature_detected!("pclmulqdq")
        && is_x86_feature_detected!("sse4.1")
    {
        let (blocks, tail) = data.split_at(data.len() & !15);
        #[allow(unsafe_code)]
        // SAFETY: `clmul::fold` is safe code whose only requirement is
        // the target features it is compiled for, PCLMULQDQ and SSE4.1,
        // and both were detected on this CPU just above.
        let state = unsafe { clmul::fold(!0, blocks) };
        return !slicing_by_8(state, tail);
    }
    !slicing_by_8(!0, data)
}

/// Advance the CRC register `c` (the CRC before its final inversion)
/// over `data`, 8 bytes a step, and the last `len % 8` a byte at a time.
fn slicing_by_8(mut c: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes(chunk[0..4].try_into().unwrap()) ^ c;
        let hi = u32::from_le_bytes(chunk[4..8].try_into().unwrap());
        c = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][((lo >> 24) & 0xFF) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][((hi >> 24) & 0xFF) as usize];
    }
    for &b in chunks.remainder() {
        c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// The carry-less-multiplication fold. Everything here is safe code; what
/// makes a call `unsafe` is only that the CPU must have the target
/// features it is compiled for.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    use super::POLY;

    /// A 64-byte step: low half × `x^(4·128+32)`, high × `x^(4·128−32)`.
    const K1: i64 = fold_constant(4 * 128 + 32);
    const K2: i64 = fold_constant(4 * 128 - 32);
    /// A 16-byte fold, and the first half of the 128 → 64 reduction.
    const K3: i64 = fold_constant(128 + 32);
    const K4: i64 = fold_constant(128 - 32);
    /// The second half of the 128 → 64 reduction.
    const K5: i64 = fold_constant(64);
    /// `P` with its `x^32` term, reflected: the Barrett step's divisor.
    const P: i64 = ((POLY as i64) << 1) | 1;
    const MU: i64 = barrett_mu();

    /// `x^n mod P` in the reflected bit order, shifted left by one: the
    /// 33-bit form in which PCLMULQDQ multiplies a reflected lane by it.
    const fn fold_constant(n: u32) -> i64 {
        let mut p = 1u32 << 31;
        let mut i = 0;
        while i < n {
            p = if p & 1 != 0 { (p >> 1) ^ POLY } else { p >> 1 };
            i += 1;
        }
        (p as i64) << 1
    }

    /// Barrett's `μ = ⌊x^64 / P⌋`, 33 bits, reflected: long division of
    /// `x^64` by `P` in the natural bit order, then reversed.
    const fn barrett_mu() -> i64 {
        let p = (1u128 << 32) | POLY.reverse_bits() as u128;
        let mut rem = 1u128 << 64;
        let mut q = 0u64;
        let mut i = 64;
        while i >= 32 {
            if rem >> i & 1 != 0 {
                rem ^= p << (i - 32);
                q |= 1 << (i - 32);
            }
            i -= 1;
        }
        (q.reverse_bits() >> 31) as i64
    }

    /// 16 little-endian bytes as one lane; the compiler makes this one
    /// unaligned load.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn load(b: &[u8]) -> __m128i {
        let lo = u64::from_le_bytes(b[..8].try_into().unwrap());
        let hi = u64::from_le_bytes(b[8..16].try_into().unwrap());
        _mm_set_epi64x(hi as i64, lo as i64)
    }

    /// `acc` moved forward by the distance `k` encodes, plus `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold16(acc: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(acc, k);
        let hi = _mm_clmulepi64_si128::<0x11>(acc, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// Advance the CRC register `crc` over `data`, whose length is a
    /// multiple of 16 and at least 64.
    ///
    /// # Safety
    ///
    /// Called from code not compiled for PCLMULQDQ and SSE4.1, the caller
    /// must have checked that the CPU has both.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn fold(crc: u32, data: &[u8]) -> u32 {
        debug_assert!(data.len() >= 64 && data.len().is_multiple_of(16));
        let (first, rest) = data.split_at(64);
        let mut lanes: [__m128i; 4] = std::array::from_fn(|i| load(&first[16 * i..]));
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(crc as i32));

        let k1k2 = _mm_set_epi64x(K2, K1);
        let mut blocks = rest.chunks_exact(64);
        for block in &mut blocks {
            for (i, lane) in lanes.iter_mut().enumerate() {
                *lane = fold16(*lane, k1k2, load(&block[16 * i..]));
            }
        }

        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = lanes[0];
        for &lane in &lanes[1..] {
            x = fold16(x, k3k4, lane);
        }
        for block in blocks.remainder().chunks_exact(16) {
            x = fold16(x, k3k4, load(block));
        }

        // 128 → 64 bits: the low half moves by x^96 onto the high half,
        // then the low 32 bits of that by x^64 onto the rest.
        let low32 = _mm_setr_epi32(!0, 0, !0, 0);
        x = _mm_xor_si128(
            _mm_srli_si128::<8>(x),
            _mm_clmulepi64_si128::<0x10>(x, k3k4),
        );
        let k5 = _mm_set_epi64x(0, K5);
        x = _mm_xor_si128(
            _mm_srli_si128::<4>(x),
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), k5),
        );

        // Barrett: q = ⌊x / P⌋ by μ, then x − q·P leaves the CRC in bits
        // 32..64.
        let pmu = _mm_set_epi64x(MU, P);
        let q = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), pmu);
        let qp = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(q, low32), pmu);
        _mm_extract_epi32::<1>(_mm_xor_si128(x, qp)) as u32
    }
}

// ---------------------------------------------------------------------
// CRC combination, the primitive that lets the image CRC be computed in
// pieces: pieces are hashed independently (each while its bytes are still
// in cache) and `crc32_combine` merges them into the exact CRC of the
// concatenation.
// ---------------------------------------------------------------------

/// `a · b mod P` over GF(2), both in the reflected bit order of the CRC
/// (bit 31 is `x^0`). `a` must be non-zero.
const fn multmodp(a: u32, mut b: u32) -> u32 {
    let mut m = 1u32 << 31;
    let mut p = 0u32;
    loop {
        if a & m != 0 {
            p ^= b;
            if a & (m - 1) == 0 {
                return p;
            }
        }
        m >>= 1;
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
    }
}

/// `X2N[k]` is `x^(2^k) mod P`, built by squaring from `x^1`.
const fn build_x2n() -> [u32; 32] {
    let mut table = [1u32 << 30; 32];
    let mut k = 1;
    while k < 32 {
        table[k] = multmodp(table[k - 1], table[k - 1]);
        k += 1;
    }
    table
}

static X2N: [u32; 32] = build_x2n();

/// `x^(n·2^k) mod P`. The multiplicative order of `x` modulo `P` divides
/// `2^32 − 1`, so `x^(2^(k+32)) = x^(2^k)` and the table index wraps.
fn x2nmodp(mut n: u64, mut k: usize) -> u32 {
    let mut p = 1u32 << 31;
    while n != 0 {
        if n & 1 != 0 {
            p = multmodp(X2N[k & 31], p);
        }
        n >>= 1;
        k += 1;
    }
    p
}

/// Combine two CRC-32 values: given `crc1 = crc32(A)` and
/// `crc2 = crc32(B)`, returns `crc32(A ‖ B)` where `len2 = B.len()`.
///
/// `crc1` is advanced through `len2` zero bytes by one multiplication with
/// `x^(8·len2) mod P`, itself a product of at most 64 entries of a
/// compile-time table of `x^(2^k) mod P` (zlib's construction), then xor'd
/// with `crc2`. The pre/post conditioning of the two inputs cancels
/// exactly, so the result is bit-identical to hashing the concatenated
/// buffer in one pass.
pub fn crc32_combine(crc1: u32, crc2: u32, len2: u64) -> u32 {
    multmodp(x2nmodp(len2, 3), crc1) ^ crc2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard test vector: CRC32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    /// The bitwise definition of the CRC: no table, no fold.
    fn reference(data: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in data {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { (c >> 1) ^ POLY } else { c >> 1 };
            }
        }
        !c
    }

    /// The dispatched `crc32` (the fold, on a CPU that has it) and the
    /// slicing path, called directly so it stays tested on such CPUs,
    /// against the bitwise reference: every length up to 1 KiB (under the
    /// fold's 64-byte floor, each 16-byte tail, each count of 64-byte
    /// steps up to 16), one 64 KiB image run ± 1 and 1 MiB + 5, each at
    /// every start offset in 0..16.
    #[test]
    fn sliced_update_matches_byte_at_a_time() {
        let buf: Vec<u8> = (0..(1u32 << 20) + 5 + 16)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        for len in (0..=1024).chain([(1 << 16) - 1, 1 << 16, (1 << 16) + 1, (1 << 20) + 5]) {
            for offset in 0..16 {
                let data = &buf[offset..offset + len];
                let want = reference(data);
                assert_eq!(crc32(data), want, "crc32, len {len} offset {offset}");
                assert_eq!(
                    !slicing_by_8(!0, data),
                    want,
                    "slicing, len {len} offset {offset}"
                );
            }
        }
    }

    /// Pieces whose lengths straddle the fold's 16- and 64-byte
    /// boundaries, CRC'd apart and combined, give the CRC of the whole.
    #[test]
    fn combine_is_associative_over_many_chunks() {
        let data: Vec<u8> = (0..=255u8).cycle().take(30_000).collect();
        let lens = [
            0, 1, 15, 16, 17, 63, 64, 65, 79, 80, 127, 128, 129, 777, 4111,
        ];
        let mut acc = crc32(&[]);
        let mut rest = &data[..];
        for &len in lens.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (piece, after) = rest.split_at(len.min(rest.len()));
            acc = crc32_combine(acc, crc32(piece), piece.len() as u64);
            rest = after;
        }
        assert_eq!(acc, reference(&data));
    }

    /// The GF(2) matrix-squaring combine this crate used before, kept as
    /// the reference the table construction must agree with: the
    /// one-zero-bit operator, squared three times to one zero byte, is
    /// applied once per set bit of `len2` and squared once per bit.
    fn matrix_combine(mut crc1: u32, crc2: u32, mut len2: u64) -> u32 {
        let times = |mat: &[u32; 32], vec: u32| {
            (0..32)
                .filter(|i| vec >> i & 1 != 0)
                .fold(0, |sum, i| sum ^ mat[i])
        };
        let square = |mat: &[u32; 32]| std::array::from_fn(|n| times(mat, mat[n]));
        let mut op: [u32; 32] = std::array::from_fn(|n| if n == 0 { POLY } else { 1 << (n - 1) });
        for _ in 0..3 {
            op = square(&op);
        }
        while len2 != 0 {
            if len2 & 1 != 0 {
                crc1 = times(&op, crc1);
            }
            op = square(&op);
            len2 >>= 1;
        }
        crc1 ^ crc2
    }

    #[test]
    fn combine_equals_one_shot_and_the_matrix_method() {
        let data: Vec<u8> = (0..(1u32 << 20) + 8)
            .map(|i| (i.wrapping_mul(2654435761) >> 11) as u8)
            .collect();
        let head = b"checkpoint header";
        let big = [4095, 4096, 4097, (1 << 20) - 1, 1 << 20, (1 << 20) + 1];
        for len2 in (0..=64).chain(big) {
            let b = &data[..len2];
            let whole: Vec<u8> = head.iter().chain(b).copied().collect();
            let got = crc32_combine(crc32(head), crc32(b), len2 as u64);
            assert_eq!(got, crc32(&whole), "len2 {len2}");
            assert_eq!(
                got,
                matrix_combine(crc32(head), crc32(b), len2 as u64),
                "len2 {len2}"
            );
        }
        // Too long to hash here: against the reference only.
        for (crc1, crc2) in [(0xCBF4_3926, 0x1234_5678), (0, 0), (0xFFFF_FFFF, 1)] {
            let len2 = (1u64 << 32) + 5;
            assert_eq!(
                crc32_combine(crc1, crc2, len2),
                matrix_combine(crc1, crc2, len2)
            );
        }
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let mut data = vec![0u8; 4096];
        data[100] = 0x55;
        let base = crc32(&data);
        for bit in [0usize, 7, 800 * 8 + 3, 4095 * 8 + 7] {
            let mut flipped = data.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32(&flipped), base, "flip at bit {bit} undetected");
        }
    }
}
