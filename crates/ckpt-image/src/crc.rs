//! The two reflected CRCs: CRC-32 (IEEE 802.3) for image integrity and
//! CRC-64/XZ (ECMA-182) for the content digests of the storage tiers.
//!
//! Checkpoint data that restores silently wrong is worse than a failed
//! restart — every image carries a trailing CRC-32 over its entire
//! encoding, and the reader refuses images whose CRC does not match. Every
//! checkpointed page flows through here twice, once when its image is
//! written and once when a restart reads it, and both happen while the
//! process is frozen. Every stored byte above the image — replica and shard
//! frames, dedup chunks and manifests, the tracker's blocks — is addressed
//! or verified by [`crc64`], which `ckpt-storage` re-exports as its
//! `digest64`.
//!
//! [`crc32`] and [`crc64`] run one kernel over their own polynomial. On an
//! x86-64 CPU with PCLMULQDQ and SSE4.1 (detected at run time) it folds the
//! input with carry-less multiplication, the construction of Intel's "Fast
//! CRC Computation for Generic Polynomials Using PCLMULQDQ" used by zlib
//! and Linux's `crc32-pclmul`: four 128-bit lanes fold 64 bytes a step, the
//! lanes fold into one, and further 16-byte blocks fold into it. What is
//! left is a 128-bit lane congruent to the input modulo the polynomial, so
//! the CRC finishes by running the lane's 16 bytes, from a zero register,
//! and then the bytes after the last whole 16-byte block through
//! slicing-by-8: eight compile-time tables consume 8 bytes a step,
//! bit-identical to the byte-at-a-time Sarwate loop. Input on other CPUs or
//! shorter than 64 bytes goes through slicing-by-8 alone. Both paths give
//! the same CRC; the tests hold each to the bitwise definition.
//!
//! The fold's only inputs are four constants, not tabulated by hand: each
//! is `x^e mod P` in the CRC's reflected bit order, computed at compile
//! time. Moving a lane forward by `D` bits multiplies its first 8 bytes by
//! `x^(D+63)` and its last 8 by `x^(D−1)` (the offsets absorb the half's
//! place in the lane and the one-bit shift of a reflected carry-less
//! product), with `D = 4·128` for a 64-byte step and `D = 128` for a
//! 16-byte fold.
//!
//! [`crc32_combine`] joins the CRCs of two adjacent pieces without reading
//! either again, so an image body can be CRC'd run by run on a pool as it
//! is written. It costs one GF(2) multiplication per set bit of the
//! length, over a 32-entry table built at compile time.

/// CRC-32's reflected polynomial.
const POLY: u32 = 0xEDB8_8320;
/// CRC-64/XZ's: ECMA-182, reflected.
const POLY64: u64 = 0xC96C_5795_D787_0F42;

static CRC32: Crc = Crc::new(POLY as u64, 32);
static CRC64: Crc = Crc::new(POLY64, 64);

/// One-shot CRC-32 of a buffer: folded by carry-less multiplication from
/// 64 bytes on where the CPU has PCLMULQDQ and SSE4.1, slicing-by-8
/// otherwise and for the bytes after the last 16-byte block.
pub fn crc32(data: &[u8]) -> u32 {
    CRC32.checksum(data) as u32
}

/// One-shot CRC-64/XZ of a buffer (init and final xor all ones), by the
/// same kernel as [`crc32`].
pub fn crc64(data: &[u8]) -> u64 {
    CRC64.checksum(data)
}

/// A reflected CRC of at most 64 bits, its register held in a `u64`.
struct Crc {
    /// The register's width in ones: its initial value and final xor.
    mask: u64,
    /// `tables[0]` is the classic Sarwate table; `tables[k][b]` is the
    /// register after byte `b` and then `k` zero bytes.
    tables: [[u64; 256]; 8],
    /// The fold's `[x^(4·128+63), x^(4·128−1), x^(128+63), x^(128−1)]`.
    #[cfg(target_arch = "x86_64")]
    fold: [i64; 4],
}

impl Crc {
    const fn new(poly: u64, width: u32) -> Crc {
        let mut tables = [[0u64; 256]; 8];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u64;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 { poly ^ (c >> 1) } else { c >> 1 };
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
        Crc {
            mask: !0 >> (64 - width),
            tables,
            #[cfg(target_arch = "x86_64")]
            fold: [
                clmul_operand(poly, width, 4 * 128 + 63),
                clmul_operand(poly, width, 4 * 128 - 1),
                clmul_operand(poly, width, 128 + 63),
                clmul_operand(poly, width, 128 - 1),
            ],
        }
    }

    /// The CRC of `data`: the register folded over the whole 16-byte
    /// blocks from 64 bytes on where the CPU can, then sliced over the rest.
    fn checksum(&self, data: &[u8]) -> u64 {
        let (mut c, mut rest) = (self.mask, data);
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
            let lane = unsafe { clmul::fold(c, blocks, self.fold) };
            (c, rest) = (self.slicing_by_8(0, &lane), tail);
        }
        !self.slicing_by_8(c, rest) & self.mask
    }

    /// Advance the register `c` over `data`, 8 bytes a step, and the last
    /// `len % 8` a byte at a time.
    fn slicing_by_8(&self, mut c: u64, data: &[u8]) -> u64 {
        let t = &self.tables;
        let mut chunks = data.chunks_exact(8);
        for chunk in &mut chunks {
            let x = u64::from_le_bytes(chunk.try_into().unwrap()) ^ c;
            c = t[7][(x & 0xFF) as usize]
                ^ t[6][(x >> 8 & 0xFF) as usize]
                ^ t[5][(x >> 16 & 0xFF) as usize]
                ^ t[4][(x >> 24 & 0xFF) as usize]
                ^ t[3][(x >> 32 & 0xFF) as usize]
                ^ t[2][(x >> 40 & 0xFF) as usize]
                ^ t[1][(x >> 48 & 0xFF) as usize]
                ^ t[0][(x >> 56) as usize];
        }
        for &b in chunks.remainder() {
            c = t[0][((c ^ b as u64) & 0xFF) as usize] ^ (c >> 8);
        }
        c
    }
}

/// `x^e mod P` for the reflected `width`-bit polynomial `poly`, as a
/// carry-less multiplication operand: 64 bits, bit `j` the coefficient of
/// `x^(63−j)`.
#[cfg(target_arch = "x86_64")]
const fn clmul_operand(poly: u64, width: u32, e: u32) -> i64 {
    let mut p = 1u64 << (width - 1);
    let mut i = 0;
    while i < e {
        p = if p & 1 != 0 { (p >> 1) ^ poly } else { p >> 1 };
        i += 1;
    }
    (p << (64 - width)) as i64
}

/// The carry-less-multiplication fold. Everything here is safe code; what
/// makes a call `unsafe` is only that the CPU must have the target
/// features it is compiled for.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

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

    /// Fold the register `crc` and `data`, whose length is a multiple of 16
    /// and at least 64, into one 128-bit lane congruent to them: the 16
    /// bytes the CRC runs through its tables to finish. `k` is the CRC's
    /// [`super::Crc`] fold constants.
    ///
    /// # Safety
    ///
    /// Called from code not compiled for PCLMULQDQ and SSE4.1, the caller
    /// must have checked that the CPU has both.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn fold(crc: u64, data: &[u8], k: [i64; 4]) -> [u8; 16] {
        debug_assert!(data.len() >= 64 && data.len().is_multiple_of(16));
        let (first, rest) = data.split_at(64);
        let mut lanes: [__m128i; 4] = std::array::from_fn(|i| load(&first[16 * i..]));
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi64_si128(crc as i64));

        let step64 = _mm_set_epi64x(k[1], k[0]);
        let mut blocks = rest.chunks_exact(64);
        for block in &mut blocks {
            for (i, lane) in lanes.iter_mut().enumerate() {
                *lane = fold16(*lane, step64, load(&block[16 * i..]));
            }
        }

        let step16 = _mm_set_epi64x(k[3], k[2]);
        let mut x = lanes[0];
        for &lane in &lanes[1..] {
            x = fold16(x, step16, lane);
        }
        for block in blocks.remainder().chunks_exact(16) {
            x = fold16(x, step16, load(block));
        }
        let lo = _mm_extract_epi64::<0>(x) as u64;
        let hi = _mm_extract_epi64::<1>(x) as u64;
        let mut lane = [0u8; 16];
        lane[..8].copy_from_slice(&lo.to_le_bytes());
        lane[8..].copy_from_slice(&hi.to_le_bytes());
        lane
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
        // The catalogue's check values: the CRC of "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc64(b""), 0);
    }

    /// The bitwise definition of `crc`: no table, no fold.
    fn reference(crc: &Crc, poly: u64, data: &[u8]) -> u64 {
        let mut c = crc.mask;
        for &b in data {
            c ^= b as u64;
            for _ in 0..8 {
                c = if c & 1 != 0 { (c >> 1) ^ poly } else { c >> 1 };
            }
        }
        !c & crc.mask
    }

    /// For each CRC, the dispatched checksum (the fold, on a CPU that has
    /// it) and the slicing path, called directly so it stays tested on
    /// such CPUs, against the bitwise reference: every length up to 1 KiB
    /// (under the fold's 64-byte floor, each 16-byte tail, each count of
    /// 64-byte steps up to 16), one 64 KiB image run ± 1 and 1 MiB + 5,
    /// each at every start offset in 0..16.
    #[test]
    fn sliced_update_matches_byte_at_a_time() {
        let buf: Vec<u8> = (0..(1u32 << 20) + 5 + 16)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        let crcs = [("crc32", &CRC32, POLY as u64), ("crc64", &CRC64, POLY64)];
        for len in (0..=1024).chain([(1 << 16) - 1, 1 << 16, (1 << 16) + 1, (1 << 20) + 5]) {
            for offset in 0..16 {
                let data = &buf[offset..offset + len];
                for (name, crc, poly) in crcs {
                    let want = reference(crc, poly, data);
                    assert_eq!(
                        crc.checksum(data),
                        want,
                        "{name}, len {len} offset {offset}"
                    );
                    assert_eq!(
                        !crc.slicing_by_8(crc.mask, data) & crc.mask,
                        want,
                        "{name} slicing, len {len} offset {offset}"
                    );
                }
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
        assert_eq!(acc as u64, reference(&CRC32, POLY as u64, &data));
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
