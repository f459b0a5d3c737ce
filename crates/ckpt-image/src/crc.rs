//! CRC-32 (IEEE 802.3 polynomial) for image integrity.
//!
//! Checkpoint data that restores silently wrong is worse than a failed
//! restart — every image carries a trailing CRC over its entire encoding,
//! and the reader refuses images whose CRC does not match.
//!
//! The hasher uses the slicing-by-8 technique: eight compile-time tables
//! let it consume 8 input bytes per step instead of 1, which matters
//! because every checkpointed page flows through here. The result is
//! bit-identical to the classic byte-at-a-time Sarwate loop (which still
//! handles unaligned head/tail bytes).
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

/// Streaming CRC-32 hasher.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    pub fn update(&mut self, data: &[u8]) {
        let mut c = self.state;
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
        self.state = c;
    }

    pub fn finalize(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32 of a buffer.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finalize()
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

    #[test]
    fn streaming_equals_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let mut c = Crc32::new();
        for chunk in data.chunks(7) {
            c.update(chunk);
        }
        assert_eq!(c.finalize(), crc32(&data));
    }

    #[test]
    fn sliced_update_matches_byte_at_a_time() {
        // Reference Sarwate loop over the same data, all lengths 0..64 so
        // every head/tail alignment of the slicing path is exercised.
        fn reference(data: &[u8]) -> u32 {
            let mut c = 0xFFFF_FFFFu32;
            for &b in data {
                c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
            }
            c ^ 0xFFFF_FFFF
        }
        let data: Vec<u8> = (0..64u32).map(|i| (i.wrapping_mul(37) ^ 0xA5) as u8).collect();
        for len in 0..=data.len() {
            assert_eq!(crc32(&data[..len]), reference(&data[..len]), "len {len}");
        }
    }

    #[test]
    fn combine_is_associative_over_many_chunks() {
        let data: Vec<u8> = (0..=255u8).cycle().take(30_000).collect();
        let mut acc = crc32(&[]);
        for chunk in data.chunks(777) {
            acc = crc32_combine(acc, crc32(chunk), chunk.len() as u64);
        }
        assert_eq!(acc, crc32(&data));
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
