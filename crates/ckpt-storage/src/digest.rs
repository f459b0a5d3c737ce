//! The two digests every layer shares, one per kind of input.
//!
//! * [`digest64`] — the content digest: replica and shard frame digests
//!   (torn-write detection), chunk addresses, manifest checksums and object
//!   digests in the dedup layer, and the tracker's block comparator. It is
//!   CRC-64/XZ ([`ckpt_image::crc::crc64`]): the image CRC's carry-less
//!   fold over the reflected ECMA-182 polynomial, at memory speed on a CPU
//!   with PCLMULQDQ and by slicing-by-8 elsewhere. A CRC-64 detects every
//!   burst error of up to 64 bits.
//! * [`fnv1a64`] — FNV-1a 64 over key strings: stripe placement, quorum
//!   salts, and the bench artifacts' content hashes, which the goldens pin.
//!   Its inputs are a few dozen bytes, where a serial byte loop costs
//!   nothing.
//!
//! Neither is cryptographic — the threat model is accidental corruption
//! inside one trusted store.

pub use ckpt_image::crc::crc64 as digest64;

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `data` (64-bit).
pub fn fnv1a64(data: &[u8]) -> u64 {
    data.iter()
        .fold(OFFSET, |h, &b| (h ^ u64::from(b)).wrapping_mul(PRIME))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(digest64(b"123456789"), 0x995d_c9bb_df19_39fa);
    }
}
