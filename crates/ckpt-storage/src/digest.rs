//! FNV-1a 64 — the one cheap content digest every layer shares: replica
//! and shard frame digests (torn-write detection), chunk addresses and
//! manifest checksums in the dedup layer, the tracker's block comparator,
//! and the bench artifacts' content hashes. Not cryptographic — the threat
//! model is accidental corruption inside one trusted store.
//!
//! One stream is a serial dependency chain (xor, then a 64-bit multiply,
//! per byte), so a single digest runs at the multiplier's *latency*.
//! [`fnv1a64_multi`] advances up to [`FNV_LANES`] independent streams in
//! one loop, which runs at the multiplier's *throughput* instead: callers
//! that hold several independent buffers (the chunks of one object, the
//! shard frames of one commit, the replicas of one key) digest them as a
//! batch. Every lane is bit-identical to the scalar function.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streams [`fnv1a64_multi`] advances per loop iteration: enough to cover
/// the multiply latency, few enough to stay in registers.
pub const FNV_LANES: usize = 4;

/// FNV-1a over `data` (64-bit).
pub fn fnv1a64(data: &[u8]) -> u64 {
    let mut h = [OFFSET];
    advance(&mut h, [data]);
    h[0]
}

/// Fold the `N` equal-length slices `s` into the `N` running states `h`,
/// one byte of every stream per iteration.
#[inline(always)]
fn advance<const N: usize>(h: &mut [u64; N], s: [&[u8]; N]) {
    let n = s[0].len();
    let s = s.map(|lane| &lane[..n]);
    for i in 0..n {
        for (h, lane) in h.iter_mut().zip(&s) {
            *h = (*h ^ u64::from(lane[i])).wrapping_mul(PRIME);
        }
    }
}

/// [`fnv1a64`] of every buffer in `bufs`, in order. Buffers may be ragged
/// or empty: a lane whose buffer ends picks up the next pending one, so
/// the loop stays [`FNV_LANES`] wide until fewer buffers than that remain.
pub fn fnv1a64_multi(bufs: &[&[u8]]) -> Vec<u64> {
    let mut out = vec![OFFSET; bufs.len()];
    // Dense active lanes: (index into `bufs`, bytes not yet folded).
    let mut lanes: Vec<(usize, &[u8])> = Vec::with_capacity(FNV_LANES);
    let mut pending = bufs
        .iter()
        .copied()
        .enumerate()
        .filter(|(_, b)| !b.is_empty());
    loop {
        lanes.extend(pending.by_ref().take(FNV_LANES - lanes.len()));
        let Some(n) = lanes.iter().map(|(_, rest)| rest.len()).min() else {
            return out;
        };
        match lanes.len() {
            1 => advance_lanes::<1>(&mut out, &mut lanes, n),
            2 => advance_lanes::<2>(&mut out, &mut lanes, n),
            3 => advance_lanes::<3>(&mut out, &mut lanes, n),
            _ => advance_lanes::<FNV_LANES>(&mut out, &mut lanes, n),
        }
        lanes.retain(|(_, rest)| !rest.is_empty());
    }
}

/// Fold the first `n` bytes of each of the `N` active lanes into its
/// output slot.
fn advance_lanes<const N: usize>(out: &mut [u64], lanes: &mut [(usize, &[u8])], n: usize) {
    let mut h: [u64; N] = std::array::from_fn(|l| out[lanes[l].0]);
    advance(&mut h, std::array::from_fn(|l| &lanes[l].1[..n]));
    for (l, (idx, rest)) in lanes.iter_mut().enumerate() {
        out[*idx] = h[l];
        *rest = &rest[n..];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The textbook byte loop, kept as the reference the lanes must match.
    fn reference(data: &[u8]) -> u64 {
        let mut h = OFFSET;
        for &b in data {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
        h
    }

    fn bytes(len: usize, salt: u64) -> Vec<u8> {
        let mut x = salt.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn multi_lane_equals_scalar_for_ragged_and_empty_buffers() {
        for lanes in 0..=9usize {
            for shape in 0..4u64 {
                let bufs: Vec<Vec<u8>> = (0..lanes)
                    .map(|i| {
                        let len = match shape {
                            0 => 1000,
                            1 => (i * 37) % 5 * 211,
                            2 => {
                                if i % 2 == 0 {
                                    0
                                } else {
                                    4096 + i
                                }
                            }
                            _ => 9 - i.min(9),
                        };
                        bytes(len, shape * 16 + i as u64)
                    })
                    .collect();
                let refs: Vec<&[u8]> = bufs.iter().map(Vec::as_slice).collect();
                let want: Vec<u64> = bufs.iter().map(|b| reference(b)).collect();
                assert_eq!(fnv1a64_multi(&refs), want, "lanes {lanes} shape {shape}");
                for b in &bufs {
                    assert_eq!(fnv1a64(b), reference(b));
                }
            }
        }
    }
}
