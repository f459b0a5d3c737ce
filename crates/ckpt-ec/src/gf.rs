//! GF(256) arithmetic for the Reed-Solomon kernel.
//!
//! The field is GF(2^8) modulo the primitive polynomial
//! `x^8 + x^4 + x^3 + x^2 + 1` (0x11d), the same polynomial every
//! classical storage code uses. Log/exp tables are built at compile time
//! by a `const fn`, so lookups cost one indexed load with no runtime
//! initialization to order against. The exp table is doubled so
//! `exp[log a + log b]` never needs a `% 255`.
//!
//! The parity hot loop lives in [`mul_acc_slice`]: coefficient-1 rows
//! (the overwhelmingly common case in a systematic code's first parity
//! row) take a word-at-a-time XOR; general coefficients take one
//! 256-entry row of the multiplication table, so the inner loop is a
//! byte load, a table load, and an XOR — no log/exp arithmetic per byte.

/// The primitive polynomial, reduced form (x^8 dropped): 0x1d.
const POLY_LOW: u8 = 0x1d;

const fn build_tables() -> ([u8; 256], [u8; 512]) {
    let mut log = [0u8; 256];
    let mut exp = [0u8; 512];
    let mut x: u8 = 1;
    let mut i = 0;
    while i < 255 {
        exp[i] = x;
        exp[i + 255] = x;
        log[x as usize] = i as u8;
        let hi = x & 0x80 != 0;
        x <<= 1;
        if hi {
            x ^= POLY_LOW;
        }
        i += 1;
    }
    (log, exp)
}

const TABLES: ([u8; 256], [u8; 512]) = build_tables();
/// `LOG[a]` for `a != 0`; `LOG[0]` is unused (and 0).
pub(crate) const LOG: [u8; 256] = TABLES.0;
/// `EXP[i]` = generator^i, doubled so `LOG[a] + LOG[b]` indexes directly.
pub(crate) const EXP: [u8; 512] = TABLES.1;

/// Field multiply via the const tables.
#[inline]
pub(crate) fn mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        0
    } else {
        EXP[LOG[a as usize] as usize + LOG[b as usize] as usize]
    }
}

/// Multiplicative inverse (`a != 0`).
#[inline]
pub(crate) fn inv(a: u8) -> u8 {
    assert!(a != 0, "zero has no inverse in GF(256)");
    EXP[255 - LOG[a as usize] as usize]
}

/// Exponentiation: `base^e` with the usual `0^0 = 1` convention.
#[inline]
pub(crate) fn pow(base: u8, e: usize) -> u8 {
    if e == 0 {
        return 1;
    }
    if base == 0 {
        return 0;
    }
    EXP[(LOG[base as usize] as usize * e) % 255]
}

/// Russian-peasant reference multiply: no tables, bit-by-bit carryless
/// multiplication with polynomial reduction. Slow by design — the
/// property tests check the const tables against it.
#[cfg(test)]
fn mul_slow(mut a: u8, mut b: u8) -> u8 {
    let mut r = 0u8;
    while b != 0 {
        if b & 1 != 0 {
            r ^= a;
        }
        let hi = a & 0x80 != 0;
        a <<= 1;
        if hi {
            a ^= POLY_LOW;
        }
        b >>= 1;
    }
    r
}

/// `dst ^= src`, eight bytes at a time. This is the coefficient-1 fast
/// path of the parity loop (and of single-shard XOR repair).
#[inline]
pub(crate) fn xor_slice(dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len());
    let mut d = dst.chunks_exact_mut(8);
    let mut s = src.chunks_exact(8);
    for (dw, sw) in d.by_ref().zip(s.by_ref()) {
        let x = u64::from_ne_bytes(dw.try_into().unwrap())
            ^ u64::from_ne_bytes(sw.try_into().unwrap());
        dw.copy_from_slice(&x.to_ne_bytes());
    }
    for (db, sb) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *db ^= sb;
    }
}

/// `dst ^= c * src` over GF(256) — the parity hot loop.
///
/// `c == 0` is a no-op, `c == 1` takes the word XOR, anything else runs
/// through a 256-entry product row built once per call (one multiply per
/// distinct source byte value, not per byte).
///
/// Public for ckptbench (`benchmark/src/replay.rs`).
pub fn mul_acc_slice(c: u8, src: &[u8], dst: &mut [u8]) {
    assert_eq!(dst.len(), src.len());
    match c {
        0 => {}
        1 => xor_slice(dst, src),
        _ => {
            let mut row = [0u8; 256];
            for (i, r) in row.iter_mut().enumerate() {
                *r = mul(c, i as u8);
            }
            for (d, &s) in dst.iter_mut().zip(src) {
                *d ^= row[s as usize];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_agree_with_the_reference_multiply() {
        // Exhaustive: every product in the field, tables vs bit-by-bit.
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(mul(a, b), mul_slow(a, b), "mul({a}, {b})");
            }
        }
    }

    #[test]
    fn field_axioms_hold() {
        for a in 1..=255u8 {
            assert_eq!(mul(a, inv(a)), 1, "a * a^-1 for a = {a}");
            assert_eq!(mul(a, 1), a);
            assert_eq!(mul(a, 0), 0);
        }
        // Distributivity on a sample grid.
        for a in (0..=255u8).step_by(7) {
            for b in (0..=255u8).step_by(11) {
                for c in (0..=255u8).step_by(13) {
                    assert_eq!(mul(a, b ^ c), mul(a, b) ^ mul(a, c));
                }
            }
        }
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        for base in [0u8, 1, 2, 3, 0x53, 0xff] {
            let mut acc = 1u8;
            for e in 0..300 {
                assert_eq!(pow(base, e), acc, "pow({base}, {e})");
                acc = mul(acc, base);
            }
        }
    }

    #[test]
    fn mul_acc_slice_matches_scalar_loop_at_odd_lengths() {
        // Lengths straddling the 8-byte word boundary, all coefficient
        // classes (zero, one, general).
        for len in [0usize, 1, 7, 8, 9, 63, 64, 65] {
            let src: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            for c in [0u8, 1, 2, 0x1d, 0xe5] {
                let mut dst: Vec<u8> = (0..len).map(|i| (i * 101 + 3) as u8).collect();
                let expect: Vec<u8> = dst
                    .iter()
                    .zip(&src)
                    .map(|(&d, &s)| d ^ mul_slow(c, s))
                    .collect();
                mul_acc_slice(c, &src, &mut dst);
                assert_eq!(dst, expect, "c = {c}, len = {len}");
            }
        }
    }
}
