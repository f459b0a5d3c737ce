//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no network access to crates.io, so this
//! vendored shim provides exactly the subset of the rand 0.8 API the
//! workspace uses: [`rngs::StdRng`], [`SeedableRng::seed_from_u64`], and
//! [`Rng::gen_range`] over primitive half-open ranges. The generator is
//! xoshiro256++ seeded through SplitMix64 — deterministic, uniform, and
//! plenty for failure-injection draws; it makes no cryptographic claims
//! (neither does `StdRng`'s contract of reproducibility across versions,
//! which this shim intentionally does not preserve).

#![forbid(unsafe_code)]

/// A source of random 64-bit words.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;

    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Seedable construction (the `seed_from_u64` entry point).
pub trait SeedableRng: Sized {
    fn seed_from_u64(state: u64) -> Self;
}

/// Types that can be drawn uniformly from a `Range`.
pub trait SampleUniform: PartialOrd + Copy {
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self;
}

impl SampleUniform for f64 {
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        low + unit * (high - low)
    }
}

macro_rules! impl_sample_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                let span = (high as u64).wrapping_sub(low as u64);
                // Debiased multiply-shift (Lemire); span is far below 2^64
                // in practice so a single widening multiply suffices.
                let hi = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                low + hi as $t
            }
        }
    )*};
}

impl_sample_int!(u8, u16, u32, u64, usize, i64);

/// The user-facing extension trait (`rand::Rng`).
pub trait Rng: RngCore {
    /// Draw uniformly from a half-open range `low..high`.
    fn gen_range<T: SampleUniform>(&mut self, range: core::ops::Range<T>) -> T {
        assert!(range.start < range.end, "gen_range called with empty range");
        T::sample_range(self, range.start, range.end)
    }

    /// Draw a uniform value of a supported primitive type.
    fn gen<T: Standard>(&mut self) -> T {
        T::generate(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Types drawable via [`Rng::gen`].
pub trait Standard {
    fn generate<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn generate<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for bool {
    fn generate<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn generate<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++ — the standard small, fast, statistically strong PRNG.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            StdRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0]
                .wrapping_add(s[3])
                .rotate_left(23)
                .wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let draw = |seed| {
            let mut r = StdRng::seed_from_u64(seed);
            (0..8).map(|_| r.gen_range(0u64..1000)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn f64_range_respected_and_roughly_uniform() {
        let mut r = StdRng::seed_from_u64(42);
        let n = 10_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = r.gen_range(1e-12..1.0f64);
            assert!((1e-12..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 0.5");
    }

    #[test]
    fn int_ranges_cover_bounds() {
        let mut r = StdRng::seed_from_u64(1);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[r.gen_range(0usize..4)] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }
}
