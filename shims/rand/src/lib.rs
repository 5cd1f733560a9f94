//! Offline stand-in for the `rand` crate.
//!
//! Provides the subset the workloads use — `StdRng::seed_from_u64` plus
//! `Rng::{gen, gen_range}` — backed by splitmix64. Streams are
//! deterministic per seed (the property every simulation workload depends
//! on) but are *not* the same streams as the real `rand` crate.

#![warn(missing_docs)]

use std::ops::Range;

/// Low-level entropy source: everything derives from `next_u64`.
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Seedable construction, mirroring `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// Creates an RNG from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// User-facing sampling methods, mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// Samples a value from the standard distribution of `T`
    /// (uniform over the type for integers, `[0, 1)` for floats).
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Samples uniformly from `range` (half-open).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T: SampleUniform>(&mut self, range: Range<T>) -> T
    where
        Self: Sized,
    {
        T::sample_range(self, range)
    }
}

impl<R: RngCore> Rng for R {}

/// Types sampleable by [`Rng::gen`].
pub trait Standard: Sized {
    /// Draws one value from `rng`.
    fn sample<R: RngCore>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn sample<R: RngCore>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample<R: RngCore>(rng: &mut R) -> u32 {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for i64 {
    fn sample<R: RngCore>(rng: &mut R) -> i64 {
        rng.next_u64() as i64
    }
}

impl Standard for i32 {
    fn sample<R: RngCore>(rng: &mut R) -> i32 {
        (rng.next_u64() >> 32) as i32
    }
}

impl Standard for bool {
    fn sample<R: RngCore>(rng: &mut R) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn sample<R: RngCore>(rng: &mut R) -> f64 {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample<R: RngCore>(rng: &mut R) -> f32 {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Types sampleable by [`Rng::gen_range`].
pub trait SampleUniform: Sized {
    /// Draws uniformly from the half-open `range`.
    fn sample_range<R: RngCore>(rng: &mut R, range: Range<Self>) -> Self;
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: RngCore>(rng: &mut R, range: Range<$t>) -> $t {
                assert!(range.start < range.end, "cannot sample empty range");
                let span = range.end.abs_diff(range.start) as u64;
                // Modulo bias is < 2^-32 for every span used in this
                // workspace; acceptable for simulation workloads.
                let offset = rng.next_u64() % span;
                ((range.start as i128) + offset as i128) as $t
            }
        }
    )*};
}

impl_sample_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    fn sample_range<R: RngCore>(rng: &mut R, range: Range<f64>) -> f64 {
        assert!(range.start < range.end, "cannot sample empty range");
        range.start + f64::sample(rng) * (range.end - range.start)
    }
}

/// Concrete RNG implementations.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard RNG: splitmix64.
    ///
    /// Not the real `rand::rngs::StdRng` (ChaCha12); chosen because it needs
    /// no external crates and passes-through determinism per seed.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        state: u64,
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> StdRng {
            StdRng { state: seed }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(a.gen::<u64>(), c.gen::<u64>());
    }

    #[test]
    fn unit_floats_in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn ranges_respected() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..1000 {
            let v = rng.gen_range(3usize..17);
            assert!((3..17).contains(&v));
            let f = rng.gen_range(-1.5..1.5);
            assert!((-1.5..1.5).contains(&f));
            let n = rng.gen_range(-10i64..-2);
            assert!((-10..-2).contains(&n));
        }
    }
}
