//! Offline shim for the `rand` crate.
//!
//! The build environment cannot reach crates.io, so the workspace vendors the
//! small slice of the `rand 0.8` API it actually uses: `SeedableRng`,
//! `rngs::SmallRng`, and the `Rng` extension methods `gen`, `gen_range`, and
//! `gen_bool`. The generator is xoshiro256** seeded via SplitMix64 — the same
//! family the real `SmallRng` uses on 64-bit targets — so statistical quality
//! matches what the workloads (zipfian sampling, chaos eviction) expect.
//! Determinism contract: the same seed yields the same stream within this
//! workspace, which is all the tests rely on (they never compare against
//! upstream rand streams).

/// Construction of RNGs from seeds (subset of `rand::SeedableRng`).
pub trait SeedableRng: Sized {
    /// Seeds deterministically from a single `u64` (SplitMix64 expansion).
    fn seed_from_u64(state: u64) -> Self;
}

/// Core RNG interface (subset of `rand::RngCore` + `rand::Rng`).
pub trait Rng {
    fn next_u64(&mut self) -> u64;

    /// Uniform value of `T` (subset of `Standard` distribution sampling).
    fn gen<T: RandomValue>(&mut self) -> T
    where
        Self: Sized,
    {
        T::random(self)
    }

    /// Uniform value in `range` (half-open or inclusive integer/float ranges).
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample_in(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        debug_assert!((0.0..=1.0).contains(&p));
        self.gen::<f64>() < p
    }
}

pub mod rngs {
    use super::{Rng, SeedableRng};

    /// xoshiro256** — the algorithm behind `rand`'s 64-bit `SmallRng`.
    #[derive(Clone, Debug)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(mut state: u64) -> Self {
            // SplitMix64 seed expansion (Blackman & Vigna's recommendation).
            let mut next = || {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            let s = [next(), next(), next(), next()];
            SmallRng { s }
        }
    }

    impl Rng for SmallRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

/// Types samplable uniformly from an RNG (subset of the `Standard`
/// distribution).
pub trait RandomValue {
    fn random<R: Rng>(rng: &mut R) -> Self;
}

macro_rules! impl_random_int {
    ($($t:ty),*) => {$(
        impl RandomValue for $t {
            #[allow(clippy::cast_possible_truncation)]
            fn random<R: Rng>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_random_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl RandomValue for u128 {
    fn random<R: Rng>(rng: &mut R) -> Self {
        ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128
    }
}

impl RandomValue for bool {
    fn random<R: Rng>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl RandomValue for f64 {
    fn random<R: Rng>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl RandomValue for f32 {
    fn random<R: Rng>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// Element types uniformly samplable from a range (subset of
/// `rand::distributions::uniform::SampleUniform`). A single generic
/// `SampleRange` impl hangs off this trait so integer-literal inference flows
/// through `gen_range` exactly as with real rand.
pub trait SampleUniform: Copy + PartialOrd {
    fn sample_half_open<R: Rng>(rng: &mut R, start: Self, end: Self) -> Self;
    fn sample_inclusive<R: Rng>(rng: &mut R, start: Self, end: Self) -> Self;
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            #[allow(clippy::cast_possible_truncation)]
            fn sample_half_open<R: Rng>(rng: &mut R, start: Self, end: Self) -> Self {
                assert!(start < end, "empty range in gen_range");
                let span = (end as u128).wrapping_sub(start as u128) as u64;
                // Multiply-shift bounded sampling (Lemire); bias is < 2^-64.
                let hi = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                start.wrapping_add(hi as $t)
            }

            #[allow(clippy::cast_possible_truncation)]
            fn sample_inclusive<R: Rng>(rng: &mut R, start: Self, end: Self) -> Self {
                assert!(start <= end, "empty range in gen_range");
                let span = (end as u128).wrapping_sub(start as u128).wrapping_add(1) as u64;
                if span == 0 {
                    // Full-width inclusive range.
                    return RandomValue::random(rng);
                }
                let hi = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                start.wrapping_add(hi as $t)
            }
        }
    )*};
}
impl_sample_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_sample_uniform_float {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: Rng>(rng: &mut R, start: Self, end: Self) -> Self {
                assert!(start < end, "empty range in gen_range");
                start + rng.gen::<$t>() * (end - start)
            }

            fn sample_inclusive<R: Rng>(rng: &mut R, start: Self, end: Self) -> Self {
                assert!(start <= end, "empty range in gen_range");
                start + rng.gen::<$t>() * (end - start)
            }
        }
    )*};
}
impl_sample_uniform_float!(f32, f64);

/// Ranges samplable uniformly (subset of `rand::distributions::uniform`).
pub trait SampleRange<T> {
    fn sample_in<R: Rng>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for std::ops::Range<T> {
    fn sample_in<R: Rng>(self, rng: &mut R) -> T {
        T::sample_half_open(rng, self.start, self.end)
    }
}

impl<T: SampleUniform> SampleRange<T> for std::ops::RangeInclusive<T> {
    fn sample_in<R: Rng>(self, rng: &mut R) -> T {
        T::sample_inclusive(rng, *self.start(), *self.end())
    }
}

pub mod prelude {
    pub use super::rngs::SmallRng;
    pub use super::{Rng, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SmallRng::seed_from_u64(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn gen_range_bounds_hold() {
        let mut r = SmallRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v = r.gen_range(10u64..20);
            assert!((10..20).contains(&v));
            let w = r.gen_range(0u32..=3);
            assert!(w <= 3);
            let f = r.gen_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&f));
            let i = r.gen_range(-5i64..5);
            assert!((-5..5).contains(&i));
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SmallRng::seed_from_u64(3);
        let mut acc = 0.0;
        for _ in 0..10_000 {
            let v: f64 = r.gen();
            assert!((0.0..1.0).contains(&v));
            acc += v;
        }
        let mean = acc / 10_000.0;
        assert!((0.45..0.55).contains(&mean), "mean {mean} far from 0.5");
    }

    #[test]
    fn gen_bool_respects_probability() {
        let mut r = SmallRng::seed_from_u64(4);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.9)).count();
        assert!((8_700..9_300).contains(&hits), "p=0.9 hit {hits}/10000");
    }
}
