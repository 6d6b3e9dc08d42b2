//! Offline, API-compatible stub of the subset of the [`rand`] crate this
//! workspace uses.
//!
//! The build container has no network access and no registry cache, so the
//! real `rand` crate cannot be resolved. This stub implements exactly the
//! surface the workspace consumes — `rngs::SmallRng`, `SeedableRng::
//! seed_from_u64`, `Rng::{gen_range, gen_bool, gen}` over integer and `f64`
//! ranges — with a deterministic xoshiro256++ core (the same family the real
//! `SmallRng` uses on 64-bit targets). Streams are *not* bit-compatible with
//! upstream `rand`; every consumer in this repo only relies on determinism
//! per seed and reasonable uniformity, both of which hold.
//!
//! [`rand`]: https://crates.io/crates/rand

use core::ops::{Range, RangeInclusive};

/// Low-level entropy source: everything is derived from `next_u64`.
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            let n = chunk.len();
            chunk.copy_from_slice(&bytes[..n]);
        }
    }
}

/// An RNG that can be seeded deterministically.
pub trait SeedableRng: Sized {
    /// Creates an RNG from a single `u64` seed (splitmix64-expanded).
    fn seed_from_u64(state: u64) -> Self;
}

/// Types which can be sampled uniformly from a range by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Samples one value from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                // Modulo reduction: the tiny bias is irrelevant for the
                // simulation workloads this repo generates.
                self.start.wrapping_add((rng.next_u64() % span) as $t)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            #[inline]
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample empty range");
                let span = (end as u64).wrapping_sub(start as u64).wrapping_add(1);
                if span == 0 {
                    // Full u64 range.
                    return rng.next_u64() as $t;
                }
                start.wrapping_add((rng.next_u64() % span) as $t)
            }
        }
    )*};
}

impl_int_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for Range<f64> {
    #[inline]
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        self.start + unit * (self.end - self.start)
    }
}

/// Values that [`Rng::gen`] can produce.
pub trait Standard: Sized {
    /// Samples one value from the full domain.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            #[inline]
            fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for bool {
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// High-level sampling methods, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Samples uniformly from `range` (half-open or inclusive).
    #[inline]
    fn gen_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T
    where
        Self: Sized,
    {
        range.sample_single(self)
    }

    /// Returns `true` with probability `p`.
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "gen_bool probability {p} out of range");
        ((self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)) < p
    }

    /// Samples a value from the type's full domain.
    #[inline]
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample_standard(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The deterministic small RNG (xoshiro256++ core).
pub mod rngs {
    use super::{splitmix64, RngCore, SeedableRng};

    /// A small, fast, deterministic RNG — same algorithm family as the real
    /// `rand::rngs::SmallRng` on 64-bit targets (xoshiro256++), though not
    /// stream-compatible with it.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(state: u64) -> SmallRng {
            let mut sm = state;
            let mut s = [0u64; 4];
            for slot in &mut s {
                *slot = splitmix64(&mut sm);
            }
            // Guard against the all-zero state (unreachable via splitmix64,
            // but cheap to enforce).
            if s == [0, 0, 0, 0] {
                s[0] = 0x9E37_79B9_7F4A_7C15;
            }
            SmallRng { s }
        }
    }

    impl RngCore for SmallRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
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

    /// Alias so code written against `StdRng` keeps compiling.
    pub type StdRng = SmallRng;
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<u64> = {
            let mut r = SmallRng::seed_from_u64(7);
            (0..64).map(|_| r.gen_range(0u64..1_000_000)).collect()
        };
        let b: Vec<u64> = {
            let mut r = SmallRng::seed_from_u64(7);
            (0..64).map(|_| r.gen_range(0u64..1_000_000)).collect()
        };
        let c: Vec<u64> = {
            let mut r = SmallRng::seed_from_u64(8);
            (0..64).map(|_| r.gen_range(0u64..1_000_000)).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = SmallRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v = r.gen_range(10u64..20);
            assert!((10..20).contains(&v));
            let f = r.gen_range(0.0..1.0);
            assert!((0.0..1.0).contains(&f));
            let i = r.gen_range(0u8..=10);
            assert!(i <= 10);
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = SmallRng::seed_from_u64(2);
        let hits = (0..100_000).filter(|_| r.gen_bool(0.3)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.3).abs() < 0.01, "frac {frac}");
        assert!(!(0..100).any(|_| r.gen_bool(0.0)));
        assert!((0..100).all(|_| r.gen_bool(1.0)));
    }

    #[test]
    fn uniformity_is_rough_but_present() {
        let mut r = SmallRng::seed_from_u64(3);
        let mut buckets = [0u32; 16];
        for _ in 0..160_000 {
            buckets[r.gen_range(0usize..16)] += 1;
        }
        for b in buckets {
            assert!((8_000..12_000).contains(&b), "bucket {b}");
        }
    }
}
