//! Offline stand-in for the `rand` crate.
//!
//! Vendors the subset `clam-rs` uses: [`thread_rng`] with
//! [`RngCore::next_u64`] (handle tags, nonces), [`Rng::gen_range`]
//! (fault delays and truncation points), and the seedable
//! [`rngs::SmallRng`] (deterministic fault-injection plans). The
//! generator is SplitMix64 seeded per thread from `RandomState` entropy —
//! statistical quality is ample for tags and fault draws; nothing here is
//! cryptographic (neither was `rand`'s default).

use std::cell::Cell;
use std::hash::{BuildHasher, Hasher};

/// Core of a random number generator.
pub trait RngCore {
    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// A range that [`Rng::gen_range`] can sample from.
pub trait SampleRange<T> {
    /// Draw a uniformly distributed value from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_sample_range {
    ($($ty:ty),+) => {$(
        impl SampleRange<$ty> for std::ops::Range<$ty> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $ty {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = self.end.wrapping_sub(self.start) as u128;
                let wide = ((u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64())) % span;
                self.start.wrapping_add(wide as $ty)
            }
        }
        impl SampleRange<$ty> for std::ops::RangeInclusive<$ty> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $ty {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "gen_range: empty range");
                let span = (end.wrapping_sub(start) as u128).wrapping_add(1);
                if span == 0 {
                    // Full-width u128 range: every bit pattern is valid.
                    return (((u128::from(rng.next_u64()) << 64)
                        | u128::from(rng.next_u64())) as $ty)
                        .wrapping_add(start);
                }
                let wide = ((u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64())) % span;
                start.wrapping_add(wide as $ty)
            }
        }
    )+};
}

impl_sample_range!(u8, u16, u32, u64, usize);

impl SampleRange<u128> for std::ops::Range<u128> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> u128 {
        assert!(self.start < self.end, "gen_range: empty range");
        let span = self.end - self.start;
        let wide = (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64());
        self.start + wide % span
    }
}

impl SampleRange<u128> for std::ops::RangeInclusive<u128> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> u128 {
        let (start, end) = (*self.start(), *self.end());
        assert!(start <= end, "gen_range: empty range");
        let wide = (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64());
        match (end - start).checked_add(1) {
            Some(span) => start + wide % span,
            None => wide, // full-width range
        }
    }
}

macro_rules! impl_sample_range_signed {
    ($($ty:ty => $uty:ty),+) => {$(
        impl SampleRange<$ty> for std::ops::Range<$ty> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $ty {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as $uty).wrapping_sub(self.start as $uty) as u128;
                let wide = ((u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64())) % span;
                self.start.wrapping_add(wide as $ty)
            }
        }
    )+};
}

impl_sample_range_signed!(i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize);

/// Convenience methods over [`RngCore`], blanket-implemented as in `rand`.
pub trait Rng: RngCore {
    /// A uniformly distributed value from `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

thread_local! {
    static THREAD_RNG_STATE: Cell<u64> = Cell::new({
        // Seed from the OS-randomized hasher keys plus the thread id.
        let mut h = std::collections::hash_map::RandomState::new().build_hasher();
        h.write_u64(std::process::id().into());
        h.finish()
    });
}

/// Handle to this thread's generator.
#[derive(Debug, Clone, Copy)]
pub struct ThreadRng;

impl RngCore for ThreadRng {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        THREAD_RNG_STATE.with(|s| {
            let mut state = s.get();
            let out = splitmix64(&mut state);
            s.set(state);
            out
        })
    }
}

/// This thread's lazily seeded generator.
#[must_use]
pub fn thread_rng() -> ThreadRng {
    ThreadRng
}

/// A generator constructible from a caller-supplied seed: the same seed
/// always yields the same stream (deterministic tests, reproducible
/// fault plans).
pub trait SeedableRng: Sized {
    /// Build a generator whose stream is fully determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Small, fast, seedable generators.
pub mod rngs {
    use super::{splitmix64, RngCore, SeedableRng};

    /// A small seedable generator (SplitMix64). Deterministic: equal
    /// seeds produce equal streams across runs and platforms.
    #[derive(Debug, Clone)]
    pub struct SmallRng {
        state: u64,
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> SmallRng {
            SmallRng { state: seed }
        }
    }

    impl RngCore for SmallRng {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            splitmix64(&mut self.state)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_u64_varies() {
        let mut rng = thread_rng();
        let a = rng.next_u64();
        let b = rng.next_u64();
        assert_ne!(a, b, "astronomically unlikely to collide");
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = thread_rng();
        for _ in 0..1000 {
            let v: u64 = rng.gen_range(10..20);
            assert!((10..20).contains(&v));
            let w: i32 = rng.gen_range(-5..5);
            assert!((-5..5).contains(&w));
            let x: u128 = rng.gen_range(0..=7);
            assert!(x <= 7);
        }
    }

    #[test]
    fn small_rng_is_deterministic_per_seed() {
        use super::rngs::SmallRng;
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        let mut c = SmallRng::seed_from_u64(43);
        let sa: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let sb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let sc: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(sa, sb, "same seed, same stream");
        assert_ne!(sa, sc, "different seed, different stream");
    }

    #[test]
    fn inclusive_range_hits_endpoint() {
        let mut rng = thread_rng();
        let mut saw_max = false;
        for _ in 0..200 {
            if rng.gen_range(0u8..=1) == 1 {
                saw_max = true;
            }
        }
        assert!(saw_max);
    }
}
