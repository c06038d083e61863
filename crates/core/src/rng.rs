//! A tiny deterministic PRNG shared by every crate of the workspace.
//!
//! The generators, topologies and workloads only need reproducible,
//! well-mixed pseudo-randomness — not cryptographic strength — so a
//! dependency-free SplitMix64 (Steele, Lea & Flood, OOPSLA'14) keeps the
//! whole build offline-friendly. The same seed always yields the same
//! stream on every platform.

/// SplitMix64: a 64-bit state advanced by a Weyl increment, with an
/// avalanche finalizer. Passes BigCrush when used as a raw stream and is
/// the canonical seeder for larger generators.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator whose stream is fully determined by `seed`.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        // 53 random mantissa bits scaled into the unit interval.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A Bernoulli draw with success probability `p` (clamped to [0, 1]).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// A uniform draw from a half-open or inclusive integer/float range,
    /// mirroring the call shape of `rand::Rng::gen_range`.
    ///
    /// Panics if the range is empty.
    pub fn gen_range<T, R>(&mut self, range: R) -> T
    where
        T: UniformSample,
        R: std::ops::RangeBounds<T>,
    {
        T::sample(self, &range)
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            slice.swap(i, j);
        }
    }

    /// A uniformly chosen element of a slice, or `None` when empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            let i = (self.next_u64() % slice.len() as u64) as usize;
            slice.get(i)
        }
    }
}

/// Types [`SplitMix64::gen_range`] can draw uniformly.
pub trait UniformSample: Copy + PartialOrd {
    /// Draws a uniform value from `range`.
    fn sample<R: std::ops::RangeBounds<Self>>(rng: &mut SplitMix64, range: &R) -> Self;
}

macro_rules! impl_uniform_int {
    ($($t:ty),*) => {$(
        impl UniformSample for $t {
            fn sample<R: std::ops::RangeBounds<Self>>(rng: &mut SplitMix64, range: &R) -> Self {
                use std::ops::Bound;
                // Half-open [lo, hi) in u128 so u64::MAX bounds cannot
                // overflow; modulo bias is negligible for the spans the
                // workloads use and keeps the draw reproducible.
                let lo: u128 = match range.start_bound() {
                    Bound::Included(&b) => b as u128,
                    Bound::Excluded(&b) => b as u128 + 1,
                    Bound::Unbounded => 0,
                };
                let hi: u128 = match range.end_bound() {
                    Bound::Included(&b) => b as u128 + 1,
                    Bound::Excluded(&b) => b as u128,
                    Bound::Unbounded => <$t>::MAX as u128 + 1,
                };
                assert!(lo < hi, "cannot sample from an empty range");
                let span = hi - lo;
                let v = if span > u64::MAX as u128 {
                    u128::from(rng.next_u64())
                } else {
                    lo + u128::from(rng.next_u64()) % span
                };
                v as $t
            }
        }
    )*};
}

impl_uniform_int!(u8, u16, u32, u64, usize);

impl UniformSample for f64 {
    fn sample<R: std::ops::RangeBounds<Self>>(rng: &mut SplitMix64, range: &R) -> Self {
        use std::ops::Bound;
        let lo = match range.start_bound() {
            Bound::Included(&b) | Bound::Excluded(&b) => b,
            Bound::Unbounded => 0.0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&b) | Bound::Excluded(&b) => b,
            Bound::Unbounded => 1.0,
        };
        assert!(lo < hi, "cannot sample from an empty range");
        lo + rng.gen_f64() * (hi - lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_stream() {
        let mut a = SplitMix64::seed_from_u64(42);
        let mut b = SplitMix64::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn seeds_decorrelate() {
        let mut a = SplitMix64::seed_from_u64(1);
        let mut b = SplitMix64::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn known_vector() {
        // Reference values for seed 0 from the SplitMix64 reference
        // implementation.
        let mut r = SplitMix64::seed_from_u64(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(r.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(r.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn ranges_hit_their_bounds() {
        let mut r = SplitMix64::seed_from_u64(7);
        let mut seen = [false; 4];
        for _ in 0..200 {
            let v: usize = r.gen_range(0..4);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&b| b));
        for _ in 0..100 {
            let v: u32 = r.gen_range(5..=7);
            assert!((5..=7).contains(&v));
            let f: f64 = r.gen_range(1.5..2.5);
            assert!((1.5..2.5).contains(&f));
            let w: u64 = r.gen_range(3..10);
            assert!((3..10).contains(&w));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut r = SplitMix64::seed_from_u64(9);
        assert!((0..50).all(|_| !r.gen_bool(0.0)));
        assert!((0..50).all(|_| r.gen_bool(1.0)));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SplitMix64::seed_from_u64(3);
        let mut v: Vec<u32> = (0..32).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..32).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle left the identity permutation");
    }

    #[test]
    fn choose_covers_all_elements() {
        let mut r = SplitMix64::seed_from_u64(4);
        let items = [10, 20, 30];
        let mut seen = [false; 3];
        for _ in 0..100 {
            let &x = r.choose(&items).unwrap();
            seen[items.iter().position(|&i| i == x).unwrap()] = true;
        }
        assert!(seen.iter().all(|&b| b));
        assert!(r.choose::<u8>(&[]).is_none());
    }
}
