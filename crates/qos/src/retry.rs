//! Deterministic timeout schedule: saturating exponential backoff
//! from [`BACKOFF_BASE`] cycles plus seeded jitter.
//!
//! The admission service's control-plane timeouts ([`crate::service`])
//! draw their delays from this schedule. Everything here is a pure
//! function of the seed and the attempt number — no wall-clock, no
//! global state — which is what keeps faulted runs byte-reproducible.
//!
//! The growth curve is `base << attempt` **saturating**: a checked
//! shift that clamps to `u64::MAX` instead of wrapping. The previous
//! in-line implementation clamped the exponent (`attempt.min(16)`) but
//! still wrapped for large bases (`base << 16` overflows any base
//! above `2^48`); see `backoff_saturates_at_large_attempts`.

use iba_core::SplitMix64;

/// Base backoff in cycles: retry `n` waits `BACKOFF_BASE << n`
/// (saturating) plus jitter in `[0, BACKOFF_BASE)`.
pub const BACKOFF_BASE: u64 = 1024;

/// Saturating exponential growth: `base << attempt`, clamped to
/// `u64::MAX` on overflow of either the shift or the product.
///
/// `base` is clamped up to 1 so the schedule always advances.
#[must_use]
pub fn saturating_backoff(base: u64, attempt: u32) -> u64 {
    let base = base.max(1);
    match 1u64.checked_shl(attempt) {
        Some(multiplier) => base.saturating_mul(multiplier),
        None => u64::MAX,
    }
}

/// A seeded backoff schedule: owns the jitter rng.
///
/// Deterministic: the same seed and the same call sequence produce the
/// same delays. One instance serves one retry domain (an
/// admission-service run); delays are metered by the caller.
#[derive(Clone, Debug)]
pub struct Backoff {
    rng: SplitMix64,
}

impl Backoff {
    /// A schedule seeded with `seed` (callers apply their own domain
    /// mixing before passing it in).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Backoff {
            rng: SplitMix64::seed_from_u64(seed),
        }
    }

    /// The delay before retry number `attempt`:
    /// `saturating_backoff(BACKOFF_BASE, attempt)` plus jitter in
    /// `[0, BACKOFF_BASE)`.
    ///
    /// Advances the jitter rng, so call order matters for
    /// reproducibility.
    pub fn delay(&mut self, attempt: u32) -> u64 {
        saturating_backoff(BACKOFF_BASE, attempt).saturating_add(self.rng.next_u64() % BACKOFF_BASE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_exponential_at_small_attempts() {
        assert_eq!(saturating_backoff(1024, 0), 1024);
        assert_eq!(saturating_backoff(1024, 1), 2048);
        assert_eq!(saturating_backoff(1024, 3), 8192);
        // Zero base is clamped so the schedule still advances.
        assert_eq!(saturating_backoff(0, 4), 16);
    }

    #[test]
    fn backoff_saturates_at_large_attempts() {
        // Satellite regression: the old `base << attempt.min(16)`
        // wrapped for large bases and silently clamped the exponent.
        // The saturating form must clamp to u64::MAX instead, for any
        // attempt >= 60 and for shift counts past the word size.
        assert_eq!(saturating_backoff(1024, 60), u64::MAX);
        assert_eq!(saturating_backoff(1024, 63), u64::MAX);
        assert_eq!(saturating_backoff(1024, 64), u64::MAX);
        assert_eq!(saturating_backoff(1024, u32::MAX), u64::MAX);
        assert_eq!(saturating_backoff(u64::MAX, 1), u64::MAX);
        // Large base, small attempt: the product (not the shift)
        // overflows — this is the wrap the old code missed.
        assert_eq!(saturating_backoff(1 << 60, 16), u64::MAX);
        // Still exact below the saturation point.
        assert_eq!(saturating_backoff(1 << 60, 3), 1 << 63);
    }

    #[test]
    fn schedule_is_deterministic_and_jittered() {
        let run = || {
            let mut b = Backoff::new(42);
            (0..4).map(|a| b.delay(a)).collect::<Vec<_>>()
        };
        let delays = run();
        assert_eq!(delays, run(), "same seed must give the same schedule");
        for (attempt, d) in delays.iter().enumerate() {
            let floor = saturating_backoff(BACKOFF_BASE, attempt as u32);
            assert!(*d >= floor && *d < floor + BACKOFF_BASE);
        }
        let mut other = Backoff::new(43);
        let other_delays: Vec<u64> = (0..4).map(|a| other.delay(a)).collect();
        assert_ne!(delays, other_delays, "different seeds should jitter apart");
    }

    #[test]
    fn delay_never_panics_at_extreme_attempts() {
        let mut b = Backoff::new(7);
        assert_eq!(b.delay(200), u64::MAX, "saturates, never wraps");
        assert_eq!(b.delay(u32::MAX), u64::MAX);
    }
}
