//! Shared deterministic retry machinery: bounded attempts with
//! saturating exponential backoff and seeded jitter.
//!
//! Promoted out of `recovery.rs` so that both the data-plane
//! [`crate::recovery::RecoveryManager`] and the control-plane
//! timeouts in [`crate::service`] draw their backoff
//! schedule from one implementation. Everything here is a pure
//! function of the seed and the attempt number — no wall-clock, no
//! global state — which is what keeps faulted runs byte-reproducible.
//!
//! The growth curve is `base << attempt` **saturating**: a checked
//! shift that clamps to `u64::MAX` instead of wrapping. The previous
//! in-line implementation clamped the exponent (`attempt.min(16)`) but
//! still wrapped for large bases (`base << 16` overflows any base
//! above `2^48`); see `backoff_saturates_at_large_attempts`.

use iba_core::SplitMix64;

/// Tunables of a bounded retry schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Bounded retry attempts (on top of the first try).
    pub max_retries: u32,
    /// Base backoff in cycles; attempt `n` waits `base << n`
    /// (saturating) plus jitter in `[0, base)`.
    pub backoff_base: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            backoff_base: 1024,
        }
    }
}

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

/// A seeded backoff schedule: owns the jitter rng and the policy.
///
/// Deterministic: the same seed and the same call sequence produce the
/// same delays. One instance serves one retry domain (a recovery
/// manager, an admission-service run); delays are metered by the
/// caller.
#[derive(Clone, Debug)]
pub struct Backoff {
    rng: SplitMix64,
    policy: RetryPolicy,
}

impl Backoff {
    /// A schedule seeded with `seed` (callers apply their own domain
    /// mixing before passing it in).
    #[must_use]
    pub fn new(seed: u64, policy: RetryPolicy) -> Self {
        Backoff {
            rng: SplitMix64::seed_from_u64(seed),
            policy,
        }
    }

    /// The policy in force.
    #[must_use]
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// True when `attempt` has used up the retry budget.
    #[must_use]
    pub fn exhausted(&self, attempt: u32) -> bool {
        attempt >= self.policy.max_retries
    }

    /// The delay before retry number `attempt`:
    /// `saturating_backoff(base, attempt)` plus jitter in `[0, base)`.
    ///
    /// Advances the jitter rng, so call order matters for
    /// reproducibility.
    pub fn delay(&mut self, attempt: u32) -> u64 {
        let base = self.policy.backoff_base.max(1);
        saturating_backoff(base, attempt).saturating_add(self.rng.next_u64() % base)
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
        let policy = RetryPolicy::default();
        let run = || {
            let mut b = Backoff::new(42, policy);
            (0..4).map(|a| b.delay(a)).collect::<Vec<_>>()
        };
        let delays = run();
        assert_eq!(delays, run(), "same seed must give the same schedule");
        for (attempt, d) in delays.iter().enumerate() {
            let floor = saturating_backoff(policy.backoff_base, attempt as u32);
            assert!(*d >= floor && *d < floor + policy.backoff_base);
        }
        let mut other = Backoff::new(43, policy);
        let other_delays: Vec<u64> = (0..4).map(|a| other.delay(a)).collect();
        assert_ne!(delays, other_delays, "different seeds should jitter apart");
    }

    #[test]
    fn delay_never_panics_at_extreme_attempts() {
        let mut b = Backoff::new(
            7,
            RetryPolicy {
                max_retries: 100,
                backoff_base: u64::MAX,
            },
        );
        assert_eq!(b.delay(200), u64::MAX, "saturates, never wraps");
        assert!(b.exhausted(100));
        assert!(!b.exhausted(99));
    }
}
