//! Content stamps: process-unique numbers that name one version of a
//! piece of configuration, so that **equal stamps imply equal content**.
//!
//! A table download compares stamps instead of table contents (see
//! [`crate::QosManager::apply_tables`]). The invariant holds because
//! every stamp value is handed out at most once per process: each
//! [`Stamps`] source owns a block of the process-wide counter and
//! draws from it with a plain increment, and a cloned source reserves a
//! block of its own. Content copied together with its stamp (a clone of
//! a registry) keeps that stamp, which stays truthful: the copy is
//! equal.

use std::sync::atomic::{AtomicU64, Ordering};

/// The next unreserved stamp. Starts at 1 so no stamp is 0.
static NEXT: AtomicU64 = AtomicU64::new(1);

/// Stamps a [`Stamps`] source reserves at a time.
const BLOCK: u64 = 1 << 20;

/// Reserves `n` consecutive stamps for the caller; returns the first.
/// `Relaxed` suffices: each `fetch_add` returns a range no other call
/// gets, and the counter publishes no other data.
fn reserve(n: u64) -> u64 {
    NEXT.fetch_add(n, Ordering::Relaxed)
}

/// One stamp no other caller will ever see (rare events: a policy
/// change).
pub(crate) fn unique() -> u64 {
    reserve(1)
}

/// A source of fresh stamps: a reserved block of the process-wide
/// counter, so drawing a stamp costs an increment, not an atomic
/// operation.
pub(crate) struct Stamps {
    next: u64,
    end: u64,
}

impl Stamps {
    pub(crate) fn new() -> Self {
        let next = reserve(BLOCK);
        Stamps {
            next,
            end: next + BLOCK,
        }
    }

    /// A stamp this source has not returned before.
    #[inline]
    pub(crate) fn fresh(&mut self) -> u64 {
        if self.next == self.end {
            *self = Stamps::new();
        }
        let stamp = self.next;
        self.next += 1;
        stamp
    }
}

/// A clone draws from a block of its own: the original and the clone
/// then stamp their diverging mutations differently.
impl Clone for Stamps {
    fn clone(&self) -> Self {
        Stamps::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sources_and_their_clones_never_repeat_a_stamp() {
        let mut a = Stamps::new();
        let mut b = a.clone();
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..1000 {
            assert!(seen.insert(a.fresh()));
            assert!(seen.insert(b.fresh()));
            assert!(seen.insert(unique()));
        }
        assert!(!seen.contains(&0), "0 is never a stamp");
    }

    #[test]
    fn an_exhausted_block_is_replaced() {
        let mut a = Stamps::new();
        let first = a.fresh();
        a.next = a.end;
        let refilled = a.fresh();
        assert!(refilled >= first + BLOCK, "a new block, not a repeat");
        assert_eq!(a.fresh(), refilled + 1);
    }
}
