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
//!
//! A source also only counts up: a refilled block lies past every block
//! reserved before it. So every stamp a registry hands out is larger
//! than all it handed out earlier, and "stamped after stamp `s`" is a
//! plain comparison within one registry's [`Lineage`].

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

/// Names one registry's history of stamps: drawn at construction and
/// drawn again by a clone, so two registries that could hand out
/// diverging stamps never share one.
pub(crate) struct Lineage(u64);

impl Lineage {
    pub(crate) fn new() -> Self {
        Lineage(unique())
    }

    pub(crate) fn id(&self) -> u64 {
        self.0
    }
}

/// A clone's history diverges from the original's from here on.
impl Clone for Lineage {
    fn clone(&self) -> Self {
        Lineage::new()
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

    #[test]
    fn stamps_strictly_increase_across_a_block_refill() {
        let mut a = Stamps::new();
        let mut b = Stamps::new();
        a.next = a.end - 1;
        let mut last = a.fresh();
        for _ in 0..3 {
            // Another source reserves between the refills.
            b.fresh();
            let _ = b.clone();
            let stamp = a.fresh();
            assert!(stamp > last, "{stamp} after {last}");
            last = stamp;
            a.next = a.end;
        }
    }
}
