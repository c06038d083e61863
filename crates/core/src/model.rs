//! Bounded model checking of the allocator's formal properties.
//!
//! The companion technical report (Alfaro et al., *Formalizing the
//! Fill-In of the InfiniBand Arbitration Table*, TR DIAB-03-01) proves
//! theorems about the bit-reversal policy. This module reproduces them
//! as **exhaustive state-space exploration** over scaled-down tables
//! (2^k entries): starting from the empty table, every reachable state
//! under {allocate at any distance, free any live sequence (+ defrag)}
//! is enumerated and the canonical invariant — *free entries can always
//! serve the most restrictive request their count permits* — is checked
//! in every state.
//!
//! Exhaustive at size 8/16/32; the 64-entry production table is covered
//! by the property tests (the state space is the same construction, one
//! level deeper).

use crate::bitrev::bit_reverse;
// lint: allow(no-unordered-iter) -- BFS dedup set: membership tests only, never iterated
use std::collections::{BTreeSet, HashSet, VecDeque};

/// A live sequence in the scaled model: distance `d` (power of two) and
/// offset `j < d`, occupying slots `j, j+d, …` of a `size`-entry table.
pub type ModelSeq = (u8, u8);

/// A state: the sorted set of live sequences.
pub type ModelState = Vec<ModelSeq>;

/// Result of an exploration.
#[derive(Clone, Debug, Default)]
pub struct ExplorationReport {
    /// Distinct states visited.
    pub states: usize,
    /// Transitions examined.
    pub transitions: usize,
    /// States violating the canonical invariant (with the state).
    pub violations: Vec<ModelState>,
    /// True when the exploration hit its state bound before the
    /// frontier drained — the report then covers a prefix of the space.
    pub truncated: bool,
    /// The distance multisets of the visited states, each as counts
    /// indexed by `log2(d) - 1` — the projection the verify crate's
    /// quotient explores.
    pub multisets: BTreeSet<Vec<u8>>,
}

/// The scaled-down table model.
#[derive(Clone, Copy, Debug)]
pub struct MiniTable {
    size: u32,
    log2: u32,
}

impl MiniTable {
    /// A model of a `size`-entry table (`size` a power of two, 2..=64).
    #[must_use]
    pub fn new(size: u32) -> Self {
        assert!(size.is_power_of_two() && (2..=64).contains(&size));
        MiniTable {
            size,
            log2: size.trailing_zeros(),
        }
    }

    /// Permitted distances: powers of two from 2 to `size`.
    pub fn distances(self) -> impl Iterator<Item = u32> {
        (1..=self.log2).map(|i| 1u32 << i)
    }

    /// Occupancy mask of a sequence.
    #[must_use]
    pub fn mask(self, seq: ModelSeq) -> u64 {
        let (d, j) = (u32::from(seq.0), u32::from(seq.1));
        let mut m = 0u64;
        let mut s = j;
        while s < self.size {
            m |= 1 << s;
            s += d;
        }
        m
    }

    /// Occupancy of a whole state.
    #[must_use]
    pub fn occupancy(self, state: &ModelState) -> u64 {
        state.iter().fold(0, |m, &s| m | self.mask(s))
    }

    /// `occupancy` with `seq`'s slots additionally marked busy. Keeps
    /// the bit twiddling inside this crate so callers (the verify
    /// crate's cross-validation) never touch raw occupancy masks.
    #[must_use]
    pub fn occupancy_with(self, occupancy: u64, seq: ModelSeq) -> u64 {
        occupancy | self.mask(seq)
    }

    /// The canonical invariant at this table size.
    #[must_use]
    pub fn is_canonical(self, occupancy: u64) -> bool {
        let free = self.size - occupancy.count_ones();
        self.distances().all(|d| {
            let entries = self.size / d;
            entries > free || self.has_free_set(occupancy, d)
        })
    }

    fn has_free_set(self, occupancy: u64, d: u32) -> bool {
        (0..d).any(|j| self.mask((d as u8, j as u8)) & occupancy == 0)
    }

    /// Bit-reversal allocation: the first free set for distance `d` in
    /// probe order.
    #[must_use]
    pub fn alloc(self, occupancy: u64, d: u32) -> Option<ModelSeq> {
        let bits = d.trailing_zeros();
        (0..d)
            .map(|k| bit_reverse(k, bits))
            .map(|j| (d as u8, j as u8))
            .find(|&s| self.mask(s) & occupancy == 0)
    }

    /// Defragmentation: re-place all sequences largest-first with the
    /// bit-reversal policy (the production algorithm, scaled).
    #[must_use]
    pub fn defrag(self, state: &ModelState) -> ModelState {
        let mut order: Vec<ModelSeq> = state.clone();
        order.sort_by_key(|&(d, j)| (d, j));
        let mut occ = 0u64;
        let mut out = Vec::with_capacity(order.len());
        for (d, _) in order {
            let s = self.alloc(occ, u32::from(d));
            // Theorem (TR DIAB-03-01): largest-first re-placement of a
            // feasible sequence set always fits.
            assert!(s.is_some(), "descending-size packing must fit (d={d})");
            if let Some(s) = s {
                occ |= self.mask(s);
                out.push(s);
            }
        }
        out.sort_unstable();
        out
    }

    /// The distance multiset of a state, as counts indexed by
    /// `log2(d) - 1`.
    fn multiset(self, state: &ModelState) -> Vec<u8> {
        let mut counts = vec![0u8; self.log2 as usize];
        for &(d, _) in state {
            counts[d.trailing_zeros() as usize - 1] += 1;
        }
        counts
    }

    /// Explores every reachable state of the dynamic system
    /// (alloc at any distance, free any sequence then defrag if
    /// `with_defrag`), checking the invariant everywhere.
    ///
    /// Exploration stops after `max_states` states; the report's
    /// `truncated` flag says whether the bound was hit (callers that
    /// need exhaustiveness must assert it is false).
    #[must_use]
    pub fn explore(self, with_defrag: bool, max_states: usize) -> ExplorationReport {
        let mut report = ExplorationReport::default();
        // Hash-based on purpose: ~2M states at size 16, membership-only
        // (visit order comes from the VecDeque, so no order escapes).
        // lint: allow(no-unordered-iter) -- membership-only dedup on the hot BFS path
        let mut seen: HashSet<ModelState> = HashSet::new();
        let mut queue: VecDeque<ModelState> = VecDeque::new();
        let empty: ModelState = Vec::new();
        seen.insert(empty.clone());
        queue.push_back(empty);

        while let Some(state) = queue.pop_front() {
            if report.states >= max_states {
                report.truncated = true;
                break;
            }
            report.states += 1;
            report.multisets.insert(self.multiset(&state));
            let occ = self.occupancy(&state);
            if !self.is_canonical(occ) {
                report.violations.push(state.clone());
            }

            // Allocation transitions.
            for d in self.distances() {
                report.transitions += 1;
                if let Some(s) = self.alloc(occ, d) {
                    let mut next = state.clone();
                    next.push(s);
                    next.sort_unstable();
                    if seen.insert(next.clone()) {
                        queue.push_back(next);
                    }
                }
            }
            // Free transitions.
            for i in 0..state.len() {
                report.transitions += 1;
                let mut next = state.clone();
                next.remove(i);
                if with_defrag {
                    next = self.defrag(&next);
                }
                next.sort_unstable();
                if seen.insert(next.clone()) {
                    queue.push_back(next);
                }
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_partition() {
        let t = MiniTable::new(16);
        for d in t.distances() {
            let mut acc = 0u64;
            for j in 0..d {
                let m = t.mask((d as u8, j as u8));
                assert_eq!(acc & m, 0);
                acc |= m;
            }
            assert_eq!(acc, (1u64 << 16) - 1);
        }
    }

    #[test]
    fn theorem_size8_dynamic_system_is_always_canonical() {
        let t = MiniTable::new(8);
        let report = t.explore(true, 100_000);
        assert!(!report.truncated, "state bound hit");
        assert!(
            report.violations.is_empty(),
            "violations: {:?}",
            report.violations
        );
        assert!(report.states > 10, "exploration too shallow");
    }

    #[test]
    fn theorem_size16_dynamic_system_is_always_canonical() {
        let t = MiniTable::new(16);
        let report = t.explore(true, 2_000_000);
        assert!(!report.truncated, "state bound hit");
        assert!(
            report.violations.is_empty(),
            "first violation: {:?}",
            report.violations.first()
        );
        assert!(report.states > 100);
    }

    #[test]
    fn without_defrag_violations_exist_and_are_detected() {
        // Sanity of the checker itself: dropping defragmentation must
        // expose non-canonical reachable states.
        let t = MiniTable::new(8);
        let report = t.explore(false, 200_000);
        assert!(
            !report.violations.is_empty(),
            "checker failed to find known violations"
        );
    }

    #[test]
    fn alloc_matches_production_probe_order() {
        // At size 64 the model must agree with the production allocator.
        use crate::alloc::AllocatorKind;
        use crate::distance::Distance;
        let t = MiniTable::new(64);
        let mut occ = 0u64;
        for d in [Distance::D64, Distance::D8, Distance::D2, Distance::D16] {
            let model = t.alloc(occ, d.slots() as u32).unwrap();
            let prod = AllocatorKind::BitReversal.select(occ, d).unwrap();
            assert_eq!(u32::from(model.1), prod.offset() as u32, "{d}");
            occ |= t.mask(model);
        }
    }

    #[test]
    fn defrag_is_idempotent() {
        let t = MiniTable::new(16);
        let state: ModelState = vec![(4, 1), (8, 6), (16, 11)];
        let once = t.defrag(&state);
        let twice = t.defrag(&once);
        assert_eq!(once, twice);
        assert!(t.is_canonical(t.occupancy(&once)));
    }
}
