//! Cross-validation of the multiset quotient against concrete search.
//!
//! The quotient of [`crate::quotient`] is only as trustworthy as its
//! soundness argument, so this module checks the argument itself on
//! scaled-down tables ([`iba_core::model::MiniTable`], sizes 8/16/32)
//! where both sides are tractable:
//!
//! 1. the set of distance multisets reachable by **concrete**
//!    exploration ([`MiniTable::explore`] over raw `(d, offset)`
//!    states, defrag on free) equals the state set of the **quotient**
//!    exploration, and
//! 2. neither side ever reaches a non-canonical state.
//!
//! At sizes 8 and 16 both explorations are exhaustive, so (1) is a set
//! equality; at size 32 the concrete side is bounded and (1) weakens to
//! a subset check.

use iba_core::model::MiniTable;
use std::collections::{BTreeSet, VecDeque};

/// Outcome of one cross-validation run.
#[derive(Clone, Debug)]
pub struct CrossvalReport {
    /// Table size validated.
    pub size: u32,
    /// Concrete states visited.
    pub concrete_states: usize,
    /// Distinct multisets seen concretely.
    pub concrete_multisets: usize,
    /// Quotient states visited (always exhaustive).
    pub quotient_states: usize,
    /// Whether the concrete side hit its state bound.
    pub concrete_truncated: bool,
    /// Disagreements between the two explorations (empty = validated).
    pub mismatches: Vec<String>,
}

/// Quotient BFS over multisets of the scaled table: the representative
/// is rebuilt largest-first, canonicity is checked at every node, and
/// admission must succeed exactly when the free entries permit it.
fn quotient_explore(table: MiniTable, size: u32) -> (BTreeSet<Vec<u8>>, Vec<String>) {
    let dists: Vec<u32> = table.distances().collect();
    let costs: Vec<u32> = dists.iter().map(|d| size / d).collect();
    let mut violations = Vec::new();
    let mut seen: BTreeSet<Vec<u8>> = BTreeSet::new();
    let mut queue: VecDeque<Vec<u8>> = VecDeque::new();
    let start = vec![0u8; dists.len()];
    seen.insert(start.clone());
    queue.push_back(start);

    while let Some(counts) = queue.pop_front() {
        // Representative: admit largest-first (smallest distance =
        // most entries first), mirroring production defrag order.
        let mut occ = 0u64;
        let mut ok = true;
        for (i, &d) in dists.iter().enumerate() {
            for _ in 0..counts[i] {
                match table.alloc(occ, d) {
                    Some(s) => occ = table.occupancy_with(occ, s),
                    None => {
                        violations.push(format!(
                            "quotient size {size}: representative of {counts:?} failed at d={d}"
                        ));
                        ok = false;
                    }
                }
            }
        }
        if ok && !table.is_canonical(occ) {
            violations.push(format!("quotient size {size}: non-canonical {counts:?}"));
        }
        let used: u32 = counts
            .iter()
            .zip(&costs)
            .map(|(&c, &cost)| u32::from(c) * cost)
            .sum();
        for (i, &d) in dists.iter().enumerate() {
            let fits = used + costs[i] <= size;
            let placed = table.alloc(occ, d).is_some();
            if fits != placed {
                violations.push(format!(
                    "quotient size {size}: {counts:?} + d={d}: fits={fits} but placed={placed}"
                ));
            }
            if fits {
                let mut next = counts.clone();
                next[i] += 1;
                if seen.insert(next.clone()) {
                    queue.push_back(next);
                }
            }
        }
        for i in 0..dists.len() {
            if counts[i] > 0 {
                let mut next = counts.clone();
                next[i] -= 1;
                if seen.insert(next.clone()) {
                    queue.push_back(next);
                }
            }
        }
    }
    (seen, violations)
}

/// Runs both explorations at `size` and compares them. `max_concrete`
/// bounds the concrete side; pass `usize::MAX` for exhaustiveness.
#[must_use]
pub fn validate(size: u32, max_concrete: usize) -> CrossvalReport {
    let table = MiniTable::new(size);
    let concrete = table.explore(true, max_concrete);
    let (concrete_multisets, truncated) = (&concrete.multisets, concrete.truncated);
    let mut mismatches: Vec<String> = concrete
        .violations
        .iter()
        .map(|state| format!("concrete size {size}: non-canonical state {state:?}"))
        .collect();
    let (quotient_set, qviol) = quotient_explore(table, size);
    mismatches.extend(qviol);

    // Both sides are BTreeSets, so the mismatch report below comes out
    // in lexicographic multiset order — stable across runs and hashers.
    for m in concrete_multisets {
        if !quotient_set.contains(m) {
            mismatches.push(format!(
                "size {size}: multiset {m:?} reachable concretely but absent from quotient"
            ));
        }
    }
    if !truncated {
        for m in &quotient_set {
            if !concrete_multisets.contains(m) {
                mismatches.push(format!(
                    "size {size}: quotient state {m:?} not reachable concretely"
                ));
            }
        }
    }

    CrossvalReport {
        size,
        concrete_states: concrete.states,
        concrete_multisets: concrete_multisets.len(),
        quotient_states: quotient_set.len(),
        concrete_truncated: truncated,
        mismatches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size8_quotient_agrees_with_concrete() {
        let r = validate(8, usize::MAX);
        assert!(!r.concrete_truncated);
        assert!(r.mismatches.is_empty(), "{:?}", r.mismatches.first());
        assert_eq!(r.concrete_multisets, r.quotient_states);
    }

    #[test]
    fn size16_quotient_agrees_with_concrete() {
        let r = validate(16, usize::MAX);
        assert!(!r.concrete_truncated);
        assert!(r.mismatches.is_empty(), "{:?}", r.mismatches.first());
        assert_eq!(r.concrete_multisets, r.quotient_states);
    }

    #[test]
    fn size32_bounded_concrete_is_a_quotient_subset() {
        let r = validate(32, 30_000);
        assert!(r.mismatches.is_empty(), "{:?}", r.mismatches.first());
        assert!(r.concrete_multisets <= r.quotient_states);
    }
}
