//! Checkable statements of the formal properties from the companion
//! technical report (TR DIAB-03-01), used by the unit and property test
//! suites and by debug assertions elsewhere.

use crate::defrag::is_canonical;
use crate::distance::Distance;
use crate::eset::ESet;
use crate::table::HighPriorityTable;
use crate::weight::{Weight, MAX_ENTRY_WEIGHT};

/// The most restrictive distance for which a completely free `E_{i,j}`
/// still exists under `occupancy`, if any.
#[must_use]
pub fn most_restrictive_admissible(occupancy: u64) -> Option<Distance> {
    Distance::ALL
        .into_iter()
        .find(|&d| ESet::all(d).any(|e| e.is_free_in(occupancy)))
}

/// The paper's headline guarantee, as a predicate: *for every distance
/// `d`, if at least `64/d` entries are free then a free `E_{i,j}` of
/// distance `d` exists*. Holds for any table driven exclusively through
/// the bit-reversal allocator plus defragmentation.
#[must_use]
pub fn optimal_placement_holds(occupancy: u64) -> bool {
    is_canonical(occupancy)
}

/// A sequence's accumulated weight always divides over its entries
/// without exceeding the 255-per-entry cap (enforced at admission by
/// [`crate::sequence::Sequence::fits`]).
#[must_use]
pub fn per_slot_weight_in_range(total: Weight, entries: usize) -> bool {
    entries > 0 && total.div_ceil(entries as u32) <= MAX_ENTRY_WEIGHT as u32
}

/// Weight accounting balances per connection: a sequence whose last
/// connection has gone must have zero accumulated weight.
#[must_use]
pub fn released_sequence_is_drained(connections: u32, total_weight: Weight) -> bool {
    connections != 0 || total_weight == 0
}

/// Releasing the hops a live connection holds never fails: its ledger
/// (each hop's sequence id, the connection's weight) and the tables
/// agree exactly, repairs included. `failed_hops` counts the hops whose
/// release a table refused.
#[must_use]
pub fn held_hops_release(failed_hops: usize) -> bool {
    failed_hops == 0
}

/// Full-table invariant bundle: internal consistency plus the canonical
/// layout property. Returns a description of the first violation.
pub fn check_table(table: &HighPriorityTable) -> Result<(), String> {
    table.check_consistency()?;
    if !optimal_placement_holds(table.occupancy()) {
        return Err(format!(
            "occupancy {:#018x} is not canonical: {} entries free but most \
             restrictive admissible distance is {:?}",
            table.occupancy(),
            table.free_entries(),
            most_restrictive_admissible(table.occupancy())
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::AllocatorKind;
    use crate::entry::VirtualLane;
    use crate::sl::ServiceLevel;

    #[test]
    fn most_restrictive_on_empty_is_d2() {
        assert_eq!(most_restrictive_admissible(0), Some(Distance::D2));
    }

    #[test]
    fn most_restrictive_on_full_is_none() {
        assert_eq!(most_restrictive_admissible(u64::MAX), None);
    }

    #[test]
    fn busy_evens_leave_only_odd_d2() {
        // Evens busy: E(2,1) still free -> D2 admissible.
        let evens = ESet::new(Distance::D2, 0).mask();
        assert_eq!(most_restrictive_admissible(evens), Some(Distance::D2));
        // Both parities hit: only looser distances survive.
        let plus_one = evens | (1 << 1);
        assert_eq!(most_restrictive_admissible(plus_one), Some(Distance::D4));
    }

    #[test]
    fn bitrev_driven_table_always_canonical() {
        let mut t = HighPriorityTable::new();
        let sl = |i: u8| ServiceLevel::new(i).unwrap();
        let vl = |i: u8| VirtualLane::data(i);
        // A busy mixed workload with interleaved releases.
        let mut live = Vec::new();
        let script: &[(u8, Distance, u32)] = &[
            (0, Distance::D2, 64),
            (6, Distance::D64, 255),
            (2, Distance::D8, 100),
            (7, Distance::D64, 255),
            (4, Distance::D32, 30),
        ];
        for &(s, d, w) in script {
            if let Ok(adm) = t.admit(sl(s), vl(s), d, w) {
                live.push((adm.sequence, w));
            }
            check_table(&t).unwrap();
        }
        while let Some((id, w)) = live.pop() {
            t.release(id, w).unwrap();
            check_table(&t).unwrap();
        }
        assert_eq!(t.free_entries(), 64);
    }

    #[test]
    fn first_fit_table_can_violate_canonicity() {
        let mut t = HighPriorityTable::with_allocator(AllocatorKind::FirstFit);
        t.set_auto_defrag(false);
        let sl = |i: u8| ServiceLevel::new(i).unwrap();
        let vl = |i: u8| VirtualLane::data(i);
        t.admit(sl(6), vl(6), Distance::D64, 255).unwrap();
        t.admit(sl(7), vl(7), Distance::D64, 255).unwrap();
        // Slots 0 and 1 busy: 62 entries free yet no d=2 set.
        assert!(check_table(&t).is_err());
    }
}
