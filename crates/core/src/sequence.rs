//! Sequences: an allocated `E_{i,j}` set serving one service level, shared
//! by every connection of that SL that fits (§3.2 of the paper: "several
//! connections, with the same VL, shared the entries in the arbitration
//! tables … until they fill in the maximum weight of their entries").

use crate::distance::Distance;
use crate::entry::VirtualLane;
use crate::eset::ESet;
use crate::sl::ServiceLevel;
use crate::weight::{Weight, MAX_ENTRY_WEIGHT};

/// Opaque handle to a sequence inside a [`crate::table::HighPriorityTable`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct SequenceId(pub(crate) u32);

impl SequenceId {
    /// Builds an id from a raw index. Table methods only accept ids they
    /// issued; constructing one is useful for standalone planning with
    /// [`crate::defrag::canonical_plan`].
    #[must_use]
    pub fn new(raw: u32) -> Self {
        SequenceId(raw)
    }

    /// Raw index (stable for the lifetime of the sequence).
    #[must_use]
    pub fn raw(self) -> u32 {
        self.0
    }
}

/// An allocated sequence of equally spaced table entries.
#[derive(Clone, Debug)]
pub struct Sequence {
    pub(crate) eset: ESet,
    pub(crate) vl: VirtualLane,
    pub(crate) sl: ServiceLevel,
    /// Accumulated weight of all connections sharing the sequence.
    pub(crate) total_weight: Weight,
    /// Number of connections currently sharing the sequence.
    pub(crate) connections: u32,
}

impl Sequence {
    /// The per-slot weight written into the table for an accumulated
    /// weight `total`: the accumulated weight divided evenly over the
    /// sequence's entries, rounded up (over-provisioning is in the
    /// connections' favour and keeps every slot identical, matching the
    /// paper's equal-treatment goal).
    #[must_use]
    pub fn per_slot_weight(total: Weight, entries: usize) -> u16 {
        debug_assert!(
            crate::invariants::per_slot_weight_in_range(total, entries),
            "per-slot weight out of range: total={total} entries={entries}"
        );
        total.div_ceil((entries as u32).max(1)) as u16
    }

    /// Whether a further connection of weight `extra` still fits under
    /// the 255-per-entry cap: the rounded-up per-slot weight stays at
    /// most 255 exactly when the total stays at most `255 · entries`.
    #[must_use]
    pub fn fits(&self, extra: Weight) -> bool {
        self.total_weight + extra <= MAX_ENTRY_WEIGHT as u32 * self.eset.len() as u32
    }

    /// Whether a request of latency distance `required` may legally join
    /// this sequence: the sequence's spacing must be at least as strict.
    #[must_use]
    pub fn satisfies_distance(&self, required: Distance) -> bool {
        self.eset.distance().at_least_as_strict(required)
    }
}

/// Public, read-only view of a sequence.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SequenceInfo {
    /// The entry set the sequence occupies.
    pub eset: ESet,
    /// Virtual lane its entries point at.
    pub vl: VirtualLane,
    /// Service level it serves.
    pub sl: ServiceLevel,
    /// Accumulated weight of the sharing connections.
    pub total_weight: Weight,
    /// Number of sharing connections.
    pub connections: u32,
    /// Weight currently written into each slot.
    pub per_slot_weight: u16,
}

impl From<&Sequence> for SequenceInfo {
    fn from(s: &Sequence) -> Self {
        SequenceInfo {
            eset: s.eset,
            vl: s.vl,
            sl: s.sl,
            total_weight: s.total_weight,
            connections: s.connections,
            per_slot_weight: Sequence::per_slot_weight(s.total_weight, s.eset.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(distance: Distance, total: Weight) -> Sequence {
        Sequence {
            eset: ESet::new(distance, 0),
            vl: VirtualLane::data(1),
            sl: ServiceLevel::new(1).unwrap(),
            total_weight: total,
            connections: 1,
        }
    }

    #[test]
    fn per_slot_weight_rounds_up() {
        assert_eq!(Sequence::per_slot_weight(1, 8), 1);
        assert_eq!(Sequence::per_slot_weight(8, 8), 1);
        assert_eq!(Sequence::per_slot_weight(9, 8), 2);
        assert_eq!(Sequence::per_slot_weight(255, 1), 255);
    }

    #[test]
    fn fits_respects_entry_cap() {
        // 8-entry sequence holds up to 8*255 = 2040 weight.
        let s = seq(Distance::D8, 2000);
        assert!(s.fits(40));
        assert!(!s.fits(41));
        // single-entry sequence
        let s = seq(Distance::D64, 200);
        assert!(s.fits(55));
        assert!(!s.fits(56));
    }

    #[test]
    fn distance_satisfaction_is_monotone() {
        let s = seq(Distance::D8, 10);
        assert!(s.satisfies_distance(Distance::D8));
        assert!(s.satisfies_distance(Distance::D16));
        assert!(s.satisfies_distance(Distance::D64));
        assert!(!s.satisfies_distance(Distance::D4));
        assert!(!s.satisfies_distance(Distance::D2));
    }

    #[test]
    fn info_mirrors_sequence() {
        let s = seq(Distance::D16, 100);
        let info = SequenceInfo::from(&s);
        assert_eq!(info.total_weight, 100);
        assert_eq!(info.per_slot_weight, 25);
        assert_eq!(info.connections, 1);
        assert_eq!(info.eset.len(), 4);
    }
}
