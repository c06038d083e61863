//! The paper's `E_{i,j}` sets: the entries of the table separated by an
//! equal distance `d = 2^i`, starting at offset `j`.
//!
//! An `E_{i,j}` is represented compactly as a 64-bit mask over the table
//! slots, which makes freeness tests and occupancy updates single AND/OR
//! operations.

use crate::bitrev::probe_order;
use crate::distance::Distance;
use crate::entry::TABLE_ENTRIES;

/// Base pattern of `E_{i,0}`, indexed by `i = log2(d)`: bits
/// `0, d, 2d, …`. A set's mask is its base pattern shifted by `j`.
const BASE_MASKS: [u64; 7] = {
    let mut masks = [0u64; 7];
    let mut i = 0;
    while i < masks.len() {
        let mut k = 0;
        while k < TABLE_ENTRIES {
            masks[i] |= 1u64 << k;
            k += 1 << i;
        }
        i += 1;
    }
    masks
};

/// The set `E_{i,j} = { t_{j + n·2^i} : n = 0 .. 64/2^i - 1 }`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ESet {
    distance: Distance,
    offset: u8,
}

impl ESet {
    /// `E_{6,0}`, the single slot 0: a filler for fixed-size buffers.
    pub(crate) const SLOT_ZERO: ESet = ESet {
        distance: Distance::D64,
        offset: 0,
    };

    /// Creates `E_{i,j}` for `i = log2(distance)` and offset `j`.
    ///
    /// Panics if `offset >= distance` (offsets beyond the distance alias
    /// sets that already exist at smaller offsets).
    #[must_use]
    pub fn new(distance: Distance, offset: usize) -> Self {
        assert!(
            offset < distance.slots(),
            "offset {offset} out of range for {distance}"
        );
        ESet {
            distance,
            offset: offset as u8,
        }
    }

    /// The distance `d = 2^i` of this set.
    #[must_use]
    pub fn distance(self) -> Distance {
        self.distance
    }

    /// The start offset `j`.
    #[must_use]
    pub fn offset(self) -> usize {
        self.offset as usize
    }

    /// Number of table slots in the set (`64 / d`).
    #[must_use]
    pub fn len(self) -> usize {
        self.distance.entries()
    }

    /// E-sets are never empty (even `E` at distance 64 holds one slot).
    #[must_use]
    pub fn is_empty(self) -> bool {
        false
    }

    /// Iterator over the slot indices `j, j+d, j+2d, …`.
    pub fn slots(self) -> impl Iterator<Item = usize> {
        let d = self.distance.slots();
        let j = self.offset as usize;
        (0..self.len()).map(move |n| j + n * d)
    }

    /// The set as a bitmask over the 64 table slots.
    #[must_use]
    pub fn mask(self) -> u64 {
        BASE_MASKS[self.distance.log2() as usize] << self.offset
    }

    /// Whether every slot of the set is free under the given occupancy
    /// bitmask (bit set = slot busy).
    #[must_use]
    pub fn is_free_in(self, occupancy: u64) -> bool {
        self.mask() & occupancy == 0
    }

    /// `occupancy` with this set's slots additionally marked busy.
    /// Keeps the bit twiddling inside this crate so callers building a
    /// scenario never manipulate raw occupancy masks.
    #[must_use]
    pub fn occupy(self, occupancy: u64) -> u64 {
        occupancy | self.mask()
    }

    /// Splits this set into its two child sets at double the distance:
    /// `E_{i,j} = E_{i+1,j} ∪ E_{i+1,j+2^i}`.
    ///
    /// Returns `None` for distance-64 sets (single slot, nothing to split).
    #[must_use]
    pub fn split(self) -> Option<(ESet, ESet)> {
        let looser = self.distance.looser()?;
        let d = self.distance.slots();
        Some((
            ESet::new(looser, self.offset as usize),
            ESet::new(looser, self.offset as usize + d),
        ))
    }

    /// All `E_{i,j}` for a given distance, in the paper's bit-reversal
    /// probe order.
    pub fn probe_sequence(distance: Distance) -> impl Iterator<Item = ESet> {
        probe_order(distance.log2()).map(move |j| ESet::new(distance, j as usize))
    }

    /// All `E_{i,j}` for a given distance in natural offset order.
    pub fn all(distance: Distance) -> impl Iterator<Item = ESet> {
        (0..distance.slots()).map(move |j| ESet::new(distance, j))
    }
}

impl std::fmt::Display for ESet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "E{},{}", self.distance.log2(), self.offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_equally_spaced() {
        let e = ESet::new(Distance::D8, 3);
        let slots: Vec<usize> = e.slots().collect();
        assert_eq!(slots, vec![3, 11, 19, 27, 35, 43, 51, 59]);
    }

    #[test]
    fn mask_matches_slots() {
        for d in Distance::ALL {
            for e in ESet::all(d) {
                let from_slots = e.slots().fold(0u64, |m, s| m | 1 << s);
                assert_eq!(e.mask(), from_slots, "{e}");
                assert_eq!(e.mask().count_ones() as usize, e.len());
            }
        }
    }

    #[test]
    fn sets_of_same_distance_partition_the_table() {
        for d in Distance::ALL {
            let mut acc = 0u64;
            for e in ESet::all(d) {
                assert_eq!(acc & e.mask(), 0, "sets overlap");
                acc |= e.mask();
            }
            assert_eq!(acc, u64::MAX, "sets do not cover the table");
        }
    }

    #[test]
    fn freeness_against_occupancy() {
        let e = ESet::new(Distance::D32, 5); // slots 5 and 37
        assert!(e.is_free_in(0));
        assert!(e.is_free_in(1 << 4 | 1 << 6));
        assert!(!e.is_free_in(1 << 5));
        assert!(!e.is_free_in(1 << 37));
    }

    #[test]
    fn split_children_partition_parent() {
        for d in [Distance::D2, Distance::D8, Distance::D32] {
            for e in ESet::all(d) {
                let (a, b) = e.split().unwrap();
                assert_eq!(a.mask() | b.mask(), e.mask());
                assert_eq!(a.mask() & b.mask(), 0);
            }
        }
        assert!(ESet::new(Distance::D64, 7).split().is_none());
    }

    #[test]
    fn buddy_is_symmetric_and_merges_to_parent() {
        // Every set looser than distance 2 is one half of the split of
        // its parent `E_{i-1, j mod d/2}`; the other half is its buddy,
        // and the buddy's parent is the same set.
        for d in [Distance::D4, Distance::D16, Distance::D64] {
            let half = d.slots() / 2;
            for e in ESet::all(d) {
                let parent = ESet::new(d.tighter().unwrap(), e.offset() % half);
                let (a, b) = parent.split().unwrap();
                assert!(a == e || b == e, "{e:?} is not a child of {parent:?}");
                let buddy = if a == e { b } else { a };
                assert_ne!(buddy, e);
                assert_eq!(buddy.offset() % half, e.offset() % half);
                assert_eq!(parent.mask(), e.mask() | buddy.mask());
            }
        }
        assert!(Distance::D2.tighter().is_none());
    }

    #[test]
    fn probe_sequence_matches_paper_order_for_d8() {
        let offsets: Vec<usize> = ESet::probe_sequence(Distance::D8)
            .map(|e| e.offset())
            .collect();
        assert_eq!(offsets, vec![0, 4, 2, 6, 1, 5, 3, 7]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn offset_must_be_below_distance() {
        let _ = ESet::new(Distance::D4, 4);
    }
}
