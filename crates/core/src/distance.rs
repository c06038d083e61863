//! Request distances: the maximum separation between two consecutive
//! entries of a sequence in the high-priority table.
//!
//! The paper restricts distances to the divisors of 64 that yield
//! symmetric arithmetic progressions — the powers of two — and drops
//! distance 1 as "too strict to be considered in a practical way",
//! leaving `{2, 4, 8, 16, 32, 64}`.

use crate::entry::TABLE_ENTRIES;
use crate::weight::{Weight, MAX_ENTRY_WEIGHT};
use std::fmt;

/// A permitted maximum distance between consecutive sequence entries.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Distance {
    /// Entries every 2 slots — 32 entries, the most restrictive request.
    D2,
    /// Entries every 4 slots — 16 entries.
    D4,
    /// Entries every 8 slots — 8 entries.
    D8,
    /// Entries every 16 slots — 4 entries.
    D16,
    /// Entries every 32 slots — 2 entries.
    D32,
    /// A single entry anywhere in the table — the least restrictive.
    D64,
}

impl Distance {
    /// All permitted distances, most restrictive first.
    pub const ALL: [Distance; 6] = [
        Distance::D2,
        Distance::D4,
        Distance::D8,
        Distance::D16,
        Distance::D32,
        Distance::D64,
    ];

    /// The numeric distance `d`.
    #[must_use]
    pub fn slots(self) -> usize {
        1 << self.log2()
    }

    /// `log2(d)` — the paper's index `i`. The variants are declared in
    /// order from `D2`, so it is the discriminant plus one: arithmetic,
    /// not a jump table, where the distance varies from call to call.
    #[must_use]
    pub fn log2(self) -> u32 {
        self as u32 + 1
    }

    /// Number of equally spaced entries a sequence of this distance
    /// occupies: `64 / d`.
    #[must_use]
    pub fn entries(self) -> usize {
        TABLE_ENTRIES >> self.log2()
    }

    /// Builds a distance from the numeric slot count, if permitted.
    #[must_use]
    pub fn from_slots(d: usize) -> Option<Distance> {
        match d {
            2 => Some(Distance::D2),
            4 => Some(Distance::D4),
            8 => Some(Distance::D8),
            16 => Some(Distance::D16),
            32 => Some(Distance::D32),
            64 => Some(Distance::D64),
            _ => None,
        }
    }

    /// Rounds an arbitrary requested distance **down** to the closest
    /// permitted one ("the requests must be considered in terms of the
    /// closest lower power of 2, perhaps using more entries than
    /// needed"). Requests below 2 are unsatisfiable; requests above 64
    /// saturate to [`Distance::D64`].
    #[must_use]
    pub fn round_down(requested: usize) -> Option<Distance> {
        if requested < 2 {
            return None;
        }
        let p = usize::min(1 << requested.ilog2(), 64);
        Distance::from_slots(p)
    }

    /// The next more restrictive distance (smaller `d`), if any.
    #[must_use]
    pub fn tighter(self) -> Option<Distance> {
        // ALL is sorted by log2: D2 is index 0, D64 index 5.
        let i = self.log2() as usize - 1;
        (i > 0).then(|| Distance::ALL[i - 1])
    }

    /// The next less restrictive distance (larger `d`), if any.
    #[must_use]
    pub fn looser(self) -> Option<Distance> {
        let i = self.log2() as usize - 1;
        Distance::ALL.get(i + 1).copied()
    }

    /// Is `self` at least as restrictive as `other` (`d_self <= d_other`)?
    #[must_use]
    pub fn at_least_as_strict(self, other: Distance) -> bool {
        self.slots() <= other.slots()
    }
}

impl fmt::Display for Distance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d={}", self.slots())
    }
}

/// The number of table entries a request needs, combining its latency
/// requirement (distance `d`) and its bandwidth requirement (weight `w`):
/// `max(64/d, ceil(w/255))`, as in §3.1 of the paper.
#[must_use]
pub fn entries_needed(distance: Distance, weight: Weight) -> usize {
    let by_distance = distance.entries();
    let by_weight = weight.div_ceil(MAX_ENTRY_WEIGHT as u32) as usize;
    by_distance.max(by_weight)
}

/// The *effective* distance of a request once both requirements are
/// folded in: the entry count is rounded up to the next power of two
/// (so the progression stays symmetric), and the effective distance is
/// `64 / entries`.
///
/// Distance 1 is not a permitted progression (the paper drops it as
/// impractically strict), so a single sequence spans at most 32 entries;
/// a request whose weight alone needs more than `32 · 255` units is
/// rejected with `None`.
#[must_use]
pub fn effective_request(distance: Distance, weight: Weight) -> Option<(Distance, usize)> {
    let n = entries_needed(distance, weight).next_power_of_two();
    if n > TABLE_ENTRIES / 2 {
        return None;
    }
    let d = Distance::from_slots(TABLE_ENTRIES / n)?;
    Some((d, n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_and_entries_are_consistent() {
        for d in Distance::ALL {
            assert_eq!(d.slots() * d.entries(), TABLE_ENTRIES);
            assert_eq!(1usize << d.log2(), d.slots());
            assert_eq!(Distance::from_slots(d.slots()), Some(d));
        }
    }

    #[test]
    fn round_down_picks_closest_lower_power() {
        assert_eq!(Distance::round_down(0), None);
        assert_eq!(Distance::round_down(1), None);
        assert_eq!(Distance::round_down(2), Some(Distance::D2));
        assert_eq!(Distance::round_down(3), Some(Distance::D2));
        assert_eq!(Distance::round_down(7), Some(Distance::D4));
        assert_eq!(Distance::round_down(8), Some(Distance::D8));
        assert_eq!(Distance::round_down(63), Some(Distance::D32));
        assert_eq!(Distance::round_down(64), Some(Distance::D64));
        assert_eq!(Distance::round_down(1000), Some(Distance::D64));
    }

    #[test]
    fn round_down_never_loosens() {
        for req in 2..200 {
            let d = Distance::round_down(req).unwrap();
            assert!(d.slots() <= req, "rounded {req} up to {d}");
        }
    }

    #[test]
    fn tighter_looser_walk_the_ladder() {
        assert_eq!(Distance::D2.tighter(), None);
        assert_eq!(Distance::D64.looser(), None);
        assert_eq!(Distance::D8.tighter(), Some(Distance::D4));
        assert_eq!(Distance::D8.looser(), Some(Distance::D16));
    }

    #[test]
    fn entries_needed_takes_the_max() {
        // Latency dominates: d=2 with tiny weight still needs 32 entries.
        assert_eq!(entries_needed(Distance::D2, 1), 32);
        // Bandwidth dominates: d=64 with weight 836 needs 4 entries.
        assert_eq!(entries_needed(Distance::D64, 836), 4);
        // Exactly at the entry boundary.
        assert_eq!(entries_needed(Distance::D64, 255), 1);
        assert_eq!(entries_needed(Distance::D64, 256), 2);
    }

    #[test]
    fn effective_request_rounds_to_power_of_two() {
        // 3 entries by weight -> 4 entries -> effective distance 16.
        let (d, n) = effective_request(Distance::D64, 3 * 255).unwrap();
        assert_eq!(n, 4);
        assert_eq!(d, Distance::D16);
        // Latency-dominated requests keep their distance.
        let (d, n) = effective_request(Distance::D8, 10).unwrap();
        assert_eq!((d, n), (Distance::D8, 8));
    }

    #[test]
    fn effective_request_caps_at_half_table() {
        // 32 entries (distance 2) is the largest possible sequence...
        let (d, n) = effective_request(Distance::D64, 32 * 255).unwrap();
        assert_eq!((d, n), (Distance::D2, 32));
        // ...one more weight unit would need a distance-1 progression,
        // which the paper excludes.
        assert_eq!(effective_request(Distance::D64, 32 * 255 + 1), None);
    }

    #[test]
    fn effective_request_preserves_latency_requirement() {
        // The effective distance never loosens the requested one.
        for d in Distance::ALL {
            for w in [1u32, 100, 255, 256, 1000, 4000] {
                if let Some((eff, n)) = effective_request(d, w) {
                    assert!(eff.at_least_as_strict(d));
                    assert!(n * eff.slots() == TABLE_ENTRIES);
                    assert!(n as u32 * 255 >= w, "entries cannot carry weight");
                }
            }
        }
    }
}
