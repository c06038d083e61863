//! Defragmentation: restoring the canonical free-entry layout after
//! sequences die ("it puts together free small sets to form a larger
//! free set").
//!
//! # The reversed-space view
//!
//! Let `σ(slot) = bit_reverse(slot, 6)`. Under σ, the set `E_{i,j}`
//! maps to a **contiguous, naturally aligned block** of `64/2^i` slots
//! at block index `rev_i(j)` — so the paper's probe order is exactly a
//! leftmost-first *buddy allocator* in reversed space, and
//! defragmentation is buddy compaction: re-place every live sequence
//! leftmost-first in descending size order. Descending-size placement of
//! power-of-two, naturally aligned blocks always packs without gaps,
//! which leaves the free slots as a contiguous suffix in reversed space;
//! a contiguous suffix of length `f` contains an aligned block of every
//! power-of-two size `≤ f`, hence the canonical invariant: *any request
//! whose entry count does not exceed the free-entry count is
//! satisfiable*.
//!
//! # The cursor form
//!
//! Because descending-size placement keeps the used slots a contiguous
//! prefix of reversed space, the leftmost free aligned block for the
//! next sequence always starts at the prefix's end. The plan therefore
//! needs no probes: a cursor counts the reversed-space slots packed so
//! far, the next sequence of `s = 64/d` entries takes block
//! `cursor / s`, i.e. `E_{log2 d, rev(cursor / s)}`, and the cursor
//! advances by `s`. The set does not fit once `cursor + s > 64`.

use crate::bitrev::bit_reverse;
use crate::entry::TABLE_ENTRIES;
use crate::eset::ESet;
use crate::sequence::SequenceId;

/// One sequence move produced by the defragmentation pass.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Relocation {
    /// The sequence being (possibly) moved.
    pub sequence: SequenceId,
    /// Where it was.
    pub from: ESet,
    /// Where it is now (equal to `from` when it did not move).
    pub to: ESet,
}

/// Computes the canonical placement for a set of live sequences.
///
/// Sequences are re-placed leftmost-first in reversed space (the
/// bit-reversal policy's choice), largest (most entries, i.e. smallest
/// distance) first; ties are broken by the current offset and then the
/// id, which keeps the plan deterministic. The tie-break does not avoid
/// moves: equal-size sequences sort by natural offset, not by their
/// reversed-space position, so a plan can swap two equal-size sequences
/// whose union already sits in place, rewriting slots without changing
/// the occupancy mask.
///
/// Returns `None` only if re-packing fails, which is impossible for any
/// set of non-overlapping live sequences (their total size is ≤ 64 and
/// descending-size buddy packing never fragments); the `Option` exists
/// so callers can keep the proof obligation visible.
#[must_use]
pub fn canonical_plan(live: &[(SequenceId, ESet)]) -> Option<Vec<Relocation>> {
    let mut plan: Vec<Relocation> = live
        .iter()
        .map(|&(sequence, from)| Relocation {
            sequence,
            from,
            to: from,
        })
        .collect();
    plan_in_place(&mut plan).then_some(plan)
}

/// The canonical plan computed in place, without allocating: sorts
/// `plan` into placement order by its `from` sets and sets every `to`.
/// Returns `false` (leaving the targets partly set) when the sequences
/// do not fit in one table.
pub(crate) fn plan_in_place(plan: &mut [Relocation]) -> bool {
    // Ids are unique, so the unstable sort's order is fully determined.
    plan.sort_unstable_by_key(|r| (r.from.distance().slots(), r.from.offset(), r.sequence));
    let mut cursor = 0;
    for r in plan {
        let d = r.from.distance();
        let size = d.entries();
        if cursor + size > TABLE_ENTRIES {
            return false;
        }
        r.to = ESet::new(d, bit_reverse((cursor / size) as u32, d.log2()) as usize);
        cursor += size;
    }
    true
}

/// Whether an occupancy mask is canonical: for every distance `d`, if at
/// least `64/d` entries are free then some `E_{i,j}` of that distance is
/// entirely free. This is the invariant defragmentation restores and the
/// bit-reversal allocator preserves.
#[must_use]
pub fn is_canonical(occupancy: u64) -> bool {
    use crate::distance::Distance;
    let free = 64 - occupancy.count_ones() as usize;
    Distance::ALL
        .iter()
        .all(|&d| d.entries() > free || ESet::all(d).any(|e| e.is_free_in(occupancy)))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::distance::Distance;

    fn id(i: u32) -> SequenceId {
        SequenceId(i)
    }

    #[test]
    fn empty_plan_is_empty() {
        assert_eq!(canonical_plan(&[]).unwrap().len(), 0);
        assert!(is_canonical(0));
    }

    #[test]
    fn already_canonical_layout_does_not_move() {
        // Allocate in the canonical way: a d2 (32 entries) then d4.
        let live = vec![
            (id(0), ESet::new(Distance::D2, 0)),
            (id(1), ESet::new(Distance::D4, 1)),
        ];
        let plan = canonical_plan(&live).unwrap();
        for r in &plan {
            assert_eq!(r.from, r.to, "no moves expected");
        }
    }

    #[test]
    fn fragmented_singles_are_compacted() {
        // Singles on both parities block every d=2 set.
        let live = vec![
            (id(0), ESet::new(Distance::D64, 1)),
            (id(1), ESet::new(Distance::D64, 2)),
        ];
        let mut occ = 0u64;
        for (_, e) in &live {
            occ |= e.mask();
        }
        assert!(!is_canonical(occ));

        let plan = canonical_plan(&live).unwrap();
        let mut new_occ = 0u64;
        for r in &plan {
            new_occ |= r.to.mask();
        }
        assert!(is_canonical(new_occ));
        assert_eq!(new_occ.count_ones(), 2);
    }

    #[test]
    fn plan_never_overlaps() {
        let live = vec![
            (id(0), ESet::new(Distance::D8, 5)),
            (id(1), ESet::new(Distance::D8, 2)),
            (id(2), ESet::new(Distance::D16, 1)),
            (id(3), ESet::new(Distance::D64, 11)),
            (id(4), ESet::new(Distance::D64, 19)),
        ];
        let plan = canonical_plan(&live).unwrap();
        let mut occ = 0u64;
        for r in &plan {
            assert_eq!(occ & r.to.mask(), 0, "overlap at {}", r.to);
            occ |= r.to.mask();
        }
        assert!(is_canonical(occ));
    }

    #[test]
    fn largest_first_ordering() {
        // A d2 sequence must be placed before singles so it can span the
        // evens.
        let live = vec![
            (id(0), ESet::new(Distance::D64, 7)),
            (id(1), ESet::new(Distance::D2, 1)),
        ];
        let plan = canonical_plan(&live).unwrap();
        let d2 = plan.iter().find(|r| r.sequence == id(1)).unwrap();
        assert_eq!(d2.to, ESet::new(Distance::D2, 0));
    }

    #[test]
    fn is_canonical_detects_mixed_parity_singles() {
        // A single busy slot leaves the opposite-parity d=2 set free, so
        // it is canonical at either parity...
        assert!(is_canonical(1u64 << 0));
        assert!(is_canonical(1u64 << 1));
        // ...but singles on both parities kill both d=2 sets while 62
        // entries remain free => not canonical.
        assert!(!is_canonical(1u64 << 0 | 1u64 << 1));
    }

    #[test]
    fn full_table_is_canonical() {
        assert!(is_canonical(u64::MAX));
    }

    /// The probe-based planner the cursor form replaced: each sequence,
    /// in canonical order, takes the first free set the bit-reversal
    /// allocator finds.
    pub(crate) fn probe_plan(live: &[(SequenceId, ESet)]) -> Option<Vec<Relocation>> {
        let mut order: Vec<&(SequenceId, ESet)> = live.iter().collect();
        order.sort_by_key(|(id, e)| (e.distance().slots(), e.offset(), *id));
        let mut occupancy = 0u64;
        let mut plan = Vec::with_capacity(live.len());
        for (id, from) in order {
            let to = crate::AllocatorKind::BitReversal.select(occupancy, from.distance())?;
            occupancy |= to.mask();
            plan.push(Relocation {
                sequence: *id,
                from: *from,
                to,
            });
        }
        Some(plan)
    }

    /// A random set at a random offset of a random distance.
    fn any_set(rng: &mut crate::rng::SplitMix64) -> ESet {
        let d = *rng.choose(&Distance::ALL).expect("non-empty");
        ESet::new(d, rng.gen_range(0usize..d.slots()))
    }

    /// Live sets of `tries` greedy non-overlapping picks; a full table
    /// is topped up with singles.
    fn packed_set(rng: &mut crate::rng::SplitMix64, tries: usize, full: bool) -> Vec<ESet> {
        let mut occ = 0u64;
        let mut sets = Vec::new();
        for _ in 0..tries {
            let e = any_set(rng);
            if e.is_free_in(occ) {
                occ |= e.mask();
                sets.push(e);
            }
        }
        if full {
            sets.extend(
                (0..64)
                    .filter(|s| occ & 1 << s == 0)
                    .map(|s| ESet::new(Distance::D64, s)),
            );
        }
        sets
    }

    #[test]
    fn cursor_plan_equals_the_probe_plan() {
        let mut rng = crate::rng::SplitMix64::seed_from_u64(0xDEF4A6);
        let (mut full, mut overfull) = (0, 0);
        for seed in 0..3000u64 {
            let sets = match seed % 5 {
                // Non-overlapping sets of every fill level.
                0 | 1 => {
                    let tries = rng.gen_range(0usize..80);
                    packed_set(&mut rng, tries, false)
                }
                // Full tables.
                2 => packed_set(&mut rng, 40, true),
                // Arbitrary sets, overlapping as after an entry-set
                // collision: some fit, most over-full ones must not.
                _ => {
                    let n = rng.gen_range(0usize..24);
                    (0..n).map(|_| any_set(&mut rng)).collect()
                }
            };
            let mut live: Vec<(SequenceId, ESet)> = sets
                .into_iter()
                .enumerate()
                .map(|(i, e)| (SequenceId::new(i as u32 * 3 + 1), e))
                .collect();
            rng.shuffle(&mut live);
            let size: usize = live.iter().map(|(_, e)| e.len()).sum();
            full += usize::from(size == 64);
            overfull += usize::from(size > 64);
            let plan = canonical_plan(&live);
            assert_eq!(plan, probe_plan(&live), "seed {seed}: {live:?}");
            assert_eq!(plan.is_none(), size > 64, "seed {seed}");
        }
        assert!(
            full > 300 && overfull > 300,
            "{full} full, {overfull} over-full"
        );
    }
}
