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

use crate::bitrev::{bit_reverse, bit_reverse_6};
use crate::distance::Distance;
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
    // Ids are unique, so the unstable sort's order is fully determined.
    plan.sort_unstable_by_key(|r| (r.from.distance().slots(), r.from.offset(), r.sequence));
    let mut cursor = 0;
    for r in &mut plan {
        let d = r.from.distance();
        let size = d.entries();
        if cursor + size > TABLE_ENTRIES {
            return None;
        }
        r.to = ESet::new(d, bit_reverse((cursor / size) as u32, d.log2()) as usize);
        cursor += size;
    }
    Some(plan)
}

/// The canonical plan of `live`, the live sequences in ascending id
/// order, written into `plan` (of the same length) in placement order
/// without a sort: the plan [`canonical_plan`] makes of them. Returns
/// `false` when they do not fit in one table.
///
/// Placement order is (distance, offset, id), and each sequence's
/// place in it is counted, not searched for: the sequences of smaller
/// distance (more entries) come first, then those of its own distance
/// at lower offsets (a popcount of one offset mask per distance), then
/// those on its own set that come earlier in `live`. Live sets of a
/// consistent table are disjoint, so a set holds one sequence; a
/// damaged table whose entry sets collided can hold several, and those
/// are counted too.
pub(crate) fn plan_by_counting(live: &[(SequenceId, ESet)], plan: &mut [Relocation]) -> bool {
    assert!(
        live.len() == plan.len() && live.len() <= TABLE_ENTRIES,
        "one plan entry per live sequence, at most one per slot"
    );
    // Indexed by `log2 d`: the live sequences of distance `d`; bit `j`
    // of `offsets` is set when a live set sits at offset `j`, and of
    // `shared` when more than one does.
    let (mut count, mut offsets, mut shared) = ([0; 7], [0u64; 7], [0u64; 7]);
    // `on_set[d + j]`: live sequences on `E(d, j)` (`d + j` numbers all
    // sets, as in a binary heap); `ahead[k]`: those of them before
    // `live[k]`.
    let mut on_set = [0u8; 2 * TABLE_ENTRIES];
    let mut ahead = [0u8; TABLE_ENTRIES];
    for (k, &(_, e)) in live.iter().enumerate() {
        let (l, key) = (
            e.distance().log2() as usize,
            e.distance().slots() + e.offset(),
        );
        ahead[k] = on_set[key];
        on_set[key] += 1;
        count[l] += 1;
        shared[l] |= offsets[l] & 1 << e.offset();
        offsets[l] |= 1 << e.offset();
    }
    // Per distance: the sequences, and their slots, placed ahead of its
    // first sequence.
    let (mut first, mut first_slot) = ([0; 7], [0; 7]);
    let (mut placed, mut cursor) = (0, 0);
    for d in Distance::ALL {
        let l = d.log2() as usize;
        (first[l], first_slot[l]) = (placed, cursor);
        placed += count[l];
        cursor += count[l] * d.entries();
    }
    if cursor > TABLE_ENTRIES {
        return false;
    }
    // The sequences beyond the first on each shared set of distance `d`
    // at the offsets of `mask` (none on a consistent table).
    let repeats = |d: Distance, mut mask: u64| {
        let mut n = 0;
        while mask != 0 {
            n += usize::from(on_set[d.slots() + mask.trailing_zeros() as usize]) - 1;
            mask &= mask - 1;
        }
        n
    };
    for (k, &(sequence, from)) in live.iter().enumerate() {
        let (d, l) = (from.distance(), from.distance().log2());
        let lower = (1u64 << from.offset()) - 1;
        let rank = (offsets[l as usize] & lower).count_ones() as usize
            + repeats(d, shared[l as usize] & lower)
            + usize::from(ahead[k]);
        // Every larger set's size is a multiple of this one's.
        let block = first_slot[l as usize] / d.entries() + rank;
        plan[first[l as usize] + rank] = Relocation {
            sequence,
            from,
            to: ESet::new(d, bit_reverse_6(block, l)),
        };
    }
    true
}

/// Whether an occupancy mask is canonical: for every distance `d`, if at
/// least `64/d` entries are free then some `E_{i,j}` of that distance is
/// entirely free. This is the invariant defragmentation restores and the
/// bit-reversal allocator preserves.
#[must_use]
pub fn is_canonical(occupancy: u64) -> bool {
    let free = 64 - occupancy.count_ones() as usize;
    Distance::ALL
        .iter()
        .all(|&d| d.entries() > free || ESet::all(d).any(|e| e.is_free_in(occupancy)))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

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
