//! Sequence allocators: the paper's bit-reversal algorithm plus the
//! baselines used in the ablation experiments.
//!
//! An allocator only decides **where** a new sequence goes given the
//! current slot occupancy; weight accounting, sharing and defragmentation
//! live in [`crate::table`].
//!
//! # Probe order
//!
//! For a request of distance `d = 2^i` there are `d` candidate sets
//! `E_{i,0} .. E_{i,d-1}`. The three policies differ only in the order
//! the paper's walk probes those candidates:
//!
//! * **bit-reversal** probes offsets in bit-reversed order of `j`
//!   (`0, d/2, d/4, 3d/4, …`), which leaves the free entries maximally
//!   spread after every allocation — the paper's invariant;
//! * **first-fit** probes `0, 1, 2, …` (the natural order);
//! * **reverse-fit** probes `d-1, d-2, …, 0`.
//!
//! # Selection without probing
//!
//! No walk runs. Folding the busy slots onto their residues mod `d`
//! gives a `d`-bit mask whose bit `j` is set iff `E_{i,j}` is free, and
//! each policy reads its answer off that mask: bit-reversal keeps the
//! lowest-rank free offset in at most `i` mask-and steps, first-fit is
//! `trailing_zeros`, reverse-fit is `63 - leading_zeros`.
//!
//! The depth the walk would have reached follows from the answer:
//! `bit_reverse(j) + 1`, `j + 1` or `d - j`, and `d` on failure. The
//! observed variant records that depth exactly as the walk did: one
//! `alloc_probe_total` per candidate it would have examined (busy ones
//! also count toward `alloc_probe_rejected_total`) and the depth into
//! the `alloc_probe_depth` histogram — see `METRICS.md`.

use crate::bitrev::bit_reverse;
use crate::distance::Distance;
use crate::eset::ESet;
use iba_obs::Recorder;

/// `BIT_CLEAR[b]` keeps the offsets whose index bit `b` is clear. The
/// bit-reversal rank of `j` reads `j`'s bits from bit 0 up, so the
/// lowest-rank free offset is found by preferring bit 0 clear, then
/// bit 1, and so on.
const BIT_CLEAR: [u64; 6] = [
    0x5555_5555_5555_5555,
    0x3333_3333_3333_3333,
    0x0F0F_0F0F_0F0F_0F0F,
    0x00FF_00FF_00FF_00FF,
    0x0000_FFFF_0000_FFFF,
    0x0000_0000_FFFF_FFFF,
];

/// Bit `j` is set iff `E_{i,j}` is free under `occupancy` (bit set =
/// slot busy), for `d = 2^i`: the busy slots are OR-folded onto their
/// residues mod `d` in at most six shift-or steps.
fn free_sets(occupancy: u64, distance: Distance) -> u64 {
    let d = distance.slots();
    let mut busy = occupancy;
    let mut width = 64;
    while width > d {
        width /= 2;
        busy |= busy >> width;
    }
    !busy & (u64::MAX >> (64 - d))
}

/// Runtime-selectable allocation policy used by
/// [`crate::table::HighPriorityTable`].
///
/// Theorem (TR DIAB-03-01, reproduced as property tests in
/// [`crate::invariants`]): starting from an empty table and allocating
/// with [`AllocatorKind::BitReversal`], a request is satisfied
/// **whenever enough free entries exist**, because the free entries
/// always remain arranged to serve the most restrictive request their
/// count permits.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AllocatorKind {
    /// The paper's bit-reversal policy: the first free set in
    /// bit-reversal order of `j`.
    #[default]
    BitReversal,
    /// Natural-order first fit. Satisfies individual requests, but
    /// interleaves odd and even offsets early, stranding free entries in
    /// layouts that cannot serve later strict-distance requests — the
    /// failure mode the ablation demonstrates.
    FirstFit,
    /// Highest-offset-first fit (worst fit for the bit-reversal
    /// invariant; a stress baseline for the ablation).
    ReverseFit,
}

impl AllocatorKind {
    /// The set this policy picks for `distance` under `occupancy`, and
    /// the number of candidates the paper's walk would have probed to
    /// reach that answer (all `d` of them when none is free).
    fn choose(self, occupancy: u64, distance: Distance) -> (Option<ESet>, u32) {
        let free = free_sets(occupancy, distance);
        let d = distance.slots() as u32;
        if free == 0 {
            return (None, d);
        }
        let (j, depth) = match self {
            AllocatorKind::BitReversal => {
                let bits = distance.log2();
                let mut lowest = free;
                for keep in &BIT_CLEAR[..bits as usize] {
                    let preferred = lowest & keep;
                    if preferred != 0 {
                        lowest = preferred;
                    }
                }
                let j = lowest.trailing_zeros();
                (j, bit_reverse(j, bits) + 1)
            }
            AllocatorKind::FirstFit => {
                let j = free.trailing_zeros();
                (j, j + 1)
            }
            AllocatorKind::ReverseFit => {
                let j = 63 - free.leading_zeros();
                (j, d - j)
            }
        };
        (Some(ESet::new(distance, j as usize)), depth)
    }

    /// Returns the set this policy picks for `distance` under
    /// `occupancy` (bit set = slot busy), or `None` when no candidate
    /// set is free.
    #[must_use]
    pub fn select(self, occupancy: u64, distance: Distance) -> Option<ESet> {
        self.choose(occupancy, distance).0
    }

    /// [`AllocatorKind::select`] with instrumentation: records the
    /// probes the paper's walk would have made (all but a final
    /// successful one rejected) and one `alloc_select` with its depth.
    pub fn select_observed(
        self,
        occupancy: u64,
        distance: Distance,
        rec: &mut dyn Recorder,
    ) -> Option<ESet> {
        let (set, depth) = self.choose(occupancy, distance);
        let found = set.is_some();
        rec.alloc_probes(depth, depth - u32::from(found));
        rec.alloc_select(depth, found);
        set
    }

    /// Policy name for reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            AllocatorKind::BitReversal => "bit-reversal",
            AllocatorKind::FirstFit => "first-fit",
            AllocatorKind::ReverseFit => "reverse-fit",
        }
    }

    /// All selectable policies.
    pub const ALL: [AllocatorKind; 3] = [
        AllocatorKind::BitReversal,
        AllocatorKind::FirstFit,
        AllocatorKind::ReverseFit,
    ];
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;
    use iba_obs::ObsRecorder;

    /// The paper's probe walk, kept as the reference the computed
    /// select must match: tries each candidate in the policy's order,
    /// recording one probe per candidate and the final depth.
    fn walk(
        kind: AllocatorKind,
        occupancy: u64,
        distance: Distance,
        rec: &mut dyn Recorder,
    ) -> Option<ESet> {
        let candidates: Box<dyn Iterator<Item = ESet>> = match kind {
            AllocatorKind::BitReversal => Box::new(ESet::probe_sequence(distance)),
            AllocatorKind::FirstFit => Box::new(ESet::all(distance)),
            AllocatorKind::ReverseFit => Box::new(
                (0..distance.slots())
                    .rev()
                    .map(move |j| ESet::new(distance, j)),
            ),
        };
        let mut depth = 0u32;
        for e in candidates {
            depth += 1;
            let free = e.is_free_in(occupancy);
            rec.alloc_probe(!free);
            if free {
                rec.alloc_select(depth, true);
                return Some(e);
            }
        }
        rec.alloc_select(depth, false);
        None
    }

    /// `(probes, rejected, depth sum, found, failed)` recorded so far.
    fn recorded(rec: &ObsRecorder) -> [u64; 5] {
        let m = &rec.metrics;
        let (depth, fail) = (&m.alloc_probe_depth, m.alloc_select_fail);
        [
            m.alloc_probe.get(),
            m.alloc_probe_rejected.get(),
            depth.sum(),
            depth.count(),
            fail.get(),
        ]
    }

    /// A mask whose bits are each set with probability `k / 64`: the
    /// binary digits of `k`, least significant first, OR (digit 1) or
    /// AND (digit 0) a fresh random word into the accumulator.
    fn mask_at_density(rng: &mut SplitMix64, k: u64) -> u64 {
        (0..6).fold(0, |m, bit| {
            let r = rng.next_u64();
            if k >> bit & 1 == 1 {
                m | r
            } else {
                m & r
            }
        })
    }

    #[test]
    fn computed_select_equals_the_probe_walk() {
        let mut rng = SplitMix64::seed_from_u64(0x5E1E_C7ED);
        // Every 16-bit low pattern under random upper bits, 1M masks
        // swept over densities 1/64 .. 63/64, then the empty and the
        // full table.
        let low_patterns = (0..1u64 << 16).map(|low| (low, 1 + low % 63, !0xFFFF));
        let densities = (0..1u64 << 20).map(|n| (0, 1 + n % 63, u64::MAX));
        let mut masks: Vec<u64> = low_patterns
            .chain(densities)
            .map(|(low, k, keep)| low | mask_at_density(&mut rng, k) & keep)
            .collect();
        masks.extend([0, u64::MAX]);
        let (mut computed, mut walked) = (ObsRecorder::new(), ObsRecorder::new());
        for occ in masks {
            for kind in AllocatorKind::ALL {
                for d in Distance::ALL {
                    // Equal totals after every select: each select
                    // recorded the same as the walk.
                    let want = walk(kind, occ, d, &mut walked);
                    let got = kind.select_observed(occ, d, &mut computed);
                    assert_eq!(got, want, "{} {d} occ={occ:#018x}", kind.name());
                    assert_eq!(
                        recorded(&computed),
                        recorded(&walked),
                        "{} {d} occ={occ:#018x}",
                        kind.name()
                    );
                    assert_eq!(kind.select(occ, d), want);
                }
            }
        }
    }

    #[test]
    fn empty_table_gives_offset_zero() {
        for d in Distance::ALL {
            let e = AllocatorKind::BitReversal.select(0, d).unwrap();
            assert_eq!(e.offset(), 0);
            assert_eq!(e.distance(), d);
        }
    }

    #[test]
    fn bitrev_probes_even_offsets_first() {
        // Occupy E_{3,0}; the next d=8 allocation must land on offset 4.
        let occ = ESet::new(Distance::D8, 0).mask();
        let e = AllocatorKind::BitReversal
            .select(occ, Distance::D8)
            .unwrap();
        assert_eq!(e.offset(), 4);
        // first-fit would take offset 1 instead.
        let e = AllocatorKind::FirstFit.select(occ, Distance::D8).unwrap();
        assert_eq!(e.offset(), 1);
    }

    #[test]
    fn full_table_yields_none() {
        for kind in AllocatorKind::ALL {
            for d in Distance::ALL {
                assert!(kind.select(u64::MAX, d).is_none());
                let mut rec = ObsRecorder::new();
                assert!(kind.select_observed(u64::MAX, d, &mut rec).is_none());
                let m = &rec.metrics;
                assert_eq!(m.alloc_probe.get(), d.slots() as u64);
                assert_eq!(m.alloc_probe_rejected.get(), d.slots() as u64);
                assert_eq!(m.alloc_select_fail.get(), 1);
                assert_eq!(m.alloc_probe_depth.count(), 0);
            }
        }
    }

    #[test]
    fn selected_set_is_always_free() {
        // Pseudo-random occupancies; whatever is returned must be free.
        let mut occ = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..64 {
            occ = occ.wrapping_mul(6364136223846793005).wrapping_add(1);
            for kind in AllocatorKind::ALL {
                for d in Distance::ALL {
                    if let Some(e) = kind.select(occ, d) {
                        assert!(e.is_free_in(occ), "{} returned busy set", kind.name());
                    }
                }
            }
        }
    }

    #[test]
    fn observed_select_matches_plain_select_and_counts_probes() {
        use iba_obs::ObsRecorder;
        let mut occ = 0x0123_4567_89AB_CDEFu64;
        for _ in 0..16 {
            occ = occ.wrapping_mul(6364136223846793005).wrapping_add(1);
            for kind in AllocatorKind::ALL {
                for d in Distance::ALL {
                    let mut rec = ObsRecorder::new();
                    let observed = kind.select_observed(occ, d, &mut rec);
                    assert_eq!(observed, kind.select(occ, d), "{}", kind.name());
                    // Probe accounting: every candidate examined is one
                    // probe; all but a final successful one are rejections.
                    let m = &rec.metrics;
                    let probes = m.alloc_probe.get();
                    assert!(probes >= 1);
                    if observed.is_some() {
                        assert_eq!(m.alloc_probe_rejected.get(), probes - 1);
                        assert_eq!(m.alloc_probe_depth.count(), 1);
                        assert_eq!(m.alloc_select_fail.get(), 0);
                    } else {
                        assert_eq!(m.alloc_probe_rejected.get(), probes);
                        assert_eq!(m.alloc_select_fail.get(), 1);
                    }
                }
            }
        }
    }

    #[test]
    fn bitrev_preserves_strictest_capability() {
        // After k distance-64 allocations (k <= 32), a distance-2 request
        // must still fit — the paper's headline property. First-fit loses
        // it after the 2nd allocation (slots 0 and 1 kill both d2 sets).
        let bitrev = AllocatorKind::BitReversal;
        let mut occ = 0u64;
        for k in 0..32 {
            let e = bitrev.select(occ, Distance::D64).unwrap();
            occ |= e.mask();
            assert!(
                bitrev.select(occ, Distance::D2).is_some(),
                "lost d=2 capability after {} singles",
                k + 1
            );
        }

        let mut occ = 0u64;
        for _ in 0..2 {
            let e = AllocatorKind::FirstFit.select(occ, Distance::D64).unwrap();
            occ |= e.mask();
        }
        assert!(
            AllocatorKind::FirstFit.select(occ, Distance::D2).is_none(),
            "first-fit should have destroyed the d=2 sets"
        );
    }
}
