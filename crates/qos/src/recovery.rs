//! Guarantee-preserving recovery: hot table repair plus re-admission
//! through a graceful-degradation ladder.
//!
//! Recovery is the control-plane reaction to the fault layer
//! (`iba_sim::fault`): when a VLArb table is damaged — entry loss,
//! garbled weights, orphaned or colliding sequences — it
//!
//! 1. **detects** the damage via the table's own
//!    `check_consistency` (the repair pass reports `was_damaged`);
//! 2. **repairs** in place: evicts untrustworthy sequences, rebuilds
//!    the slot array and re-packs the survivors with the canonical
//!    bit-reversal defragmentation ([`iba_core::HighPriorityTable::repair`]);
//! 3. **re-admits** what the repair dropped, first at its contracted
//!    distance, then at each [`iba_core::Distance::looser`] step — a
//!    degraded-but-served reservation beats a dropped one;
//! 4. tries each distance **once**. Bit-reversal allocation keeps the
//!    free entries arranged so that the most restrictive request the
//!    free count permits can still be placed, and nothing runs between
//!    two attempts that could free capacity, so retrying a failed
//!    distance cannot succeed. A `CapacityExceeded` rejection reads the
//!    weight only and ends the ladder at once.
//!
//! Two callers drive it. [`crate::QosManager::repair_tables`] repairs
//! every port table of a subnet and re-admits each *connection* that
//! lost a hop, from the manager's own connection records, so every
//! live connection stays bound to the sequences it holds.
//! [`repair_table`] repairs one standalone table that has no such
//! records and can only re-admit each evicted *sequence* as one lump.
//!
//! Recovery holds no state and draws no randomness: the same damage
//! produces byte-identical recovery decisions, which is what lets the
//! chaos harness assert exact outcomes.
//!
//! Recovery keeps no counters of its own. Every repair, re-install and
//! degraded re-install is reported once, through the
//! [`iba_obs::Recorder`] hooks, into the `recovery_*` metrics of the
//! caller's registry; the returned [`RecoverySummary`] adds only what
//! has no metric (the reservations lost).

use iba_core::{
    Admission, Distance, EvictedSequence, HighPriorityTable, ServiceLevel, TableError, VirtualLane,
    Weight,
};

/// Outcome of one repair. [`crate::QosManager::repair_tables`] counts
/// connections, [`repair_table`] sequences; either way
/// `reinstalled + lost` covers every live eviction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoverySummary {
    /// Tables inspected.
    pub tables: usize,
    /// Tables that were damaged and repaired.
    pub repaired: usize,
    /// Evicted connections (a hop's sequence was evicted), or
    /// sequences evicted from a standalone table.
    pub evicted: usize,
    /// Evictions re-installed (at contracted or degraded distance).
    pub reinstalled: usize,
    /// Evictions lost (no placement up the whole ladder).
    pub lost: usize,
}

/// Repairs one standalone table and re-admits each live evicted
/// sequence as one reservation of its total weight, under a fresh id.
/// Without connection records nothing can follow the new ids, so a
/// registry whose connections name their sequences is repaired with
/// [`crate::QosManager::repair_tables`] instead.
///
/// Returns the per-table summary (`tables == 1`). Postcondition: the
/// table passes `check_consistency` — the repair itself never fails;
/// only re-admission can degrade or lose reservations.
pub fn repair_table(
    table: &mut HighPriorityTable,
    rec: &mut dyn iba_obs::Recorder,
) -> RecoverySummary {
    let mut summary = RecoverySummary {
        tables: 1,
        ..RecoverySummary::default()
    };
    let Some(evicted) = repair(table, rec) else {
        return summary;
    };
    summary.repaired = 1;
    summary.evicted = evicted.len();
    for ev in &evicted {
        if ev.weight == 0 || ev.connections == 0 {
            // Damage debris, not a live reservation: nothing to
            // re-install.
            continue;
        }
        if reinstall(table, ev.sl, ev.vl, ev.distance, ev.weight, rec).is_some() {
            summary.reinstalled += 1;
        } else {
            summary.lost += 1;
        }
    }
    summary
}

/// Runs [`HighPriorityTable::repair`] and meters it. Returns the
/// evicted sequences, or `None` when the table was healthy.
pub(crate) fn repair(
    table: &mut HighPriorityTable,
    rec: &mut dyn iba_obs::Recorder,
) -> Option<Vec<EvictedSequence>> {
    let report = table.repair();
    if !report.was_damaged && report.evicted.is_empty() {
        return None;
    }
    rec.recovery_repair(report.evicted.len() as u64);
    Some(report.evicted)
}

/// Graceful-degradation ladder: one admission at the contracted
/// distance, then one at each [`Distance::looser`] step up to D64,
/// until one places. A placement looser than `contracted` is metered
/// once as a degradation. `CapacityExceeded` does not depend on the
/// distance, so it ends the ladder without loosening. Returns the
/// admission, or `None` when the reservation is lost.
pub(crate) fn reinstall(
    table: &mut HighPriorityTable,
    sl: ServiceLevel,
    vl: VirtualLane,
    contracted: Distance,
    weight: Weight,
    rec: &mut dyn iba_obs::Recorder,
) -> Option<Admission> {
    let mut distance = contracted;
    loop {
        match table.admit_observed(sl, vl, distance, weight, rec) {
            Ok(admission) => {
                rec.recovery_reinstall();
                if distance != contracted {
                    rec.recovery_degraded();
                }
                return Some(admission);
            }
            Err(TableError::NoFreeSequence) => distance = distance.looser()?,
            Err(_) => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iba_core::SplitMix64;
    use iba_obs::{NullRecorder, ObsRecorder};

    fn sl(i: u8) -> ServiceLevel {
        ServiceLevel::new(i).unwrap()
    }
    fn vl(i: u8) -> VirtualLane {
        VirtualLane::data(i)
    }

    fn filled(seed: u64) -> HighPriorityTable {
        let mut t = HighPriorityTable::new();
        let mut rng = SplitMix64::seed_from_u64(seed);
        for k in 0..8u8 {
            let d = match rng.next_u64() % 3 {
                0 => Distance::D16,
                1 => Distance::D32,
                _ => Distance::D64,
            };
            let w = 10 + (rng.next_u64() % 60) as u32;
            let _ = t.admit(sl(k % 10), vl(k % 10), d, w);
        }
        t
    }

    /// `n` single-entry D64 sequences of full weight on distinct SLs
    /// (mod 10): none has room for a join.
    fn single_entries(n: u8) -> HighPriorityTable {
        let mut t = HighPriorityTable::new();
        for k in 0..n {
            t.admit(sl(k % 10), vl(k % 10), Distance::D64, 255).unwrap();
        }
        t
    }

    #[test]
    fn healthy_table_is_left_alone() {
        let mut t = filled(1);
        let before = t.reserved_weight();
        let mut rec = ObsRecorder::new();
        let s = repair_table(&mut t, &mut rec);
        assert_eq!(s.repaired, 0);
        assert_eq!(s.evicted, 0);
        assert_eq!(t.reserved_weight(), before);
        assert_eq!(rec.metrics.recovery_repairs.get(), 0);
    }

    #[test]
    fn repair_restores_consistency_and_reinstalls() {
        // Seeded property sweep: damage then recover, always ending
        // consistent; reinstalled + lost must account for every live
        // eviction.
        for seed in 0..100u64 {
            let mut t = filled(seed);
            let reserved_before = t.reserved_weight();
            let mut rng = SplitMix64::seed_from_u64(seed ^ 0xFEED);
            t.inject_corruption(&mut rng);
            let s = repair_table(&mut t, &mut NullRecorder);
            t.check_consistency()
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(s.reinstalled + s.lost <= s.evicted);
            // Recovered capacity never exceeds what was reserved.
            assert!(t.reserved_weight() <= reserved_before);
        }
    }

    #[test]
    fn degradation_ladder_loosens_distance() {
        // 33 single-slot D64 sequences occupy the canonical bit-reversal
        // prefix, leaving no free D2 set but plenty of looser capacity.
        let mut t = single_entries(33);
        let mut rec = ObsRecorder::new();
        // D2 needs 32 aligned slots; it cannot fit, so the ladder must
        // loosen until an admissible distance is found.
        assert!(!t.can_admit(sl(0), Distance::D2, 32));
        let ok = reinstall(&mut t, sl(0), vl(0), Distance::D2, 32, &mut rec);
        assert!(ok.is_some(), "ladder should find a looser placement");
        // One degraded re-install, however many steps it loosened.
        assert_eq!(rec.metrics.recovery_degraded.get(), 1);
        assert_eq!(rec.metrics.recovery_reinstalls.get(), 1);
        t.check_consistency().unwrap();
        // A placement at the contracted distance is not a degradation.
        let ok = reinstall(&mut t, sl(1), vl(1), Distance::D64, 255, &mut rec);
        assert!(ok.is_some());
        assert_eq!(rec.metrics.recovery_degraded.get(), 1);
        assert_eq!(rec.metrics.recovery_reinstalls.get(), 2);
    }

    #[test]
    fn a_lost_reinstall_is_not_a_degradation() {
        // Every entry holds a sequence of another SL, under the weight
        // cap: no distance up the ladder places, and the reservation is
        // lost without a metered step.
        let mut t = single_entries(63);
        t.admit(sl(9), vl(9), Distance::D64, 200).unwrap();
        let mut rec = ObsRecorder::new();
        let got = reinstall(&mut t, sl(12), vl(12), Distance::D8, 10, &mut rec);
        assert!(got.is_none());
        assert_eq!(rec.metrics.recovery_degraded.get(), 0);
        assert_eq!(rec.metrics.recovery_reinstalls.get(), 0);
        // The ladder tried D8, D16, D32 and D64, once each.
        assert_eq!(rec.metrics.alloc_select_fail.get(), 4);
    }

    #[test]
    fn capacity_exceeded_ends_the_ladder_without_a_probe() {
        let mut t = HighPriorityTable::new();
        t.set_capacity_limit(10);
        t.admit(sl(0), vl(0), Distance::D64, 10).unwrap();
        let before = format!("{t:?}");
        let mut rec = ObsRecorder::new();
        let got = reinstall(&mut t, sl(1), vl(1), Distance::D8, 10, &mut rec);
        assert!(got.is_none());
        let m = &rec.metrics;
        assert_eq!(m.recovery_degraded.get(), 0);
        assert_eq!(m.alloc_probe.get() + m.alloc_select_fail.get(), 0);
        assert_eq!(format!("{t:?}"), before, "no table byte moves");
    }
}
