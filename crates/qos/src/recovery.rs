//! Guarantee-preserving recovery: hot table repair plus re-admission
//! through a graceful-degradation ladder.
//!
//! The [`RecoveryManager`] is the control-plane reaction to the fault
//! layer (`iba_sim::fault`): when a VLArb table is damaged — entry
//! loss, garbled weights, orphaned or colliding sequences — it
//!
//! 1. **detects** the damage via the table's own
//!    `check_consistency` (the repair pass reports `was_damaged`);
//! 2. **repairs** in place: evicts untrustworthy sequences, rebuilds
//!    the slot array and re-packs the survivors with the canonical
//!    bit-reversal defragmentation ([`iba_core::HighPriorityTable::repair`]);
//! 3. **re-admits** what the repair dropped, first at its contracted
//!    distance, then escalating through [`iba_core::Distance::looser`]
//!    — a degraded-but-served reservation beats a dropped one;
//! 4. retries admissions up to [`crate::retry::MAX_RETRIES`] times
//!    with deterministic exponential backoff and jitter from the core
//!    SplitMix64 rng, defragmenting between attempts.
//!
//! Two callers drive it. [`crate::QosManager::repair_tables`] repairs
//! every port table of a subnet and re-admits each *connection* that
//! lost a hop, from the manager's own connection records, so every
//! live connection stays bound to the sequences it holds.
//! [`RecoveryManager::repair_table`] repairs one standalone table that
//! has no such records and can only re-admit each evicted *sequence*
//! as one lump.
//!
//! Everything is seeded and deterministic: the same damage and seed
//! produce byte-identical recovery decisions, which is what lets the
//! chaos harness assert exact outcomes.
//!
//! The manager keeps no counters of its own. Every repair, re-install,
//! loosening step and retry is reported once, through the
//! [`iba_obs::Recorder`] hooks, into the `recovery_*` metrics of the
//! caller's registry; the returned [`RecoverySummary`] adds only what
//! has no metric (the reservations lost).

use crate::retry::Backoff;
use iba_core::{
    Admission, Distance, EvictedSequence, HighPriorityTable, ServiceLevel, TableError, VirtualLane,
    Weight,
};

/// Outcome of one repair. [`crate::QosManager::repair_tables`] counts
/// connections, [`RecoveryManager::repair_table`] sequences; either way
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

/// The recovery manager: owns the seeded backoff rng. One instance
/// drives any number of tables.
#[derive(Clone, Debug)]
pub struct RecoveryManager {
    backoff: Backoff,
}

impl RecoveryManager {
    /// A manager whose backoff jitter is seeded from `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        RecoveryManager {
            backoff: Backoff::new(seed ^ 0x5EC0_4E4F_1A2B_3C4D),
        }
    }

    /// Repairs one standalone table and re-admits each live evicted
    /// sequence as one reservation of its total weight, under a fresh
    /// id. Without connection records nothing can follow the new ids,
    /// so a registry whose connections name their sequences is repaired
    /// with [`crate::QosManager::repair_tables`] instead.
    ///
    /// Returns the per-table summary (`tables == 1`). Postcondition:
    /// the table passes `check_consistency` — the repair itself never
    /// fails; only re-admission can degrade or lose reservations.
    pub fn repair_table(
        &mut self,
        table: &mut HighPriorityTable,
        rec: &mut dyn iba_obs::Recorder,
    ) -> RecoverySummary {
        let mut summary = RecoverySummary {
            tables: 1,
            ..RecoverySummary::default()
        };
        let Some(evicted) = self.repair(table, rec) else {
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
            if self
                .reinstall(table, ev.sl, ev.vl, ev.distance, ev.weight, rec)
                .is_some()
            {
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
        &mut self,
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

    /// Graceful-degradation ladder: contracted distance first, then
    /// each [`Distance::looser`] step up to D64. Every loosening is
    /// metered as a degradation. Returns the admission, or `None` when
    /// the reservation is lost.
    pub(crate) fn reinstall(
        &mut self,
        table: &mut HighPriorityTable,
        sl: ServiceLevel,
        vl: VirtualLane,
        contracted: Distance,
        weight: Weight,
        rec: &mut dyn iba_obs::Recorder,
    ) -> Option<Admission> {
        let mut distance = contracted;
        loop {
            match self.admit_with_retry(table, sl, vl, distance, weight, rec) {
                Ok(admission) => {
                    rec.recovery_reinstall();
                    return Some(admission);
                }
                Err(TableError::NoFreeSequence | TableError::CapacityExceeded) => {
                    distance = distance.looser()?;
                    rec.recovery_degraded();
                }
                Err(_) => return None,
            }
        }
    }

    /// Bounded-retry admission with deterministic exponential backoff
    /// and jitter. Between attempts the table is defragmented — the
    /// realistic analogue of "wait for churn to free capacity, then
    /// try again", kept deterministic by the seeded rng.
    pub fn admit_with_retry(
        &mut self,
        table: &mut HighPriorityTable,
        sl: ServiceLevel,
        vl: VirtualLane,
        distance: Distance,
        weight: Weight,
        rec: &mut dyn iba_obs::Recorder,
    ) -> Result<Admission, TableError> {
        let mut attempt = 0u32;
        loop {
            match table.admit_observed(sl, vl, distance, weight, rec) {
                Ok(a) => return Ok(a),
                Err(e @ (TableError::NoFreeSequence | TableError::CapacityExceeded)) => {
                    if self.backoff.exhausted(attempt) {
                        return Err(e);
                    }
                    let backoff = self.backoff.delay(attempt);
                    rec.recovery_retry(backoff);
                    table.defragment();
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retry::{BACKOFF_BASE, MAX_RETRIES};
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

    #[test]
    fn healthy_table_is_left_alone() {
        let mut t = filled(1);
        let before = t.reserved_weight();
        let mut mgr = RecoveryManager::new(7);
        let mut rec = ObsRecorder::new();
        let s = mgr.repair_table(&mut t, &mut rec);
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
            let mut mgr = RecoveryManager::new(seed);
            let s = mgr.repair_table(&mut t, &mut NullRecorder);
            t.check_consistency()
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(s.reinstalled + s.lost <= s.evicted);
            // Recovered capacity never exceeds what was reserved.
            assert!(t.reserved_weight() <= reserved_before);
        }
    }

    #[test]
    fn degradation_ladder_loosens_distance() {
        // Fill the table so the contracted distance has no free set but
        // a looser one does: 32 single-slot D64 sequences on distinct
        // SLs occupy the canonical bit-reversal prefix, leaving no free
        // D2 set but plenty of looser capacity.
        let mut t = HighPriorityTable::new();
        for k in 0..33u8 {
            let _ = t.admit(sl(k % 10), vl(k % 10), Distance::D64, 255);
        }
        let mut mgr = RecoveryManager::new(3);
        let mut rec = ObsRecorder::new();
        // D2 needs 32 aligned slots; it cannot fit, so the ladder must
        // loosen until an admissible distance is found.
        assert!(!t.can_admit(sl(0), Distance::D2, 32));
        let ok = mgr.reinstall(&mut t, sl(0), vl(0), Distance::D2, 32, &mut rec);
        assert!(ok.is_some(), "ladder should find a looser placement");
        assert!(rec.metrics.recovery_degraded.get() > 0);
        assert_eq!(rec.metrics.recovery_reinstalls.get(), 1);
        t.check_consistency().unwrap();
    }

    #[test]
    fn retry_backoff_is_deterministic_and_bounded() {
        let run = || {
            let mut t = HighPriorityTable::new();
            // Saturate capacity so every admission fails.
            t.set_capacity_limit(10);
            let _ = t.admit(sl(0), vl(0), Distance::D64, 10);
            let mut mgr = RecoveryManager::new(42);
            let mut rec = ObsRecorder::new();
            let err = mgr
                .admit_with_retry(&mut t, sl(1), vl(1), Distance::D64, 10, &mut rec)
                .unwrap_err();
            assert_eq!(err, TableError::CapacityExceeded);
            let m = &rec.metrics;
            assert_eq!(m.recovery_backoff_cycles.count(), m.recovery_retries.get());
            (m.recovery_retries.get(), m.recovery_backoff_cycles.sum())
        };
        let (retries, backoff) = run();
        assert_eq!(retries, u64::from(MAX_RETRIES));
        // Exponential: total exceeds retries * base.
        assert!(backoff > retries * BACKOFF_BASE);
        assert_eq!((retries, backoff), run(), "must be deterministic");
    }
}
