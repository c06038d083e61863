//! The chaos drive: deterministic fault injection with
//! guarantee-preserving recovery, audited end to end.
//!
//! Two coupled scenarios make up one chaos run:
//!
//! 1. **Table chaos** — the audit fill (`crate::audit`) loads one
//!    port's high-priority table to saturation, then `rounds` of seeded
//!    corruption (entry loss, garbled weights, orphaned and colliding
//!    sequences — `iba_core::HighPriorityTable::inject_corruption`) are
//!    each answered by the [`iba_qos::RecoveryManager`]: evict, rebuild,
//!    re-pack with the canonical bit-reversal defragmentation, and
//!    re-admit what was evicted. The repaired table is then driven
//!    through the arbiter under the [`iba_obs::GuaranteeAuditor`] with the
//!    *original contracted* budgets. The paper's claim extends to
//!    recovery: with the bit-reversal allocator the repaired table
//!    audits clean (zero post-repair violations); the first-fit strawman
//!    — whose fill already needed degraded installs — stays in
//!    violation, which makes it the negative control.
//! 2. **Fabric chaos sweep** — a sweep of full-fabric measured runs,
//!    each with a seeded [`FaultPlan`] (link flaps, rate degradation,
//!    VL blackouts, credit stalls, table corruption) injected through
//!    the event calendar. Because faults ride the calendar, the
//!    delivery digest of every point is a pure function of its seed:
//!    the merged digest must be byte-identical at any `IBA_THREADS`.

use crate::audit::{drive_engine, fill_table, AuditConfig, AuditOutcome};
use crate::engine::run_sweep;
use crate::experiment::{build_experiment_sized, run_measured};
use crate::fnv::Fnv64;
use iba_core::{AllocatorKind, SplitMix64};
use iba_obs::ObsRecorder;
use iba_qos::{RecoveryManager, RecoveryStats, RecoverySummary};
use iba_sim::FaultPlan;

/// Parameters of one chaos run.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Allocation policy under test (bit-reversal must recover clean;
    /// first-fit is the negative control).
    pub allocator: AllocatorKind,
    /// Packet size in bytes.
    pub mtu: u32,
    /// Master seed: corruption, recovery jitter and every fault plan
    /// derive from it.
    pub seed: u64,
    /// Corruption/repair rounds against the audited table.
    pub rounds: u32,
    /// Faulted full-fabric runs in the determinism sweep.
    pub sweep_points: usize,
}

impl ChaosConfig {
    /// The default chaos scenario: three corruption rounds and a
    /// four-point faulted sweep.
    #[must_use]
    pub fn new(allocator: AllocatorKind, mtu: u32, seed: u64) -> Self {
        ChaosConfig {
            allocator,
            mtu,
            seed,
            rounds: 3,
            sweep_points: 4,
        }
    }
}

/// Everything one chaos run produced.
#[derive(Debug)]
pub struct ChaosOutcome {
    /// The scenario that was run.
    pub config: ChaosConfig,
    /// Corruption operations actually injected across all rounds.
    pub corruption_ops: usize,
    /// Accumulated repair summary across all rounds.
    pub recovery: RecoverySummary,
    /// The recovery manager's lifetime stats (retries, backoff,
    /// degradations).
    pub recovery_stats: RecoveryStats,
    /// Whether the table passed `check_consistency` after the final
    /// repair (it must).
    pub consistent: bool,
    /// The post-repair audit drive: auditor, fill statistics, verdict
    /// inputs.
    pub audit: AuditOutcome,
    /// Order-sensitive FNV-1a fold of the sweep's per-point delivery
    /// digests — the determinism witness across `IBA_THREADS`.
    pub sweep_digest: u64,
    /// Steady-state deliveries across the whole sweep.
    pub sweep_deliveries: u64,
    /// Fault actions applied by fabrics during the audited windows.
    pub faults_injected: u64,
    /// Arbitration candidates suppressed by blackout/stall faults.
    pub faults_blocked: u64,
}

impl ChaosOutcome {
    /// Post-repair guarantee violations.
    #[must_use]
    pub fn violations(&self) -> u64 {
        self.audit.violations()
    }

    /// Whether recovery preserved every service guarantee.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.consistent && self.violations() == 0
    }

    /// One-line machine-readable summary (the `ibaqos chaos` stderr
    /// contract on failure).
    #[must_use]
    pub fn summary_line(&self) -> String {
        format!(
            "chaos: verdict={} violations={} consistent={} allocator={} mtu={} seed={}",
            if self.passed() { "PASS" } else { "FAIL" },
            self.violations(),
            if self.consistent { "yes" } else { "no" },
            self.config.allocator.name(),
            self.config.mtu,
            self.config.seed,
        )
    }

    /// The full `ibaqos chaos` report: scenario header, recovery
    /// statistics, post-repair per-lane audit, sweep determinism
    /// witness and final verdict.
    #[must_use]
    pub fn render_report(&self) -> String {
        let c = &self.config;
        let mut out = format!(
            "chaos: allocator={} mtu={} seed={} rounds={} sweep_points={}\n\
             fill: accepted={} rejected={} fallback_installs={}\n\
             corruption: ops={}\n\
             recovery: repaired={} evicted={} reinstalled={} lost={} \
             degraded={} retries={} backoff_cycles={}\n\
             table: consistent={}\n",
            c.allocator.name(),
            c.mtu,
            c.seed,
            c.rounds,
            c.sweep_points,
            self.audit.accepted,
            self.audit.rejected,
            self.audit.fallback_installs,
            self.corruption_ops,
            self.recovery.repaired,
            self.recovery.evicted,
            self.recovery.reinstalled,
            self.recovery.lost,
            self.recovery_stats.degraded,
            self.recovery_stats.retries,
            self.recovery_stats.backoff_cycles,
            if self.consistent { "yes" } else { "no" },
        );
        out.push_str(&self.audit.auditor.render_report());
        out.push_str(&format!(
            "sweep: points={} faults_injected={} faults_blocked={} \
             deliveries={} digest={:#018x}\n",
            c.sweep_points,
            self.faults_injected,
            self.faults_blocked,
            self.sweep_deliveries,
            self.sweep_digest,
        ));
        out.push_str(&format!(
            "verdict: {}\n",
            if self.passed() {
                "PASS (recovery preserved all service guarantees)"
            } else {
                "FAIL (post-repair service-guarantee violations)"
            }
        ));
        out
    }
}

/// Runs the chaos scenario with `threads` sweep workers. The report,
/// digest and merged metrics are byte-identical at any thread count.
#[must_use]
pub fn run_chaos(config: &ChaosConfig, threads: usize) -> ChaosOutcome {
    let audit_cfg = AuditConfig::new(config.allocator, config.mtu, config.seed);

    // Phase 1: fill, damage, repair — then audit the repaired table
    // against the original contracts.
    let mut fill = fill_table(&audit_cfg);
    let mut recovery = RecoveryManager::new(config.seed);
    let mut rec = ObsRecorder::new();
    let mut corruption_ops = 0usize;
    let mut summary = RecoverySummary::default();
    for round in 0..config.rounds {
        let mut rng = SplitMix64::seed_from_u64(
            config
                .seed
                .wrapping_add(u64::from(round).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                ^ 0x0C0A_50FC_4A05,
        );
        corruption_ops += fill.table.inject_corruption(&mut rng);
        let s = recovery.repair_table(&mut fill.table, &mut rec);
        summary.tables += s.tables;
        summary.repaired += s.repaired;
        summary.evicted += s.evicted;
        summary.reinstalled += s.reinstalled;
        summary.lost += s.lost;
    }
    let consistent = fill.table.check_consistency().is_ok();
    let recovery_stats = *recovery.stats();
    let audit = drive_engine(&audit_cfg, fill);

    // Phase 2: faulted full-fabric sweep — the determinism witness.
    let points: Vec<u64> = (0..config.sweep_points)
        .map(|i| config.seed.wrapping_add(i as u64))
        .collect();
    let mtu = config.mtu;
    let (digests, merged) = run_sweep(&points, threads, ObsRecorder::new, |_, &seed, rec| {
        let exp = build_experiment_sized(mtu, 4, seed, 40);
        // Aim the fault window at the recorded steady state (the
        // warm-up runs uninstrumented), mirroring the phase layout of
        // `run_measured`.
        let transient = exp.frame.steady_state_cycles(1) * 2;
        let steady = exp.frame.steady_state_cycles(3);
        let plan = FaultPlan::generate(seed ^ 0xFA57_0000, transient, steady, 4, 8, 8);
        let m = run_measured(&exp, 3, false, Some(&plan), rec);
        (m.delivery_digest, m.delivery_count)
    });
    let mut sweep_digest = Fnv64::default();
    let mut sweep_deliveries = 0u64;
    for &(digest, count) in &digests {
        sweep_digest.word(digest);
        sweep_deliveries += count;
    }
    let faults_injected = merged.metrics.fault_injected.get();
    let faults_blocked = merged.metrics.fault_blocked.0.iter().map(|c| c.get()).sum();

    ChaosOutcome {
        config: config.clone(),
        corruption_ops,
        recovery: summary,
        recovery_stats,
        consistent,
        audit,
        sweep_digest: sweep_digest.finish(),
        sweep_deliveries,
        faults_injected,
        faults_blocked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_reversal_recovers_clean_on_probe_seeds() {
        for seed in [1u64, 42] {
            let out = run_chaos(&ChaosConfig::new(AllocatorKind::BitReversal, 4096, seed), 1);
            assert!(out.corruption_ops > 0, "seed {seed}: no damage injected");
            assert!(out.recovery.repaired > 0, "seed {seed}: nothing repaired");
            assert!(out.consistent, "seed {seed}: table left inconsistent");
            assert_eq!(
                out.violations(),
                0,
                "seed {seed}: recovery broke a guarantee:\n{}",
                out.render_report()
            );
            assert!(out.passed());
            assert_eq!(out.recovery.lost, 0, "seed {seed}: reservation lost");
        }
    }

    #[test]
    fn first_fit_is_the_negative_control() {
        let violating = [1u64, 42, 1234].iter().any(|&seed| {
            let out = run_chaos(&ChaosConfig::new(AllocatorKind::FirstFit, 4096, seed), 1);
            !out.passed() && out.violations() > 0
        });
        assert!(violating, "first-fit audited clean on every probe seed");
    }

    #[test]
    fn chaos_is_bit_deterministic_across_thread_counts() {
        let cfg = ChaosConfig::new(AllocatorKind::BitReversal, 1024, 7);
        let reference = run_chaos(&cfg, 1);
        assert!(reference.sweep_deliveries > 0, "sweep delivered nothing");
        assert!(reference.faults_injected > 0, "no faults fired in-window");
        for threads in [2usize, 8] {
            let got = run_chaos(&cfg, threads);
            assert_eq!(
                got.sweep_digest, reference.sweep_digest,
                "digest diverged at {threads} threads"
            );
            assert_eq!(got.faults_injected, reference.faults_injected);
            assert_eq!(got.faults_blocked, reference.faults_blocked);
            assert_eq!(got.render_report(), reference.render_report());
        }
    }

    #[test]
    fn report_carries_the_machine_summary_fields() {
        let out = run_chaos(&ChaosConfig::new(AllocatorKind::BitReversal, 2048, 5), 1);
        let line = out.summary_line();
        assert!(line.starts_with("chaos: verdict="));
        assert!(line.contains("allocator=bit-reversal"));
        assert!(line.contains("mtu=2048"));
        assert!(line.contains("seed=5"));
        let report = out.render_report();
        assert!(report.contains("recovery:"));
        assert!(report.contains("sweep:"));
        assert!(report.ends_with("\n"));
    }
}
