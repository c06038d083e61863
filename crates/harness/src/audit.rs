//! The service-guarantee audit drive: single-port saturation scenario
//! that puts the paper's central claim in front of a live checker.
//!
//! The claim (§3 of the paper, theorem TR DIAB-03-01): filling the
//! arbitration table with the bit-reversal allocator keeps every
//! admitted class's distance guarantee — a connection contracted at
//! distance `d` never waits more than `d` table slots between grants.
//! The strawman allocators (first-fit, reverse-fit) satisfy each
//! request *they accept* with an evenly spaced sequence too, so a naive
//! audit of accepted placements can never indict them. Their real
//! failure mode is **canonicity destruction**: they fragment the free
//! space so that a later request fails although enough free entries
//! remain.
//!
//! This drive models what a deployment does when that happens: the
//! request is installed anyway at the nearest distance that still fits
//! (`d → 2d → …`), while the *contract* — the audited budget — stays at
//! the distance the class was sold. Under a saturated load the degraded
//! sequence is then observably late at the output port, and the
//! [`GuaranteeAuditor`] (riding the grant stream as a plain
//! [`iba_obs::Recorder`]) counts the violations. Bit-reversal never
//! needs the fallback when filling from an empty table, so it audits
//! clean by construction; the strawmen do not.

use iba_core::{
    effective_request, weight_for_bandwidth, AllocatorKind, Distance, HighPriorityTable,
    ServiceLevel, SlTable, SlToVlMap, SplitMix64, TableError, VirtualLane, VlArbConfig,
    VlArbEngine, MAX_TABLE_WEIGHT, TABLE_ENTRIES, WEIGHT_UNIT_BYTES,
};
use iba_obs::{GuaranteeAuditor, LaneBudget, Recorder, ServedKind, SpanRecorder};
use iba_qos::LowPriorityPolicy;
use iba_sim::LINK_1X_MBPS;

/// Parameters of one audit scenario.
#[derive(Clone, Debug)]
pub struct AuditConfig {
    /// Allocation policy under audit.
    pub allocator: AllocatorKind,
    /// Packet size in bytes (the paper's Table 2 sweeps 256..=4096).
    pub mtu: u32,
    /// Seed for the request stream.
    pub seed: u64,
    /// Consecutive rejections that end the fill phase (paper: 120).
    pub reject_limit: u32,
    /// High-priority grants to drive through the engine.
    pub grants: u64,
}

impl AuditConfig {
    /// A scenario with the paper's fill criterion (120 consecutive
    /// rejections) and a drive long enough for hundreds of table
    /// rotations.
    #[must_use]
    pub fn new(allocator: AllocatorKind, mtu: u32, seed: u64) -> Self {
        AuditConfig {
            allocator,
            mtu,
            seed,
            reject_limit: 120,
            grants: 20_000,
        }
    }
}

/// Everything the audit produced: the auditor with per-lane verdicts
/// plus the fill/drive statistics needed to interpret them.
#[derive(Debug)]
pub struct AuditOutcome {
    /// The scenario that was run.
    pub config: AuditConfig,
    /// The auditor after the drive; per-lane verdicts and the violation
    /// trace ring live here.
    pub auditor: GuaranteeAuditor,
    /// Connections accepted during the fill (including joins).
    pub accepted: u64,
    /// Requests rejected during the fill.
    pub rejected: u64,
    /// Accepted connections that needed the degraded-distance fallback
    /// (allocator failed although enough free entries remained).
    pub fallback_installs: u64,
    /// Occupied table entries when the drive started.
    pub occupied_entries: usize,
    /// Total reserved weight when the drive started.
    pub reserved_weight: u32,
}

impl AuditOutcome {
    /// Total guarantee violations across all lanes.
    #[must_use]
    pub fn violations(&self) -> u64 {
        self.auditor.violations_total()
    }

    /// Whether every budgeted lane held its contract.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.violations() == 0
    }

    /// The full `ibaqos audit` report: scenario header, per-lane
    /// pass/fail table, worst offender and final verdict.
    #[must_use]
    pub fn render_report(&self) -> String {
        let c = &self.config;
        let mut out = format!(
            "audit: allocator={} mtu={} seed={}\n\
             fill: accepted={} rejected={} fallback_installs={} \
             occupied={}/{} weight={}/{}\n",
            c.allocator.name(),
            c.mtu,
            c.seed,
            self.accepted,
            self.rejected,
            self.fallback_installs,
            self.occupied_entries,
            TABLE_ENTRIES,
            self.reserved_weight,
            MAX_TABLE_WEIGHT,
        );
        out.push_str(&self.auditor.render_report());
        out.push_str(&format!(
            "verdict: {}\n",
            if self.passed() {
                "PASS (all service guarantees held)"
            } else {
                "FAIL (service-guarantee violations observed)"
            }
        ));
        out
    }
}

/// Worst-case bytes one slot activation can transmit: the entry's
/// weight rounded up to whole `mtu`-sized packets (an entry with any
/// credit left may send one more whole packet).
fn slot_ceiling_bytes(weight: u8, mtu: u32) -> u64 {
    let packet_units = u64::from(mtu).div_ceil(WEIGHT_UNIT_BYTES).max(1);
    let packets = u64::from(weight).div_ceil(packet_units).max(1);
    packets * u64::from(mtu)
}

/// Runs the audit scenario. With `spans`, the two phases
/// (`audit.fill`, `audit.drive`) are profiled as wall-clock spans into
/// that caller-owned [`SpanRecorder`].
#[must_use]
pub fn run_audit(config: &AuditConfig, mut spans: Option<&mut SpanRecorder>) -> AuditOutcome {
    if let Some(s) = spans.as_mut() {
        s.begin("audit.fill");
    }
    let fill = fill_table(config);
    if let Some(s) = spans.as_mut() {
        s.end("audit.fill");
        s.begin("audit.drive");
    }
    let outcome = drive_engine(config, fill);
    if let Some(s) = spans {
        s.end("audit.drive");
    }
    outcome
}

/// Fill-phase result: the loaded table plus the per-VL contracted
/// distances and counters. Crate-visible so the chaos drive
/// (`crate::chaos`) can damage the filled table and re-audit after
/// recovery.
pub(crate) struct Fill {
    pub(crate) table: HighPriorityTable,
    /// Strictest *contracted* distance per VL (what the class was sold,
    /// not what the allocator managed to install).
    pub(crate) contracted: [Option<Distance>; 16],
    pub(crate) accepted: u64,
    pub(crate) rejected: u64,
    pub(crate) fallback_installs: u64,
}

/// Fills one port's high-priority table with random paper-Table-1
/// requests until `reject_limit` consecutive rejections.
///
/// Requests draw a random QoS service level each time (arrival order in
/// a real subnet is arbitrary — round-robin strictest-first would be a
/// gift no allocator gets in practice) and a bandwidth uniform in the
/// SL's stratum. On `NoFreeSequence` with enough free entries left, the
/// request is installed at the nearest distance that fits while the
/// contract keeps the requested distance — the degraded-install
/// fallback described in the module docs.
pub(crate) fn fill_table(config: &AuditConfig) -> Fill {
    let mut table = HighPriorityTable::with_allocator(config.allocator);
    table.set_capacity_limit((0.8 * f64::from(MAX_TABLE_WEIGHT)) as u32);

    let sl_table = SlTable::paper_table1();
    let profiles: Vec<_> = sl_table.qos_profiles().copied().collect();
    let map = SlToVlMap::identity();
    let mut rng = SplitMix64::seed_from_u64(config.seed ^ 0xA0D1);

    let mut fill = Fill {
        table,
        contracted: [None; 16],
        accepted: 0,
        rejected: 0,
        fallback_installs: 0,
    };
    let mut consecutive_rejects = 0u32;
    // The reject limit always terminates the loop (capacity is finite),
    // but keep a hard iteration cap as a defensive bound.
    for _ in 0..100_000 {
        if consecutive_rejects >= config.reject_limit {
            break;
        }
        let Some(&profile) = rng.choose(&profiles) else {
            break;
        };
        let Some(distance) = profile.distance else {
            continue;
        };
        let (lo, hi) = profile.bandwidth_mbps;
        let mbps = if (hi - lo).abs() < f64::EPSILON {
            lo
        } else {
            rng.gen_range(lo..hi)
        };
        let Some(weight) = weight_for_bandwidth(mbps, LINK_1X_MBPS) else {
            continue;
        };
        let vl = map.vl(profile.sl);
        match admit_with_fallback(&mut fill.table, profile.sl, vl, distance, weight) {
            Admit::Accepted { degraded } => {
                fill.accepted += 1;
                if degraded {
                    fill.fallback_installs += 1;
                }
                consecutive_rejects = 0;
                let lane = &mut fill.contracted[vl.index()];
                *lane = Some(match *lane {
                    Some(prev) if prev.at_least_as_strict(distance) => prev,
                    _ => distance,
                });
            }
            Admit::Rejected => {
                fill.rejected += 1;
                consecutive_rejects += 1;
            }
        }
    }
    fill
}

enum Admit {
    Accepted { degraded: bool },
    Rejected,
}

/// One admission attempt with the degraded-distance fallback: when the
/// allocator reports `NoFreeSequence` although the table still has
/// enough free entries for the request, retry at successively looser
/// distances until one fits. Genuine capacity exhaustion (weight cap or
/// too few entries) stays a rejection.
fn admit_with_fallback(
    table: &mut HighPriorityTable,
    sl: ServiceLevel,
    vl: VirtualLane,
    distance: Distance,
    weight: u32,
) -> Admit {
    match table.admit(sl, vl, distance, weight) {
        Ok(_) => Admit::Accepted { degraded: false },
        Err(TableError::NoFreeSequence) => {
            let fits_by_count =
                effective_request(distance, weight).is_some_and(|(_, n)| table.free_entries() >= n);
            if !fits_by_count {
                return Admit::Rejected;
            }
            let mut next = distance.looser();
            while let Some(d) = next {
                if table.admit(sl, vl, d, weight).is_ok() {
                    return Admit::Accepted { degraded: true };
                }
                next = d.looser();
            }
            Admit::Rejected
        }
        Err(_) => Admit::Rejected,
    }
}

/// Drives the filled table through a [`VlArbEngine`] under saturation
/// (every admitted VL always has a whole-`mtu` packet ready) and audits
/// the grant stream against the contracted budgets.
pub(crate) fn drive_engine(config: &AuditConfig, fill: Fill) -> AuditOutcome {
    let occupied_entries = TABLE_ENTRIES - fill.table.free_entries();
    let reserved_weight = fill.table.reserved_weight();

    // Budget per VL: the slot bound is the contracted distance; the
    // cycle bound is that many worst-case slot activations plus one
    // packet of slack (cycles are bytes on a 1x link in this drive).
    let max_ceiling = fill
        .table
        .slots()
        .iter()
        .filter(|s| !s.is_free())
        .map(|s| slot_ceiling_bytes(s.weight, config.mtu))
        .max()
        .unwrap_or(u64::from(config.mtu));
    let mut auditor = GuaranteeAuditor::with_tracer(1024);
    for (vl, contracted) in fill.contracted.iter().enumerate() {
        if let Some(d) = contracted {
            let d_slots = d.slots() as u64;
            auditor.set_budget(
                vl as u8,
                LaneBudget {
                    d_slots,
                    bound_cycles: d_slots * max_ceiling + u64::from(config.mtu),
                },
            );
        }
    }

    let mut ready_vls = [false; 16];
    for slot in fill.table.slots().iter().filter(|s| !s.is_free()) {
        ready_vls[usize::from(slot.vl) & 0x0F] = true;
    }

    let arb = VlArbConfig::from_slots(
        fill.table.slots(),
        LowPriorityPolicy::default().entries,
        255,
    );
    let mut engine = VlArbEngine::new(arb);
    let mtu = u64::from(config.mtu);
    let mut now = 0u64;
    for _ in 0..config.grants {
        let Some(grant) = engine.select(|vl| ready_vls[vl.index()].then_some(mtu)) else {
            break;
        };
        now += grant.bytes;
        auditor.tick(now);
        let served = match grant.served_by {
            iba_core::ServedBy::High => ServedKind::High,
            iba_core::ServedBy::Low => ServedKind::Low,
        };
        auditor.arb_grant(grant.vl.raw(), grant.bytes, served);
        if grant.exhausted {
            auditor.arb_weight_exhausted(grant.vl.raw());
        }
    }

    AuditOutcome {
        config: config.clone(),
        auditor,
        accepted: fill.accepted,
        rejected: fill.rejected,
        fallback_installs: fill.fallback_installs,
        occupied_entries,
        reserved_weight,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{build_experiment_sized, run_measured};

    /// The paper's Table 2 packet sizes.
    const TABLE2_MTUS: [u32; 5] = [256, 512, 1024, 2048, 4096];

    #[test]
    fn bit_reversal_audits_clean_on_every_table2_workload() {
        for mtu in TABLE2_MTUS {
            for seed in [1, 42, 1234] {
                let out = run_audit(
                    &AuditConfig::new(AllocatorKind::BitReversal, mtu, seed),
                    None,
                );
                assert!(out.accepted > 0, "mtu={mtu} seed={seed}: nothing admitted");
                assert_eq!(
                    out.fallback_installs, 0,
                    "mtu={mtu} seed={seed}: bit-reversal should never degrade"
                );
                assert_eq!(
                    out.violations(),
                    0,
                    "mtu={mtu} seed={seed}: bit-reversal violated its contract:\n{}",
                    out.render_report()
                );
                assert!(out.passed());
            }
        }
    }

    #[test]
    fn strawman_allocators_violate_under_the_same_load() {
        for kind in [AllocatorKind::FirstFit, AllocatorKind::ReverseFit] {
            let violating = [1u64, 42, 1234].iter().any(|&seed| {
                let out = run_audit(&AuditConfig::new(kind, 4096, seed), None);
                out.fallback_installs > 0 && out.violations() > 0
            });
            assert!(
                violating,
                "{}: no audited violation on any probe seed",
                kind.name()
            );
        }
    }

    #[test]
    fn first_fit_violation_is_traced_and_reported() {
        // Pinned seed with a known degraded install (asserted here so a
        // behaviour change surfaces as a test failure, not silence).
        let out = run_audit(&AuditConfig::new(AllocatorKind::FirstFit, 4096, 42), None);
        assert!(out.fallback_installs > 0, "expected a degraded install");
        assert!(out.violations() > 0, "degraded install must be observable");
        assert!(!out.passed());
        let traced = out
            .auditor
            .tracer()
            .map(iba_obs::RingTracer::records)
            .unwrap_or_default();
        assert!(!traced.is_empty(), "violations must reach the trace ring");
        let report = out.render_report();
        assert!(report.contains("FAIL"), "report: {report}");
        assert!(report.contains("verdict: FAIL"), "report: {report}");
        assert!(report.contains("worst offender"), "report: {report}");
    }

    #[test]
    fn audit_is_deterministic() {
        let cfg = AuditConfig::new(AllocatorKind::FirstFit, 1024, 7);
        let a = run_audit(&cfg, None);
        let b = run_audit(&cfg, None);
        assert_eq!(a.render_report(), b.render_report());
        assert_eq!(a.violations(), b.violations());
    }

    #[test]
    fn spanned_audit_profiles_both_phases() {
        let mut spans = SpanRecorder::new(64);
        let cfg = AuditConfig::new(AllocatorKind::BitReversal, 1024, 3);
        let out = run_audit(&cfg, Some(&mut spans));
        assert!(out.accepted > 0);
        for name in ["audit.fill", "audit.drive"] {
            let begins = spans
                .records()
                .iter()
                .filter(|r| r.name == name && r.phase == iba_obs::SpanPhase::Begin)
                .count();
            let ends = spans
                .records()
                .iter()
                .filter(|r| r.name == name && r.phase == iba_obs::SpanPhase::End)
                .count();
            assert_eq!((begins, ends), (1, 1), "unbalanced {name}");
        }
    }

    #[test]
    fn observe_only_auditor_does_not_perturb_the_simulation() {
        // Differential check: a full-fabric measured run with a
        // GuaranteeAuditor riding the recorder seam delivers the exact
        // same packets at the exact same times as the unaudited run.
        let exp = build_experiment_sized(4096, 4, 11, 40);
        let plain = run_measured(&exp, 3, false, None, &mut iba_obs::NullRecorder);
        let mut auditor = GuaranteeAuditor::new();
        let audited = run_measured(&exp, 3, false, None, &mut auditor);
        assert_eq!(plain.delivery_digest, audited.delivery_digest);
        assert_eq!(plain.delivery_count, audited.delivery_count);
        // The ride-along auditor saw real grants (observe-only lanes).
        assert!(
            auditor.active_lanes().next().is_some(),
            "auditor observed no grants at all"
        );
        assert_eq!(auditor.violations_total(), 0, "no budgets => no violations");
    }
}
