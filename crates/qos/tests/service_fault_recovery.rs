//! Differential property tests for the admission service's
//! control-plane fault model.
//!
//! * 100 seeded random traces, each served under a seeded fault plan
//!   (owner crashes before and after acting, lost and duplicated
//!   requests, lost replies), must still converge — outcomes, final
//!   tables and non-`serve_*` metrics **byte-identical** to the
//!   synchronous single-owner [`QosManager`] — because the write-ahead
//!   journal, deterministic timeouts and the reply cache absorb every
//!   injected fault, and the exactly-once sweep must be `(0, 0)`. The
//!   aggregate assertions prove the equivalence is not vacuous: real
//!   crashes, replays, timeouts and duplicates occurred. With the
//!   journal off, the same plans must diverge.
//! * An exhaustive enumeration over one fixed 12-op trace (admits, a
//!   rejection, teardowns and a repair drill): every single fault and
//!   every pair of faults on two distinct ops must converge with an
//!   exactly-once ledger that sweeps to `(0, 0)`, and without the
//!   journal at least one crash case must not.

use iba_core::{Distance, ServiceLevel, SlTable};
use iba_obs::{NullRecorder, ObsRecorder, Sample};
use iba_qos::service::{apply_trace_sequential, generate_trace, TraceConfig, TraceOp};
use iba_qos::{
    run_trace_faulted, CrashPoint, QosManager, RejectReason, ServeFault, ServeFaultKind,
    ServeFaultPlan, ServeOptions, ServeReport, TraceOutcome,
};
use iba_sim::NodeId;
use iba_topo::{irregular, updown, HostId};
use iba_traffic::ConnectionRequest;

const SEEDS: u64 = 100;
const TRACE_LEN: usize = 48;
const INTENSITY_PCT: u8 = 35;

fn build_manager(seed: u64) -> (QosManager, u16) {
    let topo = irregular::generate(irregular::IrregularConfig::with_switches(4, seed));
    let hosts = topo.num_hosts() as u16;
    let routing = updown::compute(&topo);
    (
        QosManager::new(topo, routing, SlTable::paper_table1()),
        hosts,
    )
}

/// The metrics a faulted run shares with the sequential reference:
/// everything but the service's own `serve_*` samples.
fn shared_samples(rec: &ObsRecorder) -> Vec<Sample> {
    rec.metrics
        .snapshot()
        .into_iter()
        .filter(|s| !s.name.starts_with("serve_"))
        .collect()
}

fn serve(
    planner: &QosManager,
    ops: &[TraceOp],
    plan: &ServeFaultPlan,
    journal: bool,
) -> (ServeReport, ObsRecorder) {
    let mut rec = ObsRecorder::new();
    let report = run_trace_faulted(planner, ops, plan, &ServeOptions { journal }, &mut rec);
    (report, rec)
}

#[test]
fn faulted_service_recovers_to_sequential_on_100_seeds() {
    let (mut crashes, mut replays, mut timeouts, mut duplicates) = (0u64, 0u64, 0u64, 0u64);
    let mut diverged_without_journal = 0;
    for seed in 0..SEEDS {
        let (mut seq_mgr, hosts) = build_manager(seed);
        let ops = generate_trace(&TraceConfig::new(hosts, seed, TRACE_LEN));
        let mut seq_rec = ObsRecorder::new();
        let seq = apply_trace_sequential(&mut seq_mgr, &ops, &mut seq_rec);
        let seq_tables = format!("{:?}", seq_mgr.port_tables());

        let plan = ServeFaultPlan::generate(seed, &ops, INTENSITY_PCT);
        let (planner, _) = build_manager(seed);
        let (report, rec) = serve(&planner, &ops, &plan, true);
        assert_eq!(report.outcomes, seq, "outcomes diverge: seed {seed}");
        assert_eq!(
            format!("{:?}", report.tables),
            seq_tables,
            "tables diverge after journal replay: seed {seed}"
        );
        assert_eq!(
            format!("{:?}", shared_samples(&rec)),
            format!("{:?}", shared_samples(&seq_rec)),
            "metrics counted twice or lost: seed {seed}"
        );
        assert!(
            report.journal.is_exactly_once(ops.len()),
            "an operation executed twice or never: seed {seed}"
        );
        assert_eq!(report.sweep(), (0, 0), "ledger residue: seed {seed}");
        report
            .tables
            .check_all()
            .unwrap_or_else(|e| panic!("inconsistent after recovery: seed {seed}: {e}"));
        crashes += report.fault_stats.crashes;
        replays += rec.metrics.serve_journal_replay.get();
        timeouts += report.fault_stats.timeouts;
        duplicates += report.fault_stats.duplicates;

        // Negative control: the same plan without the journal.
        let (off, _) = serve(&planner, &ops, &plan, false);
        if off.outcomes != seq || format!("{:?}", off.tables) != seq_tables {
            diverged_without_journal += 1;
        }
    }
    // The recovery machinery must actually have been exercised.
    assert!(crashes > 0, "no owner crash was ever injected");
    assert!(replays > 0, "no journal record was ever replayed");
    assert!(timeouts > 0, "no deterministic timeout ever fired");
    assert!(duplicates > 0, "no request was ever duplicated");
    assert!(
        diverged_without_journal > 0,
        "journal-off runs never diverged: the crashes are not biting"
    );
}

/// The faulted run must be a pure function of `(trace, plan)`: two
/// executions with the same inputs produce identical outcomes, tables
/// and fault statistics.
#[test]
fn faulted_run_is_deterministic_across_executions() {
    for seed in [3u64, 17, 41] {
        let (planner, hosts) = build_manager(seed);
        let ops = generate_trace(&TraceConfig::new(hosts, seed, TRACE_LEN));
        let plan = ServeFaultPlan::generate(seed, &ops, INTENSITY_PCT);
        let runs: Vec<_> = (0..2)
            .map(|_| {
                let (report, _) = serve(&planner, &ops, &plan, true);
                (
                    report.outcomes.clone(),
                    format!("{:?}", report.tables),
                    report.fault_stats,
                )
            })
            .collect();
        assert_eq!(
            runs[0], runs[1],
            "faulted run nondeterministic: seed {seed}"
        );
    }
}

/// The fixed enumeration trace on the seed-3 fabric: three admissions
/// into one destination, the third of which a switch port rejects after
/// its source uplink was reserved (a rollback); a teardown of a live
/// connection; a repair drill; a teardown of a connection admitted
/// before the repair, which the repair kept live; a request too large
/// for any sequence; and teardowns of a connection admitted after the
/// repair and of the rejected request.
fn enumeration_trace() -> Vec<TraceOp> {
    let admit = |id: u32, src: u16, dst: u16, sl: u8, distance, mean_bw_mbps| {
        TraceOp::Admit(ConnectionRequest {
            id,
            src: HostId(src),
            dst: HostId(dst),
            sl: ServiceLevel::new(sl).expect("QoS SL"),
            distance,
            mean_bw_mbps,
            packet_bytes: 256,
        })
    };
    vec![
        admit(0, 0, 5, 2, Distance::D16, 700.0),
        admit(1, 1, 5, 4, Distance::D32, 700.0),
        admit(2, 2, 5, 0, Distance::D8, 700.0),
        TraceOp::Teardown(1),
        admit(4, 3, 8, 6, Distance::D64, 100.0),
        TraceOp::Repair { seed: 42 },
        admit(6, 4, 9, 1, Distance::D16, 250.0),
        TraceOp::Teardown(0),
        admit(8, 5, 0, 3, Distance::D32, 150.0),
        admit(9, 6, 1, 5, Distance::D8, 1_000_000.0),
        TraceOp::Teardown(8),
        TraceOp::Teardown(2),
    ]
}

/// Whether a faulted run reproduced the reference's state: same
/// outcomes and table bytes, and an exactly-once ledger (the sweep
/// releases every live hop and leaves nothing reserved).
fn same_state(report: &ServeReport, reference: &ServeReport) -> bool {
    report.outcomes == reference.outcomes
        && format!("{:?}", report.tables) == format!("{:?}", reference.tables)
        && report.sweep() == (0, 0)
}

/// [`same_state`], with one journaled execution per operation.
fn converged(report: &ServeReport, reference: &ServeReport, ops: usize) -> bool {
    same_state(report, reference) && report.journal.is_exactly_once(ops)
}

#[test]
fn every_single_fault_and_every_fault_pair_converges() {
    let (planner, _) = build_manager(3);
    let ops = enumeration_trace();
    let mut seq_mgr = planner.clone();
    let seq = apply_trace_sequential(&mut seq_mgr, &ops, &mut NullRecorder);
    // The trace exercises what the enumeration claims to cover.
    assert!(seq.contains(&TraceOutcome::TornDown(true)), "{seq:?}");
    assert!(seq.contains(&TraceOutcome::TornDown(false)), "{seq:?}");
    assert_eq!(
        seq[7],
        TraceOutcome::TornDown(true),
        "the repair kept rid 0"
    );
    assert!(seq
        .iter()
        .any(|o| matches!(o, TraceOutcome::Repaired { .. })));
    assert!(seq.contains(&TraceOutcome::Rejected(RejectReason::RequestTooLarge)));
    assert!(
        seq.iter().any(|o| matches!(
            o,
            TraceOutcome::Rejected(
                RejectReason::NoFreeSequence(k) | RejectReason::CapacityExceeded(k)
            ) if matches!(k.node, NodeId::Switch(_))
        )),
        "no mid-path rollback: {seq:?}"
    );
    let (reference, _) = serve(&planner, &ops, &ServeFaultPlan::none(), true);
    assert_eq!(reference.outcomes, seq);

    let plan = |faults: Vec<ServeFault>| ServeFaultPlan { seed: 7, faults };
    let fault = |op: usize, kind| ServeFault {
        op: op as u32,
        kind,
    };
    let mut runs = 0;
    for a in 0..ops.len() {
        for ka in ServeFaultKind::ALL {
            let (single, _) = serve(&planner, &ops, &plan(vec![fault(a, ka)]), true);
            assert!(
                converged(&single, &reference, ops.len()),
                "{ka:?} on op {a} diverged"
            );
            assert_eq!(single.fault_stats.timeouts, 1, "{ka:?} on op {a}");
            runs += 1;
            for b in a + 1..ops.len() {
                for kb in ServeFaultKind::ALL {
                    let faults = vec![fault(a, ka), fault(b, kb)];
                    let (pair, _) = serve(&planner, &ops, &plan(faults), true);
                    assert!(
                        converged(&pair, &reference, ops.len()),
                        "{ka:?} on op {a} + {kb:?} on op {b} diverged"
                    );
                    runs += 1;
                }
            }
        }
    }
    assert_eq!(runs, 12 * 5 + 66 * 25);

    // Negative control: without the journal a crash must cost state
    // in at least one single-fault case.
    let crash_failures = (0..ops.len())
        .flat_map(|a| {
            [CrashPoint::BeforeAct, CrashPoint::BeforeReply]
                .map(|p| plan(vec![fault(a, ServeFaultKind::Crash(p))]))
        })
        .filter(|p| {
            let (off, _) = serve(&planner, &ops, p, false);
            !same_state(&off, &reference)
        })
        .count();
    assert!(crash_failures > 0, "journal-off crashes never diverged");
}
