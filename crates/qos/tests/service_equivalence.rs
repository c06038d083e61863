//! Differential property tests for the journaled admission service.
//!
//! 100 seeded random admit/teardown/repair traces must produce
//! outcomes, final tables and non-`serve_*` metrics **byte-identical**
//! to the synchronous single-owner [`QosManager`] — including the
//! multi-hop admissions that fail mid-path and must roll back (the run
//! asserts rollbacks actually occurred, so the equivalence is not
//! vacuous). Every trace also conserves weight exactly, repairs
//! included: the tables reserve what the live connections hold and
//! nothing else.

use iba_core::SlTable;
use iba_obs::{ObsRecorder, Sample};
use iba_qos::service::{apply_trace_sequential, generate_trace, run_trace, TraceConfig};
use iba_qos::{QosManager, ServeReport, TraceOp, TraceOutcome};
use iba_topo::{irregular, updown};

const SEEDS: u64 = 100;
const TRACE_LEN: usize = 48;

fn build_manager(seed: u64) -> (QosManager, u16) {
    let topo = irregular::generate(irregular::IrregularConfig::with_switches(4, seed));
    let hosts = topo.num_hosts() as u16;
    let routing = updown::compute(&topo);
    (
        QosManager::new(topo, routing, SlTable::paper_table1()),
        hosts,
    )
}

/// The metrics both runs share: everything but the service's own
/// `serve_*` samples.
fn shared_samples(rec: &ObsRecorder) -> Vec<Sample> {
    rec.metrics
        .snapshot()
        .into_iter()
        .filter(|s| !s.name.starts_with("serve_"))
        .collect()
}

#[test]
fn service_matches_sequential_on_100_seeds() {
    let mut total_rollbacks = 0u64;
    let mut total_rejects = 0usize;
    let mut total_repairs = 0usize;
    for seed in 0..SEEDS {
        let (mut seq_mgr, hosts) = build_manager(seed);
        let ops = generate_trace(&TraceConfig::new(hosts, seed, TRACE_LEN));
        let mut seq_rec = ObsRecorder::new();
        let seq = apply_trace_sequential(&mut seq_mgr, &ops, &mut seq_rec);
        total_rejects += seq
            .iter()
            .filter(|o| matches!(o, TraceOutcome::Rejected(_)))
            .count();

        let (planner, _) = build_manager(seed);
        let mut rec = ObsRecorder::new();
        let report = run_trace(&planner, &ops, 1, &mut rec);
        assert_eq!(report.outcomes, seq, "outcomes diverge: seed {seed}");
        assert_eq!(
            format!("{:?}", report.tables),
            format!("{:?}", seq_mgr.port_tables()),
            "tables diverge: seed {seed}"
        );
        assert_eq!(
            format!("{:?}", shared_samples(&rec)),
            format!("{:?}", shared_samples(&seq_rec)),
            "metrics diverge: seed {seed}"
        );
        report
            .tables
            .check_all()
            .unwrap_or_else(|e| panic!("inconsistent: seed {seed}: {e}"));
        assert_conserved(&report, seed);
        total_rollbacks += rec.metrics.serve_shard_rollback.0[0].get();
        total_repairs += ops
            .iter()
            .filter(|op| matches!(op, TraceOp::Repair { .. }))
            .count();
    }
    // The equivalence must have been exercised by real mid-path
    // failures, not an all-accepting workload.
    assert!(total_rejects > 0, "no rejected admissions across all seeds");
    assert!(
        total_rollbacks > 0,
        "no multi-hop admission ever rolled back across all seeds"
    );
    assert!(total_repairs > 0, "no trace ran a repair drill");
}

/// Weight conservation after a trace: the weight reserved across all
/// tables equals the live connections' `weight x hops` — no rolled-back
/// partial admission and no repair leaked a reservation anywhere — the
/// exactly-once sweep releases every live hop and leaves nothing behind,
/// and every table passes the named invariants of `iba_core::invariants`.
fn assert_conserved(report: &ServeReport, seed: u64) {
    let reserved: u64 = report
        .tables
        .tables()
        .map(|(_, t)| u64::from(t.reserved_weight()))
        .sum();
    let live: u64 = report
        .live
        .iter()
        .map(|c| u64::from(c.weight) * c.hops.len() as u64)
        .sum();
    assert_eq!(reserved, live, "leaked reservation: seed {seed}");
    assert_eq!(report.sweep(), (0, 0), "ledger residue: seed {seed}");
    for (key, table) in report.tables.tables() {
        iba_core::invariants::check_table(table)
            .unwrap_or_else(|e| panic!("invariant broken at {key:?}: seed {seed}: {e}"));
    }
}
