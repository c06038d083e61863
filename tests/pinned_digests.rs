//! Digests pinned for behaviour the golden fixtures do not exercise.
//!
//! * Delivery digests of the simulator's priority-aware input claiming,
//!   alone and under a hand-built port-fault plan (VL blackout, credit
//!   stall, link down/up, table corruption). Each run folds every
//!   delivery, in order, into an FNV-1a digest. A change to the
//!   crossbar candidate scan, the input-claiming rule or the fault
//!   gating that moves a single packet by a single cycle changes the
//!   digest. The constants were recorded with a candidate scan over
//!   every input and occupied lane, the reference the routed-head index
//!   must reproduce.
//! * Admission digests: the final port tables and the per-request
//!   outcomes (connection id or reject reason) of a seeded Table-1 fill,
//!   and of a churn run that keeps admitting and tearing down on a
//!   filled fabric. A change to the allocator, the canonical
//!   defragmentation plan or the connection-id rule that moves one
//!   table slot or one id changes them. The constants were recorded
//!   with the probe-based defragmentation planner and a linear
//!   smallest-free connection-id scan.
//! * Admission-service digests: one seeded trace run through the
//!   journaled service under a seeded control-plane fault plan (owner
//!   crashes before and after acting, lost and duplicated requests,
//!   lost replies). The pair covers the whole `ServeReport` (outcomes,
//!   tables, live set, journal, request records, fault counts) and the
//!   full metrics registry, `serve_*` included. A change to the
//!   service, the journal or the fault model that moves one record
//!   changes them. The constants were recorded with the single-owner
//!   service's first version.
//! * Metrics-registry digests: the `Debug` rendering, the snapshot, the
//!   merge and the window delta of seeded registries in which every
//!   field is written (zeros, negative gauges, saturating counters,
//!   overflow-bucket histogram values). A change to the registry's field
//!   order, a metric's name or dimension, or to how one kind of metric
//!   merges, subtracts or snapshots changes them. The constants were
//!   recorded with the registry written out field by field.
//!
//! Never regenerate the constants to make a change pass.

use infiniband_qos::core::SplitMix64;
use infiniband_qos::harness::{fnv64, Fnv64};
use infiniband_qos::prelude::*;
use infiniband_qos::qos::service::{generate_trace, run_trace_faulted, TraceConfig};
use infiniband_qos::qos::{ChurnEvent, ChurnRunner, PortTables, ServeFaultPlan, ServeOptions};
use infiniband_qos::sim::{DeliveryRecord, FaultAction, FaultPlan, Observer};
use infiniband_qos::topo::PortPeer;
use infiniband_qos::traffic::hotspot::permutation_flows;

/// Claiming alone: `(digest, deliveries)`.
const CLAIMING: (u64, u64) = (0x3eed_e360_45c8_4338, 85_296);
/// Claiming under [`fault_plan`]: `(digest, deliveries)`.
const CLAIMING_FAULTED: (u64, u64) = (0xd99e_6fb8_c10c_5e73, 75_139);

const HORIZON: u64 = 2_000_000;

/// Seeded Table-1 fill: `(tables digest, outcomes digest, attempted,
/// accepted)`.
const FILL: (u64, u64, usize, usize) =
    (0xdfa6_ef57_523e_6d55, 0x881a_bad9_1141_1109, 20_000, 4_414);
/// Churn on a filled fabric: `(tables digest, outcomes digest,
/// admitted, rejected, departed)`.
const CHURN: (u64, u64, u64, u64, u64) = (0xe952_8936_9528_5e13, 0xd711_1cfe_10b7_e55a, 53, 97, 48);

/// Faulted admission-service run: `(report digest, metrics digest)`.
/// Its repair drills re-admit evicted connections from the manager's
/// records, so connections admitted before a repair stay live.
const SERVE_FAULTED: (u64, u64) = (0x14fe_4005_64b0_72ff, 0xf57f_ab2d_6dbf_a54a);

/// Seeded metrics registries: `(Debug, snapshot, merge, delta)` digests.
const REGISTRY: (u64, u64, u64, u64) = (
    0x166a_bdb3_4127_d9a5,
    0xe1bb_246b_b3d2_4f30,
    0xd2d1_3af8_df9f_f032,
    0x0377_cf83_bffb_ef5f,
);

/// Digest of every table's slots, occupancy and sequence records.
fn tables_digest(tables: &PortTables) -> u64 {
    fnv64(format!("{tables:?}").as_bytes())
}

struct Digest {
    hash: Fnv64,
    count: u64,
}

impl Observer for Digest {
    fn on_delivered(&mut self, rec: &DeliveryRecord) {
        for v in [
            u64::from(rec.flow),
            rec.seq,
            u64::from(rec.src.0),
            u64::from(rec.dst.0),
            u64::from(rec.sl.raw()),
            u64::from(rec.bytes),
            rec.created,
            rec.delivered,
        ] {
            self.hash.word(v);
        }
        self.count += 1;
    }
}

/// A filled 4-switch frame, priority-aware input claiming on or off.
fn frame(claiming: bool) -> QosFrame {
    let seed = 43;
    let topo = generate(IrregularConfig::with_switches(4, seed));
    let routing = compute_routing(&topo);
    let mut config = SimConfig::paper_default(256);
    config.priority_input_claiming = claiming;
    let mut frame = QosFrame::new(topo.clone(), routing, SlTable::paper_table1(), config);
    let mut gen = RequestGenerator::new(
        &topo,
        &SlTable::paper_table1(),
        &WorkloadConfig::new(256, seed ^ 2),
    );
    frame.fill(&mut gen, 30, 1500);
    frame
}

/// One fault of each port-level kind, on switch ports that carry
/// traffic, each transient one restored inside the run.
fn fault_plan(topo: &Topology) -> FaultPlan {
    let port_to = |s: u16, want_host: bool| -> u8 {
        (0..topo.ports_per_switch())
            .find(|&p| match topo.peer(SwitchId(s), p) {
                PortPeer::Host(_) => want_host,
                PortPeer::Switch { .. } => !want_host,
                PortPeer::Free => false,
            })
            .expect("switch has a port of that kind")
    };
    let (s0, s1, s2, s3) = (
        NodeId::Switch(0),
        NodeId::Switch(1),
        NodeId::Switch(2),
        NodeId::Switch(3),
    );
    let (p0, p1, p2, p3) = (
        port_to(0, false),
        port_to(1, true),
        port_to(2, false),
        port_to(3, true),
    );
    let mut plan = FaultPlan::new(0);
    let mut at = |t: u64, a: FaultAction| plan.push(t, a);
    at(
        300_000,
        FaultAction::SetVlBlackout {
            node: s0,
            port: p0,
            mask: 0x00FF,
        },
    );
    at(
        400_000,
        FaultAction::SetCreditStall {
            node: s1,
            port: p1,
            mask: 0x0C0F,
        },
    );
    at(500_000, FaultAction::LinkDown { node: s2, port: p2 });
    at(
        600_000,
        FaultAction::CorruptTable {
            node: s3,
            port: p3,
            seed: 0x5EED,
        },
    );
    at(700_000, FaultAction::LinkUp { node: s2, port: p2 });
    at(
        900_000,
        FaultAction::SetVlBlackout {
            node: s0,
            port: p0,
            mask: 0,
        },
    );
    at(
        1_000_000,
        FaultAction::SetCreditStall {
            node: s1,
            port: p1,
            mask: 0,
        },
    );
    plan
}

/// Runs the frame with saturating best-effort permutation traffic on
/// top of the QoS load, optionally under the fault plan.
fn run(claiming: bool, faulted: bool) -> (u64, u64) {
    let frame = frame(claiming);
    let (mut fabric, _) = frame.build_fabric(2, None);
    for f in permutation_flows(
        frame.manager.topology(),
        ServiceLevel::new(10).unwrap(),
        1.0,
        256,
        7,
        3_000_000,
    ) {
        fabric.add_flow(f);
    }
    if faulted {
        fabric.apply_fault_plan(&fault_plan(frame.manager.topology()));
    }
    let mut digest = Digest {
        hash: Fnv64::default(),
        count: 0,
    };
    fabric.run_until(HORIZON, &mut digest);
    (digest.hash.finish(), digest.count)
}

#[test]
fn priority_input_claiming_digest_is_pinned() {
    let got = run(true, false);
    assert_ne!(got, run(false, false), "claiming changed no delivery");
    assert_eq!(
        got, CLAIMING,
        "claiming run: got {:#018x}, {}",
        got.0, got.1
    );
}

#[test]
fn priority_input_claiming_under_faults_digest_is_pinned() {
    let got = run(true, true);
    assert_ne!(got, run(true, false), "the fault plan changed no delivery");
    assert_eq!(
        got, CLAIMING_FAULTED,
        "faulted claiming run: got {:#018x}, {}",
        got.0, got.1
    );
}

/// An 8-switch Table-1 fill, request by request, with
/// [`QosFrame::fill`]'s stopping rule: every rejection past the first
/// admission rolls back partial reservations and defragments.
fn fill_outcomes() -> (u64, u64, usize, usize) {
    let seed = 47;
    let topo = generate(IrregularConfig::with_switches(8, seed));
    let mut manager = QosManager::new(
        topo.clone(),
        compute_routing(&topo),
        SlTable::paper_table1(),
    );
    let mut gen = RequestGenerator::new(
        &topo,
        &SlTable::paper_table1(),
        &WorkloadConfig::new(256, seed ^ 5),
    );
    let mut outcomes = Vec::new();
    let mut consecutive = 0;
    while outcomes.len() < 20_000 && consecutive < 200 {
        let outcome = manager.request(&gen.next_request());
        consecutive = if outcome.is_ok() { 0 } else { consecutive + 1 };
        outcomes.push(outcome);
    }
    let accepted = outcomes.iter().filter(|o| o.is_ok()).count();
    (
        tables_digest(manager.port_tables()),
        fnv64(format!("{outcomes:?}").as_bytes()),
        outcomes.len(),
        accepted,
    )
}

/// A filled 4-switch frame that keeps taking arrivals while the oldest
/// churn connections depart. The outcome digest covers the final
/// connection-id → request-id map, which every id reuse shapes.
fn churn_outcomes() -> (u64, u64, u64, u64, u64) {
    let seed = 53;
    let topo = generate(IrregularConfig::with_switches(4, seed));
    let mut frame = QosFrame::new(
        topo.clone(),
        compute_routing(&topo),
        SlTable::paper_table1(),
        SimConfig::paper_default(256),
    );
    let mut gen = RequestGenerator::new(
        &topo,
        &SlTable::paper_table1(),
        &WorkloadConfig::new(256, seed ^ 5),
    );
    frame.fill(&mut gen, 30, 1500);
    let mut events = Vec::new();
    for k in 0..150u64 {
        events.push(ChurnEvent::Arrive {
            at: k * 8_000,
            request: gen.next_request(),
        });
        // Departures in bursts, so several ids are free at once and
        // the smallest-free rule decides which one the next admit gets.
        if k % 9 == 8 {
            for i in 0..3 {
                events.push(ChurnEvent::DepartOldest {
                    at: k * 8_000 + 4_000 + i,
                });
            }
        }
    }
    let (mut fabric, mut obs) = frame.build_fabric(3, None);
    let stats = ChurnRunner::new(events).run(&mut frame, &mut fabric, &mut obs, 1_300_000);
    let live: Vec<(u32, u32)> = frame
        .manager
        .connections()
        .map(|(id, c)| (id.0, c.request.id))
        .collect();
    (
        tables_digest(frame.manager.port_tables()),
        fnv64(format!("{live:?}").as_bytes()),
        stats.admitted,
        stats.rejected,
        stats.departed,
    )
}

#[test]
fn table1_fill_tables_and_outcomes_are_pinned() {
    let got = fill_outcomes();
    assert!(got.3 > 0 && got.3 < got.2, "fill must admit and reject");
    assert_eq!(
        got, FILL,
        "fill: got ({:#018x}, {:#018x}, {}, {})",
        got.0, got.1, got.2, got.3
    );
}

#[test]
fn churn_tables_and_outcomes_are_pinned() {
    let got = churn_outcomes();
    assert!(got.2 > 0 && got.3 > 0, "churn must admit and reject");
    assert!(got.2 > got.4, "churn connections must outlive the run");
    assert_eq!(
        got, CHURN,
        "churn: got ({:#018x}, {:#018x}, {}, {}, {})",
        got.0, got.1, got.2, got.3, got.4
    );
}

/// One seeded trace (repair drills included) through the service under
/// `ServeFaultPlan::generate(seed, ops, 30)`: digests of the debug
/// rendering of the whole report and of the registry.
fn serve_faulted() -> (u64, u64) {
    let seed = 3;
    let topo = generate(IrregularConfig::with_switches(4, seed));
    let hosts = topo.num_hosts() as u16;
    let planner = QosManager::new(
        topo.clone(),
        compute_routing(&topo),
        SlTable::paper_table1(),
    );
    let ops = generate_trace(&TraceConfig::new(hosts, seed, 128));
    let plan = ServeFaultPlan::generate(seed, &ops, 30);
    let mut rec = iba_obs::ObsRecorder::with_tracer(1 << 16);
    let report = run_trace_faulted(&planner, &ops, &plan, &ServeOptions::default(), &mut rec);
    assert!(
        report.fault_stats.crashes > 0
            && report.fault_stats.request_losses > 0
            && report.fault_stats.duplicates > 0
            && report.fault_stats.reply_losses > 0,
        "plan must exercise every fault kind: {:?}",
        report.fault_stats
    );
    assert!(!report.request_records.is_empty());
    (
        fnv64(format!("{report:?}").as_bytes()),
        fnv64(format!("{:?}", rec.metrics).as_bytes()),
    )
}

#[test]
fn faulted_service_report_and_metrics_are_pinned() {
    let got = serve_faulted();
    assert_eq!(got, SERVE_FAULTED, "got ({:#018x}, {:#018x})", got.0, got.1);
}

/// One seeded metric reading: zero, small, at a histogram bucket edge or
/// in the overflow bucket, near the saturation limit, or any word.
fn reading(rng: &mut SplitMix64) -> u64 {
    match rng.next_u64() % 6 {
        0 => 0,
        1 => rng.next_u64() % 1_000,
        2 => 1 << (rng.next_u64() % 17),
        3 => 65_536 + rng.next_u64() % 100_000,
        4 => u64::MAX - rng.next_u64() % 4,
        _ => rng.next_u64(),
    }
}

/// A registry with every field written by `seed`: each counter and
/// lane gets two readings (so near-limit pairs saturate), each gauge a
/// signed level (negative about half the time) and each histogram up
/// to seven observations.
fn seeded_registry(seed: u64) -> iba_obs::Metrics {
    let rng = &mut SplitMix64::seed_from_u64(seed);
    let mut m = iba_obs::Metrics::new();
    for c in [
        &mut m.alloc_probe,
        &mut m.alloc_probe_rejected,
        &mut m.alloc_select_fail,
        &mut m.arb_high_bytes,
        &mut m.arb_low_bytes,
        &mut m.arb_vl15_bytes,
        &mut m.sim_events,
        &mut m.schedule_compiles,
        &mut m.schedule_invalidations,
        &mut m.cac_release,
        &mut m.harness_runs,
        &mut m.fault_injected,
        &mut m.recovery_repairs,
        &mut m.recovery_evicted,
        &mut m.recovery_reinstalls,
        &mut m.recovery_degraded,
        &mut m.span_records,
        &mut m.span_dropped,
        &mut m.serve_crash,
        &mut m.serve_journal_replay,
        &mut m.serve_timeout,
        &mut m.timeline_windows,
        &mut m.slo_evals,
        &mut m.slo_breaches,
    ]
    .into_iter()
    .chain(&mut m.cac_reject)
    .chain(
        [
            &mut m.arb_grant,
            &mut m.arb_bytes,
            &mut m.arb_weight_exhausted,
            &mut m.arb_hol_stall,
            &mut m.cac_admit,
            &mut m.audit_violations,
            &mut m.fault_blocked,
            &mut m.serve_shard_rollback,
        ]
        .into_iter()
        .flat_map(|l| l.0.iter_mut()),
    ) {
        c.add(reading(rng));
        c.add(reading(rng));
    }
    for g in std::iter::once(&mut m.harness_threads).chain(
        [&mut m.audit_gap_max, &mut m.audit_bound_cycles]
            .into_iter()
            .flat_map(|l| l.0.iter_mut()),
    ) {
        g.set(reading(rng) as i64);
        g.add(reading(rng) as i64 >> 8);
    }
    for h in [
        &mut m.alloc_probe_depth,
        &mut m.arb_queue_depth,
        &mut m.sim_event_queue_depth,
        &mut m.serve_queue_depth,
    ] {
        for _ in 0..rng.next_u64() % 8 {
            h.observe(reading(rng));
        }
    }
    m
}

fn registry_digests() -> (u64, u64, u64, u64) {
    let (mut dbg, mut snap, mut merged, mut delta) = Default::default();
    let fold = |h: &mut Fnv64, text: String| h.word(fnv64(text.as_bytes()));
    for seed in 0..64 {
        let a = seeded_registry(2 * seed);
        let b = seeded_registry(2 * seed + 1);
        fold(&mut dbg, format!("{a:?}"));
        fold(&mut snap, format!("{:?}", a.snapshot()));
        let mut ab = a.clone();
        ab.merge(&b);
        fold(&mut merged, format!("{ab:?}"));
        // A true window (a prefix removed) and a mismatched pair, whose
        // counters and histograms must saturate at zero.
        fold(&mut delta, format!("{:?}", ab.delta_from(&a)));
        fold(&mut delta, format!("{:?}", a.delta_from(&b)));
    }
    (dbg.finish(), snap.finish(), merged.finish(), delta.finish())
}

#[test]
fn metrics_registry_render_snapshot_merge_and_delta_are_pinned() {
    let empty = iba_obs::Metrics::new();
    assert!(empty.snapshot().is_empty());
    let got = registry_digests();
    assert_eq!(
        got, REGISTRY,
        "got ({:#018x}, {:#018x}, {:#018x}, {:#018x})",
        got.0, got.1, got.2, got.3
    );
}
