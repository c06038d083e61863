//! Differential tests for the fabric's compiled arbitration pipeline.
//!
//! Every output port arbitrates through `iba_core::CompiledVlArb`; its
//! grant-for-grant equivalence with the reference engine
//! (`iba_core::VlArbEngine`) under the fabric's own `select`,
//! `reconfigure` and `reset` calls is the lockstep test in
//! `crates/core/src/schedule.rs`. These tests cover what the fabric
//! adds on top: the seeded sweep delivers exactly what the fabric
//! delivered when its ports ran the interpreted reference engine, the
//! delivery digest is invariant under the worker-thread count, a table download recompiles exactly the ports
//! whose table changed (property-checked over 100 seeds), and the
//! incremental download delivers exactly what a full recompile of every
//! port delivers.

use iba_core::SlTable;
use iba_harness::{build_experiment_sized, run_measured, run_points, SimPoint};
use iba_obs::{NullRecorder, ObsRecorder};
use iba_qos::{PortKey, QosFrame, QosManager, QosObserver, RecoveryManager};
use iba_sim::{DeliveryRecord, Fabric, FaultAction, NodeId, NullObserver, Observer, SimConfig};
use iba_topo::irregular::{generate, IrregularConfig};
use iba_topo::updown;
use iba_traffic::besteffort::BackgroundConfig;
use iba_traffic::{flow_for_connection, RequestGenerator, WorkloadConfig};
use std::collections::VecDeque;

/// `(mtu, seed, delivery digest, deliveries, delivered bytes)` of the
/// seeded sweep below, recorded when the fabric could still run its
/// ports on the interpreted `VlArbEngine` instead of the compiled
/// streams. Both engines produced these same values then.
const INTERPRETED_DIGESTS: [(u32, u64, u64, u64, u64); 3] = [
    (256, 11, 0x0e93_8c9c_1193_475b, 71_921, 18_411_776),
    (1024, 22, 0xfc5c_1c9f_d159_942c, 124_214, 71_977_472),
    (4096, 33, 0x9cca_0b45_b0fb_3574, 336_292, 284_173_312),
];

/// The compiled arbiters must deliver the exact same packets at the
/// exact same times as the interpreted reference engine did over the
/// seeded experiment sweep.
#[test]
fn compiled_matches_interpreted_delivery_digests() {
    for &(mtu, seed, digest, count, bytes) in &INTERPRETED_DIGESTS {
        let exp = build_experiment_sized(mtu, 4, seed, 40);
        let compiled = run_measured(&exp, 3, true, None, &mut NullRecorder);
        assert!(
            compiled.delivery_count > 0,
            "steady state delivered nothing"
        );
        assert_eq!(
            compiled.delivery_count, count,
            "mtu={mtu} seed={seed}: delivery counts diverged"
        );
        assert_eq!(
            compiled.delivery_digest, digest,
            "mtu={mtu} seed={seed}: compiled arbiter changed the delivery stream"
        );
        assert_eq!(
            compiled.stats.delivered_bytes, bytes,
            "mtu={mtu} seed={seed}: delivered byte totals diverged"
        );
    }
}

/// The compiled-arbiter sweep renders byte-identically at 1, 2 and 8
/// worker threads (the recorded-run / `IBA_THREADS` contract).
#[test]
fn compiled_sweep_is_thread_invariant() {
    let points: Vec<SimPoint> = [5u64, 6, 7]
        .iter()
        .map(|&seed| SimPoint {
            switches: 4,
            seed,
            mtu: 1024,
            background: false,
            steady_packets: 3,
            reject_limit: 40,
        })
        .collect();
    let render = |threads: usize| {
        let (outcomes, rec) = run_points(&points, threads, None);
        let lines: Vec<String> = outcomes.iter().map(|o| o.render()).collect();
        // harness_threads records the worker count itself and is the
        // one reading allowed to differ between runs.
        let metrics: Vec<String> = rec
            .metrics
            .snapshot()
            .iter()
            .filter(|s| s.name != "harness_threads")
            .map(|s| format!("{s:?}"))
            .collect();
        (lines, metrics)
    };
    let (one, m1) = render(1);
    let (two, m2) = render(2);
    let (eight, m8) = render(8);
    assert_eq!(one, two, "outcomes differ between 1 and 2 threads");
    assert_eq!(one, eight, "outcomes differ between 1 and 8 threads");
    assert_eq!(m1, m2, "merged metrics differ between 1 and 2 threads");
    assert_eq!(m1, m8, "merged metrics differ between 1 and 8 threads");
}

/// Wired ports whose installed table differs from the manager's.
fn stale_ports(mgr: &QosManager, fabric: &Fabric) -> u64 {
    mgr.output_ports()
        .filter(|&k| fabric.output_table(k.node, k.port) != Some(&mgr.arb_config_for(k)))
        .count() as u64
}

/// Downloads `mgr`'s tables into `fabric` and checks the exact
/// recompile accounting: the download invalidates and compiles exactly
/// the ports whose installed table differs from `arb_config_for`, and
/// leaves every port holding `arb_config_for`. Returns that count.
fn download(mgr: &QosManager, fabric: &mut Fabric, rec: &mut ObsRecorder) -> u64 {
    let changed = stale_ports(mgr, fabric);
    let invalidations = fabric.schedule_invalidations();
    let compiles = fabric.schedule_compiles();
    mgr.apply_tables_observed(fabric, rec);
    assert_eq!(
        fabric.schedule_invalidations() - invalidations,
        changed,
        "invalidations != ports whose table changed"
    );
    assert_eq!(
        fabric.schedule_compiles() - compiles,
        changed,
        "compiles != ports whose table changed"
    );
    assert_eq!(
        stale_ports(mgr, fabric),
        0,
        "a port does not hold the manager's table"
    );
    changed
}

/// Property (100 seeds): through every table mutation path — admit,
/// teardown, repair and in-fabric fault corruption — a download
/// recompiles exactly the ports whose table changed and only restarts
/// the walk on the rest; re-downloading unchanged tables compiles
/// nothing; and the recorder hooks see the same counts as the fabric's
/// own accounting.
#[test]
fn every_mutation_path_invalidates_the_schedule() {
    let (mut admit_recompiles, mut teardown_recompiles, mut healed) = (0, 0, 0);
    for seed in 0..100u64 {
        let exp = build_experiment_sized(256, 2, seed, 10);
        let mut frame = exp.frame;
        let topo = frame.manager.topology().clone();
        let (mut fabric, _obs) = frame.build_fabric(seed, None);
        let ports: u64 = u64::try_from(topo.num_hosts()).unwrap()
            + u64::try_from(topo.num_switches()).unwrap() * u64::from(topo.ports_per_switch());
        // build_fabric compiles every port once, then its download
        // recompiles every port whose table differs from the default.
        assert!(fabric.schedule_compiles() >= ports);
        let base_invalidations = fabric.schedule_invalidations();
        let mut rec = ObsRecorder::new();
        assert_eq!(
            download(&frame.manager, &mut fabric, &mut rec),
            0,
            "seed {seed}: re-downloading unchanged tables recompiled"
        );

        // Admit: the next download recompiles the ports on its path,
        // and a second download with no mutation recompiles nothing.
        let mut gen = RequestGenerator::new(
            &topo,
            frame.manager.sl_table(),
            &WorkloadConfig::new(256, seed ^ 0xBEEF),
        );
        let mut admitted = None;
        for _ in 0..50 {
            let req = gen.next_request();
            if let Ok(id) = frame.manager.request(&req) {
                admitted = Some(id);
                break;
            }
        }
        let admitted = admitted.expect("no admission in 50 attempts");
        // A connection sharing an existing sequence can leave every
        // slot's rounded weight unchanged, so only the exact count
        // (checked inside `download`) holds per seed.
        admit_recompiles += download(&frame.manager, &mut fabric, &mut rec);
        assert_eq!(
            download(&frame.manager, &mut fabric, &mut rec),
            0,
            "seed {seed}: a download with no mutation recompiled"
        );

        // Teardown: the next download recompiles what the release changed.
        assert!(frame.manager.teardown(admitted));
        teardown_recompiles += download(&frame.manager, &mut fabric, &mut rec);

        // Repair: corrupt the manager's tables, repair, re-download.
        // Repair may restore identical tables, so only the exact count
        // (checked inside `download`) holds.
        frame.manager.corrupt_tables(seed);
        let mut recovery = RecoveryManager::new(seed);
        frame.manager.repair_tables(&mut recovery, &mut rec);
        download(&frame.manager, &mut fabric, &mut rec);

        // Fault corruption: an in-fabric CorruptTable event invalidates
        // without any subnet-manager involvement, and the next download
        // reads the damage from the fabric and recompiles that port.
        let key = PortKey {
            node: NodeId::Host(u16::try_from(seed % topo.num_hosts() as u64).unwrap()),
            port: 0,
        };
        let before = fabric.schedule_invalidations();
        fabric.schedule_fault(
            fabric.now(),
            FaultAction::CorruptTable {
                node: key.node,
                port: key.port,
                seed,
            },
        );
        fabric.run_until_recorded(fabric.now() + 1, &mut NullObserver, &mut rec);
        assert_eq!(
            fabric.schedule_invalidations(),
            before + 1,
            "seed {seed}: fault corruption did not invalidate exactly once"
        );
        let damaged =
            fabric.output_table(key.node, key.port) != Some(&frame.manager.arb_config_for(key));
        assert_eq!(
            download(&frame.manager, &mut fabric, &mut rec),
            u64::from(damaged),
            "seed {seed}: the download must recompile the corrupted port and nothing else"
        );
        healed += u64::from(damaged);

        // Invalidations always pair with recompiles past the initial
        // setup, and the recorder saw every one performed under it.
        assert_eq!(
            fabric.schedule_compiles(),
            ports + fabric.schedule_invalidations(),
            "seed {seed}: compiles != initial ports + invalidations"
        );
        let observed = fabric.schedule_invalidations() - base_invalidations;
        assert_eq!(
            rec.metrics.schedule_invalidations.get(),
            observed,
            "seed {seed}: recorder missed invalidations"
        );
        assert_eq!(
            rec.metrics.schedule_compiles.get(),
            observed,
            "seed {seed}: recorder hook compiles must pair with invalidations"
        );
    }
    assert!(
        admit_recompiles > 0 && teardown_recompiles > 0,
        "no admit or teardown ever changed a table"
    );
    assert!(
        healed >= 90,
        "only {healed} of 100 fault corruptions changed a table"
    );
}

/// Logs every delivery, then hands it to the QoS observer.
struct Deliveries<'a> {
    obs: &'a mut QosObserver,
    log: &'a mut Vec<(u32, u64, u64, u64)>,
}

impl Observer for Deliveries<'_> {
    fn on_delivered(&mut self, r: &DeliveryRecord) {
        self.log.push((r.flow, r.seq, r.created, r.delivered));
        self.obs.on_delivered(r);
    }

    fn on_generated(&mut self, flow: u32, bytes: u32, now: u64) {
        self.obs.on_generated(flow, bytes, now);
    }
}

/// What one churn run delivered.
struct ChurnOutcome {
    /// `(flow, seq, created, delivered)` of every delivery, in order.
    deliveries: Vec<(u32, u64, u64, u64)>,
    qos_packets: u64,
    missed: u64,
    admitted: u64,
    departed: u64,
    compiles: u64,
}

/// A `ChurnRunner`-style scenario on a 4-switch fabric with best-effort
/// background: an arrival every 20k cycles, from half-time a departure
/// of the oldest connection after each arrival, one in-fabric table
/// corruption and one corrupt-and-repair round in the manager, with
/// `download` pushing the tables after every mutation. At the end every
/// live connection is torn down and every table must be empty.
fn churn_run(download: fn(&QosManager, &mut Fabric)) -> ChurnOutcome {
    const ARRIVALS: u64 = 60;
    const INTERVAL: u64 = 20_000;
    let topo = generate(IrregularConfig::with_switches(4, 9));
    let routing = updown::compute(&topo);
    let mut frame = QosFrame::new(
        topo.clone(),
        routing,
        SlTable::paper_table1(),
        SimConfig::paper_default(256),
    );
    let (mut fabric, mut obs) = frame.build_fabric(9, Some(&BackgroundConfig::default()));
    let mut gen = RequestGenerator::new(
        &topo,
        frame.manager.sl_table(),
        &WorkloadConfig::new(256, 0xD1F),
    );
    let mut log = Vec::new();
    let mut live = VecDeque::new();
    let (mut admitted, mut departed) = (0, 0);
    for k in 0..ARRIVALS {
        let at = k * INTERVAL;
        fabric.run_until(
            at,
            &mut Deliveries {
                obs: &mut obs,
                log: &mut log,
            },
        );
        let request = gen.next_request();
        if let Ok(id) = frame.manager.request(&request) {
            let conn = frame.manager.connection(id).expect("admitted");
            obs.register(
                request.id,
                request.sl.raw(),
                conn.deadline,
                conn.interarrival,
            );
            let mut flow = flow_for_connection(&request, 0);
            flow.start = at + (u64::from(request.id) * 97) % conn.interarrival.max(1);
            download(&frame.manager, &mut fabric);
            fabric.add_flow(flow);
            live.push_back((id, request.id));
            admitted += 1;
        }
        if k == ARRIVALS / 4 {
            // Damage a busy switch port behind the manager's back; the
            // next download must notice it in the fabric.
            if let Some(&(id, _)) = live.front() {
                let hop = &frame.manager.connection(id).expect("live").hops[1];
                let action = FaultAction::CorruptTable {
                    node: hop.node,
                    port: hop.port,
                    seed: k,
                };
                fabric.schedule_fault(at, action);
            }
        }
        if k == ARRIVALS * 3 / 4 {
            frame.manager.corrupt_tables(k);
            frame
                .manager
                .repair_tables(&mut RecoveryManager::new(k), &mut NullRecorder);
            // A connection the repair lost stops sending.
            live.retain(|&(id, flow)| {
                let kept = frame.manager.connection(id).is_some();
                if !kept {
                    fabric.stop_flow(flow, at);
                }
                kept
            });
            download(&frame.manager, &mut fabric);
        }
        if k >= ARRIVALS / 2 {
            let depart = at + INTERVAL / 2;
            fabric.run_until(
                depart,
                &mut Deliveries {
                    obs: &mut obs,
                    log: &mut log,
                },
            );
            if let Some((id, flow)) = live.pop_front() {
                fabric.stop_flow(flow, depart);
                assert!(frame.manager.teardown(id));
                download(&frame.manager, &mut fabric);
                departed += 1;
            }
        }
    }
    fabric.run_until(
        ARRIVALS * INTERVAL + 2_000_000,
        &mut Deliveries {
            obs: &mut obs,
            log: &mut log,
        },
    );
    // The drain oracle: tearing down what is still live, the connections
    // the repair rebound included, empties every table.
    for (id, _) in live {
        assert!(frame.manager.teardown(id), "a live connection tears down");
    }
    let kept = frame
        .manager
        .port_tables()
        .tables()
        .find(|(_, t)| t.occupancy() != 0 || t.reserved_weight() != 0);
    assert!(
        kept.is_none(),
        "{kept:?} holds a reservation after the drain"
    );
    ChurnOutcome {
        deliveries: log,
        qos_packets: obs.qos_packets,
        missed: obs.delay_by_sl.groups().map(|(_, d)| d.missed()).sum(),
        admitted,
        departed,
        compiles: fabric.schedule_compiles(),
    }
}

/// The reference a download must match: every wired port recompiled
/// from the manager's table, changed or not.
fn full_download(mgr: &QosManager, fabric: &mut Fabric) {
    for key in mgr.output_ports() {
        fabric.set_output_table(key.node, key.port, mgr.arb_config_for(key));
    }
}

/// The incremental download skips recompiling unchanged ports but must
/// deliver exactly what a full recompile of every port delivers — same
/// packets at the same times, same QoS counts.
#[test]
fn incremental_download_matches_full_download() {
    let incremental = churn_run(QosManager::apply_tables);
    let full = churn_run(full_download);
    assert!(
        incremental.admitted > 0 && incremental.departed > 0,
        "the scenario did not churn"
    );
    assert!(incremental.qos_packets > 0, "no QoS packet delivered");
    assert_eq!(
        incremental.deliveries.len(),
        full.deliveries.len(),
        "delivery counts diverged"
    );
    assert!(
        incremental.deliveries == full.deliveries,
        "the incremental download changed the delivery stream"
    );
    assert_eq!(
        (incremental.qos_packets, incremental.missed),
        (full.qos_packets, full.missed),
        "QoS delivered/missed counts diverged"
    );
    assert!(
        incremental.compiles < full.compiles,
        "the incremental download skipped no recompile"
    );
}
