//! Delivery digests pinned for the simulator modes the golden fixtures
//! do not exercise: priority-aware input claiming, alone and under a
//! hand-built port-fault plan (VL blackout, credit stall, link down/up,
//! table corruption).
//!
//! Each run folds every delivery, in order, into an FNV-1a digest. A
//! change to the crossbar candidate scan, the input-claiming rule or
//! the fault gating that moves a single packet by a single cycle
//! changes the digest. The constants were recorded with a candidate
//! scan over every input and occupied lane, the reference the
//! routed-head index must reproduce; never regenerate them to make a
//! scan change pass.

use infiniband_qos::prelude::*;
use infiniband_qos::sim::{DeliveryRecord, FaultAction, FaultPlan, Observer};
use infiniband_qos::topo::PortPeer;
use infiniband_qos::traffic::hotspot::permutation_flows;

/// Claiming alone: `(digest, deliveries)`.
const CLAIMING: (u64, u64) = (0x3eed_e360_45c8_4338, 85_296);
/// Claiming under [`fault_plan`]: `(digest, deliveries)`.
const CLAIMING_FAULTED: (u64, u64) = (0xd99e_6fb8_c10c_5e73, 75_139);

const HORIZON: u64 = 2_000_000;

struct Digest {
    hash: u64,
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
            self.hash = (self.hash ^ v).wrapping_mul(0x0000_0100_0000_01b3);
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
        hash: 0xcbf2_9ce4_8422_2325,
        count: 0,
    };
    fabric.run_until(HORIZON, &mut digest);
    (digest.hash, digest.count)
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
