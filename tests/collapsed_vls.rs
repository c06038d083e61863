//! §3.2 of the paper: when ports implement fewer than 16 VLs, several
//! SLs share a VL and admission enforces the most restrictive distance
//! of the sharing set. These tests pin that behaviour end to end.

use infiniband_qos::core::{Distance, SlToVlMap};
use infiniband_qos::prelude::*;

fn build(n_qos_vls: Option<u8>, seed: u64) -> QosFrame {
    let topo = generate(IrregularConfig::with_switches(4, seed));
    let routing = compute_routing(&topo);
    let mut config = SimConfig::paper_default(256);
    if let Some(n) = n_qos_vls {
        config.sl_to_vl = SlToVlMap::collapsed_qos(n);
    }
    QosFrame::new(topo, routing, SlTable::paper_table1(), config)
}

#[test]
fn effective_distance_tightens_in_shared_lanes() {
    let frame = build(Some(2), 3);
    let m = &frame.manager;
    // With 2 QoS lanes, SLs 0,2,4,6,8 share VL0 and 1,3,5,7,9 share VL1.
    // VL0's tightest SL is SL0 (d=2); VL1's is SL1 (d=4).
    for sl in [0u8, 2, 4, 6, 8] {
        assert_eq!(
            m.effective_distance(ServiceLevel::new(sl).unwrap()),
            Some(Distance::D2),
            "SL{sl}"
        );
    }
    for sl in [1u8, 3, 5, 7, 9] {
        assert_eq!(
            m.effective_distance(ServiceLevel::new(sl).unwrap()),
            Some(Distance::D4),
            "SL{sl}"
        );
    }
    // Identity mapping leaves distances alone.
    let frame = build(None, 3);
    assert_eq!(
        frame
            .manager
            .effective_distance(ServiceLevel::new(9).unwrap()),
        Some(Distance::D64)
    );
}

#[test]
fn fewer_lanes_admit_fewer_connections() {
    let count = |n: Option<u8>| {
        let mut frame = build(n, 5);
        let topo = frame.manager.topology().clone();
        let mut gen = RequestGenerator::new(
            &topo,
            &SlTable::paper_table1(),
            &WorkloadConfig::new(256, 77),
        );
        frame.fill(&mut gen, 40, 4000).accepted
    };
    let full = count(None);
    let four = count(Some(4));
    let two = count(Some(2));
    assert!(full > four, "16 lanes: {full}, 7 lanes: {four}");
    assert!(four > two, "7 lanes: {four}, 5 lanes: {two}");
    assert!(two > 0);
}

#[test]
fn shared_lane_guarantees_still_hold() {
    let mut frame = build(Some(4), 8);
    let topo = frame.manager.topology().clone();
    let mut gen = RequestGenerator::new(
        &topo,
        &SlTable::paper_table1(),
        &WorkloadConfig::new(256, 9),
    );
    let report = frame.fill(&mut gen, 30, 1500);
    assert!(report.accepted > 10, "only {}", report.accepted);

    let (mut fabric, mut obs) = frame.build_fabric(2, Some(&BackgroundConfig::default()));
    fabric.run_until(2_000_000, &mut obs);
    obs.reset_samples();
    fabric.run_until(8_000_000, &mut obs);
    assert!(obs.qos_packets > 500);
    for (sl, d) in obs.delay_by_sl.groups() {
        assert_eq!(
            d.missed(),
            0,
            "SL{sl} missed {} deadlines in a shared lane",
            d.missed()
        );
    }
    // Best effort still flows on its dedicated lanes.
    assert!(obs.be_packets > 0);
}

#[test]
fn be_lanes_never_collide_with_qos_lanes() {
    for n in [1u8, 2, 4, 8, 12] {
        let map = SlToVlMap::collapsed_qos(n);
        let qos: Vec<u8> = (0..10)
            .map(|i| map.vl(ServiceLevel::new(i).unwrap()).raw())
            .collect();
        for be in [10u8, 11, 12] {
            let v = map.vl(ServiceLevel::new(be).unwrap()).raw();
            assert!(!qos.contains(&v), "n={n}: SL{be} on QoS lane VL{v}");
        }
    }
}
