//! Same-bytes pin of the host injection lanes.
//!
//! A small fabric whose host lanes exercise every way a backlog forms:
//! two CBR flows interleaved on one VL of one host, a pattern-driven
//! flow, a flow cut by `stop_flow` while its lane is backed up, and one
//! source offered well above link rate so its lane grows by thousands
//! of packets. The FNV-1a digest of every delivery record (all eight
//! fields, in delivery order) and the event count are pinned: a change
//! to how hosts hold their queued packets must deliver the same bytes
//! at the same times.

use iba_core::ServiceLevel;
use iba_sim::trace::VecObserver;
use iba_sim::{Arrival, Cycles, DeliveryRecord, Fabric, FlowSpec, SimConfig};
use iba_topo::{updown, HostId, SwitchId, Topology};

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn digest(records: &[DeliveryRecord]) -> u64 {
    records.iter().fold(0xcbf2_9ce4_8422_2325, |h, r| {
        let h = fnv1a(h, &r.flow.to_le_bytes());
        let h = fnv1a(h, &r.seq.to_le_bytes());
        let h = fnv1a(h, &r.src.0.to_le_bytes());
        let h = fnv1a(h, &r.dst.0.to_le_bytes());
        let h = fnv1a(h, &[r.sl.raw()]);
        let h = fnv1a(h, &r.bytes.to_le_bytes());
        let h = fnv1a(h, &r.created.to_le_bytes());
        fnv1a(h, &r.delivered.to_le_bytes())
    })
}

fn flow(id: u32, src: u16, dst: u16, sl: u8, bytes: u32, arrival: Arrival) -> FlowSpec {
    FlowSpec {
        id,
        src: HostId(src),
        dst: HostId(dst),
        sl: ServiceLevel::new(sl).unwrap(),
        packet_bytes: bytes,
        arrival,
        start: 0,
        stop: None,
    }
}

/// Hosts 0 and 1 on switch 0, host 2 on switch 1, with 26-byte headers.
fn mixed_fabric() -> Fabric {
    let mut t = Topology::new(2, 4);
    t.connect_switches(SwitchId(0), 1, SwitchId(1), 1);
    t.attach_host(SwitchId(0), 0);
    t.attach_host(SwitchId(0), 2);
    t.attach_host(SwitchId(1), 0);
    let r = updown::compute(&t);
    let mut f = Fabric::new(t, r, SimConfig::with_headers(256));
    let cbr = |interval: Cycles| Arrival::Cbr { interval };
    // Above link rate: 282 wire bytes every 150 cycles.
    f.add_flow(flow(10, 0, 2, 3, 256, cbr(150)));
    // Same host, same VL, slower and out of phase: interleaved runs.
    f.add_flow(FlowSpec {
        start: 37,
        ..flow(11, 0, 1, 3, 256, cbr(1_000))
    });
    f.add_flow(flow(
        12,
        1,
        2,
        5,
        128,
        Arrival::Pattern {
            intervals: vec![100, 700, 300, 2_000],
        },
    ));
    // Shares host 0's uplink on another VL; cut while backed up.
    f.add_flow(FlowSpec {
        start: 11,
        ..flow(13, 0, 2, 7, 200, cbr(300))
    });
    f
}

#[test]
fn mixed_host_backlog_delivers_pinned_bytes() {
    let mut f = mixed_fabric();
    let mut obs = VecObserver::default();
    f.run_until(300_000, &mut obs);
    assert!(
        f.host_backlog(HostId(0)) > 1_000 * 282,
        "host 0 backlog {} bytes",
        f.host_backlog(HostId(0))
    );
    assert_eq!(f.stop_flow(13, 350_000), 1);
    f.run_until(2_000_000, &mut obs);
    assert!(f.host_backlog(HostId(0)) > 4_000 * 282);
    for id in 10..=13 {
        assert!(obs.records.iter().any(|r| r.flow == id), "flow {id}");
    }
    let flow_13 = obs.records.iter().filter(|r| r.flow == 13).count() as u64;
    assert_eq!(flow_13, (350_000 - 11) / 300 + 1, "flow 13 drained");
    assert_eq!(
        (
            obs.records.len(),
            digest(&obs.records),
            f.events_processed()
        ),
        (9_192, 0xb936_1b1c_86ac_facb, 45_956)
    );
}
