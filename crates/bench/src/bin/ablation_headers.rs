//! **Ablation A3** — explicit IBA header overhead (LRH+BTH+CRCs,
//! 26 bytes/packet).
//!
//! The paper explains its Table 2 small-vs-large difference as header
//! overhead: "the overhead introduced by packet headers is more
//! important for small packet size and more packets must be
//! transmitted." This run enables explicit headers and reports wire
//! throughput vs goodput per MTU, reproducing that effect: small
//! packets put more total bytes on the wire for the same goodput.

#![forbid(unsafe_code)]

use iba_bench::{point_from_env, SimPoint};
use iba_core::SlTable;
use iba_qos::{QosFrame, QosManager};
use iba_sim::config::IBA_HEADER_BYTES;
use iba_sim::SimConfig;
use iba_stats::Table;
use iba_topo::irregular::{generate, IrregularConfig};
use iba_topo::updown;
use iba_traffic::{RequestGenerator, WorkloadConfig};

fn main() {
    let p = point_from_env(SimPoint {
        steady_packets: 10,
        ..SimPoint::paper(256, 42)
    });
    let topo = generate(IrregularConfig::with_switches(p.switches, p.seed));
    let routing = updown::compute(&topo);
    let sl_table = SlTable::paper_table1();

    let mut t = Table::new(
        &format!("Ablation A3: explicit {IBA_HEADER_BYTES}-byte packet headers (wire vs goodput)"),
        &[
            "MTU (B)",
            "Header overhead (%)",
            "Wire delivered (B/cyc/node)",
            "Goodput (B/cyc/node)",
            "Deadline misses",
        ],
    );

    for mtu in [256u32, 4096] {
        eprintln!("== MTU {mtu}, headers on ==");
        let config = SimConfig::with_headers(mtu);
        let mut manager = QosManager::new(topo.clone(), routing.clone(), sl_table.clone());
        manager.set_header_bytes(IBA_HEADER_BYTES);
        let mut frame = QosFrame::with_manager(manager, config);
        let mut gen =
            RequestGenerator::new(&topo, &sl_table, &WorkloadConfig::new(mtu, p.seed ^ 0xF00D));
        frame.fill(&mut gen, 120, 100_000);

        let (mut fabric, mut obs) = frame.build_fabric(p.seed, None);
        let transient = frame.steady_state_cycles(2);
        fabric.run_until(transient, &mut obs);
        obs.reset_samples();
        fabric.run_until(
            transient + frame.steady_state_cycles(p.steady_packets),
            &mut obs,
        );

        let hosts = topo.num_hosts() as f64;
        let window = frame.steady_state_cycles(p.steady_packets) as f64;
        let wire = obs.qos_bytes as f64 / window / hosts;
        // Goodput: wire bytes minus per-packet headers.
        let goodput =
            (obs.qos_bytes - obs.qos_packets * u64::from(IBA_HEADER_BYTES)) as f64 / window / hosts;
        let misses: u64 = obs.delay_by_sl.groups().map(|(_, d)| d.missed()).sum();
        t.row(vec![
            mtu.to_string(),
            format!(
                "{:.2}",
                100.0 * f64::from(IBA_HEADER_BYTES) / f64::from(mtu + IBA_HEADER_BYTES)
            ),
            format!("{wire:.4}"),
            format!("{goodput:.4}"),
            format!("{misses} / {}", obs.qos_packets),
        ]);
    }
    println!("{}", t.render());
    println!(
        "For the same reserved goodput, small packets put ~{:.0}% more bytes on\n\
         the wire — the paper's 'slightly higher throughput' for small packets.",
        100.0 * f64::from(IBA_HEADER_BYTES) / 256.0
    );
}
