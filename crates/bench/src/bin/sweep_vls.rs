//! **Sweep S2** — fewer virtual lanes (§3.2 of the paper).
//!
//! When a port implements fewer than 16 VLs, several SLs must share a
//! VL and the manager "enforces more restrictive requirements" — every
//! connection in a shared lane is reserved at the most restrictive
//! distance among the SLs mapped there. This sweep shows the trade-off:
//! fewer lanes ⇒ stricter (more entry-hungry) reservations ⇒ fewer
//! admitted connections, while the guarantees continue to hold.

#![forbid(unsafe_code)]

use iba_bench::{point_from_env, SimPoint};
use iba_core::{SlTable, SlToVlMap};
use iba_qos::QosFrame;
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
        "Sweep S2: SLs sharing VLs on ports with fewer lanes (small packets)",
        &[
            "QoS VLs",
            "Data VLs used",
            "Connections",
            "Offered (B/cyc total)",
            "QoS packets",
            "Deadline misses",
        ],
    );

    for n_qos in [10u8, 6, 4, 2] {
        eprintln!("== {n_qos} QoS lanes ==");
        let map = if n_qos == 10 {
            SlToVlMap::identity()
        } else {
            SlToVlMap::collapsed_qos(n_qos)
        };
        let mut config = SimConfig::paper_default(256);
        config.sl_to_vl = map;
        let mut frame = QosFrame::new(topo.clone(), routing.clone(), sl_table.clone(), config);

        let mut gen =
            RequestGenerator::new(&topo, &sl_table, &WorkloadConfig::new(256, p.seed ^ 0xF00D));
        let fill = frame.fill(&mut gen, 120, 100_000);

        let (mut fabric, mut obs) = frame.build_fabric(p.seed, None);
        let transient = frame.steady_state_cycles(2);
        fabric.run_until(transient, &mut obs);
        obs.reset_samples();
        fabric.run_until(
            transient + frame.steady_state_cycles(p.steady_packets),
            &mut obs,
        );

        let misses: u64 = obs.delay_by_sl.groups().map(|(_, d)| d.missed()).sum();
        t.row(vec![
            n_qos.to_string(),
            if n_qos == 10 { 13 } else { n_qos + 3 }.to_string(),
            fill.accepted.to_string(),
            format!("{:.2}", fill.offered_load),
            obs.qos_packets.to_string(),
            misses.to_string(),
        ]);
    }
    println!("{}", t.render());
    println!(
        "Fewer lanes force stricter shared reservations (more table entries per\n\
         connection), so fewer connections fit — but every admitted one still\n\
         meets its deadline."
    );
}
