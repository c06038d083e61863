//! **Sweep S4** — link rates 1x / 4x / 12x.
//!
//! The paper: "only results for the link rate of 2.5 Gbps will be
//! shown" — implying the other IBA rates were also evaluated. This
//! sweep runs the pipeline at 1x (2.5 Gbps), 4x (10 Gbps) and 12x
//! (30 Gbps). Faster links admit proportionally more bandwidth at the
//! same table weights and drain entries faster, so the (conservative,
//! 1x-derived) deadlines hold with growing headroom.

#![forbid(unsafe_code)]

use iba_bench::{point_from_env, SimPoint};
use iba_core::SlTable;
use iba_qos::QosFrame;
use iba_sim::{SimConfig, LINK_1X_MBPS};
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
        "Sweep S4: link rates (small packets)",
        &[
            "Rate",
            "Link (Mbps)",
            "Connections",
            "Offered (B/cyc total)",
            "Worst delay/D",
            "Deadline misses",
        ],
    );

    for (name, bytes_per_cycle) in [("1x", 1u64), ("4x", 4), ("12x", 12)] {
        eprintln!("== {name} ==");
        let link_mbps = LINK_1X_MBPS * bytes_per_cycle as f64;
        let mut config = SimConfig::paper_default(256);
        config.link_bytes_per_cycle = bytes_per_cycle;
        let mut frame = QosFrame::new(topo.clone(), routing.clone(), sl_table.clone(), config);

        let mut gen =
            RequestGenerator::new(&topo, &sl_table, &WorkloadConfig::new(256, p.seed ^ 0xF00D));
        let fill = frame.fill(&mut gen, 120, 200_000);

        let (mut fabric, mut obs) = frame.build_fabric(p.seed, None);
        let transient = frame.steady_state_cycles(2);
        fabric.run_until(transient, &mut obs);
        obs.reset_samples();
        fabric.run_until(
            transient + frame.steady_state_cycles(p.steady_packets),
            &mut obs,
        );

        let misses: u64 = obs.delay_by_sl.groups().map(|(_, d)| d.missed()).sum();
        let worst = obs
            .delay_by_sl
            .groups()
            .map(|(_, d)| d.max_ratio())
            .fold(0.0f64, f64::max);
        t.row(vec![
            name.to_string(),
            format!("{link_mbps:.0}"),
            fill.accepted.to_string(),
            format!("{:.2}", fill.offered_load),
            format!("{worst:.3}"),
            format!("{misses} / {}", obs.qos_packets),
        ]);
    }
    println!("{}", t.render());
}
