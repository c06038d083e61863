//! **Sweep S3** — all four IBA MTUs.
//!
//! The paper reports "small" and "large" packets; IBA defines four data
//! MTUs (256 B, 1 KB, 2 KB, 4 KB). This sweep runs the full pipeline at
//! each, confirming the guarantees are MTU-independent while the delay
//! headroom shrinks as packets grow.

#![forbid(unsafe_code)]

use iba_bench::{point_from_env, rate, SimPoint};
use iba_obs::NullRecorder;
use iba_stats::Table;

fn main() {
    let mut t = Table::new(
        "Sweep S3: the proposal across IBA MTUs",
        &[
            "MTU (B)",
            "Connections",
            "Delivered QoS (B/cyc/node)",
            "QoS util host (%)",
            "QoS util switch (%)",
            "Worst delay/D",
            "Deadline misses",
        ],
    );
    for mtu in [256u32, 1024, 2048, 4096] {
        eprintln!("== MTU {mtu} ==");
        // A lighter steady state: four full runs on one core.
        let (exp, m) = point_from_env(SimPoint {
            steady_packets: 10,
            ..SimPoint::paper(mtu, 42)
        })
        .run(&mut NullRecorder);
        let delivered = m.obs.qos_bytes as f64 / m.window as f64 / m.hosts as f64;
        let misses: u64 = m.obs.delay_by_sl.groups().map(|(_, d)| d.missed()).sum();
        let worst = m
            .obs
            .delay_by_sl
            .groups()
            .map(|(_, d)| d.max_ratio())
            .fold(0.0f64, f64::max);
        t.row(vec![
            mtu.to_string(),
            exp.fill.accepted.to_string(),
            rate(delivered),
            format!("{:.2}", m.stats.host_link_qos_utilization),
            format!("{:.2}", m.stats.switch_link_qos_utilization),
            format!("{worst:.3}"),
            format!("{misses} / {}", m.obs.qos_packets),
        ]);
    }
    println!("{}", t.render());
}
