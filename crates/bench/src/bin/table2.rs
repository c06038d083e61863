//! **Table 2** — Traffic and utilization for different packet sizes.
//!
//! Regenerates the paper's Table 2: injected and delivered traffic
//! (bytes/cycle/node), average utilization (%) and average bandwidth
//! reservation (Mbps) for host interfaces and switch ports, for small
//! (256 B) and large (4 KB) packets.
//!
//! The two packet sizes are independent runs, so they execute on the
//! parallel harness (`IBA_THREADS` workers); the merged output is
//! identical at any thread count.

#![forbid(unsafe_code)]

use iba_bench::{pct, point_from_env, rate, SimPoint};
use iba_harness::{run_sweep, threads_from_env};
use iba_obs::{NullRecorder, ObsRecorder};
use iba_stats::Table;

fn main() {
    let mut t = Table::new(
        "Table 2. Traffic and utilization for different packet sizes.",
        &["Packet size", "Small", "Large"],
    );

    let threads = threads_from_env();
    let mtus = [256u32, 4096];
    let started = std::time::Instant::now();
    let (cols, _) = run_sweep(&mtus, threads, ObsRecorder::new, |_, &mtu, _| {
        let p = point_from_env(SimPoint {
            background: true,
            ..SimPoint::paper(mtu, 42)
        });
        let (exp, m) = p.run(&mut NullRecorder);
        let mut log = format!(
            "== MTU {mtu} ==\n   fill: {} accepted / {} attempted, offered {:.3} bytes/cycle total\n",
            exp.fill.accepted, exp.fill.attempted, exp.fill.offered_load
        );
        let (host_res, switch_res) = exp.frame.manager.reservation_summary();
        // The paper accounts QoS traffic only: its "maximum utilization
        // reachable is 80%, because the other 20% is reserved for BE and
        // CH traffic".
        let injected = m.obs.qos_generated_bytes as f64 / m.window as f64 / m.hosts as f64;
        let delivered = m.obs.qos_bytes as f64 / m.window as f64 / m.hosts as f64;
        let col = vec![
            rate(injected),
            rate(delivered),
            pct(m.stats.host_link_qos_utilization),
            pct(m.stats.switch_link_qos_utilization),
            format!("{host_res:.1}"),
            format!("{switch_res:.1}"),
        ];
        log.push_str(&format!(
            "   steady window {} cycles, {} QoS packets, {} BE packets\n",
            m.window, m.obs.qos_packets, m.obs.be_packets
        ));
        log.push_str(&format!(
            "   incl. best-effort: injected {} delivered {} B/cyc/node; total util host {:.2}% switch {:.2}%",
            rate(m.stats.injected_per_node(m.hosts)),
            rate(m.stats.delivered_per_node(m.hosts)),
            m.stats.host_link_utilization,
            m.stats.switch_link_utilization
        ));
        (col, log)
    });
    let wall = started.elapsed();
    for (_, log) in &cols {
        eprintln!("{log}");
    }
    eprintln!(
        "== sweep: {} points on {threads} thread(s) in {:.2}s ==",
        mtus.len(),
        wall.as_secs_f64()
    );

    let rows = [
        "Injected traffic (Bytes/Cycle/Node)",
        "Delivered traffic (Bytes/Cycle/Node)",
        "Av. utilization for host interfaces (%)",
        "Av. utilization for switch ports (%)",
        "Av. reservation for host interfaces (Mbps)",
        "Av. reservation for switch ports (Mbps)",
    ];
    for (i, label) in rows.iter().enumerate() {
        t.row(vec![
            label.to_string(),
            cols[0].0[i].clone(),
            cols[1].0[i].clone(),
        ]);
    }
    println!("{}", t.render());
}
