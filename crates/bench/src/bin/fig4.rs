//! **Figure 4** — Distribution of packet delay for (a) small and (b)
//! large packet size.
//!
//! For every SL, the percentage of packets received before a threshold,
//! where thresholds are fractions of each connection's own guaranteed
//! deadline D (from D/30 up to D).

#![forbid(unsafe_code)]

use iba_bench::{point_from_env, threshold_label, SimPoint};
use iba_obs::NullRecorder;
use iba_stats::Table;

fn main() {
    for (fig, mtu) in [
        ("(a) small packets (256B)", 256u32),
        ("(b) large packets (4KB)", 4096),
    ] {
        eprintln!("== Figure 4 {fig} ==");
        let (_, m) = point_from_env(SimPoint::paper(mtu, 42)).run(&mut NullRecorder);

        let thresholds = iba_stats::DEFAULT_THRESHOLDS;
        let mut header: Vec<String> = vec!["SL".to_string()];
        header.extend(thresholds.iter().map(|t| threshold_label(*t)));
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        let mut t = Table::new(
            &format!("Figure 4{fig}: % of packets received before threshold"),
            &header_refs,
        );
        for (sl, dist) in m.obs.delay_by_sl.groups() {
            let mut row = vec![format!("SL {sl}")];
            row.extend(dist.percentages().iter().map(|p| format!("{p:.2}")));
            t.row(row);
        }
        println!("{}", t.render());

        // The paper's claim: everything arrives by the deadline.
        let misses: u64 = m.obs.delay_by_sl.groups().map(|(_, d)| d.missed()).sum();
        println!(
            "deadline misses: {misses} of {} packets\n",
            m.obs.qos_packets
        );
    }
}
