//! **Sweep S1** — network sizes 8 to 64 switches.
//!
//! The paper: "We have evaluated networks with sizes ranging from 8 to
//! 64 switches (with 32 to 256 hosts, respectively), and, for all
//! cases, the results are similar." This sweep verifies the claim:
//! every size fills to a comparable per-node load and misses no
//! deadline.
//!
//! The four sizes run on the parallel harness (`IBA_THREADS` workers);
//! rows come back in size order regardless of thread count.

#![forbid(unsafe_code)]

use iba_bench::{point_from_env, rate, SimPoint};
use iba_harness::{run_sweep, threads_from_env};
use iba_obs::{NullRecorder, ObsRecorder};
use iba_stats::Table;

fn main() {
    let p = point_from_env(SimPoint::paper(256, 42));
    let mut t = Table::new(
        "Sweep S1: the proposal across network sizes (small packets)",
        &[
            "Switches",
            "Hosts",
            "Connections",
            "Delivered (B/cyc/node)",
            "Host util (%)",
            "Switch util (%)",
            "Deadline misses",
        ],
    );
    let sizes = [8usize, 16, 32, 64];
    let threads = threads_from_env();
    let started = std::time::Instant::now();
    let (rows, _) = run_sweep(&sizes, threads, ObsRecorder::new, |_, &switches, _| {
        let (exp, m) = SimPoint { switches, ..p }.run(&mut NullRecorder);
        let misses: u64 = m.obs.delay_by_sl.groups().map(|(_, d)| d.missed()).sum();
        vec![
            switches.to_string(),
            (switches * 4).to_string(),
            exp.fill.accepted.to_string(),
            rate(m.stats.delivered_per_node(m.hosts)),
            format!("{:.2}", m.stats.host_link_utilization),
            format!("{:.2}", m.stats.switch_link_utilization),
            format!("{misses} / {}", m.obs.qos_packets),
        ]
    });
    eprintln!(
        "== sweep: {} sizes on {threads} thread(s) in {:.2}s ==",
        sizes.len(),
        started.elapsed().as_secs_f64()
    );
    for row in rows {
        t.row(row);
    }
    println!("{}", t.render());
}
