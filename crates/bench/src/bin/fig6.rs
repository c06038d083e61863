//! **Figure 6** — The best and the worst connection for the SLs with
//! the strictest latency requirements (SLs 0–3, small packets).
//!
//! For each of those SLs, selects the connections that delivered the
//! lowest and the highest percentage of packets before the tight
//! threshold (D/30) and prints both delay CDFs.

#![forbid(unsafe_code)]

use iba_bench::{point_from_env, threshold_label, SimPoint};
use iba_obs::NullRecorder;
use iba_stats::Table;

fn main() {
    let (exp, m) = point_from_env(SimPoint::paper(256, 42)).run(&mut NullRecorder);
    let by_conn = m.obs.delay_by_conn();

    let thresholds = iba_stats::DEFAULT_THRESHOLDS;
    for sl in 0u8..4 {
        // Connections of this SL.
        let conns: Vec<u32> = exp
            .frame
            .manager
            .connections()
            .filter(|(_, c)| c.request.sl.raw() == sl)
            .map(|(_, c)| c.request.id)
            .collect();
        if conns.is_empty() {
            println!("SL {sl}: no connections admitted\n");
            continue;
        }
        // Rank by % before the tightest threshold.
        let pct_at = |flow: u32, idx: usize| -> Option<f64> {
            by_conn.group(flow as usize).map(|d| d.percentages()[idx])
        };
        let mut ranked: Vec<(u32, f64)> = conns
            .iter()
            .filter_map(|&f| pct_at(f, 0).map(|p| (f, p)))
            .collect();
        if ranked.is_empty() {
            println!("SL {sl}: no packets measured\n");
            continue;
        }
        ranked.sort_by(|a, b| a.1.total_cmp(&b.1));
        let worst = ranked.first().unwrap().0;
        let best = ranked.last().unwrap().0;

        let mut header: Vec<String> = vec!["Connection".to_string()];
        header.extend(thresholds.iter().map(|t| threshold_label(*t)));
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        let mut t = Table::new(
            &format!("Figure 6, SL {sl}: % of packets received before threshold"),
            &header_refs,
        );
        for (label, flow) in [("The Best", best), ("The Worst", worst)] {
            let d = by_conn.group(flow as usize).unwrap();
            let mut row = vec![format!("{label} (conn {flow})")];
            row.extend(d.percentages().iter().map(|p| format!("{p:.2}")));
            t.row(row);
        }
        println!("{}", t.render());
        let worst_d = by_conn.group(worst as usize).unwrap();
        println!(
            "  worst connection still meets deadline: {} misses, max delay/D = {:.3}\n",
            worst_d.missed(),
            worst_d.max_ratio()
        );
    }
}
