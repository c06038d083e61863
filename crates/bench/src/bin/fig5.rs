//! **Figure 5** — Average packet jitter for small packet size,
//! (a) SLs 0–4 and (b) SLs 5–9.
//!
//! Per SL, the percentage of packets received within each interarrival
//! interval (deviation from the nominal IAT in fractions of the IAT).

#![forbid(unsafe_code)]

use iba_bench::{point_from_env, SimPoint};
use iba_obs::NullRecorder;
use iba_stats::{Table, JITTER_BIN_LABELS};

fn main() {
    let (_, m) = point_from_env(SimPoint::paper(256, 42)).run(&mut NullRecorder);

    for (fig, sls) in [("(a)", 0usize..5), ("(b)", 5..10)] {
        let mut header: Vec<String> = vec!["Interval".to_string()];
        header.extend(sls.clone().map(|s| format!("SL {s}")));
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        let mut t = Table::new(
            &format!("Figure 5{fig}: % of packets received within interval (small packets)"),
            &header_refs,
        );
        for (bin, label) in JITTER_BIN_LABELS.iter().enumerate() {
            let mut row = vec![label.to_string()];
            for sl in sls.clone() {
                let v = m.obs.jitter.group(sl).map_or(0.0, |h| h.percentages()[bin]);
                row.push(format!("{v:.2}"));
            }
            t.row(row);
        }
        println!("{}", t.render());
    }

    // Shape check echoed for EXPERIMENTS.md: max |deviation| per SL.
    println!("max |deviation|/IAT per SL:");
    for (sl, h) in m.obs.jitter.groups() {
        println!(
            "  SL {sl}: {:.3} ({} samples, central {:.1}%)",
            h.max_abs_deviation(),
            h.total(),
            h.central_pct()
        );
    }
}
