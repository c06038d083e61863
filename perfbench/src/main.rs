//! The repository benchmark: one command per workload that times the
//! subnet manager and the fabric simulator end to end, checks their
//! outputs, and prints one JSON result line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_mtu256 --seed 42 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the
//! per-layer ones (see `perfbench/metrics.json`). A failed correctness
//! check is reported as a failed operation and exits with code 1.

#![forbid(unsafe_code)]

mod admission;
mod churn;
mod layers;
mod observe;
mod paper;
mod plane;
mod probe;
mod report;

use report::Report;

/// End-to-end metrics, reported by every workload with `--trace 0`.
const END_TO_END: &[&str] = &[
    "setup_s",
    "sim_cycles_per_s",
    "qos_deadline_miss_ratio",
    "qos_delay_p99_over_deadline",
    "qos_delivered_B_per_cycle_node",
    "cac_accept_ratio",
    "cac_seq_ops_per_s",
    "cac_seq_p50_us",
    "cac_seq_p99_us",
    "reconfig_p50_us",
    "reconfig_p99_us",
    "peak_rss_mb",
];

/// Per-layer metrics, reported by every workload with `--trace 1`.
const PER_LAYER: &[&str] = &[
    "topo.build_s",
    "qos.fill.busy_s",
    "qos.fill.attempted",
    "qos.fill.accepted",
    "qos.request.calls",
    "qos.request.p50_ns",
    "qos.request.p99_ns",
    "qos.teardown.calls",
    "qos.teardown.p50_ns",
    "qos.teardown.p99_ns",
    "qos.apply_tables.calls",
    "qos.apply_tables.busy_s",
    "qos.apply_tables.p50_us",
    "qos.apply_tables.p99_us",
    "qos.service.busy_s",
    "qos.service.ns_per_op",
    "qos.service.overhead_x",
    "qos.service.queue_depth_p99",
    "qos.service.rollbacks",
    "core.alloc.probes_per_select",
    "core.alloc.probe_reject_ratio",
    "core.alloc.select_fail",
    "core.schedule.compiles",
    "core.schedule.useful_ratio",
    "core.schedule.select_ns",
    "sim.run.busy_s",
    "sim.events",
    "sim.events_per_kcycle",
    "sim.ns_per_event",
    "sim.pool.high_water",
    "sim.event_queue.depth_p50",
    "sim.event_queue.depth_p99",
    "sim.event_queue.hold_ns",
    "sim.arb.grants",
    "sim.arb.hol_stalls",
    "sim.arb.grant_ratio",
    "stats.observer.share",
    "sim.attributed_share",
    "trace.overhead_share",
];

const WORKLOADS: &[&str] = &["paper_mtu256", "admission_trace", "churn_mtu4096"];

pub struct Args {
    pub workload: String,
    /// Seeds the measurement side (the event-queue hold probe).
    pub seed: u64,
    /// Seed of the workload instance: fabric, fill, trace and churn
    /// stream, as the repository's `IBA_SEED` seeds its experiments.
    pub instance: u64,
    /// Sets the number of rounds (see `report::rounds`).
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        instance: 42,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--instance" => args.instance = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--instance N] [--seconds S] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    match (args.workload.as_str(), args.trace) {
        ("paper_mtu256", false) => paper::run(&args, &mut report),
        ("paper_mtu256", true) => paper::trace(&args, &mut report),
        ("admission_trace", false) => admission::run(&args, &mut report),
        ("admission_trace", true) => admission::trace(&args, &mut report),
        ("churn_mtu4096", false) => churn::run(&args, &mut report),
        (_, _) => churn::trace(&args, &mut report),
    }
    report.select(if args.trace { PER_LAYER } else { END_TO_END });
    for m in &report.metrics {
        println!("{:<34} {:>18.6} {}", m.name, m.value, m.unit);
    }
    for f in &report.failures {
        println!("FAILED: {f}");
    }
    println!("{}", report.json());
    if !report.failures.is_empty() {
        std::process::exit(1);
    }
}
