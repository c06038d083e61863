//! Per-layer metrics, shared by the workloads' traced runs. Names are
//! `<crate>.<module>.<what>`; see `perfbench/metrics.json` for the
//! end-to-end metric each should move.

use crate::observe::LayerRecorder;
use crate::plane::{CallTimes, TracedWindows};
use crate::probe;
use crate::report::{quantile, Pieces, Report};
use iba_core::VlArbConfig;
use iba_obs::ObsRecorder;

fn quantiles(p: &Pieces) -> (f64, f64) {
    let v = p.fastest_ns();
    (quantile(&v, 0.5), quantile(&v, 0.99))
}

/// `qos.manager`: request, teardown and table download calls.
pub fn put_calls(report: &mut Report, times: &CallTimes) {
    let (p50, p99) = quantiles(&times.request);
    report.put("qos.request.calls", times.request.len() as f64, "count");
    report.put("qos.request.p50_ns", p50, "ns");
    report.put("qos.request.p99_ns", p99, "ns");
    let (p50, p99) = quantiles(&times.teardown);
    report.put("qos.teardown.calls", times.teardown.len() as f64, "count");
    report.put("qos.teardown.p50_ns", p50, "ns");
    report.put("qos.teardown.p99_ns", p99, "ns");
    let (p50, p99) = quantiles(&times.download);
    report.put(
        "qos.apply_tables.calls",
        times.download.len() as f64,
        "count",
    );
    report.put("qos.apply_tables.busy_s", times.download.total_s(), "s");
    report.put("qos.apply_tables.p50_us", p50 * 1e-3, "us");
    report.put("qos.apply_tables.p99_us", p99 * 1e-3, "us");
}

/// `qos.service`: `ops` trace operations served at one shard in
/// `busy_ns`, against the sequential calls in `times`.
pub fn put_service(
    report: &mut Report,
    ops: usize,
    busy_ns: u64,
    times: &CallTimes,
    rec: &ObsRecorder,
) {
    let ns_per_op = busy_ns as f64 / ops.max(1) as f64;
    let seq_ns_per_op = times.admission_s() * 1e9 / times.ops().max(1) as f64;
    let rollbacks: u64 = rec
        .metrics
        .serve_shard_rollback
        .0
        .iter()
        .map(|c| c.get())
        .sum();
    report.put("qos.service.busy_s", busy_ns as f64 * 1e-9, "s");
    report.put("qos.service.ns_per_op", ns_per_op, "ns");
    report.put("qos.service.overhead_x", ns_per_op / seq_ns_per_op, "x");
    report.put(
        "qos.service.queue_depth_p99",
        rec.metrics.serve_queue_depth.quantile(0.99) as f64,
        "count",
    );
    report.put("qos.service.rollbacks", rollbacks as f64, "count");
}

/// `core.alloc`: allocator probes of the traced admission calls.
pub fn put_alloc(report: &mut Report, rec: &LayerRecorder) {
    report.put(
        "core.alloc.probes_per_select",
        rec.probes as f64 / rec.selects.max(1) as f64,
        "ratio",
    );
    report.put(
        "core.alloc.probe_reject_ratio",
        rec.probes_rejected as f64 / rec.probes.max(1) as f64,
        "ratio",
    );
    report.put("core.alloc.select_fail", rec.select_fail as f64, "count");
}

/// `core.schedule`: compiles, the share of them that compiled a changed
/// table, and the grant select timed on the workload's own tables.
/// Returns the select time.
pub fn put_schedule(
    report: &mut Report,
    tw: &TracedWindows,
    configs: &[VlArbConfig],
    mtu: u32,
) -> f64 {
    report.put("core.schedule.compiles", tw.compiles as f64, "count");
    report.put(
        "core.schedule.useful_ratio",
        tw.changed_ports as f64 / tw.recompiled_ports.max(1) as f64,
        "ratio",
    );
    let select_ns = probe::select_ns(configs, u64::from(mtu));
    report.put("core.schedule.select_ns", select_ns, "ns");
    select_ns
}

/// `sim.fabric`, `sim.event`, `sim.arb`, the delivery observer, and how
/// much of the simulation's time those outside timings explain.
pub fn put_sim(report: &mut Report, tw: &TracedWindows, select_ns: f64, seed: u64) {
    let (plain, l) = (&tw.plain, &tw.layers);
    let events = plain.events.max(1) as f64;
    report.put("sim.run.busy_s", plain.busy_s, "s");
    report.put("sim.events", plain.events as f64, "count");
    report.put(
        "sim.events_per_kcycle",
        events * 1e3 / plain.cycles as f64,
        "events/kcycle",
    );
    report.put("sim.ns_per_event", plain.busy_s * 1e9 / events, "ns");
    report.put("sim.pool.high_water", tw.pool_high_water as f64, "count");
    let depth = l.depth_quantile(0.5);
    report.put("sim.event_queue.depth_p50", depth, "count");
    report.put("sim.event_queue.depth_p99", l.depth_quantile(0.99), "count");
    let hold_ns = probe::hold_ns(depth as usize, plain.cycles as f64 / events, seed);
    report.put("sim.event_queue.hold_ns", hold_ns, "ns");
    report.put("sim.arb.grants", l.grants as f64, "count");
    report.put("sim.arb.hol_stalls", l.hol_stalls as f64, "count");
    report.put(
        "sim.arb.grant_ratio",
        l.grants as f64 / (l.grants + l.hol_stalls).max(1) as f64,
        "ratio",
    );
    let observer_s = plain.busy_s - tw.null.busy_s;
    report.put("stats.observer.share", observer_s / plain.busy_s, "share");
    let explained_s = (events * hold_ns + l.grants as f64 * select_ns) * 1e-9 + observer_s;
    report.put("sim.attributed_share", explained_s / plain.busy_s, "share");
    report.put(
        "trace.overhead_share",
        tw.traced.busy_s / plain.busy_s - 1.0,
        "share",
    );
}
