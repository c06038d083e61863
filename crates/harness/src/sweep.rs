//! Sweep points: one independent simulation run per point, executed in
//! parallel by the engine with deterministic merged output.

use crate::engine::run_sweep;
use crate::experiment::{build_experiment_sized, run_measured, Experiment, Measured};
use iba_obs::{ObsRecorder, Recorder, SpanRecorder};

/// One independent run of the paper pipeline: a (topology size, seed,
/// packet size, background) coordinate of a sweep.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SimPoint {
    /// Fabric size in switches.
    pub switches: usize,
    /// Topology + workload seed.
    pub seed: u64,
    /// Packet size in bytes.
    pub mtu: u32,
    /// Add best-effort background traffic.
    pub background: bool,
    /// Steady state runs until the slowest connection emitted this
    /// many packets.
    pub steady_packets: u64,
    /// Consecutive rejections that end the fill phase.
    pub reject_limit: u32,
}

impl SimPoint {
    /// The paper's headline configuration (16 switches) at one packet
    /// size and seed.
    #[must_use]
    pub fn paper(mtu: u32, seed: u64) -> Self {
        SimPoint {
            switches: 16,
            seed,
            mtu,
            background: false,
            steady_packets: 30,
            reject_limit: 120,
        }
    }

    /// Builds and fills this point's experiment, then measures it with
    /// no fault plan, recording the steady state into `rec`.
    pub fn run<R: Recorder>(&self, rec: &mut R) -> (Experiment, Measured) {
        let exp = build_experiment_sized(self.mtu, self.switches, self.seed, self.reject_limit);
        let m = run_measured(&exp, self.steady_packets, self.background, None, rec);
        (exp, m)
    }
}

/// The deterministic summary of one executed point.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct PointOutcome {
    /// The coordinate that produced this outcome.
    pub point: SimPoint,
    /// Connection requests attempted during the fill.
    pub attempted: u32,
    /// Connections admitted.
    pub accepted: u32,
    /// Aggregate offered load of the admitted connections (bytes/cycle).
    pub offered_load: f64,
    /// Hosts in the fabric.
    pub hosts: usize,
    /// Injected traffic, bytes/cycle/node (Table 2's unit).
    pub injected_per_node: f64,
    /// Delivered traffic, bytes/cycle/node.
    pub delivered_per_node: f64,
    /// Mean QoS-only utilisation (%) over host links.
    pub qos_utilization: f64,
    /// Steady-state packets delivered.
    pub delivered_packets: u64,
    /// FNV-1a digest over every steady-state delivery record.
    pub delivery_digest: u64,
}

impl PointOutcome {
    /// A stable one-line rendering; byte-for-byte equality of rendered
    /// outcomes is the determinism criterion used by the test suite.
    #[must_use]
    pub fn render(&self) -> String {
        let p = &self.point;
        format!(
            "switches={} seed={} mtu={} bg={} accepted={}/{} load={:.6} \
             inj={:.6} del={:.6} qos={:.4} packets={} digest={:016x}",
            p.switches,
            p.seed,
            p.mtu,
            p.background,
            self.accepted,
            self.attempted,
            self.offered_load,
            self.injected_per_node,
            self.delivered_per_node,
            self.qos_utilization,
            self.delivered_packets,
            self.delivery_digest,
        )
    }
}

/// Executes one point, recording metrics into `rec`.
#[must_use]
pub fn run_point_recorded(point: &SimPoint, rec: &mut ObsRecorder) -> PointOutcome {
    let (exp, m) = point.run(rec);
    PointOutcome {
        point: *point,
        attempted: exp.fill.attempted,
        accepted: exp.fill.accepted,
        offered_load: exp.fill.offered_load,
        hosts: m.hosts,
        injected_per_node: m.stats.injected_per_node(m.hosts),
        delivered_per_node: m.stats.delivered_per_node(m.hosts),
        qos_utilization: m.stats.host_link_qos_utilization,
        delivered_packets: m.stats.delivered_packets,
        delivery_digest: m.delivery_digest,
    }
}

/// Runs every point across `threads` workers. Outcomes come back in
/// point order and the merged recorder combines every worker's metrics
/// — both independent of the thread count.
///
/// With `span_capacity` set, every worker also records
/// `harness.worker`/`harness.chunk` wall-clock spans into a ring of that
/// many records, all sharing one epoch so the merged recorder's span
/// timeline has aligned per-thread tracks (feed it to
/// `iba_obs::perfetto_trace`). Outcomes and merged *metrics* are the
/// same with or without spans.
#[must_use]
pub fn run_points(
    points: &[SimPoint],
    threads: usize,
    span_capacity: Option<usize>,
) -> (Vec<PointOutcome>, ObsRecorder) {
    // lint: allow(no-wall-clock) -- span-profiler epoch plumbing; never feeds simulated time
    let epoch = std::time::Instant::now();
    let mk = move || {
        let mut rec = ObsRecorder::new();
        rec.spans = span_capacity.map(|cap| SpanRecorder::with_epoch(cap, epoch));
        rec
    };
    run_sweep(points, threads, mk, |_, p, rec| run_point_recorded(p, rec))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_order_is_preserved_and_outcomes_replay() {
        let points: Vec<SimPoint> = (0..4)
            .map(|s| SimPoint {
                switches: 4,
                seed: 100 + s,
                mtu: 4096,
                background: false,
                steady_packets: 2,
                reject_limit: 30,
            })
            .collect();
        let (a, ma) = run_points(&points, 1, None);
        let (b, mb) = run_points(&points, 3, None);
        for (x, p) in a.iter().zip(points.iter()) {
            assert_eq!(x.point, *p);
        }
        let render = |v: &[PointOutcome]| v.iter().map(PointOutcome::render).collect::<Vec<_>>();
        assert_eq!(render(&a), render(&b));
        assert_eq!(ma.metrics.harness_runs.get(), 4);
        assert_eq!(mb.metrics.harness_runs.get(), 4);
        assert_eq!(ma.metrics.sim_events.get(), mb.metrics.sim_events.get());
    }
}
