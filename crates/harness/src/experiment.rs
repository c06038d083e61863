//! The paper's experiment pipeline with explicit parameters: build the
//! 16-switch irregular fabric, fill it to saturation (Table 1 SLs),
//! run a transient then a steady-state measurement window.
//!
//! Everything is a pure function of its arguments — no environment
//! reads — so sweep points can run on worker threads without shared
//! state. `iba-bench` layers the `IBA_*` environment knobs on top for
//! the table/figure binaries.

use crate::fnv::Fnv64;
use iba_core::SlTable;
use iba_obs::Recorder;
use iba_qos::{FillReport, QosFrame, QosObserver};
use iba_sim::{DeliveryRecord, FabricStats, FaultPlan, Observer, SimConfig};
use iba_topo::irregular::{generate, IrregularConfig};
use iba_topo::updown;
use iba_traffic::besteffort::BackgroundConfig;
use iba_traffic::{RequestGenerator, WorkloadConfig};

/// The paper's experiment setup for one packet size.
pub struct Experiment {
    /// The filled QoS frame.
    pub frame: QosFrame,
    /// Fill-phase outcome.
    pub fill: FillReport,
    /// Seed used everywhere.
    pub seed: u64,
}

/// Builds the fabric, fills it to saturation and returns the
/// ready-to-run experiment.
#[must_use]
pub fn build_experiment_sized(
    mtu: u32,
    switches: usize,
    seed: u64,
    reject_limit: u32,
) -> Experiment {
    let topo = generate(IrregularConfig::with_switches(switches, seed));
    let routing = updown::compute(&topo);
    let sl_table = SlTable::paper_table1();
    let mut frame = QosFrame::new(
        topo.clone(),
        routing,
        sl_table.clone(),
        SimConfig::paper_default(mtu),
    );
    let mut gen = RequestGenerator::new(&topo, &sl_table, &WorkloadConfig::new(mtu, seed ^ 0xF00D));
    let fill = frame.fill(&mut gen, reject_limit, 100_000);
    Experiment { frame, fill, seed }
}

/// Outcome of a measured run.
pub struct Measured {
    /// The observer with all delay/jitter samples from the steady state.
    pub obs: QosObserver,
    /// Fabric-level throughput/utilisation statistics.
    pub stats: FabricStats,
    /// Number of hosts (for per-node normalisation).
    pub hosts: usize,
    /// Steady-state window length (cycles).
    pub window: u64,
    /// Steady-state deliveries folded into an order-sensitive FNV-1a
    /// digest: two runs delivered the exact same packets at the exact
    /// same times iff their digests match.
    pub delivery_digest: u64,
    /// Packets covered by the digest.
    pub delivery_count: u64,
}

/// Forwards deliveries to the QoS observer while folding every record
/// into an FNV-1a digest — the equality witness for determinism tests.
struct DigestObserver<'a> {
    inner: &'a mut QosObserver,
    hash: Fnv64,
    count: u64,
}

impl Observer for DigestObserver<'_> {
    fn on_delivered(&mut self, rec: &DeliveryRecord) {
        for v in [
            u64::from(rec.flow),
            rec.seq,
            u64::from(rec.src.0),
            u64::from(rec.dst.0),
            u64::from(rec.sl.raw()),
            u64::from(rec.bytes),
            rec.created,
            rec.delivered,
        ] {
            self.hash.word(v);
        }
        self.count += 1;
        self.inner.on_delivered(rec);
    }

    fn on_generated(&mut self, flow: u32, bytes: u32, now: u64) {
        self.inner.on_generated(flow, bytes, now);
    }
}

/// Runs the experiment: transient period (twice the slowest IAT), then
/// a steady state until the slowest connection has emitted
/// `steady_packets` packets. Background best-effort traffic fills the
/// remaining capacity when `background` is set.
///
/// `plan`, when given, is injected through the fabric's event calendar
/// before the run starts. Faults scheduled inside the warm-up window
/// fire uninstrumented (like everything else there); the digest and
/// the metrics recorded into `rec` cover only the steady-state window.
/// The result is a pure function of `(exp, plan)`, and no recorder
/// perturbs it — `NullRecorder`, an `ObsRecorder` or an observe-only
/// `iba_obs::GuaranteeAuditor` all leave the delivery digest
/// byte-identical.
#[must_use]
pub fn run_measured<R: Recorder>(
    exp: &Experiment,
    steady_packets: u64,
    background: bool,
    plan: Option<&FaultPlan>,
    rec: &mut R,
) -> Measured {
    let bg = background.then(BackgroundConfig::default);
    let (mut fabric, mut obs) = exp.frame.build_fabric(exp.seed ^ 0xABCD, bg.as_ref());
    if let Some(p) = plan {
        fabric.apply_fault_plan(p);
    }

    let slowest_iat = exp.frame.steady_state_cycles(1);
    let transient = slowest_iat * 2;
    let steady = exp.frame.steady_state_cycles(steady_packets);

    // Warm-up runs uninstrumented; the digest and all metrics cover
    // only the steady-state window.
    fabric.run_until(transient, &mut obs);
    obs.reset_samples();
    fabric.reset_stats();
    let mut digest = DigestObserver {
        inner: &mut obs,
        hash: Fnv64::default(),
        count: 0,
    };
    fabric.run_until_recorded(transient + steady, &mut digest, rec);
    let (hash, count) = (digest.hash.finish(), digest.count);

    let stats = fabric.summarize();
    Measured {
        obs,
        stats,
        hosts: exp.frame.manager.topology().num_hosts(),
        window: steady,
        delivery_digest: hash,
        delivery_count: count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iba_obs::{NullRecorder, ObsRecorder};

    #[test]
    fn digest_distinguishes_seeds_and_matches_replays() {
        let run = |seed| {
            let exp = build_experiment_sized(4096, 4, seed, 40);
            let m = run_measured(&exp, 3, false, None, &mut NullRecorder);
            (m.delivery_digest, m.delivery_count)
        };
        let a = run(42);
        assert_eq!(a, run(42), "same seed must replay identically");
        assert!(a.1 > 0, "steady state delivered nothing");
        assert_ne!(a.0, run(43).0, "different seeds collided");
    }

    #[test]
    fn recorded_run_is_equivalent_and_counts_events() {
        let exp = build_experiment_sized(4096, 4, 7, 40);
        let plain = run_measured(&exp, 3, false, None, &mut NullRecorder);
        let mut rec = ObsRecorder::new();
        let recorded = run_measured(&exp, 3, false, None, &mut rec);
        assert_eq!(plain.delivery_digest, recorded.delivery_digest);
        assert_eq!(plain.delivery_count, recorded.delivery_count);
        assert_eq!(plain.stats.delivered_bytes, recorded.stats.delivered_bytes);
        assert!(rec.metrics.sim_events.get() > 0);
        assert!(rec.metrics.sim_event_queue_depth.count() > 0);
    }
}
