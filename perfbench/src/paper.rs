//! `paper_mtu256`: the paper's Table-2 run at 256 B packets. The
//! fabric is filled to saturation with the Table-1 mix (each request
//! timed on its own), the tables are downloaded once, and the steady
//! window runs with best-effort background under `QosObserver`. Between
//! slices of the window the set-up is repeated and the tables are
//! re-downloaded.

use crate::observe::LayerRecorder;
use crate::plane::{self, CallTimes, Setup, TracedWindows, Window, SIM_CHUNKS};
use crate::report::{peak_rss_mb, quantile, rounds, secs, stopwatch, timed, Pieces, Report};
use crate::{layers, Args};
use iba_core::SlTable;
use iba_obs::{NullRecorder, ObsRecorder, Recorder};
use iba_qos::service::{TraceOp, TraceOutcome};
use iba_qos::{QosFrame, QosManager};
use iba_sim::SimConfig;
use iba_traffic::{RequestGenerator, WorkloadConfig};

const MTU: u32 = 256;
/// Consecutive rejections that end the fill (the harness default).
const REJECT_LIMIT: usize = 120;
const MAX_ATTEMPTS: usize = 100_000;
/// Packets of the slowest connection in the steady window.
const STEADY_PACKETS: u64 = 30;
/// Slices of the steady window timed in every round: its first quarter.
/// The first round runs the whole window for the QoS metrics, the later
/// rounds only these.
const TIMED_SLICES: u64 = SIM_CHUNKS / 4;
/// Host seconds of one round on the reference host (2-core container).
const SECONDS_PER_ROUND: f64 = 4.6;
/// Timed slices between two timed set-ups, each with its fill and
/// followed by a round of sampled table downloads. Each round shifts
/// them by one slice, so no slice runs after side work in every round.
const SETUP_EVERY: u64 = 5;

/// The filled frame and how the fill went.
struct Fill {
    frame: QosFrame,
    /// The fill's requests, as a trace.
    ops: Vec<TraceOp>,
    outcomes: Vec<TraceOutcome>,
    fill_s: f64,
}

/// Topology, routing, manager, the fill (the loop of `QosFrame::fill`,
/// its requests timed as the next round of `times`) and the configured
/// fabric.
fn setup(instance: u64, times: &mut CallTimes, rec: &mut dyn Recorder) -> Setup<Fill> {
    plane::set_up(instance, |empty| {
        let mut frame = QosFrame::with_manager(empty.clone(), SimConfig::paper_default(MTU));
        let mut gen = generator(empty, instance);
        let (mut ops, mut outcomes) = (Vec::new(), Vec::new());
        let mut consecutive = 0;
        times.next_calls_round();
        let tf = stopwatch();
        while ops.len() < MAX_ATTEMPTS && consecutive < REJECT_LIMIT {
            let req = gen.next_request();
            let (r, ns) = timed(|| frame.manager.request_observed(&req, rec));
            times.request.push(ns);
            outcomes.push(match r {
                Ok(_) => {
                    consecutive = 0;
                    TraceOutcome::Admitted { rid: req.id }
                }
                Err(e) => {
                    consecutive += 1;
                    TraceOutcome::Rejected(e)
                }
            });
            ops.push(TraceOp::Admit(req));
        }
        let fill_s = secs(tf);
        drop(plane::build_fabric(&frame, plane::phase_seed(instance)));
        Fill {
            frame,
            ops,
            outcomes,
            fill_s,
        }
    })
}

/// The Table-1 request stream of the harness's Table-2 experiment.
fn generator(mgr: &QosManager, instance: u64) -> RequestGenerator {
    RequestGenerator::new(
        mgr.topology(),
        &SlTable::paper_table1(),
        &WorkloadConfig::new(MTU, instance ^ 0xF00D),
    )
}

/// The benchmark's fill must reproduce `QosFrame::fill`, and leave
/// consistent tables.
fn check_fill(s: &Setup<Fill>, instance: u64, report: &mut Report) {
    let mut reference = QosFrame::with_manager(s.empty.clone(), SimConfig::paper_default(MTU));
    let fill = reference.fill(
        &mut generator(&s.empty, instance),
        REJECT_LIMIT as u32,
        MAX_ATTEMPTS as u32,
    );
    let accepted = plane::admitted(&s.work.outcomes);
    report.check(
        fill.attempted as usize == s.work.ops.len()
            && fill.accepted as usize == accepted
            && plane::tables_digest(&reference.manager)
                == plane::tables_digest(&s.work.frame.manager),
        || {
            format!(
                "fill diverged from QosFrame::fill ({accepted} vs {} accepted)",
                fill.accepted
            )
        },
    );
    let consistent = s.work.frame.manager.port_tables().check_all();
    report.check(consistent.is_ok(), || {
        format!("tables inconsistent after fill: {consistent:?}")
    });
    report.attempted += s.work.ops.len() as u64;
}

pub fn run(args: &Args, report: &mut Report) {
    let mut times = CallTimes::default();
    let s = setup(args.instance, &mut times, &mut NullRecorder);
    let frame = &s.work.frame;
    let phase = plane::phase_seed(args.instance);
    let mut sim = Pieces::default();
    let first = plane::static_unit(
        frame,
        phase,
        (STEADY_PACKETS, SIM_CHUNKS),
        report,
        &mut |_| {},
    );
    first.time_into(&mut sim, TIMED_SLICES);
    // The workload's own footprint, before the checks and side
    // measurements.
    report.put("peak_rss_mb", peak_rss_mb(), "MB");
    check_fill(&s, args.instance, report);

    plane::serve(&s.empty, &s.work.ops, &mut ObsRecorder::new(), report);
    let (mut downloads, _) = plane::build_fabric(frame, phase);
    let mut setups = Pieces::default();
    let mut side = Report::default();
    let mut timed_cycles = 0;
    for round in 1..rounds(args.seconds, SECONDS_PER_ROUND) {
        setups.next_round();
        let mut between = |k: u64| {
            if !(k + round as u64).is_multiple_of(SETUP_EVERY) {
                return;
            }
            let again = setup(args.instance, &mut times, &mut NullRecorder);
            setups.push(again.total_ns);
            side.check(again.work.outcomes == s.work.outcomes, || {
                "a repeat of the fill admitted differently".into()
            });
            side.attempted += again.work.ops.len() as u64;
            drop(again);
            plane::sample_downloads(&frame.manager, &mut downloads, &mut times);
        };
        let prefix = (STEADY_PACKETS, TIMED_SLICES);
        let w = plane::static_unit(frame, phase, prefix, report, &mut between);
        w.time_into(&mut sim, TIMED_SLICES);
        report.check(w.same_deliveries(&first), || {
            "a repeat of the same instance delivered differently".into()
        });
        timed_cycles = w.cycles;
    }
    report.absorb(side);
    report.put("setup_s", setups.median_s(), "s");
    report.put(
        "sim_cycles_per_s",
        timed_cycles as f64 / sim.total_s(),
        "cycles/s",
    );
    put_qos(report, &first, s.empty.topology().num_hosts());
    report.put(
        "cac_accept_ratio",
        plane::admitted(&s.work.outcomes) as f64 / s.work.ops.len() as f64,
        "ratio",
    );
    put_admission(report, &times);
}

/// The data-plane end-to-end metrics of one window.
pub fn put_qos(report: &mut Report, w: &Window, hosts: usize) {
    report.put("qos_deadline_miss_ratio", w.miss_ratio(), "ratio");
    report.put("qos_delay_p99_over_deadline", w.p99_ratio, "ratio");
    report.put(
        "qos_delivered_B_per_cycle_node",
        w.qos_bytes as f64 / w.cycles as f64 / hosts as f64,
        "B/cycle/node",
    );
}

/// The control-plane end-to-end metrics of the workload's calls.
pub fn put_admission(report: &mut Report, times: &CallTimes) {
    let lat = times.admission_us();
    report.put(
        "cac_seq_ops_per_s",
        times.ops() as f64 / times.admission_s(),
        "ops/s",
    );
    report.put("cac_seq_p50_us", quantile(&lat, 0.5), "us");
    report.put("cac_seq_p99_us", quantile(&lat, 0.99), "us");
    let reconfig = times.reconfig_us();
    report.put("reconfig_p50_us", quantile(&reconfig, 0.5), "us");
    report.put("reconfig_p99_us", quantile(&reconfig, 0.99), "us");
}

pub fn trace(args: &Args, report: &mut Report) {
    let mut times = CallTimes::default();
    let s = setup(args.instance, &mut times, &mut NullRecorder);
    check_fill(&s, args.instance, report);
    let mut serve_rec = ObsRecorder::new();
    let (served, serve_ns) = plane::serve(&s.empty, &s.work.ops, &mut serve_rec, report);
    let mut alloc = LayerRecorder::default();
    let traced_fill = setup(args.instance, &mut CallTimes::default(), &mut alloc);
    report.check(traced_fill.work.outcomes == s.work.outcomes, || {
        "the traced fill diverged from the untraced one".into()
    });
    drop(traced_fill);
    let frame = &s.work.frame;
    let phase = plane::phase_seed(args.instance);
    let (mut fabric, _) = plane::build_fabric(frame, phase);
    plane::sample_downloads(&frame.manager, &mut fabric, &mut times);
    drop(fabric);

    let tw = TracedWindows::measure(frame, phase, STEADY_PACKETS);
    report.check(tw.consistent(), || {
        "traced or NullObserver window delivered differently".into()
    });
    report.attempted += s.work.ops.len() as u64 + tw.plain.delivered() * 3;

    report.put("topo.build_s", s.topo_s, "s");
    report.put("qos.fill.busy_s", s.work.fill_s, "s");
    report.put("qos.fill.attempted", s.work.ops.len() as f64, "count");
    report.put(
        "qos.fill.accepted",
        plane::admitted(&s.work.outcomes) as f64,
        "count",
    );
    layers::put_calls(report, &times);
    layers::put_service(report, served, serve_ns, &times, &serve_rec);
    layers::put_alloc(report, &alloc);
    let configs: Vec<_> = plane::output_ports(frame.manager.topology())
        .into_iter()
        .map(|k| frame.manager.arb_config_for(k))
        .collect();
    let select_ns = layers::put_schedule(report, &tw, &configs, MTU);
    layers::put_sim(report, &tw, select_ns, args.seed);
}
