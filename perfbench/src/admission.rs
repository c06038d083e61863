//! `admission_trace`: the control plane under a seeded, repair-free
//! admit/teardown trace on the paper-scale fabric. Each round drives
//! the trace through `QosManager` one timed call at a time and downloads the
//! admitted set that survives the trace into a fabric that runs a short
//! window with best-effort background: the data-plane check of what
//! admission granted.

use crate::observe::LayerRecorder;
use crate::paper::{put_admission, put_qos};
use crate::plane::{self, CallTimes, Setup, TracedWindows, SIM_CHUNKS};
use crate::report::{peak_rss_mb, rounds, Pieces, Report};
use crate::{layers, Args};
use iba_obs::{NullRecorder, ObsRecorder, Recorder};
use iba_qos::service::{
    apply_trace_sequential, generate_trace, TraceConfig, TraceOp, TraceOutcome,
};
use iba_qos::{QosFrame, QosManager};
use iba_sim::SimConfig;

const TRACE_OPS: usize = 200_000;
/// The trace's requests use 256 B packets.
const MTU: u32 = 256;
/// Packets of the slowest surviving connection in the check window.
const CHECK_PACKETS: u64 = 10;
/// Host seconds of one round on the reference host (2-core container).
const SECONDS_PER_ROUND: f64 = 1.4;
/// Check-window slices between two timed set-ups, each followed by a
/// sequential pass over the trace and a round of sampled table
/// downloads. Each round shifts them by one slice, so no slice runs
/// after side work in every round.
const SIDE_EVERY: u64 = SIM_CHUNKS / 5;

/// Topology, routing, an empty manager and the trace.
fn setup(instance: u64) -> Setup<Vec<TraceOp>> {
    plane::set_up(instance, |empty| {
        generate_trace(&TraceConfig {
            hosts: empty.topology().num_hosts() as u16,
            len: TRACE_OPS,
            seed: instance,
            repair_pct: 0,
        })
    })
}

/// What `apply_trace_sequential` produces on the whole trace: the
/// outcomes and tables the call-by-call driver must reproduce.
struct Expected {
    outcomes: Vec<TraceOutcome>,
    tables: u64,
}

fn expected(s: &Setup<Vec<TraceOp>>, report: &mut Report) -> Expected {
    let mut full = s.empty.clone();
    let outcomes = apply_trace_sequential(&mut full, &s.work, &mut NullRecorder);
    let consistent = full.port_tables().check_all();
    report.check(consistent.is_ok(), || {
        format!("tables inconsistent after the trace: {consistent:?}")
    });
    Expected {
        outcomes,
        tables: plane::tables_digest(&full),
    }
}

/// The trace through `QosManager`, call by call, as the next round of
/// `times`; returns the manager it leaves behind.
fn sequential(
    s: &Setup<Vec<TraceOp>>,
    exp: &Expected,
    times: &mut CallTimes,
    rec: &mut dyn Recorder,
    report: &mut Report,
) -> QosManager {
    let mut mgr = s.empty.clone();
    times.next_calls_round();
    let outcomes = plane::drive_trace(&mut mgr, &s.work, times, rec);
    report.check(
        outcomes == exp.outcomes && plane::tables_digest(&mgr) == exp.tables,
        || "the call-by-call driver diverged from apply_trace_sequential".into(),
    );
    report.attempted += TRACE_OPS as u64;
    mgr
}

pub fn run(args: &Args, report: &mut Report) {
    let s = setup(args.instance);
    let exp = expected(&s, report);
    let mut times = CallTimes::default();
    let mgr = sequential(&s, &exp, &mut times, &mut NullRecorder, report);
    let frame = QosFrame::with_manager(mgr, SimConfig::paper_default(MTU));
    let phase = plane::phase_seed(args.instance);
    let mut sim = Pieces::default();
    let window = (CHECK_PACKETS, SIM_CHUNKS);
    let first = plane::static_unit(&frame, phase, window, report, &mut |_| {});
    first.time_into(&mut sim, SIM_CHUNKS);
    // The workload's own footprint, before the side measurements.
    report.put("peak_rss_mb", peak_rss_mb(), "MB");

    plane::serve(&s.empty, &s.work, &mut ObsRecorder::new(), report);
    let (mut downloads, _) = plane::build_fabric(&frame, phase);
    let mut setups = Pieces::default();
    let mut side = Report::default();
    for round in 1..rounds(args.seconds, SECONDS_PER_ROUND) {
        setups.next_round();
        let mut between = |k: u64| {
            if !(k + round as u64).is_multiple_of(SIDE_EVERY) {
                return;
            }
            setups.push(setup(args.instance).total_ns);
            sequential(&s, &exp, &mut times, &mut NullRecorder, &mut side);
            plane::sample_downloads(&frame.manager, &mut downloads, &mut times);
        };
        let w = plane::static_unit(&frame, phase, window, report, &mut between);
        w.time_into(&mut sim, SIM_CHUNKS);
        report.check(w.same_deliveries(&first), || {
            "a repeat of the same instance delivered differently".into()
        });
    }
    report.absorb(side);
    report.put("setup_s", setups.median_s(), "s");
    report.put(
        "sim_cycles_per_s",
        first.cycles as f64 / sim.total_s(),
        "cycles/s",
    );
    put_qos(report, &first, s.empty.topology().num_hosts());
    let admits = s
        .work
        .iter()
        .filter(|o| matches!(o, TraceOp::Admit(_)))
        .count();
    report.put(
        "cac_accept_ratio",
        plane::admitted(&exp.outcomes) as f64 / admits as f64,
        "ratio",
    );
    put_admission(report, &times);
}

pub fn trace(args: &Args, report: &mut Report) {
    let s = setup(args.instance);
    let exp = expected(&s, report);
    let mut times = CallTimes::default();
    sequential(&s, &exp, &mut times, &mut NullRecorder, report);
    let mut alloc = LayerRecorder::default();
    let mgr = sequential(&s, &exp, &mut CallTimes::default(), &mut alloc, report);
    let mut serve_rec = ObsRecorder::new();
    let (served, serve_ns) = plane::serve(&s.empty, &s.work, &mut serve_rec, report);
    let frame = QosFrame::with_manager(mgr, SimConfig::paper_default(MTU));
    let phase = plane::phase_seed(args.instance);
    let (mut fabric, _) = plane::build_fabric(&frame, phase);
    plane::sample_downloads(&frame.manager, &mut fabric, &mut times);
    drop(fabric);
    let tw = TracedWindows::measure(&frame, phase, CHECK_PACKETS);
    report.check(tw.consistent(), || {
        "traced or NullObserver window delivered differently".into()
    });
    report.attempted += tw.plain.delivered() * 3;

    report.put("topo.build_s", s.topo_s, "s");
    // No fill: the trace is the admission stage.
    report.put("qos.fill.busy_s", 0.0, "s");
    report.put("qos.fill.attempted", 0.0, "count");
    report.put("qos.fill.accepted", 0.0, "count");
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
