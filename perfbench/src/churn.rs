//! `churn_mtu4096`: connections arrive and depart while the fabric runs
//! at 4 KB packets, as `bin/churn.rs` schedules them: an arrival every
//! 50k cycles and, from half-time on, a departure after each arrival.
//! Every admit or teardown is followed by a full table download. The
//! benchmark drives the loop of `ChurnRunner::run` itself so that each
//! call can be timed, and checks that it reproduces `ChurnRunner`.
//! Between slices of the run, set-up is repeated.

use crate::observe::{LayerRecorder, MeasureObserver};
use crate::paper::{put_admission, put_qos};
use crate::plane::{self, CallTimes, Setup, TracedWindows, Window, SIM_CHUNKS};
use crate::report::{peak_rss_mb, rounds, stopwatch, timed, Pieces, Report};
use crate::{layers, Args};
use iba_core::{SlTable, VlArbConfig};
use iba_obs::{NullRecorder, ObsRecorder, Recorder};
use iba_qos::service::{TraceOp, TraceOutcome};
use iba_qos::{ChurnEvent, ChurnRunner, ChurnStats, QosFrame, QosObserver};
use iba_sim::{NullObserver, Observer, SimConfig};
use iba_traffic::{flow_for_connection, RequestGenerator, WorkloadConfig};
use std::collections::VecDeque;

const MTU: u32 = 4096;
const ARRIVALS: u64 = 5_000;
/// Cycles between arrivals.
const INTERVAL: u64 = 50_000;
/// Host seconds of one round on the reference host (2-core container).
const SECONDS_PER_ROUND: f64 = 1.3;

/// The frame the run starts from (no connections) and its schedule.
struct Churn {
    frame: QosFrame,
    events: Vec<ChurnEvent>,
    horizon: u64,
}

/// Topology, routing, manager, the churn schedule and the idle fabric.
fn setup(instance: u64) -> Setup<Churn> {
    plane::set_up(instance, |empty| {
        let frame = QosFrame::with_manager(empty.clone(), SimConfig::paper_default(MTU));
        let mut gen = RequestGenerator::new(
            empty.topology(),
            &SlTable::paper_table1(),
            &WorkloadConfig::new(MTU, instance ^ 0xD1),
        );
        let mut events = Vec::new();
        for k in 0..ARRIVALS {
            let at = k * INTERVAL;
            events.push(ChurnEvent::Arrive {
                at,
                request: gen.next_request(),
            });
            if k > ARRIVALS / 2 {
                events.push(ChurnEvent::DepartOldest {
                    at: at + INTERVAL / 2,
                });
            }
        }
        drop(frame.build_fabric(instance, None));
        Churn {
            frame,
            events,
            horizon: ARRIVALS * INTERVAL + 10_000_000,
        }
    })
}

/// Observers that learn about connections admitted mid-run.
trait Tracks: Observer {
    fn track(&mut self, _flow: u32, _sl: u8, _deadline: u64, _iat: u64) {}
}

impl Tracks for QosObserver {
    fn track(&mut self, flow: u32, sl: u8, deadline: u64, iat: u64) {
        self.register(flow, sl, deadline, iat);
    }
}

impl Tracks for NullObserver {}

/// What one churn run did.
struct Run {
    stats: ChurnStats,
    /// The whole horizon; `busy_s` is the time inside `run_until`.
    window: Window,
    /// Host time of each `SIM_CHUNKS`-th of the events, everything
    /// included, then of the run to the horizon.
    slice_ns: Vec<u64>,
    /// The admission operations, as a trace, and their outcomes.
    ops: Vec<TraceOp>,
    outcomes: Vec<TraceOutcome>,
    tables: u64,
    changed_ports: u64,
    recompiled_ports: u64,
    pool_high_water: usize,
    compiles: u64,
    /// Every port's table when the run ended.
    final_configs: Vec<VlArbConfig>,
}

/// The loop of `ChurnRunner::run`, with every call timed as the next
/// round of `times`. With
/// `track_configs`, each download also compares every port's table
/// before and after (outside the timed call). `between(k)` runs after
/// slice `k`, outside its timing.
fn churn<O: Tracks, R: Recorder>(
    s: &Churn,
    instance: u64,
    observer: &mut O,
    rec: &mut R,
    times: &mut CallTimes,
    track_configs: bool,
    between: &mut dyn FnMut(u64),
) -> Run {
    let mut frame = s.frame.clone();
    let (mut fabric, _) = frame.build_fabric(instance, None);
    times.next_round();
    let ports = plane::output_ports(frame.manager.topology());
    let mut configs: Vec<VlArbConfig> = ports
        .iter()
        .map(|&k| frame.manager.arb_config_for(k))
        .collect();
    let (mut changed_ports, mut recompiled_ports) = (0, 0);
    let mut m = MeasureObserver::new(observer, Vec::new());
    let (mut ops, mut outcomes) = (Vec::new(), Vec::new());
    let mut live = VecDeque::new();
    let mut stats = ChurnStats::default();
    let mut sim_ns = 0;
    let mut slice_ns = Vec::new();
    let per_slice = s.events.len().div_ceil(SIM_CHUNKS as usize);
    let mut slice = stopwatch();
    for (i, event) in s.events.iter().enumerate() {
        if i > 0 && i % per_slice == 0 {
            slice_ns.push(slice.elapsed().as_nanos() as u64);
            between(slice_ns.len() as u64);
            slice = stopwatch();
        }
        let at = match event {
            ChurnEvent::Arrive { at, .. } | ChurnEvent::DepartOldest { at } => *at,
        };
        sim_ns += timed(|| fabric.run_until_recorded(at.min(s.horizon), &mut m, rec)).1;
        let call_ns = match event {
            ChurnEvent::Arrive { request, .. } => {
                ops.push(TraceOp::Admit(*request));
                let (r, ns) = timed(|| frame.manager.request_observed(request, rec));
                times.request.push(ns);
                match r {
                    Ok(id) => {
                        stats.admitted += 1;
                        outcomes.push(TraceOutcome::Admitted { rid: request.id });
                        let conn = frame
                            .manager
                            .connection(id)
                            .expect("an admitted connection exists");
                        let (deadline, iat) = (conn.deadline, conn.interarrival);
                        m.inner().track(request.id, request.sl.raw(), deadline, iat);
                        m.set_deadline(request.id, deadline);
                        live.push_back((id, request.id));
                        Some((ns, Some(iat)))
                    }
                    Err(e) => {
                        stats.rejected += 1;
                        outcomes.push(TraceOutcome::Rejected(e));
                        None
                    }
                }
            }
            ChurnEvent::DepartOldest { at } => match live.pop_front() {
                None => {
                    stats.empty_departures += 1;
                    None
                }
                Some((id, flow)) => {
                    fabric.stop_flow(flow, *at);
                    ops.push(TraceOp::Teardown(flow));
                    let (torn, ns) = timed(|| frame.manager.teardown_observed(id, rec));
                    times.teardown.push(ns);
                    outcomes.push(TraceOutcome::TornDown(torn));
                    stats.departed += 1;
                    Some((ns, None))
                }
            },
        };
        let Some((call_ns, admitted_iat)) = call_ns else {
            continue;
        };
        let ((), dl_ns) = timed(|| frame.manager.apply_tables_observed(&mut fabric, rec));
        times.download.push(dl_ns);
        times.reconfig.push(call_ns + dl_ns);
        if track_configs {
            for (k, old) in ports.iter().zip(configs.iter_mut()) {
                let new = frame.manager.arb_config_for(*k);
                changed_ports += u64::from(!plane::same_config(old, &new));
                *old = new;
            }
            recompiled_ports += ports.len() as u64;
        }
        if let (ChurnEvent::Arrive { request, .. }, Some(iat)) = (event, admitted_iat) {
            // The source starts where `ChurnRunner` starts it.
            let mut flow = flow_for_connection(request, 0);
            flow.start = fabric.now() + (u64::from(request.id) * 97) % iat.max(1);
            fabric.add_flow(flow);
        }
    }
    slice_ns.push(slice.elapsed().as_nanos() as u64);
    let (_, tail_ns) = timed(|| fabric.run_until_recorded(s.horizon, &mut m, rec));
    sim_ns += tail_ns;
    slice_ns.push(tail_ns);
    let window = Window::of(&m, s.horizon, vec![sim_ns], fabric.events_processed());
    Run {
        stats,
        window,
        slice_ns,
        ops,
        outcomes,
        tables: plane::tables_digest(&frame.manager),
        changed_ports,
        recompiled_ports,
        pool_high_water: fabric.pool_usage().1,
        compiles: fabric.schedule_compiles(),
        final_configs: configs,
    }
}

/// `ChurnRunner` on the same instance must count the same admissions,
/// departures and QoS packets, and leave the same tables.
fn check_against_runner(s: &Churn, instance: u64, run: &Run, report: &mut Report) {
    let mut frame = s.frame.clone();
    let (mut fabric, mut obs) = frame.build_fabric(instance, None);
    let st = ChurnRunner::new(s.events.clone()).run(&mut frame, &mut fabric, &mut obs, s.horizon);
    let mine = run.stats;
    report.check(
        (st.admitted, st.rejected, st.departed, st.empty_departures)
            == (
                mine.admitted,
                mine.rejected,
                mine.departed,
                mine.empty_departures,
            )
            && obs.qos_packets == run.window.qos_delivered
            && plane::tables_digest(&frame.manager) == run.tables,
        || format!("churn loop diverged from ChurnRunner: {st:?} vs {mine:?}"),
    );
    let consistent = frame.manager.port_tables().check_all();
    report.check(consistent.is_ok(), || {
        format!("tables inconsistent after churn: {consistent:?}")
    });
    report.check(
        !run.outcomes.contains(&TraceOutcome::TornDown(false)),
        || "a departure found no live connection to tear down".into(),
    );
}

pub fn run(args: &Args, report: &mut Report) {
    let s = setup(args.instance);
    let c = &s.work;
    let mut times = CallTimes::default();
    let mut slices = Pieces::default();
    let reference = churn(
        c,
        args.instance,
        &mut QosObserver::new(),
        &mut NullRecorder,
        &mut times,
        false,
        &mut |_| {},
    );
    reference.slice_ns.iter().for_each(|&ns| slices.push(ns));
    // The workload's own footprint, before the checks and side
    // measurements.
    report.put("peak_rss_mb", peak_rss_mb(), "MB");
    check_against_runner(c, args.instance, &reference, report);
    report.attempted += c.events.len() as u64;

    plane::serve(&s.empty, &reference.ops, &mut ObsRecorder::new(), report);
    let mut setups = Pieces::default();
    for _ in 1..rounds(args.seconds, SECONDS_PER_ROUND) {
        slices.next_round();
        setups.next_round();
        let run = churn(
            c,
            args.instance,
            &mut QosObserver::new(),
            &mut NullRecorder,
            &mut times,
            false,
            &mut |_| setups.push(setup(args.instance).total_ns),
        );
        run.slice_ns.iter().for_each(|&ns| slices.push(ns));
        report.attempted += c.events.len() as u64;
        report.check(reference.window.same_deliveries(&run.window), || {
            "a repeat of the same instance delivered differently".into()
        });
    }
    report.put("setup_s", setups.median_s(), "s");
    report.put(
        "sim_cycles_per_s",
        c.horizon as f64 / slices.total_s(),
        "cycles/s",
    );
    put_qos(report, &reference.window, s.empty.topology().num_hosts());
    let st = reference.stats;
    report.put(
        "cac_accept_ratio",
        st.admitted as f64 / (st.admitted + st.rejected) as f64,
        "ratio",
    );
    put_admission(report, &times);
}

pub fn trace(args: &Args, report: &mut Report) {
    let s = setup(args.instance);
    let c = &s.work;
    let mut times = CallTimes::default();
    let plain = churn(
        c,
        args.instance,
        &mut QosObserver::new(),
        &mut NullRecorder,
        &mut times,
        false,
        &mut |_| {},
    );
    check_against_runner(c, args.instance, &plain, report);
    let mut layer_rec = LayerRecorder::default();
    let traced = churn(
        c,
        args.instance,
        &mut QosObserver::new(),
        &mut layer_rec,
        &mut CallTimes::default(),
        true,
        &mut |_| {},
    );
    let null = churn(
        c,
        args.instance,
        &mut NullObserver,
        &mut NullRecorder,
        &mut CallTimes::default(),
        false,
        &mut |_| {},
    );
    report.check(
        plain.window.same_deliveries(&traced.window) && plain.window.same_deliveries(&null.window),
        || "traced or NullObserver churn delivered differently".into(),
    );
    let mut serve_rec = ObsRecorder::new();
    let (served, serve_ns) = plane::serve(&s.empty, &plain.ops, &mut serve_rec, report);
    report.attempted += (c.events.len() * 3) as u64;

    report.put("topo.build_s", s.topo_s, "s");
    // No fill: connections arrive one by one while the fabric runs.
    report.put("qos.fill.busy_s", 0.0, "s");
    report.put("qos.fill.attempted", 0.0, "count");
    report.put("qos.fill.accepted", 0.0, "count");
    layers::put_calls(report, &times);
    layers::put_service(report, served, serve_ns, &times, &serve_rec);
    layers::put_alloc(report, &layer_rec);
    let tw = TracedWindows {
        plain: plain.window,
        traced: traced.window,
        null: null.window,
        layers: layer_rec,
        pool_high_water: traced.pool_high_water,
        compiles: traced.compiles,
        changed_ports: traced.changed_ports,
        recompiled_ports: traced.recompiled_ports,
    };
    let select_ns = layers::put_schedule(report, &tw, &traced.final_configs, MTU);
    layers::put_sim(report, &tw, select_ns, args.seed);
}
