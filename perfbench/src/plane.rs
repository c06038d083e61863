//! Pieces every workload shares: the fabric under management, timed
//! calls into the subnet manager, table downloads and measured
//! simulation windows.

use crate::observe::{LayerRecorder, MeasureObserver};
use crate::report::{fnv64, stopwatch, timed, Pieces, Report};
use iba_core::{SlTable, VlArbConfig};
use iba_obs::{NullRecorder, ObsRecorder, Recorder};
use iba_qos::service::{apply_trace_sequential, run_trace, TraceOp, TraceOutcome};
use iba_qos::{PortKey, PortTables, QosFrame, QosManager, QosObserver};
use iba_sim::{Fabric, NodeId, Observer};
use iba_topo::irregular::{generate, IrregularConfig};
use iba_topo::{updown, PortPeer, Topology};
use iba_traffic::besteffort::BackgroundConfig;
use std::collections::BTreeMap;

/// Switches in the paper-scale fabric (64 hosts).
const SWITCHES: usize = 16;

/// A workload's set-up: the empty subnet manager over the paper-scale
/// fabric, what the workload builds on it, and how long both took.
pub struct Setup<W> {
    /// The manager before any connection, with the Table-1 SLs.
    pub empty: QosManager,
    pub work: W,
    /// Topology and up*/down* routing.
    pub topo_s: f64,
    pub total_ns: u64,
}

/// Builds the irregular fabric, its routing and an empty manager, then
/// the workload's own part with `build`; times the whole.
pub fn set_up<W>(instance: u64, build: impl FnOnce(&QosManager) -> W) -> Setup<W> {
    let t = stopwatch();
    let (topo, topo_ns) = timed(|| generate(IrregularConfig::with_switches(SWITCHES, instance)));
    let (routing, routing_ns) = timed(|| updown::compute(&topo));
    let empty = QosManager::new(topo, routing, SlTable::paper_table1());
    let work = build(&empty);
    Setup {
        empty,
        work,
        topo_s: (topo_ns + routing_ns) as f64 * 1e-9,
        total_ns: t.elapsed().as_nanos() as u64,
    }
}

/// Seed of the QoS flows' start phases on the configured fabric.
pub fn phase_seed(instance: u64) -> u64 {
    instance ^ 0xABCD
}

/// Every output port `apply_tables` downloads, in its order.
pub fn output_ports(topo: &Topology) -> Vec<PortKey> {
    let mut keys = Vec::new();
    for s in topo.switch_ids() {
        for p in 0..topo.ports_per_switch() {
            if !matches!(topo.peer(s, p), PortPeer::Free) {
                keys.push(PortKey {
                    node: NodeId::Switch(s.0),
                    port: p,
                });
            }
        }
    }
    for h in topo.host_ids() {
        keys.push(PortKey {
            node: NodeId::Host(h.0),
            port: 0,
        });
    }
    keys
}

/// Digest of the manager's table state (equal digests, equal tables).
pub fn tables_digest(mgr: &QosManager) -> u64 {
    fnv_tables(mgr.port_tables())
}

/// Digest of a table registry.
pub fn fnv_tables(tables: &PortTables) -> u64 {
    fnv64(format!("{tables:?}").as_bytes())
}

/// Host time of the subnet manager's calls, one piece per call. Every
/// round repeats the same calls; each call counts at its fastest round.
#[derive(Default)]
pub struct CallTimes {
    pub request: Pieces,
    pub teardown: Pieces,
    pub download: Pieces,
    /// One piece per reconfiguration: the admission call (if any) plus
    /// the download that makes it live.
    pub reconfig: Pieces,
}

impl CallTimes {
    /// Starts the next round of admission calls.
    pub fn next_calls_round(&mut self) {
        self.request.next_round();
        self.teardown.next_round();
    }

    /// Starts the next round of downloads (and reconfigurations).
    pub fn next_downloads_round(&mut self) {
        self.download.next_round();
        self.reconfig.next_round();
    }

    /// Starts recording the next round of everything.
    pub fn next_round(&mut self) {
        self.next_calls_round();
        self.next_downloads_round();
    }

    /// Admission calls per round.
    pub fn ops(&self) -> usize {
        self.request.len() + self.teardown.len()
    }

    /// Host seconds spent inside `request` and `teardown` per round.
    pub fn admission_s(&self) -> f64 {
        self.request.total_s() + self.teardown.total_s()
    }

    /// Latency of every admission call, in microseconds.
    pub fn admission_us(&self) -> Vec<f64> {
        let mut v = self.request.fastest_ns();
        v.extend(self.teardown.fastest_ns());
        v.iter().map(|ns| ns * 1e-3).collect()
    }

    /// Reconfiguration latencies in microseconds.
    pub fn reconfig_us(&self) -> Vec<f64> {
        self.reconfig
            .fastest_ns()
            .iter()
            .map(|ns| ns * 1e-3)
            .collect()
    }
}

/// Drives a trace through the manager call by call, timing each
/// `request`/`teardown`; returns the outcome vector
/// `apply_trace_sequential` would produce.
pub fn drive_trace(
    mgr: &mut QosManager,
    ops: &[TraceOp],
    times: &mut CallTimes,
    rec: &mut dyn Recorder,
) -> Vec<TraceOutcome> {
    let mut ids = BTreeMap::new();
    let mut out = Vec::with_capacity(ops.len());
    for op in ops {
        out.push(match op {
            TraceOp::Admit(req) => {
                let (r, ns) = timed(|| mgr.request_observed(req, rec));
                times.request.push(ns);
                match r {
                    Ok(id) => {
                        ids.insert(req.id, id);
                        TraceOutcome::Admitted { rid: req.id }
                    }
                    Err(e) => TraceOutcome::Rejected(e),
                }
            }
            TraceOp::Teardown(rid) => match ids.remove(rid) {
                Some(id) => {
                    let (torn, ns) = timed(|| mgr.teardown_observed(id, rec));
                    times.teardown.push(ns);
                    TraceOutcome::TornDown(torn)
                }
                None => TraceOutcome::TornDown(false),
            },
            TraceOp::Repair { .. } => unreachable!("benchmark traces are repair-free"),
        });
    }
    out
}

/// Operations at the start of a workload's trace that the sharded
/// service serves.
const SERVE_OPS: usize = 5_000;

/// Serves the first `SERVE_OPS` operations of `ops` through `run_trace`
/// at one shard (coordinator plus one worker) from the empty manager.
/// They must give the outcomes and tables `apply_trace_sequential`
/// gives. Returns the operations served and the host nanoseconds the
/// service took.
pub fn serve(
    empty: &QosManager,
    ops: &[TraceOp],
    rec: &mut ObsRecorder,
    report: &mut Report,
) -> (usize, u64) {
    let prefix = &ops[..SERVE_OPS.min(ops.len())];
    let mut mgr = empty.clone();
    let expected = apply_trace_sequential(&mut mgr, prefix, &mut NullRecorder);
    let (served, ns) = timed(|| run_trace(empty, prefix, 1, rec));
    report.check(
        served.outcomes == expected && fnv_tables(&served.tables) == tables_digest(&mgr),
        || "run_trace diverged from apply_trace_sequential".into(),
    );
    report.attempted += prefix.len() as u64;
    (prefix.len(), ns)
}

/// Admission outcomes that admitted a connection.
pub fn admitted(outcomes: &[TraceOutcome]) -> usize {
    outcomes
        .iter()
        .filter(|o| matches!(o, TraceOutcome::Admitted { .. }))
        .count()
}

/// Deadline per flow id for every live connection (0 elsewhere).
pub fn deadlines(mgr: &QosManager) -> Vec<u64> {
    let mut d = Vec::new();
    for (_, c) in mgr.connections() {
        let id = c.request.id as usize;
        if id >= d.len() {
            d.resize(id + 1, 0);
        }
        d[id] = c.deadline;
    }
    d
}

/// The configured fabric of the paper's runs: tables downloaded, QoS
/// flows with seeded phases, best-effort background.
pub fn build_fabric(frame: &QosFrame, phase_seed: u64) -> (Fabric, QosObserver) {
    frame.build_fabric(phase_seed, Some(&BackgroundConfig::default()))
}

/// Downloads sampled per round on workloads that configure the fabric
/// once: each recompiles every port from the same tables, so each is
/// one sample of a full reconfiguration.
const DOWNLOAD_SAMPLES: usize = 500;

/// The next round of downloads: re-downloads the manager's tables
/// `DOWNLOAD_SAMPLES` times, timing each, after two untimed downloads
/// that warm the caches the same way for every sample. Before the
/// fabric has run, a re-download leaves it exactly as it was.
pub fn sample_downloads(mgr: &QosManager, fabric: &mut Fabric, times: &mut CallTimes) {
    assert_eq!(fabric.events_processed(), 0, "sample before the run starts");
    times.next_downloads_round();
    mgr.apply_tables(fabric);
    mgr.apply_tables(fabric);
    for _ in 0..DOWNLOAD_SAMPLES {
        let ((), ns) = timed(|| mgr.apply_tables(fabric));
        times.download.push(ns);
        times.reconfig.push(ns);
    }
}

/// Equal slices of simulated time a window is timed in.
pub const SIM_CHUNKS: u64 = 200;

/// One measured simulation window.
#[derive(Clone, Debug, Default)]
pub struct Window {
    pub cycles: u64,
    pub busy_s: f64,
    /// Host time of each slice of the window.
    pub chunk_ns: Vec<u64>,
    pub events: u64,
    /// Delivery digest and count after each slice; only after the last
    /// for windows not run slice by slice.
    pub checkpoints: Vec<(u64, u64)>,
    pub qos_delivered: u64,
    pub qos_missed: u64,
    pub qos_bytes: u64,
    pub p99_ratio: f64,
}

impl Window {
    /// What `m` saw over `cycles` simulated cycles, timed in `chunk_ns`.
    pub fn of<O: Observer>(
        m: &MeasureObserver<'_, O>,
        cycles: u64,
        chunk_ns: Vec<u64>,
        events: u64,
    ) -> Self {
        Window {
            cycles,
            busy_s: chunk_ns.iter().sum::<u64>() as f64 * 1e-9,
            chunk_ns,
            events,
            checkpoints: vec![(m.digest, m.delivered)],
            qos_delivered: m.qos_delivered,
            qos_missed: m.qos_missed,
            qos_bytes: m.qos_bytes,
            p99_ratio: m.delay_ratio_quantile(0.99),
        }
    }

    pub fn miss_ratio(&self) -> f64 {
        self.qos_missed as f64 / self.qos_delivered.max(1) as f64
    }

    /// Packets delivered.
    pub fn delivered(&self) -> u64 {
        self.checkpoints.last().map_or(0, |c| c.1)
    }

    /// Same packets delivered at the same times, up to the end of the
    /// shorter of the two windows.
    pub fn same_deliveries(&self, other: &Window) -> bool {
        let n = self.checkpoints.len().min(other.checkpoints.len());
        n > 0 && self.checkpoints[n - 1] == other.checkpoints[n - 1]
    }

    /// Times the window's first `n` slices as the next round of `sim`.
    pub fn time_into(&self, sim: &mut Pieces, n: u64) {
        sim.next_round();
        for &ns in &self.chunk_ns[..n as usize] {
            sim.push(ns);
        }
    }
}

/// Runs the first `slices` of the `SIM_CHUNKS` slices of the window from
/// now to `t_end` under `observer`, timed slice by slice, with every
/// delivery digested and scored against `deadlines`. `between(k)` runs
/// after slice `k`, outside its timing: other measurements interleave
/// there, so each samples the host across the whole run.
pub fn run_window<O: Observer, R: Recorder>(
    fabric: &mut Fabric,
    observer: &mut O,
    deadlines: Vec<u64>,
    (t_end, slices): (u64, u64),
    rec: &mut R,
    between: &mut dyn FnMut(u64),
) -> Window {
    let start = fabric.now();
    let events0 = fabric.events_processed();
    let mut m = MeasureObserver::new(observer, deadlines);
    let mut checkpoints = Vec::new();
    let chunk_ns: Vec<u64> = (1..=slices)
        .map(|k| {
            let ns = timed(|| fabric.run_until_recorded(slice_end(start, t_end, k), &mut m, rec)).1;
            checkpoints.push((m.digest, m.delivered));
            between(k);
            ns
        })
        .collect();
    Window {
        checkpoints,
        ..Window::of(
            &m,
            slice_end(start, t_end, slices) - start,
            chunk_ns,
            fabric.events_processed() - events0,
        )
    }
}

/// End of slice `k` (1-based) of the window `start..t_end`.
fn slice_end(start: u64, t_end: u64, k: u64) -> u64 {
    start + (t_end - start) * k / SIM_CHUNKS
}

/// The paper's measurement protocol on a configured fabric: a
/// transient of twice the slowest interarrival time, then a steady
/// window until the slowest connection emitted `steady_packets`
/// packets, of which the first `slices` slices run. Returns the steady
/// window.
fn transient_then_steady<O: Observer>(
    frame: &QosFrame,
    fabric: &mut Fabric,
    observer: &mut O,
    (steady_packets, slices): (u64, u64),
    between: &mut dyn FnMut(u64),
) -> Window {
    let t_end = warm_up(frame, fabric, steady_packets);
    run_window(
        fabric,
        observer,
        deadlines(&frame.manager),
        (t_end, slices),
        &mut NullRecorder,
        between,
    )
}

/// Runs the transient (its deliveries go nowhere, so an observer sees
/// exactly the steady window) and returns the end of the steady window.
fn warm_up(frame: &QosFrame, fabric: &mut Fabric, steady_packets: u64) -> u64 {
    let transient = frame.steady_state_cycles(1) * 2;
    fabric.run_until(transient, &mut iba_sim::NullObserver);
    fabric.reset_stats();
    transient + frame.steady_state_cycles(steady_packets)
}

/// The first `slices` slices of a measured window on a fabric
/// configured once (see [`transient_then_steady`]), under
/// `QosObserver`. The program's own observer must agree with the
/// benchmark's scoring.
pub fn static_unit(
    frame: &QosFrame,
    phase_seed: u64,
    window: (u64, u64),
    report: &mut Report,
    between: &mut dyn FnMut(u64),
) -> Window {
    let (mut fabric, mut obs) = build_fabric(frame, phase_seed);
    let w = transient_then_steady(frame, &mut fabric, &mut obs, window, between);
    let missed: u64 = obs.delay_by_sl.groups().map(|(_, d)| d.missed()).sum();
    report.check(
        obs.qos_packets == w.qos_delivered && missed == w.qos_missed,
        || {
            format!(
                "QosObserver counted {} delivered / {missed} missed, benchmark {} / {}",
                obs.qos_packets, w.qos_delivered, w.qos_missed
            )
        },
    );
    report.attempted += w.delivered();
    w
}

/// The per-layer view of one steady window: run untraced, traced, and
/// under `NullObserver` on three fabrics in lockstep, slice by slice, so
/// the three timings share the host's conditions.
pub struct TracedWindows {
    pub plain: Window,
    pub traced: Window,
    pub null: Window,
    pub layers: LayerRecorder,
    pub pool_high_water: usize,
    pub compiles: u64,
    /// Port downloads that changed the port's table, out of
    /// `recompiled_ports` downloads.
    pub changed_ports: u64,
    pub recompiled_ports: u64,
}

impl TracedWindows {
    pub fn measure(frame: &QosFrame, phase_seed: u64, steady_packets: u64) -> Self {
        let (mut plain_fabric, mut plain_obs) = build_fabric(frame, phase_seed);
        let (mut traced_fabric, mut traced_obs) = build_fabric(frame, phase_seed);
        let (mut null_fabric, _) = build_fabric(frame, phase_seed);
        let t_end = warm_up(frame, &mut plain_fabric, steady_packets);
        warm_up(frame, &mut traced_fabric, steady_packets);
        warm_up(frame, &mut null_fabric, steady_packets);
        let (start, events0) = (plain_fabric.now(), plain_fabric.events_processed());
        let d = deadlines(&frame.manager);
        let mut null_obs = iba_sim::NullObserver;
        let mut plain = MeasureObserver::new(&mut plain_obs, d.clone());
        let mut traced = MeasureObserver::new(&mut traced_obs, d.clone());
        let mut null = MeasureObserver::new(&mut null_obs, d);
        let mut layers = LayerRecorder::default();
        let mut ns: [Vec<u64>; 3] = Default::default();
        for k in 1..=SIM_CHUNKS {
            let until = slice_end(start, t_end, k);
            ns[0].push(
                timed(|| plain_fabric.run_until_recorded(until, &mut plain, &mut NullRecorder)).1,
            );
            ns[1].push(
                timed(|| traced_fabric.run_until_recorded(until, &mut traced, &mut layers)).1,
            );
            ns[2].push(
                timed(|| null_fabric.run_until_recorded(until, &mut null, &mut NullRecorder)).1,
            );
        }
        let [plain_ns, traced_ns, null_ns] = ns;
        let events = plain_fabric.events_processed() - events0;
        let default = Fabric::default_arb_config();
        let ports = output_ports(frame.manager.topology());
        let changed_ports = ports
            .iter()
            .filter(|&&k| !same_config(&frame.manager.arb_config_for(k), &default))
            .count() as u64;
        TracedWindows {
            plain: Window::of(&plain, t_end - start, plain_ns, events),
            traced: Window::of(&traced, t_end - start, traced_ns, events),
            null: Window::of(&null, t_end - start, null_ns, events),
            layers,
            pool_high_water: traced_fabric.pool_usage().1,
            compiles: traced_fabric.schedule_compiles(),
            changed_ports,
            recompiled_ports: ports.len() as u64,
        }
    }

    /// Whether the three windows delivered the same packets.
    pub fn consistent(&self) -> bool {
        self.plain.same_deliveries(&self.traced) && self.plain.same_deliveries(&self.null)
    }
}

/// Whether two arbitration configurations are identical.
pub fn same_config(a: &VlArbConfig, b: &VlArbConfig) -> bool {
    a.high == b.high && a.low == b.low && a.limit_of_high_priority == b.limit_of_high_priority
}
