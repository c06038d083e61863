//! Command implementations. Every command returns its report as a
//! `String` so the logic is testable without capturing stdout.

use crate::args::Args;
use iba_core::{Distance, HighPriorityTable, ServiceLevel, SlTable, VirtualLane};
use iba_harness::{build_experiment_sized, Experiment};
use iba_qos::QosFrame;
use iba_sim::SimConfig;
use iba_stats::Table;
use iba_topo::irregular::{generate, IrregularConfig};
use iba_topo::{dot, updown, validate};
use iba_traffic::{RequestGenerator, WorkloadConfig};
use std::fmt::Write as _;

fn build_topo(args: &Args) -> (iba_topo::Topology, iba_topo::RoutingTable) {
    let topo = generate(IrregularConfig::with_switches(args.switches, args.seed));
    let routing = updown::compute(&topo);
    (topo, routing)
}

/// `ibaqos topo`
#[must_use]
pub fn topo(args: &Args) -> String {
    let (topo, routing) = build_topo(args);
    if args.dot {
        return dot::to_dot(&topo, Some(&routing));
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "fabric: {} switches / {} hosts ({} ports per switch), seed {}",
        topo.num_switches(),
        topo.num_hosts(),
        topo.ports_per_switch(),
        args.seed
    );
    let _ = writeln!(out, "up*/down* root: {}", routing.root());
    let _ = writeln!(
        out,
        "mean path length: {:.2} switches",
        validate::mean_path_switches(&topo, &routing)
    );
    if let Some((s, p, load)) = validate::hottest_channel(&topo, &routing) {
        let _ = writeln!(
            out,
            "hottest channel: {s} port {p} ({load} pairs route through)"
        );
    }
    match validate::check_deadlock_freedom(&topo, &routing) {
        Ok(()) => {
            let _ = writeln!(out, "channel dependency graph: acyclic (deadlock-free)");
        }
        Err(e) => {
            let _ = writeln!(out, "DEADLOCK HAZARD: {e}");
        }
    }
    out
}

/// `ibaqos fill`
#[must_use]
pub fn fill(args: &Args) -> String {
    let Experiment {
        frame,
        fill: report,
        ..
    } = build_experiment_sized(args.mtu, args.switches, args.seed, 120);

    let mut t = Table::new("Admission fill", &["Metric", "Value"]);
    t.row(vec!["attempted".into(), report.attempted.to_string()]);
    t.row(vec!["accepted".into(), report.accepted.to_string()]);
    t.row(vec![
        "offered load (bytes/cycle total)".into(),
        format!("{:.3}", report.offered_load),
    ]);
    let (h, s) = frame.manager.reservation_summary();
    t.row(vec![
        "mean host-link reservation (Mbps)".into(),
        format!("{h:.1}"),
    ]);
    t.row(vec![
        "mean switch-link reservation (Mbps)".into(),
        format!("{s:.1}"),
    ]);

    let mut out = t.render();
    let mut per_sl = Table::new("\nConnections per SL", &["SL", "count"]);
    for slp in frame.manager.sl_table().qos_profiles() {
        let n = frame
            .manager
            .connections()
            .filter(|(_, c)| c.request.sl == slp.sl)
            .count();
        per_sl.row(vec![slp.sl.to_string(), n.to_string()]);
    }
    out.push_str(&per_sl.render());
    out
}

/// `ibaqos run`
#[must_use]
pub fn run_experiment(args: &Args) -> String {
    let Experiment { frame, fill, .. } =
        build_experiment_sized(args.mtu, args.switches, args.seed, 120);

    let bg = args
        .background
        .then(iba_traffic::besteffort::BackgroundConfig::default);
    let (mut fabric, mut obs) = frame.build_fabric(args.seed, bg.as_ref());
    let transient = frame.steady_state_cycles(2);
    fabric.run_until(transient, &mut obs);
    obs.reset_samples();
    fabric.reset_stats();
    fabric.run_until(
        transient + frame.steady_state_cycles(args.steady_packets),
        &mut obs,
    );
    let st = fabric.summarize();

    let mut t = Table::new("Experiment summary", &["Metric", "Value"]);
    t.row(vec!["connections".into(), fill.accepted.to_string()]);
    t.row(vec![
        "QoS packets delivered".into(),
        obs.qos_packets.to_string(),
    ]);
    t.row(vec![
        "best-effort packets".into(),
        obs.be_packets.to_string(),
    ]);
    t.row(vec![
        "QoS delivered (bytes/cycle/node)".into(),
        format!(
            "{:.4}",
            obs.qos_bytes as f64
                / st.window.max(1) as f64
                / frame.manager.topology().num_hosts() as f64
        ),
    ]);
    t.row(vec![
        "QoS utilization host / switch (%)".into(),
        format!(
            "{:.2} / {:.2}",
            st.host_link_qos_utilization, st.switch_link_qos_utilization
        ),
    ]);
    let misses: u64 = obs.delay_by_sl.groups().map(|(_, d)| d.missed()).sum();
    t.row(vec![
        "deadline misses".into(),
        format!("{misses} / {}", obs.qos_packets),
    ]);
    let worst = obs
        .delay_by_sl
        .groups()
        .map(|(_, d)| d.max_ratio())
        .fold(0.0f64, f64::max);
    t.row(vec!["worst delay/deadline".into(), format!("{worst:.4}")]);

    let mut out = t.render();
    let mut per_sl = Table::new(
        "\nPer-SL delay (fractions of deadline D)",
        &["SL", "packets", "% <= D/10", "% <= D/2", "% <= D", "max/D"],
    );
    for (sl, d) in obs.delay_by_sl.groups() {
        let pct = d.percentages();
        per_sl.row(vec![
            format!("SL {sl}"),
            d.total().to_string(),
            format!("{:.2}", pct[2]),
            format!("{:.2}", pct[5]),
            format!("{:.2}", pct[7]),
            format!("{:.3}", d.max_ratio()),
        ]);
    }
    out.push_str(&per_sl.render());
    out
}

/// Writes a Perfetto/Chrome trace-event JSON timeline built from the
/// given span, ring-trace and per-request sources (any may be absent).
fn write_perfetto(
    path: &str,
    spans: Option<&iba_obs::SpanRecorder>,
    sim: Option<&iba_obs::RingTracer>,
    requests: &[(u64, iba_obs::TraceEvent)],
) -> Result<String, String> {
    let json = iba_obs::perfetto_trace_full(spans, sim, requests).pretty();
    std::fs::write(path, &json).map_err(|e| format!("cannot write '{path}': {e}"))?;
    Ok(format!(
        "perfetto timeline written to {path} ({} bytes) — open with ui.perfetto.dev\n",
        json.len()
    ))
}

/// The machine-readable first line of an SLO report — the line CI
/// greps for on stderr.
fn slo_first_line(report: &iba_obs::SloReport) -> String {
    report
        .render()
        .lines()
        .next()
        .unwrap_or_default()
        .to_string()
}

/// Parses `--slo` and evaluates it over the given windows.
fn evaluate_slo(
    spec: &str,
    windows: &[(u64, &iba_obs::Metrics)],
) -> Result<iba_obs::SloReport, String> {
    let spec = iba_obs::SloSpec::parse(spec).map_err(|e| format!("slo: {e}"))?;
    Ok(spec.evaluate(windows))
}

/// Writes a flight-recorder bundle into `--flight-dir` (created if
/// absent) and reports what landed there.
fn write_flight_bundle(dir: &str, input: &iba_obs::FlightInput<'_>) -> Result<String, String> {
    let files = iba_obs::flight_build(input);
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create '{dir}': {e}"))?;
    for (name, contents) in &files {
        let path = std::path::Path::new(dir).join(name);
        std::fs::write(&path, contents)
            .map_err(|e| format!("cannot write '{}': {e}", path.display()))?;
    }
    Ok(format!(
        "flight recorder bundle written to {dir} ({} file(s))\n",
        files.len()
    ))
}

/// `ibaqos sweep` — one experiment per seed (`--seeds` points starting
/// at `--seed`), sharded over `--threads` workers by the deterministic
/// parallel engine. The table is identical at any thread count. With
/// `--perfetto` the workers also record wall-clock spans, exported as a
/// per-thread timeline.
pub fn sweep(args: &Args) -> Result<String, String> {
    let threads = if args.threads > 0 {
        args.threads
    } else {
        iba_harness::threads_from_env()
    };
    let points: Vec<iba_harness::SimPoint> = (0..args.seeds)
        .map(|i| iba_harness::SimPoint {
            switches: args.switches,
            seed: args.seed + i,
            mtu: args.mtu,
            background: args.background,
            steady_packets: args.steady_packets,
            reject_limit: 120,
        })
        .collect();
    let span_capacity = args.perfetto.is_some().then_some(64 * 1024);
    let (outcomes, merged) = iba_harness::run_points(&points, threads, span_capacity);

    let mut t = Table::new(
        "Seed sweep",
        &[
            "Seed",
            "Connections",
            "Delivered (B/cyc/node)",
            "QoS util (%)",
            "Packets",
            "Digest",
        ],
    );
    for o in &outcomes {
        t.row(vec![
            o.point.seed.to_string(),
            format!("{}/{}", o.accepted, o.attempted),
            format!("{:.4}", o.delivered_per_node),
            format!("{:.2}", o.qos_utilization),
            o.delivered_packets.to_string(),
            format!("{:016x}", o.delivery_digest),
        ]);
    }
    let mut out = t.render();
    let _ = writeln!(
        out,
        "\n{} run(s) on {} worker thread(s); {} sim events merged",
        merged.metrics.harness_runs.get(),
        merged.metrics.harness_threads.get(),
        merged.metrics.sim_events.get(),
    );
    if let Some(path) = &args.perfetto {
        out.push_str(&write_perfetto(path, merged.spans.as_ref(), None, &[])?);
    }
    Ok(out)
}

/// Fill + simulate with instrumentation: the shared body of `report`
/// and `trace`. Every admission attempt and every arbitration grant of
/// the steady-state window lands in `rec`.
fn run_instrumented(args: &Args, rec: &mut iba_obs::ObsRecorder) {
    let (topo, routing) = build_topo(args);
    let sl_table = SlTable::paper_table1();
    let mut frame = QosFrame::new(
        topo.clone(),
        routing,
        sl_table.clone(),
        SimConfig::paper_default(args.mtu),
    );
    let mut gen = RequestGenerator::new(
        &topo,
        &sl_table,
        &WorkloadConfig::new(args.mtu, args.seed ^ 0xF00D),
    );
    frame.fill_observed(&mut gen, 120, 100_000, rec);

    let bg = args
        .background
        .then(iba_traffic::besteffort::BackgroundConfig::default);
    let (mut fabric, mut obs) = frame.build_fabric(args.seed, bg.as_ref());
    let steady = frame.steady_state_cycles(args.steady_packets);
    fabric.run_until_recorded(steady, &mut obs, rec);
}

/// `ibaqos report` — per-VL metrics and serviced-bytes shares. With
/// `--prom` the same registry is rendered in Prometheus text
/// exposition format instead (golden-tested byte for byte).
#[must_use]
pub fn report(args: &Args) -> String {
    let mut rec = iba_obs::ObsRecorder::new();
    run_instrumented(args, &mut rec);
    if args.prom {
        iba_obs::render_prom(&rec.metrics)
    } else {
        iba_obs::render_metrics(&rec.metrics)
    }
}

/// `ibaqos trace` — the newest `--limit` ring-buffer events as text.
/// With `--perfetto`, spans and sim events are additionally merged onto
/// one Perfetto timeline.
pub fn trace(args: &Args) -> Result<String, String> {
    let mut rec = iba_obs::ObsRecorder::with_tracer(4096);
    if args.perfetto.is_some() {
        rec.spans = Some(iba_obs::SpanRecorder::new(16 * 1024));
    }
    run_instrumented(args, &mut rec);
    let tracer = rec.tracer.as_ref().ok_or("tracer installed above")?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace: {} event(s) retained, {} dropped (ring capacity 4096)",
        tracer.len(),
        tracer.dropped()
    );
    for line in tracer.render(args.limit) {
        let _ = writeln!(out, "{line}");
    }
    if let Some(path) = &args.perfetto {
        out.push_str(&write_perfetto(
            path,
            rec.spans.as_ref(),
            rec.tracer.as_ref(),
            &[],
        )?);
    }
    Ok(out)
}

/// `ibaqos audit` — fills one port's table with paper-Table-1 requests
/// under the selected `--allocator`, drives the arbitration engine to
/// saturation and audits every grant against the contracted per-SL
/// distance budgets. Returns `Err` (non-zero process exit) when any
/// guarantee was violated, so CI can assert both directions.
pub fn audit(args: &Args) -> Result<String, String> {
    let cfg = iba_harness::AuditConfig::new(args.allocator, args.mtu, args.seed);
    let mut spans = iba_obs::SpanRecorder::new(1024);
    let outcome = iba_harness::run_audit(&cfg, Some(&mut spans));
    let mut out = outcome.render_report();
    if let Some(path) = &args.perfetto {
        out.push_str(&write_perfetto(
            path,
            Some(&spans),
            outcome.auditor.tracer(),
            &[],
        )?);
    }
    // SLO gating: the audit has no timeline, so the spec is evaluated
    // over a single pseudo-window holding the auditor's exported
    // registry (audit_gap_max / audit_bound_cycles /
    // audit_violations_total).
    let mut exported = iba_obs::Metrics::new();
    outcome.auditor.export_into(&mut exported);
    let slo_report = match &args.slo {
        Some(spec) => {
            let report = evaluate_slo(spec, &[(0, &exported)])?;
            report.stamp(&mut exported);
            out.push_str(&report.render());
            Some(report)
        }
        None => None,
    };
    let verdict_pass = outcome.passed();
    let slo_pass = slo_report.as_ref().is_none_or(|r| r.pass);
    if !verdict_pass || !slo_pass {
        if let Some(dir) = &args.flight_dir {
            let reason = if verdict_pass {
                slo_first_line(slo_report.as_ref().expect("slo failed"))
            } else {
                format!(
                    "audit: verdict=FAIL violations={} allocator={} mtu={} seed={}",
                    outcome.violations(),
                    args.allocator.name(),
                    args.mtu,
                    args.seed,
                )
            };
            out.push_str(&write_flight_bundle(
                dir,
                &iba_obs::FlightInput {
                    reason: &reason,
                    metrics: &exported,
                    timeline: None,
                    tracer: outcome.auditor.tracer(),
                    requests: &[],
                    slo: slo_report.as_ref(),
                    tail_windows: 8,
                },
            )?);
        }
    }
    if !verdict_pass {
        // Failure contract: the first stderr line is machine-readable.
        return Err(format!(
            "audit: verdict=FAIL violations={} allocator={} mtu={} seed={}\n{out}",
            outcome.violations(),
            args.allocator.name(),
            args.mtu,
            args.seed,
        ));
    }
    if !slo_pass {
        return Err(format!(
            "{}\n{out}",
            slo_first_line(slo_report.as_ref().expect("slo failed"))
        ));
    }
    Ok(out)
}

/// `ibaqos chaos` — fills a port's table, injects `--rounds` of seeded
/// corruption each answered by the guarantee-preserving
/// `RecoveryManager`, re-audits the repaired table against the original
/// contracts, and runs a faulted full-fabric sweep (seeded fault plans
/// through the event calendar) whose delivery digest witnesses
/// determinism. Returns `Err` (non-zero process exit, machine-readable
/// first stderr line) when recovery leaves a violation or an
/// inconsistent table behind.
pub fn chaos(args: &Args) -> Result<String, String> {
    let mut cfg = iba_harness::ChaosConfig::new(args.allocator, args.mtu, args.seed);
    cfg.rounds = args.rounds;
    cfg.sweep_points = args.seeds as usize;
    let threads = if args.threads == 0 {
        iba_harness::threads_from_env()
    } else {
        args.threads
    };
    let outcome = iba_harness::run_chaos(&cfg, threads);
    let mut out = outcome.render_report();
    // SLO gating over a single pseudo-window: the post-repair
    // auditor's exported registry plus the fault-injection totals.
    let mut exported = iba_obs::Metrics::new();
    outcome.audit.auditor.export_into(&mut exported);
    exported.fault_injected.add(outcome.faults_injected);
    let slo_report = match &args.slo {
        Some(spec) => {
            let report = evaluate_slo(spec, &[(0, &exported)])?;
            report.stamp(&mut exported);
            out.push_str(&report.render());
            Some(report)
        }
        None => None,
    };
    let verdict_pass = outcome.passed();
    let slo_pass = slo_report.as_ref().is_none_or(|r| r.pass);
    if !verdict_pass || !slo_pass {
        if let Some(dir) = &args.flight_dir {
            let reason = if verdict_pass {
                slo_first_line(slo_report.as_ref().expect("slo failed"))
            } else {
                outcome.summary_line()
            };
            out.push_str(&write_flight_bundle(
                dir,
                &iba_obs::FlightInput {
                    reason: &reason,
                    metrics: &exported,
                    timeline: None,
                    tracer: outcome.audit.auditor.tracer(),
                    requests: &[],
                    slo: slo_report.as_ref(),
                    tail_windows: 8,
                },
            )?);
        }
    }
    if !verdict_pass {
        return Err(format!("{}\n{out}", outcome.summary_line()));
    }
    if !slo_pass {
        return Err(format!(
            "{}\n{out}",
            slo_first_line(slo_report.as_ref().expect("slo failed"))
        ));
    }
    Ok(out)
}

/// `ibaqos serve` — drives a seeded admit/teardown/repair trace
/// through the journaled admission service and differentially audits
/// it against the sequential `QosManager` on outcomes, final tables and
/// shared metrics. With `--replay` the full replay report is printed.
/// Returns `Err` (non-zero process exit, machine-readable first stderr
/// line) on any divergence or consistency failure.
pub fn serve(args: &Args) -> Result<String, String> {
    let cfg = iba_harness::ServeConfig::new(args.switches, args.seed, args.requests);
    // `--slo`/`--flight-dir`/`--perfetto` need the windowed run: a
    // timeline keyed by finalized trace operations plus per-request
    // trace records for span reassembly and request tracks.
    let windowed = args.slo.is_some() || args.flight_dir.is_some() || args.perfetto.is_some();
    let mut outcome = iba_harness::run_serve(&cfg, windowed.then_some(args.window));
    let mut out = if args.replay {
        outcome.render_report()
    } else {
        format!(
            "{}\n{}",
            outcome.summary_line(),
            format_args!(
                "trace: accepted={} rejected={} released={} live={}",
                outcome.report.accepted,
                outcome.report.rejected,
                outcome.report.released,
                outcome.report.live.len(),
            )
        )
    };
    if let Some(path) = &args.perfetto {
        // Request tracks: one pid-3 track per request id, the causal
        // dispatch -> commit/abort -> finalize chain. The ring
        // tracer is skipped here — its Request records are the same
        // ones already drained into `request_records`.
        out.push_str(&write_perfetto(
            path,
            None,
            None,
            &outcome.report.request_records,
        )?);
    }
    let slo_report = match &args.slo {
        Some(spec) => {
            let report = match &outcome.recorder.timeline {
                Some(tl) => {
                    let windows: Vec<(u64, &iba_obs::Metrics)> =
                        tl.windows().iter().map(|(i, m)| (*i, m)).collect();
                    evaluate_slo(spec, &windows)?
                }
                None => evaluate_slo(spec, &[(0, &outcome.recorder.metrics)])?,
            };
            // Stamp after the replay report above was rendered, so the
            // report is not perturbed by the verdict.
            report.stamp(&mut outcome.recorder.metrics);
            out.push('\n');
            out.push_str(&report.render());
            Some(report)
        }
        None => None,
    };
    let verdict_pass = outcome.passed();
    let slo_pass = slo_report.as_ref().is_none_or(|r| r.pass);
    if !verdict_pass || !slo_pass {
        if let Some(dir) = &args.flight_dir {
            let reason = if verdict_pass {
                slo_first_line(slo_report.as_ref().expect("slo failed"))
            } else {
                outcome.summary_line()
            };
            out.push_str(&write_flight_bundle(
                dir,
                &iba_obs::FlightInput {
                    reason: &reason,
                    metrics: &outcome.recorder.metrics,
                    timeline: outcome.recorder.timeline.as_ref(),
                    tracer: outcome.recorder.tracer.as_ref(),
                    requests: &outcome.report.request_records,
                    slo: slo_report.as_ref(),
                    tail_windows: 8,
                },
            )?);
        }
    }
    if !verdict_pass {
        return Err(format!("{}\n{out}", outcome.summary_line()));
    }
    if !slo_pass {
        return Err(format!(
            "{}\n{out}",
            slo_first_line(slo_report.as_ref().expect("slo failed"))
        ));
    }
    Ok(out)
}

/// `ibaqos chaos-serve` — drives the journaled admission service under
/// a seeded control-plane fault calendar (owner crashes, lost or
/// duplicated requests, lost replies) and audits the survivor for
/// convergence to the sequential manager plus exactly-once reservation
/// semantics. `--no-journal` is the negative control: the same
/// calendar must then lose reservations and FAIL (machine-readable
/// `chaos-serve: verdict=FAIL` first line on stderr).
pub fn chaos_serve(args: &Args) -> Result<String, String> {
    let mut cfg = iba_harness::ChaosServeConfig::new(args.switches, args.seed, args.requests);
    cfg.journal = !args.no_journal;
    let windowed = args.slo.is_some() || args.flight_dir.is_some() || args.perfetto.is_some();
    let mut outcome = iba_harness::run_chaos_serve(&cfg, windowed.then_some(args.window));
    let mut out = if args.replay {
        outcome.render_report()
    } else {
        let f = &outcome.fault_stats;
        format!(
            "{}\n{}",
            outcome.summary_line(),
            format_args!(
                "faults: crashes={} request_losses={} duplicates={} reply_losses={} timeouts={}",
                f.crashes, f.request_losses, f.duplicates, f.reply_losses, f.timeouts,
            )
        )
    };
    if let Some(path) = &args.perfetto {
        out.push_str(&write_perfetto(
            path,
            None,
            None,
            &outcome.report.request_records,
        )?);
    }
    let slo_report = match &args.slo {
        Some(spec) => {
            let report = match &outcome.recorder.timeline {
                Some(tl) => {
                    let windows: Vec<(u64, &iba_obs::Metrics)> =
                        tl.windows().iter().map(|(i, m)| (*i, m)).collect();
                    evaluate_slo(spec, &windows)?
                }
                None => evaluate_slo(spec, &[(0, &outcome.recorder.metrics)])?,
            };
            report.stamp(&mut outcome.recorder.metrics);
            out.push('\n');
            out.push_str(&report.render());
            Some(report)
        }
        None => None,
    };
    let verdict_pass = outcome.passed();
    let slo_pass = slo_report.as_ref().is_none_or(|r| r.pass);
    if !verdict_pass || !slo_pass {
        if let Some(dir) = &args.flight_dir {
            let reason = if verdict_pass {
                slo_first_line(slo_report.as_ref().expect("slo failed"))
            } else {
                outcome.summary_line()
            };
            out.push_str(&write_flight_bundle(
                dir,
                &iba_obs::FlightInput {
                    reason: &reason,
                    metrics: &outcome.recorder.metrics,
                    timeline: outcome.recorder.timeline.as_ref(),
                    tracer: outcome.recorder.tracer.as_ref(),
                    requests: &outcome.report.request_records,
                    slo: slo_report.as_ref(),
                    tail_windows: 8,
                },
            )?);
        }
    }
    if !verdict_pass {
        return Err(format!("{}\n{out}", outcome.summary_line()));
    }
    if !slo_pass {
        return Err(format!(
            "{}\n{out}",
            slo_first_line(slo_report.as_ref().expect("slo failed"))
        ));
    }
    Ok(out)
}

/// `ibaqos timeline` — runs `--seeds` seeded experiments with a
/// windowed timeline aggregator attached to every run and merges the
/// per-run deltas in seed order. The `--json` document (schema
/// `iba.timeline.v1`) is byte-identical at any `--threads`, which CI
/// verifies with `cmp`. With `--slo` the spec is evaluated over the
/// merged windows; a breach exits non-zero (machine-readable
/// `slo: verdict=FAIL` first line) and, with `--flight-dir`, dumps a
/// flight-recorder bundle.
pub fn timeline(args: &Args) -> Result<String, String> {
    let threads = if args.threads > 0 {
        args.threads
    } else {
        iba_harness::threads_from_env()
    };
    let mut cfg =
        iba_harness::TimelineConfig::new(args.switches, args.seed, args.seeds, args.window);
    cfg.mtu = args.mtu;
    cfg.steady_packets = args.steady_packets;
    let mut outcome = iba_harness::run_timeline(&cfg, threads);
    let mut out = if args.json {
        outcome.to_json_string()
    } else {
        outcome.render()
    };
    let slo_report = match &args.slo {
        Some(spec) => {
            let report = {
                let windows: Vec<(u64, &iba_obs::Metrics)> = outcome
                    .timeline()
                    .windows()
                    .iter()
                    .map(|(i, m)| (*i, m))
                    .collect();
                evaluate_slo(spec, &windows)?
            };
            report.stamp(&mut outcome.recorder.metrics);
            // Keep `--json` output the bare TIMELINE.json document (CI
            // byte-compares it); the verdict then only reaches stderr.
            if !args.json {
                out.push_str(&report.render());
            }
            Some(report)
        }
        None => None,
    };
    let slo_pass = slo_report.as_ref().is_none_or(|r| r.pass);
    if !slo_pass {
        if let Some(dir) = &args.flight_dir {
            let reason = slo_first_line(slo_report.as_ref().expect("slo failed"));
            let note = write_flight_bundle(
                dir,
                &iba_obs::FlightInput {
                    reason: &reason,
                    metrics: &outcome.recorder.metrics,
                    timeline: Some(outcome.timeline()),
                    tracer: outcome.recorder.tracer.as_ref(),
                    requests: &[],
                    slo: slo_report.as_ref(),
                    tail_windows: 8,
                },
            )?;
            if !args.json {
                out.push_str(&note);
            }
        }
        return Err(format!(
            "{}\n{out}",
            slo_first_line(slo_report.as_ref().expect("slo failed"))
        ));
    }
    Ok(out)
}

/// `ibaqos demo` — a narrated walk through the paper's algorithm.
#[must_use]
pub fn demo() -> String {
    let mut out = String::new();
    let mut table = HighPriorityTable::new();
    let _ = writeln!(
        out,
        "The 64-entry high-priority table, filled by the bit-reversal policy.\n\
         Requests: (SL, distance d, weight w) -> max(64/d, ceil(w/255)) entries.\n"
    );

    let script: &[(u8, Distance, u32, &str)] = &[
        (0, Distance::D2, 64, "strict video: entries every 2 slots"),
        (6, Distance::D64, 200, "bulk transfer: a single entry"),
        (
            6,
            Distance::D64,
            55,
            "second bulk connection joins the same entry",
        ),
        (
            2,
            Distance::D8,
            80,
            "interactive stream: entries every 8 slots",
        ),
        (
            6,
            Distance::D64,
            30,
            "third bulk connection forces a new entry",
        ),
    ];
    let mut live = Vec::new();
    for &(sl_id, d, w, note) in script {
        let sl = ServiceLevel::new(sl_id).unwrap();
        let adm = table
            .admit(sl, VirtualLane::data(sl_id), d, w)
            .expect("demo requests fit");
        live.push((adm.sequence, w));
        let info = table.sequence(adm.sequence).unwrap();
        let _ = writeln!(
            out,
            "admit SL{sl_id} {d} w={w:<3} -> {} {} (slots {:?}, {} conn(s), weight {}): {note}",
            if adm.new_sequence { "NEW " } else { "JOIN" },
            info.eset,
            info.eset.slots().collect::<Vec<_>>().len(),
            info.connections,
            info.total_weight,
        );
        let _ = writeln!(out, "{}", render_occupancy(&table));
    }

    let _ = writeln!(
        out,
        "\nnow release the strict d=2 connection — defragmentation re-packs:"
    );
    let (first, w) = live.remove(0);
    let moves = table.release(first, w).unwrap();
    let _ = writeln!(out, "{} sequence(s) relocated", moves.len());
    let _ = writeln!(out, "{}", render_occupancy(&table));
    let _ = writeln!(
        out,
        "free entries: {}; a new d=2 request (32 entries) fits again: {}",
        table.free_entries(),
        table.can_admit(ServiceLevel::new(0).unwrap(), Distance::D2, 64),
    );
    out
}

fn render_occupancy(table: &HighPriorityTable) -> String {
    let mut s = String::with_capacity(70);
    s.push_str("  [");
    for slot in table.slots() {
        s.push(if slot.is_free() { '.' } else { '#' });
    }
    s.push(']');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(cmd: crate::Command) -> Args {
        Args {
            command: cmd,
            switches: 2,
            seed: 3,
            mtu: 256,
            steady_packets: 2,
            limit: 32,
            seeds: 2,
            threads: 0,
            ..Args::default()
        }
    }

    #[test]
    fn topo_summary_mentions_root_and_deadlock() {
        let out = topo(&args(crate::Command::Topo));
        assert!(out.contains("up*/down* root"));
        assert!(out.contains("deadlock-free"));
    }

    #[test]
    fn topo_dot_output() {
        let mut a = args(crate::Command::Topo);
        a.dot = true;
        let out = topo(&a);
        assert!(out.starts_with("graph fabric {"));
    }

    #[test]
    fn fill_reports_counts() {
        let out = fill(&args(crate::Command::Fill));
        assert!(out.contains("accepted"));
        assert!(out.contains("Connections per SL"));
    }

    #[test]
    fn run_reports_misses() {
        let out = run_experiment(&args(crate::Command::Run));
        assert!(out.contains("deadline misses"));
        assert!(out.contains("Per-SL delay"));
    }

    #[test]
    fn sweep_is_thread_count_invariant() {
        let mut a = args(crate::Command::Sweep);
        a.seeds = 3;
        a.threads = 1;
        let serial = sweep(&a).unwrap();
        a.threads = 3;
        let parallel = sweep(&a).unwrap();
        // Identical table; the footer differs only in the thread count.
        let table = |s: &str| {
            s.lines()
                .take_while(|l| !l.is_empty())
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(table(&serial), table(&parallel));
        assert!(
            serial.contains("3 run(s) on 1 worker thread(s)"),
            "{serial}"
        );
        assert!(
            parallel.contains("3 run(s) on 3 worker thread(s)"),
            "{parallel}"
        );
    }

    #[test]
    fn report_renders_per_vl_shares() {
        let out = report(&args(crate::Command::Report));
        assert!(out.contains("metrics:"), "{out}");
        assert!(out.contains("arb_bytes_total"), "{out}");
        assert!(out.contains("per-VL serviced-bytes shares"), "{out}");
        assert!(out.contains("share="), "{out}");
        assert!(out.contains("cac_admit_total"), "{out}");
    }

    #[test]
    fn report_on_empty_registry_does_not_panic() {
        let out = iba_obs::render_metrics(&iba_obs::Metrics::new());
        assert!(out.contains("no data recorded"));
    }

    #[test]
    fn trace_decodes_events() {
        let mut a = args(crate::Command::Trace);
        a.limit = 8;
        let out = trace(&a).unwrap();
        assert!(out.starts_with("trace:"), "{out}");
        assert!(out.contains("grant"), "{out}");
        // --limit 8: header plus at most 8 event lines.
        assert!(out.lines().count() <= 9, "{out}");
    }

    #[test]
    fn audit_passes_for_bit_reversal_and_fails_for_first_fit() {
        let mut a = args(crate::Command::Audit);
        a.mtu = 4096;
        a.seed = 42;
        let passing = audit(&a).expect("bit-reversal must audit clean");
        assert!(passing.contains("verdict: PASS"), "{passing}");
        assert!(passing.contains("allocator=bit-reversal"), "{passing}");
        a.allocator = iba_core::AllocatorKind::FirstFit;
        let failing = audit(&a).expect_err("first-fit must be indicted");
        assert!(failing.contains("verdict: FAIL"), "{failing}");
        assert!(failing.contains("worst offender"), "{failing}");
    }

    #[test]
    fn audit_writes_a_parseable_perfetto_file() {
        let path =
            std::env::temp_dir().join(format!("ibaqos_audit_perfetto_{}.json", std::process::id()));
        let mut a = args(crate::Command::Audit);
        a.mtu = 4096;
        a.seed = 42;
        a.allocator = iba_core::AllocatorKind::FirstFit;
        a.perfetto = Some(path.to_string_lossy().into_owned());
        let report = audit(&a).expect_err("first-fit fails, but the file is still written");
        assert!(report.contains("perfetto timeline written"), "{report}");
        let text = std::fs::read_to_string(&path).unwrap();
        let json = iba_obs::Json::parse(&text).expect("valid JSON");
        let events = json.get("traceEvents").expect("traceEvents key");
        assert!(matches!(events, iba_obs::Json::Array(v) if !v.is_empty()));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn report_prom_renders_exposition() {
        let mut a = args(crate::Command::Report);
        a.prom = true;
        let out = report(&a);
        assert!(out.starts_with("# TYPE"), "{out}");
        assert!(out.contains("# TYPE cac_admit_total counter"), "{out}");
        assert!(out.contains("arb_bytes_total{vl="), "{out}");
    }

    #[test]
    fn timeline_command_renders_and_json_is_thread_invariant() {
        let mut a = args(crate::Command::Timeline);
        a.switches = 4;
        a.seeds = 2;
        a.window = 2048;
        a.threads = 1;
        let text = timeline(&a).unwrap();
        assert!(text.starts_with("timeline sweep:"), "{text}");
        assert!(text.contains("runs:"), "{text}");
        a.json = true;
        let serial = timeline(&a).unwrap();
        assert!(serial.contains("iba.timeline.v1"), "{serial}");
        a.threads = 3;
        assert_eq!(serial, timeline(&a).unwrap(), "TIMELINE.json not invariant");
    }

    #[test]
    fn timeline_slo_gates_and_dumps_flight_bundle() {
        let dir =
            std::env::temp_dir().join(format!("ibaqos_timeline_flight_{}", std::process::id()));
        let mut a = args(crate::Command::Timeline);
        a.switches = 4;
        a.seeds = 2;
        a.window = 2048;
        a.slo = Some("rate(sim_events_total) >= 1".into());
        let ok = timeline(&a).expect("busy windows satisfy the floor");
        assert!(ok.contains("slo: verdict=PASS"), "{ok}");
        // An impossible ceiling must breach, exit Err and dump.
        a.slo = Some("rate(sim_events_total) == 0".into());
        a.flight_dir = Some(dir.to_string_lossy().into_owned());
        let err = timeline(&a).expect_err("every busy window breaches");
        assert!(err.starts_with("slo: verdict=FAIL"), "{err}");
        let manifest = std::fs::read_to_string(dir.join("MANIFEST.txt")).unwrap();
        assert!(manifest.contains("iba.flight.v1"), "{manifest}");
        assert!(manifest.contains("timeline_tail.json"), "{manifest}");
        assert!(dir.join("metrics.prom").exists());
        assert!(dir.join("slo.txt").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_slo_gates_and_dumps_request_traces() {
        let dir = std::env::temp_dir().join(format!("ibaqos_serve_flight_{}", std::process::id()));
        let mut a = args(crate::Command::Serve);
        a.switches = 4;
        a.seed = 3;
        a.requests = 48;
        a.window = 16;
        a.slo = Some("rate(cac_admit_total) >= 1 burn 0.99".into());
        let ok = serve(&a).expect("admissions happen");
        assert!(ok.contains("slo: verdict=PASS"), "{ok}");
        // The tight spec from CI: zero admissions can never hold.
        a.slo = Some("rate(cac_admit_total) == 0".into());
        a.flight_dir = Some(dir.to_string_lossy().into_owned());
        let err = serve(&a).expect_err("admissions breach the zero-rate spec");
        assert!(err.starts_with("slo: verdict=FAIL"), "{err}");
        let manifest = std::fs::read_to_string(dir.join("MANIFEST.txt")).unwrap();
        assert!(manifest.contains("requests.txt"), "{manifest}");
        let requests = std::fs::read_to_string(dir.join("requests.txt")).unwrap();
        assert!(requests.contains("request"), "{requests}");
        assert!(dir.join("timeline_tail.json").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_perfetto_export_carries_request_tracks() {
        let path =
            std::env::temp_dir().join(format!("ibaqos_serve_perfetto_{}.json", std::process::id()));
        let mut a = args(crate::Command::Serve);
        a.switches = 4;
        a.seed = 3;
        a.requests = 24;
        a.perfetto = Some(path.to_string_lossy().into_owned());
        let report = serve(&a).expect("serve passes");
        assert!(report.contains("perfetto timeline written"), "{report}");
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"requests\""), "missing pid-3 track: {json}");
        assert!(json.contains("traceEvents"), "{json}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn chaos_serve_passes_and_negative_control_fails() {
        let mut a = args(crate::Command::ChaosServe);
        a.switches = 4;
        a.seed = 7;
        a.requests = 48;
        let out = chaos_serve(&a).expect("faulted service converges with the journal on");
        assert!(out.starts_with("chaos-serve: verdict=PASS"), "{out}");
        assert!(out.contains("crashes="), "{out}");
        // The negative control: same calendar, journal off — crashes
        // must lose reservations, and the machine-readable FAIL line
        // must lead stderr.
        a.no_journal = true;
        let err = chaos_serve(&a).expect_err("journal-off run must fail");
        assert!(
            err.lines()
                .next()
                .unwrap_or_default()
                .starts_with("chaos-serve: verdict=FAIL"),
            "{err}"
        );
    }

    #[test]
    fn chaos_serve_replay_is_deterministic() {
        let replay = || {
            let mut a = args(crate::Command::ChaosServe);
            a.switches = 4;
            a.seed = 7;
            a.requests = 48;
            a.replay = true;
            chaos_serve(&a).expect("chaos-serve passes")
        };
        let report = replay();
        assert_eq!(report, replay());
        assert!(report.contains("verdict: PASS"), "{report}");
    }

    #[test]
    fn audit_and_chaos_slo_gate_on_exported_registry() {
        let mut a = args(crate::Command::Audit);
        a.mtu = 4096;
        a.seed = 42;
        a.slo = Some("rate(audit_violations_total) == 0".into());
        let ok = audit(&a).expect("bit-reversal audits clean");
        assert!(ok.contains("slo: verdict=PASS"), "{ok}");
        a.slo = Some("rate(audit_violations_total) >= 1".into());
        let err = audit(&a).expect_err("clean audit breaches a violation floor");
        assert!(err.starts_with("slo: verdict=FAIL"), "{err}");

        let mut c = args(crate::Command::Chaos);
        c.mtu = 4096;
        c.seed = 42;
        c.rounds = 1;
        c.seeds = 1;
        c.threads = 1;
        c.slo = Some("rate(fault_injected_total) >= 1".into());
        let ok = chaos(&c).expect("chaos injects faults and recovers");
        assert!(ok.contains("slo: verdict=PASS"), "{ok}");
        c.slo = Some("rate(fault_injected_total) == 0".into());
        let err = chaos(&c).expect_err("injected faults breach the zero spec");
        assert!(err.starts_with("slo: verdict=FAIL"), "{err}");
    }

    #[test]
    fn demo_walkthrough_is_stable() {
        let out = demo();
        assert!(out.contains("NEW"));
        assert!(out.contains("JOIN"));
        assert!(out.contains("relocated"));
        assert!(out.contains("fits again: true"));
    }
}
