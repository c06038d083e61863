//! Micro-benchmark smoke tier: a fast pass over the allocator and
//! simulator hot paths that emits machine-readable `BENCH_alloc.json`,
//! `BENCH_sim.json`, `BENCH_schedule.json`, `BENCH_audit.json`,
//! `BENCH_chaos.json` and `BENCH_cac.json` reports (schema documented
//! in `EXPERIMENTS.md`, metric semantics in `METRICS.md`).
//!
//! The JSON goes to `IBA_BENCH_OUT` (directory, default: the current
//! working directory). Intended for CI artifact upload:
//!
//! ```text
//! IBA_BENCH_SAMPLES=5 cargo run --release -p iba-bench --bin smoke
//! ```

#![forbid(unsafe_code)]

use iba_bench::microbench::{black_box, Harness, Summary};
use iba_core::rng::SplitMix64;
use iba_core::{
    AllocatorKind, ArbEntry, CompiledVlArb, Distance, ServiceLevel, VirtualLane, VlArbConfig,
    VlArbEngine,
};
use iba_harness::{run_audit, run_chaos, run_points, AuditConfig, ChaosConfig, SimPoint};
use iba_obs::{bench_json, vl_shares, BenchRecord, ObsRecorder, VlShare};
use iba_qos::{PortKey, PortTables};
use iba_sim::{Arrival, Event, EventQueue, Fabric, FlowSpec, NodeId, SimConfig};
use iba_topo::{updown, HostId, SwitchId, Topology};

/// Converts harness summaries into the JSON report records.
fn records(results: &[Summary]) -> Vec<BenchRecord> {
    results
        .iter()
        .map(|s| BenchRecord {
            name: s.name.clone(),
            iters: s.iters_per_sample,
            ns_per_op: s.median_ns,
            p50_ns: s.p50_ns,
            p99_ns: s.p99_ns,
        })
        .collect()
}

fn write_report(file: &str, json: &str) {
    let dir = std::env::var("IBA_BENCH_OUT").unwrap_or_else(|_| ".".to_string());
    let path = std::path::Path::new(&dir).join(file);
    std::fs::write(&path, json).expect("write bench report");
    println!("wrote {}", path.display());
}

/// Allocator tier: select/admit cycles over every policy.
fn bench_alloc(h: &mut Harness) {
    for kind in AllocatorKind::ALL {
        // Steady-state probe cost on a half-full table.
        let mut occ = 0u64;
        for _ in 0..16 {
            if let Some(e) = kind.select(occ, Distance::D32) {
                occ |= e.mask();
            }
        }
        h.bench(&format!("alloc/select_half_full/{}", kind.name()), || {
            let mut found = 0u32;
            for d in Distance::ALL {
                if kind.select(black_box(occ), d).is_some() {
                    found += 1;
                }
            }
            found
        });
        // The failing select: one free slot left (the policy's own
        // layout), so no E-set is free at d <= 32 and every distance
        // but 64 fails — the case that costs a probe walk all `d`
        // candidates.
        let mut occ = 0u64;
        for _ in 1..64 {
            if let Some(e) = kind.select(occ, Distance::D64) {
                occ |= e.mask();
            }
        }
        h.bench(&format!("alloc/select_full/{}", kind.name()), || {
            let mut found = 0u32;
            for d in Distance::ALL {
                if kind.select(black_box(occ), d).is_some() {
                    found += 1;
                }
            }
            found
        });
    }
    // Full admit/release round-trip through the table layer.
    h.bench("alloc/admit_release_roundtrip", || {
        let mut t = iba_core::HighPriorityTable::new();
        let adm = t
            .admit(
                ServiceLevel::new(3).unwrap(),
                VirtualLane::data(3),
                Distance::D16,
                40,
            )
            .unwrap();
        t.release(adm.sequence, 40).unwrap();
        t.free_entries()
    });
    // A rejected two-hop path: the first hop plans a fresh sequence
    // beside live ones, the second hop is at its reservation cap, so
    // the first hop's undo defragments. The tables end as they began.
    let mut tables = PortTables::new(0.8);
    let hop = |s: u16, port: u8| PortKey {
        node: NodeId::Switch(s),
        port,
    };
    let (fresh, full) = (hop(0, 1), hop(1, 2));
    for k in 0..4u8 {
        let (sl, vl) = (ServiceLevel::new(k).unwrap(), VirtualLane::data(k));
        tables
            .admit_path(&[full], sl, vl, Distance::D64, 3264)
            .unwrap();
        tables
            .admit_path(&[fresh], sl, vl, Distance::D8, 100)
            .unwrap();
    }
    let (sl, vl) = (ServiceLevel::new(5).unwrap(), VirtualLane::data(5));
    h.bench("alloc/reject_after_fresh_hop", || {
        tables
            .admit_path(black_box(&[fresh, full]), sl, vl, Distance::D16, 40)
            .is_err()
    });
    // A full-table defragmentation plan that moves nothing: every size,
    // largest first, then singles up to 64 busy entries.
    let mut t = iba_core::HighPriorityTable::new();
    let sizes = Distance::ALL.into_iter().chain([Distance::D64]);
    for (k, d) in (0u8..).zip(sizes) {
        t.admit(ServiceLevel::new(k).unwrap(), VirtualLane::data(k), d, 1)
            .unwrap();
    }
    assert_eq!(t.free_entries(), 0, "the plan covers a full table");
    t.defragment();
    assert!(t.defragment().is_empty(), "a re-pack settles");
    h.bench("alloc/defrag_plan", || t.defragment().len());
    // A defragmentation shaped like the paper fill's undos, which re-pack
    // ~14 live sequences and move ~9 of them: the first table of a
    // seeded admit/release walk whose re-pack moves 9 of 14. Every
    // iteration re-packs a fresh copy (the copy is part of the row).
    let mut rng = SplitMix64::seed_from_u64(27);
    let mut t = iba_core::HighPriorityTable::new();
    let mut live = Vec::new();
    let moving = (0..100_000)
        .find_map(|_| {
            if t.sequences().count() == 14 && t.clone().defragment().len() == 9 {
                return Some(t.clone());
            }
            if live.is_empty() || rng.gen_range(0u32..3) < 2 {
                let k = rng.gen_range(0u8..10);
                let (sl, vl) = (ServiceLevel::new(k).unwrap(), VirtualLane::data(k));
                let d = *rng.choose(&Distance::ALL).unwrap();
                let w = rng.gen_range(1u32..300);
                if let Ok(adm) = t.admit(sl, vl, d, w) {
                    live.push((adm.sequence, w));
                }
            } else {
                let (id, w) = live.swap_remove(rng.gen_range(0usize..live.len()));
                t.release(id, w).unwrap();
            }
            None
        })
        .expect("the walk reaches a table whose re-pack moves 9 of 14");
    h.bench("alloc/defrag_moving", || moving.clone().defragment().len());
    // The route walk behind every admission: `for_each_hop` over every
    // host pair of the paper fabric (16 switches, 64 hosts, instance 42).
    let topo =
        iba_topo::irregular::generate(iba_topo::irregular::IrregularConfig::paper_default(42));
    let routing = updown::compute(&topo);
    h.bench("topo/route_walk", || {
        let mut hops = 0u32;
        for src in topo.host_ids() {
            for dst in topo.host_ids() {
                routing.for_each_hop(&topo, src, dst, |_, port| {
                    hops += u32::from(black_box(port) != u8::MAX);
                });
            }
        }
        hops
    });
}

/// The 12:4 two-VL table shared by the grant benches.
fn two_vl_config() -> VlArbConfig {
    VlArbConfig {
        high: vec![
            ArbEntry {
                vl: VirtualLane::data(1),
                weight: 12,
            },
            ArbEntry {
                vl: VirtualLane::data(2),
                weight: 4,
            },
        ],
        low: vec![],
        limit_of_high_priority: 255,
    }
}

/// Arbiter tier: one WRR grant at the heart of every output port,
/// streaming through the compiled schedule the fabric uses in
/// production. The schedule is compiled once per table download and
/// amortised over every grant until the next mutation invalidates it,
/// so the steady-state op is a single `select` — the baseline row
/// measured the interpreted engine re-walking (and rebuilding) its
/// table per grant batch. Loop-shaped comparisons of the two engines
/// live in the `schedule/` tier.
fn bench_sim(h: &mut Harness) {
    let mut arb = CompiledVlArb::new(two_vl_config());
    let bytes = [256u64; 16];
    h.bench("sim/vlarb_grant_2vl", || {
        arb.select(black_box(0b0110), &bytes).is_some()
    });
    h.bench("sim/fabric_short_run", || {
        let mut f = shares_fabric();
        f.run_until(256 * 64, &mut iba_sim::NullObserver);
        f.summarize().delivered_packets
    });
    // The event queue under the fabric's access pattern: monotone
    // time, a small burst of pushes per pop, from an empty queue.
    h.bench("sim/event_queue_push_pop", || {
        let mut q = EventQueue::new();
        let mut now = 0u64;
        let mut popped = 0u32;
        for round in 0..256u32 {
            q.push(now + 256, Event::Generate { flow: round });
            q.push(now + 512, Event::Complete { node: 0, port: 0 });
            if let Some((t, _)) = q.pop() {
                now = t;
                popped += 1;
            }
        }
        while q.pop().is_some() {
            popped += 1;
        }
        black_box(popped)
    });
    // One hold (a pop and the push it triggers) at the paper-scale run's
    // depth and event mix: 9,900 CBR sources, each rescheduling its
    // Generate one interarrival time (2k to 639k cycles) later, and 110
    // busy output ports, each rescheduling its Complete one 256-byte
    // packet time later. That is ~10k pending events, mostly far ahead,
    // and ~0.5 events per cycle, most of them Complete, as in the
    // traced `paper_mtu256` run.
    let mut rng = SplitMix64::seed_from_u64(16);
    let intervals: Vec<u64> = (0..9_900).map(|_| rng.gen_range(2_000..639_000)).collect();
    let mut q = EventQueue::new();
    for (flow, &iat) in intervals.iter().enumerate() {
        q.push(rng.gen_range(0..iat), Event::Generate { flow: flow as u32 });
    }
    for node in 0..110 {
        q.push(rng.gen_range(0..256), Event::Complete { node, port: 0 });
    }
    h.bench("sim/event_queue_hold_10k", || {
        let (now, event) = q.pop().expect("every hold pushes back what it pops");
        let next = match event {
            Event::Generate { flow } => now + intervals[flow as usize],
            _ => now + 256,
        };
        q.push(next, black_box(event));
        now
    });
}

/// Schedule tier: the compiler itself. Compile cost (paid once per
/// table download) and the compiled-vs-interpreted 64-grant loop with
/// construction hoisted out of both bodies, so the two rows isolate
/// the per-grant cost difference the fabric sees.
fn bench_schedule(h: &mut Harness) {
    // Recompile cost for the small production table: this is the price
    // of one invalidation (admit / teardown / repair / fault).
    let small = two_vl_config();
    let mut arb = CompiledVlArb::new(small.clone());
    h.bench("schedule/compile_2vl", || {
        arb.reconfigure(black_box(small.clone()));
        arb.high_stream().len()
    });
    // Worst-case table: 64 high entries at the maximum weight.
    let full = VlArbConfig {
        high: (0..64)
            .map(|i| ArbEntry {
                vl: VirtualLane::data(1 + (i % 8)),
                weight: 255,
            })
            .collect(),
        low: vec![],
        limit_of_high_priority: 255,
    };
    let mut arb_full = CompiledVlArb::new(full.clone());
    h.bench("schedule/compile_64entry", || {
        arb_full.reconfigure(black_box(full.clone()));
        arb_full.high_stream().len()
    });
    // Per-grant cost, compiled stream vs interpreted WRR walk: 64
    // selects on the 2-VL table per iteration.
    let bytes = [256u64; 16];
    let mut compiled = CompiledVlArb::new(two_vl_config());
    h.bench("schedule/select_compiled_2vl_x64", || {
        let mut served = 0u32;
        for _ in 0..64 {
            if compiled.select(black_box(0b0110), &bytes).is_some() {
                served += 1;
            }
        }
        served
    });
    let mut interpreted = VlArbEngine::new(two_vl_config());
    let ready = [VirtualLane::data(1), VirtualLane::data(2)];
    h.bench("schedule/select_interpreted_2vl_x64", || {
        let mut served = 0u32;
        for _ in 0..64 {
            let grant = interpreted.select(|vl| ready.contains(&vl).then_some(256));
            if grant.is_some() {
                served += 1;
            }
        }
        served
    });
}

/// Wall-clock rows for the parallel sweep engine at fixed thread
/// counts: `harness/sweep_4pt/threads=N` with `ns_per_op` = wall time
/// per point. Also cross-checks that the merged outcomes are identical
/// at every thread count (the engine's determinism guarantee).
fn bench_harness_sweep() -> Vec<BenchRecord> {
    let points: Vec<SimPoint> = (0..4)
        .map(|i| SimPoint {
            switches: 4,
            seed: 1000 + i,
            mtu: 256,
            background: false,
            steady_packets: 4,
            reject_limit: 40,
        })
        .collect();
    let mut records = Vec::new();
    let mut reference: Option<Vec<String>> = None;
    for threads in [1usize, 2, 4] {
        let started = std::time::Instant::now();
        let (outcomes, merged) = run_points(&points, threads, None);
        let wall = started.elapsed();
        let rendered: Vec<String> = outcomes.iter().map(|o| o.render()).collect();
        match &reference {
            None => reference = Some(rendered),
            Some(r) => assert_eq!(*r, rendered, "sweep output diverged at {threads} threads"),
        }
        assert_eq!(merged.metrics.harness_runs.get(), points.len() as u64);
        let per_point = wall.as_nanos() as f64 / points.len() as f64;
        records.push(BenchRecord {
            name: format!("harness/sweep_4pt/threads={threads}"),
            iters: points.len() as u64,
            ns_per_op: per_point,
            p50_ns: per_point,
            p99_ns: per_point,
        });
        println!(
            "harness sweep: 4 points, {threads} thread(s), {:.3}s wall",
            wall.as_secs_f64()
        );
    }
    records
}

/// Audit tier: wall time of the service-guarantee audit drive per
/// allocator, plus a cross-check of the paper's claim — bit reversal
/// must audit clean; the strawmen report their violation counts.
fn bench_audit() -> Vec<BenchRecord> {
    let mut records = Vec::new();
    for kind in AllocatorKind::ALL {
        let cfg = AuditConfig::new(kind, 4096, 42);
        let started = std::time::Instant::now();
        let out = run_audit(&cfg, None);
        let wall = started.elapsed();
        if kind == AllocatorKind::BitReversal {
            assert!(
                out.passed(),
                "bit-reversal audit failed:\n{}",
                out.render_report()
            );
        }
        println!(
            "audit {}: {} violation(s), {} fallback install(s), {:.3}s wall",
            kind.name(),
            out.violations(),
            out.fallback_installs,
            wall.as_secs_f64()
        );
        let per_grant = wall.as_nanos() as f64 / cfg.grants.max(1) as f64;
        records.push(BenchRecord {
            name: format!("audit/drive/{}", kind.name()),
            iters: cfg.grants,
            ns_per_op: per_grant,
            p50_ns: per_grant,
            p99_ns: per_grant,
        });
    }
    records
}

/// Chaos tier: wall time of the fault-injection + recovery drive, plus
/// a cross-check of the recovery claim — bit-reversal must recover
/// with zero post-repair violations; first-fit is the negative control
/// and must stay in violation.
fn bench_chaos() -> Vec<BenchRecord> {
    let mut records = Vec::new();
    for kind in [AllocatorKind::BitReversal, AllocatorKind::FirstFit] {
        let mut cfg = ChaosConfig::new(kind, 4096, 42);
        cfg.sweep_points = 2;
        let started = std::time::Instant::now();
        let out = run_chaos(&cfg, 2);
        let wall = started.elapsed();
        if kind == AllocatorKind::BitReversal {
            assert!(
                out.passed(),
                "bit-reversal chaos recovery failed:\n{}",
                out.render_report()
            );
        } else {
            assert!(
                !out.passed(),
                "first-fit negative control unexpectedly recovered clean"
            );
        }
        println!(
            "chaos {}: {} post-repair violation(s), {} evicted, {} reinstalled, \
             {} fault(s) injected, {:.3}s wall",
            kind.name(),
            out.violations(),
            out.recovery.evicted,
            out.recovery.reinstalled,
            out.metrics.fault_injected.get(),
            wall.as_secs_f64()
        );
        let rounds = u64::from(cfg.rounds.max(1));
        let per_round = wall.as_nanos() as f64 / rounds as f64;
        records.push(BenchRecord {
            name: format!("chaos/recover/{}", kind.name()),
            iters: rounds,
            ns_per_op: per_round,
            p50_ns: per_round,
            p99_ns: per_round,
        });
    }
    records
}

/// The 2-VL weighted fabric used both as a benchmark body and as the
/// instrumented run behind `per_vl_shares` (weights 12:4 = 3:1).
fn shares_fabric() -> Fabric {
    let mut t = Topology::new(1, 4);
    t.attach_host(SwitchId(0), 0);
    t.attach_host(SwitchId(0), 1);
    t.attach_host(SwitchId(0), 2);
    let r = updown::compute(&t);
    let mut f = Fabric::new(t, r, SimConfig::paper_default(256));
    f.set_uniform_tables(&VlArbConfig {
        high: vec![
            ArbEntry {
                vl: VirtualLane::data(1),
                weight: 12,
            },
            ArbEntry {
                vl: VirtualLane::data(2),
                weight: 4,
            },
        ],
        low: vec![],
        limit_of_high_priority: 255,
    });
    for (id, src, sl) in [(1u32, 0u16, 1u8), (2, 1, 2)] {
        f.add_flow(FlowSpec {
            id,
            src: HostId(src),
            dst: HostId(2),
            sl: ServiceLevel::new(sl).unwrap(),
            packet_bytes: 256,
            arrival: Arrival::Cbr { interval: 256 },
            start: 0,
            stop: None,
        });
    }
    f
}

/// Measured per-VL serviced-bytes shares from an instrumented run.
fn measured_shares() -> Vec<VlShare> {
    let mut f = shares_fabric();
    let mut rec = ObsRecorder::new();
    f.run_until_recorded(256 * 2000, &mut iba_sim::NullObserver, &mut rec);
    vl_shares(&rec.metrics)
}

/// CAC tier: sustained end-to-end admissions over a repair-free
/// admit/teardown trace, through the sequential `QosManager`
/// (`cac/sequential`) and through the journaled admission service
/// (`cac/serve`), on the same segments, so the service's cost over the
/// manager it must match is visible. Each row
/// reports the per-admission cost (`ns_per_op`, i.e. `1e9 / ns`
/// admissions per second sustained) with p50/p99 over the per-segment
/// admit latencies. Every segment's service outcome vector is asserted
/// byte-identical to the sequential one — a bench run doubles as a
/// determinism check.
fn bench_cac() -> Vec<BenchRecord> {
    use iba_qos::service::{apply_trace_sequential, generate_trace, run_trace, TraceConfig};
    use iba_qos::{QosManager, TraceOutcome};

    const SEGMENTS: usize = 8;
    const TRACE_LEN: usize = 256;

    let build = || {
        let topo = iba_topo::irregular::generate(
            iba_topo::irregular::IrregularConfig::with_switches(4, 42),
        );
        let hosts = topo.num_hosts() as u16;
        let routing = updown::compute(&topo);
        (
            QosManager::new(topo, routing, iba_core::SlTable::paper_table1()),
            hosts,
        )
    };
    let (_, hosts) = build();
    let traces: Vec<_> = (0..SEGMENTS)
        .map(|s| {
            generate_trace(&TraceConfig {
                repair_pct: 0,
                ..TraceConfig::new(hosts, 42 + s as u64, TRACE_LEN)
            })
        })
        .collect();
    let timed = |run: &mut dyn FnMut() -> Vec<TraceOutcome>| {
        let started = std::time::Instant::now();
        let outcomes = run();
        (outcomes, started.elapsed().as_nanos() as f64)
    };

    let mut reference: Vec<Vec<TraceOutcome>> = Vec::new();
    let mut records = Vec::new();
    for served in [false, true] {
        let mut samples_ns: Vec<f64> = Vec::with_capacity(SEGMENTS);
        let mut admissions = 0u64;
        let mut wall_ns = 0f64;
        for (s, ops) in traces.iter().enumerate() {
            let (mut mgr, _) = build();
            let mut rec = ObsRecorder::new();
            let (outcomes, ns) = if served {
                timed(&mut || run_trace(&mgr, ops, 1, &mut rec).outcomes)
            } else {
                timed(&mut || apply_trace_sequential(&mut mgr, ops, &mut rec))
            };
            if served {
                assert_eq!(
                    outcomes, reference[s],
                    "serve outcomes diverge (segment {s})"
                );
            } else {
                reference.push(outcomes.clone());
            }
            let accepted = outcomes
                .iter()
                .filter(|o| matches!(o, TraceOutcome::Admitted { .. }))
                .count() as u64;
            samples_ns.push(ns / accepted.max(1) as f64);
            admissions += accepted;
            wall_ns += ns;
        }
        samples_ns.sort_by(|a, b| a.total_cmp(b));
        let pct = |q: f64| samples_ns[((samples_ns.len() - 1) as f64 * q).round() as usize];
        let ns_per_op = wall_ns / admissions.max(1) as f64;
        let name = if served {
            "cac/serve"
        } else {
            "cac/sequential"
        }
        .to_string();
        println!(
            "{name}: {admissions} admissions, {:.0} admissions/s sustained, p99 admit {:.0} ns",
            1e9 / ns_per_op,
            pct(0.99),
        );
        records.push(BenchRecord {
            name,
            iters: admissions,
            ns_per_op,
            p50_ns: pct(0.50),
            p99_ns: pct(0.99),
        });
    }
    records
}

/// Download tier: table downloads on the paper-scale filled frame (16
/// switches, 64 hosts, the Table-1 fill at 256 B, instance 42).
/// `cac/download_unchanged` re-downloads tables no mutation touched;
/// `cac/download_after_admit` times the download that follows one
/// admission (after an untimed teardown of the same connection and its
/// download). `ns_per_op` is the median download; p50/p99 are over the
/// individual downloads.
fn bench_download() -> Vec<BenchRecord> {
    const DOWNLOADS: usize = 2000;
    let mut frame = iba_harness::build_experiment_sized(256, 16, 42, 120).frame;
    let (mut fabric, _) = frame.build_fabric(42, None);
    let record = |name: &str, mut samples: Vec<f64>| {
        samples.sort_by(|a, b| a.total_cmp(b));
        let pct = |q: f64| samples[((samples.len() - 1) as f64 * q).round() as usize];
        println!(
            "{name}: {} downloads, p50 {:.0} ns, p99 {:.0} ns",
            samples.len(),
            pct(0.50),
            pct(0.99)
        );
        BenchRecord {
            name: name.to_string(),
            iters: samples.len() as u64,
            ns_per_op: pct(0.50),
            p50_ns: pct(0.50),
            p99_ns: pct(0.99),
        }
    };
    let timed_download = |frame: &iba_qos::QosFrame, fabric: &mut Fabric| {
        let started = std::time::Instant::now();
        frame.manager.apply_tables(fabric);
        started.elapsed().as_nanos() as f64
    };

    let unchanged: Vec<f64> = (0..DOWNLOADS)
        .map(|_| timed_download(&frame, &mut fabric))
        .collect();

    let live: Vec<_> = frame
        .manager
        .connections()
        .map(|(id, c)| (id, c.request))
        .take(DOWNLOADS)
        .collect();
    let mut after_admit = Vec::with_capacity(live.len());
    for (id, request) in live {
        assert!(frame.manager.teardown(id), "a live connection tears down");
        frame.manager.apply_tables(&mut fabric);
        if frame.manager.request(&request).is_ok() {
            after_admit.push(timed_download(&frame, &mut fabric));
        }
    }
    let compiles = fabric.schedule_compiles();
    frame.manager.apply_tables(&mut fabric);
    assert_eq!(
        fabric.schedule_compiles(),
        compiles,
        "a download with no mutation recompiled"
    );
    vec![
        record("cac/download_unchanged", unchanged),
        record("cac/download_after_admit", after_admit),
    ]
}

fn main() {
    let mut h = Harness::from_env();
    bench_alloc(&mut h);
    let alloc_results = records(h.results());
    write_report(
        "BENCH_alloc.json",
        &bench_json("alloc", &alloc_results, &[]),
    );

    let mut h2 = Harness::from_env();
    bench_sim(&mut h2);
    let mut sim_results = records(h2.results());
    sim_results.extend(bench_harness_sweep());
    let shares = measured_shares();
    write_report("BENCH_sim.json", &bench_json("sim", &sim_results, &shares));

    let mut h3 = Harness::from_env();
    bench_schedule(&mut h3);
    let schedule_results = records(h3.results());
    write_report(
        "BENCH_schedule.json",
        &bench_json("schedule", &schedule_results, &[]),
    );

    write_report(
        "BENCH_audit.json",
        &bench_json("audit", &bench_audit(), &[]),
    );

    write_report(
        "BENCH_chaos.json",
        &bench_json("chaos", &bench_chaos(), &[]),
    );

    let mut cac = bench_cac();
    cac.extend(bench_download());
    write_report("BENCH_cac.json", &bench_json("cac", &cac, &[]));

    h.finish();
    h2.finish();
    h3.finish();
}
