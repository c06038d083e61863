//! Determinism contract of the parallel experiment engine.
//!
//! The harness promises *byte-identical* results for any worker count:
//! runs are sharded over threads, but the merge is order-independent
//! (results re-sorted by run id, metrics merged commutatively). These
//! tests pin that promise at the workspace level, on top of the pooled
//! packet buffers and the timing-wheel event queue — the two hot-path
//! structures whose internal layout must never leak into results.

use iba_obs::NullRecorder;
use infiniband_qos::harness::{
    build_experiment_sized, run_measured, run_points, threads_from_env, SimPoint,
};

/// Four heterogeneous sweep points: two topology sizes, two seeds, two
/// MTUs — small enough for debug-mode CI, varied enough that a
/// scheduling bug would misattribute results across points.
fn sweep_points() -> Vec<SimPoint> {
    let mut pts = Vec::new();
    for (switches, seed, mtu) in [(4, 11, 256), (4, 12, 1024), (6, 11, 256), (6, 12, 1024)] {
        pts.push(SimPoint {
            switches,
            seed,
            mtu,
            background: false,
            steady_packets: 3,
            reject_limit: 40,
        });
    }
    pts
}

/// Renders the merged metric registry minus `harness_threads`, the one
/// gauge that is *supposed* to differ between runs (it records the
/// worker count itself).
fn metrics_fingerprint(rec: &iba_obs::ObsRecorder) -> String {
    iba_obs::render_metrics(&rec.metrics)
        .lines()
        .filter(|l| !l.contains("harness_threads"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// The headline guarantee: the same sweep at 1, 2 and 8 workers yields
/// byte-identical rendered outcomes *and* an identical merged metrics
/// registry (sans the thread-count gauge).
#[test]
fn sweep_is_byte_identical_at_1_2_and_8_threads() {
    let points = sweep_points();
    let (base_outcomes, base_rec) = run_points(&points, 1);
    let base_rendered: Vec<String> = base_outcomes.iter().map(|o| o.render()).collect();
    let base_metrics = metrics_fingerprint(&base_rec);
    assert_eq!(base_rec.metrics.harness_runs.get(), points.len() as u64);

    for threads in [2, 8] {
        let (outcomes, rec) = run_points(&points, threads);
        let rendered: Vec<String> = outcomes.iter().map(|o| o.render()).collect();
        assert_eq!(
            rendered, base_rendered,
            "outcomes diverged at {threads} threads"
        );
        assert_eq!(
            metrics_fingerprint(&rec),
            base_metrics,
            "merged metrics diverged at {threads} threads"
        );
        // The engine never spawns more workers than there are runs.
        assert_eq!(
            rec.metrics.harness_threads.get(),
            threads.min(points.len()) as i64
        );
    }
}

/// `IBA_THREADS` is the user-facing knob for the same guarantee: wire
/// it through `threads_from_env` and check the sweep still replays.
/// (This is the only test in this binary that touches the environment.)
#[test]
fn iba_threads_env_var_is_honoured_and_preserves_results() {
    let points = sweep_points();
    let (base_outcomes, _) = run_points(&points, 1);
    let base: Vec<String> = base_outcomes.iter().map(|o| o.render()).collect();

    for setting in ["2", "8"] {
        std::env::set_var("IBA_THREADS", setting);
        let threads = threads_from_env();
        assert_eq!(threads, setting.parse::<usize>().unwrap());
        let (outcomes, _) = run_points(&points, threads);
        let rendered: Vec<String> = outcomes.iter().map(|o| o.render()).collect();
        assert_eq!(rendered, base, "IBA_THREADS={setting} changed results");
    }
    std::env::remove_var("IBA_THREADS");
}

/// Instrumentation must be a pure observer: a recorded run (per-event
/// metric hooks active through the event queue and packet pool)
/// delivers the same packets in the same order as a plain run — the
/// FNV-1a delivery digest is the witness.
#[test]
fn recorded_run_equals_plain_run_under_pool_and_calendar_queue() {
    for (mtu, seed) in [(256u32, 7u64), (1024, 8)] {
        let exp = build_experiment_sized(mtu, 4, seed, 40);
        let plain = run_measured(&exp, 3, false, None, &mut NullRecorder);
        let mut rec = iba_obs::ObsRecorder::new();
        let recorded = run_measured(&exp, 3, false, None, &mut rec);
        assert_eq!(
            plain.delivery_digest, recorded.delivery_digest,
            "mtu={mtu} seed={seed}: recording changed the event order"
        );
        assert_eq!(plain.delivery_count, recorded.delivery_count);
        assert!(
            rec.metrics.sim_events.get() > 0,
            "recorded run observed no events"
        );
    }
}

/// Replaying the exact same experiment twice (fresh Fabric each time,
/// same pooled buffers and queue implementations) is bit-stable — the
/// pool's slab recycling must not introduce allocation-order effects.
#[test]
fn replay_is_bit_stable() {
    let exp = build_experiment_sized(256, 4, 21, 40);
    let a = run_measured(&exp, 3, false, None, &mut NullRecorder);
    let b = run_measured(&exp, 3, false, None, &mut NullRecorder);
    assert_eq!(a.delivery_digest, b.delivery_digest);
    assert_eq!(a.delivery_count, b.delivery_count);
}
