//! Golden-file tests for the `ibaqos` CLI output.
//!
//! `report` and `trace` render the observability contract (`METRICS.md`)
//! for a fixed small experiment; the expected output is committed under
//! `tests/golden/`. Any change to metric names, table layout, or — more
//! importantly — the simulation results themselves shows up here as a
//! diff, which keeps the deterministic-engine guarantee honest: the
//! timing-wheel event queue, the packet pool, and the harness refactors must
//! all reproduce the exact pre-refactor event order.
//!
//! To regenerate after an *intentional* output change:
//!
//! ```text
//! cargo run -p iba-cli -- report --switches 4 --seed 3 --steady-packets 2 \
//!     --mtu 256 > tests/golden/report_s4_seed3.txt
//! cargo run -p iba-cli -- trace --switches 4 --seed 3 --steady-packets 2 \
//!     --mtu 256 --limit 12 > tests/golden/trace_s4_seed3_limit12.txt
//! cargo run -p iba-cli -- audit --mtu 4096 --seed 42 \
//!     > tests/golden/audit_bitrev_mtu4096_seed42.txt
//! IBA_REGEN_GOLDEN=1 cargo test --test golden_cli   # perfetto_min.json + chaos_*.txt
//! ```

fn run_cli(argv: &[&str]) -> String {
    let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
    iba_cli::run(&argv).expect("golden CLI invocation parses and runs")
}

/// Diffs `got` against the committed fixture, with a line-numbered
/// first-mismatch report so a failure is actionable without a local
/// rerun.
fn assert_matches_golden(got: &str, fixture: &str) {
    let path = format!("{}/tests/golden/{}", env!("CARGO_MANIFEST_DIR"), fixture);
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read golden fixture {path}: {e}"));
    // The fixtures were captured from the binary, whose `println!`
    // appends one newline beyond what `iba_cli::run` returns.
    let (got, want) = (got.trim_end_matches('\n'), want.trim_end_matches('\n'));
    if got == want {
        return;
    }
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(
            g,
            w,
            "first divergence from {fixture} at line {} (regenerate the \
             fixture only if the output change is intentional)",
            i + 1
        );
    }
    panic!(
        "{fixture}: line count differs (got {}, want {})",
        got.lines().count(),
        want.lines().count()
    );
}

/// The synthetic two-source timeline behind the committed
/// `perfetto_min.json` fixture: explicit span timestamps (no wall
/// clock involved) plus a deterministic sim-cycle ring, so the
/// rendered document is byte-stable across machines.
fn minimal_perfetto_doc() -> iba_obs::Json {
    use iba_obs::{perfetto_trace, RingTracer, ServedKind, SpanPhase, SpanRecorder, TraceEvent};
    let mut spans = SpanRecorder::with_epoch(16, std::time::Instant::now());
    spans.push_raw("audit.fill", 1, 1_000, SpanPhase::Begin);
    spans.push_raw("audit.fill", 1, 4_000, SpanPhase::End);
    spans.push_raw("audit.drive", 1, 4_500, SpanPhase::Begin);
    spans.push_raw("audit.drive", 1, 9_000, SpanPhase::End);
    let mut sim = RingTracer::new(8);
    sim.push(
        3,
        TraceEvent::Grant {
            vl: 2,
            bytes: 4096,
            served: ServedKind::High,
        },
    );
    sim.push(7, TraceEvent::WeightExhausted { vl: 2 });
    sim.push(
        11,
        TraceEvent::AuditViolation {
            vl: 2,
            gap_slots: 8,
            budget_slots: 4,
        },
    );
    perfetto_trace(Some(&spans), Some(&sim))
}

#[test]
fn report_output_matches_golden_file() {
    let out = run_cli(&[
        "report",
        "--switches",
        "4",
        "--seed",
        "3",
        "--steady-packets",
        "2",
        "--mtu",
        "256",
    ]);
    assert_matches_golden(&out, "report_s4_seed3.txt");
}

#[test]
fn report_prom_output_matches_golden_file() {
    // The Prometheus exposition of the same experiment as
    // `report_s4_seed3.txt` — a pure function of the snapshot, so it
    // is byte-stable across machines and refactors.
    let got = run_cli(&[
        "report",
        "--switches",
        "4",
        "--seed",
        "3",
        "--steady-packets",
        "2",
        "--mtu",
        "256",
        "--prom",
    ]);
    let path = format!(
        "{}/tests/golden/report_prom_s4_seed3.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    if std::env::var_os("IBA_REGEN_GOLDEN").is_some() {
        std::fs::write(&path, format!("{got}\n")).expect("regenerate prom fixture");
        return;
    }
    assert_matches_golden(&got, "report_prom_s4_seed3.txt");
}

#[test]
fn timeline_json_matches_at_every_thread_count() {
    // The CLI-level form of the timeline invariance contract: the
    // TIMELINE.json document must be byte-identical at any --threads.
    let doc = |threads: &str| {
        run_cli(&[
            "timeline",
            "--switches",
            "4",
            "--seed",
            "11",
            "--seeds",
            "3",
            "--steady-packets",
            "2",
            "--window",
            "2048",
            "--json",
            "--threads",
            threads,
        ])
    };
    let got = doc("1");
    assert!(got.contains("iba.timeline.v1"), "{got}");
    assert_eq!(got, doc("2"), "TIMELINE.json diverges at 2 threads");
    assert_eq!(got, doc("8"), "TIMELINE.json diverges at 8 threads");
}

#[test]
fn trace_output_matches_golden_file() {
    let out = run_cli(&[
        "trace",
        "--switches",
        "4",
        "--seed",
        "3",
        "--steady-packets",
        "2",
        "--mtu",
        "256",
        "--limit",
        "12",
    ]);
    assert_matches_golden(&out, "trace_s4_seed3_limit12.txt");
}

#[test]
fn audit_report_matches_golden_file() {
    let out = run_cli(&["audit", "--mtu", "4096", "--seed", "42"]);
    assert_matches_golden(&out, "audit_bitrev_mtu4096_seed42.txt");
}

#[test]
fn chaos_report_matches_golden_file() {
    // Faults ride the event calendar and every stage is seeded, so the
    // whole report — recovery counters, per-lane audit, sweep digest —
    // is byte-stable across machines and thread counts.
    let got = run_cli(&[
        "chaos",
        "--mtu",
        "4096",
        "--seed",
        "42",
        "--seeds",
        "2",
        "--threads",
        "2",
    ]);
    let path = format!(
        "{}/tests/golden/chaos_bitrev_mtu4096_seed42.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    if std::env::var_os("IBA_REGEN_GOLDEN").is_some() {
        std::fs::write(&path, format!("{got}\n")).expect("regenerate chaos fixture");
        return;
    }
    assert_matches_golden(&got, "chaos_bitrev_mtu4096_seed42.txt");
}

#[test]
fn minimal_perfetto_trace_matches_golden_file() {
    let got = minimal_perfetto_doc().pretty();
    let path = format!(
        "{}/tests/golden/perfetto_min.json",
        env!("CARGO_MANIFEST_DIR")
    );
    if std::env::var_os("IBA_REGEN_GOLDEN").is_some() {
        std::fs::write(&path, format!("{got}\n")).expect("regenerate perfetto fixture");
        return;
    }
    assert_matches_golden(&got, "perfetto_min.json");
}

/// Structural contract on the real `audit --perfetto` export: the file
/// must parse with the workspace JSON parser, every trace event must
/// carry the `ph`/`ts`/`pid`/`tid`/`name` keys, and timestamps must be
/// monotone within each `(pid, tid)` track.
#[test]
fn audit_perfetto_export_is_structurally_valid() {
    use iba_obs::Json;
    let path = std::env::temp_dir().join(format!(
        "ibaqos_golden_perfetto_{}.json",
        std::process::id()
    ));
    let path_str = path.to_str().expect("temp path is utf-8");
    let _ = run_cli(&[
        "audit",
        "--mtu",
        "4096",
        "--seed",
        "42",
        "--perfetto",
        path_str,
    ]);
    let text = std::fs::read_to_string(&path).expect("perfetto export written");
    let _ = std::fs::remove_file(&path);
    let doc = Json::parse(&text).expect("perfetto export parses");
    let Some(Json::Array(events)) = doc.get("traceEvents") else {
        panic!("traceEvents array missing");
    };
    assert!(!events.is_empty(), "perfetto export has no events");
    let mut last: std::collections::HashMap<(String, String), f64> =
        std::collections::HashMap::new();
    for ev in events {
        for key in ["ph", "ts", "pid", "tid", "name"] {
            assert!(ev.get(key).is_some(), "missing `{key}` in {ev:?}");
        }
        if ev.get("ph") == Some(&Json::str("M")) {
            continue;
        }
        let pid = format!("{:?}", ev.get("pid"));
        let tid = format!("{:?}", ev.get("tid"));
        let ts = ev.get("ts").and_then(Json::as_f64).expect("numeric ts");
        if let Some(prev) = last.insert((pid, tid), ts) {
            assert!(prev <= ts, "track went backwards: {prev} > {ts}");
        }
    }
}

#[test]
fn serve_replay_matches_golden_file() {
    // The replay report of the journaled service: outcomes, table
    // digest, differential verdicts and every metric it shares with
    // the sequential manager (the `serve_*` metrics are filtered out).
    let got = run_cli(&[
        "serve",
        "--switches",
        "4",
        "--seed",
        "3",
        "--requests",
        "96",
        "--replay",
    ]);
    let path = format!(
        "{}/tests/golden/serve_trace_s4_seed3.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    if std::env::var_os("IBA_REGEN_GOLDEN").is_some() {
        std::fs::write(&path, format!("{got}\n")).expect("regenerate serve fixture");
        return;
    }
    assert_matches_golden(&got, "serve_trace_s4_seed3.txt");
}

#[test]
fn chaos_serve_replay_matches_golden_file() {
    // Every timeout is logical and the calendar is seeded, so the
    // faulted replay report — fault counts included — is a pure
    // function of the seed. A diff here means either the fault
    // calendar or the recovery machinery changed behaviour.
    let got = run_cli(&[
        "chaos-serve",
        "--switches",
        "4",
        "--seed",
        "7",
        "--requests",
        "48",
        "--replay",
    ]);
    let path = format!(
        "{}/tests/golden/chaos_serve_s4_seed7.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    if std::env::var_os("IBA_REGEN_GOLDEN").is_some() {
        std::fs::write(&path, format!("{got}\n")).expect("regenerate chaos-serve fixture");
        return;
    }
    assert_matches_golden(&got, "chaos_serve_s4_seed7.txt");
}
