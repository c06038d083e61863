//! Perfetto / Chrome trace-event JSON exporter.
//!
//! Merges wall-clock span records ([`crate::span::SpanRecorder`]) and
//! simulator-cycle events ([`crate::trace::RingTracer`]) onto one
//! trace-event timeline that loads directly in <https://ui.perfetto.dev>
//! (or `chrome://tracing`):
//!
//! * **pid 1 — wall clock**: span begin/end pairs (`ph:"B"/"E"`), one
//!   track per recording thread, timestamps in microseconds since the
//!   span recorder's epoch.
//! * **pid 2 — sim cycles**: each ring-tracer record as an
//!   instant event (`ph:"i"`), one track per virtual lane, mapping one
//!   simulator cycle to one microsecond so slot gaps are readable on
//!   the same zoom scale.
//! * **pid 3 — requests**: per-request causal traces from the
//!   admission-service plane ([`crate::request`]), one track per
//!   request id: a begin/end pair spanning dispatch→finalize with an
//!   instant per protocol stage in causal order.
//!
//! Every event carries the `ph`/`ts`/`pid`/`tid`/`name` keys the
//! trace-event format requires, and events are stably sorted by
//! timestamp, so per-track order is chronological and begin always
//! precedes its end. The output is emitted by the workspace's own
//! [`crate::json::Json`] serializer — no serde, per the offline-build
//! contract.

use crate::json::Json;
use crate::span::{SpanPhase, SpanRecorder};
use crate::trace::{RingTracer, TraceEvent};

/// Process id of the wall-clock (span) track group.
pub const PID_WALL_CLOCK: i64 = 1;
/// Process id of the simulator-cycle track group.
pub const PID_SIM_CYCLES: i64 = 2;
/// Process id of the per-request causal-trace track group.
pub const PID_REQUESTS: i64 = 3;

fn event(ph: &str, ts: Json, pid: i64, tid: Json, name: &str) -> Vec<(String, Json)> {
    vec![
        ("name".to_string(), Json::str(name)),
        ("ph".to_string(), Json::str(ph)),
        ("ts".to_string(), ts),
        ("pid".to_string(), Json::Int(pid)),
        ("tid".to_string(), tid),
    ]
}

fn metadata(name: &str, pid: i64, tid: Option<i64>, label: &str) -> Json {
    let mut fields = event("M", Json::Int(0), pid, Json::Int(tid.unwrap_or(0)), name);
    fields.push((
        "args".to_string(),
        Json::Object(vec![("name".to_string(), Json::str(label))]),
    ));
    Json::Object(fields)
}

fn sim_event_fields(ev: &TraceEvent) -> (u8, &'static str, Vec<(String, Json)>) {
    match *ev {
        TraceEvent::Grant { vl, bytes, served } => (
            vl,
            "grant",
            vec![
                ("bytes".to_string(), Json::uint(bytes)),
                ("table".to_string(), Json::str(served.label())),
            ],
        ),
        TraceEvent::HolStall { vl } => (vl, "hol-stall", vec![]),
        TraceEvent::WeightExhausted { vl } => (vl, "weight-exhausted", vec![]),
        TraceEvent::AuditViolation {
            vl,
            gap_slots,
            budget_slots,
        } => (
            vl,
            "audit-violation",
            vec![
                ("gap_slots".to_string(), Json::uint(u64::from(gap_slots))),
                (
                    "budget_slots".to_string(),
                    Json::uint(u64::from(budget_slots)),
                ),
            ],
        ),
        TraceEvent::Admit { sl } => (sl, "cac-admit", vec![]),
        TraceEvent::Reject { reason } => (
            0,
            "cac-reject",
            vec![("reason".to_string(), Json::str(reason.label()))],
        ),
        TraceEvent::Release => (0, "cac-release", vec![]),
        TraceEvent::AllocSelect { depth, found } => (
            0,
            "alloc-select",
            vec![
                ("depth".to_string(), Json::uint(u64::from(depth))),
                ("found".to_string(), Json::Bool(found)),
            ],
        ),
        TraceEvent::Fault { code, port, detail } => (
            0,
            crate::trace::fault_code::label(code),
            vec![
                ("port".to_string(), Json::uint(u64::from(port))),
                ("detail".to_string(), Json::uint(u64::from(detail))),
            ],
        ),
        TraceEvent::Request { rid, stage, path } => (
            0,
            crate::trace::request_stage::label(stage),
            vec![
                ("rid".to_string(), Json::uint(u64::from(rid))),
                ("hop".to_string(), Json::uint(u64::from(path))),
            ],
        ),
        TraceEvent::Serve { code, detail } => (
            0,
            crate::trace::serve_code::label(code),
            vec![("detail".to_string(), Json::uint(u64::from(detail)))],
        ),
    }
}

/// Builds the trace-event JSON document for span and sim sources —
/// [`perfetto_trace_full`] with no request records.
#[must_use]
pub fn perfetto_trace(spans: Option<&SpanRecorder>, sim: Option<&RingTracer>) -> Json {
    perfetto_trace_full(spans, sim, &[])
}

/// Builds the trace-event JSON document for the given sources. Any
/// source may be absent or empty; the result is always a well-formed
/// trace with a `traceEvents` array. `requests` is a drained list of
/// [`TraceEvent::Request`] records (other kinds are ignored), rendered
/// as one track per request in causal order: records merged from
/// different rings carry clocks that are not comparable, so each
/// track's timestamps are the
/// running maximum over the causally sorted stages — monotone per
/// track by construction.
#[must_use]
pub fn perfetto_trace_full(
    spans: Option<&SpanRecorder>,
    sim: Option<&RingTracer>,
    requests: &[(u64, TraceEvent)],
) -> Json {
    // (sort key in ns, insertion index, event) — stable sort keeps
    // per-track order and begin-before-end at equal timestamps.
    let mut timeline: Vec<(u128, Json)> = Vec::new();
    let mut head: Vec<Json> = Vec::new();

    if let Some(spans) = spans {
        head.push(metadata(
            "process_name",
            PID_WALL_CLOCK,
            None,
            "wall clock (spans)",
        ));
        for rec in spans.records() {
            let ph = match rec.phase {
                SpanPhase::Begin => "B",
                SpanPhase::End => "E",
            };
            // Chrome trace `ts` is in microseconds; keep nanosecond
            // precision as a fraction.
            let ts = Json::Float(rec.ts_ns as f64 / 1000.0);
            let tid = Json::uint(rec.tid);
            timeline.push((
                u128::from(rec.ts_ns),
                Json::Object(event(ph, ts, PID_WALL_CLOCK, tid, rec.name)),
            ));
        }
    }

    if let Some(sim) = sim {
        head.push(metadata("process_name", PID_SIM_CYCLES, None, "sim cycles"));
        let mut lanes_seen = [false; 256];
        for (time, ev) in sim.records() {
            let (lane, name, mut args) = sim_event_fields(&ev);
            args.push(("cycle".to_string(), Json::uint(time)));
            lanes_seen[usize::from(lane)] = true;
            // One sim cycle maps to one microsecond on the trace axis.
            let mut fields = event(
                "i",
                Json::uint(time),
                PID_SIM_CYCLES,
                Json::Int(i64::from(lane)),
                name,
            );
            fields.push(("s".to_string(), Json::str("t")));
            fields.push(("args".to_string(), Json::Object(args)));
            // Sim cycles sort on the same ns axis as spans (µs × 1000).
            timeline.push((u128::from(time) * 1000, Json::Object(fields)));
        }
        for (lane, seen) in lanes_seen.iter().enumerate() {
            if *seen {
                head.push(metadata(
                    "thread_name",
                    PID_SIM_CYCLES,
                    Some(lane as i64),
                    &format!("lane {lane}"),
                ));
            }
        }
    }

    let request_spans = crate::request::reassemble(requests);
    if !request_spans.is_empty() {
        head.push(metadata("process_name", PID_REQUESTS, None, "requests"));
    }
    for span in &request_spans {
        let tid = Json::uint(u64::from(span.rid));
        head.push(metadata(
            "thread_name",
            PID_REQUESTS,
            Some(i64::from(span.rid)),
            &format!("request {} ({})", span.rid, span.outcome()),
        ));
        let mut clock = span.stages.first().map_or(0, |s| s.time);
        let name = format!("request {}", span.rid);
        timeline.push((
            u128::from(clock) * 1000,
            Json::Object(event(
                "B",
                Json::uint(clock),
                PID_REQUESTS,
                tid.clone(),
                &name,
            )),
        ));
        for s in &span.stages {
            clock = clock.max(s.time);
            let mut fields = event(
                "i",
                Json::uint(clock),
                PID_REQUESTS,
                tid.clone(),
                crate::trace::request_stage::label(s.stage),
            );
            fields.push(("s".to_string(), Json::str("t")));
            fields.push((
                "args".to_string(),
                Json::Object(vec![
                    ("hop".to_string(), Json::uint(u64::from(s.path))),
                    ("recorded_at".to_string(), Json::uint(s.time)),
                ]),
            ));
            timeline.push((u128::from(clock) * 1000, Json::Object(fields)));
        }
        timeline.push((
            u128::from(clock) * 1000,
            Json::Object(event("E", Json::uint(clock), PID_REQUESTS, tid, &name)),
        ));
    }

    let mut order: Vec<usize> = (0..timeline.len()).collect();
    order.sort_by_key(|&i| timeline[i].0);
    let mut events = head;
    events.extend(order.into_iter().map(|i| timeline[i].1.clone()));

    Json::Object(vec![
        ("traceEvents".to_string(), Json::Array(events)),
        ("displayTimeUnit".to_string(), Json::str("ms")),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::ServedKind;

    fn sample_trace() -> Json {
        let mut spans = SpanRecorder::with_epoch(16, std::time::Instant::now());
        spans.push_raw("harness.worker", 7, 1_000, SpanPhase::Begin);
        spans.push_raw("sim.run_until", 7, 2_500, SpanPhase::Begin);
        spans.push_raw("sim.run_until", 7, 8_000, SpanPhase::End);
        spans.push_raw("harness.worker", 7, 9_000, SpanPhase::End);
        let mut sim = RingTracer::new(16);
        sim.push(
            3,
            TraceEvent::Grant {
                vl: 2,
                bytes: 256,
                served: ServedKind::High,
            },
        );
        sim.push(5, TraceEvent::WeightExhausted { vl: 2 });
        sim.push(
            9,
            TraceEvent::AuditViolation {
                vl: 2,
                gap_slots: 8,
                budget_slots: 4,
            },
        );
        perfetto_trace(Some(&spans), Some(&sim))
    }

    fn trace_events(doc: &Json) -> &[Json] {
        match doc.get("traceEvents") {
            Some(Json::Array(items)) => items,
            _ => panic!("traceEvents array missing"),
        }
    }

    #[test]
    fn every_event_has_required_keys() {
        let doc = sample_trace();
        let events = trace_events(&doc);
        assert!(!events.is_empty());
        for ev in events {
            for key in ["ph", "ts", "pid", "tid", "name"] {
                assert!(ev.get(key).is_some(), "missing `{key}` in {ev:?}");
            }
        }
    }

    #[test]
    fn timestamps_are_monotone_per_track() {
        let doc = sample_trace();
        let mut last: std::collections::HashMap<(String, String), f64> =
            std::collections::HashMap::new();
        for ev in trace_events(&doc) {
            if ev.get("ph") == Some(&Json::str("M")) {
                continue;
            }
            let pid = format!("{:?}", ev.get("pid"));
            let tid = format!("{:?}", ev.get("tid"));
            let ts = ev.get("ts").and_then(Json::as_f64).expect("numeric ts");
            let prev = last.insert((pid, tid), ts);
            if let Some(prev) = prev {
                assert!(prev <= ts, "track went backwards: {prev} > {ts}");
            }
        }
    }

    #[test]
    fn output_parses_as_json_and_roundtrips() {
        let doc = sample_trace();
        let text = doc.pretty();
        assert_eq!(Json::parse(&text), Ok(doc));
    }

    #[test]
    fn spans_and_sim_events_land_on_their_pids() {
        let doc = sample_trace();
        let events = trace_events(&doc);
        let pid_of = |ev: &Json| ev.get("pid").and_then(Json::as_f64);
        assert!(events
            .iter()
            .any(|e| e.get("ph") == Some(&Json::str("B"))
                && pid_of(e) == Some(PID_WALL_CLOCK as f64)));
        assert!(events
            .iter()
            .any(|e| e.get("ph") == Some(&Json::str("i"))
                && pid_of(e) == Some(PID_SIM_CYCLES as f64)));
        assert!(events
            .iter()
            .any(|e| e.get("name") == Some(&Json::str("audit-violation"))));
    }

    #[test]
    fn empty_sources_still_emit_a_valid_trace() {
        let doc = perfetto_trace(None, None);
        assert_eq!(trace_events(&doc).len(), 0);
        assert!(Json::parse(&doc.pretty()).is_ok());
    }

    #[test]
    fn request_records_become_one_track_per_request() {
        use crate::trace::request_stage;
        let req = |rid: u32, stage: u8, path: u8| TraceEvent::Request { rid, stage, path };
        // Worker clocks run ahead of the coordinator's: the commit was
        // recorded at t=9 but the finalize at t=4.
        let records = vec![
            (1, req(0, request_stage::DISPATCH, request_stage::NO_PATH)),
            (9, req(0, request_stage::COMMIT, 0)),
            (4, req(0, request_stage::FINALIZE, request_stage::NO_PATH)),
            (2, req(1, request_stage::DISPATCH, request_stage::NO_PATH)),
        ];
        let doc = perfetto_trace_full(None, None, &records);
        let events = trace_events(&doc);
        let on_pid3 = |e: &&Json| {
            e.get("pid").and_then(Json::as_f64) == Some(PID_REQUESTS as f64)
                && e.get("ph") != Some(&Json::str("M"))
        };
        // Two tracks: each has B + E plus one instant per stage.
        let begins = events
            .iter()
            .filter(|e| on_pid3(e) && e.get("ph") == Some(&Json::str("B")))
            .count();
        assert_eq!(begins, 2);
        // Per-track timestamps never go backwards despite the worker
        // clock skew (the finalize instant is clamped up to t=9).
        let mut last: std::collections::HashMap<String, f64> = std::collections::HashMap::new();
        for e in events.iter().filter(on_pid3) {
            let tid = format!("{:?}", e.get("tid"));
            let ts = e.get("ts").and_then(Json::as_f64).unwrap();
            if let Some(prev) = last.insert(tid, ts) {
                assert!(prev <= ts, "request track went backwards");
            }
        }
        assert!(events
            .iter()
            .any(|e| e.get("args").and_then(|a| a.get("name"))
                == Some(&Json::str("request 0 (commit)"))));
    }
}
