//! The flight recorder: a post-mortem bundle built when a run fails.
//!
//! On any SLO breach or FAIL verdict, the CLI asks this module for a
//! bundle — a list of `(file name, contents)` pairs — and writes it
//! under a debug directory (`--flight-dir`), which CI uploads as an
//! artifact. Building the bundle is pure rendering over state the run
//! already holds (metrics registry, timeline, trace ring, request
//! records, SLO report), so the recorder costs nothing until the
//! moment a failure needs explaining.
//!
//! Bundle layout (files absent when the run had no such state):
//!
//! | file                | contents                                    |
//! |---------------------|---------------------------------------------|
//! | `MANIFEST.txt`      | reason, schema and the file list            |
//! | `metrics.txt`       | final cumulative snapshot (text report)     |
//! | `metrics.prom`      | the same snapshot, Prometheus exposition    |
//! | `timeline_tail.json`| the last K closed windows, `TIMELINE.json` schema |
//! | `trace_tail.txt`    | rendered tail of the ring tracer            |
//! | `requests.txt`      | reassembled per-request span trees          |
//! | `slo.txt`           | the SLO report that triggered the dump      |

use crate::metrics::Metrics;
use crate::request;
use crate::slo::SloReport;
use crate::timeline::Timeline;
use crate::trace::{RingTracer, TraceEvent};

/// Everything the bundle builder may draw from. All fields except the
/// reason and the metrics registry are optional — the builder emits
/// only the files whose inputs are present.
pub struct FlightInput<'a> {
    /// Why the bundle is being written (first line of the manifest).
    pub reason: &'a str,
    /// The run's final cumulative metrics registry.
    pub metrics: &'a Metrics,
    /// The run's timeline, when one was aggregated.
    pub timeline: Option<&'a Timeline>,
    /// The run's ring tracer, when tracing was enabled.
    pub tracer: Option<&'a RingTracer>,
    /// Drained per-request trace records (empty when none).
    pub requests: &'a [(u64, TraceEvent)],
    /// The SLO report that triggered the dump, if SLO gating ran.
    pub slo: Option<&'a SloReport>,
    /// How many trailing timeline windows to keep (0 means all).
    pub tail_windows: usize,
}

/// Builds the bundle: deterministic `(file name, contents)` pairs,
/// manifest first.
#[must_use]
pub fn build(input: &FlightInput<'_>) -> Vec<(String, String)> {
    let mut files: Vec<(String, String)> = Vec::new();

    files.push((
        "metrics.txt".into(),
        crate::report::render_metrics(input.metrics),
    ));
    files.push((
        "metrics.prom".into(),
        crate::prom::render_prom(input.metrics),
    ));

    if let Some(tl) = input.timeline {
        files.push((
            "timeline_tail.json".into(),
            tl.tail(input.tail_windows).to_json_string(),
        ));
    }
    if let Some(tracer) = input.tracer {
        let lines = tracer.render(0);
        let mut body = String::new();
        if lines.is_empty() {
            body.push_str("no trace records\n");
        } else {
            for l in &lines {
                body.push_str(l);
                body.push('\n');
            }
        }
        files.push(("trace_tail.txt".into(), body));
    }
    if !input.requests.is_empty() {
        let spans = request::reassemble(input.requests);
        files.push(("requests.txt".into(), request::render_all(&spans)));
    }
    if let Some(slo) = input.slo {
        files.push(("slo.txt".into(), slo.render()));
    }

    let mut manifest = format!(
        "flight recorder bundle\nreason: {}\nschema: iba.flight.v1\nfiles:\n",
        input.reason
    );
    for (name, _) in &files {
        manifest.push_str(&format!("  {name}\n"));
    }
    files.insert(0, ("MANIFEST.txt".into(), manifest));
    files
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slo::SloSpec;
    use crate::trace::request_stage;

    fn sample_input() -> (Metrics, Timeline, RingTracer, Vec<(u64, TraceEvent)>) {
        let mut m = Metrics::new();
        let mut tl = Timeline::new(10);
        tl.tick(0, &mut m);
        m.sim_events.add(4);
        m.cac_admit.lane(1).incr();
        tl.tick(12, &mut m);
        m.sim_events.add(2);
        tl.finish(&mut m);
        let mut tracer = RingTracer::new(8);
        tracer.push(3, TraceEvent::Release);
        let requests = vec![
            (
                1,
                TraceEvent::Request {
                    rid: 0,
                    stage: request_stage::DISPATCH,
                    path: request_stage::NO_PATH,
                },
            ),
            (
                2,
                TraceEvent::Request {
                    rid: 0,
                    stage: request_stage::COMMIT,
                    path: 0,
                },
            ),
        ];
        (m, tl, tracer, requests)
    }

    #[test]
    fn bundle_contains_manifest_and_all_sections() {
        let (m, tl, tracer, requests) = sample_input();
        let spec = SloSpec::parse("rate(sim_events_total) == 0").unwrap();
        let windows: Vec<(u64, &Metrics)> = tl.windows().iter().map(|(i, w)| (*i, w)).collect();
        let report = spec.evaluate(&windows);
        assert!(!report.pass);

        let files = build(&FlightInput {
            reason: "slo breach: rate(sim_events_total) == 0",
            metrics: &m,
            timeline: Some(&tl),
            tracer: Some(&tracer),
            requests: &requests,
            slo: Some(&report),
            tail_windows: 0,
        });
        let names: Vec<&str> = files.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "MANIFEST.txt",
                "metrics.txt",
                "metrics.prom",
                "timeline_tail.json",
                "trace_tail.txt",
                "requests.txt",
                "slo.txt"
            ]
        );
        let manifest = &files[0].1;
        assert!(manifest.starts_with("flight recorder bundle\nreason: slo breach"));
        assert!(manifest.contains("  requests.txt\n"));
        let requests_txt = &files[5].1;
        assert!(requests_txt.contains("request rid=0 outcome=commit"));
        let slo_txt = &files[6].1;
        assert!(slo_txt.starts_with("slo: verdict=FAIL"));
    }

    #[test]
    fn optional_sections_are_omitted() {
        let m = Metrics::new();
        let files = build(&FlightInput {
            reason: "verdict FAIL",
            metrics: &m,
            timeline: None,
            tracer: None,
            requests: &[],
            slo: None,
            tail_windows: 4,
        });
        let names: Vec<&str> = files.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["MANIFEST.txt", "metrics.txt", "metrics.prom"]);
    }

    #[test]
    fn timeline_tail_keeps_only_the_last_windows() {
        let mut m = Metrics::new();
        let mut tl = Timeline::new(10);
        tl.tick(0, &mut m);
        for w in 1..=5u64 {
            m.sim_events.add(w);
            tl.tick(w * 10 + 1, &mut m);
        }
        tl.finish(&mut m);
        assert_eq!(tl.len(), 6);
        let files = build(&FlightInput {
            reason: "tail test",
            metrics: &m,
            timeline: Some(&tl),
            tracer: None,
            requests: &[],
            slo: None,
            tail_windows: 2,
        });
        let tail = files
            .iter()
            .find(|(n, _)| n == "timeline_tail.json")
            .map(|(_, c)| c.as_str())
            .unwrap();
        let parsed = crate::json::Json::parse(tail).unwrap();
        assert_eq!(
            parsed.get("window_count").and_then(|j| j.as_f64()),
            Some(2.0)
        );
        // The kept windows are the newest ones.
        assert!(tail.contains("\"index\": 4"));
        assert!(tail.contains("\"index\": 5"));
        assert!(!tail.contains("\"index\": 1"));
    }
}
