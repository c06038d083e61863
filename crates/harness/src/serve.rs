//! The serve drive: runs a seeded admit/teardown/repair trace through
//! the journaled admission service (`iba_qos::service`) and
//! differentially audits it against the sequential [`QosManager`]
//! reference.
//!
//! The rendered report is the replay witness: the per-operation
//! outcomes, the final-table digest, the audit verdicts and every
//! metric the two runs share (the service's own `serve_*` metrics are
//! filtered out). It is a pure function of the topology seed and the
//! trace, pinned by a golden file.

use crate::fnv::fnv64;
use iba_core::SlTable;
use iba_obs::ObsRecorder;
use iba_qos::service::{self, ServeReport, TraceConfig, TraceOutcome};
use iba_qos::QosManager;
use iba_topo::{irregular, updown, Topology};

/// Parameters of one serve run.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Switches in the irregular fabric under management.
    pub switches: usize,
    /// Master seed: topology, trace and corruption streams.
    pub seed: u64,
    /// Trace length (operations, admit-heavy mix).
    pub requests: usize,
}

impl ServeConfig {
    /// The default serve scenario: a 4-switch fabric and a 96-op trace.
    #[must_use]
    pub fn new(switches: usize, seed: u64, requests: usize) -> Self {
        ServeConfig {
            switches: switches.max(2),
            seed,
            requests,
        }
    }
}

/// Everything one serve run produced.
#[derive(Debug)]
pub struct ServeOutcome {
    /// The scenario that was run.
    pub config: ServeConfig,
    /// The service's report (outcomes, tables, live set).
    pub report: ServeReport,
    /// FNV-1a digest of the service's final tables.
    pub tables_digest: u64,
    /// FNV-1a digest of the sequential manager's final tables.
    pub seq_digest: u64,
    /// Whether every final table passed the full consistency audit.
    pub consistent: bool,
    /// Whether the service's outcome vector equals the sequential one.
    pub outcomes_match: bool,
    /// Whether the shared metrics (everything but `serve_*`) equal the
    /// sequential run's metrics.
    pub metrics_match: bool,
    /// Rendered shared metric samples, one line each.
    pub metric_lines: Vec<String>,
    /// The service run's recorder: cumulative metrics, the request
    /// tracer and — on windowed runs — the finished timeline (the SLO
    /// engine and the flight recorder draw from here).
    pub recorder: ObsRecorder,
}

/// Snapshot of a registry with the service's own `serve_*` samples
/// removed — the metric view the service shares with the sequential
/// reference.
fn shared_metric_lines(metrics: &iba_obs::Metrics) -> Vec<String> {
    metrics
        .snapshot()
        .into_iter()
        .filter(|s| !s.name.starts_with("serve_"))
        .map(|s| {
            let dim = s.dim.to_string();
            let label = if dim.is_empty() {
                s.name.to_string()
            } else {
                format!("{}{{{}}}", s.name, dim)
            };
            match s.value {
                iba_obs::SampleValue::Count(v) => format!("{label} {v}"),
                iba_obs::SampleValue::Hist {
                    count,
                    sum,
                    p50,
                    p99,
                } => format!("{label} count={count} sum={sum} p50<={p50} p99<={p99}"),
            }
        })
        .collect()
}

/// The manager under test and its host count: a `switches`-switch
/// irregular fabric seeded by `seed`, up*/down* routing and the paper's
/// Table-1 SLs. The serve and chaos-serve drives build the service's
/// planner and the sequential reference from identical calls.
pub(crate) fn build_manager(switches: usize, seed: u64) -> (QosManager, u16) {
    let topo: Topology =
        irregular::generate(irregular::IrregularConfig::with_switches(switches, seed));
    let hosts = topo.num_hosts() as u16;
    let routing = updown::compute(&topo);
    (
        QosManager::new(topo, routing, SlTable::paper_table1()),
        hosts,
    )
}

impl ServeOutcome {
    /// Whether the service matched the sequential reference on
    /// every observable and left consistent tables behind.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.consistent
            && self.outcomes_match
            && self.metrics_match
            && self.tables_digest == self.seq_digest
    }

    /// One-line machine-readable summary (the `ibaqos serve` stderr
    /// contract on failure).
    #[must_use]
    pub fn summary_line(&self) -> String {
        format!(
            "serve: verdict={} outcomes={} tables={} metrics={} consistent={} seed={}",
            if self.passed() { "PASS" } else { "FAIL" },
            if self.outcomes_match {
                "match"
            } else {
                "DIVERGED"
            },
            if self.tables_digest == self.seq_digest {
                "match"
            } else {
                "DIVERGED"
            },
            if self.metrics_match {
                "match"
            } else {
                "DIVERGED"
            },
            if self.consistent { "yes" } else { "no" },
            self.config.seed,
        )
    }

    /// The full `ibaqos serve --replay` report. Everything in it is a
    /// pure function of (topology seed, trace).
    #[must_use]
    pub fn render_report(&self) -> String {
        let c = &self.config;
        let r = &self.report;
        let mut out = format!(
            "serve: switches={} seed={} requests={}\n\
             trace: accepted={} rejected={} released={} live={}\n\
             tables: digest={:#018x} consistent={}\n\
             differential: outcomes={} tables={} metrics={}\n",
            c.switches,
            c.seed,
            c.requests,
            r.accepted,
            r.rejected,
            r.released,
            r.live.len(),
            self.tables_digest,
            if self.consistent { "yes" } else { "no" },
            if self.outcomes_match {
                "match"
            } else {
                "DIVERGED"
            },
            if self.tables_digest == self.seq_digest {
                "match"
            } else {
                "DIVERGED"
            },
            if self.metrics_match {
                "match"
            } else {
                "DIVERGED"
            },
        );
        out.push_str("outcomes:\n");
        for (i, o) in r.outcomes.iter().enumerate() {
            out.push_str(&format!("  op={i:03} {o:?}\n"));
        }
        out.push_str("metrics (serve_* excluded):\n");
        for line in &self.metric_lines {
            out.push_str(&format!("  {line}\n"));
        }
        out.push_str(&format!(
            "verdict: {}\n",
            if self.passed() {
                "PASS (journaled service byte-identical to the sequential manager)"
            } else {
                "FAIL (journaled service diverged from the sequential manager)"
            }
        ));
        out
    }
}

/// Ring capacity for the service's request tracer on windowed runs
/// (a few records per trace op).
const SERVE_TRACE_CAP: usize = 1 << 16;

/// Runs the serve scenario: one service run plus the sequential
/// reference run, differentially compared on outcomes, final tables
/// and shared metrics.
///
/// `window: Some(len)` attaches a windowed timeline (one logical tick
/// per finalized trace op, `len` ticks per window, at least 1) to both
/// the service's and the sequential recorder, plus a request tracer on
/// the service so `ServeReport::request_records` carries the
/// per-request stages. The differential verdicts are unaffected.
#[must_use]
pub fn run_serve(config: &ServeConfig, window: Option<u64>) -> ServeOutcome {
    let window = window.map(|len| len.max(1));
    let (planner, hosts) = build_manager(config.switches, config.seed);
    let ops = service::generate_trace(&TraceConfig::new(hosts, config.seed, config.requests));

    // Sequential reference on an identical, independently built manager.
    let (mut seq_mgr, _) = build_manager(config.switches, config.seed);
    let mut seq_rec = match window {
        Some(len) => ObsRecorder::with_timeline(len),
        None => ObsRecorder::new(),
    };
    let seq_outcomes: Vec<TraceOutcome> =
        service::apply_trace_sequential(&mut seq_mgr, &ops, &mut seq_rec);
    seq_rec.finish_timeline();
    let seq_digest = fnv64(format!("{:?}", seq_mgr.port_tables()).as_bytes());

    // The service run.
    let mut rec = windowed_recorder(window);
    let report = service::run_trace(&planner, &ops, 1, &mut rec);
    rec.finish_timeline();
    let tables_digest = fnv64(format!("{:?}", report.tables).as_bytes());

    let consistent = report.tables.check_all().is_ok();
    let outcomes_match = report.outcomes == seq_outcomes;
    let metric_lines = shared_metric_lines(&rec.metrics);
    let metrics_match = metric_lines == shared_metric_lines(&seq_rec.metrics);

    ServeOutcome {
        config: *config,
        report,
        tables_digest,
        seq_digest,
        consistent,
        outcomes_match,
        metrics_match,
        metric_lines,
        recorder: rec,
    }
}

/// The recorder of a service run: a plain registry, or with `window`
/// also a windowed timeline and a request tracer.
pub(crate) fn windowed_recorder(window: Option<u64>) -> ObsRecorder {
    match window {
        Some(len) => {
            let mut r = ObsRecorder::with_tracer(SERVE_TRACE_CAP);
            r.timeline = Some(iba_obs::Timeline::new(len));
            r
        }
        None => ObsRecorder::new(),
    }
}

/// Per-window shared metric lines of a finished timeline — the serve
/// timeline's equality witness against the sequential reference.
#[must_use]
pub fn timeline_shared_lines(timeline: &iba_obs::Timeline) -> Vec<String> {
    timeline
        .windows()
        .iter()
        .flat_map(|(idx, m)| {
            shared_metric_lines(m)
                .into_iter()
                .map(move |l| format!("window={idx} {l}"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_run_passes_and_replays_identically() {
        let run = || run_serve(&ServeConfig::new(4, 3, 48), None);
        let outcome = run();
        assert!(outcome.passed(), "{}", outcome.summary_line());
        assert!(outcome.render_report().contains("verdict: PASS"));
        assert_eq!(outcome.render_report(), run().render_report());
    }

    #[test]
    fn windowed_serve_timeline_matches_the_sequential_reference() {
        let window_len = 16;
        let run = run_serve(&ServeConfig::new(4, 3, 48), Some(window_len));
        assert!(run.passed(), "{}", run.summary_line());
        let timeline = run.recorder.timeline.as_ref().expect("timeline on");
        // 48 ops at 16 ticks/window: several windows, not just one.
        assert!(timeline.len() > 1);
        let lines = timeline_shared_lines(timeline);
        assert!(!lines.is_empty());

        let (mut seq_mgr, hosts) = build_manager(4, 3);
        let ops = service::generate_trace(&TraceConfig::new(hosts, 3, 48));
        let mut seq_rec = ObsRecorder::with_timeline(window_len);
        let _ = service::apply_trace_sequential(&mut seq_mgr, &ops, &mut seq_rec);
        seq_rec.finish_timeline();
        let seq_timeline = seq_rec.timeline.as_ref().expect("timeline on");
        assert_eq!(lines, timeline_shared_lines(seq_timeline));
    }

    #[test]
    fn windowed_serve_collects_request_records() {
        let outcome = run_serve(&ServeConfig::new(4, 3, 48), Some(16));
        assert!(!outcome.report.request_records.is_empty());
        let spans = iba_obs::reassemble(&outcome.report.request_records);
        assert_eq!(spans.len(), 48, "one span per trace op");
        // Unwindowed runs carry no tracer.
        let plain = run_serve(&ServeConfig::new(4, 3, 48), None);
        assert!(plain.recorder.timeline.is_none());
        assert!(plain.report.request_records.is_empty());
    }
}
