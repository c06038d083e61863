//! The serve drive: runs a seeded admit/teardown/repair trace through
//! the sharded admission service (`iba_qos::service`) and
//! differentially audits it against the single-owner [`QosManager`].
//!
//! The rendered report is the replay determinism witness: it contains
//! the per-operation outcomes, the final-table digest, the audit
//! verdicts and the shard-invariant metrics — and **nothing that
//! depends on the shard count** (the `serve_*` metrics, which
//! legitimately differ per shard, are filtered out). `ibaqos serve
//! --replay` must therefore print byte-identical reports at 1, 2 and
//! 8 shards, which CI checks with `cmp`.

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
    /// Master seed: topology, trace, corruption and repair streams.
    pub seed: u64,
    /// Trace length (operations, admit-heavy mix).
    pub requests: usize,
    /// Worker shards the port tables are partitioned across.
    pub shards: usize,
}

impl ServeConfig {
    /// The default serve scenario: a 4-switch fabric and a 96-op trace.
    #[must_use]
    pub fn new(switches: usize, seed: u64, requests: usize, shards: usize) -> Self {
        ServeConfig {
            switches: switches.max(2),
            seed,
            requests,
            shards: shards.max(1),
        }
    }
}

/// Everything one serve run produced.
#[derive(Debug)]
pub struct ServeOutcome {
    /// The scenario that was run.
    pub config: ServeConfig,
    /// The sharded service's report (outcomes, tables, live set).
    pub report: ServeReport,
    /// FNV-1a digest of the sharded service's final tables.
    pub tables_digest: u64,
    /// FNV-1a digest of the sequential manager's final tables.
    pub seq_digest: u64,
    /// Whether every final table passed the full consistency audit.
    pub consistent: bool,
    /// Whether the sharded outcome vector equals the sequential one.
    pub outcomes_match: bool,
    /// Whether the shard-invariant metrics (everything but `serve_*`)
    /// equal the sequential run's metrics.
    pub metrics_match: bool,
    /// Rendered shard-invariant metric samples, one line each.
    pub metric_lines: Vec<String>,
    /// The sharded run's merged recorder: cumulative metrics, the
    /// coordinator's request tracer and — on windowed runs — the
    /// finished timeline (the SLO engine and the flight recorder draw
    /// from here).
    pub recorder: ObsRecorder,
}

/// Snapshot of a registry with the shard-count-dependent `serve_*`
/// samples removed — the shard-invariant metric view.
fn invariant_metric_lines(metrics: &iba_obs::Metrics) -> Vec<String> {
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
/// Table-1 SLs. The serve and chaos-serve drives build the sharded
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
    /// Whether the sharded service matched the sequential reference on
    /// every observable and left consistent tables behind.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.consistent
            && self.outcomes_match
            && self.metrics_match
            && self.tables_digest == self.seq_digest
    }

    /// One-line machine-readable summary (the `ibaqos serve` stderr
    /// contract on failure). This line carries the shard count, so it
    /// is *not* part of the shard-invariant report body.
    #[must_use]
    pub fn summary_line(&self) -> String {
        format!(
            "serve: verdict={} shards={} outcomes={} tables={} metrics={} consistent={} seed={}",
            if self.passed() { "PASS" } else { "FAIL" },
            self.config.shards,
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
    /// pure function of (topology seed, trace) — never of the shard
    /// count — so replays at different shard counts must be
    /// byte-identical.
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
        out.push_str("metrics (shard-invariant):\n");
        for line in &self.metric_lines {
            out.push_str(&format!("  {line}\n"));
        }
        out.push_str(&format!(
            "verdict: {}\n",
            if self.passed() {
                "PASS (sharded service byte-identical to the sequential manager)"
            } else {
                "FAIL (sharded service diverged from the sequential manager)"
            }
        ));
        out
    }
}

/// Ring capacity for the coordinator's request tracer on windowed runs
/// (16-byte records; two coordinator records per trace op).
const SERVE_TRACE_CAP: usize = 1 << 16;

/// Runs the serve scenario: one sharded trace run plus the sequential
/// reference run, differentially compared on outcomes, final tables
/// and shard-invariant metrics.
///
/// `window: Some(len)` attaches a windowed timeline (one logical tick
/// per finalized trace op, `len` ticks per window, at least 1) to both
/// the sharded and the sequential recorder, plus a request tracer on
/// the coordinator so `ServeReport::request_records` carries the
/// dispatch/finalize stages. The differential verdicts are unaffected;
/// per-window **invariant** metrics are additionally shard-count
/// invariant (shard-side metrics merge after the last tick, so they
/// land in the trailing window at every shard count).
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

    // Sharded run.
    let mut rec = windowed_recorder(window);
    let report = service::run_trace(&planner, &ops, config.shards, &mut rec);
    rec.finish_timeline();
    let tables_digest = fnv64(format!("{:?}", report.tables).as_bytes());

    let consistent = report.tables.check_all().is_ok();
    let outcomes_match = report.outcomes == seq_outcomes;
    let metric_lines = invariant_metric_lines(&rec.metrics);
    let metrics_match = metric_lines == invariant_metric_lines(&seq_rec.metrics);

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
/// also a windowed timeline and a request tracer on the coordinator.
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

/// Per-window shard-invariant metric lines of a finished timeline —
/// the serve timeline's cross-shard equality witness.
#[must_use]
pub fn timeline_invariant_lines(timeline: &iba_obs::Timeline) -> Vec<String> {
    timeline
        .windows()
        .iter()
        .flat_map(|(idx, m)| {
            invariant_metric_lines(m)
                .into_iter()
                .map(move |l| format!("window={idx} {l}"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_run_passes_and_report_is_shard_invariant() {
        let reports: Vec<String> = [1usize, 2, 8]
            .iter()
            .map(|&shards| {
                let outcome = run_serve(&ServeConfig::new(4, 3, 48, shards), None);
                assert!(outcome.passed(), "{}", outcome.summary_line());
                outcome.render_report()
            })
            .collect();
        assert_eq!(reports[0], reports[1], "1 vs 2 shards");
        assert_eq!(reports[0], reports[2], "1 vs 8 shards");
        assert!(reports[0].contains("verdict: PASS"));
    }

    #[test]
    fn serve_summary_line_names_the_shard_count() {
        let outcome = run_serve(&ServeConfig::new(4, 7, 24, 2), None);
        assert!(outcome.summary_line().contains("shards=2"));
    }

    #[test]
    fn windowed_serve_timeline_is_shard_count_invariant() {
        let window_len = 16;
        let runs: Vec<ServeOutcome> = [1usize, 2, 8]
            .iter()
            .map(|&shards| run_serve(&ServeConfig::new(4, 3, 48, shards), Some(window_len)))
            .collect();
        let reference: Vec<String> =
            timeline_invariant_lines(runs[0].recorder.timeline.as_ref().expect("timeline on"));
        assert!(!reference.is_empty());
        // 48 ops at 16 ticks/window: several windows, not just one.
        assert!(runs[0].recorder.timeline.as_ref().unwrap().len() > 1);
        for run in &runs[1..] {
            assert!(run.passed(), "{}", run.summary_line());
            let lines = timeline_invariant_lines(run.recorder.timeline.as_ref().unwrap());
            assert_eq!(
                reference, lines,
                "per-window invariant metrics diverged at {} shards",
                run.config.shards
            );
        }
    }

    #[test]
    fn windowed_serve_collects_request_records() {
        let outcome = run_serve(&ServeConfig::new(4, 3, 48, 4), Some(16));
        assert!(!outcome.report.request_records.is_empty());
        let spans = iba_obs::reassemble(&outcome.report.request_records);
        assert_eq!(spans.len(), 48, "one span per trace op");
        // Unwindowed runs carry no coordinator tracer: worker stages
        // only reach the report when the coordinator traces too.
        let plain = run_serve(&ServeConfig::new(4, 3, 48, 4), None);
        assert!(plain.recorder.timeline.is_none());
    }
}
