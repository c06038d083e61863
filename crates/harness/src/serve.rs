//! The serve drive: runs a seeded admit/teardown/repair trace through
//! the journaled admission service (`iba_qos::service`), fault-free
//! (`ibaqos serve`) or under the control-plane fault calendar
//! [`ServeFaultPlan::generate_control`] — owner crashes, lost or
//! duplicated requests, lost replies (`ibaqos chaos-serve`) — and
//! differentially audits it against the sequential [`QosManager`]
//! reference.
//!
//! Five oracles gate every run's verdict:
//!
//! 1. **Outcomes** — the service's per-operation outcomes equal the
//!    sequential reference's;
//! 2. **Tables** — the final-table bytes (their FNV-1a digest) equal
//!    the reference's;
//! 3. **Metrics** — every metric the two runs share (the service's own
//!    `serve_*` metrics are filtered out) is equal: journal replay
//!    records nothing twice;
//! 4. **Consistency** — every final table passes `check_consistency`;
//! 5. **Exactly-once ledger** — [`ServeReport::sweep`]: releasing every
//!    live connection's hops out of a clone of the final tables must
//!    release every hop (a failure is a *lost* reservation) and leave
//!    nothing reserved (leftover weight is a *duplicated* one). Repair
//!    drills keep every live connection bound, so the ledger is
//!    absolute, with no legitimate residue.
//!
//! The rendered report is the replay witness: a pure function of the
//! topology seed, the trace and the calendar, pinned by a golden file
//! per command. Disabling the journal under the calendar is the
//! negative control: a crashed owner then restarts from the empty
//! manager and the run diverges from the reference.

use crate::fnv::fnv64;
use iba_core::SlTable;
use iba_obs::ObsRecorder;
use iba_qos::service::{self, ServeFaultPlan, ServeOptions, ServeReport, TraceConfig};
use iba_qos::QosManager;
use iba_topo::{irregular, updown, Topology};

/// Parameters of one serve run.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Switches in the irregular fabric under management.
    pub switches: usize,
    /// Master seed: topology, trace, corruption and fault-calendar
    /// streams.
    pub seed: u64,
    /// Trace length (operations, admit-heavy mix).
    pub requests: usize,
    /// `Some` runs the trace under the seeded fault calendar with these
    /// options (`journal: false` is the negative control); `None`
    /// serves it fault-free.
    pub faults: Option<ServeOptions>,
}

impl ServeConfig {
    /// A fault-free run over a `switches`-switch fabric.
    #[must_use]
    pub fn new(switches: usize, seed: u64, requests: usize) -> Self {
        ServeConfig {
            switches: switches.max(2),
            seed,
            requests,
            faults: None,
        }
    }

    /// The `ibaqos` command this configuration runs: `chaos-serve`
    /// under the fault calendar, `serve` without it.
    fn command(&self) -> &'static str {
        if self.faults.is_some() {
            "chaos-serve"
        } else {
            "serve"
        }
    }

    /// ` journal=on|off` under the fault calendar, empty without it.
    fn journal_field(&self) -> &'static str {
        match self.faults {
            Some(ServeOptions { journal: true }) => " journal=on",
            Some(ServeOptions { journal: false }) => " journal=off",
            None => "",
        }
    }
}

/// Everything one serve run produced.
#[derive(Debug)]
pub struct ServeOutcome {
    /// The scenario that was run.
    pub config: ServeConfig,
    /// The service's report (outcomes, tables, live set, fault stats).
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
    /// Reservations the run lost: live connection hops that no longer
    /// release cleanly.
    pub lost: u64,
    /// Reserved weight left after sweeping every live connection out
    /// (double-applied commits).
    pub duplicated: u64,
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
/// Table-1 SLs. The service's planner and the sequential reference are
/// built from identical calls.
fn build_manager(switches: usize, seed: u64) -> (QosManager, u16) {
    let topo: Topology =
        irregular::generate(irregular::IrregularConfig::with_switches(switches, seed));
    let hosts = topo.num_hosts() as u16;
    let routing = updown::compute(&topo);
    (
        QosManager::new(topo, routing, SlTable::paper_table1()),
        hosts,
    )
}

/// How one differential oracle came out, as the reports print it.
fn agreement(ok: bool) -> &'static str {
    if ok {
        "match"
    } else {
        "DIVERGED"
    }
}

impl ServeOutcome {
    /// Whether the service matched the sequential reference on every
    /// observable, left consistent tables behind and neither lost nor
    /// duplicated a reservation.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.consistent
            && self.outcomes_match
            && self.metrics_match
            && self.tables_digest == self.seq_digest
            && self.lost == 0
            && self.duplicated == 0
    }

    /// One-line machine-readable summary (the `ibaqos serve` /
    /// `chaos-serve` stderr contract on failure).
    #[must_use]
    pub fn summary_line(&self) -> String {
        format!(
            "{}: verdict={} outcomes={} tables={} metrics={} consistent={} lost={} dup={}{} seed={}",
            self.config.command(),
            if self.passed() { "PASS" } else { "FAIL" },
            agreement(self.outcomes_match),
            agreement(self.tables_digest == self.seq_digest),
            agreement(self.metrics_match),
            if self.consistent { "yes" } else { "no" },
            self.lost,
            self.duplicated,
            self.config.journal_field(),
            self.config.seed,
        )
    }

    /// The report's `trace:` line: admission counts and the live set.
    #[must_use]
    pub fn trace_line(&self) -> String {
        let r = &self.report;
        format!(
            "trace: accepted={} rejected={} released={} live={}",
            r.accepted,
            r.rejected,
            r.released,
            r.live.len()
        )
    }

    /// The report's `faults:` line: what the calendar injected and the
    /// service survived (all zeros on a fault-free run).
    #[must_use]
    pub fn faults_line(&self) -> String {
        let f = &self.report.fault_stats;
        format!(
            "faults: crashes={} request_losses={} duplicates={} reply_losses={} timeouts={}",
            f.crashes, f.request_losses, f.duplicates, f.reply_losses, f.timeouts
        )
    }

    /// The full `--replay` report. Everything in it is a pure function
    /// of (topology seed, trace, fault calendar).
    #[must_use]
    pub fn render_report(&self) -> String {
        let c = &self.config;
        let mut out = format!(
            "{}: switches={} seed={} requests={}{}\n{}\n{}\n\
             tables: digest={:#018x} consistent={}\n\
             ledger: lost={} duplicated={}\n\
             differential: outcomes={} tables={} metrics={}\n",
            c.command(),
            c.switches,
            c.seed,
            c.requests,
            c.journal_field(),
            self.faults_line(),
            self.trace_line(),
            self.tables_digest,
            if self.consistent { "yes" } else { "no" },
            self.lost,
            self.duplicated,
            agreement(self.outcomes_match),
            agreement(self.tables_digest == self.seq_digest),
            agreement(self.metrics_match),
        );
        out.push_str("outcomes:\n");
        for (i, o) in self.report.outcomes.iter().enumerate() {
            out.push_str(&format!("  op={i:03} {o:?}\n"));
        }
        out.push_str("metrics (serve_* excluded):\n");
        for line in &self.metric_lines {
            out.push_str(&format!("  {line}\n"));
        }
        out.push_str(&format!(
            "verdict: {}\n",
            if self.passed() {
                "PASS (journaled service matched the sequential manager, exactly-once)"
            } else {
                "FAIL (journaled service diverged from the sequential manager or lost or duplicated reservations)"
            }
        ));
        out
    }
}

/// Ring capacity for the service's request tracer on windowed runs
/// (a few records per trace op).
const SERVE_TRACE_CAP: usize = 1 << 16;

/// Runs the serve scenario: one service run (under the fault calendar
/// when `config.faults` is set) plus the sequential reference run,
/// checked by all five oracles.
///
/// `window: Some(len)` attaches a windowed timeline (one logical tick
/// per trace op, `len` ticks per window, at least 1) to both the
/// service's and the sequential recorder, plus a request tracer on the
/// service so `ServeReport::request_records` carries the per-request
/// stages. The verdicts are unaffected.
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
    let seq_outcomes = service::apply_trace_sequential(&mut seq_mgr, &ops, &mut seq_rec);
    seq_rec.finish_timeline();
    let seq_digest = fnv64(format!("{:?}", seq_mgr.port_tables()).as_bytes());

    // The service run.
    let mut rec = match window {
        Some(len) => {
            let mut r = ObsRecorder::with_tracer(SERVE_TRACE_CAP);
            r.timeline = Some(iba_obs::Timeline::new(len));
            r
        }
        None => ObsRecorder::new(),
    };
    let (plan, opts) = match config.faults {
        Some(opts) => (
            ServeFaultPlan::generate_control(config.seed, ops.len()),
            opts,
        ),
        None => (ServeFaultPlan::none(), ServeOptions::default()),
    };
    let report = service::run_trace_faulted(&planner, &ops, &plan, &opts, &mut rec);
    rec.finish_timeline();
    let tables_digest = fnv64(format!("{:?}", report.tables).as_bytes());

    let consistent = report.tables.check_all().is_ok();
    let outcomes_match = report.outcomes == seq_outcomes;
    let metric_lines = shared_metric_lines(&rec.metrics);
    let metrics_match = metric_lines == shared_metric_lines(&seq_rec.metrics);
    let (lost, duplicated) = report.sweep();

    ServeOutcome {
        config: *config,
        report,
        tables_digest,
        seq_digest,
        consistent,
        outcomes_match,
        metrics_match,
        metric_lines,
        lost,
        duplicated,
        recorder: rec,
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

    fn chaos(switches: usize, seed: u64, requests: usize, journal: bool) -> ServeConfig {
        ServeConfig {
            faults: Some(ServeOptions { journal }),
            ..ServeConfig::new(switches, seed, requests)
        }
    }

    #[test]
    fn serve_run_passes_and_replays_identically() {
        let run = || run_serve(&ServeConfig::new(4, 3, 48), None);
        let outcome = run();
        assert!(outcome.passed(), "{}", outcome.summary_line());
        assert!(outcome.render_report().contains("verdict: PASS"));
        assert_eq!(outcome.render_report(), run().render_report());
    }

    #[test]
    fn chaos_serve_passes_and_replays_identically() {
        let run = || run_serve(&chaos(4, 7, 48, true), None);
        let outcome = run();
        assert!(outcome.passed(), "{}", outcome.summary_line());
        let f = outcome.report.fault_stats;
        assert!(
            f.crashes > 0 && f.request_losses + f.duplicates + f.reply_losses > 0,
            "calendar injected too little: {f:?}"
        );
        assert!(outcome.render_report().contains("verdict: PASS"));
        assert_eq!(outcome.render_report(), run().render_report());
    }

    #[test]
    fn every_oracle_holds_on_both_drives() {
        for seed in [1, 2, 3, 42] {
            for config in [ServeConfig::new(4, seed, 96), chaos(4, seed, 96, true)] {
                let outcome = run_serve(&config, None);
                assert!(outcome.outcomes_match, "{}", outcome.summary_line());
                assert_eq!(outcome.tables_digest, outcome.seq_digest);
                assert!(outcome.metrics_match, "{}", outcome.summary_line());
                assert!(outcome.consistent, "{}", outcome.summary_line());
                assert_eq!((outcome.lost, outcome.duplicated), (0, 0));
            }
        }
    }

    #[test]
    fn journal_off_control_diverges_on_outcomes_tables_and_metrics() {
        let outcome = run_serve(&chaos(4, 7, 48, false), None);
        assert!(!outcome.passed(), "negative control passed");
        assert!(!outcome.outcomes_match, "{}", outcome.summary_line());
        assert_ne!(outcome.tables_digest, outcome.seq_digest);
        let summary = outcome.summary_line();
        assert!(
            summary.starts_with("chaos-serve: verdict=FAIL"),
            "{summary}"
        );
        assert!(summary.contains("metrics=DIVERGED"), "{summary}");
    }

    #[test]
    fn the_ledger_fails_on_a_dropped_or_doubled_live_connection() {
        let outcome = run_serve(&ServeConfig::new(4, 3, 48), None);
        assert_eq!(outcome.report.sweep(), (0, 0));
        assert!(!outcome.report.live.is_empty());

        // A live connection the ledger forgot still holds its weight.
        let mut dropped = outcome.report.clone();
        dropped.live.pop();
        let (lost, duplicated) = dropped.sweep();
        assert_eq!(lost, 0);
        assert!(duplicated > 0, "a forgotten reservation swept clean");

        // One listed twice cannot release its hops a second time.
        let mut doubled = outcome.report.clone();
        let first = doubled.live[0].clone();
        doubled.live.push(first);
        let (lost, _) = doubled.sweep();
        assert!(lost > 0, "a doubled reservation released twice");
    }

    #[test]
    fn the_summary_names_the_journal_mode_only_under_faults() {
        let outcome = run_serve(&chaos(4, 3, 24, true), None);
        assert!(outcome.summary_line().contains("journal=on"));
        let outcome = run_serve(&ServeConfig::new(4, 3, 24), None);
        assert!(!outcome.summary_line().contains("journal="));
        assert!(outcome.summary_line().starts_with("serve: verdict=PASS"));
    }

    #[test]
    fn windowed_serve_timeline_matches_the_sequential_reference() {
        let window_len = 16;
        let run = run_serve(&ServeConfig::new(4, 3, 48), Some(window_len));
        assert!(run.passed(), "{}", run.summary_line());
        let timeline = run.recorder.timeline.as_ref().expect("timeline on");
        // 48 ops at 16 ticks/window: three full windows and no empty
        // trailing one.
        assert_eq!(timeline.len(), 3);
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
