//! The chaos-serve drive: runs a seeded admit/teardown/repair trace
//! through the journaled admission service **under a control-plane
//! fault calendar** ([`ServeFaultPlan::generate_control`]) — owner
//! crashes, lost or duplicated requests, lost replies — and
//! differentially audits the survivor against the
//! sequential [`QosManager`](iba_qos::QosManager) reference.
//!
//! Three oracles gate the verdict:
//!
//! 1. **Convergence** — the faulted run's outcomes and final-table
//!    bytes must equal the sequential reference's (the write-ahead
//!    journal, timeouts and the reply cache make every injected fault
//!    invisible);
//! 2. **Exactly-once ledger** — sweeping every live connection's hops
//!    out of a clone of the final tables must release every hop and
//!    leave nothing reserved: a failed release is a *lost*
//!    reservation, leftover reserved weight a *duplicated* one. Repair
//!    drills keep every live connection bound, so the ledger is
//!    absolute, with no legitimate residue;
//! 3. **Consistency** — every final table passes `check_consistency`.
//!
//! The rendered `--replay` report is a pure function of the topology
//! seed, the trace and the calendar, pinned by a golden file.
//! Disabling the journal (`--no-journal`) under the same calendar is
//! the negative control: crashes then lose reservations and the
//! verdict must flip to FAIL.

use crate::fnv::fnv64;
use crate::serve::{build_manager, windowed_recorder};
use iba_obs::ObsRecorder;
use iba_qos::service::{
    self, FaultStats, ServeFaultPlan, ServeOptions, ServeReport, TraceConfig, TraceOutcome,
};

/// Parameters of one chaos-serve run.
#[derive(Clone, Copy, Debug)]
pub struct ChaosServeConfig {
    /// Switches in the irregular fabric under management.
    pub switches: usize,
    /// Master seed: topology, trace and fault-calendar streams.
    pub seed: u64,
    /// Trace length (operations, admit-heavy mix).
    pub requests: usize,
    /// Whether the write-ahead intent journal is on. Turning
    /// it off is the negative control: injected crashes must then lose
    /// reservations and fail the run.
    pub journal: bool,
}

impl ChaosServeConfig {
    /// The default chaos-serve scenario with the journal on.
    #[must_use]
    pub fn new(switches: usize, seed: u64, requests: usize) -> Self {
        ChaosServeConfig {
            switches: switches.max(2),
            seed,
            requests,
            journal: true,
        }
    }
}

/// Everything one chaos-serve run produced.
#[derive(Debug)]
pub struct ChaosServeOutcome {
    /// The scenario that was run.
    pub config: ChaosServeConfig,
    /// The faulted service's report.
    pub report: ServeReport,
    /// What the fault plan injected and the service survived.
    pub fault_stats: FaultStats,
    /// FNV-1a digest of the faulted run's final tables.
    pub tables_digest: u64,
    /// FNV-1a digest of the sequential manager's final tables.
    pub seq_digest: u64,
    /// Whether every final table passed the full consistency audit.
    pub consistent: bool,
    /// Whether the faulted outcome vector equals the sequential one.
    pub outcomes_match: bool,
    /// Reservations the faulted run lost: live connection hops that no
    /// longer release cleanly.
    pub lost: u64,
    /// Reserved weight left after sweeping every live connection out
    /// (double-applied commits).
    pub duplicated: u64,
    /// The faulted run's merged recorder (metrics, request tracer and
    /// — on windowed runs — the finished timeline).
    pub recorder: ObsRecorder,
}

impl ChaosServeOutcome {
    /// Whether the faulted service converged to the sequential
    /// reference with zero lost and zero duplicated reservations.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.consistent
            && self.outcomes_match
            && self.tables_digest == self.seq_digest
            && self.lost == 0
            && self.duplicated == 0
    }

    /// One-line machine-readable summary (the `ibaqos chaos-serve`
    /// stderr contract on failure).
    #[must_use]
    pub fn summary_line(&self) -> String {
        let f = &self.fault_stats;
        format!(
            "chaos-serve: verdict={} outcomes={} tables={} lost={} dup={} \
             crashes={} timeouts={} journal={} seed={}",
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
            self.lost,
            self.duplicated,
            f.crashes,
            f.timeouts,
            if self.config.journal { "on" } else { "off" },
            self.config.seed,
        )
    }

    /// The full `ibaqos chaos-serve --replay` report. Everything in it
    /// is a pure function of (topology seed, trace, fault calendar).
    #[must_use]
    pub fn render_report(&self) -> String {
        let c = &self.config;
        let r = &self.report;
        let f = &self.fault_stats;
        let mut out = format!(
            "chaos-serve: switches={} seed={} requests={} journal={}\n\
             faults: crashes={} request_losses={} duplicates={} reply_losses={} \
             timeouts={}\n\
             trace: accepted={} rejected={} released={} live={}\n\
             tables: digest={:#018x} consistent={}\n\
             ledger: lost={} duplicated={}\n\
             differential: outcomes={} tables={}\n",
            c.switches,
            c.seed,
            c.requests,
            if c.journal { "on" } else { "off" },
            f.crashes,
            f.request_losses,
            f.duplicates,
            f.reply_losses,
            f.timeouts,
            r.accepted,
            r.rejected,
            r.released,
            r.live.len(),
            self.tables_digest,
            if self.consistent { "yes" } else { "no" },
            self.lost,
            self.duplicated,
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
        );
        out.push_str("outcomes:\n");
        for (i, o) in r.outcomes.iter().enumerate() {
            out.push_str(&format!("  op={i:03} {o:?}\n"));
        }
        out.push_str(&format!(
            "verdict: {}\n",
            if self.passed() {
                "PASS (journaled service converged to the sequential manager under faults, exactly-once)"
            } else {
                "FAIL (faulted service lost or duplicated reservations)"
            }
        ));
        out
    }
}

/// Runs the chaos-serve scenario: one faulted service run plus the
/// sequential reference.
///
/// `window: Some(len)` attaches a windowed timeline (`len` ticks per
/// window, at least 1) and a request tracer to the faulted recorder,
/// for `--slo` and the flight recorder. The differential verdicts are
/// unaffected.
#[must_use]
pub fn run_chaos_serve(config: &ChaosServeConfig, window: Option<u64>) -> ChaosServeOutcome {
    let (planner, hosts) = build_manager(config.switches, config.seed);
    let ops = service::generate_trace(&TraceConfig::new(hosts, config.seed, config.requests));

    let plan = ServeFaultPlan::generate_control(config.seed, ops.len());

    // Sequential reference on an identical, independently built manager.
    let (mut seq_mgr, _) = build_manager(config.switches, config.seed);
    let mut seq_rec = ObsRecorder::new();
    let seq_outcomes: Vec<TraceOutcome> =
        service::apply_trace_sequential(&mut seq_mgr, &ops, &mut seq_rec);
    let seq_digest = fnv64(format!("{:?}", seq_mgr.port_tables()).as_bytes());

    // The faulted run.
    let mut rec = windowed_recorder(window.map(|len| len.max(1)));
    let opts = ServeOptions {
        journal: config.journal,
    };
    let report = service::run_trace_faulted(&planner, &ops, &plan, &opts, &mut rec);
    rec.finish_timeline();
    let tables_digest = fnv64(format!("{:?}", report.tables).as_bytes());

    let (lost, duplicated) = report.sweep();

    let consistent = report.tables.check_all().is_ok();
    let outcomes_match = report.outcomes == seq_outcomes;
    let fault_stats = report.fault_stats;

    ChaosServeOutcome {
        config: *config,
        report,
        fault_stats,
        tables_digest,
        seq_digest,
        consistent,
        outcomes_match,
        lost,
        duplicated,
        recorder: rec,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_serve_passes_and_replays_identically() {
        let run = || run_chaos_serve(&ChaosServeConfig::new(4, 7, 48), None);
        let outcome = run();
        assert!(outcome.passed(), "{}", outcome.summary_line());
        let f = outcome.fault_stats;
        assert!(
            f.crashes > 0 && f.request_losses + f.duplicates + f.reply_losses > 0,
            "calendar injected too little: {f:?}"
        );
        assert!(outcome.render_report().contains("verdict: PASS"));
        assert_eq!(outcome.render_report(), run().render_report());
    }

    #[test]
    fn journal_off_negative_control_fails_with_lost_reservations() {
        let mut config = ChaosServeConfig::new(4, 7, 48);
        config.journal = false;
        let outcome = run_chaos_serve(&config, None);
        assert!(!outcome.passed(), "negative control passed");
        assert!(
            outcome.lost > 0 || !outcome.outcomes_match,
            "journal-off run lost nothing: {}",
            outcome.summary_line()
        );
        assert!(outcome
            .summary_line()
            .starts_with("chaos-serve: verdict=FAIL"));
    }

    #[test]
    fn chaos_serve_summary_names_the_journal_mode() {
        let outcome = run_chaos_serve(&ChaosServeConfig::new(4, 3, 24), None);
        assert!(outcome.summary_line().contains("journal=on"));
    }
}
