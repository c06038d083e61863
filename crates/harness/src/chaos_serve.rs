//! The chaos-serve drive: runs a seeded admit/teardown/repair trace
//! through the sharded admission service **under a control-plane fault
//! calendar** — shard crashes, vote-message loss/delay, reply loss —
//! and differentially audits the survivor against both the sequential
//! [`QosManager`](iba_qos::QosManager) reference and an unfaulted sharded run.
//!
//! Three oracles gate the verdict:
//!
//! 1. **Convergence** — the faulted run's outcomes and final-table
//!    bytes must equal the sequential reference's (the write-ahead
//!    journal + idempotent retries make every injected fault
//!    invisible);
//! 2. **Exactly-once ledger** — sweeping every live connection's hops
//!    out of a clone of the final tables must leave the same residue
//!    as the same sweep over the unfaulted baseline: a failed release
//!    is a *lost* reservation, leftover reserved weight is a
//!    *duplicated* one;
//! 3. **Consistency** — every final table passes `check_consistency`.
//!
//! The rendered `--replay` report contains nothing that depends on the
//! shard count (consumed-fault counts target the lowest participant
//! shard, so even they are shard-invariant), which CI checks with
//! `cmp` at 1, 2 and 8 shards. Disabling the journal (`--no-journal`)
//! under the same calendar is the negative control: crashes then lose
//! reservations and the verdict must flip to FAIL.

use crate::fnv::fnv64;
use crate::serve::{build_manager, windowed_recorder};
use iba_obs::ObsRecorder;
use iba_qos::service::{
    self, FaultStats, ServeFaultPlan, ServeOptions, ServeReport, TraceConfig, TraceOutcome,
};
use iba_qos::PortTables;

/// Parameters of one chaos-serve run.
#[derive(Clone, Copy, Debug)]
pub struct ChaosServeConfig {
    /// Switches in the irregular fabric under management.
    pub switches: usize,
    /// Master seed: topology, trace and fault-calendar streams.
    pub seed: u64,
    /// Trace length (operations, admit-heavy mix).
    pub requests: usize,
    /// Worker shards the port tables are partitioned across.
    pub shards: usize,
    /// Whether the per-shard write-ahead intent journal is on. Turning
    /// it off is the negative control: injected crashes must then lose
    /// reservations and fail the run.
    pub journal: bool,
}

impl ChaosServeConfig {
    /// The default chaos-serve scenario with the journal on.
    #[must_use]
    pub fn new(switches: usize, seed: u64, requests: usize, shards: usize) -> Self {
        ChaosServeConfig {
            switches: switches.max(2),
            seed,
            requests,
            shards: shards.max(1),
            journal: true,
        }
    }
}

/// Everything one chaos-serve run produced.
#[derive(Debug)]
pub struct ChaosServeOutcome {
    /// The scenario that was run.
    pub config: ChaosServeConfig,
    /// The faulted sharded service's report.
    pub report: ServeReport,
    /// What the fault engine injected and survived (shard-invariant).
    pub fault_stats: FaultStats,
    /// FNV-1a digest of the faulted run's final tables.
    pub tables_digest: u64,
    /// FNV-1a digest of the sequential manager's final tables.
    pub seq_digest: u64,
    /// Whether every final table passed the full consistency audit.
    pub consistent: bool,
    /// Whether the faulted outcome vector equals the sequential one.
    pub outcomes_match: bool,
    /// Reservations the faulted run lost versus the unfaulted baseline
    /// (live connections whose hops no longer release cleanly).
    pub lost: u64,
    /// Reserved weight the faulted run holds beyond the baseline after
    /// sweeping every live connection out (double-applied commits).
    pub duplicated: u64,
    /// The faulted run's merged recorder (metrics, request tracer and
    /// — on windowed runs — the finished timeline).
    pub recorder: ObsRecorder,
}

/// Releases every live connection's hops (reverse path order) out of a
/// clone of `tables` and reports `(failed releases, leftover reserved
/// weight)` — the raw material of the exactly-once ledger. Run over
/// both the faulted and the baseline run, the *difference* isolates
/// fault damage from legitimate residue (e.g. repairs evicting
/// reservations that a later teardown then fails to find).
fn sweep_ledger(tables: &PortTables, live: &[service::LiveConn]) -> (u64, u64) {
    let mut t = tables.clone();
    let mut failed = 0u64;
    for conn in live {
        for &hop in conn.hops.iter().rev() {
            if t.release_hop(hop, conn.weight).is_err() {
                failed += 1;
            }
        }
    }
    let leftover: u64 = t
        .tables()
        .map(|(_, tab)| u64::from(tab.reserved_weight()))
        .sum();
    (failed, leftover)
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
    /// stderr contract on failure). This line carries the shard count,
    /// so it is *not* part of the shard-invariant report body.
    #[must_use]
    pub fn summary_line(&self) -> String {
        let f = &self.fault_stats;
        format!(
            "chaos-serve: verdict={} shards={} outcomes={} tables={} lost={} dup={} \
             crashes={} timeouts={} journal={} seed={}",
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
            self.lost,
            self.duplicated,
            f.crashes,
            f.timeouts,
            if self.config.journal { "on" } else { "off" },
            self.config.seed,
        )
    }

    /// The full `ibaqos chaos-serve --replay` report. Everything in it
    /// is a pure function of (topology seed, trace, fault calendar) —
    /// never of the shard count — so replays at different shard counts
    /// must be byte-identical.
    #[must_use]
    pub fn render_report(&self) -> String {
        let c = &self.config;
        let r = &self.report;
        let f = &self.fault_stats;
        let mut out = format!(
            "chaos-serve: switches={} seed={} requests={} journal={}\n\
             faults: crashes={} msg_losses={} msg_delays={} reply_losses={} timeouts={} \
             shed=[{},{}]\n\
             trace: accepted={} rejected={} released={} live={}\n\
             tables: digest={:#018x} consistent={}\n\
             ledger: lost={} duplicated={}\n\
             differential: outcomes={} tables={}\n",
            c.switches,
            c.seed,
            c.requests,
            if c.journal { "on" } else { "off" },
            f.crashes,
            f.msg_losses,
            f.msg_delays,
            f.reply_losses,
            f.timeouts,
            f.shed[0],
            f.shed[1],
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
                "PASS (faulted service converged to the sequential manager, exactly-once)"
            } else {
                "FAIL (faulted service lost or duplicated reservations)"
            }
        ));
        out
    }
}

/// Runs the chaos-serve scenario: one faulted sharded run plus the
/// sequential reference and the unfaulted ledger baseline.
///
/// `window: Some(len)` attaches a windowed timeline (`len` ticks per
/// window, at least 1) and a request tracer to the faulted recorder,
/// for `--slo` and the flight recorder. The differential verdicts are
/// unaffected.
#[must_use]
pub fn run_chaos_serve(config: &ChaosServeConfig, window: Option<u64>) -> ChaosServeOutcome {
    let (planner, hosts) = build_manager(config.switches, config.seed);
    let ops = service::generate_trace(&TraceConfig::new(hosts, config.seed, config.requests));

    // The control-plane fault calendar rides the same seeded-schedule
    // machinery as the fabric faults, then compiles into the service's
    // fault plan.
    let calendar = iba_sim::fault::FaultPlan::generate_control(config.seed, ops.len());
    let plan = ServeFaultPlan::from_calendar(&calendar);

    // Sequential reference on an identical, independently built manager.
    let (mut seq_mgr, _) = build_manager(config.switches, config.seed);
    let mut seq_rec = ObsRecorder::new();
    let seq_outcomes: Vec<TraceOutcome> =
        service::apply_trace_sequential(&mut seq_mgr, &ops, &mut seq_rec);
    let seq_digest = fnv64(format!("{:?}", seq_mgr.port_tables()).as_bytes());

    // Unfaulted sharded baseline: its ledger residue is the legitimate
    // one (repairs evict reservations even without faults).
    let (base_planner, _) = build_manager(config.switches, config.seed);
    let mut base_rec = ObsRecorder::new();
    let baseline = service::run_trace(&base_planner, &ops, 1, &mut base_rec);
    let (base_lost, base_leftover) = sweep_ledger(&baseline.tables, &baseline.live);

    // The faulted run.
    let mut rec = windowed_recorder(window.map(|len| len.max(1)));
    let opts = ServeOptions {
        journal: config.journal,
        ..ServeOptions::default()
    };
    let report = service::run_trace_faulted(&planner, &ops, config.shards, &plan, &opts, &mut rec);
    rec.finish_timeline();
    let tables_digest = fnv64(format!("{:?}", report.tables).as_bytes());

    let (run_lost, run_leftover) = sweep_ledger(&report.tables, &report.live);
    let lost = run_lost.saturating_sub(base_lost);
    let duplicated = run_leftover.saturating_sub(base_leftover);

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
    fn chaos_serve_passes_and_report_is_shard_invariant() {
        let reports: Vec<String> = [1usize, 2, 8]
            .iter()
            .map(|&shards| {
                let outcome = run_chaos_serve(&ChaosServeConfig::new(4, 7, 48, shards), None);
                assert!(outcome.passed(), "{}", outcome.summary_line());
                assert!(
                    outcome.fault_stats.crashes + outcome.fault_stats.msg_losses > 0,
                    "calendar injected nothing: {:?}",
                    outcome.fault_stats
                );
                outcome.render_report()
            })
            .collect();
        assert_eq!(reports[0], reports[1], "1 vs 2 shards");
        assert_eq!(reports[0], reports[2], "1 vs 8 shards");
        assert!(reports[0].contains("verdict: PASS"));
    }

    #[test]
    fn journal_off_negative_control_fails_with_lost_reservations() {
        let mut config = ChaosServeConfig::new(4, 7, 48, 2);
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
    fn chaos_serve_summary_names_the_shard_count() {
        let outcome = run_chaos_serve(&ChaosServeConfig::new(4, 3, 24, 2), None);
        assert!(outcome.summary_line().contains("shards=2"));
        assert!(outcome.summary_line().contains("journal=on"));
    }
}
