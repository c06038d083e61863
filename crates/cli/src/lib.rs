//! # iba-cli — command-line driver
//!
//! The `ibaqos` binary exposes the library over four subcommands:
//!
//! ```text
//! ibaqos topo   [--switches N] [--seed S] [--dot]       fabric summary / DOT
//! ibaqos fill   [--switches N] [--seed S] [--mtu M]     admission to saturation
//! ibaqos run    [--switches N] [--seed S] [--mtu M]
//!               [--steady-packets P] [--background]     full experiment
//! ibaqos sweep  [run options] [--seeds N] [--threads T]
//!               [--perfetto FILE]                       parallel seed sweep
//! ibaqos report [run options]                           per-VL metrics report
//! ibaqos trace  [run options] [--limit L]
//!               [--perfetto FILE]                       decoded event trace
//! ibaqos audit  [--allocator A] [--mtu M] [--seed S]
//!               [--perfetto FILE]                       service-guarantee audit
//! ibaqos chaos  [--allocator A] [--mtu M] [--seed S]
//!               [--rounds R] [--seeds N] [--threads T]  fault-injection + recovery
//! ibaqos serve  [--switches N] [--seed S]
//!               [--requests N] [--replay] [--window W]
//!               [--slo SPEC] [--flight-dir DIR]
//!               [--perfetto FILE]                       journaled admission service
//! ibaqos chaos-serve [serve options] [--no-journal]    admission service under
//!                                                      control-plane faults
//! ibaqos timeline [run options] [--seeds N] [--threads T]
//!               [--window W] [--json] [--slo SPEC]
//!               [--flight-dir DIR]                      windowed metric timeline
//! ibaqos demo                                           table-filling walkthrough
//! ```
//!
//! `report` and `trace` run the experiment with the `iba-obs`
//! instrumentation enabled; the metric names they print are documented
//! in the repository-level `METRICS.md` contract. `audit` checks the
//! paper's distance guarantee against a live grant stream and exits
//! non-zero on any violation; `--perfetto` writes a Chrome trace-event
//! timeline viewable at <https://ui.perfetto.dev>. `chaos` damages the
//! filled table under seeded fault injection, recovers it with
//! guarantee-preserving table repair and exits non-zero when any
//! post-repair violation remains; on failure both `audit` and `chaos`
//! print a machine-readable `verdict=FAIL` line first on stderr.
//! `serve` drives a seeded admit/teardown/repair trace through the
//! journaled admission service, differentially audits it against the
//! sequential manager, and exits non-zero on any divergence; its
//! `--perfetto` export renders one causal track per request.
//! `chaos-serve` replays the same trace under a seeded control-plane
//! fault calendar — owner crashes, lost or duplicated requests, lost
//! replies — and exits non-zero unless the write-ahead journal,
//! deterministic timeouts and idempotent retries make the faulted run
//! converge to the sequential manager with zero lost and zero
//! duplicated reservations; `--no-journal` is the negative control and
//! must FAIL under the same calendar. `timeline`
//! merges windowed metric deltas from a seed sweep into a
//! `TIMELINE.json` document that is byte-identical at any `--threads`.
//! `report --prom` renders the registry in Prometheus text exposition.
//! `--slo` gates `timeline`/`serve`/`audit`/`chaos` on a declarative
//! spec (see `METRICS.md`); a breach exits non-zero with a
//! machine-readable `slo: verdict=FAIL` first line and, with
//! `--flight-dir`, dumps a flight-recorder bundle for post-mortems.
//!
//! A failed verdict or `--slo` gate exits 1; a command that cannot run
//! as asked (bad command line, unparsable spec, unwritable output)
//! exits 2. See [`Failure`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod args;
pub mod commands;

pub use args::{Args, Command, ParseError};

use std::fmt;

/// Why an `ibaqos` command failed, carrying the text for stderr.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Failure {
    /// The command could not run as asked: a bad command line, an
    /// unparsable `--slo` spec or an output that cannot be written.
    Usage(String),
    /// The command ran and its verdict or `--slo` gate failed; the
    /// first line is the machine-readable verdict.
    Verdict(String),
}

impl Failure {
    /// The process exit status: 1 for a failed verdict, 2 otherwise.
    #[must_use]
    pub fn exit_code(&self) -> i32 {
        match self {
            Failure::Usage(_) => 2,
            Failure::Verdict(_) => 1,
        }
    }
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Usage(text) | Failure::Verdict(text) => f.write_str(text),
        }
    }
}

impl From<String> for Failure {
    fn from(text: String) -> Self {
        Failure::Usage(text)
    }
}

/// Entry point shared by the binary and the tests: parses and runs.
pub fn run(argv: &[String]) -> Result<String, Failure> {
    let args = Args::parse(argv).map_err(|e| e.to_string())?;
    match args.command {
        Command::Topo => Ok(commands::topo(&args)),
        Command::Fill => Ok(commands::fill(&args)),
        Command::Run => Ok(commands::run_experiment(&args)),
        Command::Sweep => commands::sweep(&args),
        Command::Report => Ok(commands::report(&args)),
        Command::Trace => commands::trace(&args),
        Command::Audit => commands::audit(&args),
        Command::Chaos => commands::chaos(&args),
        Command::Serve | Command::ChaosServe => commands::serve(&args),
        Command::Timeline => commands::timeline(&args),
        Command::Demo => Ok(commands::demo()),
        Command::Help => Ok(args::USAGE.to_string()),
    }
}
