//! Dependency-free argument parsing.

use iba_core::AllocatorKind;
use std::fmt;

/// Usage text.
pub const USAGE: &str = "\
ibaqos — InfiniBand arbitration-table QoS toolkit

USAGE:
    ibaqos <COMMAND> [OPTIONS]

COMMANDS:
    topo    generate a fabric and print a summary (or --dot)
    fill    fill the fabric's arbitration tables to saturation
    run     run the full experiment (fill + simulate + report)
    sweep   run one experiment per seed in parallel (deterministic merge)
    report  instrumented run: per-VL metrics and serviced-bytes shares
    trace   instrumented run: decode the newest ring-buffer events
    audit   check the per-SL service guarantee against a live grant stream
    chaos   inject faults + table corruption, recover, re-audit guarantees
    serve   drive the journaled admission service over a seeded trace
    chaos-serve  drive the journaled admission service under a control-plane
            fault calendar (crashes, request and reply loss) and audit
            exactly-once
    timeline  windowed metric timeline over a seed sweep (TIMELINE.json)
    demo    step-by-step walkthrough of the table-filling algorithm
    help    show this text

OPTIONS (a command rejects every option it does not read, exit 2):
    --switches <N>         (all but audit/chaos/demo) number of switches
                           [default: 8]
    --seed <S>             (all but demo) RNG seed   [default: 42]
    --mtu <M>              (fill/run/sweep/report/trace/audit/chaos/
                           timeline) packet size in bytes: 256, 1024,
                           2048 or 4096              [default: 256]
    --steady-packets <P>   (run/sweep/report/trace/timeline) steady-state
                           length                    [default: 10]
    --limit <L>            (trace) events to print, 0 = all  [default: 32]
    --seeds <N>            (sweep/chaos/timeline) points: seeds S..S+N-1
                           [default: 4]
    --threads <T>          (sweep/chaos/timeline) worker threads,
                           0 = IBA_THREADS/auto
    --allocator <A>        (audit/chaos) bit-reversal | first-fit | reverse-fit
    --rounds <R>           (chaos) corruption/repair rounds   [default: 3]
    --requests <N>         (serve/chaos-serve) trace operations [default: 96]
    --replay               (serve/chaos-serve) print the full replay
                           report
    --no-journal           (chaos-serve) disable the write-ahead
                           intent journal — the negative control; a crashed
                           owner then restarts empty and the run FAILs
    --perfetto <FILE>      (audit/trace/sweep/serve/chaos-serve) write a
                           Perfetto/Chrome trace-event JSON timeline to
                           FILE; on serve it carries one pid-3 track per
                           request
    --window <W>           (timeline/serve/chaos-serve) ticks per window
                           [default: 4096 sim cycles; serve counts
                           finalized trace ops instead]
    --json                 (timeline) emit the TIMELINE.json document
    --slo <SPEC>           (timeline/serve/chaos-serve/audit/chaos) gate
                           the run on a declarative SLO spec, e.g.
                           'p99(alloc_probe_depth) <= 8; rate(cac_reject_total) == 0'
    --flight-dir <DIR>     (timeline/serve/chaos-serve/audit/chaos) on an
                           SLO breach or FAIL verdict, dump a
                           flight-recorder bundle into DIR
    --prom                 (report) Prometheus text exposition instead
                           of the human-readable report
    --background           (run/sweep/report/trace) add best-effort
                           background traffic
    --dot                  (topo) emit Graphviz DOT instead of a summary

`audit` exits non-zero when any service-guarantee violation is observed.
`chaos` exits non-zero when recovery leaves a violation (or an
inconsistent table) behind; `--seeds` sizes its faulted fabric sweep.
`serve` exits non-zero when the service diverges from the sequential
manager on any observable.
`chaos-serve` exits non-zero when the faulted service loses or
duplicates a reservation or diverges from the sequential manager.
`timeline` runs `--seeds` seeded experiments and merges their windowed
metric deltas; its TIMELINE.json is byte-identical at any `--threads`.
A breached `--slo` also exits non-zero, with a machine-readable
`slo: verdict=FAIL ...` first line on stderr.
";

/// Which subcommand to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Command {
    /// Fabric generation / inspection.
    Topo,
    /// Admission fill only.
    Fill,
    /// Full experiment.
    Run,
    /// Parallel multi-seed sweep.
    Sweep,
    /// Instrumented run rendering the metrics registry.
    Report,
    /// Instrumented run decoding the event ring buffer.
    Trace,
    /// Service-guarantee audit of one saturated port.
    Audit,
    /// Fault injection + recovery with a post-repair guarantee audit.
    Chaos,
    /// Journaled admission service differentially audited against the
    /// sequential manager.
    Serve,
    /// Journaled admission service under a control-plane fault calendar,
    /// audited for convergence and exactly-once semantics.
    ChaosServe,
    /// Windowed metric timeline over a seed sweep.
    Timeline,
    /// Educational walkthrough.
    Demo,
    /// Print usage.
    Help,
}

/// Every command: its name, what it parses to, and the options it
/// reads. Any other option is rejected, so a flag the command would
/// ignore cannot make a mistyped invocation look like a passing one.
const COMMANDS: &[(&str, Command, &[&str])] = &[
    ("topo", Command::Topo, &["--switches", "--seed", "--dot"]),
    ("fill", Command::Fill, &["--switches", "--seed", "--mtu"]),
    (
        "run",
        Command::Run,
        &[
            "--switches",
            "--seed",
            "--mtu",
            "--steady-packets",
            "--background",
        ],
    ),
    (
        "sweep",
        Command::Sweep,
        &[
            "--switches",
            "--seed",
            "--mtu",
            "--steady-packets",
            "--background",
            "--seeds",
            "--threads",
            "--perfetto",
        ],
    ),
    (
        "report",
        Command::Report,
        &[
            "--switches",
            "--seed",
            "--mtu",
            "--steady-packets",
            "--background",
            "--prom",
        ],
    ),
    (
        "trace",
        Command::Trace,
        &[
            "--switches",
            "--seed",
            "--mtu",
            "--steady-packets",
            "--background",
            "--limit",
            "--perfetto",
        ],
    ),
    (
        "audit",
        Command::Audit,
        &[
            "--allocator",
            "--mtu",
            "--seed",
            "--perfetto",
            "--slo",
            "--flight-dir",
        ],
    ),
    (
        "chaos",
        Command::Chaos,
        &[
            "--allocator",
            "--mtu",
            "--seed",
            "--rounds",
            "--seeds",
            "--threads",
            "--slo",
            "--flight-dir",
        ],
    ),
    (
        "serve",
        Command::Serve,
        &[
            "--switches",
            "--seed",
            "--requests",
            "--replay",
            "--window",
            "--slo",
            "--flight-dir",
            "--perfetto",
        ],
    ),
    (
        "chaos-serve",
        Command::ChaosServe,
        &[
            "--switches",
            "--seed",
            "--requests",
            "--replay",
            "--window",
            "--slo",
            "--flight-dir",
            "--perfetto",
            "--no-journal",
        ],
    ),
    (
        "timeline",
        Command::Timeline,
        &[
            "--switches",
            "--seed",
            "--mtu",
            "--steady-packets",
            "--seeds",
            "--threads",
            "--window",
            "--json",
            "--slo",
            "--flight-dir",
        ],
    ),
    ("demo", Command::Demo, &[]),
    ("help", Command::Help, &[]),
    ("--help", Command::Help, &[]),
    ("-h", Command::Help, &[]),
];

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// Subcommand.
    pub command: Command,
    /// `--switches`.
    pub switches: usize,
    /// `--seed`.
    pub seed: u64,
    /// `--mtu`.
    pub mtu: u32,
    /// `--steady-packets`.
    pub steady_packets: u64,
    /// `--limit` (trace): number of newest events to print, 0 = all.
    pub limit: usize,
    /// `--seeds` (sweep): number of sweep points.
    pub seeds: u64,
    /// `--threads` (sweep): worker threads; 0 = `IBA_THREADS`/auto.
    pub threads: usize,
    /// `--allocator` (audit/chaos): allocation policy under audit.
    pub allocator: AllocatorKind,
    /// `--rounds` (chaos): corruption/repair rounds.
    pub rounds: u32,
    /// `--requests` (serve): trace operations to generate.
    pub requests: usize,
    /// `--replay` (serve/chaos-serve): print the full replay report.
    pub replay: bool,
    /// `--no-journal` (chaos-serve): disable the write-ahead intent
    /// journal (the negative control).
    pub no_journal: bool,
    /// `--perfetto` (audit/trace/sweep/serve): write a Perfetto/Chrome
    /// trace-event JSON file here (serve adds per-request tracks).
    pub perfetto: Option<String>,
    /// `--window` (timeline/serve): ticks per timeline window.
    pub window: u64,
    /// `--json` (timeline): emit the TIMELINE.json document.
    pub json: bool,
    /// `--slo` (timeline/serve/audit/chaos): declarative SLO spec the
    /// run must satisfy to exit zero.
    pub slo: Option<String>,
    /// `--flight-dir` (timeline/serve/audit/chaos): where to dump the
    /// flight-recorder bundle on a breach or FAIL verdict.
    pub flight_dir: Option<String>,
    /// `--prom` (report): Prometheus text exposition.
    pub prom: bool,
    /// `--background`.
    pub background: bool,
    /// `--dot`.
    pub dot: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            command: Command::Help,
            switches: 8,
            seed: 42,
            mtu: 256,
            steady_packets: 10,
            limit: 32,
            seeds: 4,
            threads: 0,
            allocator: AllocatorKind::BitReversal,
            rounds: 3,
            requests: 96,
            replay: false,
            no_journal: false,
            perfetto: None,
            window: 4096,
            json: false,
            slo: None,
            flight_dir: None,
            prom: false,
            background: false,
            dot: false,
        }
    }
}

/// Parse failures.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ParseError {
    /// No subcommand given.
    MissingCommand,
    /// Unknown subcommand.
    UnknownCommand(String),
    /// Unknown flag.
    UnknownFlag(String),
    /// A flag that needs a value didn't get one.
    MissingValue(String),
    /// A value failed to parse.
    BadValue(String, String),
    /// A known flag that the command does not read: `(command, flag)`.
    FlagNotForCommand(String, String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::MissingCommand => write!(f, "missing command\n\n{USAGE}"),
            ParseError::UnknownCommand(c) => write!(f, "unknown command '{c}'\n\n{USAGE}"),
            ParseError::UnknownFlag(o) => write!(f, "unknown flag '{o}'\n\n{USAGE}"),
            ParseError::MissingValue(o) => write!(f, "flag '{o}' needs a value"),
            ParseError::BadValue(o, v) => write!(f, "bad value '{v}' for '{o}'"),
            ParseError::FlagNotForCommand(c, o) => {
                write!(f, "'{c}' does not take '{o}'\n\n{USAGE}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

impl Args {
    /// Parses `argv` (without the program name).
    pub fn parse(argv: &[String]) -> Result<Args, ParseError> {
        let mut args = Args::default();
        let mut it = argv.iter();
        let cmd = it.next().ok_or(ParseError::MissingCommand)?;
        let &(_, command, options) = COMMANDS
            .iter()
            .find(|(name, _, _)| name == cmd)
            .ok_or_else(|| ParseError::UnknownCommand(cmd.clone()))?;
        args.command = command;

        while let Some(flag) = it.next() {
            let flag_name = flag.as_str();
            let known = COMMANDS.iter().any(|(_, _, o)| o.contains(&flag_name));
            if known && !options.contains(&flag_name) {
                return Err(ParseError::FlagNotForCommand(cmd.clone(), flag.clone()));
            }
            match flag.as_str() {
                "--background" => args.background = true,
                "--dot" => args.dot = true,
                "--replay" => args.replay = true,
                "--no-journal" => args.no_journal = true,
                "--json" => args.json = true,
                "--prom" => args.prom = true,
                "--switches" | "--seed" | "--mtu" | "--steady-packets" | "--limit" | "--seeds"
                | "--threads" | "--allocator" | "--rounds" | "--requests" | "--perfetto"
                | "--window" | "--slo" | "--flight-dir" => {
                    let value = it
                        .next()
                        .ok_or_else(|| ParseError::MissingValue(flag.clone()))?;
                    let bad = || ParseError::BadValue(flag.clone(), value.clone());
                    match flag.as_str() {
                        "--switches" => args.switches = value.parse().map_err(|_| bad())?,
                        "--seed" => args.seed = value.parse().map_err(|_| bad())?,
                        "--mtu" => args.mtu = value.parse().map_err(|_| bad())?,
                        "--steady-packets" => {
                            args.steady_packets = value.parse().map_err(|_| bad())?;
                        }
                        "--limit" => args.limit = value.parse().map_err(|_| bad())?,
                        "--seeds" => args.seeds = value.parse().map_err(|_| bad())?,
                        "--threads" => args.threads = value.parse().map_err(|_| bad())?,
                        "--allocator" => {
                            args.allocator = AllocatorKind::ALL
                                .into_iter()
                                .find(|k| k.name() == value.as_str())
                                .ok_or_else(bad)?;
                        }
                        "--rounds" => args.rounds = value.parse().map_err(|_| bad())?,
                        "--requests" => args.requests = value.parse().map_err(|_| bad())?,
                        "--perfetto" => {
                            if value.is_empty() {
                                return Err(bad());
                            }
                            args.perfetto = Some(value.clone());
                        }
                        "--window" => args.window = value.parse().map_err(|_| bad())?,
                        "--slo" => {
                            if value.is_empty() {
                                return Err(bad());
                            }
                            args.slo = Some(value.clone());
                        }
                        "--flight-dir" => {
                            if value.is_empty() {
                                return Err(bad());
                            }
                            args.flight_dir = Some(value.clone());
                        }
                        _ => unreachable!(),
                    }
                }
                other => return Err(ParseError::UnknownFlag(other.to_string())),
            }
        }
        if args.switches == 0 {
            return Err(ParseError::BadValue("--switches".into(), "0".into()));
        }
        if args.seeds == 0 {
            return Err(ParseError::BadValue("--seeds".into(), "0".into()));
        }
        if args.window == 0 {
            return Err(ParseError::BadValue("--window".into(), "0".into()));
        }
        // The IBA MTUs: any other packet size has no simulator model.
        if !matches!(args.mtu, 256 | 1024 | 2048 | 4096) {
            return Err(ParseError::BadValue("--mtu".into(), args.mtu.to_string()));
        }
        Ok(args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn defaults_apply() {
        let a = Args::parse(&argv("run")).unwrap();
        assert_eq!(a.command, Command::Run);
        assert_eq!(a.switches, 8);
        assert_eq!(a.seed, 42);
        assert_eq!(a.mtu, 256);
        assert!(!a.background);
    }

    #[test]
    fn all_flags_parse() {
        let a = Args::parse(&argv(
            "run --switches 16 --seed 7 --mtu 4096 --steady-packets 30 --background",
        ))
        .unwrap();
        assert_eq!(a.switches, 16);
        assert_eq!(a.seed, 7);
        assert_eq!(a.mtu, 4096);
        assert_eq!(a.steady_packets, 30);
        assert!(a.background);
    }

    #[test]
    fn only_iba_mtus_parse() {
        for mtu in [256, 1024, 2048, 4096] {
            let a = Args::parse(&argv(&format!("fill --switches 2 --mtu {mtu}"))).unwrap();
            assert_eq!(a.mtu, mtu);
        }
        for mtu in ["0", "512", "4095", "8192"] {
            assert_eq!(
                Args::parse(&argv(&format!("fill --switches 2 --mtu {mtu}"))).unwrap_err(),
                ParseError::BadValue("--mtu".into(), mtu.into())
            );
        }
    }

    #[test]
    fn topo_dot_flag() {
        let a = Args::parse(&argv("topo --dot")).unwrap();
        assert_eq!(a.command, Command::Topo);
        assert!(a.dot);
    }

    #[test]
    fn errors_are_specific() {
        assert_eq!(Args::parse(&[]).unwrap_err(), ParseError::MissingCommand);
        assert!(matches!(
            Args::parse(&argv("frobnicate")).unwrap_err(),
            ParseError::UnknownCommand(_)
        ));
        assert!(matches!(
            Args::parse(&argv("run --bogus")).unwrap_err(),
            ParseError::UnknownFlag(_)
        ));
        assert!(matches!(
            Args::parse(&argv("run --switches")).unwrap_err(),
            ParseError::MissingValue(_)
        ));
        assert!(matches!(
            Args::parse(&argv("run --switches banana")).unwrap_err(),
            ParseError::BadValue(_, _)
        ));
        assert!(matches!(
            Args::parse(&argv("run --switches 0")).unwrap_err(),
            ParseError::BadValue(_, _)
        ));
    }

    #[test]
    fn report_and_trace_parse() {
        let a = Args::parse(&argv("report --switches 4")).unwrap();
        assert_eq!(a.command, Command::Report);
        assert_eq!(a.switches, 4);
        let a = Args::parse(&argv("trace --limit 7")).unwrap();
        assert_eq!(a.command, Command::Trace);
        assert_eq!(a.limit, 7);
        let a = Args::parse(&argv("trace --limit 0")).unwrap();
        assert_eq!(a.limit, 0, "0 means all retained events");
        assert!(matches!(
            Args::parse(&argv("trace --limit banana")).unwrap_err(),
            ParseError::BadValue(_, _)
        ));
    }

    #[test]
    fn sweep_flags_parse() {
        let a = Args::parse(&argv("sweep --seeds 8 --threads 2 --switches 4")).unwrap();
        assert_eq!(a.command, Command::Sweep);
        assert_eq!(a.seeds, 8);
        assert_eq!(a.threads, 2);
        assert_eq!(a.switches, 4);
        assert!(matches!(
            Args::parse(&argv("sweep --seeds 0")).unwrap_err(),
            ParseError::BadValue(_, _)
        ));
        // Defaults: 4 seeds, auto threads.
        let a = Args::parse(&argv("sweep")).unwrap();
        assert_eq!(a.seeds, 4);
        assert_eq!(a.threads, 0);
    }

    #[test]
    fn audit_flags_parse() {
        let a = Args::parse(&argv("audit")).unwrap();
        assert_eq!(a.command, Command::Audit);
        assert_eq!(a.allocator, AllocatorKind::BitReversal);
        assert_eq!(a.perfetto, None);
        let a = Args::parse(&argv(
            "audit --allocator first-fit --mtu 4096 --perfetto out.json",
        ))
        .unwrap();
        assert_eq!(a.allocator, AllocatorKind::FirstFit);
        assert_eq!(a.mtu, 4096);
        assert_eq!(a.perfetto.as_deref(), Some("out.json"));
        let a = Args::parse(&argv("audit --allocator reverse-fit")).unwrap();
        assert_eq!(a.allocator, AllocatorKind::ReverseFit);
        assert!(matches!(
            Args::parse(&argv("audit --allocator worst-fit")).unwrap_err(),
            ParseError::BadValue(_, _)
        ));
        assert!(matches!(
            Args::parse(&argv("audit --perfetto")).unwrap_err(),
            ParseError::MissingValue(_)
        ));
    }

    #[test]
    fn chaos_flags_parse() {
        let a = Args::parse(&argv("chaos")).unwrap();
        assert_eq!(a.command, Command::Chaos);
        assert_eq!(a.allocator, AllocatorKind::BitReversal);
        assert_eq!(a.rounds, 3);
        let a = Args::parse(&argv(
            "chaos --allocator first-fit --mtu 4096 --rounds 5 --seeds 2 --threads 2",
        ))
        .unwrap();
        assert_eq!(a.allocator, AllocatorKind::FirstFit);
        assert_eq!(a.rounds, 5);
        assert_eq!(a.seeds, 2);
        assert_eq!(a.threads, 2);
        assert!(matches!(
            Args::parse(&argv("chaos --rounds banana")).unwrap_err(),
            ParseError::BadValue(_, _)
        ));
    }

    #[test]
    fn serve_flags_parse() {
        let a = Args::parse(&argv("serve")).unwrap();
        assert_eq!(a.command, Command::Serve);
        assert_eq!(a.requests, 96);
        assert!(!a.replay);
        let a = Args::parse(&argv("serve --switches 4 --seed 3 --requests 40 --replay")).unwrap();
        assert_eq!(a.switches, 4);
        assert_eq!(a.seed, 3);
        assert_eq!(a.requests, 40);
        assert!(a.replay);
        assert!(matches!(
            Args::parse(&argv("serve --shards 2")).unwrap_err(),
            ParseError::UnknownFlag(_)
        ));
        assert!(matches!(
            Args::parse(&argv("serve --requests banana")).unwrap_err(),
            ParseError::BadValue(_, _)
        ));
    }

    #[test]
    fn chaos_serve_flags_parse() {
        let a = Args::parse(&argv("chaos-serve")).unwrap();
        assert_eq!(a.command, Command::ChaosServe);
        assert_eq!(a.requests, 96);
        assert!(!a.no_journal);
        let a = Args::parse(&argv(
            "chaos-serve --switches 4 --seed 7 --requests 40 --replay --no-journal",
        ))
        .unwrap();
        assert_eq!(a.switches, 4);
        assert_eq!(a.seed, 7);
        assert_eq!(a.requests, 40);
        assert!(a.replay);
        assert!(a.no_journal);
    }

    #[test]
    fn perfetto_applies_to_trace_and_sweep_too() {
        let a = Args::parse(&argv("trace --perfetto t.json")).unwrap();
        assert_eq!(a.perfetto.as_deref(), Some("t.json"));
        let a = Args::parse(&argv("sweep --perfetto s.json --seeds 2")).unwrap();
        assert_eq!(a.perfetto.as_deref(), Some("s.json"));
    }

    #[test]
    fn timeline_flags_parse() {
        let a = Args::parse(&argv("timeline")).unwrap();
        assert_eq!(a.command, Command::Timeline);
        assert_eq!(a.window, 4096);
        assert!(!a.json);
        assert_eq!(a.slo, None);
        assert_eq!(a.flight_dir, None);
        let a = Args::parse(&argv(
            "timeline --switches 4 --seed 11 --seeds 3 --window 2048 --json --threads 2",
        ))
        .unwrap();
        assert_eq!(a.switches, 4);
        assert_eq!(a.seed, 11);
        assert_eq!(a.seeds, 3);
        assert_eq!(a.window, 2048);
        assert!(a.json);
        assert_eq!(a.threads, 2);
        assert!(matches!(
            Args::parse(&argv("timeline --window 0")).unwrap_err(),
            ParseError::BadValue(_, _)
        ));
        assert!(matches!(
            Args::parse(&argv("timeline --window banana")).unwrap_err(),
            ParseError::BadValue(_, _)
        ));
    }

    #[test]
    fn slo_and_flight_flags_parse() {
        let a = Args::parse(&argv(
            "serve --slo rate(cac_admit_total)==0 --flight-dir flight --window 16",
        ))
        .unwrap();
        assert_eq!(a.slo.as_deref(), Some("rate(cac_admit_total)==0"));
        assert_eq!(a.flight_dir.as_deref(), Some("flight"));
        assert_eq!(a.window, 16);
        let a = Args::parse(&argv("audit --slo rate(audit_violations_total)==0")).unwrap();
        assert_eq!(a.slo.as_deref(), Some("rate(audit_violations_total)==0"));
        assert!(matches!(
            Args::parse(&argv("serve --slo")).unwrap_err(),
            ParseError::MissingValue(_)
        ));
        assert!(matches!(
            Args::parse(&argv("serve --flight-dir")).unwrap_err(),
            ParseError::MissingValue(_)
        ));
    }

    #[test]
    fn report_prom_flag() {
        let a = Args::parse(&argv("report --prom --switches 4")).unwrap();
        assert_eq!(a.command, Command::Report);
        assert!(a.prom);
        assert!(!Args::parse(&argv("report")).unwrap().prom);
    }

    #[test]
    fn a_flag_the_command_does_not_read_is_rejected() {
        let not_for = |c: &str, o: &str| ParseError::FlagNotForCommand(c.into(), o.into());
        let err = Args::parse(&argv("serve --switches 4 --seed 3 --json")).unwrap_err();
        assert_eq!(err, not_for("serve", "--json"));
        assert!(err
            .to_string()
            .starts_with("'serve' does not take '--json'"));
        for (line, flag) in [
            (
                "audit --mtu 4096 --seed 42 --json --window 7 --no-journal",
                "--json",
            ),
            (
                "audit --mtu 4096 --seed 42 --window 7 --no-journal",
                "--window",
            ),
            ("audit --mtu 4096 --seed 42 --no-journal", "--no-journal"),
        ] {
            assert_eq!(
                Args::parse(&argv(line)).unwrap_err(),
                not_for("audit", flag)
            );
        }
        assert_eq!(
            Args::parse(&argv("demo --seed 1")).unwrap_err(),
            not_for("demo", "--seed")
        );
        // A flag no command reads stays unknown.
        assert_eq!(
            Args::parse(&argv("serve --bogus")).unwrap_err(),
            ParseError::UnknownFlag("--bogus".into())
        );
    }

    #[test]
    fn every_command_takes_each_of_its_options() {
        for &(name, command, options) in COMMANDS {
            for &option in options {
                let value = match option {
                    "--background" | "--dot" | "--replay" | "--no-journal" | "--json"
                    | "--prom" => "",
                    "--allocator" => " first-fit",
                    "--mtu" => " 1024",
                    "--perfetto" | "--slo" | "--flight-dir" => " out",
                    _ => " 2",
                };
                let line = format!("{name} {option}{value}");
                let a = Args::parse(&argv(&line)).unwrap_or_else(|e| panic!("{line}: {e}"));
                assert_eq!(a.command, command, "{line}");
            }
        }
    }

    #[test]
    fn help_variants() {
        for h in ["help", "--help", "-h"] {
            assert_eq!(Args::parse(&argv(h)).unwrap().command, Command::Help);
        }
    }
}
