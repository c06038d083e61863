//! `cargo xtask` — the workspace's static-analysis runner.
//!
//! ## `cargo xtask check`
//!
//! Steps, in order:
//!
//! 1. **fmt** — `cargo fmt --all -- --check` (skipped with a notice
//!    when `rustfmt` is not installed, e.g. offline minimal toolchains).
//! 2. **clippy** — pinned deny-list over all targets (skipped likewise
//!    when the `clippy` component is missing).
//! 3. **lint** — the `iba-lint` rule engine (lexer-based; see
//!    `LINTS.md`) over every `.rs` file, with the committed
//!    `LINT_baseline.txt` tolerated; any fresh finding fails.
//! 4. **doc-links** — every relative markdown link in the repository's
//!    `*.md` files must point at an existing file.
//! 5. **metrics-doc** — the `METRICS.md` metric table must match
//!    `iba_obs::METRIC_NAMES` exactly: every registered metric has a
//!    row and every row names a registered metric, so the observability
//!    surface cannot drift undocumented.
//! 6. **lints-doc** — the `LINTS.md` rule catalog must match
//!    `iba_lint::RULES` exactly (no undocumented rule, no documented
//!    ghost, severities stated per row) — same pattern as metrics-doc.
//! 7. **target-tracked** — `git ls-files` must list no path under
//!    `target/`: build artifacts can never re-enter version control
//!    (skipped with a notice when `git` is unavailable).
//!
//! Exit status is non-zero when any executed step fails; skipped steps
//! never fail the run.
//!
//! ## `cargo xtask lint [--no-baseline] [--json <file>] [--write-baseline] [path...]`
//!
//! Runs the rule engine alone. `--no-baseline` ignores
//! `LINT_baseline.txt` and fails on *any* finding (the strict
//! acceptance gate); the default mode tolerates baselined findings and
//! fails only on fresh `error`-severity ones. `--json <file>` writes
//! the machine-readable report (schema in
//! `crates/lint/tests/report_schema.rs`); positional paths restrict
//! the scan to matching prefixes (e.g. `crates/qos`).
//!
//! ## `cargo xtask bench-compare <baseline.json> <current.json> [tolerance] [--require name=factor]...`
//!
//! Diffs two `BENCH_*.json` documents and fails on any shared
//! benchmark that regressed by more than `tolerance` (default 0.25 =
//! +25% wall clock) — the CI gate for the event-queue/packet-pool hot
//! path. Each repeatable `--require name=factor` adds a minimum-speedup
//! gate: the named benchmark must run at least `factor`x faster than
//! the baseline (`current * factor <= baseline`), with a missing row on
//! either side counting as unmet — the schedule-compiler acceptance
//! gates (`sim/vlarb_grant_2vl=5`, `sim/fabric_short_run=3`) ride on
//! this flag.

#![forbid(unsafe_code)]

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use xtask::{
    check_speedups, compare_benches, extract_relative_links, extract_table_rows,
    metrics_doc_problems, parse_require,
};

/// Clippy lints denied on top of the default `warn` set. Pinned so a
/// toolchain bump cannot silently change the gate.
const CLIPPY_DENY: &[&str] = &[
    "warnings",
    "clippy::dbg_macro",
    "clippy::todo",
    "clippy::unimplemented",
    "clippy::mem_forget",
];

/// The committed findings baseline consumed by the default lint mode.
const BASELINE_FILE: &str = "LINT_baseline.txt";

fn repo_root() -> PathBuf {
    // crates/xtask -> crates -> repository root.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .unwrap_or(manifest)
}

fn tool_available(cmd: &str, args: &[&str]) -> bool {
    Command::new(cmd)
        .args(args)
        .output()
        .map(|o| o.status.success())
        .unwrap_or(false)
}

enum StepResult {
    Pass,
    Skip(String),
    Fail(String),
}

fn run_cargo(root: &Path, args: &[&str]) -> StepResult {
    match Command::new("cargo").args(args).current_dir(root).status() {
        Ok(s) if s.success() => StepResult::Pass,
        Ok(s) => StepResult::Fail(format!("cargo {} exited with {s}", args.join(" "))),
        Err(e) => StepResult::Fail(format!("cargo {} failed to start: {e}", args.join(" "))),
    }
}

fn step_fmt(root: &Path) -> StepResult {
    if !tool_available("rustfmt", &["--version"]) {
        return StepResult::Skip("rustfmt not installed".to_string());
    }
    run_cargo(root, &["fmt", "--all", "--", "--check"])
}

fn step_clippy(root: &Path) -> StepResult {
    if !tool_available("cargo", &["clippy", "--version"]) {
        return StepResult::Skip("clippy not installed".to_string());
    }
    let mut args = vec!["clippy", "--workspace", "--all-targets", "--quiet", "--"];
    let denies: Vec<String> = CLIPPY_DENY.iter().map(|l| format!("-D{l}")).collect();
    args.extend(denies.iter().map(String::as_str));
    run_cargo(root, &args)
}

/// All files under `dir` (recursively) with the given extension,
/// skipping build/VCS artifacts.
fn walk(dir: &Path, ext: &str, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            walk(&path, ext, out);
        } else if path.extension().is_some_and(|e| e == ext) {
            out.push(path);
        }
    }
}

fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Loads `LINT_baseline.txt` (missing file = empty baseline).
fn load_baseline(root: &Path) -> BTreeSet<String> {
    std::fs::read_to_string(root.join(BASELINE_FILE))
        .map(|s| iba_lint::parse_baseline(&s))
        .unwrap_or_default()
}

/// The `lint` step of `cargo xtask check`: whole tree, baseline
/// tolerated, any fresh finding fails.
fn step_lint(root: &Path) -> StepResult {
    let baseline = load_baseline(root);
    let report = match iba_lint::lint_tree(root, &[], &baseline) {
        Ok(r) => r,
        Err(e) => return StepResult::Fail(format!("lint walk failed: {e}")),
    };
    print!("{}", indent(&iba_lint::render_text(&report)));
    if report.fresh.is_empty() {
        StepResult::Pass
    } else {
        StepResult::Fail(format!("{} fresh lint finding(s)", report.fresh.len()))
    }
}

fn indent(text: &str) -> String {
    text.lines()
        .map(|l| format!("      {l}\n"))
        .collect::<String>()
}

fn step_doc_links(root: &Path) -> StepResult {
    let mut files = Vec::new();
    walk(root, "md", &mut files);
    let mut broken = Vec::new();
    let mut checked = 0usize;
    for path in &files {
        let Ok(source) = std::fs::read_to_string(path) else {
            continue;
        };
        let dir = path.parent().unwrap_or(root);
        for (line, target) in extract_relative_links(&source) {
            checked += 1;
            if !dir.join(&target).exists() {
                broken.push(format!(
                    "{}:{line}: broken link -> {target}",
                    rel(root, path)
                ));
            }
        }
    }
    if broken.is_empty() {
        println!(
            "      {checked} relative links across {} markdown files, all resolve",
            files.len()
        );
        StepResult::Pass
    } else {
        for b in &broken {
            println!("      {b}");
        }
        StepResult::Fail(format!("{} broken link(s)", broken.len()))
    }
}

/// Cross-checks the metrics contract: `METRICS.md`'s metric table must
/// match `iba_obs::METRIC_NAMES` exactly (no undocumented metric, no
/// documented ghost).
fn step_metrics_doc(root: &Path) -> StepResult {
    let doc = match std::fs::read_to_string(root.join("METRICS.md")) {
        Ok(s) => s,
        Err(e) => return StepResult::Fail(format!("cannot read METRICS.md: {e}")),
    };
    let problems = metrics_doc_problems(&doc, iba_obs::METRIC_NAMES);
    if problems.is_empty() {
        println!(
            "      {} metric(s) all documented in METRICS.md, no ghost rows",
            iba_obs::METRIC_NAMES.len()
        );
        StepResult::Pass
    } else {
        for p in &problems {
            println!("      {p}");
        }
        StepResult::Fail(format!("{} metrics-contract problem(s)", problems.len()))
    }
}

/// Cross-checks the lint catalog: `LINTS.md`'s rule table must match
/// `iba_lint::RULES` exactly, and each row must state its severity.
fn step_lints_doc(root: &Path) -> StepResult {
    let doc = match std::fs::read_to_string(root.join("LINTS.md")) {
        Ok(s) => s,
        Err(e) => return StepResult::Fail(format!("cannot read LINTS.md: {e}")),
    };
    let rows = extract_table_rows(&doc);
    if rows.is_empty() {
        return StepResult::Fail("no rule table found in LINTS.md".to_string());
    }
    let documented: BTreeSet<&str> = rows.iter().map(|(n, _)| n.as_str()).collect();
    let registered: BTreeSet<&str> = iba_lint::RULES.iter().map(|r| r.name).collect();
    let mut problems = Vec::new();
    for r in iba_lint::RULES {
        if !documented.contains(r.name) {
            problems.push(format!("rule `{}` is not documented in LINTS.md", r.name));
        }
    }
    for (name, row) in &rows {
        if !registered.contains(name.as_str()) {
            problems.push(format!(
                "LINTS.md documents `{name}`, which is not a registered rule"
            ));
        } else if let Some(info) = iba_lint::rules::rule_info(name) {
            if !row.contains(info.severity.name()) {
                problems.push(format!(
                    "LINTS.md row for `{name}` does not state its severity ({})",
                    info.severity.name()
                ));
            }
        }
    }
    if problems.is_empty() {
        println!(
            "      {} rule(s) all documented in LINTS.md with severities",
            registered.len()
        );
        StepResult::Pass
    } else {
        for p in &problems {
            println!("      {p}");
        }
        StepResult::Fail(format!("{} lint-catalog problem(s)", problems.len()))
    }
}

/// Fails when any build artifact under `target/` is tracked by git —
/// the tree once carried ~16k committed artifacts and must never again.
fn step_target_tracked(root: &Path) -> StepResult {
    let output = Command::new("git")
        .args(["ls-files", "--", "target/", "*/target/"])
        .current_dir(root)
        .output();
    let output = match output {
        Ok(o) if o.status.success() => o,
        Ok(_) | Err(_) => {
            return StepResult::Skip("git unavailable or not a repository".to_string());
        }
    };
    let tracked: Vec<&str> = std::str::from_utf8(&output.stdout)
        .unwrap_or("")
        .lines()
        .filter(|l| !l.is_empty())
        .collect();
    if tracked.is_empty() {
        println!("      no target/ paths tracked by git");
        StepResult::Pass
    } else {
        for t in tracked.iter().take(10) {
            println!("      tracked build artifact: {t}");
        }
        StepResult::Fail(format!(
            "{} tracked file(s) under target/ — run `git rm -r --cached target`",
            tracked.len()
        ))
    }
}

/// `cargo xtask lint` — the rule engine as a standalone command. See
/// the module docs for the flag set and exit-status contract.
fn lint_cmd(args: &[String]) -> ExitCode {
    let usage =
        "usage: cargo xtask lint [--no-baseline] [--json <file>] [--write-baseline] [path...]";
    let mut no_baseline = false;
    let mut write_baseline = false;
    let mut json_path: Option<String> = None;
    let mut paths: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--no-baseline" => no_baseline = true,
            "--write-baseline" => write_baseline = true,
            "--json" => match it.next() {
                Some(p) => json_path = Some(p.clone()),
                None => {
                    eprintln!("{usage}");
                    return ExitCode::from(2);
                }
            },
            flag if flag.starts_with('-') => {
                eprintln!("lint: unknown flag `{flag}`\n{usage}");
                return ExitCode::from(2);
            }
            p => paths.push(p.trim_start_matches("./").trim_end_matches('/').to_string()),
        }
    }
    let root = repo_root();
    let baseline = if no_baseline {
        BTreeSet::new()
    } else {
        load_baseline(&root)
    };
    let report = match iba_lint::lint_tree(&root, &paths, &baseline) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lint: walk failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", iba_lint::render_text(&report));
    if let Some(p) = json_path {
        if let Err(e) = std::fs::write(&p, iba_lint::render_json(&report)) {
            eprintln!("lint: cannot write {p}: {e}");
            return ExitCode::FAILURE;
        }
        println!("lint: JSON report written to {p}");
    }
    if write_baseline {
        let all: Vec<iba_lint::Finding> = report
            .fresh
            .iter()
            .chain(report.baselined.iter())
            .cloned()
            .collect();
        let path = root.join(BASELINE_FILE);
        if let Err(e) = std::fs::write(&path, iba_lint::render_baseline(&all)) {
            eprintln!("lint: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("lint: baseline rewritten ({} entr(ies))", all.len());
    }
    let failed = if no_baseline {
        !report.fresh.is_empty()
    } else {
        report.fresh_errors() > 0
    };
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `cargo xtask bench-compare <baseline.json> <current.json>
/// [tolerance] [--require name=factor]...` — diffs two `BENCH_*.json`
/// documents and fails when any benchmark present in both regressed by
/// more than `tolerance` (default 0.25, i.e. +25% wall clock), or when
/// any `--require` speedup gate is unmet (the named benchmark must run
/// at least `factor`x faster than the baseline).
fn bench_compare(args: &[String]) -> ExitCode {
    const USAGE: &str = "usage: cargo xtask bench-compare <baseline.json> <current.json> \
                         [tolerance] [--require name=factor]...";
    let mut positional: Vec<&String> = Vec::new();
    let mut requires: Vec<(String, f64)> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--require" {
            let Some(req) = args.get(i + 1).and_then(|a| parse_require(a)) else {
                eprintln!("bench-compare: --require takes name=factor with a positive factor");
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            };
            requires.push(req);
            i += 2;
        } else {
            positional.push(&args[i]);
            i += 1;
        }
    }
    let (Some(&base_path), Some(&cur_path)) = (positional.first(), positional.get(1)) else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let tolerance = match positional.get(2).map(|t| t.parse::<f64>()) {
        None => 0.25,
        Some(Ok(t)) if t >= 0.0 => t,
        Some(_) => {
            eprintln!("bench-compare: tolerance must be a non-negative float");
            return ExitCode::from(2);
        }
    };
    let read = |p: &String| match std::fs::read_to_string(p) {
        Ok(s) => Some(s),
        Err(e) => {
            eprintln!("bench-compare: cannot read {p}: {e}");
            None
        }
    };
    let (Some(base), Some(cur)) = (read(base_path), read(cur_path)) else {
        return ExitCode::FAILURE;
    };
    let deltas = compare_benches(&base, &cur, tolerance);
    if deltas.is_empty() {
        eprintln!("bench-compare: no benchmark appears in both documents");
        return ExitCode::FAILURE;
    }
    let mut regressed = 0usize;
    for d in &deltas {
        let verdict = if d.regressed { "REGRESSED" } else { "ok" };
        println!(
            "  {:<40} {:>12.1} -> {:>12.1} ns/op  ({:+6.1}%)  {verdict}",
            d.name,
            d.base_ns,
            d.cur_ns,
            (d.ratio - 1.0) * 100.0
        );
        regressed += usize::from(d.regressed);
    }
    let checks = check_speedups(&base, &cur, &requires);
    let mut unmet = 0usize;
    for c in &checks {
        let fmt = |ns: Option<f64>| ns.map_or("missing".to_string(), |v| format!("{v:.1}"));
        let verdict = if c.passed { "met" } else { "UNMET" };
        println!(
            "  require {:<31} >= {:.1}x  {:>12} -> {:>12} ns/op  {verdict}",
            c.name,
            c.factor,
            fmt(c.base_ns),
            fmt(c.cur_ns),
        );
        unmet += usize::from(!c.passed);
    }
    if regressed > 0 || unmet > 0 {
        println!(
            "bench-compare: FAIL ({regressed} of {} benchmark(s) regressed beyond +{:.0}%, \
             {unmet} of {} speedup requirement(s) unmet)",
            deltas.len(),
            tolerance * 100.0,
            checks.len(),
        );
        ExitCode::FAILURE
    } else {
        println!(
            "bench-compare: PASS ({} benchmark(s) within +{:.0}%, {} speedup requirement(s) met)",
            deltas.len(),
            tolerance * 100.0,
            checks.len(),
        );
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("check");
    if cmd == "bench-compare" {
        return bench_compare(&args[1..]);
    }
    if cmd == "lint" {
        return lint_cmd(&args[1..]);
    }
    if cmd != "check" {
        eprintln!(
            "usage: cargo xtask check | cargo xtask lint [flags] [path...] | \
             cargo xtask bench-compare <base> <cur> [tol] [--require name=factor]..."
        );
        return ExitCode::from(2);
    }
    let root = repo_root();
    type Step = (&'static str, fn(&Path) -> StepResult);
    let steps: &[Step] = &[
        ("fmt", step_fmt),
        ("clippy", step_clippy),
        ("lint", step_lint),
        ("doc-links", step_doc_links),
        ("metrics-doc", step_metrics_doc),
        ("lints-doc", step_lints_doc),
        ("target-tracked", step_target_tracked),
    ];
    let mut failed = false;
    for (name, step) in steps {
        println!("[{name}]");
        match step(&root) {
            StepResult::Pass => println!("      PASS"),
            StepResult::Skip(why) => println!("      SKIP ({why})"),
            StepResult::Fail(why) => {
                println!("      FAIL ({why})");
                failed = true;
            }
        }
    }
    if failed {
        println!("xtask check: FAIL");
        ExitCode::FAILURE
    } else {
        println!("xtask check: PASS");
        ExitCode::SUCCESS
    }
}
