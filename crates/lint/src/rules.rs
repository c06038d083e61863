//! The rule engine: workspace discipline rules evaluated over the
//! token stream of [`crate::lexer`].
//!
//! Every rule guards a piece of the byte-identical determinism
//! contract or the panic-freedom contract (see `LINTS.md` for the
//! catalog). Rules see *tokens*, not lines: string/char literal
//! contents and comments can never masquerade as code, and code can
//! never hide in a raw string.
//!
//! Findings can be suppressed with a justified pragma on the same line
//! or the line above:
//!
//! ```text
//! // lint: allow(no-unordered-iter) -- membership-only; never iterated
//! ```
//!
//! A pragma without a `--` justification (or naming an unknown rule)
//! is itself a finding (`pragma-hygiene`), so suppressions stay
//! reviewable.

use crate::lexer::{lex, Token, TokenKind};
use std::collections::BTreeMap;

/// How bad a finding is. `Error` findings gate CI; `Warning` findings
/// are reported and must still be fixed or pragma'd to keep
/// `cargo xtask lint --no-baseline` clean.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Severity {
    /// Breaks the build when new.
    Error,
    /// Reported; strict mode treats it like an error.
    Warning,
}

impl Severity {
    /// Lowercase name used in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

/// One rule violation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Finding {
    /// Repository-relative path, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule identifier (see [`RULES`]).
    pub rule: &'static str,
    /// Severity of the rule.
    pub severity: Severity,
    /// Human-readable description.
    pub detail: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {} [{}] {}",
            self.file,
            self.line,
            self.severity.name(),
            self.rule,
            self.detail
        )
    }
}

/// Registry entry: everything `LINTS.md` documents per rule.
#[derive(Clone, Copy, Debug)]
pub struct RuleInfo {
    /// Rule identifier, as used in pragmas and reports.
    pub name: &'static str,
    /// Severity of its findings.
    pub severity: Severity,
    /// Where it applies, in words.
    pub scope: &'static str,
    /// Why it exists.
    pub rationale: &'static str,
}

/// Crates whose non-test source must not construct or iterate
/// hash-ordered containers: their state feeds grant streams, reports,
/// or repair order, all of which must be byte-identical across runs.
const ORDERED_SCOPE: &[&str] = &[
    "crates/core/src/",
    "crates/sim/src/",
    "crates/qos/src/",
    "crates/harness/src/",
    "crates/traffic/src/",
    "crates/verify/src/",
];

/// Crates and files whose non-test source must be panic-free: the
/// always-on control plane and the parsers of outside input.
const PANIC_FREE_SCOPE: &[&str] = &[
    "crates/core/src/",
    "crates/sim/src/",
    "crates/qos/src/",
    "crates/obs/src/trace.rs",
    "crates/cli/src/args.rs",
];

/// Files allowed to read the wall clock: the span profiler owns the
/// epoch, and the bench crate measures wall time by design.
const WALL_CLOCK_ALLOWED: &[&str] = &["crates/obs/src/span.rs", "crates/bench/"];

/// The one crate allowed to create threads: the sweep engine, whose
/// merge discipline keeps results byte-identical at any worker count.
const THREADS_ALLOWED: &[&str] = &["crates/harness/src/"];

/// Crates whose non-test source must not create unbounded channels:
/// the admission control plane's load-shedding contract depends on
/// every queue having a capacity that can exert backpressure.
const BOUNDED_CHANNEL_SCOPE: &[&str] = &["crates/qos/src/", "crates/harness/src/"];

/// The full rule registry. `LINTS.md` is cross-checked against this
/// list by `cargo xtask check` (the `lints-doc` step).
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "no-unordered-iter",
        severity: Severity::Error,
        scope: "non-test code of core, sim, qos, harness, traffic, verify",
        rationale: "HashMap/HashSet iteration order is hasher-dependent and can leak \
                    nondeterminism into grant streams, reports, and repair order; use \
                    BTreeMap/BTreeSet or sorted vectors",
    },
    RuleInfo {
        name: "no-wall-clock",
        severity: Severity::Error,
        scope: "non-test code everywhere except crates/obs/src/span.rs and crates/bench",
        rationale: "Instant::now/SystemTime outside the span profiler and the bench \
                    harness would break seeded replay and the byte-identical contract",
    },
    RuleInfo {
        name: "no-thread-spawn",
        severity: Severity::Error,
        scope: "non-test code everywhere except crates/harness",
        rationale: "all parallelism must go through the harness sweep engine, whose \
                    deterministic merge keeps output byte-identical at any IBA_THREADS",
    },
    RuleInfo {
        name: "no-unbounded-channel",
        severity: Severity::Error,
        scope: "non-test code of qos, harness",
        rationale: "`mpsc::channel()` has no capacity bound, so a slow consumer grows \
                    the queue instead of exerting backpressure; the admission \
                    control plane's load-shedding ladder only works over bounded \
                    `sync_channel` queues — justify any exception with a pragma",
    },
    RuleInfo {
        name: "no-panic",
        severity: Severity::Error,
        scope: "non-test code of core, sim, qos, the trace decoder and the CLI argument parser",
        rationale: "the always-on control plane and the parsers of outside input must \
                    surface failures as Results or named-invariant assert!s, never \
                    anonymous unwrap/expect/panic!",
    },
    RuleInfo {
        name: "forbid-unsafe",
        severity: Severity::Error,
        scope: "every crate-root source file",
        rationale: "the workspace is 100% safe Rust; every crate root must carry \
                    #![forbid(unsafe_code)] as a compiler-enforced guarantee",
    },
    RuleInfo {
        name: "no-raw-occupancy-arith",
        severity: Severity::Error,
        scope: "non-test code outside crates/core",
        rationale: "the occupancy bitmask is iba-core's private representation; other \
                    crates must interpret it through core APIs, never raw bit operations",
    },
    RuleInfo {
        name: "no-env-read",
        severity: Severity::Error,
        scope: "non-test code everywhere",
        rationale: "environment access is limited to the documented IBA_* knobs so every \
                    experiment stays reproducible from its command line and seed",
    },
    RuleInfo {
        name: "todo-tracked",
        severity: Severity::Warning,
        scope: "comments everywhere (test code included)",
        rationale: "every to-do or fix-me marker must carry an issue reference \
                    (#<digits> or ISSUE) so deferred work cannot silently rot",
    },
    RuleInfo {
        name: "pragma-hygiene",
        severity: Severity::Error,
        scope: "lint pragmas everywhere",
        rationale: "a `lint: allow` pragma must name a registered rule and carry a \
                    `--` justification, so every suppression stays reviewable",
    },
];

/// Looks a rule up by name.
#[must_use]
pub fn rule_info(name: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.name == name)
}

/// Result of linting one file.
#[derive(Clone, Debug, Default)]
pub struct FileReport {
    /// Findings that survived pragma filtering, in (line, rule) order.
    pub findings: Vec<Finding>,
    /// Findings suppressed by justified pragmas.
    pub suppressed: usize,
}

/// True for files whose *whole content* is test/bench/example code —
/// code-discipline rules skip them entirely.
#[must_use]
pub fn is_test_path(rel_path: &str) -> bool {
    rel_path
        .split('/')
        .any(|seg| seg == "tests" || seg == "benches" || seg == "examples")
}

/// True for crate-root source files, which must carry
/// `#![forbid(unsafe_code)]`.
#[must_use]
pub fn is_crate_root(rel_path: &str) -> bool {
    if rel_path == "src/lib.rs" {
        return true; // the workspace-root package
    }
    let Some(rest) = rel_path.strip_prefix("crates/") else {
        return false;
    };
    let Some((_, tail)) = rest.split_once('/') else {
        return false;
    };
    tail == "src/lib.rs"
        || tail == "src/main.rs"
        || (tail.starts_with("src/bin/") && tail.ends_with(".rs"))
}

fn in_any(rel_path: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| rel_path.starts_with(p))
}

/// A parsed `// lint: allow(<rules>) -- <justification>` pragma.
struct Pragma {
    line: u32,
    rules: Vec<&'static str>,
}

/// Lints one file. `rel_path` must be repository-relative with `/`
/// separators; it selects which rules apply.
#[must_use]
pub fn lint_source(rel_path: &str, source: &str) -> FileReport {
    let tokens = lex(source);
    let test_file = is_test_path(rel_path);
    let regions = if test_file {
        Vec::new()
    } else {
        test_regions(&tokens)
    };
    let in_test = |tok: &Token<'_>| {
        test_file
            || regions
                .iter()
                .any(|&(s, e)| tok.start >= s && tok.start < e)
    };

    let mut findings: Vec<Finding> = Vec::new();
    let (pragmas, mut pragma_findings) = collect_pragmas(rel_path, &tokens);
    findings.append(&mut pragma_findings);

    // Comment rules see every comment, test code included.
    todo_tracked(rel_path, &tokens, &mut findings);

    // Code rules see non-trivia tokens outside test code.
    let code: Vec<Token<'_>> = tokens
        .iter()
        .filter(|t| !t.is_trivia() && !in_test(t))
        .copied()
        .collect();

    if in_any(rel_path, PANIC_FREE_SCOPE) && !test_file {
        no_panic(rel_path, &code, &mut findings);
    }
    if in_any(rel_path, ORDERED_SCOPE) && !test_file {
        no_unordered_iter(rel_path, &code, &mut findings);
    }
    if !in_any(rel_path, WALL_CLOCK_ALLOWED) && !test_file {
        no_wall_clock(rel_path, &code, &mut findings);
    }
    if !in_any(rel_path, THREADS_ALLOWED) && !test_file {
        no_thread_spawn(rel_path, &code, &mut findings);
    }
    if in_any(rel_path, BOUNDED_CHANNEL_SCOPE) && !test_file {
        no_unbounded_channel(rel_path, &code, &mut findings);
    }
    if !rel_path.starts_with("crates/core/") && !test_file {
        no_raw_occupancy_arith(rel_path, source, &code, &mut findings);
    }
    if !test_file {
        no_env_read(rel_path, &code, &mut findings);
    }
    if is_crate_root(rel_path) {
        forbid_unsafe(rel_path, &tokens, &mut findings);
    }

    // Dedup (one finding per rule per line), order, then apply pragmas.
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings.dedup_by(|a, b| a.line == b.line && a.rule == b.rule);

    let allowed = |f: &Finding| {
        pragmas
            .iter()
            .any(|p| (p.line == f.line || p.line + 1 == f.line) && p.rules.contains(&f.rule))
    };
    let total = findings.len();
    findings.retain(|f| f.rule == "pragma-hygiene" || !allowed(f));
    let suppressed = total - findings.len();
    FileReport {
        findings,
        suppressed,
    }
}

/// Byte ranges covered by `#[cfg(test)]`-gated items (and `#[test]`
/// functions). Braces inside strings or comments are separate token
/// kinds, so the depth tracking cannot be fooled by literal content.
fn test_regions(tokens: &[Token<'_>]) -> Vec<(usize, usize)> {
    let nt: Vec<&Token<'_>> = tokens.iter().filter(|t| !t.is_trivia()).collect();
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < nt.len() {
        if !(nt[i].kind == TokenKind::Punct && nt[i].text == "#") {
            i += 1;
            continue;
        }
        let Some((is_test_attr, after_attr)) = parse_attribute(&nt, i) else {
            i += 1;
            continue;
        };
        if !is_test_attr {
            i = after_attr;
            continue;
        }
        let region_start = nt[i].start;
        // Skip any further attributes between the cfg(test) and the item.
        let mut j = after_attr;
        while j < nt.len() && nt[j].kind == TokenKind::Punct && nt[j].text == "#" {
            match parse_attribute(&nt, j) {
                Some((_, next)) => j = next,
                None => break,
            }
        }
        // The gated item runs to its matching close brace (or `;` for
        // bodyless items like `mod tests;`, which gate nothing here).
        let mut depth = 0i32;
        let mut end = None;
        while j < nt.len() {
            match (nt[j].kind, nt[j].text) {
                (TokenKind::Punct, "{") => depth += 1,
                (TokenKind::Punct, "}") => {
                    depth -= 1;
                    if depth <= 0 {
                        end = Some(nt[j].end());
                        break;
                    }
                }
                (TokenKind::Punct, ";") if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        if let Some(end) = end {
            regions.push((region_start, end));
        }
        i = j + 1;
    }
    regions
}

/// Parses the attribute starting at `nt[i]` (which is `#`). Returns
/// `(gates_test_code, index_after_closing_bracket)`, or `None` when
/// the shape isn't an attribute.
fn parse_attribute(nt: &[&Token<'_>], i: usize) -> Option<(bool, usize)> {
    let mut j = i + 1;
    // Inner attributes (`#![…]`) never gate test code.
    let inner = nt.get(j).is_some_and(|t| t.text == "!");
    if inner {
        j += 1;
    }
    if nt.get(j).is_none_or(|t| t.text != "[") {
        return None;
    }
    let mut depth = 0i32;
    let mut saw_test = false;
    let mut saw_cfg = false;
    let mut first_ident: Option<&str> = None;
    while j < nt.len() {
        match (nt[j].kind, nt[j].text) {
            (TokenKind::Punct, "[") => depth += 1,
            (TokenKind::Punct, "]") => {
                depth -= 1;
                if depth == 0 {
                    let gates = !inner && ((saw_cfg && saw_test) || first_ident == Some("test"));
                    return Some((gates, j + 1));
                }
            }
            (TokenKind::Ident, text) => {
                if first_ident.is_none() {
                    first_ident = Some(text);
                }
                saw_test |= text == "test";
                saw_cfg |= text == "cfg";
            }
            _ => {}
        }
        j += 1;
    }
    None // unterminated attribute: scan on
}

/// Parses `lint: allow(...)` pragmas out of line comments. Returns the
/// valid pragmas and a `pragma-hygiene` finding per malformed one.
fn collect_pragmas(rel_path: &str, tokens: &[Token<'_>]) -> (Vec<Pragma>, Vec<Finding>) {
    let mut pragmas = Vec::new();
    let mut findings = Vec::new();
    for tok in tokens {
        if tok.kind != TokenKind::LineComment {
            continue;
        }
        // A pragma must start the comment (after the `//`/`///`/`//!`
        // leader), so prose that merely *mentions* pragma syntax is
        // never parsed as one.
        let content = tok.text.trim_start_matches('/');
        let content = content.strip_prefix('!').unwrap_or(content).trim_start();
        if !content.starts_with("lint:") {
            continue;
        }
        let mut bad = |why: &str| {
            findings.push(Finding {
                file: rel_path.to_string(),
                line: tok.line,
                rule: "pragma-hygiene",
                severity: Severity::Error,
                detail: format!("malformed lint pragma: {why}"),
            });
        };
        let rest = content["lint:".len()..].trim_start();
        let Some(rest) = rest.strip_prefix("allow(") else {
            bad("expected `lint: allow(<rule>) -- <justification>`");
            continue;
        };
        let Some((list, rest)) = rest.split_once(')') else {
            bad("unclosed rule list");
            continue;
        };
        let mut rules = Vec::new();
        let mut ok = true;
        for name in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            match rule_info(name) {
                Some(info) => rules.push(info.name),
                None => {
                    bad(&format!("unknown rule `{name}`"));
                    ok = false;
                }
            }
        }
        if !ok {
            continue;
        }
        if rules.is_empty() {
            bad("empty rule list");
            continue;
        }
        let rest = rest.trim_start();
        let justification = rest.strip_prefix("--").map(str::trim).unwrap_or("");
        if justification.is_empty() {
            bad("missing `-- <justification>`");
            continue;
        }
        pragmas.push(Pragma {
            line: tok.line,
            rules,
        });
    }
    (pragmas, findings)
}

fn push(
    findings: &mut Vec<Finding>,
    rel_path: &str,
    line: u32,
    rule: &'static str,
    detail: String,
) {
    let severity = rule_info(rule).map_or(Severity::Error, |r| r.severity);
    findings.push(Finding {
        file: rel_path.to_string(),
        line,
        rule,
        severity,
        detail,
    });
}

/// True when `nt[i]` and `nt[i+1]` form `::` and `nt[i+2]` is one of
/// `names`; the path-segment matcher for `Type::method` patterns.
fn path_seg<'a>(nt: &[Token<'a>], i: usize, names: &[&str]) -> Option<&'a str> {
    let colon1 = nt.get(i + 1)?;
    let colon2 = nt.get(i + 2)?;
    let target = nt.get(i + 3)?;
    if colon1.text == ":"
        && colon2.text == ":"
        && colon1.end() == colon2.start
        && target.kind == TokenKind::Ident
        && names.contains(&target.text)
    {
        Some(target.text)
    } else {
        None
    }
}

fn no_panic(rel_path: &str, nt: &[Token<'_>], findings: &mut Vec<Finding>) {
    for (i, tok) in nt.iter().enumerate() {
        if tok.kind != TokenKind::Ident {
            continue;
        }
        match tok.text {
            "unwrap" | "expect" => {
                let after_dot = i > 0 && nt[i - 1].text == ".";
                let called = nt.get(i + 1).is_some_and(|t| t.text == "(");
                if after_dot && called {
                    push(
                        findings,
                        rel_path,
                        tok.line,
                        "no-panic",
                        format!("`.{}(` in non-test code of a panic-free crate", tok.text),
                    );
                }
            }
            "panic" if nt.get(i + 1).is_some_and(|t| t.text == "!") => {
                push(
                    findings,
                    rel_path,
                    tok.line,
                    "no-panic",
                    "`panic!(` in non-test code of a panic-free crate".to_string(),
                );
            }
            _ => {}
        }
    }
}

fn no_unordered_iter(rel_path: &str, nt: &[Token<'_>], findings: &mut Vec<Finding>) {
    for tok in nt {
        if tok.kind == TokenKind::Ident && (tok.text == "HashMap" || tok.text == "HashSet") {
            push(
                findings,
                rel_path,
                tok.line,
                "no-unordered-iter",
                format!(
                    "`{}` in determinism-critical code: iteration order is \
                     hasher-dependent; use BTreeMap/BTreeSet or a sorted vector",
                    tok.text
                ),
            );
        }
    }
}

fn no_wall_clock(rel_path: &str, nt: &[Token<'_>], findings: &mut Vec<Finding>) {
    for (i, tok) in nt.iter().enumerate() {
        if tok.kind != TokenKind::Ident {
            continue;
        }
        if tok.text == "Instant" && path_seg(nt, i, &["now"]).is_some() {
            push(
                findings,
                rel_path,
                tok.line,
                "no-wall-clock",
                "`Instant::now()` outside the span profiler/bench harness \
                 breaks seeded replay"
                    .to_string(),
            );
        } else if tok.text == "SystemTime" {
            push(
                findings,
                rel_path,
                tok.line,
                "no-wall-clock",
                "`SystemTime` outside the span profiler/bench harness \
                 breaks seeded replay"
                    .to_string(),
            );
        }
    }
}

fn no_thread_spawn(rel_path: &str, nt: &[Token<'_>], findings: &mut Vec<Finding>) {
    for (i, tok) in nt.iter().enumerate() {
        if tok.kind == TokenKind::Ident && tok.text == "thread" {
            if let Some(what) = path_seg(nt, i, &["spawn", "scope", "Builder"]) {
                push(
                    findings,
                    rel_path,
                    tok.line,
                    "no-thread-spawn",
                    format!(
                        "`thread::{what}` outside iba-harness: all parallelism must \
                         go through the deterministic sweep engine"
                    ),
                );
            }
        }
    }
}

fn no_unbounded_channel(rel_path: &str, nt: &[Token<'_>], findings: &mut Vec<Finding>) {
    for (i, tok) in nt.iter().enumerate() {
        if tok.kind == TokenKind::Ident
            && tok.text == "mpsc"
            && path_seg(nt, i, &["channel"]).is_some()
        {
            push(
                findings,
                rel_path,
                tok.line,
                "no-unbounded-channel",
                "`mpsc::channel()` is unbounded and cannot exert backpressure; \
                 use `mpsc::sync_channel(cap)` or justify with a pragma"
                    .to_string(),
            );
        }
    }
}

/// Flags raw bit manipulation in files (outside core) that read
/// `.occupancy()`. Shifts and `^` must be space-delimited in the
/// source (rustfmt guarantees it) so `Vec<Vec<u8>>` never fires.
fn no_raw_occupancy_arith(
    rel_path: &str,
    source: &str,
    nt: &[Token<'_>],
    findings: &mut Vec<Finding>,
) {
    let reads_occupancy = nt.iter().enumerate().any(|(i, t)| {
        t.kind == TokenKind::Ident
            && t.text == "occupancy"
            && i > 0
            && nt[i - 1].text == "."
            && nt.get(i + 1).is_some_and(|n| n.text == "(")
    });
    if !reads_occupancy {
        return;
    }
    let bytes = source.as_bytes();
    let spaced = |start: usize, end: usize| {
        start > 0 && bytes[start - 1] == b' ' && bytes.get(end).copied() == Some(b' ')
    };
    let mut flag = |line: u32, what: &str| {
        push(
            findings,
            rel_path,
            line,
            "no-raw-occupancy-arith",
            format!(
                "`{what}` in a file that reads `.occupancy()`; interpret the mask \
                 through iba-core APIs"
            ),
        );
    };
    for (i, tok) in nt.iter().enumerate() {
        match (tok.kind, tok.text) {
            (TokenKind::Ident, "count_ones" | "trailing_zeros" | "leading_zeros") => {
                flag(tok.line, tok.text);
            }
            (TokenKind::Punct, "&" | "|")
                if nt
                    .get(i + 1)
                    .is_some_and(|n| n.text == "=" && n.start == tok.end()) =>
            {
                flag(tok.line, if tok.text == "&" { "&=" } else { "|=" });
            }
            (TokenKind::Punct, "<" | ">")
                if nt
                    .get(i + 1)
                    .is_some_and(|n| n.text == tok.text && n.start == tok.end())
                    && spaced(tok.start, tok.end() + 1) =>
            {
                flag(tok.line, if tok.text == "<" { "<<" } else { ">>" });
            }
            (TokenKind::Punct, "^") if spaced(tok.start, tok.end()) => {
                flag(tok.line, "^");
            }
            _ => {}
        }
    }
}

fn no_env_read(rel_path: &str, nt: &[Token<'_>], findings: &mut Vec<Finding>) {
    const READERS: &[&str] = &["var", "var_os", "set_var", "remove_var", "vars", "vars_os"];
    for (i, tok) in nt.iter().enumerate() {
        if !(tok.kind == TokenKind::Ident && tok.text == "env") {
            continue;
        }
        let Some(what) = path_seg(nt, i, READERS) else {
            continue;
        };
        if what == "vars" || what == "vars_os" {
            push(
                findings,
                rel_path,
                tok.line,
                "no-env-read",
                format!("`env::{what}()` enumerates the whole environment; only the documented IBA_* knobs may be read"),
            );
            continue;
        }
        // `env::var("IBA_…")` — first argument must be an IBA_ literal.
        let arg = nt.get(i + 5); // env :: what ( <arg>
        let is_iba_literal = nt.get(i + 4).is_some_and(|t| t.text == "(")
            && arg.is_some_and(|t| {
                t.kind == TokenKind::Str && t.text.trim_matches('"').starts_with("IBA_")
            });
        if !is_iba_literal {
            push(
                findings,
                rel_path,
                tok.line,
                "no-env-read",
                format!(
                    "`env::{what}` with a non-`\"IBA_*\"` argument: environment access \
                     is limited to the documented IBA_* knobs"
                ),
            );
        }
    }
}

/// Comment markers for deferred work must carry an issue reference.
fn todo_tracked(rel_path: &str, tokens: &[Token<'_>], findings: &mut Vec<Finding>) {
    for tok in tokens {
        if !matches!(tok.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            continue;
        }
        for marker in ["TODO", "FIXME"] {
            let Some(pos) = tok.text.find(marker) else {
                continue;
            };
            let tracked = tok.text.contains("ISSUE")
                || tok
                    .text
                    .match_indices('#')
                    .any(|(i, _)| tok.text[i + 1..].starts_with(|c: char| c.is_ascii_digit()));
            if !tracked {
                let line = tok.line + tok.text[..pos].matches('\n').count() as u32;
                push(
                    findings,
                    rel_path,
                    line,
                    "todo-tracked",
                    format!("`{marker}` without an issue reference (add `#<number>` or `ISSUE…`)"),
                );
            }
        }
    }
}

/// Crate roots must carry a real (token-level) `#![forbid(unsafe_code)]`
/// — one inside a comment or string no longer counts.
fn forbid_unsafe(rel_path: &str, tokens: &[Token<'_>], findings: &mut Vec<Finding>) {
    let nt: Vec<&Token<'_>> = tokens.iter().filter(|t| !t.is_trivia()).collect();
    let want = ["#", "!", "[", "forbid", "(", "unsafe_code", ")", "]"];
    let found = nt
        .windows(want.len())
        .any(|w| w.iter().zip(want.iter()).all(|(t, e)| t.text == *e));
    if !found {
        push(
            findings,
            rel_path,
            1,
            "forbid-unsafe",
            "crate root lacks #![forbid(unsafe_code)]".to_string(),
        );
    }
}

/// Rule-name → count summary of a finding set (reports, tests).
#[must_use]
pub fn count_by_rule(findings: &[Finding]) -> BTreeMap<&'static str, usize> {
    let mut out = BTreeMap::new();
    for f in findings {
        *out.entry(f.rule).or_insert(0) += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const CORE: &str = "crates/core/src/x.rs";
    const QOS: &str = "crates/qos/src/x.rs";
    const CLI: &str = "crates/cli/src/x.rs";

    fn rules_of(report: &FileReport) -> Vec<&'static str> {
        report.findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn clean_file_has_no_findings() {
        let src = "pub fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n";
        assert!(lint_source(CORE, src).findings.is_empty());
    }

    #[test]
    fn unwrap_in_raw_string_never_fires_but_code_after_nested_comment_does() {
        // Regression pair ported from the old scanner's blind spots.
        let hidden = r###"pub fn f() -> &'static str { r#"x.unwrap()"# }"###;
        assert!(lint_source(CORE, hidden).findings.is_empty());

        let nested =
            "/* outer /* inner */ close */\npub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let report = lint_source(CORE, nested);
        assert_eq!(rules_of(&report), vec!["no-panic"]);
        assert_eq!(report.findings[0].line, 2);
    }

    #[test]
    fn panic_and_expect_are_caught() {
        let src = "fn g() {\n    h().expect(\"boom\");\n    panic!(\"no\");\n}\n";
        let report = lint_source(QOS, src);
        assert_eq!(rules_of(&report), vec!["no-panic", "no-panic"]);
        assert_eq!(report.findings[0].line, 2);
        assert_eq!(report.findings[1].line, 3);
    }

    #[test]
    fn external_input_parsers_are_panic_free() {
        let src = "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        for parser in ["crates/cli/src/args.rs", "crates/obs/src/trace.rs"] {
            assert_eq!(rules_of(&lint_source(parser, src)), vec!["no-panic"]);
        }
    }

    #[test]
    fn panics_out_of_scope_elsewhere() {
        let src = "fn f() { panic!(); }";
        assert!(lint_source(CLI, src).findings.is_empty());
        assert!(lint_source("crates/core/tests/x.rs", src)
            .findings
            .is_empty());
    }

    #[test]
    fn cfg_test_module_is_skipped_code_after_is_not() {
        let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); assert!(\"graph {\".len() > 0); }\n}\n\npub fn f(y: Option<u8>) -> u8 { y.unwrap() }\n";
        let report = lint_source(CORE, src);
        assert_eq!(rules_of(&report), vec!["no-panic"]);
        assert_eq!(report.findings[0].line, 7);
    }

    #[test]
    fn cfg_test_fn_is_skipped() {
        let src = "#[cfg(test)]\nfn helper() { x.unwrap(); }\npub fn f() {}\n";
        assert!(lint_source(CORE, src).findings.is_empty());
    }

    #[test]
    fn unordered_iter_is_scoped() {
        let src =
            "use std::collections::HashMap;\nfn f() { let m: HashMap<u8, u8> = HashMap::new(); }\n";
        let report = lint_source("crates/harness/src/x.rs", src);
        // One finding per line, deduped.
        assert_eq!(
            rules_of(&report),
            vec!["no-unordered-iter", "no-unordered-iter"]
        );
        assert!(lint_source("crates/cli/src/x.rs", src).findings.is_empty());
        assert!(lint_source("crates/qos/tests/x.rs", src)
            .findings
            .is_empty());
    }

    #[test]
    fn wall_clock_and_threads_are_scoped() {
        let clock = "fn f() { let t = std::time::Instant::now(); }\n";
        assert_eq!(rules_of(&lint_source(QOS, clock)), vec!["no-wall-clock"]);
        assert!(lint_source("crates/obs/src/span.rs", clock)
            .findings
            .is_empty());
        assert!(lint_source("crates/bench/src/alloc.rs", clock)
            .findings
            .is_empty());

        let sys = "fn f() { let t = std::time::SystemTime::UNIX_EPOCH; }\n";
        assert_eq!(rules_of(&lint_source(CLI, sys)), vec!["no-wall-clock"]);

        let threads = "fn f() { std::thread::spawn(|| {}); }\n";
        assert_eq!(
            rules_of(&lint_source(CLI, threads)),
            vec!["no-thread-spawn"]
        );
        assert!(lint_source("crates/harness/src/engine.rs", threads)
            .findings
            .is_empty());
        let scoped = "fn f() { std::thread::scope(|s| {}); }\n";
        assert_eq!(rules_of(&lint_source(QOS, scoped)), vec!["no-thread-spawn"]);
        // thread::current is not creation.
        let current = "fn f() { let _ = std::thread::current(); }\n";
        assert!(lint_source(QOS, current).findings.is_empty());
    }

    #[test]
    fn unbounded_channels_are_scoped() {
        let bad = "fn f() { let (tx, rx) = std::sync::mpsc::channel::<u8>(); }\n";
        assert_eq!(
            rules_of(&lint_source(QOS, bad)),
            vec!["no-unbounded-channel"]
        );
        assert_eq!(
            rules_of(&lint_source("crates/harness/src/x.rs", bad)),
            vec!["no-unbounded-channel"]
        );
        // Out of scope elsewhere, and in test files.
        assert!(lint_source(CLI, bad).findings.is_empty());
        assert!(lint_source("crates/qos/tests/x.rs", bad)
            .findings
            .is_empty());
        // Bounded channels are the sanctioned alternative.
        let ok = "fn f() { let (tx, rx) = std::sync::mpsc::sync_channel::<u8>(8); }\n";
        assert!(lint_source(QOS, ok).findings.is_empty());
        // A justified pragma on the line above suppresses the finding.
        let pragma = "// lint: allow(no-unbounded-channel) -- reply fan-in; senders never block\nfn f() { let (tx, rx) = std::sync::mpsc::channel::<u8>(); }\n";
        let r = lint_source(QOS, pragma);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.suppressed, 1);
    }

    #[test]
    fn occupancy_arithmetic_is_caught_outside_core() {
        let bad = "fn f(t: &T) -> u32 { let o = t.occupancy(); o.count_ones() }\n";
        assert_eq!(
            rules_of(&lint_source(CLI, bad)),
            vec!["no-raw-occupancy-arith"]
        );
        assert!(lint_source("crates/core/src/table.rs", bad)
            .findings
            .is_empty());
        // Pass-through without bit ops is fine; generics never fire.
        let ok = "fn f(t: &T) -> bool { is_canonical(t.occupancy(), Vec::<Vec<u8>>::new()) }\n";
        assert!(lint_source(CLI, ok).findings.is_empty());
        let shift = "fn f(t: &T) -> u64 { t.occupancy() << 1 }\n";
        assert_eq!(
            rules_of(&lint_source(CLI, shift)),
            vec!["no-raw-occupancy-arith"]
        );
    }

    #[test]
    fn env_reads_must_be_iba_knobs() {
        let ok = "fn f() -> Option<String> { std::env::var(\"IBA_THREADS\").ok() }\n";
        assert!(lint_source(CLI, ok).findings.is_empty());
        let bad = "fn f() -> Option<String> { std::env::var(\"HOME\").ok() }\n";
        assert_eq!(rules_of(&lint_source(CLI, bad)), vec!["no-env-read"]);
        let dynamic = "fn f(n: &str) -> Option<String> { std::env::var(n).ok() }\n";
        assert_eq!(rules_of(&lint_source(CLI, dynamic)), vec!["no-env-read"]);
        let all = "fn f() { for (_k, _v) in std::env::vars() {} }\n";
        assert_eq!(rules_of(&lint_source(CLI, all)), vec!["no-env-read"]);
        // args() is argv, not the environment.
        let args = "fn f() -> Vec<String> { std::env::args().collect() }\n";
        assert!(lint_source(CLI, args).findings.is_empty());
    }

    #[test]
    fn todos_need_issue_refs() {
        let bad = "// TODO tighten this bound\nfn f() {}\n";
        let report = lint_source(CLI, bad);
        assert_eq!(rules_of(&report), vec!["todo-tracked"]);
        assert_eq!(report.findings[0].severity, Severity::Warning);
        let ok = "// TODO(#12): tighten this bound\nfn f() {}\n";
        assert!(lint_source(CLI, ok).findings.is_empty());
        let ok2 = "// FIXME: see ISSUE.md item 3\nfn f() {}\n";
        assert!(lint_source(CLI, ok2).findings.is_empty());
        // Fires in test files too.
        let in_test = "// FIXME later\nfn f() {}\n";
        assert_eq!(
            rules_of(&lint_source("crates/core/tests/t.rs", in_test)),
            vec!["todo-tracked"]
        );
    }

    #[test]
    fn forbid_unsafe_is_token_level() {
        let ok = "#![forbid(unsafe_code)]\npub fn f() {}\n";
        assert!(lint_source("crates/a/src/lib.rs", ok).findings.is_empty());
        let missing = "pub fn f() {}\n";
        assert_eq!(
            rules_of(&lint_source("crates/a/src/lib.rs", missing)),
            vec!["forbid-unsafe"]
        );
        // The old scanner accepted this; the lexer knows better.
        let commented = "// #![forbid(unsafe_code)]\npub fn f() {}\n";
        assert_eq!(
            rules_of(&lint_source("crates/a/src/lib.rs", commented)),
            vec!["forbid-unsafe"]
        );
        // Non-root files are not checked.
        assert!(lint_source("crates/a/src/other.rs", missing)
            .findings
            .is_empty());
        // The workspace-root lib is a crate root too.
        assert_eq!(
            rules_of(&lint_source("src/lib.rs", missing)),
            vec!["forbid-unsafe"]
        );
    }

    #[test]
    fn justified_pragma_suppresses_same_and_next_line() {
        let same =
            "use std::collections::HashMap; // lint: allow(no-unordered-iter) -- membership only\n";
        let r = lint_source(QOS, same);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.suppressed, 1);

        let above = "// lint: allow(no-unordered-iter) -- membership only\nuse std::collections::HashMap;\n";
        let r = lint_source(QOS, above);
        assert!(r.findings.is_empty());
        assert_eq!(r.suppressed, 1);

        // The pragma does not bleed past the next line.
        let far = "// lint: allow(no-unordered-iter) -- membership only\n\nuse std::collections::HashMap;\n";
        assert_eq!(rules_of(&lint_source(QOS, far)), vec!["no-unordered-iter"]);
    }

    #[test]
    fn pragma_hygiene_catches_malformed_pragmas() {
        let unjustified = "use std::collections::HashMap; // lint: allow(no-unordered-iter)\n";
        let r = lint_source(QOS, unjustified);
        assert_eq!(rules_of(&r), vec!["no-unordered-iter", "pragma-hygiene"]);

        let unknown = "fn f() {} // lint: allow(no-such-rule) -- because\n";
        assert_eq!(rules_of(&lint_source(QOS, unknown)), vec!["pragma-hygiene"]);

        let mangled = "fn f() {} // lint: deny(no-panic) -- because\n";
        assert_eq!(rules_of(&lint_source(QOS, mangled)), vec!["pragma-hygiene"]);
    }

    #[test]
    fn pragma_with_multiple_rules() {
        let src = "// lint: allow(no-unordered-iter, no-wall-clock) -- test harness epoch map\nuse std::collections::HashMap; use std::time::SystemTime;\n";
        let r = lint_source(QOS, src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.suppressed, 2);
    }

    #[test]
    fn registry_is_documented_and_unique() {
        let mut names: Vec<&str> = RULES.iter().map(|r| r.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate rule names");
        for r in RULES {
            assert!(!r.scope.is_empty() && !r.rationale.is_empty(), "{}", r.name);
        }
    }
}
