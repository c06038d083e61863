//! Pure helpers behind `cargo xtask check` / `bench-compare`.
//!
//! Source-discipline scanning lives in the `iba-lint` crate (a real
//! lexer plus a token-stream rule engine; see `LINTS.md`) — the
//! line-oriented string scanners that used to live here were retired
//! when it landed (they could not see raw strings or nested block
//! comments). What remains are the document-shaped extractors:
//!
//! * [`extract_relative_links`] — markdown link targets for the
//!   doc-link lint (existence is checked by the runner).
//! * [`extract_table_rows`] — the named rows of the `LINTS.md` and
//!   `METRICS.md` catalog tables.
//! * [`metrics_doc_problems`] — the `METRICS.md` rows against the
//!   registry's metric names, both directions.
//! * [`extract_bench_ns`] / [`compare_benches`] — `BENCH_*.json`
//!   parsing and the regression gate.
//! * [`parse_require`] / [`check_speedups`] — the `--require
//!   name=factor` minimum-speedup gate of `bench-compare`.
//!
//! All helpers are pure functions over file contents so the tests can
//! feed seeded inputs without touching the filesystem.

#![forbid(unsafe_code)]

/// The named rows of a markdown catalog table: every table row whose
/// first cell is a backticked name, as `(name, rest_of_row)`. The
/// runner cross-checks the `LINTS.md` rows against `iba_lint::RULES`
/// and the `METRICS.md` rows against `iba_obs::METRIC_NAMES`, in both
/// directions (undocumented entry, documented ghost).
#[must_use]
pub fn extract_table_rows(source: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for line in source.lines() {
        let Some(rest) = line.trim_start().strip_prefix("| `") else {
            continue;
        };
        let Some((name, row)) = rest.split_once('`') else {
            continue;
        };
        out.push((name.to_string(), row.to_string()));
    }
    out
}

/// The mismatches between the `METRICS.md` contract and the registry's
/// metric `names`: a registered name with no table row, and a row
/// (first cell a backticked name) naming no registered metric. Empty
/// when the two agree.
#[must_use]
pub fn metrics_doc_problems(doc: &str, names: &[&str]) -> Vec<String> {
    let rows = extract_table_rows(doc);
    let mut problems: Vec<String> = names
        .iter()
        .filter(|n| !rows.iter().any(|(r, _)| r == *n))
        .map(|n| format!("metric `{n}` is not documented in METRICS.md"))
        .collect();
    problems.extend(
        rows.iter()
            .filter(|(r, _)| !names.contains(&r.as_str()))
            .map(|(r, _)| format!("METRICS.md documents `{r}`, which is not a registered metric")),
    );
    problems
}

/// Relative markdown link targets in `source`, as `(line, target)`.
/// Absolute URLs, `mailto:` and pure-fragment links are skipped; a
/// `#section` suffix on a relative target is dropped.
#[must_use]
pub fn extract_relative_links(source: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (idx, line) in source.lines().enumerate() {
        let mut i = 0;
        while let Some(p) = line[i..].find("](") {
            let start = i + p + 2;
            let Some(q) = line[start..].find(')') else {
                break;
            };
            let target = &line[start..start + q];
            i = start + q;
            if target.is_empty()
                || target.starts_with('#')
                || target.contains("://")
                || target.starts_with("mailto:")
            {
                continue;
            }
            let path = target.split('#').next().unwrap_or(target);
            if !path.is_empty() {
                out.push((idx + 1, path.to_string()));
            }
        }
    }
    out
}

/// Extracts `(name, ns_per_op)` pairs from a `BENCH_*.json` document
/// written by `iba_obs::bench_json`. A deliberately narrow line
/// scanner (no JSON parser in the workspace): a bench record is a
/// `"name": "<...>"` line followed — before the next name — by an
/// `"ns_per_op": <float>` line. Unparseable lines are skipped, so the
/// caller should treat an empty result as an error.
#[must_use]
pub fn extract_bench_ns(source: &str) -> Vec<(String, f64)> {
    fn quoted(line: &str, key: &str) -> Option<String> {
        let rest = line.split_once(key)?.1;
        let rest = rest.split_once('"')?.1;
        Some(rest.split_once('"')?.0.to_string())
    }
    let mut out = Vec::new();
    let mut pending: Option<String> = None;
    for line in source.lines() {
        if line.contains("\"name\":") {
            pending = quoted(line, "\"name\":");
        } else if line.contains("\"ns_per_op\":") {
            if let Some(name) = pending.take() {
                let value = line
                    .split_once("\"ns_per_op\":")
                    .map(|(_, v)| v.trim().trim_end_matches(','))
                    .and_then(|v| v.parse::<f64>().ok());
                if let Some(ns) = value {
                    out.push((name, ns));
                }
            }
        }
    }
    out
}

/// One benchmark's baseline-vs-current comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchDelta {
    /// Benchmark name as it appears in both documents.
    pub name: String,
    /// Baseline ns/op.
    pub base_ns: f64,
    /// Current ns/op.
    pub cur_ns: f64,
    /// `cur / base` (1.0 = unchanged, 2.0 = twice as slow).
    pub ratio: f64,
    /// True when `ratio > 1 + tolerance`.
    pub regressed: bool,
}

/// Compares two bench documents name-by-name. `tolerance` is the
/// allowed fractional slowdown (0.25 = fail beyond +25% wall clock).
/// Benchmarks present on only one side are ignored — adding or
/// retiring a benchmark is not a regression — but thread-scaling rows
/// and microbenchmarks that exist in both must stay within tolerance.
#[must_use]
pub fn compare_benches(baseline: &str, current: &str, tolerance: f64) -> Vec<BenchDelta> {
    let base = extract_bench_ns(baseline);
    let cur = extract_bench_ns(current);
    let mut out = Vec::new();
    for (name, base_ns) in &base {
        let Some((_, cur_ns)) = cur.iter().find(|(n, _)| n == name) else {
            continue;
        };
        // Sub-nanosecond baselines are noise-dominated; never gate on
        // them (and avoid dividing by zero).
        let ratio = if *base_ns > 1.0 {
            cur_ns / base_ns
        } else {
            1.0
        };
        out.push(BenchDelta {
            name: name.clone(),
            base_ns: *base_ns,
            cur_ns: *cur_ns,
            ratio,
            regressed: ratio > 1.0 + tolerance,
        });
    }
    out
}

/// One `--require <name>=<factor>` speedup gate's verdict.
#[derive(Clone, Debug, PartialEq)]
pub struct SpeedupCheck {
    /// Benchmark name the requirement targets.
    pub name: String,
    /// Required speedup factor (2.0 = at least twice as fast).
    pub factor: f64,
    /// Baseline ns/op, when the baseline document has the row.
    pub base_ns: Option<f64>,
    /// Current ns/op, when the current document has the row.
    pub cur_ns: Option<f64>,
    /// `cur_ns * factor <= base_ns`; false when either side is absent.
    pub passed: bool,
}

/// Parses one `--require` operand of the form `name=factor` (e.g.
/// `sim/fabric_short_run=3`). Returns `None` for a missing `=`, an
/// empty name, or a factor that is not a positive float.
#[must_use]
pub fn parse_require(arg: &str) -> Option<(String, f64)> {
    let (name, factor) = arg.split_once('=')?;
    if name.is_empty() {
        return None;
    }
    let factor: f64 = factor.parse().ok()?;
    if !(factor > 0.0 && factor.is_finite()) {
        return None;
    }
    Some((name.to_string(), factor))
}

/// Evaluates minimum-speedup requirements against two bench documents:
/// each `(name, factor)` demands that the named benchmark now runs at
/// least `factor`x faster than the baseline (`cur_ns * factor <=
/// base_ns`). A row missing from either document fails its check —
/// renaming or dropping a gated benchmark must not silently pass.
#[must_use]
pub fn check_speedups(
    baseline: &str,
    current: &str,
    requires: &[(String, f64)],
) -> Vec<SpeedupCheck> {
    let base = extract_bench_ns(baseline);
    let cur = extract_bench_ns(current);
    let find = |rows: &[(String, f64)], name: &str| {
        rows.iter().find(|(n, _)| n == name).map(|(_, ns)| *ns)
    };
    requires
        .iter()
        .map(|(name, factor)| {
            let base_ns = find(&base, name);
            let cur_ns = find(&cur, name);
            let passed = match (base_ns, cur_ns) {
                (Some(b), Some(c)) => c * factor <= b,
                _ => false,
            };
            SpeedupCheck {
                name: name.clone(),
                factor: *factor,
                base_ns,
                cur_ns,
                passed,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_doc_is_checked_in_both_directions() {
        let doc = "\
| Name | Type |
|---|---|
| `alloc_probe_total` | counter |
| `ghost_total` | counter |

Prose mentioning `cac_admit_total` is not a row.
";
        let problems = metrics_doc_problems(doc, &["alloc_probe_total", "cac_admit_total"]);
        assert_eq!(
            problems,
            vec![
                "metric `cac_admit_total` is not documented in METRICS.md",
                "METRICS.md documents `ghost_total`, which is not a registered metric",
            ]
        );
        assert!(metrics_doc_problems(doc, &["alloc_probe_total", "ghost_total"]).is_empty());
    }

    #[test]
    fn lint_rule_rows_are_extracted() {
        let md = "\
# Catalog

| rule | severity | scope |
|---|---|---|
| `no-panic` | error | core, sim, qos |
| `todo-tracked` | warning | comments |

Not a row: `inline-code` mention.
";
        let rows = extract_table_rows(md);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, "no-panic");
        assert!(rows[0].1.contains("error"));
        assert_eq!(rows[1].0, "todo-tracked");
        assert!(extract_table_rows("no table here").is_empty());
    }

    #[test]
    fn relative_links_are_extracted() {
        let md = "See [design](DESIGN.md#goals) and [site](https://example.com) and [top](#x).\n";
        let links = extract_relative_links(md);
        assert_eq!(links, vec![(1, "DESIGN.md".to_string())]);
    }

    fn bench_doc(rows: &[(&str, f64)]) -> String {
        let mut out = String::from("{\n  \"suite\": \"sim\",\n  \"benches\": [\n");
        for (name, ns) in rows {
            out.push_str(&format!(
                "    {{\n      \"name\": \"{name}\",\n      \"iters\": 8,\n      \
                 \"ns_per_op\": {ns},\n      \"p50_ns\": {ns},\n      \"p99_ns\": {ns}\n    }},\n"
            ));
        }
        out.push_str("  ],\n  \"per_vl_shares\": []\n}\n");
        out
    }

    #[test]
    fn bench_ns_pairs_are_extracted_in_order() {
        let doc = bench_doc(&[("sim/hot", 120.5), ("harness/sweep", 9000.0)]);
        assert_eq!(
            extract_bench_ns(&doc),
            vec![
                ("sim/hot".to_string(), 120.5),
                ("harness/sweep".to_string(), 9000.0)
            ]
        );
        assert!(extract_bench_ns("{}").is_empty());
    }

    #[test]
    fn compare_flags_only_regressions_beyond_tolerance() {
        let base = bench_doc(&[("a", 100.0), ("b", 100.0), ("gone", 50.0)]);
        let cur = bench_doc(&[("a", 124.0), ("b", 126.0), ("new", 1.0)]);
        let deltas = compare_benches(&base, &cur, 0.25);
        // "gone"/"new" are unpaired and ignored; only b crosses +25%.
        assert_eq!(deltas.len(), 2);
        assert!(!deltas[0].regressed, "a is within tolerance: {deltas:?}");
        assert!(deltas[1].regressed, "b is past tolerance: {deltas:?}");
    }

    #[test]
    fn sub_nanosecond_baselines_never_gate() {
        let base = bench_doc(&[("tiny", 0.4)]);
        let cur = bench_doc(&[("tiny", 400.0)]);
        let deltas = compare_benches(&base, &cur, 0.25);
        assert_eq!(deltas.len(), 1);
        assert!(!deltas[0].regressed);
    }

    #[test]
    fn require_operands_parse_or_reject() {
        assert_eq!(
            parse_require("sim/fabric_short_run=3"),
            Some(("sim/fabric_short_run".to_string(), 3.0))
        );
        assert_eq!(parse_require("a=0.5"), Some(("a".to_string(), 0.5)));
        assert_eq!(parse_require("no_equals"), None);
        assert_eq!(parse_require("=3"), None, "empty name");
        assert_eq!(parse_require("a=zero"), None, "non-numeric factor");
        assert_eq!(parse_require("a=0"), None, "factor must be positive");
        assert_eq!(parse_require("a=-2"), None);
        assert_eq!(parse_require("a=inf"), None);
    }

    #[test]
    fn speedup_gate_passes_exactly_at_factor() {
        let base = bench_doc(&[("fast", 300.0), ("slow", 300.0)]);
        let cur = bench_doc(&[("fast", 100.0), ("slow", 101.0)]);
        let req = [("fast".to_string(), 3.0), ("slow".to_string(), 3.0)];
        let checks = check_speedups(&base, &cur, &req);
        assert_eq!(checks.len(), 2);
        assert!(checks[0].passed, "100 * 3 <= 300 passes: {checks:?}");
        assert!(!checks[1].passed, "101 * 3 > 300 fails: {checks:?}");
        assert_eq!(checks[0].base_ns, Some(300.0));
        assert_eq!(checks[0].cur_ns, Some(100.0));
    }

    #[test]
    fn speedup_gate_fails_on_missing_rows() {
        let base = bench_doc(&[("present", 300.0)]);
        let cur = bench_doc(&[("present", 10.0)]);
        let req = [("present".to_string(), 3.0), ("absent".to_string(), 3.0)];
        let checks = check_speedups(&base, &cur, &req);
        assert!(checks[0].passed);
        assert!(!checks[1].passed, "a row missing from both sides fails");
        assert_eq!(checks[1].base_ns, None);
        // Present only in the baseline: still a failure.
        let cur2 = bench_doc(&[("other", 1.0)]);
        let checks2 = check_speedups(&base, &cur2, &req[..1]);
        assert!(!checks2[0].passed);
        assert_eq!(checks2[0].cur_ns, None);
    }
}
