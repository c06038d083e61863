//! A declarative SLO engine evaluated over timeline windows.
//!
//! Specs are small text expressions, clauses separated by `;`:
//!
//! ```text
//! p99(alloc_probe_depth) <= 64
//! rate(audit_violations_total) == 0
//! rate(cac_reject_total{reason=capacity_exceeded}) <= 5 burn 0.25
//! ```
//!
//! Each clause names an aggregate over one metric from the
//! [`crate::metrics::METRIC_NAMES`] contract: `rate(..)` sums the
//! counter's per-window increment (across dimensions unless a
//! `{key=value}` filter narrows it), `p50(..)`/`p99(..)` read the
//! histogram quantiles of the window's delta histogram. The clause
//! holds in a window when the comparison (`<=`, `==`, `>=`) against
//! the bound is true. A clause *passes* when the fraction of
//! breaching windows is at most its **burn rate** (`burn F`, default
//! `0`: a single breaching window fails the clause).
//!
//! Evaluation is pure arithmetic over delta snapshots — no clocks, no
//! floats in the metric path — so a spec evaluated over a
//! deterministic timeline is itself deterministic, which is what lets
//! CI gate `ibaqos serve`/`audit`/`chaos` on `--slo` verdicts.

use crate::metrics::{Metrics, Sample, SampleValue};

/// The aggregate a clause applies to its metric's per-window delta.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Agg {
    /// Median of the window's delta histogram (bucket upper bound).
    P50,
    /// 99th percentile of the window's delta histogram.
    P99,
    /// Sum of the counter's per-window increments (over all matching
    /// dimensions).
    Rate,
}

impl Agg {
    fn label(self) -> &'static str {
        match self {
            Agg::P50 => "p50",
            Agg::P99 => "p99",
            Agg::Rate => "rate",
        }
    }
}

/// The comparison between the aggregate and the bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cmp {
    /// Aggregate must be at most the bound.
    Le,
    /// Aggregate must equal the bound.
    Eq,
    /// Aggregate must be at least the bound.
    Ge,
}

impl Cmp {
    fn label(self) -> &'static str {
        match self {
            Cmp::Le => "<=",
            Cmp::Eq => "==",
            Cmp::Ge => ">=",
        }
    }

    fn holds(self, value: u64, bound: u64) -> bool {
        match self {
            Cmp::Le => value <= bound,
            Cmp::Eq => value == bound,
            Cmp::Ge => value >= bound,
        }
    }
}

/// One parsed clause of an SLO spec.
#[derive(Clone, Debug)]
pub struct SloClause {
    /// The aggregate applied per window.
    pub agg: Agg,
    /// The contract metric name the clause reads.
    pub metric: String,
    /// Optional dimension filter, e.g. `("reason", "capacity_exceeded")`.
    pub dim: Option<(String, String)>,
    /// The comparison operator.
    pub cmp: Cmp,
    /// The bound compared against.
    pub bound: u64,
    /// Allowed fraction of breaching windows (`0.0..=1.0`).
    pub burn: f64,
}

impl SloClause {
    /// Canonical text form of the clause (re-parseable).
    #[must_use]
    pub fn render(&self) -> String {
        let target = match &self.dim {
            Some((k, v)) => format!("{}{{{k}={v}}}", self.metric),
            None => self.metric.clone(),
        };
        let mut out = format!(
            "{}({target}) {} {}",
            self.agg.label(),
            self.cmp.label(),
            self.bound
        );
        if self.burn > 0.0 {
            out.push_str(&format!(" burn {}", self.burn));
        }
        out
    }

    /// The clause's aggregate over one window's delta snapshot.
    /// Missing metrics read as 0 — an absent counter is a zero rate
    /// and an untouched histogram has zero quantiles, matching
    /// [`Metrics::snapshot`]'s omission of untouched registries.
    #[must_use]
    pub fn measure(&self, window: &Metrics) -> u64 {
        let snap = window.snapshot();
        let matches = |s: &&Sample| {
            if s.name != self.metric {
                return false;
            }
            match &self.dim {
                None => true,
                Some((k, v)) => s.dim.to_string() == format!("{k}={v}"),
            }
        };
        match self.agg {
            Agg::Rate => snap
                .iter()
                .filter(matches)
                .map(|s| match s.value {
                    SampleValue::Count(v) => v,
                    SampleValue::Hist { count, .. } => count,
                })
                .sum(),
            Agg::P50 | Agg::P99 => snap
                .iter()
                .filter(matches)
                .find_map(|s| match s.value {
                    SampleValue::Hist { p50, p99, .. } => {
                        Some(if self.agg == Agg::P50 { p50 } else { p99 })
                    }
                    SampleValue::Count(_) => None,
                })
                .unwrap_or(0),
        }
    }
}

/// A parsed SLO spec: one or more clauses, all of which must pass.
#[derive(Clone, Debug)]
pub struct SloSpec {
    /// The clauses, in spec order.
    pub clauses: Vec<SloClause>,
}

impl SloSpec {
    /// Parses a spec string (clauses separated by `;`).
    ///
    /// # Errors
    /// Returns a message naming the offending clause on malformed
    /// input, an unknown aggregate/operator, a non-numeric bound or a
    /// burn rate outside `0.0..=1.0`. An empty spec is an error.
    pub fn parse(text: &str) -> Result<SloSpec, String> {
        let mut clauses = Vec::new();
        for raw in text.split(';') {
            let raw = raw.trim();
            if raw.is_empty() {
                continue;
            }
            clauses.push(parse_clause(raw)?);
        }
        if clauses.is_empty() {
            return Err("empty SLO spec".to_string());
        }
        Ok(SloSpec { clauses })
    }

    /// Evaluates the spec over closed timeline windows, one verdict
    /// per clause. `windows` is any ordered list of `(window_index,
    /// delta_metrics)` pairs — typically
    /// [`crate::timeline::Timeline::windows`]; callers without a
    /// timeline pass a single pseudo-window holding the cumulative
    /// snapshot. Zero windows pass vacuously (reported as such).
    #[must_use]
    pub fn evaluate(&self, windows: &[(u64, &Metrics)]) -> SloReport {
        let outcomes = self
            .clauses
            .iter()
            .map(|clause| {
                let mut breaching = 0usize;
                let mut worst: Option<(u64, u64)> = None;
                for (idx, m) in windows {
                    let value = clause.measure(m);
                    if !clause.cmp.holds(value, clause.bound) {
                        breaching += 1;
                        let further = match (clause.cmp, worst) {
                            (_, None) => true,
                            (Cmp::Ge, Some((_, w))) => value < w,
                            (_, Some((_, w))) => value > w,
                        };
                        if further {
                            worst = Some((*idx, value));
                        }
                    }
                }
                let fraction = if windows.is_empty() {
                    0.0
                } else {
                    breaching as f64 / windows.len() as f64
                };
                ClauseOutcome {
                    clause: clause.render(),
                    windows: windows.len(),
                    breaching,
                    burn: clause.burn,
                    pass: fraction <= clause.burn,
                    worst_window: worst.map(|(i, _)| i),
                    worst_value: worst.map(|(_, v)| v),
                }
            })
            .collect::<Vec<_>>();
        let pass = outcomes.iter().all(|o| o.pass);
        SloReport { outcomes, pass }
    }
}

/// One clause's verdict over the evaluated windows.
#[derive(Clone, Debug)]
pub struct ClauseOutcome {
    /// The clause, rendered back to its canonical text form.
    pub clause: String,
    /// Windows evaluated.
    pub windows: usize,
    /// Windows in which the clause did not hold.
    pub breaching: usize,
    /// The clause's allowed breaching fraction.
    pub burn: f64,
    /// Whether the clause passed.
    pub pass: bool,
    /// The breaching window with the most extreme aggregate, if any.
    pub worst_window: Option<u64>,
    /// The aggregate observed in that window.
    pub worst_value: Option<u64>,
}

/// A full spec evaluation: per-clause outcomes and the AND verdict.
#[derive(Clone, Debug)]
pub struct SloReport {
    /// Per-clause verdicts, in spec order.
    pub outcomes: Vec<ClauseOutcome>,
    /// `true` iff every clause passed.
    pub pass: bool,
}

impl SloReport {
    /// Stamps the evaluation into a metrics registry:
    /// `slo_eval_total` counts (clause × window) evaluations,
    /// `slo_breach_total` the breaching ones. Callers stamp *after*
    /// capturing any snapshot the verdict itself must not perturb.
    pub fn stamp(&self, metrics: &mut Metrics) {
        for o in &self.outcomes {
            metrics.slo_evals.add(o.windows as u64);
            metrics.slo_breaches.add(o.breaching as u64);
        }
    }

    /// Renders the report. The first line is machine-readable —
    /// `slo: verdict=PASS|FAIL clauses=N breaching_windows=M` — so CI
    /// can gate on `head -1 | grep '^slo: verdict='`; per-clause
    /// detail lines follow.
    #[must_use]
    pub fn render(&self) -> String {
        let breaching: usize = self.outcomes.iter().map(|o| o.breaching).sum();
        let mut out = format!(
            "slo: verdict={} clauses={} breaching_windows={}\n",
            if self.pass { "PASS" } else { "FAIL" },
            self.outcomes.len(),
            breaching
        );
        for o in &self.outcomes {
            out.push_str(&format!(
                "  [{}] {} windows={} breaching={}",
                if o.pass { "PASS" } else { "FAIL" },
                o.clause,
                o.windows,
                o.breaching
            ));
            if let (Some(w), Some(v)) = (o.worst_window, o.worst_value) {
                out.push_str(&format!(" worst_window={w} worst_value={v}"));
            }
            out.push('\n');
        }
        out
    }
}

fn parse_clause(raw: &str) -> Result<SloClause, String> {
    let err = |what: &str| format!("bad SLO clause `{raw}`: {what}");
    let open = raw.find('(').ok_or_else(|| err("missing `(`"))?;
    let agg = match &raw[..open] {
        "p50" => Agg::P50,
        "p99" => Agg::P99,
        "rate" => Agg::Rate,
        other => return Err(err(&format!("unknown aggregate `{other}`"))),
    };
    let close = raw.find(')').ok_or_else(|| err("missing `)`"))?;
    if close < open {
        return Err(err("`)` before `(`"));
    }
    let target = raw[open + 1..close].trim();
    let (metric, dim) = match target.find('{') {
        None => (target.to_string(), None),
        Some(brace) => {
            let end = target.find('}').ok_or_else(|| err("missing `}`"))?;
            if end < brace {
                return Err(err("`}` before `{`"));
            }
            let filter = &target[brace + 1..end];
            let (k, v) = filter
                .split_once('=')
                .ok_or_else(|| err("dimension filter is not `key=value`"))?;
            (
                target[..brace].trim().to_string(),
                Some((k.trim().to_string(), v.trim().to_string())),
            )
        }
    };
    if metric.is_empty() {
        return Err(err("empty metric name"));
    }
    let rest = raw[close + 1..].trim();
    let mut parts = rest.split_whitespace();
    let cmp = match parts.next() {
        Some("<=") => Cmp::Le,
        Some("==") => Cmp::Eq,
        Some(">=") => Cmp::Ge,
        Some(other) => return Err(err(&format!("unknown operator `{other}`"))),
        None => return Err(err("missing operator")),
    };
    let bound = parts
        .next()
        .ok_or_else(|| err("missing bound"))?
        .parse::<u64>()
        .map_err(|_| err("bound is not an unsigned integer"))?;
    let burn = match parts.next() {
        None => 0.0,
        Some("burn") => {
            let f = parts
                .next()
                .ok_or_else(|| err("missing burn fraction"))?
                .parse::<f64>()
                .map_err(|_| err("burn fraction is not a number"))?;
            if !(0.0..=1.0).contains(&f) {
                return Err(err("burn fraction outside 0.0..=1.0"));
            }
            f
        }
        Some(other) => return Err(err(&format!("trailing tokens from `{other}`"))),
    };
    if parts.next().is_some() {
        return Err(err("trailing tokens after clause"));
    }
    Ok(SloClause {
        agg,
        metric,
        dim,
        cmp,
        bound,
        burn,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(events: u64, latency: &[u64]) -> Metrics {
        let mut m = Metrics::new();
        m.sim_events.add(events);
        for &v in latency {
            m.alloc_probe_depth.observe(v);
        }
        m
    }

    #[test]
    fn parse_roundtrips_canonical_forms() {
        let spec = SloSpec::parse(
            "p99(alloc_probe_depth) <= 64; \
             rate(cac_reject_total{reason=capacity_exceeded}) == 0; \
             rate(sim_events_total) >= 1 burn 0.5",
        )
        .expect("spec parses");
        assert_eq!(spec.clauses.len(), 3);
        assert_eq!(spec.clauses[0].render(), "p99(alloc_probe_depth) <= 64");
        assert_eq!(
            spec.clauses[1].render(),
            "rate(cac_reject_total{reason=capacity_exceeded}) == 0"
        );
        assert_eq!(
            spec.clauses[2].render(),
            "rate(sim_events_total) >= 1 burn 0.5"
        );
        // The canonical form re-parses to the same canonical form.
        for c in &spec.clauses {
            let again = SloSpec::parse(&c.render()).expect("canonical re-parses");
            assert_eq!(again.clauses[0].render(), c.render());
        }
    }

    #[test]
    fn parse_rejects_malformed_clauses() {
        for bad in [
            "",
            " ; ;",
            "p99 alloc_probe_depth <= 3",
            "max(alloc_probe_depth) <= 3",
            "p99(alloc_probe_depth) < 3",
            "p99(alloc_probe_depth) <=",
            "p99(alloc_probe_depth) <= -3",
            "p99() <= 3",
            "rate(x{reason}) == 0",
            "rate(x) == 0 burn 1.5",
            "rate(x) == 0 burn",
            "rate(x) == 0 extra",
        ] {
            assert!(SloSpec::parse(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn rate_clause_breaches_and_burn_forgives() {
        let w0 = window(10, &[]);
        let w1 = window(0, &[]);
        let w2 = window(7, &[]);
        let windows = vec![(0u64, &w0), (1, &w1), (2, &w2)];
        let strict = SloSpec::parse("rate(sim_events_total) >= 1").unwrap();
        let report = strict.evaluate(&windows);
        assert!(!report.pass);
        assert_eq!(report.outcomes[0].breaching, 1);
        assert_eq!(report.outcomes[0].worst_window, Some(1));
        assert_eq!(report.outcomes[0].worst_value, Some(0));
        // A burn rate of 1/3 forgives the single empty window.
        let lenient = SloSpec::parse("rate(sim_events_total) >= 1 burn 0.34").unwrap();
        assert!(lenient.evaluate(&windows).pass);
    }

    #[test]
    fn quantile_clause_reads_window_histograms() {
        let w0 = window(0, &[2, 3, 3, 4]);
        let w1 = window(0, &[2, 900]);
        let windows = vec![(0u64, &w0), (1, &w1)];
        let spec = SloSpec::parse("p99(alloc_probe_depth) <= 64").unwrap();
        let report = spec.evaluate(&windows);
        assert!(!report.pass);
        assert_eq!(report.outcomes[0].breaching, 1);
        assert_eq!(report.outcomes[0].worst_window, Some(1));
        // The bucketed p99 of [2, 900] is the 900 bucket's upper bound.
        assert_eq!(report.outcomes[0].worst_value, Some(1023));
        assert!(
            SloSpec::parse("p50(alloc_probe_depth) <= 4")
                .unwrap()
                .evaluate(&windows)
                .pass
        );
    }

    #[test]
    fn dimension_filter_narrows_the_rate() {
        let mut m = Metrics::new();
        m.cac_admit.lane(1).add(3);
        m.cac_admit.lane(2).add(5);
        let windows = vec![(0u64, &m)];
        let all = SloSpec::parse("rate(cac_admit_total) == 8").unwrap();
        assert!(all.evaluate(&windows).pass);
        let one = SloSpec::parse("rate(cac_admit_total{sl=2}) == 5").unwrap();
        assert!(one.evaluate(&windows).pass);
        let missing = SloSpec::parse("rate(cac_admit_total{sl=9}) == 0").unwrap();
        assert!(missing.evaluate(&windows).pass, "absent dim reads as 0");
    }

    #[test]
    fn report_renders_machine_readable_first_line_and_stamps() {
        let w0 = window(0, &[]);
        let windows = vec![(0u64, &w0)];
        let spec =
            SloSpec::parse("rate(sim_events_total) >= 1; rate(fault_injected_total) == 0").unwrap();
        let report = spec.evaluate(&windows);
        let text = report.render();
        let first = text.lines().next().unwrap();
        assert_eq!(first, "slo: verdict=FAIL clauses=2 breaching_windows=1");
        assert!(text.contains("[FAIL] rate(sim_events_total) >= 1"));
        assert!(text.contains("[PASS] rate(fault_injected_total) == 0"));

        let mut m = Metrics::new();
        report.stamp(&mut m);
        assert_eq!(m.slo_evals.get(), 2);
        assert_eq!(m.slo_breaches.get(), 1);

        // Zero windows: vacuous pass, still machine-readable.
        let empty = spec.evaluate(&[]);
        assert!(empty.pass);
        assert!(empty.render().starts_with("slo: verdict=PASS"));
    }
}
