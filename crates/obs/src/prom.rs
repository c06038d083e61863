//! Prometheus-style text exposition for [`Metrics`] snapshots.
//!
//! `ibaqos report --prom` (and the flight recorder's `metrics.prom`)
//! render a snapshot in the classic text exposition format: one
//! `# TYPE` line per metric family, then one sample line per
//! dimension with `{vl="3"}`-style labels. The workspace's fixed
//! bucket histograms carry only count/sum and the two contract
//! quantiles in a snapshot, so histogram families are exposed as
//! Prometheus **summaries** (`name{quantile="0.5"}`,
//! `name{quantile="0.99"}`, `name_sum`, `name_count`).
//!
//! Family types follow the metric-name contract: names ending in
//! `_total` are counters, histogram samples are summaries, everything
//! else (thread counts, audit gap levels) is a gauge. The output is a
//! pure function of the snapshot — fixed iteration order, no
//! timestamps — so it is golden-testable byte for byte.

use crate::metrics::{Dim, Metrics, SampleValue};

/// Renders a metrics registry in Prometheus text exposition format.
/// An untouched registry renders to an empty string.
#[must_use]
pub fn render_prom(metrics: &Metrics) -> String {
    let mut out = String::new();
    let mut last_family = "";
    for s in &metrics.snapshot() {
        if s.name != last_family {
            let ty = match s.value {
                SampleValue::Hist { .. } => "summary",
                SampleValue::Count(_) if s.name.ends_with("_total") => "counter",
                SampleValue::Count(_) => "gauge",
            };
            out.push_str(&format!("# TYPE {} {ty}\n", s.name));
            last_family = s.name;
        }
        match s.value {
            SampleValue::Count(v) => {
                out.push_str(&format!("{}{} {v}\n", s.name, label_set(s.dim, &[])));
            }
            SampleValue::Hist {
                count,
                sum,
                p50,
                p99,
            } => {
                out.push_str(&format!(
                    "{}{} {p50}\n",
                    s.name,
                    label_set(s.dim, &[("quantile", "0.5")])
                ));
                out.push_str(&format!(
                    "{}{} {p99}\n",
                    s.name,
                    label_set(s.dim, &[("quantile", "0.99")])
                ));
                out.push_str(&format!("{}_sum{} {sum}\n", s.name, label_set(s.dim, &[])));
                out.push_str(&format!(
                    "{}_count{} {count}\n",
                    s.name,
                    label_set(s.dim, &[])
                ));
            }
        }
    }
    out
}

/// Renders a `{key="value",...}` label set from a sample dimension
/// plus any extra labels; empty when there is nothing to label.
fn label_set(dim: Dim, extra: &[(&str, &str)]) -> String {
    let mut labels: Vec<(String, String)> = Vec::new();
    match dim {
        Dim::None => {}
        Dim::Vl(v) => labels.push(("vl".into(), v.to_string())),
        Dim::Sl(s) => labels.push(("sl".into(), s.to_string())),
        Dim::Reason(r) => labels.push(("reason".into(), r.to_string())),
        Dim::Shard(s) => labels.push(("shard".into(), s.to_string())),
    }
    for (k, v) in extra {
        labels.push(((*k).to_string(), (*v).to_string()));
    }
    if labels.is_empty() {
        return String::new();
    }
    let body = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{v}\""))
        .collect::<Vec<_>>()
        .join(",");
    format!("{{{body}}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_registry_renders_empty_exposition() {
        assert_eq!(render_prom(&Metrics::new()), "");
    }

    #[test]
    fn counters_get_one_type_line_per_family() {
        let mut m = Metrics::new();
        m.arb_grant.lane(0).add(3);
        m.arb_grant.lane(5).incr();
        m.cac_release.add(2);
        let text = render_prom(&m);
        assert_eq!(
            text,
            "# TYPE arb_grant_total counter\n\
             arb_grant_total{vl=\"0\"} 3\n\
             arb_grant_total{vl=\"5\"} 1\n\
             # TYPE cac_release_total counter\n\
             cac_release_total 2\n"
        );
    }

    #[test]
    fn histograms_expose_as_summaries() {
        let mut m = Metrics::new();
        m.alloc_probe_depth.observe(2);
        m.alloc_probe_depth.observe(9);
        let text = render_prom(&m);
        assert!(text.contains("# TYPE alloc_probe_depth summary\n"));
        assert!(text.contains("alloc_probe_depth{quantile=\"0.5\"} "));
        assert!(text.contains("alloc_probe_depth{quantile=\"0.99\"} "));
        assert!(text.contains("alloc_probe_depth_sum 11\n"));
        assert!(text.contains("alloc_probe_depth_count 2\n"));
    }

    #[test]
    fn gauges_and_reason_labels_render() {
        let mut m = Metrics::new();
        m.harness_threads.set(4);
        m.cac_reject[1].incr(); // capacity_exceeded
        let text = render_prom(&m);
        assert!(text.contains("# TYPE harness_threads gauge\n"));
        assert!(text.contains("harness_threads 4\n"));
        assert!(text.contains("cac_reject_total{reason=\"capacity_exceeded\"} 1\n"));
    }
}
