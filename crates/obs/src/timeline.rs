//! Windowed timeline aggregation: the time dimension of the metrics
//! registry.
//!
//! A [`Timeline`] slices a run into fixed-length windows of logical
//! ticks (simulator cycles, or finalized-operation indices on the
//! admission-service plane) and keeps one delta-encoded [`Metrics`]
//! registry per window: counters become per-window increments,
//! histograms per-window observation sets, gauges keep their level
//! reading. Windows are keyed by **absolute** window index
//! (`tick / window_len`), so two timelines recorded independently —
//! by different harness workers — merge
//! window-wise with [`Metrics::merge`], which is commutative and
//! associative. A merged timeline is therefore byte-identical no
//! matter how many threads recorded it or in which order the pieces
//! were folded, which is what lets `TIMELINE.json` be compared with
//! `cmp` across `IBA_THREADS` settings in CI.
//!
//! The aggregator is driven from [`crate::recorder::ObsRecorder`]'s
//! `tick` hook: crossing a window boundary closes the open window by
//! subtracting the cumulative snapshot taken at its start
//! ([`Metrics::delta_from`]). Closing a window bumps
//! `timeline_window_total` *after* the delta is taken, so window
//! deltas never contain the bookkeeping counter while cumulative
//! snapshots do.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::metrics::{Metrics, Sample, SampleValue};

/// Schema identifier stamped into every `TIMELINE.json` document.
pub const TIMELINE_SCHEMA: &str = "iba.timeline.v1";

/// Default window length (ticks per window) used by the CLI and the
/// harness timeline drive when none is given.
pub const DEFAULT_WINDOW_LEN: u64 = 4096;

/// A windowed, delta-encoded view of a [`Metrics`] registry.
///
/// See the [module docs](crate::timeline) for the aggregation model.
#[derive(Clone, Debug)]
pub struct Timeline {
    window_len: u64,
    /// The open window's absolute index, once the first tick arrived.
    cur: Option<u64>,
    /// Cumulative registry state at the open window's start.
    cursor: Metrics,
    /// Closed windows: absolute index → per-window delta registry.
    windows: BTreeMap<u64, Metrics>,
}

impl Timeline {
    /// A timeline with `window_len` ticks per window (clamped to at
    /// least 1).
    #[must_use]
    pub fn new(window_len: u64) -> Self {
        Timeline {
            window_len: window_len.max(1),
            cur: None,
            cursor: Metrics::new(),
            windows: BTreeMap::new(),
        }
    }

    /// Ticks per window.
    #[must_use]
    pub fn window_len(&self) -> u64 {
        self.window_len
    }

    /// The closed windows, keyed by absolute window index.
    #[must_use]
    pub fn windows(&self) -> &BTreeMap<u64, Metrics> {
        &self.windows
    }

    /// Number of closed windows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// Whether no window has been closed yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Advances the timeline to logical time `now`, closing the open
    /// window when `now` crosses into a later one. `metrics` is the
    /// live cumulative registry this timeline shadows. Backwards time
    /// is ignored (the harness replays runs whose clocks restart; the
    /// caller resets or re-creates the timeline between runs instead).
    pub fn tick(&mut self, now: u64, metrics: &mut Metrics) {
        let w = now / self.window_len;
        match self.cur {
            None => self.cur = Some(w),
            Some(c) if w > c => {
                self.close(c, metrics);
                self.cur = Some(w);
            }
            Some(_) => {}
        }
    }

    /// Closes the trailing partial window, if one is open. Call once
    /// when the run ends; further ticks then re-open from the current
    /// cumulative state.
    pub fn finish(&mut self, metrics: &mut Metrics) {
        if let Some(c) = self.cur.take() {
            self.close(c, metrics);
        }
    }

    fn close(&mut self, index: u64, metrics: &mut Metrics) {
        // Delta first, bump second: window deltas exclude the
        // bookkeeping counter, cumulative snapshots include it.
        let delta = metrics.delta_from(&self.cursor);
        metrics.timeline_windows.incr();
        self.cursor = metrics.clone();
        self.windows.entry(index).or_default().merge(&delta);
    }

    /// Folds another timeline's closed windows into this one,
    /// window-index-wise. Commutative and associative (it inherits
    /// both from [`Metrics::merge`]), so a fan-in over any number of
    /// worker timelines is independent of merge order. Open-window
    /// state is not merged — [`Timeline::finish`] each side first.
    /// Both sides must share a window length (caller bug otherwise).
    pub fn merge(&mut self, other: &Timeline) {
        debug_assert_eq!(
            self.window_len, other.window_len,
            "merging timelines with different window lengths"
        );
        for (idx, m) in &other.windows {
            self.windows.entry(*idx).or_default().merge(m);
        }
    }

    /// A copy keeping only the newest `k` closed windows (everything
    /// when `k` is 0 or at least the window count). Open-window state
    /// is dropped — the copy is a finished view for export.
    #[must_use]
    pub fn tail(&self, k: usize) -> Timeline {
        let mut out = Timeline {
            window_len: self.window_len,
            cur: None,
            cursor: Metrics::new(),
            windows: self.windows.clone(),
        };
        if k > 0 && out.windows.len() > k {
            let cut = *out
                .windows
                .keys()
                .rev()
                .nth(k - 1)
                .expect("len > k >= 1 guarantees a k-th newest key");
            out.windows.retain(|idx, _| *idx >= cut);
        }
        out
    }

    /// The schema-versioned `TIMELINE.json` document: window length,
    /// closed-window count and, per window, its absolute index, its
    /// inclusive `[start, end]` tick range and its delta snapshot
    /// (same name/dim contract as [`Metrics::snapshot`]).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let windows = self
            .windows
            .iter()
            .map(|(idx, m)| {
                let metrics = m.snapshot().iter().map(sample_json).collect();
                Json::Object(vec![
                    ("index".into(), Json::uint(*idx)),
                    ("start".into(), Json::uint(idx * self.window_len)),
                    ("end".into(), Json::uint((idx + 1) * self.window_len - 1)),
                    ("metrics".into(), Json::Array(metrics)),
                ])
            })
            .collect();
        Json::Object(vec![
            ("schema".into(), Json::str(TIMELINE_SCHEMA)),
            ("schema_version".into(), Json::Int(1)),
            ("window_len".into(), Json::uint(self.window_len)),
            ("window_count".into(), Json::uint(self.windows.len() as u64)),
            ("windows".into(), Json::Array(windows)),
        ])
    }

    /// Serialized [`Timeline::to_json`] — the exact bytes of a
    /// `TIMELINE.json` artifact.
    #[must_use]
    pub fn to_json_string(&self) -> String {
        self.to_json().pretty()
    }

    /// A fixed-width text table of the closed windows (the body of
    /// `ibaqos timeline`): per window, the tick range and the
    /// headline per-window rates.
    #[must_use]
    pub fn render_table(&self) -> String {
        let mut out = format!(
            "timeline: windows={} window_len={} schema={}\n",
            self.windows.len(),
            self.window_len,
            TIMELINE_SCHEMA
        );
        if self.windows.is_empty() {
            out.push_str("  (no closed windows)\n");
            return out;
        }
        out.push_str(&format!(
            "  {:>6} {:>10} {:>10} {:>8} {:>8} {:>10} {:>7} {:>7}\n",
            "window", "start", "end", "events", "grants", "bytes", "admits", "rejects"
        ));
        for (idx, m) in &self.windows {
            let grants: u64 = m.arb_grant.0.iter().map(|c| c.get()).sum();
            let bytes: u64 = m.arb_bytes.0.iter().map(|c| c.get()).sum();
            let admits: u64 = m.cac_admit.0.iter().map(|c| c.get()).sum();
            let rejects: u64 = m.cac_reject.iter().map(|c| c.get()).sum();
            out.push_str(&format!(
                "  {:>6} {:>10} {:>10} {:>8} {:>8} {:>10} {:>7} {:>7}\n",
                idx,
                idx * self.window_len,
                (idx + 1) * self.window_len - 1,
                m.sim_events.get(),
                grants,
                bytes,
                admits,
                rejects
            ));
        }
        out
    }
}

impl Default for Timeline {
    fn default() -> Self {
        Timeline::new(DEFAULT_WINDOW_LEN)
    }
}

fn sample_json(s: &Sample) -> Json {
    let mut fields = vec![("name".to_string(), Json::str(s.name))];
    let dim = s.dim.to_string();
    if !dim.is_empty() {
        fields.push(("dim".into(), Json::str(dim)));
    }
    match s.value {
        SampleValue::Count(v) => fields.push(("value".into(), Json::uint(v))),
        SampleValue::Hist {
            count,
            sum,
            p50,
            p99,
        } => {
            fields.push(("count".into(), Json::uint(count)));
            fields.push(("sum".into(), Json::uint(sum)));
            fields.push(("p50".into(), Json::uint(p50)));
            fields.push(("p99".into(), Json::uint(p99)));
        }
    }
    Json::Object(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_delta_encode_counters() {
        let mut tl = Timeline::new(10);
        let mut m = Metrics::new();
        tl.tick(0, &mut m);
        m.sim_events.add(3);
        m.arb_bytes.lane(1).add(100);
        tl.tick(12, &mut m); // closes window 0
        m.sim_events.add(5);
        tl.tick(25, &mut m); // closes window 1
        tl.finish(&mut m); // closes window 2 (empty delta)

        assert_eq!(tl.len(), 3);
        let w0 = &tl.windows()[&0];
        assert_eq!(w0.sim_events.get(), 3);
        assert_eq!(w0.arb_bytes.0[1].get(), 100);
        let w1 = &tl.windows()[&1];
        assert_eq!(w1.sim_events.get(), 5);
        assert_eq!(w1.arb_bytes.0[1].get(), 0);
        let w2 = &tl.windows()[&2];
        assert_eq!(w2.sim_events.get(), 0);
        // Cumulative registry counts every close; no window delta does.
        assert_eq!(m.timeline_windows.get(), 3);
        for w in tl.windows().values() {
            assert_eq!(w.timeline_windows.get(), 0);
        }
    }

    #[test]
    fn finish_is_idempotent_and_backwards_time_is_ignored() {
        let mut tl = Timeline::new(10);
        let mut m = Metrics::new();
        tl.tick(35, &mut m); // first tick far from zero: sparse start
        m.sim_events.incr();
        tl.tick(5, &mut m); // backwards: ignored
        tl.finish(&mut m);
        tl.finish(&mut m); // no open window: no-op
        assert_eq!(tl.len(), 1);
        assert!(tl.windows().contains_key(&3));
        assert_eq!(m.timeline_windows.get(), 1);
    }

    #[test]
    fn merge_is_window_wise_and_commutative() {
        let build = |skip: bool| {
            let mut tl = Timeline::new(10);
            let mut m = Metrics::new();
            tl.tick(0, &mut m);
            m.sim_events.add(if skip { 7 } else { 2 });
            tl.tick(11, &mut m);
            if !skip {
                m.cac_release.add(4);
                tl.tick(21, &mut m);
            }
            tl.finish(&mut m);
            tl
        };
        let a = build(false);
        let b = build(true);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.to_json_string(), ba.to_json_string());
        assert_eq!(ab.windows()[&0].sim_events.get(), 9);
        assert_eq!(ab.windows()[&1].cac_release.get(), 4);
    }

    #[test]
    fn json_document_carries_schema_and_ranges() {
        let mut tl = Timeline::new(8);
        let mut m = Metrics::new();
        tl.tick(0, &mut m);
        m.alloc_probe.incr();
        m.alloc_probe_depth.observe(3);
        tl.tick(9, &mut m);
        tl.finish(&mut m);

        let doc = tl.to_json_string();
        let parsed = Json::parse(&doc).expect("own output parses");
        assert_eq!(parsed.get("schema"), Some(&Json::str(TIMELINE_SCHEMA)));
        assert_eq!(parsed.get("window_len").and_then(Json::as_f64), Some(8.0));
        assert_eq!(parsed.get("window_count").and_then(Json::as_f64), Some(2.0));
        let windows = match parsed.get("windows") {
            Some(Json::Array(w)) => w,
            other => panic!("windows not an array: {other:?}"),
        };
        assert_eq!(windows[0].get("start").and_then(Json::as_f64), Some(0.0));
        assert_eq!(windows[0].get("end").and_then(Json::as_f64), Some(7.0));
        // The histogram sample serializes count/sum/p50/p99 fields.
        assert!(doc.contains("\"name\": \"alloc_probe_depth\""));
        assert!(doc.contains("\"p99\": "));
    }

    #[test]
    fn table_lists_each_window_once() {
        let mut tl = Timeline::new(10);
        let mut m = Metrics::new();
        tl.tick(0, &mut m);
        m.sim_events.add(4);
        m.arb_grant.lane(2).incr();
        m.arb_bytes.lane(2).add(512);
        tl.tick(15, &mut m);
        tl.finish(&mut m);
        let table = tl.render_table();
        assert!(table.starts_with("timeline: windows=2 window_len=10"));
        assert_eq!(table.lines().count(), 4); // header + columns + 2 rows
        assert!(table.contains("512"));
        // An empty timeline renders a placeholder, not a bare header.
        assert!(Timeline::new(5)
            .render_table()
            .contains("no closed windows"));
    }
}
