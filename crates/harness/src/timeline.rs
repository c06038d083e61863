//! The timeline drive: runs a seed sweep of the paper pipeline with a
//! windowed [`iba_obs::Timeline`] attached to every run and merges the
//! per-run timelines in item order.
//!
//! Each run gets a **fresh** recorder of its own, not the per-worker
//! one [`run_sweep`] hands out (this drive ignores that one): run
//! clocks all start at cycle 0, so their windows overlay on the same
//! absolute indices and the item-order merge makes `TIMELINE.json`
//! byte-identical at any `IBA_THREADS` — the invariance CI checks with
//! `cmp`.

use crate::engine::run_sweep;
use crate::sweep::{run_point_recorded, PointOutcome, SimPoint};
use iba_obs::{ObsRecorder, Timeline};

/// Parameters of one timeline sweep.
#[derive(Clone, Copy, Debug)]
pub struct TimelineConfig {
    /// Switches in each run's irregular fabric.
    pub switches: usize,
    /// Packet size in bytes.
    pub mtu: u32,
    /// First seed of the sweep.
    pub seed: u64,
    /// Number of seeded runs (seed, seed+1, ...).
    pub runs: u64,
    /// Steady state runs until the slowest connection emitted this
    /// many packets.
    pub steady_packets: u64,
    /// Simulator cycles per timeline window.
    pub window_len: u64,
}

impl TimelineConfig {
    /// A timeline sweep over `runs` seeds starting at `seed`.
    #[must_use]
    pub fn new(switches: usize, seed: u64, runs: u64, window_len: u64) -> Self {
        TimelineConfig {
            switches: switches.max(2),
            mtu: 4096,
            seed,
            runs: runs.max(1),
            steady_packets: 8,
            window_len: window_len.max(1),
        }
    }
}

/// Everything one timeline sweep produced.
#[derive(Debug)]
pub struct TimelineOutcome {
    /// The sweep that was run.
    pub config: TimelineConfig,
    /// Per-run outcomes, in seed order.
    pub outcomes: Vec<PointOutcome>,
    /// The merged recorder: cumulative metrics plus the merged
    /// timeline (every run's windows, overlaid by absolute index).
    pub recorder: ObsRecorder,
}

impl TimelineOutcome {
    /// The merged timeline (always present — the drive installs one).
    #[must_use]
    pub fn timeline(&self) -> &Timeline {
        self.recorder
            .timeline
            .as_ref()
            .expect("timeline drive always installs a timeline")
    }

    /// The `TIMELINE.json` document (see `iba_obs::timeline`).
    #[must_use]
    pub fn to_json_string(&self) -> String {
        self.timeline().to_json_string()
    }

    /// The human-readable report: sweep header, per-window table,
    /// per-run outcome lines.
    #[must_use]
    pub fn render(&self) -> String {
        let c = &self.config;
        let mut out = format!(
            "timeline sweep: switches={} mtu={} seed={} runs={}\n",
            c.switches, c.mtu, c.seed, c.runs
        );
        out.push_str(&self.timeline().render_table());
        out.push_str("runs:\n");
        for o in &self.outcomes {
            out.push_str(&format!("  {}\n", o.render()));
        }
        out
    }
}

/// Runs the timeline sweep across `threads` workers.
#[must_use]
pub fn run_timeline(config: &TimelineConfig, threads: usize) -> TimelineOutcome {
    let points: Vec<SimPoint> = (0..config.runs)
        .map(|i| SimPoint {
            switches: config.switches,
            seed: config.seed + i,
            mtu: config.mtu,
            background: false,
            steady_packets: config.steady_packets,
            reject_limit: 120,
        })
        .collect();
    let (results, _) = run_sweep(&points, threads, ObsRecorder::new, |_, p, _| {
        let mut rec = ObsRecorder::with_timeline(config.window_len);
        let out = run_point_recorded(p, &mut rec);
        rec.finish_timeline();
        (out, rec)
    });
    let mut merged = ObsRecorder::with_timeline(config.window_len);
    let mut outcomes = Vec::with_capacity(results.len());
    for (out, rec) in &results {
        merged.merge(rec);
        outcomes.push(*out);
    }
    TimelineOutcome {
        config: *config,
        outcomes,
        recorder: merged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_json_is_thread_count_invariant() {
        let config = TimelineConfig {
            switches: 4,
            mtu: 4096,
            seed: 11,
            runs: 4,
            steady_packets: 2,
            window_len: 4096,
        };
        let reference = run_timeline(&config, 1);
        let json = reference.to_json_string();
        assert!(json.contains("iba.timeline.v1"));
        assert!(
            reference.timeline().len() > 1,
            "sweep spans several windows"
        );
        for threads in [2usize, 8] {
            let got = run_timeline(&config, threads);
            assert_eq!(
                json,
                got.to_json_string(),
                "TIMELINE.json diverged at {threads} threads"
            );
            assert_eq!(reference.render(), got.render());
        }
    }

    #[test]
    fn windows_sum_back_to_the_cumulative_registry() {
        let config = TimelineConfig {
            switches: 4,
            mtu: 4096,
            seed: 3,
            runs: 2,
            steady_packets: 2,
            window_len: 2048,
        };
        let out = run_timeline(&config, 2);
        let windowed: u64 = out
            .timeline()
            .windows()
            .values()
            .map(|m| m.sim_events.get())
            .sum();
        assert_eq!(windowed, out.recorder.metrics.sim_events.get());
        // The counter sums windows closed across runs; the merged
        // timeline overlays runs on shared absolute indices, so it
        // holds at most that many distinct windows.
        assert!(out.recorder.metrics.timeline_windows.get() >= out.timeline().len() as u64);
        assert!(!out.timeline().is_empty());
    }

    #[test]
    fn steady_window_service_fractions_match_wrr_closed_form() {
        // The analytical cross-check (arXiv 2108.09534), taken per
        // timeline window: a saturated WRR stream serves VL i exactly
        // w_i/Σw of the bytes over any whole number of rounds. Size the
        // window to a whole number of rounds and every closed window's
        // per-VL byte share must equal the closed form exactly.
        use iba_core::{ArbEntry, CompiledVlArb, VirtualLane, VlArbConfig};
        use iba_obs::{Recorder, ServedKind};

        let entry = |vl: u8, weight: u8| ArbEntry {
            vl: VirtualLane::data(vl),
            weight,
        };
        let mut arb = CompiledVlArb::new(VlArbConfig {
            high: vec![entry(0, 5), entry(1, 1), entry(2, 3), entry(0, 2)],
            low: vec![],
            limit_of_high_priority: 255,
        });
        let stream = arb.high_stream().clone();
        let total = stream.total_units();
        assert_eq!(total, 11);

        // 4 whole rounds per window, 12 windows: one grant (64 bytes,
        // one weight unit) per tick keeps windows round-aligned.
        let rounds_per_window = 4;
        let window_len = rounds_per_window * total;
        let mut rec = ObsRecorder::with_timeline(window_len);
        let bytes = [64u64; 16];
        for t in 0..window_len * 12 {
            rec.tick(t);
            let g = arb.select(0xFFFF, &bytes).expect("saturated stream grants");
            rec.arb_grant(g.vl.raw(), g.bytes, ServedKind::High);
        }
        rec.finish_timeline();

        let tl = rec.timeline.as_ref().unwrap();
        assert_eq!(tl.len(), 12);
        // Skip the trailing window only if it were partial — here every
        // window holds exactly `rounds_per_window` rounds, so all 12
        // are steady state; check them all.
        for (idx, w) in tl.windows() {
            let window_bytes: u64 = (0..16).map(|v| w.arb_bytes.0[v].get()).sum();
            assert_eq!(window_bytes, window_len * 64, "window {idx} not saturated");
            for v in 0..16u8 {
                let measured = w.arb_bytes.0[v as usize].get() as f64 / window_bytes as f64;
                let predicted = stream.service_fraction(VirtualLane::new(v).unwrap());
                assert!(
                    (measured - predicted).abs() < 1e-12,
                    "window {idx} VL{v}: measured {measured} != closed form {predicted}"
                );
            }
        }
    }
}
