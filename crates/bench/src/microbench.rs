//! A dependency-free micro-benchmark harness (the workspace builds
//! offline, so the usual external harnesses are unavailable).
//!
//! The protocol mirrors the classic warmup/sample design: each
//! benchmark is warmed up, the per-sample iteration count is calibrated
//! so one sample takes at least `MIN_SAMPLE` (2 ms), and then a fixed number
//! of samples is timed. The report shows the minimum (least-noise
//! estimate), median and mean nanoseconds per iteration.
//!
//! Knobs: `IBA_BENCH_SAMPLES` (default 20) and `IBA_BENCH_FILTER`
//! (substring match on benchmark names, like `cargo bench -- <filter>`
//! which is also honoured via argv).

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Target minimum wall-clock time of one timed sample.
const MIN_SAMPLE: Duration = Duration::from_millis(2);

/// Warmup budget before calibration.
const WARMUP: Duration = Duration::from_millis(200);

/// One timed benchmark's summary statistics.
#[derive(Clone, Debug)]
pub struct Summary {
    /// Benchmark name as printed.
    pub name: String,
    /// Fastest observed sample (ns/iter).
    pub min_ns: f64,
    /// Median sample (ns/iter).
    pub median_ns: f64,
    /// Mean over all samples (ns/iter).
    pub mean_ns: f64,
    /// 50th-percentile sample (ns/iter); equals `median_ns`.
    pub p50_ns: f64,
    /// 99th-percentile sample (ns/iter, nearest-rank).
    pub p99_ns: f64,
    /// Iterations per sample after calibration.
    pub iters_per_sample: u64,
}

/// Nearest-rank percentile of an **ascending-sorted** slice; `0.0` for
/// an empty slice (so degenerate zero-sample runs report gracefully
/// instead of panicking).
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Collects and prints benchmark results; construct one per binary via
/// [`Harness::from_env`] and call [`Harness::bench`] per case.
pub struct Harness {
    filter: Option<String>,
    samples: usize,
    results: Vec<Summary>,
}

impl Harness {
    /// Builds a harness honouring `IBA_BENCH_SAMPLES`, `IBA_BENCH_FILTER`
    /// and a trailing argv filter (`cargo bench --bench alloc -- defrag`).
    pub fn from_env() -> Self {
        let argv_filter = std::env::args()
            .skip(1)
            .find(|a| !a.starts_with('-') && a != "--bench");
        let filter = std::env::var("IBA_BENCH_FILTER").ok().or(argv_filter);
        let samples = std::env::var("IBA_BENCH_SAMPLES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(20usize)
            .max(3);
        Harness {
            filter,
            samples,
            results: Vec::new(),
        }
    }

    /// Times `f`, printing one line. The closure's return value is fed
    /// through [`black_box`] so the measured work is not optimised away.
    pub fn bench<T, F: FnMut() -> T>(&mut self, name: &str, mut f: F) {
        if let Some(ref needle) = self.filter {
            if !name.contains(needle.as_str()) {
                return;
            }
        }

        // Warmup.
        let start = Instant::now();
        while start.elapsed() < WARMUP {
            black_box(f());
        }

        // Calibrate: grow the per-sample iteration count until one
        // sample crosses MIN_SAMPLE.
        let mut iters: u64 = 1;
        loop {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let elapsed = t.elapsed();
            if elapsed >= MIN_SAMPLE || iters >= 1 << 30 {
                break;
            }
            // Aim slightly past the target to converge in few rounds.
            let scale = MIN_SAMPLE.as_secs_f64() / elapsed.as_secs_f64().max(1e-9);
            iters = (iters as f64 * scale * 1.5).ceil() as u64;
        }

        let mut per_iter: Vec<f64> = (0..self.samples)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..iters {
                    black_box(f());
                }
                t.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect();
        per_iter.sort_by(|a, b| a.total_cmp(b));

        let min_ns = per_iter[0];
        let median_ns = per_iter[per_iter.len() / 2];
        let mean_ns = per_iter.iter().sum::<f64>() / per_iter.len() as f64;
        let summary = Summary {
            name: name.to_string(),
            min_ns,
            median_ns,
            mean_ns,
            p50_ns: percentile(&per_iter, 0.50),
            p99_ns: percentile(&per_iter, 0.99),
            iters_per_sample: iters,
        };
        println!(
            "{:<48} min {:>12}  median {:>12}  mean {:>12}  ({} iters/sample x {})",
            summary.name,
            fmt_ns(min_ns),
            fmt_ns(median_ns),
            fmt_ns(mean_ns),
            iters,
            self.samples,
        );
        self.results.push(summary);
    }

    /// Finished results, in execution order.
    pub fn results(&self) -> &[Summary] {
        &self.results
    }

    /// Prints the closing line; call at the end of `main`.
    pub fn finish(self) {
        println!("-- {} benchmark(s) run", self.results.len());
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} us", ns / 1_000.0)
    } else {
        format!("{:.3} ms", ns / 1_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_measures_and_filters() {
        let mut h = Harness {
            filter: Some("keep".to_string()),
            samples: 3,
            results: Vec::new(),
        };
        let mut acc = 0u64;
        h.bench("keep/this", || {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            acc
        });
        h.bench("skip/this", || 0u64);
        assert_eq!(h.results().len(), 1);
        let s = &h.results()[0];
        assert_eq!(s.name, "keep/this");
        assert!(s.min_ns > 0.0 && s.min_ns <= s.mean_ns * 1.0001);
        assert!(s.p50_ns >= s.min_ns && s.p99_ns >= s.p50_ns);
        assert!(s.iters_per_sample >= 1);
    }

    #[test]
    fn percentile_is_nearest_rank_and_total() {
        assert_eq!(percentile(&[], 0.99), 0.0, "empty slice must not panic");
        let one = [7.5];
        assert_eq!(percentile(&one, 0.0), 7.5);
        assert_eq!(percentile(&one, 0.99), 7.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        // rank = round(0.5 * 99) = 50 -> the 51st value.
        assert_eq!(percentile(&v, 0.50), 51.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
    }
}
