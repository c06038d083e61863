//! Result bookkeeping: named metrics with units, summary statistics
//! over timing samples, peak memory, and the one-line JSON result.

use std::time::Instant;

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run reports: its metrics plus the correctness
/// ledger (operations attempted, checks failed and why).
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Report {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records one correctness check; a mismatch counts as a failed
    /// operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Takes over the operations and failures of a side report.
    pub fn absorb(&mut self, other: Report) {
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
    }

    /// Keeps only the named metrics, in the given order. Panics when a
    /// name was never measured: every workload reports every metric.
    pub fn select(&mut self, names: &[&str]) {
        let mut kept = Vec::with_capacity(names.len());
        for name in names {
            let i = self.metrics.iter().position(|m| m.name == *name);
            let i = i.unwrap_or_else(|| panic!("metric {name} was not measured"));
            kept.push(self.metrics.swap_remove(i));
        }
        self.metrics = kept;
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // JSON has no NaN/inf; a degenerate value reads as 0.
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted.max(1),
            self.failures.len(),
            metrics.join(", ")
        )
    }
}

/// Nearest-rank quantile of a sample (`q` in 0..=1); 0 when empty.
pub fn quantile<T: Copy + Into<f64> + PartialOrd>(samples: &[T], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v: Vec<T> = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1].into()
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Timings of work that every round repeats identically, one piece at
/// a time. A piece's time is its fastest round: noise on a shared host
/// only ever adds time, and it comes in bursts of seconds, so a piece
/// rarely sees it in every round.
#[derive(Default)]
pub struct Pieces {
    /// Fastest time of each piece so far.
    best: Vec<u64>,
    /// Next piece of the current round.
    cursor: usize,
}

impl Pieces {
    /// Starts the next round at the first piece.
    pub fn next_round(&mut self) {
        assert!(
            self.cursor == self.best.len(),
            "every round repeats the same pieces"
        );
        self.cursor = 0;
    }

    /// Records the next piece of the current round.
    pub fn push(&mut self, ns: u64) {
        match self.best.get_mut(self.cursor) {
            Some(b) => *b = (*b).min(ns),
            None => self.best.push(ns),
        }
        self.cursor += 1;
    }

    /// Pieces per round.
    pub fn len(&self) -> usize {
        self.best.len()
    }

    /// Nanoseconds of each piece in its fastest round.
    pub fn fastest_ns(&self) -> Vec<f64> {
        self.best.iter().map(|&ns| ns as f64).collect()
    }

    /// Seconds of one round, every piece at its fastest.
    pub fn total_s(&self) -> f64 {
        self.fastest_ns().iter().sum::<f64>() * 1e-9
    }

    /// Median piece in seconds, every piece at its fastest.
    pub fn median_s(&self) -> f64 {
        median(&self.fastest_ns()) * 1e-9
    }
}

/// Rounds a run of `seconds` makes of a workload whose round takes
/// about `seconds_per_round` on the reference host. The count depends
/// on `--seconds` only, never on how fast the host is, so two builds
/// compared at the same `--seconds` take each fastest piece over the
/// same number of samples.
pub fn rounds(seconds: f64, seconds_per_round: f64) -> usize {
    ((seconds / seconds_per_round).round() as usize).max(2)
}

/// Starts a host-time measurement: the benchmark's one reading of the
/// wall clock.
#[inline]
pub fn stopwatch() -> Instant {
    // lint: allow(no-wall-clock) -- the benchmark times the program from outside; no reading enters a simulation, a digest or an output the checks compare
    Instant::now()
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Runs `f` and returns its result with its duration in nanoseconds.
#[inline]
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let t = stopwatch();
    let r = f();
    (r, t.elapsed().as_nanos() as u64)
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where the
/// kernel does not expose it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over a byte string (the table-state digest).
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
