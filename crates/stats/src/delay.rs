//! Delay-vs-deadline distributions (the paper's Figures 4 and 6).
//!
//! Each connection has its own guaranteed maximum deadline `D`; the
//! figures plot, per service level, the percentage of packets received
//! before a *threshold* expressed as a fraction of `D` — i.e. the CDF
//! of `delay / D` sampled at a fixed set of fractions.

/// The threshold fractions of the deadline at which the CDF is sampled
/// (from very tight, `D/30`, to the deadline itself — matching the
/// paper's log-style threshold axis `D/30 … D/10 … D`).
pub const DEFAULT_THRESHOLDS: [f64; 8] = [
    1.0 / 30.0,
    1.0 / 20.0,
    1.0 / 10.0,
    1.0 / 5.0,
    1.0 / 3.0,
    1.0 / 2.0,
    3.0 / 4.0,
    1.0,
];

/// Accumulated delay distribution of one group (an SL, or a single
/// connection), sampled at [`DEFAULT_THRESHOLDS`]. A flat `Copy` record
/// with no heap storage, so per-connection distributions live inline
/// in a larger record.
#[derive(Clone, Copy, Debug, Default)]
pub struct DelayDistribution {
    /// `counts[i]` = packets with `delay <= DEFAULT_THRESHOLDS[i] * deadline`.
    counts: [u64; DEFAULT_THRESHOLDS.len()],
    total: u64,
    /// Packets that missed even the deadline itself.
    missed: u64,
    max_ratio: f64,
}

impl DelayDistribution {
    /// Records one packet with end-to-end `delay` against its
    /// connection's `deadline` (both in cycles).
    pub fn record(&mut self, delay: u64, deadline: u64) {
        assert!(deadline > 0);
        let ratio = delay as f64 / deadline as f64;
        self.total += 1;
        self.max_ratio = self.max_ratio.max(ratio);
        if ratio > 1.0 {
            self.missed += 1;
        }
        for (c, &t) in self.counts.iter_mut().zip(&DEFAULT_THRESHOLDS) {
            if ratio <= t {
                *c += 1;
            }
        }
    }

    /// Packets recorded.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Packets that exceeded their deadline.
    #[must_use]
    pub fn missed(&self) -> u64 {
        self.missed
    }

    /// Largest observed `delay / deadline` ratio.
    #[must_use]
    pub fn max_ratio(&self) -> f64 {
        self.max_ratio
    }

    /// The CDF: percentage of packets received before each threshold.
    #[must_use]
    pub fn percentages(&self) -> [f64; DEFAULT_THRESHOLDS.len()] {
        self.counts.map(|c| {
            if self.total == 0 {
                0.0
            } else {
                100.0 * c as f64 / self.total as f64
            }
        })
    }

    /// Merges another distribution.
    pub fn merge(&mut self, other: &DelayDistribution) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.missed += other.missed;
        self.max_ratio = self.max_ratio.max(other.max_ratio);
    }
}

/// Keyed collection of delay distributions (one per group id: SL index
/// or connection index).
#[derive(Clone, Debug, Default)]
pub struct DelayCollector {
    groups: Vec<Option<DelayDistribution>>,
}

impl DelayCollector {
    /// Empty collector.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one packet into group `key`.
    pub fn record(&mut self, key: usize, delay: u64, deadline: u64) {
        if key >= self.groups.len() {
            self.groups.resize(key + 1, None);
        }
        self.groups[key]
            .get_or_insert_with(DelayDistribution::default)
            .record(delay, deadline);
    }

    /// Installs `dist` as group `key`, replacing any distribution
    /// recorded there.
    pub fn insert(&mut self, key: usize, dist: DelayDistribution) {
        if key >= self.groups.len() {
            self.groups.resize(key + 1, None);
        }
        self.groups[key] = Some(dist);
    }

    /// The distribution of a group, if any packets were recorded.
    #[must_use]
    pub fn group(&self, key: usize) -> Option<&DelayDistribution> {
        self.groups.get(key).and_then(Option::as_ref)
    }

    /// All populated `(key, distribution)` pairs.
    pub fn groups(&self) -> impl Iterator<Item = (usize, &DelayDistribution)> {
        self.groups
            .iter()
            .enumerate()
            .filter_map(|(k, g)| g.as_ref().map(|g| (k, g)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_is_monotone_and_complete() {
        let mut d = DelayDistribution::default();
        // Deadline 1000; delays spread from tight to exactly on time.
        for delay in [10, 50, 100, 200, 500, 750, 999, 1000] {
            d.record(delay, 1000);
        }
        let pct = d.percentages();
        assert!(pct.windows(2).all(|w| w[0] <= w[1]), "CDF not monotone");
        assert_eq!(pct[pct.len() - 1], 100.0);
        assert_eq!(d.missed(), 0);
    }

    #[test]
    fn missed_deadlines_counted() {
        let mut d = DelayDistribution::default();
        d.record(400, 1000);
        d.record(1200, 1000);
        assert_eq!(d.total(), 2);
        assert_eq!(d.missed(), 1);
        assert!(d.max_ratio() > 1.19 && d.max_ratio() < 1.21);
        // 0.4 of the deadline meets D/2, 3D/4 and D; the late packet none.
        assert_eq!(d.percentages(), [0.0, 0.0, 0.0, 0.0, 0.0, 50.0, 50.0, 50.0]);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = DelayDistribution::default();
        let mut b = DelayDistribution::default();
        a.record(10, 100);
        b.record(200, 100);
        a.merge(&b);
        assert_eq!(a.total(), 2);
        assert_eq!(a.missed(), 1);
    }

    #[test]
    fn collector_groups_and_extremes() {
        // Threshold 5 is D/2.
        let half = DEFAULT_THRESHOLDS.iter().position(|&t| t == 0.5).unwrap();
        let mut c = DelayCollector::new();
        // Group 0: all tight. Group 1: half loose. Group 2: all loose.
        for _ in 0..10 {
            c.record(0, 10, 100);
            c.record(2, 90, 100);
        }
        for i in 0..10 {
            c.record(1, if i % 2 == 0 { 10 } else { 90 }, 100);
        }
        assert_eq!(c.group(0).unwrap().percentages()[half], 100.0);
        assert_eq!(c.group(2).unwrap().percentages()[half], 0.0);
        assert_eq!(c.group(1).unwrap().percentages()[half], 50.0);
        assert!(c.group(3).is_none());
        assert_eq!(c.groups().count(), 3);
    }

    #[test]
    fn inserted_distribution_replaces_the_group() {
        let mut d = DelayDistribution::default();
        for (delay, deadline) in [(1, 30), (7, 100), (33, 100), (100, 100), (3, 2), (0, 9)] {
            d.record(delay, deadline);
        }
        let mut c = DelayCollector::new();
        c.record(4, 1, 10);
        c.insert(4, d);
        let got = c.group(4).unwrap();
        assert_eq!((got.total(), got.missed()), (6, 1));
        assert_eq!(got.percentages(), d.percentages());
        assert_eq!(c.groups().count(), 1);
    }
}
