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

/// Running totals of a delay distribution, beside its threshold counts.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct Tally {
    total: u64,
    /// Packets that missed even the deadline itself.
    missed: u64,
    max_ratio: f64,
}

impl Tally {
    /// Scores one packet with end-to-end `delay` against `deadline`
    /// into `counts` (one per threshold) and the totals. The one
    /// definition of a packet's score, so [`DelayDistribution`] and
    /// [`DelayCounts`] agree bit for bit.
    fn score(&mut self, thresholds: &[f64], counts: &mut [u64], delay: u64, deadline: u64) {
        assert!(deadline > 0);
        let ratio = delay as f64 / deadline as f64;
        self.total += 1;
        self.max_ratio = self.max_ratio.max(ratio);
        if ratio > 1.0 {
            self.missed += 1;
        }
        for (c, &t) in counts.iter_mut().zip(thresholds) {
            if ratio <= t {
                *c += 1;
            }
        }
    }
}

/// Accumulated delay distribution of one group (an SL, or a single
/// connection).
#[derive(Clone, Debug)]
pub struct DelayDistribution {
    thresholds: Vec<f64>,
    /// `counts[i]` = packets with `delay <= thresholds[i] * deadline`.
    counts: Vec<u64>,
    tally: Tally,
}

impl DelayDistribution {
    /// New distribution sampled at `thresholds` (fractions of deadline,
    /// ascending).
    #[must_use]
    pub fn new(thresholds: &[f64]) -> Self {
        assert!(!thresholds.is_empty());
        assert!(
            thresholds.windows(2).all(|w| w[0] < w[1]),
            "thresholds must ascend"
        );
        DelayDistribution {
            thresholds: thresholds.to_vec(),
            counts: vec![0; thresholds.len()],
            tally: Tally::default(),
        }
    }

    /// Records one packet with end-to-end `delay` against its
    /// connection's `deadline` (both in cycles).
    pub fn record(&mut self, delay: u64, deadline: u64) {
        self.tally
            .score(&self.thresholds, &mut self.counts, delay, deadline);
    }

    /// The sampled thresholds.
    #[must_use]
    pub fn thresholds(&self) -> &[f64] {
        &self.thresholds
    }

    /// Packets recorded.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.tally.total
    }

    /// Packets that exceeded their deadline.
    #[must_use]
    pub fn missed(&self) -> u64 {
        self.tally.missed
    }

    /// Largest observed `delay / deadline` ratio.
    #[must_use]
    pub fn max_ratio(&self) -> f64 {
        self.tally.max_ratio
    }

    /// The CDF: percentage of packets received before each threshold.
    #[must_use]
    pub fn percentages(&self) -> Vec<f64> {
        self.counts
            .iter()
            .map(|&c| {
                if self.tally.total == 0 {
                    0.0
                } else {
                    100.0 * c as f64 / self.tally.total as f64
                }
            })
            .collect()
    }

    /// Percentage of packets that met the deadline (threshold 1.0).
    #[must_use]
    pub fn met_deadline_pct(&self) -> f64 {
        let Tally { total, missed, .. } = self.tally;
        if total == 0 {
            return 100.0;
        }
        100.0 * (total - missed) as f64 / total as f64
    }

    /// Merges another distribution with identical thresholds.
    pub fn merge(&mut self, other: &DelayDistribution) {
        assert_eq!(self.thresholds, other.thresholds);
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.tally.total += other.tally.total;
        self.tally.missed += other.tally.missed;
        self.tally.max_ratio = self.tally.max_ratio.max(other.tally.max_ratio);
    }
}

/// One group's delay distribution at [`DEFAULT_THRESHOLDS`], as a flat
/// `Copy` record with no heap storage: per-connection state that lives
/// inline in a larger record. Scores packets exactly as
/// [`DelayDistribution`] does and converts to one on demand.
#[derive(Clone, Copy, Debug, Default)]
pub struct DelayCounts {
    counts: [u64; DEFAULT_THRESHOLDS.len()],
    tally: Tally,
}

impl DelayCounts {
    /// Records one packet with end-to-end `delay` against its
    /// connection's `deadline` (both in cycles).
    pub fn record(&mut self, delay: u64, deadline: u64) {
        self.tally
            .score(&DEFAULT_THRESHOLDS, &mut self.counts, delay, deadline);
    }

    /// Packets recorded.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.tally.total
    }

    /// The same counts as a [`DelayDistribution`] at
    /// [`DEFAULT_THRESHOLDS`].
    #[must_use]
    pub fn to_distribution(&self) -> DelayDistribution {
        DelayDistribution {
            thresholds: DEFAULT_THRESHOLDS.to_vec(),
            counts: self.counts.to_vec(),
            tally: self.tally,
        }
    }
}

/// Keyed collection of delay distributions (one per group id: SL index
/// or connection index).
#[derive(Clone, Debug)]
pub struct DelayCollector {
    thresholds: Vec<f64>,
    groups: Vec<Option<DelayDistribution>>,
}

impl DelayCollector {
    /// Collector sampling at the default thresholds.
    #[must_use]
    pub fn new() -> Self {
        Self::with_thresholds(&DEFAULT_THRESHOLDS)
    }

    /// Collector with custom thresholds.
    #[must_use]
    pub fn with_thresholds(thresholds: &[f64]) -> Self {
        DelayCollector {
            thresholds: thresholds.to_vec(),
            groups: Vec::new(),
        }
    }

    /// Records one packet into group `key`.
    pub fn record(&mut self, key: usize, delay: u64, deadline: u64) {
        if key >= self.groups.len() {
            self.groups.resize(key + 1, None);
        }
        self.groups[key]
            .get_or_insert_with(|| DelayDistribution::new(&self.thresholds))
            .record(delay, deadline);
    }

    /// Installs `dist` as group `key`, replacing any distribution
    /// recorded there.
    pub fn insert(&mut self, key: usize, dist: DelayDistribution) {
        assert_eq!(dist.thresholds, self.thresholds, "threshold mismatch");
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

    /// The group keys with the lowest and the highest percentage of
    /// packets meeting `threshold_idx` — the paper's *worst* and *best*
    /// connections of Figure 6. Ties break to the lower key.
    #[must_use]
    pub fn worst_and_best(&self, threshold_idx: usize) -> Option<(usize, usize)> {
        let mut worst: Option<(usize, f64)> = None;
        let mut best: Option<(usize, f64)> = None;
        for (k, g) in self.groups() {
            let pct = g.percentages()[threshold_idx];
            if worst.is_none_or(|(_, w)| pct < w) {
                worst = Some((k, pct));
            }
            if best.is_none_or(|(_, b)| pct > b) {
                best = Some((k, pct));
            }
        }
        Some((worst?.0, best?.0))
    }
}

impl Default for DelayCollector {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_is_monotone_and_complete() {
        let mut d = DelayDistribution::new(&DEFAULT_THRESHOLDS);
        // Deadline 1000; delays spread from tight to exactly on time.
        for delay in [10, 50, 100, 200, 500, 750, 999, 1000] {
            d.record(delay, 1000);
        }
        let pct = d.percentages();
        assert!(pct.windows(2).all(|w| w[0] <= w[1]), "CDF not monotone");
        assert_eq!(*pct.last().unwrap(), 100.0);
        assert_eq!(d.missed(), 0);
        assert_eq!(d.met_deadline_pct(), 100.0);
    }

    #[test]
    fn missed_deadlines_counted() {
        let mut d = DelayDistribution::new(&[0.5, 1.0]);
        d.record(400, 1000);
        d.record(1200, 1000);
        assert_eq!(d.total(), 2);
        assert_eq!(d.missed(), 1);
        assert_eq!(d.met_deadline_pct(), 50.0);
        assert!(d.max_ratio() > 1.19 && d.max_ratio() < 1.21);
        assert_eq!(d.percentages(), vec![50.0, 50.0]);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = DelayDistribution::new(&[1.0]);
        let mut b = DelayDistribution::new(&[1.0]);
        a.record(10, 100);
        b.record(200, 100);
        a.merge(&b);
        assert_eq!(a.total(), 2);
        assert_eq!(a.missed(), 1);
    }

    #[test]
    fn collector_groups_and_extremes() {
        let mut c = DelayCollector::with_thresholds(&[0.5, 1.0]);
        // Group 0: all tight. Group 1: half loose. Group 2: all loose.
        for _ in 0..10 {
            c.record(0, 10, 100);
            c.record(2, 90, 100);
        }
        for i in 0..10 {
            c.record(1, if i % 2 == 0 { 10 } else { 90 }, 100);
        }
        assert_eq!(c.group(0).unwrap().percentages()[0], 100.0);
        assert_eq!(c.group(2).unwrap().percentages()[0], 0.0);
        let (worst, best) = c.worst_and_best(0).unwrap();
        assert_eq!(worst, 2);
        assert_eq!(best, 0);
        assert!(c.group(3).is_none());
        assert_eq!(c.groups().count(), 3);
    }

    #[test]
    fn flat_counts_match_the_distribution() {
        let mut flat = DelayCounts::default();
        let mut dist = DelayDistribution::new(&DEFAULT_THRESHOLDS);
        for (delay, deadline) in [(1, 30), (7, 100), (33, 100), (100, 100), (3, 2), (0, 9)] {
            flat.record(delay, deadline);
            dist.record(delay, deadline);
        }
        let back = flat.to_distribution();
        assert_eq!(flat.total(), 6);
        assert_eq!(back.counts, dist.counts);
        assert_eq!(back.tally, dist.tally);
        let mut c = DelayCollector::new();
        c.insert(4, back);
        assert_eq!(c.group(4).unwrap().missed(), 1);
        assert_eq!(c.groups().count(), 1);
    }

    #[test]
    #[should_panic(expected = "ascend")]
    fn thresholds_must_ascend() {
        let _ = DelayDistribution::new(&[0.5, 0.5]);
    }
}
