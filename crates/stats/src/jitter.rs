//! Interarrival jitter histograms (the paper's Figure 5).
//!
//! For each connection the deviation of every interarrival gap from the
//! nominal interarrival time (IAT) is binned into intervals expressed in
//! fractions of the IAT: `… [-IAT/4, -IAT/8), [-IAT/8, +IAT/8], (+IAT/8,
//! +IAT/4] …` with open-ended bins beyond ±IAT.

/// Bin edges in fractions of the IAT (symmetric around zero); the bins
/// are: `<= -1`, `(-1, -3/4]`, `(-3/4, -1/2]`, `(-1/2, -1/4]`,
/// `(-1/4, -1/8]`, `(-1/8, +1/8)` (the central bin), `[+1/8, +1/4)`,
/// `[+1/4, +1/2)`, `[+1/2, +3/4)`, `[+3/4, +1)`, `>= +1`.
pub const JITTER_EDGES: [f64; 10] = [
    -1.0, -0.75, -0.5, -0.25, -0.125, 0.125, 0.25, 0.5, 0.75, 1.0,
];

/// Human-readable labels for the 11 bins.
pub const JITTER_BIN_LABELS: [&str; 11] = [
    "<=-IAT",
    "-3IAT/4",
    "-IAT/2",
    "-IAT/4",
    "-IAT/8",
    "[-IAT/8,+IAT/8]",
    "+IAT/8",
    "+IAT/4",
    "+IAT/2",
    "+3IAT/4",
    ">=+IAT",
];

/// Number of bins.
pub const JITTER_BINS: usize = JITTER_EDGES.len() + 1;

/// Histogram of interarrival deviations for one group.
#[derive(Clone, Debug, Default)]
pub struct JitterHistogram {
    bins: [u64; JITTER_BINS],
    total: u64,
    max_abs_dev: f64,
}

impl JitterHistogram {
    /// Records a gap of `gap` cycles against a nominal `iat`.
    pub fn record(&mut self, gap: u64, iat: u64) {
        assert!(iat > 0);
        let dev = (gap as f64 - iat as f64) / iat as f64;
        self.max_abs_dev = self.max_abs_dev.max(dev.abs());
        let mut bin = JITTER_BINS - 1;
        for (i, &e) in JITTER_EDGES.iter().enumerate() {
            if dev < e || (dev == e && e <= 0.0) {
                bin = i;
                break;
            }
        }
        self.bins[bin] += 1;
        self.total += 1;
    }

    /// Samples recorded.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Largest |deviation| / IAT seen.
    #[must_use]
    pub fn max_abs_deviation(&self) -> f64 {
        self.max_abs_dev
    }

    /// Percentage of samples per bin.
    #[must_use]
    pub fn percentages(&self) -> [f64; JITTER_BINS] {
        let mut out = [0.0; JITTER_BINS];
        if self.total == 0 {
            return out;
        }
        for (o, &b) in out.iter_mut().zip(&self.bins) {
            *o = 100.0 * b as f64 / self.total as f64;
        }
        out
    }

    /// Percentage in the central `[-IAT/8, +IAT/8]` bin.
    #[must_use]
    pub fn central_pct(&self) -> f64 {
        self.percentages()[JITTER_BINS / 2]
    }

    /// Whether any sample fell in the open-ended bins beyond ±IAT.
    #[must_use]
    pub fn exceeded_iat(&self) -> bool {
        self.bins[0] > 0 || self.bins[JITTER_BINS - 1] > 0
    }

    /// Merges another histogram.
    pub fn merge(&mut self, other: &JitterHistogram) {
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.total += other.total;
        self.max_abs_dev = self.max_abs_dev.max(other.max_abs_dev);
    }
}

/// Jitter histograms per group (e.g. per SL). The caller keeps each
/// connection's previous arrival and nominal IAT and hands over the
/// gap.
#[derive(Clone, Debug, Default)]
pub struct JitterCollector {
    /// One histogram per group.
    groups: Vec<JitterHistogram>,
}

impl JitterCollector {
    /// Empty collector.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one arrival of a connection grouped under `group`:
    /// `gap` cycles after its previous arrival, against its nominal
    /// `iat`. A first arrival (`gap == None`) opens the group without
    /// a sample.
    pub fn record(&mut self, group: usize, gap: Option<u64>, iat: u64) {
        if group >= self.groups.len() {
            self.groups.resize(group + 1, JitterHistogram::default());
        }
        if let Some(gap) = gap {
            self.groups[group].record(gap, iat);
        }
    }

    /// The histogram of a group.
    #[must_use]
    pub fn group(&self, group: usize) -> Option<&JitterHistogram> {
        self.groups.get(group)
    }

    /// All `(group, histogram)` pairs with samples.
    pub fn groups(&self) -> impl Iterator<Item = (usize, &JitterHistogram)> {
        self.groups
            .iter()
            .enumerate()
            .filter(|(_, g)| g.total() > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn on_time_arrivals_land_in_centre() {
        let mut h = JitterHistogram::default();
        for gap in [1000u64, 1010, 990, 1120, 880] {
            h.record(gap, 1000); // deviations 0, ±1%, ±12%
        }
        assert_eq!(h.total(), 5);
        assert_eq!(h.central_pct(), 100.0);
        assert!(!h.exceeded_iat());
    }

    #[test]
    fn deviations_bin_correctly() {
        let mut h = JitterHistogram::default();
        h.record(2001, 1000); // dev >= +1
        h.record(0, 1000); // dev = -1 (early by a whole IAT)
        h.record(1300, 1000); // +0.3 -> [+1/4, +1/2)
        h.record(700, 1000); // -0.3 -> (-1/2, -1/4]
        let pct = h.percentages();
        assert_eq!(pct[JITTER_BINS - 1], 25.0); // >= +IAT
        assert_eq!(pct[0], 25.0); // <= -IAT
        assert_eq!(pct[7], 25.0); // +IAT/4 bin
        assert_eq!(pct[3], 25.0); // -IAT/4 bin
        assert!(h.exceeded_iat());
    }

    #[test]
    fn collector_bins_gaps_per_group() {
        let mut c = JitterCollector::new();
        // Group 0, IAT 100: gaps 100 and 105 land in the centre.
        c.record(0, None, 100);
        c.record(0, Some(100), 100);
        c.record(0, Some(105), 100);
        // Group 1, IAT 200: gap 420, dev +1.1 -> beyond +IAT.
        c.record(1, None, 200);
        c.record(1, Some(420), 200);
        assert_eq!(c.group(0).unwrap().total(), 2);
        assert_eq!(c.group(0).unwrap().central_pct(), 100.0);
        assert!(c.group(1).unwrap().exceeded_iat());
        assert_eq!(c.groups().count(), 2);
    }

    #[test]
    fn first_arrival_produces_no_sample() {
        let mut c = JitterCollector::new();
        c.record(2, None, 50);
        assert_eq!(c.group(2).map(JitterHistogram::total), Some(0));
        assert_eq!(c.groups().count(), 0);
    }

    #[test]
    fn merge_combines() {
        let mut a = JitterHistogram::default();
        let mut b = JitterHistogram::default();
        a.record(100, 100);
        b.record(300, 100);
        a.merge(&b);
        assert_eq!(a.total(), 2);
        assert!(a.exceeded_iat());
    }
}
