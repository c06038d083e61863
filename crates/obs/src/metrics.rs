//! The metrics registry: counters, gauges, fixed-bucket histograms and
//! the flat [`Metrics`] struct holding every metric of the contract.
//!
//! Recording is allocation-free: every metric lives inline in
//! [`Metrics`] (per-lane metrics are fixed 16-element arrays) and every
//! update is a couple of integer operations. Reading happens through
//! [`Metrics::snapshot`], which produces an ordered list of
//! [`Sample`]s for rendering or serialization.
//!
//! Every metric is declared once, as one row of the registry table at
//! the foot of this module; the row yields the [`Metrics`] field, the
//! [`METRIC_NAMES`] entry and the field's part in the snapshot, the
//! merge and the window delta. The metrics contract (`METRICS.md`)
//! documents each name and `cargo xtask check` cross-checks the two.

/// A monotonic counter. Increments saturate at `u64::MAX` instead of
/// wrapping, so a counter can never appear to go backwards.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Adds `n`, saturating at `u64::MAX`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 = self.0.saturating_add(n);
    }

    /// Adds one, saturating at `u64::MAX`.
    #[inline]
    pub fn incr(&mut self) {
        self.add(1);
    }

    /// Current value.
    #[must_use]
    pub fn get(self) -> u64 {
        self.0
    }
}

/// A gauge: a signed value that can move both ways (e.g. live
/// connection count). Updates saturate at the `i64` limits.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Gauge(i64);

impl Gauge {
    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&mut self, v: i64) {
        self.0 = v;
    }

    /// Moves the gauge by `delta` (may be negative), saturating.
    #[inline]
    pub fn add(&mut self, delta: i64) {
        self.0 = self.0.saturating_add(delta);
    }

    /// Current value.
    #[must_use]
    pub fn get(self) -> i64 {
        self.0
    }
}

/// Number of buckets in a [`Histogram`]: one zero bucket, sixteen
/// power-of-two buckets and one overflow bucket.
pub const HISTOGRAM_BUCKETS: usize = 18;

/// A fixed-bucket histogram over `u64` values.
///
/// Bucket boundaries are powers of two: bucket 0 holds the value `0`,
/// bucket `i` (for `1 <= i <= 16`) holds values in
/// `[2^(i-1), 2^i)`, and the last bucket holds everything at or above
/// `2^16 = 65536`. This covers every quantity the workspace observes
/// (probe depths <= 32, queue depths, packet sizes) with constant
/// memory and no allocation.
#[derive(Clone, Copy, Debug)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl Histogram {
    /// The bucket a value falls into.
    #[must_use]
    pub fn bucket_index(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            (64 - v.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
        }
    }

    /// Inclusive `(lower, upper)` value bounds of bucket `i`; the last
    /// bucket's upper bound is `u64::MAX`.
    #[must_use]
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        match i {
            0 => (0, 0),
            _ if i >= HISTOGRAM_BUCKETS - 1 => (1 << (HISTOGRAM_BUCKETS - 2), u64::MAX),
            _ => (1 << (i - 1), (1 << i) - 1),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&mut self, v: u64) {
        self.buckets[Self::bucket_index(v)] += 1;
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(v);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values (saturating).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Raw bucket counts.
    #[must_use]
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }

    /// Approximate `q`-quantile (`0.0..=1.0`): the inclusive upper
    /// bound of the bucket where the cumulative count crosses
    /// `q * count`. Returns 0 for an empty histogram.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return Self::bucket_bounds(i).1;
            }
        }
        Self::bucket_bounds(HISTOGRAM_BUCKETS - 1).1
    }

    /// Mean of the observed values (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Folds `other` into `self` bucket-by-bucket. Histograms share
    /// fixed bucket boundaries, so merging is an exact, commutative and
    /// associative sum — the result is independent of merge order.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b = b.saturating_add(*o);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Removes an `earlier` cumulative reading of the **same**
    /// histogram, leaving the observations made since — the inverse of
    /// [`Histogram::merge`] for the prefix case. Subtraction saturates,
    /// so a mismatched pair degrades to empty buckets instead of
    /// wrapping.
    pub fn subtract(&mut self, earlier: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(earlier.buckets.iter()) {
            *b = b.saturating_sub(*o);
        }
        self.count = self.count.saturating_sub(earlier.count);
        self.sum = self.sum.saturating_sub(earlier.sum);
    }
}

/// Sixteen instances of a metric, indexed by lane (VL or SL).
#[derive(Clone, Copy, Debug, Default)]
pub struct PerLane<T>(pub [T; 16]);

impl<T> PerLane<T> {
    /// The metric of lane `i` (masked to 0..16, so a corrupt lane
    /// index can never panic the recorder).
    #[inline]
    pub fn lane(&mut self, i: u8) -> &mut T {
        &mut self.0[(i & 0x0F) as usize]
    }
}

/// A metric dimension attached to a [`Sample`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dim {
    /// No dimension: a scalar metric.
    None,
    /// A virtual lane (0..16).
    Vl(u8),
    /// A service level (0..16).
    Sl(u8),
    /// A rejection reason label.
    Reason(&'static str),
    /// An admission-service shard index (0..16).
    Shard(u8),
}

impl std::fmt::Display for Dim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Dim::None => Ok(()),
            Dim::Vl(v) => write!(f, "vl={v}"),
            Dim::Sl(s) => write!(f, "sl={s}"),
            Dim::Reason(r) => write!(f, "reason={r}"),
            Dim::Shard(s) => write!(f, "shard={s}"),
        }
    }
}

/// One reading in a snapshot.
#[derive(Clone, Debug)]
pub enum SampleValue {
    /// A counter or gauge reading.
    Count(u64),
    /// A histogram reading: count, sum and the two contract quantiles.
    Hist {
        /// Observations recorded.
        count: u64,
        /// Sum of observed values.
        sum: u64,
        /// Approximate median (bucket upper bound).
        p50: u64,
        /// Approximate 99th percentile (bucket upper bound).
        p99: u64,
    },
}

/// One named, dimensioned metric reading.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Contract name (one of [`METRIC_NAMES`]).
    pub name: &'static str,
    /// Dimension, if the metric has one.
    pub dim: Dim,
    /// The reading.
    pub value: SampleValue,
}

/// Rejection-reason labels, in `cac_reject_total` snapshot order.
pub const REJECT_REASONS: [&str; 4] = [
    "no_free_sequence",
    "capacity_exceeded",
    "request_too_large",
    "invalid",
];

/// How one kind of metric combines: the three rules the registry table
/// applies to every field, lane by lane.
trait Field {
    /// Folds `other` in. Counters and histograms sum (saturating),
    /// gauges take the maximum — every rule is commutative and
    /// associative, so a set of registries merges to the same result in
    /// any order.
    fn merge(&mut self, other: &Self);
    /// Removes an `earlier` cumulative reading of the same metric.
    /// Counters and histograms subtract (saturating, so a mismatched
    /// pair degrades to zero instead of wrapping); a gauge is a level
    /// reading and keeps its current value.
    fn subtract(&mut self, earlier: &Self);
    /// The snapshot reading, or `None` when there is nothing to report
    /// (a zero counter, a gauge at or below zero, an empty histogram).
    fn reading(&self) -> Option<SampleValue>;
}

impl Field for Counter {
    fn merge(&mut self, other: &Self) {
        self.add(other.0);
    }

    fn subtract(&mut self, earlier: &Self) {
        self.0 = self.0.saturating_sub(earlier.0);
    }

    fn reading(&self) -> Option<SampleValue> {
        (self.0 > 0).then_some(SampleValue::Count(self.0))
    }
}

impl Field for Gauge {
    fn merge(&mut self, other: &Self) {
        self.0 = self.0.max(other.0);
    }

    fn subtract(&mut self, _earlier: &Self) {}

    fn reading(&self) -> Option<SampleValue> {
        (self.0 > 0).then_some(SampleValue::Count(self.0 as u64))
    }
}

impl Field for Histogram {
    fn merge(&mut self, other: &Self) {
        Histogram::merge(self, other);
    }

    fn subtract(&mut self, earlier: &Self) {
        Histogram::subtract(self, earlier);
    }

    fn reading(&self) -> Option<SampleValue> {
        (self.count > 0).then(|| SampleValue::Hist {
            count: self.count,
            sum: self.sum,
            p50: self.quantile(0.50),
            p99: self.quantile(0.99),
        })
    }
}

/// A registry field seen as lanes of one [`Field`] kind: a scalar
/// metric is its own single lane, a per-lane or per-reason metric has
/// one lane per dimension value.
trait Lanes {
    type Lane: Field;
    fn lanes(&self) -> &[Self::Lane];
    fn lanes_mut(&mut self) -> &mut [Self::Lane];
}

macro_rules! scalar_lanes {
    ($($t:ty),*) => {$(
        impl Lanes for $t {
            type Lane = $t;
            fn lanes(&self) -> &[$t] {
                std::slice::from_ref(self)
            }
            fn lanes_mut(&mut self) -> &mut [$t] {
                std::slice::from_mut(self)
            }
        }
    )*};
}
scalar_lanes!(Counter, Gauge, Histogram);

impl<T: Field> Lanes for PerLane<T> {
    type Lane = T;
    fn lanes(&self) -> &[T] {
        &self.0
    }
    fn lanes_mut(&mut self) -> &mut [T] {
        &mut self.0
    }
}

impl<T: Field, const N: usize> Lanes for [T; N] {
    type Lane = T;
    fn lanes(&self) -> &[T] {
        self
    }
    fn lanes_mut(&mut self) -> &mut [T] {
        self
    }
}

// The dimension of lane `i` of a dimensioned registry row.
fn vl(i: usize) -> Dim {
    Dim::Vl(i as u8)
}
fn sl(i: usize) -> Dim {
    Dim::Sl(i as u8)
}
fn shard(i: usize) -> Dim {
    Dim::Shard(i as u8)
}
fn reason(i: usize) -> Dim {
    Dim::Reason(REJECT_REASONS[i])
}

/// Declares the registry: each row `field: Type = "name" [by dim]`
/// yields one [`Metrics`] field, one [`METRIC_NAMES`] entry and its
/// share of [`Metrics::snapshot`], [`Metrics::merge`] and
/// [`Metrics::delta_from`]. A row without `by` is a scalar (`Dim::None`).
macro_rules! registry {
    (@dim) => { (|_: usize| Dim::None) };
    (@dim $dim:ident) => { $dim };
    ($($(#[$doc:meta])* $field:ident: $ty:ty = $name:literal $(by $dim:ident)?,)*) => {
        /// Every metric name of the contract, in snapshot order. Each
        /// name must be documented in `METRICS.md` (checked by `cargo
        /// xtask check`).
        pub const METRIC_NAMES: &[&str] = &[$($name),*];

        /// The flat metrics registry: one field per contract metric.
        ///
        /// See `METRICS.md` for what each metric means, its units and
        /// which paper figure/table it validates.
        #[derive(Clone, Debug, Default)]
        pub struct Metrics {
            $($(#[$doc])* pub $field: $ty,)*
        }

        impl Metrics {
            /// All non-zero readings, in [`METRIC_NAMES`] order.
            /// Zero-valued lanes/reasons are omitted so reports stay
            /// readable; an untouched registry snapshots to an empty
            /// list.
            #[must_use]
            pub fn snapshot(&self) -> Vec<Sample> {
                let mut out = Vec::new();
                $(for (i, lane) in self.$field.lanes().iter().enumerate() {
                    if let Some(value) = lane.reading() {
                        let dim = registry!(@dim $($dim)?)(i);
                        out.push(Sample { name: $name, dim, value });
                    }
                })*
                out
            }

            /// Folds `other` into `self`.
            ///
            /// Counters and histograms merge by (saturating) sum,
            /// gauges by maximum — every combination is commutative and
            /// associative, so merging a set of per-worker registries
            /// produces the same result in **any** order. This is what
            /// makes the parallel experiment harness deterministic:
            /// however runs were sharded over threads, the merged
            /// registry is identical.
            pub fn merge(&mut self, other: &Metrics) {
                $(for (a, b) in self.$field.lanes_mut().iter_mut().zip(other.$field.lanes()) {
                    Field::merge(a, b);
                })*
            }

            /// In-place counterpart of [`Metrics::delta_from`]:
            /// subtracts the earlier cumulative reading lane by lane
            /// (mirror of [`Metrics::merge`]).
            fn subtract(&mut self, earlier: &Metrics) {
                $(for (a, b) in self.$field.lanes_mut().iter_mut().zip(earlier.$field.lanes()) {
                    Field::subtract(a, b);
                })*
            }
        }
    };
}

registry! {
    /// `alloc_probe_total`: E-set probes performed by allocators.
    alloc_probe: Counter = "alloc_probe_total",
    /// `alloc_probe_rejected_total`: probes that hit a busy E-set.
    alloc_probe_rejected: Counter = "alloc_probe_rejected_total",
    /// `alloc_select_fail_total`: selects with no free E-set.
    alloc_select_fail: Counter = "alloc_select_fail_total",
    /// `alloc_probe_depth`: probes per successful select.
    alloc_probe_depth: Histogram = "alloc_probe_depth",
    /// `arb_grant_total`: arbitration grants per VL.
    arb_grant: PerLane<Counter> = "arb_grant_total" by vl,
    /// `arb_bytes_total`: bytes serviced per VL.
    arb_bytes: PerLane<Counter> = "arb_bytes_total" by vl,
    /// `arb_high_bytes_total`: bytes granted by the high table.
    arb_high_bytes: Counter = "arb_high_bytes_total",
    /// `arb_low_bytes_total`: bytes granted by the low table.
    arb_low_bytes: Counter = "arb_low_bytes_total",
    /// `arb_vl15_bytes_total`: management bytes bypassing arbitration.
    arb_vl15_bytes: Counter = "arb_vl15_bytes_total",
    /// `arb_weight_exhausted_total`: grants that drained the entry
    /// weight, per VL.
    arb_weight_exhausted: PerLane<Counter> = "arb_weight_exhausted_total" by vl,
    /// `arb_hol_stall_total`: head-of-line credit stalls per VL.
    arb_hol_stall: PerLane<Counter> = "arb_hol_stall_total" by vl,
    /// `arb_queue_depth`: queue depth (packets) at grant time.
    arb_queue_depth: Histogram = "arb_queue_depth",
    /// `sim_events_total`: events processed by the fabric event loop.
    sim_events: Counter = "sim_events_total",
    /// `sim_event_queue_depth`: pending events in the event queue,
    /// observed after each pop.
    sim_event_queue_depth: Histogram = "sim_event_queue_depth",
    /// `schedule_compile_total`: arbitration tables compiled into grant
    /// schedules.
    schedule_compiles: Counter = "schedule_compile_total",
    /// `schedule_invalidate_total`: compiled grant schedules invalidated
    /// by a table change (admit, teardown, repair, fault corruption).
    schedule_invalidations: Counter = "schedule_invalidate_total",
    /// `cac_admit_total`: admitted connections per SL.
    cac_admit: PerLane<Counter> = "cac_admit_total" by sl,
    /// `cac_reject_total`: rejected requests, indexed like
    /// [`REJECT_REASONS`].
    cac_reject: [Counter; 4] = "cac_reject_total" by reason,
    /// `cac_release_total`: connection teardowns.
    cac_release: Counter = "cac_release_total",
    /// `harness_runs_total`: sweep points completed by the experiment
    /// harness.
    harness_runs: Counter = "harness_runs_total",
    /// `harness_threads`: worker threads used by the last sweep
    /// (merged across registries by maximum).
    harness_threads: Gauge = "harness_threads",
    /// `audit_gap_max`: worst observed inter-grant gap (cycles) per VL,
    /// from the service-guarantee auditor.
    audit_gap_max: PerLane<Gauge> = "audit_gap_max" by vl,
    /// `audit_bound_cycles`: the audited cycle budget per VL (the
    /// `d`·slot guarantee translated to worst-case cycles).
    audit_bound_cycles: PerLane<Gauge> = "audit_bound_cycles" by vl,
    /// `audit_violations_total`: grants whose gap exceeded the budget,
    /// per VL.
    audit_violations: PerLane<Counter> = "audit_violations_total" by vl,
    /// `fault_injected_total`: fault actions applied by the
    /// fault-injection calendar.
    fault_injected: Counter = "fault_injected_total",
    /// `fault_blocked_total`: arbitration candidates suppressed by an
    /// active fault (link down, VL blackout or credit stall), per VL.
    fault_blocked: PerLane<Counter> = "fault_blocked_total" by vl,
    /// `recovery_repairs_total`: damaged-table repair passes.
    recovery_repairs: Counter = "recovery_repairs_total",
    /// `recovery_evicted_total`: orphaned/corrupt sequences evicted
    /// during repair.
    recovery_evicted: Counter = "recovery_evicted_total",
    /// `recovery_reinstalls_total`: sequences re-installed after a
    /// repair (at contracted or degraded distance).
    recovery_reinstalls: Counter = "recovery_reinstalls_total",
    /// `recovery_degraded_total`: re-installs placed looser than their
    /// contracted distance (graceful-degradation ladder), one per
    /// re-install.
    recovery_degraded: Counter = "recovery_degraded_total",
    /// `span_records_total`: span profiler records exported (explicit
    /// [`crate::span::SpanRecorder::export_into`] only — wall-clock
    /// data never enters a registry implicitly).
    span_records: Counter = "span_records_total",
    /// `span_dropped_total`: span records overwritten because the span
    /// ring was full.
    span_dropped: Counter = "span_dropped_total",
    /// `serve_shard_rollback_total`: admissions the admission service
    /// rejected after reserving at least one hop (rolled back), on
    /// lane 0.
    serve_shard_rollback: PerLane<Counter> = "serve_shard_rollback_total" by shard,
    /// `serve_queue_depth`: in-flight operations of the admission
    /// service. Nothing records it since the service serves one
    /// operation at a time; it stays for readers of the registry.
    serve_queue_depth: Histogram = "serve_queue_depth",
    /// `serve_crash_total`: injected owner crashes of the admission
    /// service (each one forced a journal replay).
    serve_crash: Counter = "serve_crash_total",
    /// `serve_journal_replay_total`: write-ahead journal records
    /// replayed during restarts.
    serve_journal_replay: Counter = "serve_journal_replay_total",
    /// `serve_timeout_total`: deterministic timeouts fired (= retries
    /// sent).
    serve_timeout: Counter = "serve_timeout_total",
    /// `timeline_window_total`: telemetry windows closed by a
    /// [`crate::timeline::Timeline`] aggregator.
    timeline_windows: Counter = "timeline_window_total",
    /// `slo_eval_total`: SLO clause evaluations performed (one per
    /// clause per timeline window).
    slo_evals: Counter = "slo_eval_total",
    /// `slo_breach_total`: SLO clause evaluations that breached.
    slo_breaches: Counter = "slo_breach_total",
}

impl Metrics {
    /// An all-zero registry.
    #[must_use]
    pub fn new() -> Self {
        Metrics::default()
    }

    /// `true` when nothing has been recorded at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.snapshot().is_empty()
    }

    /// The per-window delta `self − earlier`, where `earlier` is a
    /// previous cumulative snapshot of the **same** registry.
    ///
    /// Counters and histograms subtract field-wise (saturating, so a
    /// mismatched pair degrades to zero instead of wrapping); gauges
    /// are level readings and keep their current value. Applied at
    /// fixed tick boundaries this turns a cumulative registry into
    /// per-window rates — the [`crate::timeline::Timeline`] encoding.
    #[must_use]
    pub fn delta_from(&self, earlier: &Metrics) -> Metrics {
        let mut out = self.clone();
        out.subtract(earlier);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_saturates_instead_of_wrapping() {
        let mut c = Counter::default();
        c.add(u64::MAX - 1);
        c.incr();
        assert_eq!(c.get(), u64::MAX);
        c.incr();
        c.add(12345);
        assert_eq!(c.get(), u64::MAX, "overflow must saturate");
    }

    #[test]
    fn gauge_moves_both_ways_and_saturates() {
        let mut g = Gauge::default();
        g.add(5);
        g.add(-7);
        assert_eq!(g.get(), -2);
        g.set(i64::MAX);
        g.add(1);
        assert_eq!(g.get(), i64::MAX);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        // Bucket 0 is exactly the value 0.
        assert_eq!(Histogram::bucket_index(0), 0);
        // Bucket i holds [2^(i-1), 2^i).
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(7), 3);
        assert_eq!(Histogram::bucket_index(8), 4);
        assert_eq!(Histogram::bucket_index(65535), 16);
        // Everything >= 65536 lands in the overflow bucket.
        assert_eq!(Histogram::bucket_index(65536), 17);
        assert_eq!(Histogram::bucket_index(u64::MAX), 17);
        // Bounds agree with the index mapping at every edge.
        for i in 0..HISTOGRAM_BUCKETS {
            let (lo, hi) = Histogram::bucket_bounds(i);
            assert_eq!(Histogram::bucket_index(lo), i, "lower bound of {i}");
            assert_eq!(Histogram::bucket_index(hi), i, "upper bound of {i}");
        }
    }

    #[test]
    fn histogram_observe_and_quantiles() {
        let mut h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0, "empty histogram quantile is 0");
        for v in [1u64, 1, 2, 2, 2, 2, 16, 64] {
            h.observe(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.sum(), 90);
        assert_eq!(h.buckets()[1], 2); // the two 1s
        assert_eq!(h.buckets()[2], 4); // the four 2s
                                       // p50 falls in the [2,3] bucket, p99 in the [64,127] bucket.
        assert_eq!(h.quantile(0.50), 3);
        assert_eq!(h.quantile(0.99), 127);
        assert!((h.mean() - 11.25).abs() < 1e-12);
    }

    #[test]
    fn per_lane_masks_out_of_range_indices() {
        let mut p: PerLane<Counter> = PerLane::default();
        p.lane(0x17).incr(); // 0x17 & 0x0F == 7
        assert_eq!(p.0[7].get(), 1);
    }

    #[test]
    fn empty_registry_snapshots_empty() {
        let m = Metrics::new();
        assert!(m.is_empty());
        assert!(m.snapshot().is_empty());
    }

    #[test]
    fn snapshot_names_are_all_in_the_contract_list() {
        let mut m = Metrics::new();
        m.alloc_probe.add(3);
        m.alloc_probe_rejected.add(1);
        m.alloc_select_fail.incr();
        m.alloc_probe_depth.observe(2);
        m.arb_grant.lane(1).incr();
        m.arb_bytes.lane(1).add(256);
        m.arb_high_bytes.add(256);
        m.arb_low_bytes.add(64);
        m.arb_vl15_bytes.add(64);
        m.arb_weight_exhausted.lane(1).incr();
        m.arb_hol_stall.lane(2).incr();
        m.arb_queue_depth.observe(4);
        m.sim_events.incr();
        m.sim_event_queue_depth.observe(8);
        m.schedule_compiles.incr();
        m.schedule_invalidations.incr();
        m.cac_admit.lane(3).incr();
        m.cac_reject[0].incr();
        m.cac_release.incr();
        m.harness_runs.incr();
        m.harness_threads.set(4);
        m.audit_gap_max.lane(1).set(400);
        m.audit_bound_cycles.lane(1).set(1000);
        m.audit_violations.lane(1).incr();
        m.fault_injected.incr();
        m.fault_blocked.lane(2).incr();
        m.recovery_repairs.incr();
        m.recovery_evicted.add(3);
        m.recovery_reinstalls.add(2);
        m.recovery_degraded.incr();
        m.span_records.add(2);
        m.span_dropped.incr();
        m.serve_shard_rollback.lane(0).incr();
        m.serve_queue_depth.observe(2);
        m.serve_crash.incr();
        m.serve_journal_replay.add(5);
        m.serve_timeout.incr();
        m.timeline_windows.incr();
        m.slo_evals.add(2);
        m.slo_breaches.incr();
        let snap = m.snapshot();
        assert!(!snap.is_empty());
        for s in &snap {
            assert!(
                METRIC_NAMES.contains(&s.name),
                "{} missing from METRIC_NAMES",
                s.name
            );
        }
        // Every contract name shows up when every metric is touched.
        for name in METRIC_NAMES {
            assert!(
                snap.iter().any(|s| s.name == *name),
                "{name} never snapshotted"
            );
        }
    }

    #[test]
    fn histogram_merge_is_exact() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        let mut whole = Histogram::default();
        for v in [0u64, 1, 2, 5, 9] {
            a.observe(v);
            whole.observe(v);
        }
        for v in [3u64, 70_000, 4] {
            b.observe(v);
            whole.observe(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.sum(), whole.sum());
        assert_eq!(a.buckets(), whole.buckets());
    }

    #[test]
    fn histogram_quantile_edge_cases() {
        // Empty: every quantile is 0.
        let empty = Histogram::default();
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(empty.quantile(q), 0, "empty at q={q}");
        }
        // Single bucket: every quantile is that bucket's upper bound.
        let mut single = Histogram::default();
        for _ in 0..5 {
            single.observe(3); // bucket [2, 3]
        }
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            assert_eq!(single.quantile(q), 3, "single bucket at q={q}");
        }
        // All-overflow: every quantile is the overflow bound (u64::MAX).
        let mut over = Histogram::default();
        over.observe(65536);
        over.observe(u64::MAX);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(over.quantile(q), u64::MAX, "overflow at q={q}");
        }
        // Out-of-range q clamps instead of panicking.
        assert_eq!(single.quantile(-1.0), 3);
        assert_eq!(single.quantile(7.5), 3);
    }

    #[test]
    fn histogram_merge_preserves_count_and_sum_exactly() {
        // Seeded property check (the workspace carries no proptest):
        // for many random partitions of a random observation stream,
        // merge(a, b) must equal observing the whole stream — count,
        // sum and every bucket, exactly.
        let mut state = 0x9E37_79B9_97F4_A7C1u64;
        let mut next = move || {
            // SplitMix64 step — deterministic, dependency-free.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for case in 0..64 {
            let len = 1 + (next() % 200) as usize;
            let values: Vec<u64> = (0..len)
                .map(|_| {
                    // Mix small values, bucket edges and overflow.
                    match next() % 4 {
                        0 => next() % 8,
                        1 => 1 << (next() % 17),
                        2 => next() % 70_000,
                        _ => next(),
                    }
                })
                .collect();
            let split = (next() % (len as u64 + 1)) as usize;
            let mut a = Histogram::default();
            let mut b = Histogram::default();
            let mut whole = Histogram::default();
            for (i, &v) in values.iter().enumerate() {
                if i < split {
                    a.observe(v);
                } else {
                    b.observe(v);
                }
                whole.observe(v);
            }
            a.merge(&b);
            assert_eq!(a.count(), whole.count(), "count diverged in case {case}");
            assert_eq!(a.sum(), whole.sum(), "sum diverged in case {case}");
            assert_eq!(
                a.buckets(),
                whole.buckets(),
                "buckets diverged in case {case}"
            );
        }
    }

    #[test]
    fn delta_from_recovers_the_window_increment() {
        let mut earlier = Metrics::new();
        earlier.alloc_probe.add(10);
        earlier.arb_bytes.lane(2).add(512);
        earlier.arb_queue_depth.observe(4);
        earlier.harness_threads.set(2);

        let mut later = earlier.clone();
        later.alloc_probe.add(5);
        later.arb_bytes.lane(2).add(256);
        later.arb_bytes.lane(3).add(64);
        later.arb_queue_depth.observe(9);
        later.cac_release.incr();
        later.timeline_windows.incr();

        let delta = later.delta_from(&earlier);
        assert_eq!(delta.alloc_probe.get(), 5);
        assert_eq!(delta.arb_bytes.0[2].get(), 256);
        assert_eq!(delta.arb_bytes.0[3].get(), 64);
        assert_eq!(delta.arb_queue_depth.count(), 1);
        assert_eq!(delta.arb_queue_depth.sum(), 9);
        assert_eq!(delta.cac_release.get(), 1);
        assert_eq!(delta.timeline_windows.get(), 1);
        // Gauges are level readings: the window keeps the current level.
        assert_eq!(delta.harness_threads.get(), 2);
        // Delta of a snapshot against itself is empty (gauges aside).
        let zero = later.delta_from(&later);
        assert_eq!(zero.alloc_probe.get(), 0);
        assert_eq!(zero.arb_queue_depth.count(), 0);
        assert_eq!(zero.cac_release.get(), 0);
    }

    #[test]
    fn metrics_merge_is_order_independent() {
        let mut parts: Vec<Metrics> = Vec::new();
        for i in 0..3u64 {
            let mut m = Metrics::new();
            m.alloc_probe.add(i + 1);
            m.arb_grant.lane(i as u8).add(10 * (i + 1));
            m.arb_bytes.lane(i as u8).add(256 * (i + 1));
            m.arb_queue_depth.observe(i);
            m.sim_events.add(100 * (i + 1));
            m.sim_event_queue_depth.observe(2 * i);
            m.harness_runs.incr();
            m.harness_threads.set(i as i64 + 1);
            parts.push(m);
        }
        let mut fwd = Metrics::new();
        for p in &parts {
            fwd.merge(p);
        }
        let mut rev = Metrics::new();
        for p in parts.iter().rev() {
            rev.merge(p);
        }
        let render = |m: &Metrics| format!("{:?}", m.snapshot());
        assert_eq!(render(&fwd), render(&rev));
        assert_eq!(fwd.alloc_probe.get(), 6);
        assert_eq!(fwd.sim_events.get(), 600);
        assert_eq!(fwd.harness_runs.get(), 3);
        // Gauges merge by max, the only order-independent choice.
        assert_eq!(fwd.harness_threads.get(), 3);
        assert_eq!(fwd.arb_queue_depth.count(), 3);
    }
}
