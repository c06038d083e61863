//! What the benchmark attaches to the program through its existing
//! seams: a delivery observer that digests and scores every packet
//! against its deadline, and a recorder that counts the per-layer
//! events the crates already report.

use crate::report::{FNV_OFFSET, FNV_PRIME};
use iba_obs::{Recorder, ServedKind};
use iba_sim::{DeliveryRecord, Observer};

/// Resolution of the delay/deadline histogram (bins per deadline).
const RATIO_BINS: u64 = 1024;
/// Delays beyond this many deadlines share the last bin.
const RATIO_SPAN: u64 = 64;

/// Wraps the observer under test (`QosObserver` or `NullObserver`):
/// folds every delivery into the FNV-1a digest the harness uses as its
/// determinism witness, and bins each QoS delivery's delay as a
/// fraction of its flow's deadline.
pub struct MeasureObserver<'a, O: Observer> {
    inner: &'a mut O,
    /// Deadline per flow id (0 for flows without a guarantee).
    deadlines: Vec<u64>,
    pub digest: u64,
    pub delivered: u64,
    pub qos_delivered: u64,
    pub qos_missed: u64,
    pub qos_bytes: u64,
    ratio_hist: Vec<u64>,
}

impl<'a, O: Observer> MeasureObserver<'a, O> {
    pub fn new(inner: &'a mut O, deadlines: Vec<u64>) -> Self {
        MeasureObserver {
            inner,
            deadlines,
            digest: FNV_OFFSET,
            delivered: 0,
            qos_delivered: 0,
            qos_missed: 0,
            qos_bytes: 0,
            ratio_hist: vec![0; (RATIO_BINS * RATIO_SPAN + 1) as usize],
        }
    }

    /// Gives `flow` a guarantee (a connection admitted mid-run).
    pub fn set_deadline(&mut self, flow: u32, deadline: u64) {
        let i = flow as usize;
        if i >= self.deadlines.len() {
            self.deadlines.resize(i + 1, 0);
        }
        self.deadlines[i] = deadline;
    }

    /// The wrapped observer.
    pub fn inner(&mut self) -> &mut O {
        self.inner
    }

    #[inline]
    fn fold(&mut self, v: u64) {
        self.digest = (self.digest ^ v).wrapping_mul(FNV_PRIME);
    }

    /// The `q` quantile of delay ÷ deadline over QoS deliveries (upper
    /// edge of its 1/1024 bin).
    pub fn delay_ratio_quantile(&self, q: f64) -> f64 {
        let target = (q * self.qos_delivered as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (bin, &n) in self.ratio_hist.iter().enumerate() {
            seen += n;
            if seen >= target {
                return bin as f64 / RATIO_BINS as f64;
            }
        }
        0.0
    }
}

impl<O: Observer> Observer for MeasureObserver<'_, O> {
    fn on_delivered(&mut self, rec: &DeliveryRecord) {
        self.fold(u64::from(rec.flow));
        self.fold(rec.seq);
        self.fold(u64::from(rec.src.0));
        self.fold(u64::from(rec.dst.0));
        self.fold(u64::from(rec.sl.raw()));
        self.fold(u64::from(rec.bytes));
        self.fold(rec.created);
        self.fold(rec.delivered);
        self.delivered += 1;
        let deadline = self.deadlines.get(rec.flow as usize).copied().unwrap_or(0);
        if deadline > 0 {
            let delay = rec.delay();
            self.qos_delivered += 1;
            self.qos_bytes += u64::from(rec.bytes);
            self.qos_missed += u64::from(delay > deadline);
            let bin = (delay * RATIO_BINS).div_ceil(deadline);
            let last = self.ratio_hist.len() - 1;
            self.ratio_hist[(bin as usize).min(last)] += 1;
        }
        self.inner.on_delivered(rec);
    }

    fn on_generated(&mut self, flow: u32, bytes: u32, now: u64) {
        self.inner.on_generated(flow, bytes, now);
    }
}

/// Largest event-queue depth binned individually.
const DEPTH_CAP: usize = 1 << 20;

/// Counts the hooks the crates fire through `iba_obs::Recorder`.
#[derive(Default)]
pub struct LayerRecorder {
    /// Events seen at each event-queue depth.
    depth_hist: Vec<u64>,
    pub grants: u64,
    pub hol_stalls: u64,
    pub probes: u64,
    pub probes_rejected: u64,
    pub selects: u64,
    pub select_fail: u64,
}

impl LayerRecorder {
    /// The `q` quantile of the event-queue depth seen at each event.
    pub fn depth_quantile(&self, q: f64) -> f64 {
        let total: u64 = self.depth_hist.iter().sum();
        let target = (q * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (depth, &n) in self.depth_hist.iter().enumerate() {
            seen += n;
            if seen >= target {
                return depth as f64;
            }
        }
        0.0
    }
}

impl Recorder for LayerRecorder {
    #[inline]
    fn sim_event(&mut self, pending: u64) {
        let d = (pending as usize).min(DEPTH_CAP);
        if d >= self.depth_hist.len() {
            self.depth_hist.resize(d + 1, 0);
        }
        self.depth_hist[d] += 1;
    }

    #[inline]
    fn arb_grant(&mut self, _vl: u8, _bytes: u64, _served: ServedKind) {
        self.grants += 1;
    }

    #[inline]
    fn arb_hol_stall(&mut self, _vl: u8) {
        self.hol_stalls += 1;
    }

    fn alloc_probe(&mut self, rejected: bool) {
        self.probes += 1;
        self.probes_rejected += u64::from(rejected);
    }

    fn alloc_select(&mut self, _depth: u32, found: bool) {
        self.selects += 1;
        self.select_fail += u64::from(!found);
    }
}
