//! Measurement glue: an `iba-sim` observer that aggregates the paper's
//! per-SL and per-connection metrics.

use crate::manager::QosManager;
use iba_sim::{DeliveryRecord, Observer};
use iba_stats::{DelayCollector, DelayCounts, JitterCollector};

/// Marks a flow id with no record in [`QosObserver::slot`].
const UNREGISTERED: u32 = u32::MAX;

/// Everything the observer keeps about one registered flow, in one
/// contiguous record.
#[derive(Clone, Copy, Debug)]
struct FlowRecord {
    flow: u32,
    sl: u8,
    deadline: u64,
    iat: u64,
    /// Previous delivery since registration or the last reset.
    last: Option<u64>,
    /// Delay distribution against the deadline (Figure 6).
    delay: DelayCounts,
}

/// Collects delay and jitter for registered (QoS) flows and aggregate
/// counters for everything else (best-effort background).
///
/// Per-flow state is flat: `slot[flow]` indexes one flow record
/// holding the flow's SL, deadline, IAT, last arrival and threshold
/// counts, so a delivery touches one slot entry, one record and the
/// small per-SL histograms. The per-connection [`DelayCollector`] of
/// Figure 6 is built from the records on demand by
/// [`QosObserver::delay_by_conn`].
#[derive(Debug)]
pub struct QosObserver {
    /// `slot[flow]` = index into `flows`, or [`UNREGISTERED`].
    slot: Vec<u32>,
    /// One record per registered flow, in registration order.
    flows: Vec<FlowRecord>,
    /// Delay distribution per service level (Figure 4).
    pub delay_by_sl: DelayCollector,
    /// Jitter per connection, grouped by SL (Figure 5).
    pub jitter: JitterCollector,
    /// Bytes delivered to QoS connections.
    pub qos_bytes: u64,
    /// QoS packets delivered.
    pub qos_packets: u64,
    /// Bytes delivered to unregistered (best-effort) flows.
    pub be_bytes: u64,
    /// Best-effort packets delivered.
    pub be_packets: u64,
    /// Bytes generated by registered (QoS) sources.
    pub qos_generated_bytes: u64,
    /// Packets generated by registered sources.
    pub qos_generated_packets: u64,
}

impl Default for QosObserver {
    fn default() -> Self {
        Self::new()
    }
}

impl QosObserver {
    /// Empty observer; register flows before running.
    #[must_use]
    pub fn new() -> Self {
        QosObserver {
            slot: Vec::new(),
            flows: Vec::new(),
            delay_by_sl: DelayCollector::new(),
            jitter: JitterCollector::new(),
            qos_bytes: 0,
            qos_packets: 0,
            be_bytes: 0,
            be_packets: 0,
            qos_generated_bytes: 0,
            qos_generated_packets: 0,
        }
    }

    /// Registers one QoS flow: its SL, guaranteed deadline and nominal
    /// interarrival time. Registering a flow again replaces those and
    /// restarts its jitter tracking; its delay counts carry on.
    pub fn register(&mut self, flow: u32, sl: u8, deadline: u64, iat: u64) {
        let f = flow as usize;
        if f >= self.slot.len() {
            self.slot.resize(f + 1, UNREGISTERED);
        }
        if let Some(r) = self.flows.get_mut(self.slot[f] as usize) {
            r.sl = sl;
            r.deadline = deadline;
            r.iat = iat;
            r.last = None;
            return;
        }
        self.slot[f] = self.flows.len() as u32;
        self.flows.push(FlowRecord {
            flow,
            sl,
            deadline,
            iat,
            last: None,
            delay: DelayCounts::default(),
        });
    }

    /// Registers every live connection of a manager (flow id =
    /// connection request id).
    #[must_use]
    pub fn from_manager(manager: &QosManager) -> Self {
        let mut o = Self::new();
        for (_, conn) in manager.connections() {
            o.register(
                conn.request.id,
                conn.request.sl.raw(),
                conn.deadline,
                conn.interarrival,
            );
        }
        o
    }

    #[inline]
    fn flow_record(&self, flow: u32) -> Option<&FlowRecord> {
        let i = *self.slot.get(flow as usize)?;
        self.flows.get(i as usize)
    }

    /// The SL a registered flow belongs to.
    #[must_use]
    pub fn sl_of(&self, flow: u32) -> Option<u8> {
        self.flow_record(flow).map(|r| r.sl)
    }

    /// The deadline of a registered flow.
    #[must_use]
    pub fn deadline_of(&self, flow: u32) -> Option<u64> {
        self.flow_record(flow).map(|r| r.deadline)
    }

    /// Registered flow count.
    #[must_use]
    pub fn registered(&self) -> usize {
        self.flows.len()
    }

    /// Delay distribution per connection, keyed by flow id (Figure 6's
    /// best/worst), built from the flow records. Flows with no delivery
    /// have no group.
    #[must_use]
    pub fn delay_by_conn(&self) -> DelayCollector {
        let mut c = DelayCollector::new();
        for r in self.flows.iter().filter(|r| r.delay.total() > 0) {
            c.insert(r.flow as usize, r.delay.to_distribution());
        }
        c
    }

    /// Drops all accumulated samples (counters and histograms) while
    /// keeping registrations — used at the end of the warm-up phase.
    pub fn reset_samples(&mut self) {
        let slot = std::mem::take(&mut self.slot);
        let mut flows = std::mem::take(&mut self.flows);
        for r in &mut flows {
            r.last = None;
            r.delay = DelayCounts::default();
        }
        *self = QosObserver {
            slot,
            flows,
            ..Self::new()
        };
    }
}

impl Observer for QosObserver {
    fn on_delivered(&mut self, rec: &DeliveryRecord) {
        let i = self.slot.get(rec.flow as usize).copied();
        match i.and_then(|i| self.flows.get_mut(i as usize)) {
            Some(r) => {
                let delay = rec.delay();
                self.delay_by_sl.record(r.sl as usize, delay, r.deadline);
                r.delay.record(delay, r.deadline);
                let gap = r.last.map(|prev| rec.delivered.saturating_sub(prev));
                self.jitter.record(r.sl as usize, gap, r.iat);
                r.last = Some(rec.delivered);
                self.qos_bytes += u64::from(rec.bytes);
                self.qos_packets += 1;
            }
            None => {
                self.be_bytes += u64::from(rec.bytes);
                self.be_packets += 1;
            }
        }
    }

    fn on_generated(&mut self, flow: u32, bytes: u32, _now: u64) {
        if self.flow_record(flow).is_some() {
            self.qos_generated_bytes += u64::from(bytes);
            self.qos_generated_packets += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::QosFrame;
    use iba_core::rng::SplitMix64;
    use iba_core::{ServiceLevel, SlTable};
    use iba_sim::SimConfig;
    use iba_stats::{DelayDistribution, JitterHistogram};
    use iba_topo::irregular::{generate, IrregularConfig};
    use iba_topo::{updown, HostId};
    use iba_traffic::besteffort::BackgroundConfig;
    use iba_traffic::{RequestGenerator, WorkloadConfig};
    use std::collections::BTreeMap;

    fn rec(flow: u32, created: u64, delivered: u64) -> DeliveryRecord {
        DeliveryRecord {
            flow,
            seq: 0,
            src: HostId(0),
            dst: HostId(1),
            sl: ServiceLevel::new(0).unwrap(),
            bytes: 256,
            created,
            delivered,
        }
    }

    #[test]
    fn registered_flows_feed_collectors() {
        let mut o = QosObserver::new();
        o.register(5, 2, 1000, 100);
        o.on_delivered(&rec(5, 0, 400));
        o.on_delivered(&rec(5, 100, 600));
        assert_eq!(o.qos_packets, 2);
        assert_eq!(o.qos_bytes, 512);
        let d = o.delay_by_sl.group(2).unwrap();
        assert_eq!(d.total(), 2);
        assert_eq!(d.missed(), 0);
        // One jitter sample: gap 200 vs IAT 100 -> beyond +IAT.
        assert!(o.jitter.group(2).unwrap().exceeded_iat());
    }

    #[test]
    fn unregistered_flows_count_as_best_effort() {
        let mut o = QosObserver::new();
        o.on_delivered(&rec(99, 0, 10));
        assert_eq!(o.be_packets, 1);
        assert_eq!(o.be_bytes, 256);
        assert_eq!(o.qos_packets, 0);
    }

    #[test]
    fn reset_keeps_registrations() {
        let mut o = QosObserver::new();
        o.register(1, 3, 500, 50);
        o.on_delivered(&rec(1, 0, 100));
        o.reset_samples();
        assert_eq!(o.qos_packets, 0);
        assert_eq!(o.registered(), 1);
        assert_eq!(o.sl_of(1), Some(3));
        o.on_delivered(&rec(1, 200, 300));
        assert_eq!(o.qos_packets, 1);
    }

    #[test]
    fn missed_deadline_detected() {
        let mut o = QosObserver::new();
        o.register(1, 0, 100, 1000);
        o.on_delivered(&rec(1, 0, 150));
        assert_eq!(o.delay_by_sl.group(0).unwrap().missed(), 1);
        assert_eq!(o.deadline_of(1), Some(100));
    }

    /// The accumulator the flat observer replaced, kept as the
    /// reference for the differential tests: a `BTreeMap` registry
    /// feeding `DelayCollector`s by SL and by flow, and per-connection
    /// last arrival and IAT feeding per-SL jitter histograms.
    #[derive(Default)]
    struct Reference {
        /// flow -> (SL, deadline, IAT).
        reg: BTreeMap<u32, (u8, u64, u64)>,
        last: BTreeMap<u32, Option<u64>>,
        by_sl: DelayCollector,
        by_conn: DelayCollector,
        jitter: Vec<JitterHistogram>,
        qos_bytes: u64,
        qos_packets: u64,
        be_bytes: u64,
        be_packets: u64,
        gen_bytes: u64,
        gen_packets: u64,
    }

    impl Reference {
        fn register(&mut self, flow: u32, sl: u8, deadline: u64, iat: u64) {
            self.reg.insert(flow, (sl, deadline, iat));
            self.last.insert(flow, None);
        }

        fn reset_samples(&mut self) {
            let reg = std::mem::take(&mut self.reg);
            *self = Reference::default();
            for (flow, (sl, deadline, iat)) in reg {
                self.register(flow, sl, deadline, iat);
            }
        }
    }

    impl Observer for Reference {
        fn on_delivered(&mut self, rec: &DeliveryRecord) {
            let Some(&(sl, deadline, iat)) = self.reg.get(&rec.flow) else {
                self.be_bytes += u64::from(rec.bytes);
                self.be_packets += 1;
                return;
            };
            let sl = sl as usize;
            self.by_sl.record(sl, rec.delay(), deadline);
            self.by_conn
                .record(rec.flow as usize, rec.delay(), deadline);
            if sl >= self.jitter.len() {
                self.jitter.resize(sl + 1, JitterHistogram::default());
            }
            let last = self.last.get_mut(&rec.flow).unwrap();
            if let Some(prev) = *last {
                self.jitter[sl].record(rec.delivered.saturating_sub(prev), iat);
            }
            *last = Some(rec.delivered);
            self.qos_bytes += u64::from(rec.bytes);
            self.qos_packets += 1;
        }

        fn on_generated(&mut self, flow: u32, bytes: u32, _now: u64) {
            if self.reg.contains_key(&flow) {
                self.gen_bytes += u64::from(bytes);
                self.gen_packets += 1;
            }
        }
    }

    /// Feeds one observer event stream to both accumulators.
    struct Both<'a>(&'a mut QosObserver, &'a mut Reference);

    impl Both<'_> {
        fn register(&mut self, flow: u32, sl: u8, deadline: u64, iat: u64) {
            self.0.register(flow, sl, deadline, iat);
            self.1.register(flow, sl, deadline, iat);
        }

        fn reset_samples(&mut self) {
            self.0.reset_samples();
            self.1.reset_samples();
        }
    }

    impl Observer for Both<'_> {
        fn on_delivered(&mut self, rec: &DeliveryRecord) {
            self.0.on_delivered(rec);
            self.1.on_delivered(rec);
        }

        fn on_generated(&mut self, flow: u32, bytes: u32, now: u64) {
            self.0.on_generated(flow, bytes, now);
            self.1.on_generated(flow, bytes, now);
        }
    }

    fn assert_same_delay(
        got: Option<&DelayDistribution>,
        want: Option<&DelayDistribution>,
        what: &str,
    ) {
        let (Some(g), Some(w)) = (got, want) else {
            assert_eq!(got.is_some(), want.is_some(), "{what}: presence");
            return;
        };
        assert_eq!(g.total(), w.total(), "{what}: total");
        assert_eq!(g.missed(), w.missed(), "{what}: missed");
        assert_eq!(
            g.max_ratio().to_bits(),
            w.max_ratio().to_bits(),
            "{what}: max_ratio"
        );
        let bits = |d: &DelayDistribution| {
            d.percentages()
                .iter()
                .map(|p| p.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(g), bits(w), "{what}: percentages");
    }

    /// Every output of the observer equals the reference's, bit for bit.
    fn assert_matches_reference(o: &QosObserver, r: &Reference) {
        assert_eq!(
            (o.qos_bytes, o.qos_packets, o.be_bytes, o.be_packets),
            (r.qos_bytes, r.qos_packets, r.be_bytes, r.be_packets)
        );
        assert_eq!(
            (o.qos_generated_bytes, o.qos_generated_packets),
            (r.gen_bytes, r.gen_packets)
        );
        assert_eq!(o.registered(), r.reg.len());
        for (&flow, &(sl, deadline, _)) in &r.reg {
            assert_eq!(o.sl_of(flow), Some(sl));
            assert_eq!(o.deadline_of(flow), Some(deadline));
        }
        for sl in 0..16 {
            assert_same_delay(
                o.delay_by_sl.group(sl),
                r.by_sl.group(sl),
                &format!("SL{sl}"),
            );
            let (got, want) = (o.jitter.group(sl), r.jitter.get(sl));
            assert_eq!(got.is_some(), want.is_some(), "SL{sl} jitter presence");
            if let (Some(g), Some(w)) = (got, want) {
                let bits = |h: &JitterHistogram| h.percentages().map(f64::to_bits);
                assert_eq!(g.total(), w.total(), "SL{sl} jitter total");
                assert_eq!(bits(g), bits(w), "SL{sl} jitter bins");
                assert_eq!(
                    g.max_abs_deviation().to_bits(),
                    w.max_abs_deviation().to_bits(),
                    "SL{sl} jitter max deviation"
                );
            }
        }
        let by_conn = o.delay_by_conn();
        let keys = |c: &DelayCollector| c.groups().map(|(k, _)| k).collect::<Vec<_>>();
        assert_eq!(keys(&by_conn), keys(&r.by_conn), "per-connection groups");
        for (k, want) in r.by_conn.groups() {
            assert_same_delay(by_conn.group(k), Some(want), &format!("flow {k}"));
        }
        for idx in 0..iba_stats::DEFAULT_THRESHOLDS.len() {
            assert_eq!(by_conn.worst_and_best(idx), r.by_conn.worst_and_best(idx));
        }
    }

    #[test]
    fn flat_observer_matches_the_reference_on_a_seeded_stream() {
        for seed in 0..4u64 {
            let mut rng = SplitMix64::seed_from_u64(seed);
            let (mut o, mut r) = (QosObserver::new(), Reference::default());
            let mut both = Both(&mut o, &mut r);
            // Sparse ids up to ~135k, as in the paper-scale run; every
            // third flow stays unregistered (best effort).
            let flows: Vec<u32> = (0..48).map(|k| k * 2_803 + 11).collect();
            let register = |both: &mut Both, rng: &mut SplitMix64, flow: u32| {
                let sl = rng.gen_range(0u8..10);
                let deadline = rng.gen_range(500u64..5000);
                let iat = rng.gen_range(100u64..1000);
                both.register(flow, sl, deadline, iat);
            };
            for &f in flows.iter().step_by(3) {
                register(&mut both, &mut rng, f);
            }
            let mut now = 0u64;
            for step in 0..6000u64 {
                match step {
                    // Mid-stream registrations.
                    1500 => {
                        for &f in flows.iter().skip(1).step_by(3) {
                            register(&mut both, &mut rng, f);
                        }
                    }
                    3000 => both.reset_samples(),
                    // Re-registration of a flow with samples.
                    4000 => register(&mut both, &mut rng, flows[0]),
                    _ => {}
                }
                if step % 1000 == 999 {
                    assert_matches_reference(both.0, both.1);
                }
                let flow = flows[rng.gen_range(0..flows.len())];
                now += rng.gen_range(0u64..400);
                let bytes = rng.gen_range(64u32..4097);
                if rng.gen_range(0u32..4) == 0 {
                    both.on_generated(flow, bytes, now);
                    continue;
                }
                let delay = rng.gen_range(0..=now.min(6000));
                both.on_delivered(&DeliveryRecord {
                    bytes,
                    ..rec(flow, now - delay, now)
                });
            }
            assert_matches_reference(&o, &r);
            assert!(r.by_sl.groups().any(|(_, d)| d.missed() > 0));
            assert!(r.be_packets > 0 && r.qos_packets > 0);
        }
    }

    #[test]
    fn flat_observer_matches_the_reference_on_a_fabric_run() {
        let topo = generate(IrregularConfig::with_switches(4, 5));
        let routing = updown::compute(&topo);
        let sl_table = SlTable::paper_table1();
        let mut frame = QosFrame::new(
            topo.clone(),
            routing,
            sl_table.clone(),
            SimConfig::paper_default(256),
        );
        let mut gen = RequestGenerator::new(&topo, &sl_table, &WorkloadConfig::new(256, 5));
        frame.fill(&mut gen, 30, 1500);
        let (mut fabric, _) = frame.build_fabric(1, Some(&BackgroundConfig::default()));
        let conns: Vec<(u32, u8, u64, u64)> = frame
            .manager
            .connections()
            .map(|(_, c)| (c.request.id, c.request.sl.raw(), c.deadline, c.interarrival))
            .collect();
        let (early, late) = conns.split_at(conns.len() / 2);
        let (mut o, mut r) = (QosObserver::new(), Reference::default());
        let mut both = Both(&mut o, &mut r);
        for &(flow, sl, deadline, iat) in early {
            both.register(flow, sl, deadline, iat);
        }
        fabric.run_until(1_000_000, &mut both);
        both.reset_samples();
        fabric.run_until(2_000_000, &mut both);
        // The rest join mid-run, as connections admitted by churn do.
        for &(flow, sl, deadline, iat) in late {
            both.register(flow, sl, deadline, iat);
        }
        fabric.run_until(4_000_000, &mut both);
        assert_matches_reference(&o, &r);
        assert!(o.qos_packets > 1000 && o.be_packets > 0);
    }
}
