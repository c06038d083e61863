//! The [`Recorder`] trait — the single seam between the hot paths and
//! the observability layer — plus its two implementations:
//! [`NullRecorder`] (free) and [`ObsRecorder`] (metrics + trace).
//!
//! Hot paths are generic over `R: Recorder` (or take `&mut dyn
//! Recorder` on control-plane paths where a virtual no-op call is
//! irrelevant). Every hook has an inline empty default, so with
//! [`NullRecorder`] the compiler erases the instrumentation entirely
//! and the non-observed build keeps its original fast path.

use crate::metrics::Metrics;
use crate::trace::{RingTracer, TraceEvent};

/// Which arbitration table served a grant, as seen by the recorder.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ServedKind {
    /// The high-priority table.
    High,
    /// The low-priority table.
    Low,
    /// VL15 management bypass (never arbitrated).
    Management,
}

impl ServedKind {
    /// Short label for reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ServedKind::High => "high",
            ServedKind::Low => "low",
            ServedKind::Management => "vl15",
        }
    }
}

/// Why an admission request was rejected, as seen by the recorder.
/// Mirrors `iba-qos`'s reject reasons without depending on that crate
/// (the dependency points the other way).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RejectKind {
    /// No free entry sequence for the requested distance.
    NoFreeSequence,
    /// The reservation cap (e.g. the 80% QoS share) was hit.
    CapacityExceeded,
    /// The request exceeds one sequence's capacity.
    RequestTooLarge,
    /// Malformed request (zero weight, stale handle, ...).
    Invalid,
}

impl RejectKind {
    /// Index into [`crate::metrics::REJECT_REASONS`].
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            RejectKind::NoFreeSequence => 0,
            RejectKind::CapacityExceeded => 1,
            RejectKind::RequestTooLarge => 2,
            RejectKind::Invalid => 3,
        }
    }

    /// Stable label (one of [`crate::metrics::REJECT_REASONS`]).
    #[must_use]
    pub fn label(self) -> &'static str {
        crate::metrics::REJECT_REASONS[self.index()]
    }
}

/// Instrumentation hooks called from the workspace's hot paths.
///
/// All hooks default to inline no-ops: implementors override only what
/// they consume, and [`NullRecorder`] overrides nothing, making the
/// instrumented code identical to the uninstrumented code after
/// monomorphization.
pub trait Recorder {
    /// Advances the recorder's notion of time (simulator cycles);
    /// subsequent trace events are stamped with this value.
    #[inline]
    fn tick(&mut self, _now: u64) {}

    /// One allocator probe of an `E_{i,j}` set; `rejected` when the
    /// set was busy.
    #[inline]
    fn alloc_probe(&mut self, _rejected: bool) {}

    /// `probes` allocator probes of one select, the first `rejected` of
    /// them on busy sets: the allocator reports a whole walk's probes
    /// at once. Defaults to that many [`Recorder::alloc_probe`] calls,
    /// rejections first, the order the walk made them in.
    #[inline]
    fn alloc_probes(&mut self, probes: u32, rejected: u32) {
        for k in 0..probes {
            self.alloc_probe(k < rejected);
        }
    }

    /// One allocator select finished after `depth` probes; `found`
    /// reports whether a free set was returned.
    #[inline]
    fn alloc_select(&mut self, _depth: u32, _found: bool) {}

    /// An arbitration grant of `bytes` on `vl` by the given table.
    #[inline]
    fn arb_grant(&mut self, _vl: u8, _bytes: u64, _served: ServedKind) {}

    /// A grant drained its table entry's remaining weight credit.
    #[inline]
    fn arb_weight_exhausted(&mut self, _vl: u8) {}

    /// A head packet on `vl` was routed to the arbitrating output but
    /// blocked by missing downstream credit (head-of-line stall
    /// observation; counted per examination of a head whose
    /// eligibility may have changed, not per packet or per pass).
    #[inline]
    fn arb_hol_stall(&mut self, _vl: u8) {}

    /// Depth (whole packets, including the granted one) of the queue a
    /// grant was served from.
    #[inline]
    fn arb_queue_depth(&mut self, _packets: u64) {}

    /// One event popped from the simulator's event queue;
    /// `pending` is the number of events still queued after the pop.
    #[inline]
    fn sim_event(&mut self, _pending: u64) {}

    /// A connection of service level `sl` was admitted end to end.
    #[inline]
    fn cac_admit(&mut self, _sl: u8) {}

    /// An admission request was rejected.
    #[inline]
    fn cac_reject(&mut self, _reason: RejectKind) {}

    /// A connection was torn down (its reservations released).
    #[inline]
    fn cac_release(&mut self) {}

    /// A fault action was applied by the fault-injection calendar.
    /// `code` is one of the [`crate::trace::fault_code`] constants,
    /// `port` the affected port and `detail` a code-specific value
    /// (mask, rate shift, corruption seed).
    #[inline]
    fn fault_injected(&mut self, _code: u8, _port: u16, _detail: u32) {}

    /// A head packet on `vl` was withheld from arbitration by an active
    /// fault (VL blackout or frozen credits); counted per examination,
    /// like [`Recorder::arb_hol_stall`].
    #[inline]
    fn fault_blocked(&mut self, _vl: u8) {}

    /// A table change invalidated an output port's compiled grant
    /// schedule (admit, teardown, repair or fault corruption).
    #[inline]
    fn schedule_invalidated(&mut self) {}

    /// An arbitration table was compiled into a grant schedule
    /// (always paired with an invalidation after the initial setup).
    #[inline]
    fn schedule_compiled(&mut self) {}

    /// Recovery repaired a damaged table, evicting
    /// `evicted` orphaned or corrupt sequences.
    #[inline]
    fn recovery_repair(&mut self, _evicted: u64) {}

    /// Recovery re-installed an evicted reservation (at contracted or
    /// degraded distance).
    #[inline]
    fn recovery_reinstall(&mut self) {}

    /// A recovery re-install was placed looser than its contracted
    /// distance (down the graceful-degradation ladder). Called once per
    /// such re-install, after [`Recorder::recovery_reinstall`].
    #[inline]
    fn recovery_degraded(&mut self) {}

    /// The admission service rejected an admission after reserving at
    /// least one hop, and rolled the reservations back.
    #[inline]
    fn serve_shard_rollback(&mut self) {}

    /// An injected crash destroyed the admission service owner's
    /// volatile state (manager, reply cache); a journal replay follows.
    #[inline]
    fn serve_crash(&mut self) {}

    /// A restart of the admission service replayed `records`
    /// write-ahead journal records.
    #[inline]
    fn serve_journal_replay(&mut self, _records: u64) {}

    /// A deterministic timeout expired after a backoff of `backoff`
    /// cycles; a retry goes out.
    #[inline]
    fn serve_timeout(&mut self, _backoff: u64) {}

    /// One causal stage of an admission-service request: `rid` is the
    /// request id (the trace-op index), `stage` one of the
    /// [`crate::trace::request_stage`] constants and `path` the hop
    /// index within the request's path ([`crate::trace::request_stage::NO_PATH`] when
    /// the stage is not hop-specific). Trace-only: no metric moves.
    #[inline]
    fn request_stage(&mut self, _rid: u32, _stage: u8, _path: u8) {}

    /// A wall-clock profiling span named `name` opened on the calling
    /// thread. No-op unless the recorder carries a
    /// [`crate::span::SpanRecorder`].
    #[inline]
    fn span_begin(&mut self, _name: &'static str) {}

    /// The matching close of [`Recorder::span_begin`].
    #[inline]
    fn span_end(&mut self, _name: &'static str) {}
}

/// The do-nothing recorder: the default for every non-observed run.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {}

/// The real recorder: updates a [`Metrics`] registry and, when
/// enabled, appends compact records to a bounded [`RingTracer`].
#[derive(Clone, Debug, Default)]
pub struct ObsRecorder {
    /// The metrics registry being filled.
    pub metrics: Metrics,
    /// The event tracer, when tracing is enabled.
    pub tracer: Option<RingTracer>,
    /// The wall-clock span profiler, when profiling is enabled.
    pub spans: Option<crate::span::SpanRecorder>,
    /// The windowed timeline aggregator, when timelines are enabled.
    pub timeline: Option<crate::timeline::Timeline>,
    now: u64,
}

impl ObsRecorder {
    /// A metrics-only recorder (no tracing).
    #[must_use]
    pub fn new() -> Self {
        ObsRecorder::default()
    }

    /// A recorder that also traces into a ring of `capacity` records.
    #[must_use]
    pub fn with_tracer(capacity: usize) -> Self {
        ObsRecorder {
            tracer: Some(RingTracer::new(capacity)),
            ..ObsRecorder::default()
        }
    }

    /// A recorder that also aggregates a windowed timeline with
    /// `window_len` ticks per window (see [`crate::timeline`]).
    #[must_use]
    pub fn with_timeline(window_len: u64) -> Self {
        ObsRecorder {
            timeline: Some(crate::timeline::Timeline::new(window_len)),
            ..ObsRecorder::default()
        }
    }

    /// Closes the timeline's trailing partial window, if a timeline is
    /// attached and has an open window. Call once when a run ends.
    pub fn finish_timeline(&mut self) {
        if let Some(tl) = self.timeline.as_mut() {
            tl.finish(&mut self.metrics);
        }
    }

    /// The recorder's current timestamp (last [`Recorder::tick`]).
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    #[inline]
    fn trace(&mut self, ev: TraceEvent) {
        if let Some(t) = self.tracer.as_mut() {
            t.push(self.now, ev);
        }
    }

    /// Folds another recorder's **metrics** into this one (see
    /// [`Metrics::merge`]: commutative, so merge order never matters).
    ///
    /// Trace rings are deliberately *not* merged — a ring is a bounded
    /// window of one run's newest events, and interleaving two rings
    /// would fabricate an ordering that never existed. The parallel
    /// harness therefore merges metrics and leaves per-run traces with
    /// their runs.
    ///
    /// Span rings *are* merged when both sides carry one: span records
    /// are tagged with their recording thread, so a union is a valid
    /// multi-track wall-clock timeline (workers share the merge
    /// target's epoch via [`crate::span::SpanRecorder::with_epoch`]).
    ///
    /// Timelines are likewise merged when both sides carry one:
    /// windows are keyed by absolute window index, so a window-wise
    /// [`Metrics::merge`] is commutative and the merged timeline is
    /// independent of merge order (see [`crate::timeline::Timeline`]).
    pub fn merge(&mut self, other: &ObsRecorder) {
        self.metrics.merge(&other.metrics);
        self.now = self.now.max(other.now);
        if let (Some(mine), Some(theirs)) = (self.spans.as_mut(), other.spans.as_ref()) {
            mine.merge(theirs);
        }
        if let (Some(mine), Some(theirs)) = (self.timeline.as_mut(), other.timeline.as_ref()) {
            mine.merge(theirs);
        }
    }
}

// The harness moves recorders across worker threads; keep the whole
// recording stack `Send` by construction (compile-time check).
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<ObsRecorder>();
    assert_send::<Metrics>();
    assert_send::<NullRecorder>();
};

impl Recorder for ObsRecorder {
    #[inline]
    fn tick(&mut self, now: u64) {
        self.now = now;
        // Disjoint field borrows: the timeline reads/mutates the
        // metrics registry while borrowed out of the same struct.
        if let Some(tl) = self.timeline.as_mut() {
            tl.tick(now, &mut self.metrics);
        }
    }

    #[inline]
    fn alloc_probe(&mut self, rejected: bool) {
        self.metrics.alloc_probe.incr();
        if rejected {
            self.metrics.alloc_probe_rejected.incr();
        }
    }

    #[inline]
    fn alloc_probes(&mut self, probes: u32, rejected: u32) {
        self.metrics.alloc_probe.add(u64::from(probes));
        self.metrics.alloc_probe_rejected.add(u64::from(rejected));
    }

    fn alloc_select(&mut self, depth: u32, found: bool) {
        if found {
            self.metrics.alloc_probe_depth.observe(u64::from(depth));
        } else {
            self.metrics.alloc_select_fail.incr();
        }
        self.trace(TraceEvent::AllocSelect { depth, found });
    }

    #[inline]
    fn arb_grant(&mut self, vl: u8, bytes: u64, served: ServedKind) {
        self.metrics.arb_grant.lane(vl).incr();
        self.metrics.arb_bytes.lane(vl).add(bytes);
        match served {
            ServedKind::High => self.metrics.arb_high_bytes.add(bytes),
            ServedKind::Low => self.metrics.arb_low_bytes.add(bytes),
            ServedKind::Management => self.metrics.arb_vl15_bytes.add(bytes),
        }
        self.trace(TraceEvent::Grant { vl, bytes, served });
    }

    #[inline]
    fn arb_weight_exhausted(&mut self, vl: u8) {
        self.metrics.arb_weight_exhausted.lane(vl).incr();
        self.trace(TraceEvent::WeightExhausted { vl });
    }

    #[inline]
    fn arb_hol_stall(&mut self, vl: u8) {
        self.metrics.arb_hol_stall.lane(vl).incr();
        self.trace(TraceEvent::HolStall { vl });
    }

    #[inline]
    fn arb_queue_depth(&mut self, packets: u64) {
        self.metrics.arb_queue_depth.observe(packets);
    }

    #[inline]
    fn sim_event(&mut self, pending: u64) {
        self.metrics.sim_events.incr();
        self.metrics.sim_event_queue_depth.observe(pending);
    }

    fn cac_admit(&mut self, sl: u8) {
        self.metrics.cac_admit.lane(sl).incr();
        self.trace(TraceEvent::Admit { sl });
    }

    fn cac_reject(&mut self, reason: RejectKind) {
        self.metrics.cac_reject[reason.index()].incr();
        self.trace(TraceEvent::Reject { reason });
    }

    fn cac_release(&mut self) {
        self.metrics.cac_release.incr();
        self.trace(TraceEvent::Release);
    }

    fn fault_injected(&mut self, code: u8, port: u16, detail: u32) {
        self.metrics.fault_injected.incr();
        self.trace(TraceEvent::Fault { code, port, detail });
    }

    #[inline]
    fn fault_blocked(&mut self, vl: u8) {
        self.metrics.fault_blocked.lane(vl).incr();
    }

    #[inline]
    fn schedule_invalidated(&mut self) {
        self.metrics.schedule_invalidations.incr();
    }

    #[inline]
    fn schedule_compiled(&mut self) {
        self.metrics.schedule_compiles.incr();
    }

    fn recovery_repair(&mut self, evicted: u64) {
        self.metrics.recovery_repairs.incr();
        self.metrics.recovery_evicted.add(evicted);
        self.trace(TraceEvent::Fault {
            code: crate::trace::fault_code::RECOVERY_REPAIR,
            port: 0,
            detail: u32::try_from(evicted).unwrap_or(u32::MAX),
        });
    }

    fn recovery_reinstall(&mut self) {
        self.metrics.recovery_reinstalls.incr();
        self.trace(TraceEvent::Fault {
            code: crate::trace::fault_code::RECOVERY_REINSTALL,
            port: 0,
            detail: 0,
        });
    }

    fn recovery_degraded(&mut self) {
        self.metrics.recovery_degraded.incr();
        self.trace(TraceEvent::Fault {
            code: crate::trace::fault_code::RECOVERY_DEGRADED,
            port: 0,
            detail: 0,
        });
    }

    #[inline]
    fn serve_shard_rollback(&mut self) {
        self.metrics.serve_shard_rollback.lane(0).incr();
    }

    fn serve_crash(&mut self) {
        self.metrics.serve_crash.incr();
        self.trace(TraceEvent::Serve {
            code: crate::trace::serve_code::CRASH,
            detail: 0,
        });
    }

    fn serve_journal_replay(&mut self, records: u64) {
        self.metrics.serve_journal_replay.add(records);
        self.trace(TraceEvent::Serve {
            code: crate::trace::serve_code::JOURNAL_REPLAY,
            detail: u32::try_from(records).unwrap_or(u32::MAX),
        });
    }

    fn serve_timeout(&mut self, backoff: u64) {
        self.metrics.serve_timeout.incr();
        self.trace(TraceEvent::Serve {
            code: crate::trace::serve_code::TIMEOUT,
            detail: u32::try_from(backoff).unwrap_or(u32::MAX),
        });
    }

    #[inline]
    fn request_stage(&mut self, rid: u32, stage: u8, path: u8) {
        self.trace(TraceEvent::Request { rid, stage, path });
    }

    #[inline]
    fn span_begin(&mut self, name: &'static str) {
        if let Some(s) = self.spans.as_mut() {
            s.begin(name);
        }
    }

    #[inline]
    fn span_end(&mut self, name: &'static str) {
        if let Some(s) = self.spans.as_mut() {
            s.end(name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_recorder_is_inert() {
        let mut r = NullRecorder;
        r.tick(5);
        r.alloc_probe(true);
        r.arb_grant(3, 256, ServedKind::High);
        r.cac_reject(RejectKind::CapacityExceeded);
        // Nothing to assert — the point is it compiles to nothing and
        // panics never.
    }

    #[test]
    fn bulk_probes_equal_single_probes() {
        /// Overrides only `alloc_probe`, so `alloc_probes` takes the
        /// default loop.
        #[derive(Default)]
        struct Singles(Vec<bool>);
        impl Recorder for Singles {
            fn alloc_probe(&mut self, rejected: bool) {
                self.0.push(rejected);
            }
        }
        let mut singles = Singles::default();
        singles.alloc_probes(5, 4);
        assert_eq!(singles.0, [true, true, true, true, false]);

        let (mut bulk, mut single) = (ObsRecorder::new(), ObsRecorder::new());
        for (probes, rejected) in [(5, 4), (64, 64), (1, 0)] {
            bulk.alloc_probes(probes, rejected);
            for k in 0..probes {
                single.alloc_probe(k < rejected);
            }
        }
        assert_eq!(bulk.metrics.alloc_probe, single.metrics.alloc_probe);
        assert_eq!(bulk.metrics.alloc_probe.get(), 70);
        assert_eq!(
            bulk.metrics.alloc_probe_rejected,
            single.metrics.alloc_probe_rejected
        );
    }

    #[test]
    fn obs_recorder_updates_metrics_and_trace() {
        let mut r = ObsRecorder::with_tracer(8);
        r.tick(100);
        r.alloc_probe(true);
        r.alloc_probe(false);
        r.alloc_select(2, true);
        r.arb_grant(3, 256, ServedKind::High);
        r.arb_weight_exhausted(3);
        r.arb_hol_stall(1);
        r.arb_queue_depth(4);
        r.cac_admit(2);
        r.cac_reject(RejectKind::NoFreeSequence);
        r.cac_release();

        let m = &r.metrics;
        assert_eq!(m.alloc_probe.get(), 2);
        assert_eq!(m.alloc_probe_rejected.get(), 1);
        assert_eq!(m.alloc_probe_depth.count(), 1);
        assert_eq!(m.arb_grant.0[3].get(), 1);
        assert_eq!(m.arb_bytes.0[3].get(), 256);
        assert_eq!(m.arb_high_bytes.get(), 256);
        assert_eq!(m.arb_weight_exhausted.0[3].get(), 1);
        assert_eq!(m.arb_hol_stall.0[1].get(), 1);
        assert_eq!(m.arb_queue_depth.count(), 1);
        assert_eq!(m.cac_admit.0[2].get(), 1);
        assert_eq!(m.cac_reject[0].get(), 1);
        assert_eq!(m.cac_release.get(), 1);

        let records = r
            .tracer
            .as_ref()
            .map(RingTracer::records)
            .unwrap_or_default();
        assert!(!records.is_empty());
        assert!(records.iter().all(|(t, _)| *t == 100));
    }

    #[test]
    fn fault_and_recovery_hooks_update_metrics_and_trace() {
        use crate::trace::fault_code;
        let mut r = ObsRecorder::with_tracer(16);
        r.tick(42);
        r.fault_injected(fault_code::LINK_DOWN, 3, 0);
        r.fault_blocked(5);
        r.recovery_repair(4);
        r.recovery_reinstall();
        r.recovery_degraded();

        let m = &r.metrics;
        assert_eq!(m.fault_injected.get(), 1);
        assert_eq!(m.fault_blocked.0[5].get(), 1);
        assert_eq!(m.recovery_repairs.get(), 1);
        assert_eq!(m.recovery_evicted.get(), 4);
        assert_eq!(m.recovery_reinstalls.get(), 1);
        assert_eq!(m.recovery_degraded.get(), 1);

        let records = r.tracer.as_ref().map(RingTracer::records).unwrap();
        // fault_blocked is metrics-only; the other four hooks trace.
        assert_eq!(records.len(), 4);
        assert!(records.iter().all(|(t, _)| *t == 42));
        assert!(matches!(
            records[0].1,
            TraceEvent::Fault {
                code: fault_code::LINK_DOWN,
                port: 3,
                detail: 0
            }
        ));
    }

    #[test]
    fn sim_event_hook_counts_and_observes_depth() {
        let mut r = ObsRecorder::new();
        r.sim_event(3);
        r.sim_event(0);
        assert_eq!(r.metrics.sim_events.get(), 2);
        assert_eq!(r.metrics.sim_event_queue_depth.count(), 2);
        assert_eq!(r.metrics.sim_event_queue_depth.sum(), 3);
    }

    #[test]
    fn recorder_merge_combines_metrics_and_keeps_traces_separate() {
        let mut a = ObsRecorder::with_tracer(4);
        a.tick(10);
        a.arb_grant(1, 100, ServedKind::High);
        let mut b = ObsRecorder::with_tracer(4);
        b.tick(20);
        b.arb_grant(1, 50, ServedKind::Low);
        b.arb_grant(2, 25, ServedKind::High);
        a.merge(&b);
        assert_eq!(a.metrics.arb_bytes.0[1].get(), 150);
        assert_eq!(a.metrics.arb_bytes.0[2].get(), 25);
        assert_eq!(a.now(), 20);
        // The target's own trace ring is untouched by the merge.
        let records = a.tracer.as_ref().map(RingTracer::records).unwrap();
        assert_eq!(records.len(), 1);
    }

    #[test]
    fn span_hooks_record_only_when_enabled() {
        let mut plain = ObsRecorder::new();
        plain.span_begin("x");
        plain.span_end("x");
        assert!(plain.spans.is_none());

        let mut prof = ObsRecorder {
            spans: Some(crate::span::SpanRecorder::new(8)),
            ..ObsRecorder::default()
        };
        prof.span_begin("alloc.select");
        prof.span_end("alloc.select");
        let spans = prof.spans.as_ref().expect("span recorder installed");
        assert_eq!(spans.len(), 2);
        // Span counts never leak into metrics implicitly.
        assert_eq!(prof.metrics.span_records.get(), 0);
    }

    #[test]
    fn merge_unions_span_rings_when_both_present() {
        let mut a = ObsRecorder {
            spans: Some(crate::span::SpanRecorder::new(8)),
            ..ObsRecorder::default()
        };
        a.span_begin("main");
        a.span_end("main");
        let epoch = a.spans.as_ref().map(|s| s.epoch()).expect("spans on");
        let mut b = ObsRecorder {
            spans: Some(crate::span::SpanRecorder::with_epoch(8, epoch)),
            ..ObsRecorder::default()
        };
        b.span_begin("worker");
        b.span_end("worker");
        a.merge(&b);
        assert_eq!(
            a.spans.as_ref().map(crate::span::SpanRecorder::len),
            Some(4)
        );
        // Merging into a span-less recorder is a no-op, not an error.
        let mut c = ObsRecorder::new();
        c.merge(&a);
        assert!(c.spans.is_none());
    }

    #[test]
    fn with_timeline_rolls_windows_on_tick() {
        let mut r = ObsRecorder::with_timeline(10);
        r.tick(0);
        r.sim_event(1);
        r.tick(12); // crosses into window 1: closes window 0
        r.sim_event(0);
        r.finish_timeline();
        let tl = r.timeline.as_ref().expect("timeline installed");
        assert_eq!(tl.len(), 2);
        assert_eq!(tl.windows()[&0].sim_events.get(), 1);
        assert_eq!(tl.windows()[&1].sim_events.get(), 1);
        assert_eq!(r.metrics.timeline_windows.get(), 2);
        assert_eq!(r.metrics.sim_events.get(), 2);
    }

    #[test]
    fn request_stage_hook_traces_without_metrics() {
        let mut r = ObsRecorder::with_tracer(4);
        r.tick(7);
        r.request_stage(5, crate::trace::request_stage::COMMIT, 1);
        let records = r.tracer.as_ref().map(RingTracer::records).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(
            records[0],
            (
                7,
                TraceEvent::Request {
                    rid: 5,
                    stage: crate::trace::request_stage::COMMIT,
                    path: 1
                }
            )
        );
        assert!(r.metrics.snapshot().is_empty(), "hook is metric-free");
    }

    #[test]
    fn merge_combines_timelines_window_wise() {
        let mut a = ObsRecorder::with_timeline(10);
        a.tick(0);
        a.cac_release();
        a.tick(11);
        a.finish_timeline();
        let mut b = ObsRecorder::with_timeline(10);
        b.tick(0);
        b.cac_admit(1);
        b.tick(11);
        b.finish_timeline();
        a.merge(&b);
        let tl = a.timeline.as_ref().unwrap();
        assert_eq!(tl.windows()[&0].cac_release.get(), 1);
        assert_eq!(tl.windows()[&0].cac_admit.0[1].get(), 1);
        // Merging into a timeline-less recorder keeps it timeline-less.
        let mut c = ObsRecorder::new();
        c.merge(&a);
        assert!(c.timeline.is_none());
    }

    #[test]
    fn codes_roundtrip() {
        // Each reject kind indexes its own metric lane, in lane order.
        let kinds = [
            RejectKind::NoFreeSequence,
            RejectKind::CapacityExceeded,
            RejectKind::RequestTooLarge,
            RejectKind::Invalid,
        ];
        assert_eq!(kinds.len(), crate::metrics::REJECT_REASONS.len());
        for (i, k) in kinds.into_iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }
}
