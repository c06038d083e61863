//! # iba-obs — observability for the InfiniBand QoS workspace
//!
//! A zero-dependency, allocation-free-on-the-hot-path observability
//! layer shared by every crate in the workspace:
//!
//! * [`metrics`] — monotonic saturating counters, gauges and
//!   fixed-bucket histograms with per-VL / per-SL dimensions, collected
//!   in one flat [`metrics::Metrics`] registry (a plain struct: no maps,
//!   no heap traffic while recording);
//! * [`recorder`] — the [`recorder::Recorder`] trait that the hot paths
//!   (`iba-core` allocator, `iba-sim` arbiter/ports, `iba-qos`
//!   admission control) call into. [`recorder::NullRecorder`]
//!   monomorphizes every hook to nothing, so the non-observed build
//!   keeps the exact pre-instrumentation fast path;
//! * [`trace`] — a bounded ring-buffer event tracer with a one-line
//!   text rendering per event (driven by `ibaqos trace`);
//! * [`report`] — renderers: human-readable metric reports
//!   (`ibaqos report`) and the machine-readable `BENCH_*.json` schema
//!   written by the bench smoke tier;
//! * [`json`] — a minimal JSON value type, serializer and strict
//!   parser so the workspace stays dependency-free;
//! * [`audit`] — the [`audit::GuaranteeAuditor`], a [`recorder::Recorder`]
//!   that checks the paper's per-VL `d`·slot service guarantee live
//!   against the observed inter-grant gaps (driven by `ibaqos audit`);
//! * [`span`] — the [`span::SpanRecorder`] wall-clock profiler:
//!   begin/end records with thread ids in a bounded ring;
//! * [`perfetto`] — merges span records, sim trace events and
//!   per-request causal traces into a Perfetto/Chrome trace-event
//!   JSON timeline;
//! * [`timeline`] — the windowed [`timeline::Timeline`] aggregator:
//!   delta-encoded per-window metrics keyed by absolute window index,
//!   merged commutatively so `TIMELINE.json` is byte-identical at any
//!   `IBA_THREADS` (driven by `ibaqos timeline`);
//! * [`slo`] — a declarative SLO engine (`p99(..) <= N`,
//!   `rate(..) == 0`, burn-rate accounting) evaluated deterministically
//!   over timeline windows, gating `ibaqos serve`/`audit`/`chaos` via
//!   `--slo`;
//! * [`prom`] — Prometheus-style text exposition of a metrics
//!   snapshot (`ibaqos report --prom`);
//! * [`request`] — reassembles ring-trace request records into
//!   causally ordered per-request span trees;
//! * [`flight`] — the flight recorder: renders a post-mortem bundle
//!   (trace tail, timeline tail, request spans, SLO report) when a
//!   run fails.
//!
//! The full list of metric names, dimensions and units is the
//! **metrics contract** in `METRICS.md` at the repository root;
//! `cargo xtask check` fails when a name in
//! [`metrics::METRIC_NAMES`] is missing from that document.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod audit;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod perfetto;
pub mod prom;
pub mod recorder;
pub mod report;
pub mod request;
pub mod slo;
pub mod span;
pub mod timeline;
pub mod trace;

pub use audit::{GuaranteeAuditor, LaneAudit, LaneBudget};
pub use flight::{build as flight_build, FlightInput};
pub use json::Json;
pub use metrics::{
    Counter, Dim, Gauge, Histogram, Metrics, PerLane, Sample, SampleValue, METRIC_NAMES,
};
pub use perfetto::{perfetto_trace, perfetto_trace_full};
pub use prom::render_prom;
pub use recorder::{NullRecorder, ObsRecorder, Recorder, RejectKind, ServedKind};
pub use report::{bench_json, render_metrics, vl_shares, BenchRecord, VlShare};
pub use request::{reassemble, RequestSpan, StageRecord};
pub use slo::{SloClause, SloReport, SloSpec};
pub use span::{SpanEvent, SpanPhase, SpanRecorder};
pub use timeline::{Timeline, DEFAULT_WINDOW_LEN, TIMELINE_SCHEMA};
pub use trace::{fault_code, request_stage, serve_code, RingTracer, TraceEvent};
