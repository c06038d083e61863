//! Deterministic parallel experiment engine.
//!
//! Every experiment in this repository is a set of *independent*
//! simulation runs — seed x topology x SL-configuration points. This
//! crate shards those runs across scoped worker threads with a
//! chunked work queue and merges the results **in run order**, so the
//! merged output is byte-identical no matter how many threads executed
//! it. Per-worker [`iba_obs::ObsRecorder`] registries are combined with
//! the order-independent `Metrics::merge`, keeping the observability
//! contract intact under parallelism.
//!
//! | Variable | Default | Meaning |
//! |----------|---------|---------|
//! | `IBA_THREADS` | available parallelism | worker threads for sweeps |
//!
//! The determinism guarantee, knobs and repro commands are documented
//! in `EXPERIMENTS.md`.

#![forbid(unsafe_code)]

pub mod audit;
pub mod chaos;
pub mod chaos_serve;
pub mod engine;
pub mod experiment;
pub mod fnv;
pub mod serve;
pub mod sweep;
pub mod timeline;

pub use audit::{run_audit, AuditConfig, AuditOutcome};
pub use chaos::{run_chaos, ChaosConfig, ChaosOutcome};
pub use chaos_serve::{run_chaos_serve, ChaosServeConfig, ChaosServeOutcome};
pub use engine::{run_sweep, threads_from_env};
pub use experiment::{build_experiment_sized, run_measured, Experiment, Measured};
pub use fnv::{fnv64, Fnv64};
pub use serve::{run_serve, timeline_shared_lines, ServeConfig, ServeOutcome};
pub use sweep::{run_points, PointOutcome, SimPoint};
pub use timeline::{run_timeline, TimelineConfig, TimelineOutcome};
