//! # iba-qos — the end-to-end QoS frame
//!
//! Ties the arbitration tables (`iba-core`), the fabric simulator
//! (`iba-sim`), topologies (`iba-topo`) and workloads (`iba-traffic`)
//! into the paper's "global frame to provide the required QoS for each
//! possible kind of application traffic":
//!
//! * [`cac`] — per-output-port table registry and the multi-hop
//!   admission transaction (reserve at every hop or roll back);
//! * [`connection`] — admitted connection records (path, per-hop
//!   sequences, deadline);
//! * [`manager`] — the subnet-manager-like entity owning all tables,
//!   admitting/tearing down connections and pushing `VLArbitrationTable`
//!   configurations into a simulated fabric;
//! * [`measure`] — a simulator observer that aggregates the paper's
//!   metrics (delay vs deadline per SL and per connection, jitter);
//! * [`frame`] — one-call experiment orchestration: fill the network to
//!   its admission limit and produce the flows and fabric to run;
//! * [`recovery`] — guarantee-preserving recovery: hot table repair
//!   and re-admission through a graceful-degradation ladder, one
//!   attempt per distance;
//! * [`retry`] — the deterministic timeout schedule of the [`service`]:
//!   saturating exponential backoff with seeded jitter;
//! * [`journal`] — the admission service's write-ahead journal: each
//!   trace operation is journaled before it is applied and its outcome
//!   after, and a crashed owner restarts by replaying it;
//! * [`service`] — the journaled admission service: one owner serves a
//!   trace through the sequential reference's per-operation step,
//!   wrapped in the journal and a reply cache, and survives a seeded
//!   control-plane fault plan (owner crashes, lost or duplicated
//!   requests, lost replies) with the same outcomes and table bytes.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod cac;
pub mod churn;
pub mod connection;
pub mod frame;
pub mod journal;
pub mod manager;
pub mod measure;
pub mod recovery;
pub mod retry;
pub mod service;
mod stamp;

pub use cac::{PortKey, PortTables, RejectReason};
pub use churn::{ChurnEvent, ChurnRunner, ChurnStats};
pub use connection::{Connection, ConnectionId};
pub use frame::{FillReport, QosFrame};
pub use journal::{IntentJournal, JournalRecord, OpKey};
pub use manager::{LowPriorityPolicy, QosManager};
pub use measure::QosObserver;
pub use recovery::RecoverySummary;
pub use service::{
    apply_trace_sequential, generate_trace, run_trace, run_trace_faulted, CrashPoint, FaultStats,
    ServeFault, ServeFaultKind, ServeFaultPlan, ServeOptions, ServeReport, TraceConfig, TraceOp,
    TraceOutcome,
};
