//! # iba-sim — discrete-event InfiniBand fabric simulator
//!
//! A from-scratch, deterministic, single-threaded discrete-event
//! simulator of an IBA subnet, implementing the architectural elements
//! the paper's evaluation depends on:
//!
//! * full-duplex point-to-point links (1x/4x/12x) — one *cycle* is the
//!   time to move one byte over a 1x link ([`time`]);
//! * ports with up to 16 virtual lanes, each VL buffer sized in whole
//!   packets (the paper: four), and credit-based flow control per VL
//!   ([`buffer`], [`port`]);
//! * a multiplexed crossbar per switch: at any instant at most one VL of
//!   each input port is transmitting and one VL of each output port is
//!   receiving ([`fabric`]);
//! * output arbitration by the IBA `VLArbitrationTable` engine from
//!   `iba-core`, VL15 always first;
//! * host channel adapters with per-VL injection lanes and CBR/pattern
//!   sources ([`packet`]);
//! * deterministic event ordering — identical runs for identical inputs.
//!
//! The simulator reports per-port utilisation and hands every delivered
//! packet to an [`trace::Observer`] for measurement.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod buffer;
pub mod config;
pub mod event;
pub mod fabric;
pub mod fault;
pub mod invariants;
pub mod packet;
pub mod port;
pub mod time;
pub mod trace;

pub use config::SimConfig;
pub use event::{Event, EventQueue};
pub use fabric::{DownloadKey, Fabric, FabricStats, NodeId, PortDownload};
pub use fault::{encode_target, FaultAction, FaultPlan, FaultState};
pub use packet::{Arrival, FlowSpec, Packet};
pub use port::PortStats;
pub use time::{cycles_for_bytes, interval_for_rate, Cycles, LINK_1X_MBPS};
pub use trace::{DeliveryRecord, NullObserver, Observer};

#[cfg(test)]
mod arb;
