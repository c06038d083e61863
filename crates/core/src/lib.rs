//! # iba-core — InfiniBand arbitration tables and the ICPP'03 filling algorithm
//!
//! This crate implements the primary contribution of
//! *F. J. Alfaro, J. L. Sánchez, J. Duato — "A New Proposal to Fill in the
//! InfiniBand Arbitration Tables", ICPP 2003*:
//!
//! * the data model of the IBA `VLArbitrationTable` (two weighted
//!   round-robin tables of up to 64 `(VL, weight)` entries plus a
//!   `LimitOfHighPriority` counter — [`vlarb`]),
//! * the **bit-reversal sequence allocator** that fills the high-priority
//!   table so that a new request always fits whenever enough free entries
//!   exist ([`table`], [`alloc`], [`bitrev`], [`eset`]),
//! * **sequence sharing** — connections of the same service level
//!   accumulate weight in a common sequence of entries ([`sequence`]),
//! * the **defragmentation** pass applied after connections finish
//!   ([`defrag`]),
//! * the **latency-based service-level classification** of the paper
//!   (distance between consecutive table entries, Table 1 — [`sl`]),
//! * the runtime **weighted round-robin arbitration engine** that an
//!   output port runs over a configured table ([`vlarb`]),
//! * the **schedule compiler** that turns a table into a flat
//!   `(vl, burst_bytes)` grant stream for the simulator's hot path
//!   ([`schedule`]),
//! * baseline allocators used by the ablation experiments ([`alloc`]).
//!
//! Everything here is pure, deterministic and allocation-light; the
//! discrete-event fabric simulator lives in `iba-sim` and the end-to-end
//! admission-control frame in `iba-qos`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod alloc;
pub mod bitrev;
pub mod defrag;
pub mod distance;
pub mod entry;
pub mod eset;
pub mod invariants;
pub mod model;
pub mod rng;
pub mod schedule;
pub mod sequence;
pub mod sl;
pub mod table;
pub mod vlarb;
pub mod weight;

pub use alloc::AllocatorKind;
pub use defrag::{is_canonical, Relocation};
pub use distance::{effective_request, entries_needed, Distance};
pub use entry::{TableSlot, VirtualLane, MAX_DATA_VLS, TABLE_ENTRIES};
pub use eset::ESet;
pub use rng::SplitMix64;
pub use schedule::{CompiledVlArb, GrantStream};
pub use sequence::{SequenceId, SequenceInfo};
pub use sl::{ServiceLevel, SlProfile, SlTable, SlToVlMap, TrafficClass};
pub use table::{
    Admission, EvictedSequence, HighPriorityTable, Placement, RepairReport, TableError,
};
pub use vlarb::{ArbEntry, Grant, ServedBy, VlArbConfig, VlArbEngine};
pub use weight::{
    bandwidth_for_weight, bytes_to_weight_units, weight_for_bandwidth, Weight, MAX_ENTRY_WEIGHT,
    MAX_TABLE_WEIGHT, WEIGHT_UNIT_BYTES,
};
