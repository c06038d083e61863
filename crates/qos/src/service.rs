//! The sharded admission-control service: the paper's §5 CAC run as a
//! two-phase protocol over partitioned port tables — with the
//! workspace's byte-identical determinism contract.
//!
//! # Ownership
//!
//! [`PortTables`] is partitioned by output port: port `k` belongs to
//! shard `k.stable_code() % shards`, and each shard **exclusively
//! owns** its partition. A shard is a plain state machine with one
//! entry point, `step`, which executes one delivered message and
//! returns its reply (the `Node::receive(p, time) -> Vec<Event>` shape
//! of a discrete-event simulator). The coordinator and every shard run
//! on the caller's thread: an in-process network steps the addressed
//! shard directly and queues the reply, so there are no threads,
//! channels or locks.
//!
//! # Batched multi-hop admission
//!
//! An admission must reserve every output port on the path or nothing
//! (the paper: "it is only accepted if there are available resources"
//! at each node). The coordinator runs a two-phase protocol per
//! request:
//!
//! 1. **Vote** — every participating shard answers, per hop, the exact
//!    error the real admission would return ([`HighPriorityTable::
//!    check_admit`] mirrors `admit`'s check order), without mutating.
//! 2. **Commit** — all hops voted yes: each shard reserves its hops in
//!    ascending canonical path order.
//! 3. **Abort** — some hop voted no: let `k` be the *first* failing
//!    path index. Shards replay exactly what the sequential
//!    transaction would have done: admit every owned hop before `k`,
//!    re-run the failing admission at `k` (it records the same
//!    allocator probes and fails the same way), then roll the
//!    reservations back in descending order. Hops after `k` are never
//!    touched. Because rollback releases can trigger defragmentation,
//!    this mutation-faithful replay — not a mere skip — is what keeps
//!    the final tables byte-identical to the single-owner
//!    [`QosManager`].
//!
//! # Determinism argument
//!
//! * Each table sees exactly the per-table operation sequence the
//!   sequential manager would apply, in the same order: the
//!   coordinator dispatches operations **strictly in trace order**,
//!   holds a shard claim for every in-flight operation, and never
//!   lets two in-flight operations share a shard. Outcomes and final
//!   table bytes are therefore independent of the shard count.
//! * Every random stream is a [`SplitMix64`] keyed by the owning
//!   port's [`PortKey::stable_code`], so repair randomness is
//!   identical no matter which shard (or how many shards) runs it.
//! * Replies are consumed in delivery order from one queue, so the
//!   coordinator's scheduling state (queue depth, dispatch tick) is a
//!   pure function of the trace and the shard count.
//!
//! The differential test (`tests/service_equivalence.rs`) proves the
//! claim on 100 random traces at 1, 2 and 8 shards.
//!
//! # Control-plane fault model
//!
//! [`run_trace_faulted`] layers a deterministic fault engine over the
//! in-process network: a seeded [`ServeFaultPlan`] injects shard
//! crashes (including between Vote and Commit), coordinator→shard
//! message loss and delay, and shard→coordinator reply loss. The
//! service survives every plan through three mechanisms:
//!
//! * a per-shard write-ahead [`IntentJournal`] (append intent before
//!   mutating, replay on supervised restart; the dangling tail intent
//!   is rolled forward deterministically);
//! * deterministic timeouts with the shared [`crate::retry::Backoff`]
//!   schedule plus idempotency keys (`(epoch, op)`), so a retried
//!   Commit that already landed is answered from the shard's reply
//!   cache instead of reserving twice;
//! * a bounded admission queue with a graceful-degradation ladder
//!   ([`ServeOptions`]): shed lowest-SL admissions first (rung 0),
//!   then fall back to [`Distance::looser`] installs (rung 1).
//!
//! Timeouts are *logical*: the engine owns the fault plan, so the
//! retry fires at a reproducible protocol point instead of a
//! wall-clock deadline — a faulted run is a pure function of (trace,
//! plan, shard count). Under any plan of the three fault kinds (with
//! the shedding ladder disabled) outcomes and final table bytes still
//! converge to the sequential reference at any shard count; only the
//! `serve_*` metrics record the turbulence.

use crate::cac::{PortKey, PortTables, RejectReason};
use crate::connection::{ConnectionId, HopReservation};
use crate::journal::{IntentJournal, JournalRecord, OpKey};
use crate::manager::QosManager;
use crate::recovery::{RecoveryManager, RecoverySummary};
use crate::retry::{Backoff, RetryPolicy};
use iba_core::{Distance, ServiceLevel, SplitMix64, TableError, VirtualLane, Weight};
use iba_traffic::ConnectionRequest;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Domain-separation constant for trace generation.
const TRACE_SEED: u64 = 0x5E87_EACE_5EED;
/// Domain-separation constant for table corruption (the same one the
/// single-stream [`QosManager::corrupt_tables`] uses).
const CORRUPT_SEED: u64 = 0x07AB_1EC0_5EED;
/// Odd multiplier spreading a port's stable code into a sub-seed.
const KEY_SPREAD: u64 = 0x9E37_79B9_7F4A_7C15;
/// Ring capacity of each shard's request tracer (16-byte records; the
/// ring keeps the newest protocol stages when a long trace overflows
/// it).
const SHARD_TRACE_CAP: usize = 16384;
/// Domain-separation constant for control-plane fault plans.
const SERVE_FAULT_SEED: u64 = 0xC0DE_FA17_5EED;

/// One operation of a request trace, addressed by request id (`rid`).
#[derive(Clone, Debug)]
pub enum TraceOp {
    /// Admit a connection (the request's `id` is the trace `rid`).
    Admit(ConnectionRequest),
    /// Tear down the connection admitted under this `rid` (a no-op
    /// outcome when it was rejected, already torn down, or unknown).
    Teardown(u32),
    /// Damage every table with seed-keyed corruption, then repair all
    /// of them (the chaos drill as a trace citizen).
    ///
    /// Repair evicts and re-admits sequences under fresh ids, so the
    /// hop reservations of connections admitted earlier go stale — a
    /// stale release could alias a rebuilt sequence. A repair
    /// therefore **invalidates every live connection handle**:
    /// tearing one down afterwards reports `TornDown(false)`.
    Repair {
        /// Seed for both the corruption and the repair streams.
        seed: u64,
    },
}

/// The outcome of one trace operation — the unit of the differential
/// test: a sharded run must produce the exact same outcome vector as
/// the sequential manager.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TraceOutcome {
    /// The connection was admitted end to end.
    Admitted {
        /// The request id now live.
        rid: u32,
    },
    /// The request was rejected (with the failing hop where the
    /// reason has one).
    Rejected(RejectReason),
    /// Teardown result: `true` when a live connection was released.
    TornDown(bool),
    /// Corruption + repair pass over every table.
    Repaired {
        /// Damage operations injected before the repair.
        damage: usize,
        /// Aggregated repair summary across all tables.
        summary: RecoverySummary,
    },
}

/// Parameters of [`generate_trace`].
#[derive(Clone, Copy, Debug)]
pub struct TraceConfig {
    /// Hosts addressable by generated requests (`src`/`dst < hosts`).
    pub hosts: u16,
    /// Operations to generate.
    pub len: usize,
    /// Seed of the trace stream.
    pub seed: u64,
    /// Percentage of operations that are corrupt+repair drills
    /// (0 disables them — required by the strict weight-conservation
    /// invariant, which repair evictions legitimately break).
    pub repair_pct: u8,
}

impl TraceConfig {
    /// The standard admit-heavy mix: ~60% admits (loaded enough to
    /// force mid-path rejections and rollbacks), ~32% teardowns of
    /// earlier requests, 8% repair drills.
    #[must_use]
    pub fn new(hosts: u16, seed: u64, len: usize) -> Self {
        TraceConfig {
            hosts,
            len,
            seed,
            repair_pct: 8,
        }
    }
}

/// Generates a seeded admit/teardown/repair trace. Request ids are the
/// operation indices, so every `rid` is unique and teardowns of
/// rejected or double-torn requests occur naturally.
#[must_use]
pub fn generate_trace(cfg: &TraceConfig) -> Vec<TraceOp> {
    let mut rng = SplitMix64::seed_from_u64(cfg.seed ^ TRACE_SEED);
    let hosts = cfg.hosts.max(2);
    let mut ops = Vec::with_capacity(cfg.len);
    for i in 0..cfg.len {
        let roll = rng.next_u64() % 100;
        let repair_band = u64::from(cfg.repair_pct.min(100));
        let teardown_band = repair_band + 32;
        if i > 0 && roll < repair_band {
            ops.push(TraceOp::Repair {
                seed: rng.next_u64(),
            });
        } else if i > 0 && roll < teardown_band {
            ops.push(TraceOp::Teardown((rng.next_u64() % i as u64) as u32));
        } else {
            let src = (rng.next_u64() % u64::from(hosts)) as u16;
            let dst = ((u64::from(src) + 1 + rng.next_u64() % u64::from(hosts - 1))
                % u64::from(hosts)) as u16;
            let distance = match rng.next_u64() % 4 {
                0 => Distance::D8,
                1 => Distance::D16,
                2 => Distance::D32,
                _ => Distance::D64,
            };
            // Large enough that a handful of connections saturate a
            // port (forcing mid-path rejections), small enough that
            // plenty are admitted.
            let mean_bw_mbps = (1 + rng.next_u64() % 50) as f64 * 10.0;
            // `% 13` keeps the id in the paper's 13 QoS SLs, so the
            // constructor cannot fail; the else arm is unreachable.
            if let Some(sl) = ServiceLevel::new((rng.next_u64() % 13) as u8) {
                ops.push(TraceOp::Admit(ConnectionRequest {
                    id: i as u32,
                    src: iba_topo::HostId(src),
                    dst: iba_topo::HostId(dst),
                    sl,
                    distance,
                    mean_bw_mbps,
                    packet_bytes: 256,
                }));
            } else {
                ops.push(TraceOp::Teardown(0));
            }
        }
    }
    ops
}

/// Per-table sub-seed for a port's corruption/repair streams: the
/// trace seed spread by the port's stable code, so the stream is a
/// property of the *table*, not of whichever shard happens to own it.
fn keyed_seed(seed: u64, key: PortKey) -> u64 {
    seed ^ key.stable_code().wrapping_mul(KEY_SPREAD)
}

/// Deterministically corrupts every touched table of a registry, each
/// with its own [`SplitMix64`] stream keyed by the port's stable code.
/// Returns the number of damage operations applied.
///
/// Unlike [`QosManager::corrupt_tables`] (one stream walked across all
/// tables in key order) the per-table keying makes the damage
/// independent of which other tables sit in the same registry — the
/// property that lets shards corrupt their partitions in isolation and
/// still match a sequential pass over the whole registry.
pub fn corrupt_tables_keyed(tables: &mut PortTables, seed: u64) -> usize {
    let mut ops = 0;
    for key in tables.sorted_keys() {
        let mut rng = SplitMix64::seed_from_u64(keyed_seed(seed ^ CORRUPT_SEED, key));
        if let Some(t) = tables.get_table_mut(key) {
            ops += t.inject_corruption(&mut rng);
        }
    }
    ops
}

/// Repairs every touched table of a registry with a fresh
/// [`RecoveryManager`] per table, seeded by the port's stable code —
/// the shard-invariant counterpart of
/// [`QosManager::repair_tables`]. Returns the field-wise sum of the
/// per-table summaries.
pub fn repair_tables_keyed(
    tables: &mut PortTables,
    seed: u64,
    rec: &mut dyn iba_obs::Recorder,
) -> RecoverySummary {
    let mut total = RecoverySummary::default();
    for key in tables.sorted_keys() {
        let mut recovery = RecoveryManager::new(keyed_seed(seed, key));
        if let Some(t) = tables.get_table_mut(key) {
            let s = recovery.repair_table(t, rec);
            total.tables += s.tables;
            total.repaired += s.repaired;
            total.evicted += s.evicted;
            total.reinstalled += s.reinstalled;
            total.lost += s.lost;
        }
    }
    total
}

/// Applies a trace to the single-owner [`QosManager`] — the reference
/// the sharded service is differentially tested against. Teardowns
/// address requests by `rid` through a private map, so a double
/// teardown can never hit a recycled connection slot.
pub fn apply_trace_sequential(
    mgr: &mut QosManager,
    ops: &[TraceOp],
    rec: &mut dyn iba_obs::Recorder,
) -> Vec<TraceOutcome> {
    let mut ids: BTreeMap<u32, ConnectionId> = BTreeMap::new();
    ops.iter()
        .enumerate()
        .map(|(i, op)| {
            let outcome = match op {
                TraceOp::Admit(req) => match mgr.request_observed(req, rec) {
                    Ok(id) => {
                        ids.insert(req.id, id);
                        TraceOutcome::Admitted { rid: req.id }
                    }
                    Err(e) => TraceOutcome::Rejected(e),
                },
                TraceOp::Teardown(rid) => {
                    let torn = ids
                        .remove(rid)
                        .map(|id| mgr.teardown_observed(id, rec))
                        .unwrap_or(false);
                    TraceOutcome::TornDown(torn)
                }
                TraceOp::Repair { seed } => {
                    let damage = corrupt_tables_keyed(mgr.tables_mut(), *seed);
                    let summary = repair_tables_keyed(mgr.tables_mut(), *seed, rec);
                    // Repair invalidates the live handles (see TraceOp).
                    ids.clear();
                    TraceOutcome::Repaired { damage, summary }
                }
            };
            // One logical tick per applied op — the same clock the
            // sharded coordinator advances per finalized op, so a
            // timeline attached to either recorder windows identically.
            rec.tick((i + 1) as u64);
            outcome
        })
        .collect()
}

/// A connection still live when the trace ended (weight-conservation
/// audits sum `weight × hops` over these).
#[derive(Clone, Debug)]
pub struct LiveConn {
    /// The request id.
    pub rid: u32,
    /// Per-hop reserved weight.
    pub weight: Weight,
    /// Per-hop reservations, source-side first.
    pub hops: Vec<HopReservation>,
}

/// What a sharded trace run produced.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Per-operation outcomes, in trace order.
    pub outcomes: Vec<TraceOutcome>,
    /// The reassembled port tables (union of all shard partitions).
    pub tables: PortTables,
    /// Admitted requests.
    pub accepted: u64,
    /// Rejected requests (planner and table rejections).
    pub rejected: u64,
    /// Live connections released by teardowns.
    pub released: u64,
    /// Connections still live at the end, in `rid` order.
    pub live: Vec<LiveConn>,
    /// Per-request causal trace records (`TraceEvent::Request` only),
    /// drained from the coordinator's ring first and then each
    /// shard's in shard order — a deterministic input for
    /// `iba_obs::request::reassemble`. Empty when the coordinator's
    /// recorder carries no tracer.
    pub request_records: Vec<(u64, iba_obs::TraceEvent)>,
    /// Each shard's write-ahead intent journal (indexed by shard) at
    /// the end of the trace — the exactly-once ledger's raw material.
    pub journals: Vec<IntentJournal>,
    /// What the fault engine injected and survived (all zeros on an
    /// unfaulted run).
    pub fault_stats: FaultStats,
}

/// The shard owning an output port: a pure function of the port's
/// stable code, independent of process, registry contents and trace.
#[must_use]
pub fn shard_of(key: PortKey, shards: usize) -> usize {
    (key.stable_code() % shards.max(1) as u64) as usize
}

/// Everything a shard needs to evaluate one admission hop. Public so
/// the [`IntentJournal`] can record commit/abort intents verbatim.
#[derive(Clone, Copy, Debug)]
pub struct AdmitSpec {
    /// Service level of the request.
    pub sl: ServiceLevel,
    /// Virtual lane the SL maps to.
    pub vl: VirtualLane,
    /// Contracted inter-service distance.
    pub distance: Distance,
    /// Per-hop reserved weight.
    pub weight: Weight,
}

#[cfg(test)]
impl AdmitSpec {
    pub(crate) fn test_default() -> Self {
        AdmitSpec {
            sl: ServiceLevel::new(0).unwrap(),
            vl: VirtualLane::data(0),
            distance: Distance::D16,
            weight: 10,
        }
    }
}

/// One hop's vote: path index and the exact admission result.
type HopVote = (usize, Result<(), TableError>);

/// The protocol phase a control-plane fault attaches to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProtocolPhase {
    /// The non-mutating per-hop vote.
    Vote,
    /// The commit batch (reserve every owned hop).
    Commit,
    /// The mutation-faithful rollback replay.
    Abort,
    /// A teardown's release batch.
    Release,
    /// The corrupt-and-repair drill.
    Repair,
}

impl ProtocolPhase {
    /// Stable code, used in idempotency-cache and dedup keys.
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            ProtocolPhase::Vote => 0,
            ProtocolPhase::Commit => 1,
            ProtocolPhase::Abort => 2,
            ProtocolPhase::Release => 3,
            ProtocolPhase::Repair => 4,
        }
    }
}

/// Where inside a message's processing the shard crashes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CrashPoint {
    /// After journaling the intent, before any table mutation.
    BeforeAct,
    /// Mid-batch: after the first hop's mutation, before the rest.
    MidBatch,
    /// After every mutation and the journal's done marker, before the
    /// reply is sent (the reply is lost with the shard).
    BeforeReply,
}

/// The kind of control-plane fault to inject.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ServeFaultKind {
    /// The shard processing the message crashes at the given point
    /// and is supervised-restarted (journal replay), losing its
    /// volatile state and the pending reply.
    Crash(CrashPoint),
    /// The coordinator→shard message is lost in flight; the
    /// deterministic timeout fires and the coordinator re-sends.
    MsgLoss,
    /// The message is delayed past the timeout: the retry *and* the
    /// late original are both delivered (duplicate delivery), which
    /// exercises the shard-side idempotency cache.
    MsgDelay,
    /// The shard→coordinator reply is lost; the timeout fires and the
    /// retried message is answered from the reply cache.
    ReplyLoss,
}

/// One scheduled fault: applies to the first delivery of the given
/// phase of trace operation `op`, on the lowest participating shard
/// (a pure function of the trace, so the set of *consumed* faults is
/// identical at any shard count).
#[derive(Clone, Copy, Debug)]
pub struct ServeFault {
    /// Trace operation index the fault targets.
    pub op: u32,
    /// Protocol phase it fires in (unconsumed if the op never reaches
    /// that phase — e.g. a Commit fault on a rejected admission).
    pub phase: ProtocolPhase,
    /// What happens.
    pub kind: ServeFaultKind,
}

/// A seeded, deterministic control-plane fault plan.
#[derive(Clone, Debug, Default)]
pub struct ServeFaultPlan {
    /// Seed the plan was generated from (also seeds the coordinator's
    /// retry-backoff jitter).
    pub seed: u64,
    /// Scheduled faults, in generation order.
    pub faults: Vec<ServeFault>,
}

impl ServeFaultPlan {
    /// The empty plan: [`run_trace_faulted`] degenerates to
    /// [`run_trace`].
    #[must_use]
    pub fn none() -> Self {
        ServeFaultPlan::default()
    }

    /// Generates a plan over a trace: each operation draws one fault
    /// with probability `intensity_pct`%, uniformly across the fault
    /// kinds and across the phases its op type can reach.
    #[must_use]
    pub fn generate(seed: u64, ops: &[TraceOp], intensity_pct: u8) -> Self {
        let mut rng = SplitMix64::seed_from_u64(seed ^ SERVE_FAULT_SEED);
        let mut faults = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            let roll = rng.next_u64() % 100;
            let phase_draw = rng.next_u64();
            let kind_draw = rng.next_u64();
            if roll >= u64::from(intensity_pct.min(100)) {
                continue;
            }
            let phase = match op {
                TraceOp::Admit(_) => match phase_draw % 3 {
                    0 => ProtocolPhase::Vote,
                    1 => ProtocolPhase::Commit,
                    _ => ProtocolPhase::Abort,
                },
                TraceOp::Teardown(_) => ProtocolPhase::Release,
                TraceOp::Repair { .. } => ProtocolPhase::Repair,
            };
            let kind = match kind_draw % 6 {
                0 => ServeFaultKind::Crash(CrashPoint::BeforeAct),
                1 => ServeFaultKind::Crash(CrashPoint::MidBatch),
                2 => ServeFaultKind::Crash(CrashPoint::BeforeReply),
                3 => ServeFaultKind::MsgLoss,
                4 => ServeFaultKind::MsgDelay,
                _ => ServeFaultKind::ReplyLoss,
            };
            faults.push(ServeFault {
                op: i as u32,
                phase,
                kind,
            });
        }
        ServeFaultPlan { seed, faults }
    }

    /// Threads the control-plane fault kinds of a data-plane fault
    /// calendar ([`iba_sim::fault::FaultPlan`]) into a serve plan:
    /// `ServeCrash`/`ServeVoteLoss`/`ServeReplyLoss` events map to
    /// crashes, vote loss/delay and reply loss (phase and crash point
    /// derived deterministically from the op index); data-plane events
    /// pass through untouched to whoever drives the simulator.
    #[must_use]
    pub fn from_calendar(plan: &iba_sim::fault::FaultPlan) -> Self {
        let mut faults = Vec::new();
        for (_, action) in &plan.events {
            match *action {
                iba_sim::fault::FaultAction::ServeCrash { op } => {
                    let phase = if op % 2 == 0 {
                        ProtocolPhase::Vote
                    } else {
                        ProtocolPhase::Commit
                    };
                    let point = match op % 3 {
                        0 => CrashPoint::BeforeAct,
                        1 => CrashPoint::MidBatch,
                        _ => CrashPoint::BeforeReply,
                    };
                    faults.push(ServeFault {
                        op,
                        phase,
                        kind: ServeFaultKind::Crash(point),
                    });
                }
                iba_sim::fault::FaultAction::ServeVoteLoss { op } => {
                    let kind = if op % 2 == 0 {
                        ServeFaultKind::MsgLoss
                    } else {
                        ServeFaultKind::MsgDelay
                    };
                    faults.push(ServeFault {
                        op,
                        phase: ProtocolPhase::Vote,
                        kind,
                    });
                }
                iba_sim::fault::FaultAction::ServeReplyLoss { op } => {
                    let phase = if op % 2 == 0 {
                        ProtocolPhase::Vote
                    } else {
                        ProtocolPhase::Commit
                    };
                    faults.push(ServeFault {
                        op,
                        phase,
                        kind: ServeFaultKind::ReplyLoss,
                    });
                }
                _ => {}
            }
        }
        ServeFaultPlan {
            seed: plan.seed,
            faults,
        }
    }

    /// True when the plan schedules nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

/// Fault-tolerance knobs of [`run_trace_faulted`]. The defaults make
/// the faulted engine behave exactly like [`run_trace`]: journal on,
/// queue unbounded, shedding ladder off.
#[derive(Clone, Copy, Debug)]
pub struct ServeOptions {
    /// Retain the write-ahead journal (disable only as the negative
    /// control: a crashed shard then restarts from an empty
    /// partition and every earlier reservation on it is lost).
    pub journal: bool,
    /// Bound on in-flight (dispatched, unfinalized) operations; the
    /// dispatcher backpressures at the bound. Zero is treated as one.
    pub queue_capacity: usize,
    /// Enable the graceful-degradation ladder when the queue is full:
    /// rung 0 sheds admissions below [`ServeOptions::shed_sl_floor`],
    /// rung 1 installs the rest at one [`Distance::looser`] step.
    /// Shedding intentionally diverges from the sequential reference
    /// (requests are refused that it would admit), so differential
    /// audits run with the ladder off.
    pub shed_ladder: bool,
    /// SLs strictly below this are shed first (rung 0).
    pub shed_sl_floor: u8,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            journal: true,
            queue_capacity: usize::MAX,
            shed_ladder: false,
            shed_sl_floor: 4,
        }
    }
}

/// What the fault engine actually injected and survived — all counts
/// are of *consumed* faults, a pure function of the trace and plan
/// (identical at any shard count).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Shard crashes injected (each one forced a journal replay).
    pub crashes: u64,
    /// Coordinator→shard messages lost.
    pub msg_losses: u64,
    /// Messages delayed past the timeout (duplicate deliveries).
    pub msg_delays: u64,
    /// Shard→coordinator replies lost.
    pub reply_losses: u64,
    /// Deterministic timeouts fired (= retries sent).
    pub timeouts: u64,
    /// Shedding-ladder actions per rung: `[shed lowest-SL, degraded
    /// install]`.
    pub shed: [u64; 2],
}

/// Coordinator → shard messages. `hops` carry `(path index, key)` in
/// ascending path order — the canonical reservation order.
#[derive(Clone)]
enum ToShard {
    Vote {
        op: usize,
        spec: AdmitSpec,
        hops: Vec<(usize, PortKey)>,
    },
    Commit {
        op: usize,
        spec: AdmitSpec,
        hops: Vec<(usize, PortKey)>,
    },
    Abort {
        op: usize,
        spec: AdmitSpec,
        hops: Vec<(usize, PortKey)>,
        fail_at: usize,
    },
    Release {
        op: usize,
        weight: Weight,
        hops: Vec<(usize, HopReservation)>,
    },
    Repair {
        op: usize,
        seed: u64,
    },
}

impl ToShard {
    /// The trace operation and protocol phase this message drives.
    fn op_phase(&self) -> (usize, ProtocolPhase) {
        match self {
            ToShard::Vote { op, .. } => (*op, ProtocolPhase::Vote),
            ToShard::Commit { op, .. } => (*op, ProtocolPhase::Commit),
            ToShard::Abort { op, .. } => (*op, ProtocolPhase::Abort),
            ToShard::Release { op, .. } => (*op, ProtocolPhase::Release),
            ToShard::Repair { op, .. } => (*op, ProtocolPhase::Repair),
        }
    }
}

/// One delivery of a message to a shard. `crash` carries a scripted
/// crash for this delivery (`None` on the unfaulted path and on every
/// retry); `epoch` is the idempotency-key epoch the coordinator stamped
/// at dispatch.
struct Envelope {
    epoch: u32,
    crash: Option<CrashPoint>,
    msg: ToShard,
}

/// Shard → coordinator replies. A shard caches each reply it sends
/// under the message's idempotency key, so a retry is answered with a
/// clone instead of being re-executed.
#[derive(Clone)]
enum FromShard {
    Voted {
        op: usize,
        votes: Vec<HopVote>,
    },
    Committed {
        op: usize,
        hops: Vec<(usize, HopReservation)>,
    },
    Aborted {
        op: usize,
        error: Option<TableError>,
    },
    Released {
        op: usize,
    },
    Repaired {
        op: usize,
        damage: usize,
        summary: RecoverySummary,
    },
}

/// Coordinator-side state of one dispatched, unfinalized operation.
enum OpState {
    /// Outcome known; waiting for its in-order finalize turn.
    Resolved(Resolution),
    /// Admission: waiting for `waiting` shards' votes.
    Voting {
        rid: u32,
        spec: AdmitSpec,
        path: Vec<PortKey>,
        participants: Vec<usize>,
        waiting: usize,
        votes: Vec<HopVote>,
    },
    /// Admission: all votes yes, waiting for shard commits.
    Committing {
        rid: u32,
        spec: AdmitSpec,
        waiting: usize,
        hops: Vec<(usize, HopReservation)>,
    },
    /// Admission: vote failed at `fail_key`, shards rolling back.
    Aborting {
        fail_key: PortKey,
        waiting: usize,
        error: Option<TableError>,
    },
    /// Teardown: waiting for shard releases.
    Releasing { waiting: usize },
    /// Repair drill: waiting for every shard's pass.
    Repairing {
        waiting: usize,
        damage: usize,
        summary: RecoverySummary,
    },
}

/// A resolved operation, ready to finalize.
enum Resolution {
    Admitted {
        rid: u32,
        sl: u8,
        weight: Weight,
        hops: Vec<HopReservation>,
    },
    Rejected(RejectReason),
    TornDown(bool),
    Repaired {
        damage: usize,
        summary: RecoverySummary,
    },
}

fn reject_for(error: Option<TableError>, key: PortKey) -> RejectReason {
    match error {
        Some(TableError::NoFreeSequence) => RejectReason::NoFreeSequence(key),
        Some(TableError::CapacityExceeded) => RejectReason::CapacityExceeded(key),
        Some(TableError::RequestTooLarge) => RejectReason::RequestTooLarge,
        _ => RejectReason::InvalidRequest,
    }
}

/// Reserves every hop of a commit batch in ascending path order.
/// `live` meters the protocol counters and stage events; journal
/// replay re-applies the mutations without re-counting protocol
/// actions (allocator-level metering inside `admit_at` still runs).
fn apply_commit(
    tables: &mut PortTables,
    op: usize,
    spec: AdmitSpec,
    hops: &[(usize, PortKey)],
    rec: &mut iba_obs::ObsRecorder,
    lane: u8,
    live: bool,
) -> Vec<(usize, HopReservation)> {
    use iba_obs::{request_stage, Recorder};
    let mut done = Vec::with_capacity(hops.len());
    for &(i, k) in hops {
        if let Ok(h) = tables.admit_at(k, spec.sl, spec.vl, spec.distance, spec.weight, rec) {
            if live {
                rec.serve_shard_admit(lane);
                rec.request_stage(op as u32, request_stage::COMMIT, lane, i as u8);
            }
            done.push((i, h));
        }
    }
    done
}

/// The mutation-faithful rollback replay (see module docs): admit the
/// owned hops below the failing index, re-run the failing admission,
/// then roll back in descending path order.
fn apply_abort(
    tables: &mut PortTables,
    spec: AdmitSpec,
    hops: &[(usize, PortKey)],
    fail_at: usize,
    rec: &mut iba_obs::ObsRecorder,
    lane: u8,
    live: bool,
) -> Option<TableError> {
    use iba_obs::Recorder;
    let mut done: Vec<(usize, HopReservation)> = Vec::new();
    for &(i, k) in hops.iter().filter(|&&(i, _)| i < fail_at) {
        if let Ok(h) = tables.admit_at(k, spec.sl, spec.vl, spec.distance, spec.weight, rec) {
            done.push((i, h));
        }
    }
    assert!(
        done.len() == hops.iter().filter(|&&(i, _)| i < fail_at).count(),
        "vote/rollback divergence on shard {lane}"
    );
    // Replay the failing admission (recording the same allocator
    // probes the sequential path records)...
    let mut error = None;
    if let Some(&(_, k)) = hops.iter().find(|&&(i, _)| i == fail_at) {
        match tables.admit_at(k, spec.sl, spec.vl, spec.distance, spec.weight, rec) {
            Err(e) => {
                error = Some(e);
                if live {
                    rec.serve_shard_reject(lane);
                }
            }
            Ok(h) => {
                // Undo the stray reservation before the invariant
                // below reports the divergence.
                let _ = tables.release_hop(h, spec.weight);
            }
        }
        assert!(
            error.is_some(),
            "aborted hop admitted despite a failing vote on shard {lane}"
        );
    }
    // ...then roll back in descending path order, exactly like the
    // sequential transaction.
    if live && !done.is_empty() {
        rec.serve_shard_rollback(lane);
    }
    for &(_, h) in done.iter().rev() {
        let _ = tables.release_hop(h, spec.weight);
    }
    error
}

/// Releases a teardown's hops in descending path order, mirroring
/// `release_path`. A failed hop (evicted by an earlier repair) is
/// absorbed exactly like the sequential teardown does.
fn apply_release(tables: &mut PortTables, weight: Weight, hops: &[(usize, HopReservation)]) {
    for &(_, h) in hops.iter().rev() {
        let _ = tables.release_hop(h, weight);
    }
}

/// One shard of the service: it exclusively owns one partition of the
/// port tables and executes the coordinator's protocol messages in
/// delivery order. The tables and the reply cache are its volatile
/// state — exactly what a crash destroys. The journal is the durable
/// WAL; the recorder models the external observability backplane.
struct Shard {
    id: usize,
    tables: PortTables,
    /// The idempotency cache: the reply sent for each `(OpKey, phase
    /// code)`. Rebuilt from the journal on restart, so a retry whose
    /// original landed before a crash is still answered without
    /// re-execution.
    cache: BTreeMap<(OpKey, u8), FromShard>,
    journal: IntentJournal,
    rec: iba_obs::ObsRecorder,
}

impl Shard {
    fn new(id: usize, base: &PortTables, journal: bool) -> Self {
        Shard {
            id,
            tables: base.empty_like(),
            cache: BTreeMap::new(),
            journal: IntentJournal::new(journal),
            rec: iba_obs::ObsRecorder::with_tracer(SHARD_TRACE_CAP),
        }
    }

    /// Executes one delivery, honoring its scripted crash point and the
    /// idempotency cache. Returns the reply, or `None` when the
    /// scripted crash took the shard down before it could answer.
    fn step(&mut self, base: &PortTables, env: Envelope) -> Option<FromShard> {
        use iba_obs::{request_stage, Recorder};
        let lane = self.id as u8;
        let (op, phase) = env.msg.op_phase();
        let key: OpKey = (env.epoch, op as u32);
        self.rec.tick(op as u64);
        // Idempotent retry: a re-delivered message whose transaction
        // already completed is answered from the cache — never
        // re-executed, so a retried Commit cannot double-reserve.
        if let Some(cached) = self.cache.get(&(key, phase.code())) {
            return Some(cached.clone());
        }
        let intent = match &env.msg {
            ToShard::Vote { spec, hops, .. } => {
                return self.vote(base, key, *spec, hops, env.crash);
            }
            ToShard::Commit { spec, hops, .. } => JournalRecord::CommitIntent {
                key,
                spec: *spec,
                hops: hops.clone(),
            },
            ToShard::Abort {
                spec,
                hops,
                fail_at,
                ..
            } => JournalRecord::AbortIntent {
                key,
                spec: *spec,
                hops: hops.clone(),
                fail_at: *fail_at,
            },
            ToShard::Release { weight, hops, .. } => JournalRecord::ReleaseIntent {
                key,
                weight: *weight,
                hops: hops.clone(),
            },
            ToShard::Repair { seed, .. } => JournalRecord::RepairIntent { key, seed: *seed },
        };
        // Write-ahead: the intent is durable before any mutation, so
        // every crash below rolls forward on restart.
        self.journal.append(intent.clone());
        if let ToShard::Abort { fail_at, .. } = env.msg {
            self.rec
                .request_stage(op as u32, request_stage::ABORT, lane, fail_at as u8);
        }
        match (env.crash, &env.msg) {
            (Some(CrashPoint::BeforeAct), _) => return self.crash_restart(base),
            (Some(CrashPoint::MidBatch), ToShard::Commit { spec, hops, .. }) => {
                // First hop reserved, rest of the batch lost with the
                // shard — the half-committed transaction.
                let first = &hops[..hops.len().min(1)];
                let _ = apply_commit(
                    &mut self.tables,
                    op,
                    *spec,
                    first,
                    &mut self.rec,
                    lane,
                    true,
                );
                return self.crash_restart(base);
            }
            (Some(CrashPoint::MidBatch), ToShard::Release { weight, hops, .. }) => {
                // Release the last hop (descending order starts there).
                apply_release(
                    &mut self.tables,
                    *weight,
                    &hops[hops.len().saturating_sub(1)..],
                );
                return self.crash_restart(base);
            }
            // Abort and repair go down inside the act; the journal
            // rolls the whole transaction forward.
            (Some(CrashPoint::MidBatch), _) => return self.crash_restart(base),
            _ => {}
        }
        let (reply, done) = self.apply(&intent, true)?;
        self.journal.append(done);
        if env.crash == Some(CrashPoint::BeforeReply) {
            return self.crash_restart(base);
        }
        Some(reply)
    }

    /// The non-mutating per-hop vote. It journals its result so a
    /// restart can still answer a retry from the cache.
    fn vote(
        &mut self,
        base: &PortTables,
        key: OpKey,
        spec: AdmitSpec,
        hops: &[(usize, PortKey)],
        crash: Option<CrashPoint>,
    ) -> Option<FromShard> {
        use iba_obs::{request_stage, Recorder};
        let (op, lane) = (key.1 as usize, self.id as u8);
        let probes = match crash {
            Some(CrashPoint::BeforeAct) => 0,
            // Probe the first hop, then go down mid-batch.
            Some(CrashPoint::MidBatch) => hops.len().min(1),
            _ => hops.len(),
        };
        let mut votes: Vec<HopVote> = Vec::with_capacity(probes);
        for &(i, k) in &hops[..probes] {
            self.rec
                .request_stage(op as u32, request_stage::VOTE, lane, i as u8);
            let vote = self
                .tables
                .probe_admit(k, spec.sl, spec.distance, spec.weight);
            votes.push((i, vote));
        }
        if matches!(crash, Some(CrashPoint::BeforeAct | CrashPoint::MidBatch)) {
            return self.crash_restart(base);
        }
        self.journal.append(JournalRecord::Voted {
            key,
            votes: votes.clone(),
        });
        let reply = FromShard::Voted { op, votes };
        self.cache
            .insert((key, ProtocolPhase::Vote.code()), reply.clone());
        if crash == Some(CrashPoint::BeforeReply) {
            return self.crash_restart(base);
        }
        Some(reply)
    }

    /// Applies one intent against the partition and caches its reply.
    /// Returns the reply and the done marker that closes the intent
    /// (`None` for a record that is not an intent). `live` is false on
    /// journal replay, which re-applies mutations without re-counting
    /// protocol actions.
    fn apply(&mut self, intent: &JournalRecord, live: bool) -> Option<(FromShard, JournalRecord)> {
        let (lane, key) = (self.id as u8, intent.key());
        let op = key.1 as usize;
        let (phase, reply, done) = match intent {
            JournalRecord::CommitIntent { spec, hops, .. } => {
                let done =
                    apply_commit(&mut self.tables, op, *spec, hops, &mut self.rec, lane, live);
                // The conflict gate guarantees nothing touched these
                // tables since the vote, so every voted-yes hop commits.
                assert!(
                    done.len() == hops.len(),
                    "vote/commit divergence on shard {lane}"
                );
                let reply = FromShard::Committed { op, hops: done };
                (
                    ProtocolPhase::Commit,
                    reply,
                    JournalRecord::CommitDone { key },
                )
            }
            JournalRecord::AbortIntent {
                spec,
                hops,
                fail_at,
                ..
            } => {
                let tables = &mut self.tables;
                let error = apply_abort(tables, *spec, hops, *fail_at, &mut self.rec, lane, live);
                let reply = FromShard::Aborted { op, error };
                (
                    ProtocolPhase::Abort,
                    reply,
                    JournalRecord::AbortDone { key },
                )
            }
            JournalRecord::ReleaseIntent { weight, hops, .. } => {
                apply_release(&mut self.tables, *weight, hops);
                let reply = FromShard::Released { op };
                (
                    ProtocolPhase::Release,
                    reply,
                    JournalRecord::ReleaseDone { key },
                )
            }
            JournalRecord::RepairIntent { seed, .. } => {
                let damage = corrupt_tables_keyed(&mut self.tables, *seed);
                let summary = repair_tables_keyed(&mut self.tables, *seed, &mut self.rec);
                let reply = FromShard::Repaired {
                    op,
                    damage,
                    summary,
                };
                (
                    ProtocolPhase::Repair,
                    reply,
                    JournalRecord::RepairDone { key },
                )
            }
            _ => return None,
        };
        self.cache.insert((key, phase.code()), reply.clone());
        Some((reply, done))
    }

    /// A scripted crash: discard the volatile state and run the
    /// supervised restart, which rebuilds the partition and the reply
    /// cache by replaying the journal against a fresh empty partition.
    /// Completed intent/done pairs are re-applied in order; the
    /// dangling tail intent (the transaction the crash interrupted) is
    /// rolled forward and closed in the journal. Every table mutation
    /// is deterministic, so the rebuilt partition is byte-identical to
    /// the crash-free one. The pending reply is lost with the shard
    /// (always `None`): the engine's deterministic timeout retries.
    fn crash_restart(&mut self, base: &PortTables) -> Option<FromShard> {
        use iba_obs::Recorder;
        let lane = self.id as u8;
        self.rec.serve_crash(lane);
        self.tables = base.empty_like();
        self.cache.clear();
        let records: Vec<JournalRecord> = self.journal.records().to_vec();
        let mut open: Option<&JournalRecord> = None;
        for r in &records {
            match r {
                JournalRecord::Voted { key, votes } => {
                    let reply = FromShard::Voted {
                        op: key.1 as usize,
                        votes: votes.clone(),
                    };
                    self.cache.insert((*key, ProtocolPhase::Vote.code()), reply);
                }
                _ if r.is_done() => {
                    if let Some(intent) = open.take() {
                        let _ = self.apply(intent, false);
                    }
                }
                _ => open = Some(r),
            }
        }
        // Roll the interrupted transaction forward and close it.
        if let Some((_, done)) = open.and_then(|intent| self.apply(intent, false)) {
            self.journal.append(done);
        }
        self.rec
            .serve_journal_replay(lane, self.journal.len() as u64);
        None
    }
}

/// What the coordinator decided to do with the next trace operation.
enum Dispatch {
    /// Resolved locally, no shard involved.
    Local(Resolution),
    /// Admission voted across `participants`.
    Admit {
        rid: u32,
        spec: AdmitSpec,
        path: Vec<PortKey>,
        participants: Vec<usize>,
    },
    /// Teardown released across `participants`.
    Teardown {
        weight: Weight,
        hops: Vec<HopReservation>,
        participants: Vec<usize>,
    },
    /// Repair drill across every shard.
    Repair { seed: u64 },
}

/// The output port a hop reservation sits on.
fn hop_key(h: &HopReservation) -> PortKey {
    PortKey {
        node: h.node,
        port: h.port,
    }
}

/// Shards of a hop list, ascending and deduplicated.
fn participants_of(keys: &[PortKey], shards: usize) -> Vec<usize> {
    let mut out: Vec<usize> = keys.iter().map(|&k| shard_of(k, shards)).collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// The `(path index, item)` pairs of `items` whose port shard `s` owns.
fn owned_by<T: Copy>(
    items: &[T],
    key: impl Fn(&T) -> PortKey,
    shards: usize,
    s: usize,
) -> Vec<(usize, T)> {
    items
        .iter()
        .enumerate()
        .filter(|&(_, t)| shard_of(key(t), shards) == s)
        .map(|(i, &t)| (i, t))
        .collect()
}

/// The in-process network plus its fault engine. It delivers every
/// message by stepping the addressed [`Shard`] directly and queues the
/// reply for the coordinator, consuming the plan's scheduled faults on
/// the way and metering the deterministic timeouts that stand in for
/// wall-clock expiry.
///
/// Faults target the **lowest** participating shard of their op (a
/// pure function of the trace), so the set of consumed faults — and
/// with it every count in [`FaultStats`] — is identical at any shard
/// count.
struct FaultEngine<'a> {
    base: &'a PortTables,
    shards: Vec<Shard>,
    /// Replies not yet consumed by the coordinator, in delivery order.
    replies: VecDeque<FromShard>,
    faults: Vec<ServeFault>,
    backoff: Backoff,
    /// Retry attempt counter per op (drives the backoff exponent).
    attempts: BTreeMap<usize, u32>,
    stats: FaultStats,
    /// Idempotency-key epoch, bumped by every finalized repair drill.
    epoch: u32,
}

impl<'a> FaultEngine<'a> {
    fn new(plan: &ServeFaultPlan, base: &'a PortTables, shards: usize, journal: bool) -> Self {
        FaultEngine {
            base,
            shards: (0..shards).map(|s| Shard::new(s, base, journal)).collect(),
            replies: VecDeque::new(),
            faults: plan.faults.clone(),
            backoff: Backoff::new(plan.seed ^ SERVE_FAULT_SEED, RetryPolicy::default()),
            attempts: BTreeMap::new(),
            stats: FaultStats::default(),
            epoch: 0,
        }
    }

    /// Consumes the scheduled fault for this op and phase: a crash,
    /// loss or delay first, a reply loss only when none of those is
    /// scheduled.
    fn take_fault(&mut self, op: u32, phase: ProtocolPhase) -> Option<ServeFaultKind> {
        let scheduled = |f: &ServeFault, reply_loss: bool| {
            f.op == op && f.phase == phase && (f.kind == ServeFaultKind::ReplyLoss) == reply_loss
        };
        let idx = self
            .faults
            .iter()
            .position(|f| scheduled(f, false))
            .or_else(|| self.faults.iter().position(|f| scheduled(f, true)))?;
        Some(self.faults.swap_remove(idx).kind)
    }

    /// A deterministic timeout expiry: draws the next backoff delay
    /// (advancing the seeded jitter stream) and meters it. The retry
    /// the caller delivers right after models the post-timeout re-send.
    fn timeout(&mut self, shard: usize, op: usize, rec: &mut iba_obs::ObsRecorder) {
        use iba_obs::Recorder;
        let attempt = self.attempts.entry(op).or_insert(0);
        let delay = self.backoff.delay(*attempt);
        *attempt += 1;
        self.stats.timeouts += 1;
        rec.serve_timeout(shard as u8, delay);
    }

    /// Delivers one message to `shard`. `is_target` marks the op's
    /// designated fault-target shard (the lowest participant); every
    /// other shard always gets a clean delivery.
    fn send(
        &mut self,
        shard: usize,
        is_target: bool,
        msg: ToShard,
        rec: &mut iba_obs::ObsRecorder,
    ) {
        let (op, phase) = msg.op_phase();
        let fault = if is_target {
            self.take_fault(op as u32, phase)
        } else {
            None
        };
        let reply = match fault {
            None => self.deliver(shard, None, msg),
            Some(ServeFaultKind::Crash(point)) => {
                // The shard goes down without replying, the timeout
                // fires and the clean retry lands on the restarted
                // shard (its cache absorbs it if the transaction
                // rolled forward).
                self.stats.crashes += 1;
                let _ = self.deliver(shard, Some(point), msg.clone());
                self.timeout(shard, op, rec);
                self.deliver(shard, None, msg)
            }
            Some(ServeFaultKind::MsgLoss) => {
                // First delivery lost in flight: only the post-timeout
                // retry reaches the shard.
                self.stats.msg_losses += 1;
                self.timeout(shard, op, rec);
                self.deliver(shard, None, msg)
            }
            Some(ServeFaultKind::MsgDelay) => {
                // Delayed past the timeout: the original AND the retry
                // both arrive. The cache answers the duplicate, whose
                // reply the coordinator drops.
                self.stats.msg_delays += 1;
                let first = self.deliver(shard, None, msg.clone());
                self.timeout(shard, op, rec);
                let _ = self.deliver(shard, None, msg);
                first
            }
            Some(ServeFaultKind::ReplyLoss) => {
                // The reply is lost: the timeout fires and the retry
                // is answered from the cache.
                let _ = self.deliver(shard, None, msg.clone());
                self.stats.reply_losses += 1;
                self.timeout(shard, op, rec);
                self.deliver(shard, None, msg)
            }
        };
        self.replies.extend(reply);
    }

    /// Steps `shard` with one delivery of `msg`.
    fn deliver(
        &mut self,
        shard: usize,
        crash: Option<CrashPoint>,
        msg: ToShard,
    ) -> Option<FromShard> {
        let env = Envelope {
            epoch: self.epoch,
            crash,
            msg,
        };
        self.shards[shard].step(self.base, env)
    }

    /// Sends one message per participant, each carrying the hops of
    /// `path` that shard owns.
    fn send_owned<T: Copy>(
        &mut self,
        participants: &[usize],
        path: &[T],
        key: impl Fn(&T) -> PortKey,
        rec: &mut iba_obs::ObsRecorder,
        msg: impl Fn(Vec<(usize, T)>) -> ToShard,
    ) {
        let target = participants.first().copied().unwrap_or(0);
        for &s in participants {
            let hops = owned_by(path, &key, self.shards.len(), s);
            self.send(s, s == target, msg(hops), rec);
        }
    }
}

/// Runs a trace through the sharded service and returns the report.
///
/// `planner` supplies the topology, routing, SL configuration and
/// table template; its own tables are never touched. Shard metrics
/// (allocator probes, recovery counters, `serve_shard_*`) merge into
/// `rec` alongside the coordinator's admission counters when the run
/// finishes.
///
/// Outcomes and final tables are byte-identical to
/// [`apply_trace_sequential`] on the same trace at **any** shard
/// count; only the `serve_*` metrics depend on the shard count.
pub fn run_trace(
    planner: &QosManager,
    ops: &[TraceOp],
    shards: usize,
    rec: &mut iba_obs::ObsRecorder,
) -> ServeReport {
    run_trace_faulted(
        planner,
        ops,
        shards,
        &ServeFaultPlan::none(),
        &ServeOptions::default(),
        rec,
    )
}

/// [`run_trace`] with a control-plane fault plan and fault-tolerance
/// options. With the empty plan and default options this *is*
/// [`run_trace`]; with faults, the run must still converge to the
/// same outcomes and table bytes — crashes are survived by journal
/// replay, lost messages and replies by deterministic timeouts plus
/// idempotent retries. Only the shedding ladder (off by default) is
/// allowed to diverge from the sequential reference.
pub fn run_trace_faulted(
    planner: &QosManager,
    ops: &[TraceOp],
    shards: usize,
    plan: &ServeFaultPlan,
    opts: &ServeOptions,
    rec: &mut iba_obs::ObsRecorder,
) -> ServeReport {
    use iba_obs::{request_stage, Recorder};
    let shards = shards.max(1);
    // A zero-capacity queue could never dispatch anything.
    let capacity = opts.queue_capacity.max(1);
    let base = planner.port_tables();
    let mut eng = FaultEngine::new(plan, base, shards, opts.journal);

    let n = ops.len();
    let mut outcomes: Vec<TraceOutcome> = Vec::with_capacity(n);
    let mut pending: BTreeMap<usize, OpState> = BTreeMap::new();
    let mut dispatched_at: BTreeMap<usize, usize> = BTreeMap::new();
    let mut claims: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    let mut claimed = vec![false; shards];
    let mut ids: BTreeMap<u32, LiveConn> = BTreeMap::new();
    // Trace indices marked for a rung-1 degraded install when the
    // bounded queue forced them to wait (see ServeOptions).
    let mut degrade: BTreeSet<usize> = BTreeSet::new();
    let (mut accepted, mut rejected, mut released) = (0u64, 0u64, 0u64);
    let (mut next, mut dispatch) = (0usize, 0usize); // finalize / dispatch cursors

    while next < n {
        // Dispatch strictly in trace order while the head of the
        // undispatched suffix is eligible. Stopping at the first
        // ineligible operation (instead of skipping it) is what keeps
        // every per-shard message stream a pure function of the trace.
        while dispatch < n {
            let in_flight = dispatch - next;
            if in_flight >= capacity {
                // The bounded admission queue is full. Without the
                // ladder this is pure backpressure (wait for the
                // pipeline to drain); with it, the degradation ladder
                // acts: rung 0 sheds the lowest SLs outright, rung 1
                // marks the rest for a degraded (looser-distance)
                // install once a slot frees.
                if opts.shed_ladder {
                    match &ops[dispatch] {
                        TraceOp::Admit(req) if req.sl.raw() < opts.shed_sl_floor => {
                            rec.serve_shed(0);
                            eng.stats.shed[0] += 1;
                            rec.serve_queue_depth(in_flight as u64);
                            rec.request_stage(
                                dispatch as u32,
                                request_stage::DISPATCH,
                                0,
                                request_stage::NO_PATH,
                            );
                            dispatched_at.insert(dispatch, next);
                            pending.insert(
                                dispatch,
                                OpState::Resolved(Resolution::Rejected(RejectReason::Overloaded)),
                            );
                            dispatch += 1;
                            continue;
                        }
                        TraceOp::Admit(_) => {
                            degrade.insert(dispatch);
                            break;
                        }
                        _ => break,
                    }
                }
                break;
            }
            let Some(action) = plan_dispatch(
                &ops[dispatch],
                planner,
                shards,
                in_flight,
                &claimed,
                &mut ids,
            ) else {
                break;
            };
            rec.serve_queue_depth(in_flight as u64);
            rec.request_stage(
                dispatch as u32,
                request_stage::DISPATCH,
                0,
                request_stage::NO_PATH,
            );
            dispatched_at.insert(dispatch, next);
            let op = dispatch;
            match action {
                Dispatch::Local(res) => {
                    pending.insert(op, OpState::Resolved(res));
                }
                Dispatch::Admit {
                    rid,
                    mut spec,
                    path,
                    participants,
                } => {
                    if degrade.remove(&op) {
                        // Rung 1: the queue forced this admission to
                        // wait; install it at one looser distance step
                        // so it costs less table bandwidth.
                        if let Some(looser) = spec.distance.looser() {
                            rec.serve_shed(1);
                            eng.stats.shed[1] += 1;
                            spec.distance = looser;
                        }
                    }
                    for &s in &participants {
                        claimed[s] = true;
                    }
                    eng.send_owned(
                        &participants,
                        &path,
                        |&k| k,
                        rec,
                        |hops| ToShard::Vote { op, spec, hops },
                    );
                    claims.insert(op, participants.clone());
                    let waiting = participants.len();
                    pending.insert(
                        op,
                        OpState::Voting {
                            rid,
                            spec,
                            path,
                            participants,
                            waiting,
                            votes: Vec::new(),
                        },
                    );
                }
                Dispatch::Teardown {
                    weight,
                    hops,
                    participants,
                } => {
                    for &s in &participants {
                        claimed[s] = true;
                    }
                    eng.send_owned(&participants, &hops, hop_key, rec, |hops| {
                        ToShard::Release { op, weight, hops }
                    });
                    let waiting = participants.len();
                    claims.insert(op, participants);
                    pending.insert(op, OpState::Releasing { waiting });
                }
                Dispatch::Repair { seed } => {
                    claimed.fill(true);
                    for s in 0..shards {
                        eng.send(s, s == 0, ToShard::Repair { op, seed }, rec);
                    }
                    claims.insert(op, (0..shards).collect());
                    pending.insert(
                        op,
                        OpState::Repairing {
                            waiting: shards,
                            damage: 0,
                            summary: RecoverySummary::default(),
                        },
                    );
                }
            }
            dispatch += 1;
        }

        // Every delivery answers at once, so the oldest operation's
        // replies are already queued; replies for younger operations
        // ahead of them advance their state machines on the way (that
        // is the pipelining).
        while !matches!(pending.get(&next), Some(OpState::Resolved(_))) {
            let reply = eng.replies.pop_front();
            assert!(
                reply.is_some(),
                "operation {next} stalled with no reply left to deliver"
            );
            if let Some(reply) = reply {
                apply_reply(reply, &mut pending, &mut eng, rec);
            }
        }

        // Finalize in trace order.
        if let Some(OpState::Resolved(res)) = pending.remove(&next) {
            for s in claims.remove(&next).unwrap_or_default() {
                claimed[s] = false;
            }
            let start = dispatched_at.remove(&next).unwrap_or(next);
            rec.serve_batch_latency((next - start) as u64);
            outcomes.push(match res {
                Resolution::Admitted {
                    rid,
                    sl,
                    weight,
                    hops,
                } => {
                    accepted += 1;
                    rec.cac_admit(sl);
                    ids.insert(rid, LiveConn { rid, weight, hops });
                    TraceOutcome::Admitted { rid }
                }
                Resolution::Rejected(reason) => {
                    rejected += 1;
                    rec.cac_reject(reason.kind());
                    TraceOutcome::Rejected(reason)
                }
                Resolution::TornDown(torn) => {
                    if torn {
                        released += 1;
                        rec.cac_release();
                    }
                    TraceOutcome::TornDown(torn)
                }
                Resolution::Repaired { damage, summary } => {
                    // Repair invalidates the live handles (see
                    // TraceOp::Repair) and with them every outstanding
                    // idempotency key: bump the epoch.
                    ids.clear();
                    eng.epoch = eng.epoch.wrapping_add(1);
                    TraceOutcome::Repaired { damage, summary }
                }
            });
            rec.request_stage(
                next as u32,
                request_stage::FINALIZE,
                0,
                request_stage::NO_PATH,
            );
            // Drain-side queue sample: depth after this operation left
            // the pipeline (the dispatch-side twin is above).
            rec.serve_queue_depth((dispatch - next - 1) as u64);
            // One logical tick per finalized operation — the clock the
            // timeline aggregator windows over; the sequential
            // reference advances the same clock per applied op.
            rec.tick((next + 1) as u64);
        }
        next += 1;
    }

    // Reassemble the partitions and merge each shard's recorder after
    // the last tick, in shard order. Coordinator records come first,
    // then each shard's in shard order (the reassembler orders
    // causally, not by position).
    let mut tables = base.empty_like();
    let mut request_records = drain_request_records(rec);
    let mut journals = Vec::with_capacity(shards);
    for shard in eng.shards {
        tables.absorb(shard.tables);
        request_records.extend(drain_request_records(&shard.rec));
        rec.merge(&shard.rec);
        journals.push(shard.journal);
    }
    ServeReport {
        outcomes,
        tables,
        accepted,
        rejected,
        released,
        live: ids.into_values().collect(),
        request_records,
        journals,
        fault_stats: eng.stats,
    }
}

/// Decides whether the next trace operation can be dispatched now and,
/// if so, what to send. Returns `None` when the operation must wait:
/// admissions wait for their shard set to be unclaimed; teardowns and
/// repairs wait for an empty pipeline (their correctness depends on
/// every earlier outcome being finalized).
fn plan_dispatch(
    op: &TraceOp,
    planner: &QosManager,
    shards: usize,
    in_flight: usize,
    claimed: &[bool],
    ids: &mut BTreeMap<u32, LiveConn>,
) -> Option<Dispatch> {
    match op {
        TraceOp::Admit(req) => match planner.plan_request(req) {
            Err(e) => Some(Dispatch::Local(Resolution::Rejected(e))),
            Ok(plan) => {
                let participants = participants_of(&plan.path, shards);
                if participants.iter().any(|&s| claimed[s]) {
                    return None;
                }
                Some(Dispatch::Admit {
                    rid: req.id,
                    spec: AdmitSpec {
                        sl: req.sl,
                        vl: plan.vl,
                        distance: plan.distance,
                        weight: plan.weight,
                    },
                    path: plan.path,
                    participants,
                })
            }
        },
        TraceOp::Teardown(rid) => {
            if in_flight > 0 {
                return None;
            }
            match ids.remove(rid) {
                None => Some(Dispatch::Local(Resolution::TornDown(false))),
                Some(conn) => {
                    let keys: Vec<PortKey> = conn.hops.iter().map(hop_key).collect();
                    Some(Dispatch::Teardown {
                        weight: conn.weight,
                        hops: conn.hops,
                        participants: participants_of(&keys, shards),
                    })
                }
            }
        }
        TraceOp::Repair { seed } => {
            if in_flight > 0 {
                return None;
            }
            Some(Dispatch::Repair { seed: *seed })
        }
    }
}

/// Advances one operation's state machine with a shard reply,
/// launching the commit/abort phase when the last vote lands.
fn apply_reply(
    reply: FromShard,
    pending: &mut BTreeMap<usize, OpState>,
    eng: &mut FaultEngine<'_>,
    rec: &mut iba_obs::ObsRecorder,
) {
    match reply {
        FromShard::Voted { op, votes: got } => {
            let Some(OpState::Voting {
                rid,
                spec,
                path,
                participants,
                waiting,
                votes,
            }) = pending.get_mut(&op)
            else {
                return;
            };
            votes.extend(got);
            *waiting -= 1;
            if *waiting > 0 {
                return;
            }
            let fail_at = votes
                .iter()
                .filter(|(_, v)| v.is_err())
                .map(|&(i, _)| i)
                .min();
            let (rid, spec) = (*rid, *spec);
            let participants = std::mem::take(participants);
            let path = std::mem::take(path);
            let waiting = participants.len();
            let state = match fail_at {
                None => {
                    // Unanimous yes: commit everywhere.
                    eng.send_owned(
                        &participants,
                        &path,
                        |&k| k,
                        rec,
                        |hops| ToShard::Commit { op, spec, hops },
                    );
                    OpState::Committing {
                        rid,
                        spec,
                        waiting,
                        hops: Vec::new(),
                    }
                }
                Some(fail_at) => {
                    // First failing hop wins; every participant replays
                    // its slice of the sequential rollback.
                    eng.send_owned(
                        &participants,
                        &path,
                        |&k| k,
                        rec,
                        |hops| ToShard::Abort {
                            op,
                            spec,
                            hops,
                            fail_at,
                        },
                    );
                    OpState::Aborting {
                        fail_key: path[fail_at],
                        waiting,
                        error: None,
                    }
                }
            };
            pending.insert(op, state);
        }
        FromShard::Committed { op, hops: got } => {
            let Some(OpState::Committing {
                rid,
                spec,
                waiting,
                hops,
            }) = pending.get_mut(&op)
            else {
                return;
            };
            hops.extend(got);
            *waiting -= 1;
            if *waiting > 0 {
                return;
            }
            hops.sort_unstable_by_key(|&(i, _)| i);
            let res = Resolution::Admitted {
                rid: *rid,
                sl: spec.sl.raw(),
                weight: spec.weight,
                hops: hops.iter().map(|&(_, h)| h).collect(),
            };
            pending.insert(op, OpState::Resolved(res));
        }
        FromShard::Aborted { op, error: got } => {
            let Some(OpState::Aborting {
                fail_key,
                waiting,
                error,
            }) = pending.get_mut(&op)
            else {
                return;
            };
            if error.is_none() {
                *error = got;
            }
            *waiting -= 1;
            if *waiting > 0 {
                return;
            }
            let res = Resolution::Rejected(reject_for(*error, *fail_key));
            pending.insert(op, OpState::Resolved(res));
        }
        FromShard::Released { op } => {
            let Some(OpState::Releasing { waiting }) = pending.get_mut(&op) else {
                return;
            };
            *waiting -= 1;
            if *waiting == 0 {
                pending.insert(op, OpState::Resolved(Resolution::TornDown(true)));
            }
        }
        FromShard::Repaired {
            op,
            damage: got_damage,
            summary: got,
        } => {
            let Some(OpState::Repairing {
                waiting,
                damage,
                summary,
            }) = pending.get_mut(&op)
            else {
                return;
            };
            *damage += got_damage;
            summary.tables += got.tables;
            summary.repaired += got.repaired;
            summary.evicted += got.evicted;
            summary.reinstalled += got.reinstalled;
            summary.lost += got.lost;
            *waiting -= 1;
            if *waiting == 0 {
                let res = Resolution::Repaired {
                    damage: *damage,
                    summary: *summary,
                };
                pending.insert(op, OpState::Resolved(res));
            }
        }
    }
}

/// Filters a recorder's ring for the per-request causal records
/// (`TraceEvent::Request`), leaving every other kind in place.
fn drain_request_records(rec: &iba_obs::ObsRecorder) -> Vec<(u64, iba_obs::TraceEvent)> {
    rec.tracer
        .as_ref()
        .map(|t| {
            t.records()
                .into_iter()
                .filter(|(_, ev)| matches!(ev, iba_obs::TraceEvent::Request { .. }))
                .collect()
        })
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use iba_core::SlTable;
    use iba_topo::{irregular, updown};

    fn planner(seed: u64) -> QosManager {
        let topo = irregular::generate(irregular::IrregularConfig::with_switches(4, seed));
        let routing = updown::compute(&topo);
        QosManager::new(topo, routing, SlTable::paper_table1())
    }

    #[test]
    fn trace_generation_is_seeded_and_mixed() {
        let cfg = TraceConfig::new(16, 7, 200);
        let a = generate_trace(&cfg);
        let b = generate_trace(&cfg);
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "same seed, same trace");
        let admits = a.iter().filter(|o| matches!(o, TraceOp::Admit(_))).count();
        let teardowns = a
            .iter()
            .filter(|o| matches!(o, TraceOp::Teardown(_)))
            .count();
        let repairs = a
            .iter()
            .filter(|o| matches!(o, TraceOp::Repair { .. }))
            .count();
        assert!(admits > 80, "{admits} admits");
        assert!(teardowns > 20, "{teardowns} teardowns");
        assert!(repairs > 3, "{repairs} repairs");
        let no_repair = generate_trace(&TraceConfig {
            repair_pct: 0,
            ..cfg
        });
        assert!(no_repair
            .iter()
            .all(|o| !matches!(o, TraceOp::Repair { .. })));
    }

    #[test]
    fn sharded_run_matches_sequential_on_one_trace() {
        let cfg = TraceConfig::new(16, 3, 96);
        let ops = generate_trace(&cfg);
        let mut seq_mgr = planner(0);
        let mut seq_rec = iba_obs::ObsRecorder::new();
        let seq = apply_trace_sequential(&mut seq_mgr, &ops, &mut seq_rec);
        for shards in [1usize, 2, 8] {
            let p = planner(0);
            let mut rec = iba_obs::ObsRecorder::new();
            let report = run_trace(&p, &ops, shards, &mut rec);
            assert_eq!(report.outcomes, seq, "outcomes diverge at {shards} shards");
            assert_eq!(
                format!("{:?}", report.tables),
                format!("{:?}", seq_mgr.port_tables()),
                "tables diverge at {shards} shards"
            );
        }
    }

    #[test]
    fn request_records_cover_every_operation() {
        use iba_obs::{request_stage, RequestSpan};
        let cfg = TraceConfig::new(16, 5, 64);
        let ops = generate_trace(&cfg);
        let p = planner(0);
        let mut rec = iba_obs::ObsRecorder::with_tracer(1 << 16);
        let report = run_trace(&p, &ops, 4, &mut rec);

        let spans = iba_obs::reassemble(&report.request_records);
        assert_eq!(spans.len(), ops.len(), "one span per trace op");
        for (span, outcome) in spans.iter().zip(&report.outcomes) {
            let stages: Vec<u8> = span.stages.iter().map(|s| s.stage).collect();
            assert_eq!(stages[0], request_stage::DISPATCH, "rid {}", span.rid);
            assert_eq!(
                *stages.last().unwrap(),
                request_stage::FINALIZE,
                "rid {}",
                span.rid
            );
            match outcome {
                TraceOutcome::Admitted { .. } => {
                    assert!(
                        stages.contains(&request_stage::COMMIT),
                        "admitted rid {} has no commit stage",
                        span.rid
                    );
                    assert!(!span.aborted(), "admitted rid {} aborted", span.rid);
                }
                // Planner-local rejections never reach a shard, so an
                // abort stage is possible but not guaranteed here.
                TraceOutcome::Rejected(_) | TraceOutcome::TornDown(_) => {}
                TraceOutcome::Repaired { .. } => {}
            }
        }
        // At least one table-level rejection went through the
        // vote/abort protocol on this trace.
        assert!(
            spans.iter().any(RequestSpan::aborted),
            "trace exercised no abort path"
        );

        // The record stream is a pure function of the trace: same
        // trace, same shards, same records.
        let p2 = planner(0);
        let mut rec2 = iba_obs::ObsRecorder::with_tracer(1 << 16);
        let report2 = run_trace(&p2, &ops, 4, &mut rec2);
        assert_eq!(report.request_records, report2.request_records);
    }

    #[test]
    fn keyed_corruption_is_registry_independent() {
        // The same port must receive the same damage whether its table
        // sits alone in a registry or among others — the property that
        // makes shard-local repair match the sequential pass.
        let mk = |keys: &[PortKey]| {
            let mut pt = PortTables::new(0.8);
            for &k in keys {
                pt.admit_path(
                    &[k],
                    ServiceLevel::new(2).unwrap(),
                    VirtualLane::data(2),
                    Distance::D16,
                    40,
                )
                .ok();
            }
            pt
        };
        let a = PortKey {
            node: iba_sim::NodeId::Switch(0),
            port: 1,
        };
        let b = PortKey {
            node: iba_sim::NodeId::Switch(5),
            port: 3,
        };
        let mut both = mk(&[a, b]);
        let mut alone = mk(&[a]);
        corrupt_tables_keyed(&mut both, 42);
        corrupt_tables_keyed(&mut alone, 42);
        assert_eq!(
            format!("{:?}", both.table(a)),
            format!("{:?}", alone.table(a)),
        );
    }

    #[test]
    fn faulted_run_converges_to_sequential_at_any_shard_count() {
        let cfg = TraceConfig::new(16, 11, 96);
        let ops = generate_trace(&cfg);
        let plan = ServeFaultPlan::generate(11, &ops, 30);
        assert!(!plan.is_empty(), "plan injected nothing");
        let mut seq_mgr = planner(0);
        let mut seq_rec = iba_obs::ObsRecorder::new();
        let seq = apply_trace_sequential(&mut seq_mgr, &ops, &mut seq_rec);
        let mut stats: Option<FaultStats> = None;
        for shards in [1usize, 2, 8] {
            let p = planner(0);
            let mut rec = iba_obs::ObsRecorder::new();
            let report =
                run_trace_faulted(&p, &ops, shards, &plan, &ServeOptions::default(), &mut rec);
            assert_eq!(
                report.outcomes, seq,
                "faulted outcomes diverge at {shards} shards"
            );
            assert_eq!(
                format!("{:?}", report.tables),
                format!("{:?}", seq_mgr.port_tables()),
                "faulted tables diverge at {shards} shards"
            );
            // Consumed-fault counts target the lowest participant
            // shard, so they are a pure function of the trace + plan.
            match stats {
                None => stats = Some(report.fault_stats),
                Some(prev) => assert_eq!(
                    report.fault_stats, prev,
                    "fault stats diverge at {shards} shards"
                ),
            }
        }
        let stats = stats.unwrap();
        assert!(stats.crashes > 0, "plan exercised no crash: {stats:?}");
        assert!(stats.timeouts > 0, "plan exercised no timeout: {stats:?}");
    }

    #[test]
    fn crash_at_every_protocol_step_converges_with_journal() {
        // One deterministic fault per (phase, kind) pair on every
        // operation of the same trace, at 1, 2 and 8 shards: the
        // journal must absorb each crash point, and the timeouts plus
        // the reply cache each lost, delayed or unanswered delivery.
        let cfg = TraceConfig::new(16, 3, 64);
        let ops = generate_trace(&cfg);
        let mut seq_mgr = planner(0);
        let mut seq_rec = iba_obs::ObsRecorder::new();
        let seq = apply_trace_sequential(&mut seq_mgr, &ops, &mut seq_rec);
        let seq_tables = format!("{:?}", seq_mgr.port_tables());
        let phases = [
            ProtocolPhase::Vote,
            ProtocolPhase::Commit,
            ProtocolPhase::Abort,
            ProtocolPhase::Release,
            ProtocolPhase::Repair,
        ];
        let kinds = [
            ServeFaultKind::Crash(CrashPoint::BeforeAct),
            ServeFaultKind::Crash(CrashPoint::MidBatch),
            ServeFaultKind::Crash(CrashPoint::BeforeReply),
            ServeFaultKind::MsgLoss,
            ServeFaultKind::MsgDelay,
            ServeFaultKind::ReplyLoss,
        ];
        for shards in [1usize, 2, 8] {
            for phase in phases {
                for kind in kinds {
                    let faults = (0..ops.len())
                        .map(|i| ServeFault {
                            op: i as u32,
                            phase,
                            kind,
                        })
                        .collect();
                    let plan = ServeFaultPlan { seed: 0, faults };
                    let p = planner(0);
                    let mut rec = iba_obs::ObsRecorder::new();
                    let report = run_trace_faulted(
                        &p,
                        &ops,
                        shards,
                        &plan,
                        &ServeOptions::default(),
                        &mut rec,
                    );
                    let at = format!("{phase:?}/{kind:?} at {shards} shards");
                    assert_eq!(report.outcomes, seq, "outcomes diverge: {at}");
                    assert_eq!(
                        format!("{:?}", report.tables),
                        seq_tables,
                        "tables diverge: {at}"
                    );
                    let f = report.fault_stats;
                    let consumed = match kind {
                        ServeFaultKind::Crash(_) => f.crashes,
                        ServeFaultKind::MsgLoss => f.msg_losses,
                        ServeFaultKind::MsgDelay => f.msg_delays,
                        ServeFaultKind::ReplyLoss => f.reply_losses,
                    };
                    assert!(consumed > 0, "no fault consumed: {at}");
                    assert_eq!(f.timeouts, consumed, "one timeout per fault: {at}");
                }
            }
        }
    }

    #[test]
    fn journal_disabled_crash_loses_state() {
        // Negative control: the same crash that the journal absorbs
        // must corrupt the run when the journal is off. Crash after a
        // commit is applied but before its reply, on every operation —
        // the wiped shard forgets its reservations.
        let cfg = TraceConfig::new(16, 3, 64);
        let ops = generate_trace(&cfg);
        let mut seq_mgr = planner(0);
        let mut seq_rec = iba_obs::ObsRecorder::new();
        let _ = apply_trace_sequential(&mut seq_mgr, &ops, &mut seq_rec);
        let faults = ops
            .iter()
            .enumerate()
            .map(|(i, _)| ServeFault {
                op: i as u32,
                phase: ProtocolPhase::Commit,
                kind: ServeFaultKind::Crash(CrashPoint::BeforeReply),
            })
            .collect();
        let plan = ServeFaultPlan { seed: 0, faults };
        let opts = ServeOptions {
            journal: false,
            ..ServeOptions::default()
        };
        let p = planner(0);
        let mut rec = iba_obs::ObsRecorder::new();
        let report = run_trace_faulted(&p, &ops, 2, &plan, &opts, &mut rec);
        assert!(report.fault_stats.crashes > 0, "no crash consumed");
        assert_ne!(
            format!("{:?}", report.tables),
            format!("{:?}", seq_mgr.port_tables()),
            "journal-disabled crashes must lose reservations"
        );
    }

    #[test]
    fn shed_ladder_sheds_low_sls_and_degrades_the_rest() {
        let cfg = TraceConfig::new(16, 9, 128);
        let ops = generate_trace(&cfg);
        let opts = ServeOptions {
            queue_capacity: 1,
            shed_ladder: true,
            shed_sl_floor: 4,
            ..ServeOptions::default()
        };
        let p = planner(0);
        let mut rec = iba_obs::ObsRecorder::new();
        let report = run_trace_faulted(&p, &ops, 2, &ServeFaultPlan::none(), &opts, &mut rec);
        assert_eq!(report.outcomes.len(), ops.len());
        let overloaded = report
            .outcomes
            .iter()
            .filter(|o| matches!(o, TraceOutcome::Rejected(RejectReason::Overloaded)))
            .count() as u64;
        assert!(overloaded > 0, "ladder never shed");
        assert_eq!(report.fault_stats.shed[0], overloaded);
        assert!(
            report.fault_stats.shed[1] > 0,
            "ladder never degraded an install"
        );
        // Ladder decisions depend only on the trace: byte-identical at
        // another shard count.
        let p2 = planner(0);
        let mut rec2 = iba_obs::ObsRecorder::new();
        let report2 = run_trace_faulted(&p2, &ops, 8, &ServeFaultPlan::none(), &opts, &mut rec2);
        assert_eq!(report.outcomes, report2.outcomes);
        assert_eq!(report.fault_stats, report2.fault_stats);
        assert_eq!(
            format!("{:?}", report.tables),
            format!("{:?}", report2.tables)
        );
    }

    #[test]
    fn zero_queue_capacity_runs_like_capacity_one() {
        // A zero bound would never dispatch anything; it is clamped to
        // one, like the shard count, so the run terminates with the
        // outcomes a one-slot queue produces.
        let cfg = TraceConfig::new(16, 9, 64);
        let ops = generate_trace(&cfg);
        let plan = ServeFaultPlan::generate(9, &ops, 30);
        let run = |queue_capacity: usize| {
            let opts = ServeOptions {
                queue_capacity,
                ..ServeOptions::default()
            };
            let mut rec = iba_obs::ObsRecorder::new();
            run_trace_faulted(&planner(0), &ops, 2, &plan, &opts, &mut rec)
        };
        let (zero, one) = (run(0), run(1));
        assert_eq!(zero.outcomes.len(), ops.len());
        assert_eq!(zero.outcomes, one.outcomes);
        assert_eq!(zero.fault_stats, one.fault_stats);
        assert_eq!(format!("{:?}", zero.tables), format!("{:?}", one.tables));
    }

    #[test]
    fn journals_record_and_replay_each_shard() {
        let cfg = TraceConfig::new(16, 5, 48);
        let ops = generate_trace(&cfg);
        let plan = ServeFaultPlan::generate(5, &ops, 25);
        let p = planner(0);
        let mut rec = iba_obs::ObsRecorder::new();
        let report = run_trace_faulted(&p, &ops, 2, &plan, &ServeOptions::default(), &mut rec);
        assert_eq!(report.journals.len(), 2);
        assert!(
            report.journals.iter().any(|j| !j.is_empty()),
            "no shard journaled anything"
        );
        for j in &report.journals {
            assert!(
                j.dangling().is_none(),
                "journal left a dangling intent: {:?}",
                j.dangling()
            );
        }
    }
}
