//! The journaled admission service: the paper's §5 admission control
//! served by one owner of every port table, with a write-ahead journal
//! and a reply cache that make it survive a control-plane fault plan.
//!
//! # One owner
//!
//! In the paper's global QoS frame admission is one subnet-manager
//! decision per request: reserve at every hop of the path or roll back.
//! The service therefore has a single owner, a [`QosManager`], and
//! serves a trace strictly in order through the same per-operation
//! step as the sequential reference, [`apply_trace_sequential`].
//! Outcomes and final tables equal the reference's by construction;
//! what the service adds is fault tolerance around that step.
//!
//! # Control-plane fault model
//!
//! [`run_trace_faulted`] serves a trace under a seeded
//! [`ServeFaultPlan`] of four fault kinds ([`ServeFaultKind`]): an owner
//! crash before or after it applied the operation, a lost request, a
//! duplicated request and a lost reply. Three mechanisms absorb them:
//!
//! * the write-ahead [`IntentJournal`]: the operation is journaled
//!   before it is applied and its outcome after. A crash drops the
//!   manager, the request-id map and the reply cache; the restart
//!   replays every journaled intent from the empty manager and rolls
//!   the interrupted one forward;
//! * deterministic timeouts on the [`crate::retry::Backoff`]
//!   schedule: a request or reply that never arrived is re-sent;
//! * idempotency keys (the op index, [`OpKey`]): a re-delivered
//!   operation that already completed is answered from the reply
//!   cache, never applied twice.
//!
//! Timeouts are *logical*: the plan decides which delivery fails, so
//! the retry fires at a reproducible point instead of a wall-clock
//! deadline, and a faulted run is a pure function of (trace, plan).
//! With the journal on, every plan converges to the sequential
//! outcomes and table bytes, and the registry ends with the same
//! non-`serve_*` metrics: journal replay records into a
//! [`NullRecorder`], and only the rolled-forward operation, applied for
//! the first time, is recorded live.

use crate::cac::{PortTables, RejectReason};
use crate::connection::{ConnectionId, HopReservation};
use crate::journal::{IntentJournal, JournalRecord, OpKey};
use crate::manager::QosManager;
use crate::recovery::RecoverySummary;
use crate::retry::Backoff;
use iba_core::{Distance, ServiceLevel, SplitMix64, Weight};
use iba_obs::{request_stage, NullRecorder, ObsRecorder, Recorder};
use iba_sim::NodeId;
use iba_traffic::ConnectionRequest;
use std::collections::{BTreeMap, VecDeque};

/// Domain-separation constant for trace generation.
const TRACE_SEED: u64 = 0x5E87_EACE_5EED;
/// Domain-separation constant for control-plane fault plans.
const SERVE_FAULT_SEED: u64 = 0xC0DE_FA17_5EED;
/// Domain-separation constant for the control-plane fault calendar.
const CONTROL_CALENDAR_SEED: u64 = 0xC7A0_17A7_FA17_5EED;

/// One operation of a request trace, addressed by request id (`rid`).
#[derive(Clone, Debug)]
pub enum TraceOp {
    /// Admit a connection (the request's `id` is the trace `rid`).
    Admit(ConnectionRequest),
    /// Tear down the connection admitted under this `rid` (a no-op
    /// outcome when it was rejected, already torn down, or unknown).
    Teardown(u32),
    /// Damage every table with [`QosManager::corrupt_tables`], then
    /// repair them with [`QosManager::repair_tables`] (the chaos drill
    /// as a trace citizen). Live connections stay bound to what they
    /// hold, so their handles stay valid; a connection the repair
    /// lost is gone, and tearing it down reports `TornDown(false)`.
    Repair {
        /// Seed of the corruption streams.
        seed: u64,
    },
}

/// The outcome of one trace operation — the unit of the differential
/// test: the service must produce the exact same outcome vector as the
/// sequential manager.
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
        damage: u32,
        /// Aggregated repair summary across all tables, boxed: a drill
        /// is rare, and inline it would make every outcome 56 bytes.
        summary: Box<RecoverySummary>,
    },
}

// Outcome vectors, journals and reply caches hold one outcome per
// trace op; only the rare `Repaired` pays for its payload.
#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<TraceOutcome>() == 16);

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
    /// (0 disables them).
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

/// Request id → live connection, the handle map of one trace run.
type Rids = BTreeMap<u32, ConnectionId>;

/// Applies one trace operation to the manager: the step the sequential
/// reference and the service share. Teardowns address requests by
/// `rid` through `rids`, so a double teardown can never hit a recycled
/// connection slot.
fn apply_op(
    mgr: &mut QosManager,
    rids: &mut Rids,
    op: &TraceOp,
    rec: &mut dyn Recorder,
) -> TraceOutcome {
    match op {
        TraceOp::Admit(req) => match mgr.request_observed(req, rec) {
            Ok(id) => {
                rids.insert(req.id, id);
                TraceOutcome::Admitted { rid: req.id }
            }
            Err(e) => TraceOutcome::Rejected(e),
        },
        TraceOp::Teardown(rid) => TraceOutcome::TornDown(
            rids.remove(rid)
                .is_some_and(|id| mgr.teardown_observed(id, rec)),
        ),
        TraceOp::Repair { seed } => {
            let damage = mgr.corrupt_tables(*seed);
            let summary = mgr.repair_tables(rec);
            // Forget the connections the repair lost before a later
            // admission can reuse their ids.
            rids.retain(|_, id| mgr.connection(*id).is_some());
            TraceOutcome::Repaired {
                damage: u32::try_from(damage).unwrap_or(u32::MAX),
                summary: Box::new(summary),
            }
        }
    }
}

/// Applies a trace to the single-owner [`QosManager`] — the reference
/// the service is differentially tested against.
pub fn apply_trace_sequential(
    mgr: &mut QosManager,
    ops: &[TraceOp],
    rec: &mut dyn Recorder,
) -> Vec<TraceOutcome> {
    let mut rids = Rids::new();
    ops.iter()
        .enumerate()
        .map(|(i, op)| {
            // One logical tick per op, before it is applied — the same
            // clock the service advances, so a timeline attached to
            // either recorder windows identically: op `i` lands in
            // window `i / len`, and no window opens after the last op.
            rec.tick(i as u64);
            apply_op(mgr, &mut rids, op, rec)
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

/// What a service run produced.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Per-operation outcomes, in trace order.
    pub outcomes: Vec<TraceOutcome>,
    /// The owner's port tables at the end of the trace.
    pub tables: PortTables,
    /// Admitted requests.
    pub accepted: u64,
    /// Rejected requests (planner and table rejections).
    pub rejected: u64,
    /// Live connections released by teardowns.
    pub released: u64,
    /// Connections still live at the end, in `rid` order.
    pub live: Vec<LiveConn>,
    /// Per-request causal trace records (`TraceEvent::Request` only)
    /// filtered out of the recorder's ring — a deterministic input for
    /// `iba_obs::request::reassemble`. Empty when the recorder carries
    /// no tracer.
    pub request_records: Vec<(u64, iba_obs::TraceEvent)>,
    /// The write-ahead journal at the end of the trace — the
    /// exactly-once ledger's raw material.
    pub journal: IntentJournal,
    /// What the fault plan injected and the service survived (all
    /// zeros on an unfaulted run).
    pub fault_stats: FaultStats,
}

impl ServeReport {
    /// Releases every live connection's hops (reverse path order) out
    /// of a clone of the final tables and reports `(failed releases,
    /// leftover reserved weight)` — the exactly-once ledger. Repairs
    /// keep every live connection bound, so a run that neither lost
    /// nor duplicated a reservation sweeps to exactly `(0, 0)`.
    #[must_use]
    pub fn sweep(&self) -> (u64, u64) {
        let mut t = self.tables.clone();
        let mut failed = 0u64;
        for conn in &self.live {
            for &hop in conn.hops.iter().rev() {
                if t.release_hop(hop, conn.weight).is_err() {
                    failed += 1;
                }
            }
        }
        let leftover: u64 = t
            .tables()
            .map(|(_, tab)| u64::from(tab.reserved_weight()))
            .sum();
        (failed, leftover)
    }
}

/// Where the owner crashes while serving one delivery.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CrashPoint {
    /// After journaling the intent, before applying the operation.
    BeforeAct,
    /// After applying the operation and journaling its outcome, before
    /// the reply is sent (the reply is lost with the owner).
    BeforeReply,
}

/// The kind of control-plane fault to inject into one delivery.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ServeFaultKind {
    /// The owner crashes at the given point and restarts by journal
    /// replay, losing its volatile state and the pending reply.
    Crash(CrashPoint),
    /// The request is lost in flight; the timeout fires and the
    /// request is re-sent.
    RequestLoss,
    /// The request is delayed past the timeout: the retry *and* the
    /// late original are both delivered, and the reply cache answers
    /// the second.
    Duplicate,
    /// The reply is lost; the timeout fires and the retry is answered
    /// from the reply cache.
    ReplyLoss,
}

impl ServeFaultKind {
    /// Every fault kind, both crash points included.
    pub const ALL: [ServeFaultKind; 5] = [
        ServeFaultKind::Crash(CrashPoint::BeforeAct),
        ServeFaultKind::Crash(CrashPoint::BeforeReply),
        ServeFaultKind::RequestLoss,
        ServeFaultKind::Duplicate,
        ServeFaultKind::ReplyLoss,
    ];
}

/// One scheduled fault: it hits the first delivery of trace operation
/// `op` that no earlier fault of the plan claimed.
#[derive(Clone, Copy, Debug)]
pub struct ServeFault {
    /// Trace operation index the fault targets.
    pub op: OpKey,
    /// What happens.
    pub kind: ServeFaultKind,
}

/// A seeded, deterministic control-plane fault plan.
#[derive(Clone, Debug, Default)]
pub struct ServeFaultPlan {
    /// Seed the plan was generated from (also seeds the retry-backoff
    /// jitter).
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
    /// with probability `intensity_pct`%, uniformly across
    /// [`ServeFaultKind::ALL`].
    #[must_use]
    pub fn generate(seed: u64, ops: &[TraceOp], intensity_pct: u8) -> Self {
        let mut rng = SplitMix64::seed_from_u64(seed ^ SERVE_FAULT_SEED);
        let mut faults = Vec::new();
        for op in 0..ops.len() {
            let roll = rng.next_u64() % 100;
            let kind_draw = rng.next_u64();
            if roll < u64::from(intensity_pct.min(100)) {
                faults.push(ServeFault {
                    op: op as OpKey,
                    kind: ServeFaultKind::ALL[(kind_draw % 5) as usize],
                });
            }
        }
        ServeFaultPlan { seed, faults }
    }

    /// The control-plane fault calendar `ibaqos chaos-serve` runs:
    /// at most one fault per operation, roughly one op in three
    /// targeted, split evenly between crashes, request faults and
    /// reply losses. The crash point and loss-or-duplicate follow from
    /// the op index (crash before replying when `op % 3 == 2`, lose the
    /// request when `op` is even), so the plan is in op order.
    #[must_use]
    pub fn generate_control(seed: u64, ops: usize) -> Self {
        let mut rng = SplitMix64::seed_from_u64(seed ^ CONTROL_CALENDAR_SEED);
        let mut faults = Vec::new();
        for op in 0..ops {
            let roll = rng.next_u64() % 100;
            let kind = rng.next_u64() % 3;
            if roll >= 33 {
                continue;
            }
            let op = op as OpKey;
            let kind = match kind {
                0 if op % 3 == 2 => ServeFaultKind::Crash(CrashPoint::BeforeReply),
                0 => ServeFaultKind::Crash(CrashPoint::BeforeAct),
                1 if op.is_multiple_of(2) => ServeFaultKind::RequestLoss,
                1 => ServeFaultKind::Duplicate,
                _ => ServeFaultKind::ReplyLoss,
            };
            faults.push(ServeFault { op, kind });
        }
        ServeFaultPlan { seed, faults }
    }
}

/// Fault-tolerance knobs of [`run_trace_faulted`]. The default (journal
/// on) makes the faulted service converge to [`run_trace`].
#[derive(Clone, Copy, Debug)]
pub struct ServeOptions {
    /// Retain the write-ahead journal (disable only as the negative
    /// control: a crashed owner then restarts from the empty manager
    /// and every earlier reservation is lost).
    pub journal: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions { journal: true }
    }
}

/// What the fault plan injected and the service survived: counts of
/// *consumed* faults, a pure function of the trace and the plan.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Owner crashes injected (each one forced a journal replay).
    pub crashes: u64,
    /// Requests lost in flight.
    pub request_losses: u64,
    /// Requests delivered twice.
    pub duplicates: u64,
    /// Replies lost in flight.
    pub reply_losses: u64,
    /// Deterministic timeouts fired (= retries sent).
    pub timeouts: u64,
}

/// The service's single owner: the manager, the request-id map and the
/// reply cache are its volatile state — exactly what a crash destroys.
/// The journal is durable; `empty` is the state a restart begins from.
struct Owner<'a> {
    empty: &'a QosManager,
    mgr: QosManager,
    rids: Rids,
    /// The reply cache: the outcome of the last completed operation.
    /// Operations are served strictly in order, so a retry can only
    /// ever ask for that one.
    reply: Option<(OpKey, TraceOutcome)>,
    journal: IntentJournal,
}

impl<'a> Owner<'a> {
    fn new(empty: &'a QosManager, journal: bool) -> Self {
        Owner {
            empty,
            mgr: empty.clone(),
            rids: Rids::new(),
            reply: None,
            journal: IntentJournal::new(journal),
        }
    }

    /// Serves one delivery of operation `key`, honouring its scripted
    /// crash point and the reply cache. Returns the reply, or `None`
    /// when the crash took the owner down before it could answer.
    fn deliver(
        &mut self,
        key: OpKey,
        op: &TraceOp,
        crash: Option<CrashPoint>,
        rec: &mut dyn Recorder,
    ) -> Option<TraceOutcome> {
        // Idempotent retry: an operation that already completed is
        // answered from the cache, never applied twice.
        if let Some((done, outcome)) = &self.reply {
            if *done == key {
                return Some(outcome.clone());
            }
        }
        self.journal.append(JournalRecord::Intent {
            key,
            op: op.clone(),
        });
        if crash == Some(CrashPoint::BeforeAct) {
            self.restart(rec);
            return None;
        }
        let outcome = apply_op(&mut self.mgr, &mut self.rids, op, rec);
        self.journal.append(JournalRecord::Done {
            key,
            outcome: outcome.clone(),
        });
        self.reply = Some((key, outcome.clone()));
        if crash == Some(CrashPoint::BeforeReply) {
            self.restart(rec);
            return None;
        }
        Some(outcome)
    }

    /// A crash and the restart after it: drop the volatile state, then
    /// replay every journaled intent in order from the empty manager.
    /// Closed intents replay into a [`NullRecorder`] (their metrics
    /// were recorded when they first ran); a dangling tail intent runs
    /// for the first time, so it records into `rec`, and is closed.
    fn restart(&mut self, rec: &mut dyn Recorder) {
        rec.serve_crash();
        self.mgr = self.empty.clone();
        self.rids.clear();
        self.reply = None;
        let records = self.journal.records();
        rec.serve_journal_replay(records.len() as u64);
        for (i, r) in records.iter().enumerate() {
            if let JournalRecord::Intent { key, op } = r {
                let first_run = i + 1 == records.len();
                let rec: &mut dyn Recorder = if first_run {
                    &mut *rec
                } else {
                    &mut NullRecorder
                };
                self.reply = Some((*key, apply_op(&mut self.mgr, &mut self.rids, op, rec)));
            }
        }
        if let (Some(_), Some((key, outcome))) = (self.journal.dangling(), self.reply.clone()) {
            self.journal.append(JournalRecord::Done { key, outcome });
        }
    }
}

/// Runs a trace through the service and returns the report.
///
/// `planner` is the manager the trace starts from (and a crashed owner
/// restarts from); it is cloned, never touched. The third argument is
/// ignored: it is the shard count of the retired sharded service, kept
/// so existing callers build unchanged.
///
/// Outcomes and final tables are byte-identical to
/// [`apply_trace_sequential`] on the same trace.
pub fn run_trace(
    planner: &QosManager,
    ops: &[TraceOp],
    _shards: usize,
    rec: &mut ObsRecorder,
) -> ServeReport {
    run_trace_faulted(
        planner,
        ops,
        &ServeFaultPlan::none(),
        &ServeOptions::default(),
        rec,
    )
}

/// [`run_trace`] under a control-plane fault plan. With the empty plan
/// this *is* [`run_trace`]; with faults and the journal on, the run
/// still converges to the same outcomes and table bytes — crashes are
/// survived by journal replay, lost requests and replies by
/// deterministic timeouts, duplicates and retries by the reply cache.
pub fn run_trace_faulted(
    planner: &QosManager,
    ops: &[TraceOp],
    plan: &ServeFaultPlan,
    opts: &ServeOptions,
    rec: &mut ObsRecorder,
) -> ServeReport {
    let mut owner = Owner::new(planner, opts.journal);
    let mut faults: VecDeque<ServeFault> = plan.faults.iter().copied().collect();
    let mut backoff = Backoff::new(plan.seed ^ SERVE_FAULT_SEED);
    let mut stats = FaultStats::default();
    let mut outcomes = Vec::with_capacity(ops.len());
    let (mut accepted, mut rejected, mut released) = (0u64, 0u64, 0u64);
    for (i, op) in ops.iter().enumerate() {
        let key = i as OpKey;
        rec.tick(i as u64);
        rec.request_stage(key, request_stage::DISPATCH, request_stage::NO_PATH);
        let mut attempt = 0;
        let outcome = loop {
            let at = faults.iter().position(|f| f.op == key);
            let fault = at.and_then(|at| faults.remove(at)).map(|f| f.kind);
            let reply = match fault {
                None => owner.deliver(key, op, None, rec),
                Some(ServeFaultKind::Crash(point)) => {
                    stats.crashes += 1;
                    owner.deliver(key, op, Some(point), rec)
                }
                Some(ServeFaultKind::RequestLoss) => {
                    stats.request_losses += 1;
                    None
                }
                Some(ServeFaultKind::Duplicate) => {
                    // The original and the post-timeout retry both
                    // arrive; the cache answers the retry.
                    stats.duplicates += 1;
                    let first = owner.deliver(key, op, None, rec);
                    let _ = owner.deliver(key, op, None, rec);
                    first
                }
                Some(ServeFaultKind::ReplyLoss) => {
                    stats.reply_losses += 1;
                    let _ = owner.deliver(key, op, None, rec);
                    None
                }
            };
            if reply.is_none() || fault == Some(ServeFaultKind::Duplicate) {
                // The deterministic timeout fired and the request was
                // re-sent.
                stats.timeouts += 1;
                rec.serve_timeout(backoff.delay(attempt));
                attempt += 1;
            }
            if let Some(outcome) = reply {
                break outcome;
            }
        };
        match &outcome {
            TraceOutcome::Admitted { rid } => {
                accepted += 1;
                let hops = owner
                    .rids
                    .get(rid)
                    .and_then(|&id| owner.mgr.connection(id))
                    .map_or(0, |c| c.hops.len());
                for hop in 0..hops {
                    rec.request_stage(key, request_stage::COMMIT, hop as u8);
                }
            }
            TraceOutcome::Rejected(reason) => {
                rejected += 1;
                if let RejectReason::NoFreeSequence(at) | RejectReason::CapacityExceeded(at) =
                    reason
                {
                    rec.request_stage(key, request_stage::ABORT, request_stage::NO_PATH);
                    // Every path starts at the source host's uplink; a
                    // table rejection further on rolled that hop back.
                    if matches!(at.node, NodeId::Switch(_)) {
                        rec.serve_shard_rollback();
                    }
                }
            }
            TraceOutcome::TornDown(true) => released += 1,
            TraceOutcome::TornDown(false) | TraceOutcome::Repaired { .. } => {}
        }
        rec.request_stage(key, request_stage::FINALIZE, request_stage::NO_PATH);
        outcomes.push(outcome);
    }

    let Owner {
        mgr, rids, journal, ..
    } = owner;
    let live = rids
        .iter()
        .filter_map(|(&rid, &id)| {
            let c = mgr.connection(id)?;
            Some(LiveConn {
                rid,
                weight: c.weight,
                hops: c.hops.clone(),
            })
        })
        .collect();
    ServeReport {
        outcomes,
        tables: mgr.into_tables(),
        accepted,
        rejected,
        released,
        live,
        request_records: request_records(rec),
        journal,
        fault_stats: stats,
    }
}

/// Filters a recorder's ring for the per-request causal records
/// (`TraceEvent::Request`), leaving every other kind in place.
fn request_records(rec: &ObsRecorder) -> Vec<(u64, iba_obs::TraceEvent)> {
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

    fn sequential(ops: &[TraceOp]) -> (Vec<TraceOutcome>, String) {
        let mut mgr = planner(0);
        let outcomes = apply_trace_sequential(&mut mgr, ops, &mut NullRecorder);
        (outcomes, format!("{:?}", mgr.port_tables()))
    }

    #[test]
    fn a_boxed_repair_summary_debugs_as_the_inline_one_did() {
        // Rendered reports and pinned digests hash `{:?}` of outcomes;
        // these strings were printed while the summary was inline.
        let outcome = TraceOutcome::Repaired {
            damage: 7,
            summary: Box::new(RecoverySummary {
                tables: 12,
                repaired: 3,
                evicted: 4,
                reinstalled: 3,
                lost: 1,
            }),
        };
        assert_eq!(
            format!("{outcome:?}"),
            "Repaired { damage: 7, summary: RecoverySummary { tables: 12, \
             repaired: 3, evicted: 4, reinstalled: 3, lost: 1 } }"
        );
        assert_eq!(
            format!("{outcome:#?}"),
            "Repaired {\n    damage: 7,\n    summary: RecoverySummary {\n        \
             tables: 12,\n        repaired: 3,\n        evicted: 4,\n        \
             reinstalled: 3,\n        lost: 1,\n    },\n}"
        );
    }

    #[test]
    fn generate_control_is_deterministic() {
        let ops = |p: &ServeFaultPlan| p.faults.iter().map(|f| (f.op, f.kind)).collect::<Vec<_>>();
        let a = ServeFaultPlan::generate_control(7, 64);
        assert_eq!(ops(&a), ops(&ServeFaultPlan::generate_control(7, 64)));
        assert!(!a.faults.is_empty());
        assert_ne!(ops(&a), ops(&ServeFaultPlan::generate_control(8, 64)));
        // At most one fault per op, in op order.
        assert!(a.faults.windows(2).all(|w| w[0].op < w[1].op));
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
    fn a_connection_a_repair_lost_is_forgotten_by_its_rid() {
        let mut mgr = planner(0);
        let mut rids = Rids::new();
        let mut apply = |mgr: &mut QosManager, op| apply_op(mgr, &mut rids, &op, &mut NullRecorder);
        let admit = |id, src, dst| {
            TraceOp::Admit(ConnectionRequest {
                id,
                src: iba_topo::HostId(src),
                dst: iba_topo::HostId(dst),
                sl: ServiceLevel::new(2).expect("QoS SL"),
                distance: Distance::D8,
                mean_bw_mbps: 4.0,
                packet_bytes: 256,
            })
        };
        assert_eq!(
            apply(&mut mgr, admit(0, 0, 9)),
            TraceOutcome::Admitted { rid: 0 }
        );
        // Drop the connection's uplink sequence behind the ledger's back
        // and leave that table no room to take it again.
        let conn = mgr.connection(ConnectionId(0)).expect("live").clone();
        let hop = conn.hops[0];
        let tables = mgr.tables_mut();
        tables.release_hop(hop, conn.weight).expect("held");
        tables
            .get_table_mut(hop.key())
            .expect("touched")
            .set_capacity_limit(0);
        let TraceOutcome::Repaired { summary, .. } = apply(&mut mgr, TraceOp::Repair { seed: 1 })
        else {
            panic!("a repair drill repairs");
        };
        assert_eq!(summary.lost, 1, "{summary:?}");
        // The next admission reuses the lost connection's id; tearing
        // down the lost rid must not reach it.
        assert_eq!(
            apply(&mut mgr, admit(2, 3, 12)),
            TraceOutcome::Admitted { rid: 2 }
        );
        assert!(mgr.connection(ConnectionId(0)).is_some());
        assert_eq!(
            apply(&mut mgr, TraceOp::Teardown(0)),
            TraceOutcome::TornDown(false)
        );
        assert_eq!(
            apply(&mut mgr, TraceOp::Teardown(2)),
            TraceOutcome::TornDown(true)
        );
    }

    #[test]
    fn service_matches_sequential_and_journals_exactly_once() {
        let ops = generate_trace(&TraceConfig::new(16, 3, 96));
        let (seq, seq_tables) = sequential(&ops);
        let mut rec = ObsRecorder::new();
        let report = run_trace(&planner(0), &ops, 1, &mut rec);
        assert_eq!(report.outcomes, seq);
        assert_eq!(format!("{:?}", report.tables), seq_tables);
        assert!(report.journal.is_exactly_once(ops.len()));
        assert_eq!(report.fault_stats, FaultStats::default());
    }

    #[test]
    fn request_records_cover_every_operation() {
        let ops = generate_trace(&TraceConfig::new(16, 5, 64));
        let mut rec = ObsRecorder::with_tracer(1 << 16);
        let report = run_trace(&planner(0), &ops, 1, &mut rec);

        let spans = iba_obs::reassemble(&report.request_records);
        assert_eq!(spans.len(), ops.len(), "one span per trace op");
        for (span, outcome) in spans.iter().zip(&report.outcomes) {
            let stages: Vec<u8> = span.stages.iter().map(|s| s.stage).collect();
            assert_eq!(stages[0], request_stage::DISPATCH, "rid {}", span.rid);
            assert_eq!(stages.last(), Some(&request_stage::FINALIZE));
            if let TraceOutcome::Admitted { .. } = outcome {
                assert!(stages.contains(&request_stage::COMMIT), "rid {}", span.rid);
                assert!(!span.aborted(), "admitted rid {} aborted", span.rid);
            }
        }
        assert!(
            spans.iter().any(iba_obs::RequestSpan::aborted),
            "trace exercised no table rejection"
        );
    }

    #[test]
    fn every_fault_kind_converges_on_every_operation() {
        // One fault of one kind on every operation of the same trace:
        // the journal absorbs each crash point, the timeouts plus the
        // reply cache each lost, duplicated or unanswered delivery.
        let ops = generate_trace(&TraceConfig::new(16, 3, 64));
        let (seq, seq_tables) = sequential(&ops);
        for kind in ServeFaultKind::ALL {
            let faults = (0..ops.len())
                .map(|i| ServeFault {
                    op: i as OpKey,
                    kind,
                })
                .collect();
            let plan = ServeFaultPlan { seed: 0, faults };
            let mut rec = ObsRecorder::new();
            let report =
                run_trace_faulted(&planner(0), &ops, &plan, &ServeOptions::default(), &mut rec);
            assert_eq!(report.outcomes, seq, "outcomes diverge: {kind:?}");
            assert_eq!(format!("{:?}", report.tables), seq_tables, "{kind:?}");
            assert!(report.journal.is_exactly_once(ops.len()), "{kind:?}");
            let f = report.fault_stats;
            let consumed = f.crashes + f.request_losses + f.duplicates + f.reply_losses;
            assert_eq!(consumed, ops.len() as u64, "{kind:?}");
            assert_eq!(f.timeouts, consumed, "one timeout per fault: {kind:?}");
        }
    }

    #[test]
    fn journal_disabled_crash_loses_state() {
        // Negative control: the crash the journal absorbs must corrupt
        // the run when the journal is off — the restarted owner forgets
        // every earlier reservation.
        let ops = generate_trace(&TraceConfig::new(16, 3, 64));
        let (_, seq_tables) = sequential(&ops);
        let faults = (0..ops.len())
            .map(|i| ServeFault {
                op: i as OpKey,
                kind: ServeFaultKind::Crash(CrashPoint::BeforeReply),
            })
            .collect();
        let plan = ServeFaultPlan { seed: 0, faults };
        let opts = ServeOptions { journal: false };
        let mut rec = ObsRecorder::new();
        let report = run_trace_faulted(&planner(0), &ops, &plan, &opts, &mut rec);
        assert!(report.fault_stats.crashes > 0, "no crash consumed");
        assert_ne!(
            format!("{:?}", report.tables),
            seq_tables,
            "journal-disabled crashes must lose reservations"
        );
    }
}
