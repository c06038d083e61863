//! Deterministic fault injection: seeded fault plans delivered through
//! the event calendar.
//!
//! A [`FaultPlan`] is a seeded schedule of [`FaultAction`]s — link-rate
//! degradation, link flaps, VL blackouts, credit stalls and VLArb
//! table corruption — applied to a [`crate::fabric::Fabric`] via
//! [`crate::fabric::Fabric::apply_fault_plan`]. Each action is pushed
//! onto the **same calendar queue** as every other simulation event, so
//! a faulted run keeps the exact `(time, seq)` total order of the
//! healthy one: runs are byte-identical for a given plan seed at any
//! worker-thread count (each fabric is single-threaded; sweeps
//! parallelise across fabrics).
//!
//! Transient actions come in pairs — the generator always schedules the
//! matching restore (`LinkUp`, zero masks, shift 0) so a plan describes
//! a bounded disturbance, not a permanent outage. Table corruption is
//! one-shot: healing it is the recovery manager's job, not the plan's.

use crate::fabric::NodeId;
use crate::time::Cycles;
use iba_core::{SplitMix64, VlArbConfig};
use iba_obs::fault_code;

/// Live fault state of one output port, consulted by the arbitration
/// hot path. The default state is "healthy" and costs two branch tests
/// per kick.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct FaultState {
    /// Transfer durations are scaled by `1 << rate_shift` (0 = full
    /// rate, 1 = half rate, ...).
    pub rate_shift: u8,
    /// Link is down: no transfers start until a `LinkUp` restores it.
    pub down: bool,
    /// Bit `v` set: VL `v` is blacked out (its head packets are never
    /// offered to the arbiter).
    pub blackout_mask: u16,
    /// Bit `v` set: VL `v` is treated as having no downstream credits.
    pub stall_mask: u16,
}

impl FaultState {
    /// Is the port in its healthy default state?
    #[must_use]
    pub fn healthy(&self) -> bool {
        *self == FaultState::default()
    }
}

/// One scheduled fault (or restore) action against an output port.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Scale the port's transfer durations by `1 << shift`
    /// (`shift == 0` restores full rate).
    DegradeLink {
        /// Target node.
        node: NodeId,
        /// Target output port (hosts: always 0).
        port: u8,
        /// Duration scale exponent.
        shift: u8,
    },
    /// Take the link down: no new transfers start.
    LinkDown {
        /// Target node.
        node: NodeId,
        /// Target output port.
        port: u8,
    },
    /// Bring a downed link back up.
    LinkUp {
        /// Target node.
        node: NodeId,
        /// Target output port.
        port: u8,
    },
    /// Replace the port's VL blackout mask (`0` restores all VLs).
    SetVlBlackout {
        /// Target node.
        node: NodeId,
        /// Target output port.
        port: u8,
        /// New blackout mask (bit per VL).
        mask: u16,
    },
    /// Replace the port's credit-stall mask (`0` restores all VLs).
    SetCreditStall {
        /// Target node.
        node: NodeId,
        /// Target output port.
        port: u8,
        /// New stall mask (bit per VL).
        mask: u16,
    },
    /// Deterministically corrupt the port's installed arbitration
    /// table: seeded weight loss/garbling over the high-priority
    /// entries. One-shot — repair is the recovery layer's job.
    CorruptTable {
        /// Target node.
        node: NodeId,
        /// Target output port.
        port: u8,
        /// Corruption sub-seed.
        seed: u64,
    },
    /// Control-plane fault: crash the admission-service shard worker
    /// handling trace operation `op`. Consumed by
    /// `iba_qos::service::ServeFaultPlan::from_calendar`; the fabric
    /// ignores it.
    ServeCrash {
        /// Targeted trace-operation index.
        op: u32,
    },
    /// Control-plane fault: lose or delay the coordinator→shard vote
    /// message of trace operation `op`.
    ServeVoteLoss {
        /// Targeted trace-operation index.
        op: u32,
    },
    /// Control-plane fault: lose the shard→coordinator reply of trace
    /// operation `op`.
    ServeReplyLoss {
        /// Targeted trace-operation index.
        op: u32,
    },
}

impl FaultAction {
    /// The output port this action targets. Control-plane (serve)
    /// actions have no port target and report `(Switch(0), 0)`; use
    /// [`FaultAction::is_control_plane`] to filter them out before
    /// touching the fabric.
    #[must_use]
    pub fn target(&self) -> (NodeId, u8) {
        match *self {
            FaultAction::DegradeLink { node, port, .. }
            | FaultAction::LinkDown { node, port }
            | FaultAction::LinkUp { node, port }
            | FaultAction::SetVlBlackout { node, port, .. }
            | FaultAction::SetCreditStall { node, port, .. }
            | FaultAction::CorruptTable { node, port, .. } => (node, port),
            FaultAction::ServeCrash { .. }
            | FaultAction::ServeVoteLoss { .. }
            | FaultAction::ServeReplyLoss { .. } => (NodeId::Switch(0), 0),
        }
    }

    /// Does this action target the admission-service control plane
    /// (rather than a fabric port)?
    #[must_use]
    pub fn is_control_plane(&self) -> bool {
        matches!(
            *self,
            FaultAction::ServeCrash { .. }
                | FaultAction::ServeVoteLoss { .. }
                | FaultAction::ServeReplyLoss { .. }
        )
    }

    /// The `fault_code` this action is traced under.
    #[must_use]
    pub fn code(&self) -> u8 {
        match *self {
            FaultAction::DegradeLink { shift, .. } if shift > 0 => fault_code::LINK_DEGRADE,
            FaultAction::DegradeLink { .. } | FaultAction::LinkUp { .. } => fault_code::LINK_UP,
            FaultAction::LinkDown { .. } => fault_code::LINK_DOWN,
            FaultAction::SetVlBlackout { .. } => fault_code::VL_BLACKOUT,
            FaultAction::SetCreditStall { .. } => fault_code::CREDIT_STALL,
            FaultAction::CorruptTable { .. } => fault_code::TABLE_CORRUPT,
            FaultAction::ServeCrash { .. } => fault_code::SERVE_CRASH,
            FaultAction::ServeVoteLoss { .. } => fault_code::SERVE_VOTE_LOSS,
            FaultAction::ServeReplyLoss { .. } => fault_code::SERVE_REPLY_LOSS,
        }
    }
}

/// Deterministically corrupts an installed arbitration table: seeded
/// weight loss (entry zeroed, the table "forgets" a VL) and weight
/// garbling over the high-priority entries. At least one entry is
/// always damaged when the high table is non-empty, so a corruption
/// event is never a silent no-op.
#[must_use]
pub fn corrupt_config(cfg: &VlArbConfig, seed: u64) -> VlArbConfig {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x0BAD_7AB1_E0C0_FFEE);
    let mut out = cfg.clone();
    let mut changed = false;
    for e in &mut out.high {
        match rng.next_u64() % 4 {
            0 => {
                e.weight = 0;
                changed = true;
            }
            1 => {
                e.weight = (rng.next_u64() & 0xFF) as u8;
                changed = true;
            }
            _ => {}
        }
    }
    if !changed {
        if let Some(e) = out.high.first_mut() {
            e.weight = 0;
        }
    }
    out
}

/// Packs a fault target into the 16-bit `port` field of a
/// [`iba_obs::TraceEvent::Fault`] record: hosts set the top bit,
/// switches carry `switch << 8 | port`.
#[must_use]
pub fn encode_target(node: NodeId, port: u8) -> u16 {
    match node {
        NodeId::Switch(s) => (s << 8) | u16::from(port),
        NodeId::Host(h) => 0x8000 | (h & 0x7FFF),
    }
}

/// A seeded, time-ordered schedule of fault actions.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// The seed the plan was generated from (0 for hand-built plans).
    pub seed: u64,
    /// `(fire time, action)` pairs; applied in calendar order.
    pub events: Vec<(Cycles, FaultAction)>,
}

impl FaultPlan {
    /// An empty plan.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            events: Vec::new(),
        }
    }

    /// Adds one action at `at`.
    pub fn push(&mut self, at: Cycles, action: FaultAction) {
        self.events.push((at, action));
    }

    /// Generates a bounded chaos schedule over a fabric of `switches`
    /// switches with `ports` output ports each and `hosts` hosts.
    ///
    /// Faults fire inside `[start, start + horizon)`; every transient
    /// fault is paired with its restore no later than `start + horizon`,
    /// so the fabric is structurally healthy again after the window
    /// (corrupted tables stay corrupted — that is the recovery
    /// manager's problem). Deterministic in all arguments.
    #[must_use]
    pub fn generate(
        seed: u64,
        start: Cycles,
        horizon: Cycles,
        switches: u16,
        ports: u8,
        hosts: u16,
    ) -> Self {
        let mut rng = SplitMix64::seed_from_u64(seed ^ 0xFA01_7BAD_5EED_0001);
        let mut plan = FaultPlan::new(seed);
        let horizon = horizon.max(16);
        let faults = 3 + (rng.next_u64() % 4) as usize;
        for _ in 0..faults {
            let (node, port) = pick_target(&mut rng, switches, ports, hosts);
            let at = start + rng.next_u64() % (horizon / 2);
            // Outages last between 1/16 and 1/4 of the window.
            let dur = horizon / 16 + rng.next_u64() % (horizon / 4);
            let end = (at + dur).min(start + horizon);
            match rng.next_u64() % 5 {
                0 => {
                    let shift = 1 + (rng.next_u64() % 3) as u8;
                    plan.push(at, FaultAction::DegradeLink { node, port, shift });
                    plan.push(
                        end,
                        FaultAction::DegradeLink {
                            node,
                            port,
                            shift: 0,
                        },
                    );
                }
                1 => {
                    plan.push(at, FaultAction::LinkDown { node, port });
                    plan.push(end, FaultAction::LinkUp { node, port });
                }
                2 => {
                    let mask = 1u16 << (rng.next_u64() % 15);
                    plan.push(at, FaultAction::SetVlBlackout { node, port, mask });
                    plan.push(
                        end,
                        FaultAction::SetVlBlackout {
                            node,
                            port,
                            mask: 0,
                        },
                    );
                }
                3 => {
                    let mask = 1u16 << (rng.next_u64() % 15);
                    plan.push(at, FaultAction::SetCreditStall { node, port, mask });
                    plan.push(
                        end,
                        FaultAction::SetCreditStall {
                            node,
                            port,
                            mask: 0,
                        },
                    );
                }
                _ => {
                    let seed = rng.next_u64();
                    plan.push(at, FaultAction::CorruptTable { node, port, seed });
                }
            }
        }
        // Calendar insertion order is part of the deterministic
        // contract: sort by time (ties keep generation order).
        plan.events.sort_by_key(|&(t, _)| t);
        plan
    }

    /// Generates a control-plane chaos schedule against an admission
    /// trace of `ops` operations: at most one serve fault per
    /// operation, roughly one op in three targeted. Fire times are the
    /// operation indices, so the schedule is time-sorted by
    /// construction and shard-count independent. Deterministic in both
    /// arguments; never touches the fabric-fault domain of
    /// [`FaultPlan::generate`].
    #[must_use]
    pub fn generate_control(seed: u64, ops: usize) -> Self {
        let mut rng = SplitMix64::seed_from_u64(seed ^ 0xC7A0_17A7_FA17_5EED);
        let mut plan = FaultPlan::new(seed);
        for op in 0..ops {
            let roll = rng.next_u64() % 100;
            let kind = rng.next_u64() % 3;
            if roll >= 33 {
                continue;
            }
            let op = op as u32;
            let action = match kind {
                0 => FaultAction::ServeCrash { op },
                1 => FaultAction::ServeVoteLoss { op },
                _ => FaultAction::ServeReplyLoss { op },
            };
            plan.push(Cycles::from(op), action);
        }
        plan
    }
}

fn pick_target(rng: &mut SplitMix64, switches: u16, ports: u8, hosts: u16) -> (NodeId, u8) {
    let switch_ports = u64::from(switches) * u64::from(ports);
    let total = (switch_ports + u64::from(hosts)).max(1);
    let pick = rng.next_u64() % total;
    if pick < switch_ports && ports > 0 {
        (
            NodeId::Switch((pick / u64::from(ports)) as u16),
            (pick % u64::from(ports)) as u8,
        )
    } else if hosts > 0 {
        (
            NodeId::Host((pick.saturating_sub(switch_ports) % u64::from(hosts)) as u16),
            0,
        )
    } else {
        (NodeId::Switch(0), 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_is_deterministic() {
        let a = FaultPlan::generate(7, 1000, 100_000, 4, 4, 8);
        let b = FaultPlan::generate(7, 1000, 100_000, 4, 4, 8);
        assert_eq!(a.events, b.events);
        assert!(!a.events.is_empty());
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::generate(1, 0, 100_000, 4, 4, 8);
        let b = FaultPlan::generate(2, 0, 100_000, 4, 4, 8);
        assert_ne!(a.events, b.events);
    }

    #[test]
    fn transient_faults_are_paired_with_restores() {
        let plan = FaultPlan::generate(42, 500, 50_000, 4, 4, 8);
        let mut downs = 0i64;
        for &(_, a) in &plan.events {
            match a {
                FaultAction::LinkDown { .. } => downs += 1,
                FaultAction::LinkUp { .. } => downs -= 1,
                FaultAction::DegradeLink { shift, .. } => {
                    if shift > 0 {
                        downs += 1;
                    } else {
                        downs -= 1;
                    }
                }
                FaultAction::SetVlBlackout { mask, .. }
                | FaultAction::SetCreditStall { mask, .. } => {
                    if mask != 0 {
                        downs += 1;
                    } else {
                        downs -= 1;
                    }
                }
                FaultAction::CorruptTable { .. }
                | FaultAction::ServeCrash { .. }
                | FaultAction::ServeVoteLoss { .. }
                | FaultAction::ServeReplyLoss { .. } => {}
            }
        }
        assert_eq!(downs, 0, "every transient fault must have a restore");
    }

    #[test]
    fn generate_control_is_deterministic_and_control_plane_only() {
        let a = FaultPlan::generate_control(7, 64);
        let b = FaultPlan::generate_control(7, 64);
        assert_eq!(a.events, b.events);
        assert!(!a.events.is_empty());
        assert_ne!(a.events, FaultPlan::generate_control(8, 64).events);
        let mut last = 0;
        for &(t, action) in &a.events {
            assert!(action.is_control_plane());
            assert!(t >= last, "control plan not time-sorted");
            last = t;
        }
        // At most one fault per op, and fire time == op index.
        let ops: Vec<u64> = a.events.iter().map(|&(t, _)| t).collect();
        let mut deduped = ops.clone();
        deduped.dedup();
        assert_eq!(ops, deduped, "more than one fault scheduled for an op");
    }

    #[test]
    fn serve_actions_carry_serve_fault_codes() {
        assert_eq!(
            FaultAction::ServeCrash { op: 3 }.code(),
            fault_code::SERVE_CRASH
        );
        assert_eq!(
            FaultAction::ServeVoteLoss { op: 3 }.code(),
            fault_code::SERVE_VOTE_LOSS
        );
        assert_eq!(
            FaultAction::ServeReplyLoss { op: 3 }.code(),
            fault_code::SERVE_REPLY_LOSS
        );
        assert!(FaultAction::ServeCrash { op: 0 }.is_control_plane());
        assert!(!FaultAction::LinkDown {
            node: NodeId::Switch(0),
            port: 0
        }
        .is_control_plane());
    }

    #[test]
    fn events_are_time_sorted_and_bounded() {
        let start = 1_000;
        let horizon = 80_000;
        let plan = FaultPlan::generate(9, start, horizon, 2, 4, 4);
        let mut last = 0;
        for &(t, _) in &plan.events {
            assert!(t >= last, "plan not time-sorted");
            assert!(t >= start && t <= start + horizon);
            last = t;
        }
    }

    #[test]
    fn target_encoding_separates_hosts_and_switches() {
        assert_eq!(encode_target(NodeId::Switch(3), 2), 0x0302);
        assert_eq!(encode_target(NodeId::Host(5), 0), 0x8005);
        assert_ne!(
            encode_target(NodeId::Switch(0), 5),
            encode_target(NodeId::Host(5), 0)
        );
    }

    #[test]
    fn action_codes_match_contract() {
        let n = NodeId::Switch(0);
        assert_eq!(
            FaultAction::LinkDown { node: n, port: 0 }.code(),
            fault_code::LINK_DOWN
        );
        assert_eq!(
            FaultAction::LinkUp { node: n, port: 0 }.code(),
            fault_code::LINK_UP
        );
        assert_eq!(
            FaultAction::DegradeLink {
                node: n,
                port: 0,
                shift: 2
            }
            .code(),
            fault_code::LINK_DEGRADE
        );
        assert_eq!(
            FaultAction::DegradeLink {
                node: n,
                port: 0,
                shift: 0
            }
            .code(),
            fault_code::LINK_UP
        );
    }

    #[test]
    fn default_state_is_healthy() {
        let mut st = FaultState::default();
        assert!(st.healthy());
        st.down = true;
        assert!(!st.healthy());
    }
}
