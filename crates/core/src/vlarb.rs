//! The runtime virtual-lane arbitration engine of an output port.
//!
//! Implements the `VLArbitrationTable` semantics of IBA 1.0 §7.6.9 as
//! summarised in §2.1 of the paper: two weighted-round-robin tables
//! (High and Low priority) of up to 64 `(VL, weight)` entries, weights
//! in 64-byte units debited per whole packet, and a
//! `LimitOfHighPriority` counter bounding how many high-priority bytes
//! may be sent before a waiting low-priority packet gets a slot. VL15 is
//! handled outside the tables and always wins.

use crate::entry::{TableSlot, VirtualLane, TABLE_ENTRIES};
use crate::weight::bytes_to_weight_units;

/// Bytes of high-priority credit granted per unit of
/// `LimitOfHighPriority` (IBA: units of 4096 bytes).
pub const LIMIT_UNIT_BYTES: u64 = 4096;

/// `LimitOfHighPriority` value meaning "unlimited" (low priority is
/// served only when no high-priority packet is ready).
pub const LIMIT_UNLIMITED: u8 = 255;

/// One arbitration table entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ArbEntry {
    /// VL this entry grants transmission to.
    pub vl: VirtualLane,
    /// Weight in 64-byte units (entries with weight 0 are skipped).
    pub weight: u8,
}

/// Static configuration of a port's `VLArbitrationTable`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct VlArbConfig {
    /// High-priority table (up to 64 entries).
    pub high: Vec<ArbEntry>,
    /// Low-priority table (up to 64 entries).
    pub low: Vec<ArbEntry>,
    /// `LimitOfHighPriority` (×4096 bytes; 255 = unlimited).
    pub limit_of_high_priority: u8,
}

impl VlArbConfig {
    /// Builds a config from the raw high-priority slots (as produced by
    /// [`crate::table::HighPriorityTable::slots`]) plus a low-priority
    /// table.
    #[must_use]
    pub fn from_slots(
        high: &[TableSlot; TABLE_ENTRIES],
        low: Vec<ArbEntry>,
        limit_of_high_priority: u8,
    ) -> Self {
        let mut config = VlArbConfig {
            high: Vec::with_capacity(TABLE_ENTRIES),
            low,
            limit_of_high_priority,
        };
        config.set_high_slots(high);
        config
    }

    /// Rewrites this config into what [`VlArbConfig::from_slots`]
    /// builds from the same arguments, reusing its tables' storage.
    pub fn set_from_slots(
        &mut self,
        high: &[TableSlot; TABLE_ENTRIES],
        low: &[ArbEntry],
        limit_of_high_priority: u8,
    ) {
        self.set_high_slots(high);
        self.low.clear();
        self.low.extend_from_slice(low);
        self.limit_of_high_priority = limit_of_high_priority;
    }

    fn set_high_slots(&mut self, high: &[TableSlot; TABLE_ENTRIES]) {
        self.high.clear();
        self.high.extend(high.iter().map(|s| ArbEntry {
            // Table slots only ever carry data VLs (asserts if not).
            vl: VirtualLane::data(s.vl),
            weight: s.weight,
        }));
    }

    /// Whether this config equals what [`VlArbConfig::from_slots`] would
    /// build from the same arguments, checked without building it (the
    /// subnet manager's per-port "did this table change?" test).
    #[must_use]
    pub fn matches_slots(
        &self,
        high: &[TableSlot; TABLE_ENTRIES],
        low: &[ArbEntry],
        limit_of_high_priority: u8,
    ) -> bool {
        self.limit_of_high_priority == limit_of_high_priority
            && self.low == low
            && self.high.len() == TABLE_ENTRIES
            && self
                .high
                .iter()
                .zip(high)
                .all(|(e, s)| e.vl.raw() == s.vl && e.weight == s.weight)
    }

    /// A config with an empty high-priority table and one low-priority
    /// entry per given VL/weight (the usual best-effort setup).
    #[must_use]
    pub fn low_only(low: Vec<ArbEntry>) -> Self {
        VlArbConfig {
            high: Vec::new(),
            low,
            limit_of_high_priority: 0,
        }
    }

    pub(crate) fn validate(&self) {
        assert!(self.high.len() <= TABLE_ENTRIES, "high table too long");
        assert!(self.low.len() <= TABLE_ENTRIES, "low table too long");
        for e in self.high.iter().chain(&self.low) {
            assert!(!e.vl.is_management(), "VL15 must not appear in the table");
        }
    }
}

/// Which table served a packet — reported to the caller for statistics.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ServedBy {
    /// The high-priority table.
    High,
    /// The low-priority table.
    Low,
}

/// A transmission grant.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Grant {
    /// The VL allowed to transmit its head packet.
    pub vl: VirtualLane,
    /// Size of the granted packet in bytes (echoed from the query).
    pub bytes: u64,
    /// Which priority table granted it.
    pub served_by: ServedBy,
    /// `true` when this grant drained the serving entry's weight credit
    /// (the round-robin pointer will move past it next time). Feeds the
    /// `arb_weight_exhausted_total` metric.
    pub exhausted: bool,
}

/// Per-table weighted-round-robin state.
#[derive(Clone, Debug, Default)]
struct WrrState {
    /// Index of the active entry.
    index: usize,
    /// Remaining weight credit of the active entry, in 64-byte units.
    credit: u32,
}

/// The arbitration engine. Owns a [`VlArbConfig`] plus the round-robin
/// pointers and the high-priority limit counter.
///
/// Drive it with [`VlArbEngine::select`], passing a closure that reports
/// the size of the head packet ready for transmission on a VL (`None`
/// when the VL has no packet or no downstream credit). The engine never
/// fragments packets: weight is debited per whole packet, rounded up to
/// 64-byte units, and an entry with any credit left may send one more
/// whole packet (IBA's "rounded up as a whole packet" rule).
///
/// # Examples
///
/// ```
/// use iba_core::{ArbEntry, VirtualLane, VlArbConfig, VlArbEngine};
///
/// // VL0 gets 3x the weight of VL1.
/// let mut engine = VlArbEngine::new(VlArbConfig {
///     high: vec![
///         ArbEntry { vl: VirtualLane::data(0), weight: 3 },
///         ArbEntry { vl: VirtualLane::data(1), weight: 1 },
///     ],
///     low: vec![],
///     limit_of_high_priority: 255,
/// });
///
/// // Both lanes always have a 64-byte packet ready: the grant ratio
/// // follows the weights.
/// let mut counts = [0u32; 2];
/// for _ in 0..400 {
///     let grant = engine.select(|_| Some(64)).unwrap();
///     counts[grant.vl.index()] += 1;
/// }
/// assert_eq!(counts, [300, 100]);
/// ```
#[derive(Clone, Debug)]
pub struct VlArbEngine {
    config: VlArbConfig,
    high: WrrState,
    low: WrrState,
    /// Remaining high-priority bytes before a mandatory low opportunity.
    hl_budget: u64,
}

impl VlArbEngine {
    /// Creates an engine for the given configuration.
    #[must_use]
    pub fn new(config: VlArbConfig) -> Self {
        config.validate();
        let hl_budget = Self::limit_bytes(config.limit_of_high_priority);
        VlArbEngine {
            config,
            high: WrrState::default(),
            low: WrrState::default(),
            hl_budget,
        }
    }

    /// Replaces the configuration (e.g. after the subnet manager updates
    /// the tables); round-robin state restarts.
    pub fn reconfigure(&mut self, config: VlArbConfig) {
        *self = VlArbEngine::new(config);
    }

    /// Restarts the round-robin walk on the current configuration: the
    /// engine is then exactly as [`VlArbEngine::new`] built it, without
    /// validating or copying the tables again.
    pub fn reset(&mut self) {
        self.high = WrrState::default();
        self.low = WrrState::default();
        self.hl_budget = Self::limit_bytes(self.config.limit_of_high_priority);
    }

    /// Current configuration.
    #[must_use]
    pub fn config(&self) -> &VlArbConfig {
        &self.config
    }

    fn limit_bytes(limit: u8) -> u64 {
        if limit == LIMIT_UNLIMITED {
            u64::MAX
        } else {
            // A limit of 0 still permits one high packet burst of up to
            // one unit; model it as the unit value so that weight-0
            // behaviour matches "one low opportunity per high packet".
            u64::from(limit).max(1) * LIMIT_UNIT_BYTES
        }
    }

    /// Arbitrates one packet. `ready(vl)` must return the byte size of
    /// the head packet transmittable *now* on `vl` (flow-control credit
    /// included), or `None`.
    ///
    /// Returns the granted VL and which table served it, or `None` when
    /// no table entry can currently transmit.
    pub fn select(&mut self, mut ready: impl FnMut(VirtualLane) -> Option<u64>) -> Option<Grant> {
        let high_ready = Self::wrr_peek(&self.config.high, &self.high, &mut ready);
        let low_ready = Self::wrr_peek(&self.config.low, &self.low, &mut ready);

        match (high_ready, low_ready) {
            (Some((idx, vl, bytes)), _) if self.hl_budget > 0 || low_ready.is_none() => {
                let exhausted = Self::wrr_commit(&self.config.high, &mut self.high, idx, bytes);
                self.hl_budget = self.hl_budget.saturating_sub(bytes);
                Some(Grant {
                    vl,
                    bytes,
                    served_by: ServedBy::High,
                    exhausted,
                })
            }
            (_, Some((idx, vl, bytes))) => {
                let exhausted = Self::wrr_commit(&self.config.low, &mut self.low, idx, bytes);
                // Serving a low packet resets the high-priority budget.
                self.hl_budget = Self::limit_bytes(self.config.limit_of_high_priority);
                Some(Grant {
                    vl,
                    bytes,
                    served_by: ServedBy::Low,
                    exhausted,
                })
            }
            _ => None,
        }
    }

    /// Finds the entry the WRR would serve next: the active entry if it
    /// still has credit and a ready packet, else the nearest subsequent
    /// entry (wrapping) with nonzero weight and a ready packet.
    fn wrr_peek(
        table: &[ArbEntry],
        state: &WrrState,
        ready: &mut impl FnMut(VirtualLane) -> Option<u64>,
    ) -> Option<(usize, VirtualLane, u64)> {
        if table.is_empty() {
            return None;
        }
        if state.credit > 0 {
            if let Some(e) = table.get(state.index) {
                if e.weight > 0 {
                    if let Some(bytes) = ready(e.vl) {
                        return Some((state.index, e.vl, bytes));
                    }
                }
            }
        }
        // Scan the whole table once, starting after the active entry.
        for step in 1..=table.len() {
            let idx = (state.index + step) % table.len();
            let e = table[idx];
            if e.weight == 0 {
                continue;
            }
            if let Some(bytes) = ready(e.vl) {
                return Some((idx, e.vl, bytes));
            }
        }
        None
    }

    /// Debits the granted packet against the entry's credit. Returns
    /// `true` when the debit drained the credit to zero (the entry's
    /// turn is over).
    fn wrr_commit(table: &[ArbEntry], state: &mut WrrState, idx: usize, bytes: u64) -> bool {
        if idx != state.index || state.credit == 0 {
            state.index = idx;
            state.credit = u32::from(table[idx].weight);
        }
        let units = bytes_to_weight_units(bytes) as u32;
        state.credit = state.credit.saturating_sub(units);
        state.credit == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vl(i: u8) -> VirtualLane {
        VirtualLane::data(i)
    }

    fn entry(v: u8, w: u8) -> ArbEntry {
        ArbEntry {
            vl: vl(v),
            weight: w,
        }
    }

    /// Runs `n` arbitration rounds with every listed VL always ready
    /// with `pkt`-byte packets; returns how many packets each VL got.
    fn run(engine: &mut VlArbEngine, always_ready: &[u8], pkt: u64, n: usize) -> [usize; 16] {
        let mut counts = [0usize; 16];
        for _ in 0..n {
            let grant = engine.select(|v| always_ready.contains(&v.raw()).then_some(pkt));
            match grant {
                Some(g) => counts[g.vl.index()] += 1,
                None => break,
            }
        }
        counts
    }

    #[test]
    fn empty_tables_grant_nothing() {
        let mut e = VlArbEngine::new(VlArbConfig {
            high: vec![],
            low: vec![],
            limit_of_high_priority: 10,
        });
        assert!(e.select(|_| Some(64)).is_none());
    }

    #[test]
    fn weights_shape_bandwidth_share() {
        // VL0 weight 3, VL1 weight 1, 64-byte packets: 3:1 split.
        let mut e = VlArbEngine::new(VlArbConfig {
            high: vec![entry(0, 3), entry(1, 1)],
            low: vec![],
            limit_of_high_priority: LIMIT_UNLIMITED,
        });
        let counts = run(&mut e, &[0, 1], 64, 400);
        assert_eq!(counts[0], 300);
        assert_eq!(counts[1], 100);
    }

    #[test]
    fn zero_weight_entries_are_skipped() {
        let mut e = VlArbEngine::new(VlArbConfig {
            high: vec![entry(0, 0), entry(1, 1)],
            low: vec![],
            limit_of_high_priority: LIMIT_UNLIMITED,
        });
        let counts = run(&mut e, &[0, 1], 64, 10);
        assert_eq!(counts[0], 0);
        assert_eq!(counts[1], 10);
    }

    #[test]
    fn not_ready_vls_lose_their_turn() {
        let mut e = VlArbEngine::new(VlArbConfig {
            high: vec![entry(0, 1), entry(1, 1)],
            low: vec![],
            limit_of_high_priority: LIMIT_UNLIMITED,
        });
        // Only VL1 ever has packets.
        let counts = run(&mut e, &[1], 64, 10);
        assert_eq!(counts[1], 10);
    }

    #[test]
    fn whole_packet_rounding_overdraws_once() {
        // Weight 1 (64 bytes) but 256-byte packets: each turn sends one
        // whole packet, then moves on — the share stays 1:1 with equal
        // weights regardless of overdraw.
        let mut e = VlArbEngine::new(VlArbConfig {
            high: vec![entry(0, 1), entry(1, 1)],
            low: vec![],
            limit_of_high_priority: LIMIT_UNLIMITED,
        });
        let counts = run(&mut e, &[0, 1], 256, 100);
        assert_eq!(counts[0], 50);
        assert_eq!(counts[1], 50);
    }

    #[test]
    fn high_always_beats_low_when_unlimited() {
        let mut e = VlArbEngine::new(VlArbConfig {
            high: vec![entry(0, 1)],
            low: vec![entry(1, 255)],
            limit_of_high_priority: LIMIT_UNLIMITED,
        });
        let counts = run(&mut e, &[0, 1], 64, 100);
        assert_eq!(counts[0], 100);
        assert_eq!(counts[1], 0);
    }

    #[test]
    fn low_served_when_high_idle() {
        let mut e = VlArbEngine::new(VlArbConfig {
            high: vec![entry(0, 1)],
            low: vec![entry(1, 1)],
            limit_of_high_priority: LIMIT_UNLIMITED,
        });
        let counts = run(&mut e, &[1], 64, 10);
        assert_eq!(counts[1], 10);
    }

    #[test]
    fn limit_forces_low_opportunities() {
        // Limit 1 => 4096 high bytes per low opportunity. With 4096-byte
        // packets: alternating high/low.
        let mut e = VlArbEngine::new(VlArbConfig {
            high: vec![entry(0, 255)],
            low: vec![entry(1, 255)],
            limit_of_high_priority: 1,
        });
        let counts = run(&mut e, &[0, 1], 4096, 100);
        assert_eq!(counts[0], 50);
        assert_eq!(counts[1], 50);
    }

    #[test]
    fn limit_ratio_with_small_packets() {
        // Limit 1 (4096 bytes) with 64-byte packets: 64 high per 1 low.
        let mut e = VlArbEngine::new(VlArbConfig {
            high: vec![entry(0, 255)],
            low: vec![entry(1, 255)],
            limit_of_high_priority: 1,
        });
        let counts = run(&mut e, &[0, 1], 64, 650);
        let ratio = counts[0] as f64 / counts[1] as f64;
        assert!((ratio - 64.0).abs() < 2.0, "ratio {ratio}");
    }

    #[test]
    fn grants_flag_weight_exhaustion() {
        // Weight 2 (128 bytes), 64-byte packets: every second grant on a
        // lane drains its credit.
        let mut e = VlArbEngine::new(VlArbConfig {
            high: vec![entry(0, 2), entry(1, 2)],
            low: vec![],
            limit_of_high_priority: LIMIT_UNLIMITED,
        });
        let mut flags = Vec::new();
        for _ in 0..8 {
            let g = e.select(|_| Some(64)).unwrap();
            flags.push((g.vl.raw(), g.exhausted));
        }
        // The fresh engine starts with zero credit at index 0, so the
        // first scan begins after it and serves VL1 first.
        assert_eq!(
            flags,
            vec![
                (1, false),
                (1, true),
                (0, false),
                (0, true),
                (1, false),
                (1, true),
                (0, false),
                (0, true),
            ]
        );
    }

    #[test]
    fn oversized_packet_exhausts_immediately() {
        // Weight 1 (64 bytes) but a 256-byte packet: the whole-packet
        // overdraw drains the credit in one grant.
        let mut e = VlArbEngine::new(VlArbConfig {
            high: vec![entry(0, 1)],
            low: vec![],
            limit_of_high_priority: LIMIT_UNLIMITED,
        });
        let g = e.select(|_| Some(256)).unwrap();
        assert!(g.exhausted);
    }

    #[test]
    fn reconfigure_resets_state() {
        let mut e = VlArbEngine::new(VlArbConfig {
            high: vec![entry(0, 1)],
            low: vec![],
            limit_of_high_priority: 5,
        });
        let _ = e.select(|_| Some(64));
        e.reconfigure(VlArbConfig {
            high: vec![entry(2, 1)],
            low: vec![],
            limit_of_high_priority: 5,
        });
        let g = e.select(|_| Some(64)).unwrap();
        assert_eq!(g.vl, vl(2));
    }

    #[test]
    #[should_panic(expected = "VL15 must not appear")]
    fn vl15_rejected() {
        let _ = VlArbEngine::new(VlArbConfig {
            high: vec![ArbEntry {
                vl: VirtualLane::VL15,
                weight: 1,
            }],
            low: vec![],
            limit_of_high_priority: 0,
        });
    }

    #[test]
    fn wrr_is_fair_across_many_vls() {
        let high: Vec<ArbEntry> = (0..8).map(|i| entry(i, 2)).collect();
        let mut e = VlArbEngine::new(VlArbConfig {
            high,
            low: vec![],
            limit_of_high_priority: LIMIT_UNLIMITED,
        });
        let ready: Vec<u8> = (0..8).collect();
        let counts = run(&mut e, &ready, 64, 800);
        for (i, &c) in counts.iter().enumerate().take(8) {
            assert_eq!(c, 100, "VL{i} got {c}");
        }
    }
}
