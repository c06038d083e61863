//! Compiled arbitration schedules: the `VLArbitrationTable` turned
//! into a flat grant stream that the hot path can walk without
//! re-interpreting table entries.
//!
//! [`VlArbEngine`](crate::VlArbEngine) re-walks the configured table on
//! every grant: it indexes `Vec<ArbEntry>`, skips weight-0 entries one
//! by one and probes readiness through a closure. Tables only change at
//! admission, teardown, repair and fault-corruption events — thousands
//! of grants apart — so this module *compiles* a [`VlArbConfig`] once
//! per change into a [`GrantStream`]: a dense `(vl, weight)` array
//! (weight-0 entries removed; a weight is a burst of 64-byte units)
//! plus a per-VL bitmask of entry positions. [`CompiledVlArb`] then arbitrates
//! by bit arithmetic alone: the caller passes a 16-bit ready mask and a
//! per-VL head-packet size array, and the next entry is found with one
//! mask intersection and `trailing_zeros` — no table walk, no closure
//! calls, no branches over skipped entries.
//!
//! The compiled engine is **observationally identical** to the
//! interpreted one: for every configuration and every sequence of ready
//! sets, [`CompiledVlArb::select`] returns exactly the grants
//! [`VlArbEngine::select`](crate::VlArbEngine::select) would (the
//! differential tests below drive both over seeded random traffic).
//! The only state the interpreted engine carries that a dense array
//! cannot express directly — a round-robin pointer parked on a
//! weight-0 entry, which happens solely in the freshly-reset state — is
//! folded into the compiled initial cursor (see
//! [`GrantStream::compile`]).
//!
//! The per-VL service *fractions* of a compiled stream are exposed via
//! [`GrantStream::service_units`]: under saturation a WRR table serves
//! VL `i` a `w_i / Σw` share of bytes, with bounded short-term
//! deviation (the NoC-WRR service-curve analysis, arXiv 2108.09534) —
//! the analytical cross-check test in this module asserts the compiled
//! stream reproduces that closed form.

use crate::entry::{VirtualLane, TABLE_ENTRIES};
use crate::vlarb::{ArbEntry, Grant, ServedBy, VlArbConfig, LIMIT_UNIT_BYTES, LIMIT_UNLIMITED};
use crate::weight::{bytes_to_weight_units, WEIGHT_UNIT_BYTES};
use std::sync::Arc;

/// One weighted-round-robin table compiled to a flat grant stream.
///
/// The stream keeps only entries with nonzero weight, in table order;
/// entry `i` of the stream grants `burst` bytes (= weight × 64) to its
/// VL per round-robin turn. `positions[vl]` is the bitmask of stream
/// indices belonging to `vl`, so "first entry after the cursor whose VL
/// is ready" is a mask-and plus `trailing_zeros`.
#[derive(Clone, Debug)]
pub struct GrantStream {
    /// VL of each stream entry (dense, weight > 0 only).
    vls: [u8; TABLE_ENTRIES],
    /// Per-turn credit of each stream entry, in 64-byte weight units.
    credits: [u8; TABLE_ENTRIES],
    /// Number of live stream entries.
    len: u32,
    /// Bitmask of stream indices per VL (`positions[3]` has bit `i` set
    /// iff stream entry `i` grants to VL3).
    positions: [u64; 16],
    /// VLs with at least one live entry.
    vl_mask: u16,
    /// Cursor value a freshly-reset walk starts from (encodes the
    /// interpreted engine's "pointer at raw index 0" initial state).
    initial_cursor: u32,
}

impl GrantStream {
    /// Compiles one table into its grant stream.
    ///
    /// The interpreted engine starts with its round-robin pointer on
    /// *raw* index 0 with zero credit, so its first scan begins at raw
    /// index 1 and ends back on raw index 0. When raw entry 0 is live
    /// the same walk starts from stream cursor 0; when raw entry 0 has
    /// weight 0 (not part of the stream) the first scan must cover the
    /// stream in order `0, 1, …`, which is a walk starting *after* the
    /// last stream entry — hence `initial_cursor = len - 1`.
    #[must_use]
    pub fn compile(table: &[ArbEntry]) -> Self {
        let mut s = GrantStream {
            vls: [0; TABLE_ENTRIES],
            credits: [0; TABLE_ENTRIES],
            len: 0,
            positions: [0; 16],
            vl_mask: 0,
            initial_cursor: 0,
        };
        s.fill(table);
        s
    }

    /// Recompiles `table` into this stream, which ends up exactly as
    /// [`GrantStream::compile`] builds it.
    fn recompile(&mut self, table: &[ArbEntry]) {
        self.vls[..self.len as usize].fill(0);
        self.credits[..self.len as usize].fill(0);
        self.len = 0;
        self.positions = [0; 16];
        self.initial_cursor = 0;
        self.fill(table);
    }

    /// Appends `table`'s live entries to an empty stream.
    ///
    /// Branch-free over the entries: every entry is written at the
    /// next free index, and only a live one (weight > 0) advances the
    /// length and sets its position bit. Free slots lie scattered
    /// through a filled table, so a branch on the weight would
    /// mispredict on a large share of them.
    fn fill(&mut self, table: &[ArbEntry]) {
        assert!(table.len() <= TABLE_ENTRIES, "table too long");
        let mut len = 0usize;
        for e in table {
            let vl = usize::from(e.vl.raw());
            let live = e.weight != 0;
            self.vls[len] = vl as u8;
            self.credits[len] = e.weight;
            self.positions[vl] |= u64::from(live) << len;
            len += usize::from(live);
        }
        // A dead entry after the last live one was written at `len`.
        if len < TABLE_ENTRIES {
            self.vls[len] = 0;
            self.credits[len] = 0;
        }
        self.len = len as u32;
        self.vl_mask = (0..16).fold(0, |m, v| m | u16::from(self.positions[v] != 0) << v);
        if table.first().is_some_and(|e| e.weight == 0) {
            self.initial_cursor = self.len.saturating_sub(1);
        }
    }

    /// Number of live entries in the stream.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the stream has no live entries (nothing to grant).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// VLs with at least one live entry, as a bitmask (bit `v` = VL v).
    #[must_use]
    pub fn vl_mask(&self) -> u16 {
        self.vl_mask
    }

    /// The flat `(vl, burst_bytes)` stream: each live entry's VL and
    /// the bytes it may burst per round-robin turn (weight × 64).
    pub fn entries(&self) -> impl Iterator<Item = (VirtualLane, u64)> + '_ {
        (0..self.len as usize).map(|i| {
            (
                VirtualLane::data(self.vls[i]),
                u64::from(self.credits[i]) * WEIGHT_UNIT_BYTES,
            )
        })
    }

    /// Total weight units the stream grants `vl` per full round — the
    /// numerator of the closed-form WRR service fraction `w_i / Σw`.
    #[must_use]
    pub fn service_units(&self, vl: VirtualLane) -> u64 {
        let mut set = self.positions[vl.index()];
        let mut units = 0;
        while set != 0 {
            units += u64::from(self.credits[set.trailing_zeros() as usize]);
            set &= set - 1;
        }
        units
    }

    /// Sum of all weight units in the stream (the denominator of the
    /// service fraction; 0 for an empty stream).
    #[must_use]
    pub fn total_units(&self) -> u64 {
        self.credits[..self.len as usize]
            .iter()
            .map(|&c| u64::from(c))
            .sum()
    }

    /// The fraction of saturated service owed to `vl` by the closed
    /// form `w_i / Σw` (0.0 for an empty stream).
    #[must_use]
    pub fn service_fraction(&self, vl: VirtualLane) -> f64 {
        let total = self.total_units();
        if total == 0 {
            return 0.0;
        }
        self.service_units(vl) as f64 / total as f64
    }

    /// The entry the walk would serve next, or `None` when no ready VL
    /// has a live entry. Mirrors the interpreted peek: the cursor entry
    /// itself while it has credit and a ready head, else the nearest
    /// subsequent entry (wrapping, the cursor included last) whose VL
    /// is ready.
    #[inline]
    fn peek(&self, cursor: u32, credit: u32, ready_mask: u16) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        if credit > 0 && ready_mask & (1 << self.vls[cursor as usize]) != 0 {
            return Some(cursor);
        }
        let mut avail: u64 = 0;
        let mut m = ready_mask & self.vl_mask;
        while m != 0 {
            avail |= self.positions[m.trailing_zeros() as usize];
            m &= m - 1;
        }
        if avail == 0 {
            return None;
        }
        let after = avail & u64::MAX.checked_shl(cursor + 1).unwrap_or(0);
        let pick = if after != 0 { after } else { avail };
        Some(pick.trailing_zeros())
    }

    /// Debits a granted packet against the stream entry, moving the
    /// cursor and reloading credit exactly as the interpreted
    /// `wrr_commit` does. Returns `true` when the grant drained the
    /// entry's credit.
    #[inline]
    fn commit(&self, cursor: &mut u32, credit: &mut u32, idx: u32, bytes: u64) -> bool {
        if idx != *cursor || *credit == 0 {
            *cursor = idx;
            *credit = u32::from(self.credits[idx as usize]);
        }
        let units = bytes_to_weight_units(bytes) as u32;
        *credit = credit.saturating_sub(units);
        *credit == 0
    }
}

/// The compiled arbitration engine: both tables of a [`VlArbConfig`]
/// as [`GrantStream`]s plus the walk state and the pre-computed
/// `LimitOfHighPriority` byte budget.
///
/// Drop-in replacement for [`VlArbEngine`](crate::VlArbEngine) on the
/// hot path — same grants, different query shape: readiness arrives as
/// a bitmask plus a per-VL byte array instead of a closure.
///
/// # Examples
///
/// ```
/// use iba_core::{ArbEntry, CompiledVlArb, VirtualLane, VlArbConfig};
///
/// let mut arb = CompiledVlArb::new(VlArbConfig {
///     high: vec![
///         ArbEntry { vl: VirtualLane::data(0), weight: 3 },
///         ArbEntry { vl: VirtualLane::data(1), weight: 1 },
///     ],
///     low: vec![],
///     limit_of_high_priority: 255,
/// });
///
/// // Both lanes always ready with 64-byte packets: 3:1 share.
/// let mut counts = [0u32; 2];
/// let bytes = [64u64; 16];
/// for _ in 0..400 {
///     let grant = arb.select(0b11, &bytes).unwrap();
///     counts[grant.vl.index()] += 1;
/// }
/// assert_eq!(counts, [300, 100]);
/// ```
#[derive(Clone, Debug)]
pub struct CompiledVlArb {
    /// The compiled schedule, shared by reference: cloning an engine —
    /// how a fabric stamps one prototype onto every port — copies four
    /// cursors and bumps a refcount instead of duplicating the grant
    /// arrays, and all ports compiled from the same table walk one
    /// cache-resident copy of the streams. Only an engine that holds
    /// the sole reference recompiles it in place.
    shared: Arc<CompiledSchedule>,
    high_cursor: u32,
    high_credit: u32,
    low_cursor: u32,
    low_credit: u32,
    /// Remaining high-priority bytes before a mandatory low turn.
    hl_budget: u64,
}

/// What compilation produces: both grant streams, the source config and
/// the `LimitOfHighPriority` byte budget. Shared schedules are
/// immutable — other ports may be walking them — so reconfiguration
/// recompiles in place only a schedule no other engine holds.
#[derive(Debug)]
struct CompiledSchedule {
    config: VlArbConfig,
    high: GrantStream,
    low: GrantStream,
    /// Reset value of `hl_budget` (`LimitOfHighPriority` in bytes).
    limit_bytes: u64,
}

impl CompiledSchedule {
    fn compile(config: VlArbConfig) -> Self {
        CompiledSchedule {
            high: GrantStream::compile(&config.high),
            low: GrantStream::compile(&config.low),
            limit_bytes: CompiledVlArb::limit_bytes(config.limit_of_high_priority),
            config,
        }
    }

    /// Recompiles both streams from `config`, reusing their storage.
    fn recompile(&mut self) {
        self.high.recompile(&self.config.high);
        self.low.recompile(&self.config.low);
        self.limit_bytes = CompiledVlArb::limit_bytes(self.config.limit_of_high_priority);
    }
}

impl CompiledVlArb {
    /// Compiles `config` into a ready-to-run engine.
    #[must_use]
    pub fn new(config: VlArbConfig) -> Self {
        config.validate();
        let shared = Arc::new(CompiledSchedule::compile(config));
        CompiledVlArb {
            high_cursor: shared.high.initial_cursor,
            high_credit: 0,
            low_cursor: shared.low.initial_cursor,
            low_credit: 0,
            hl_budget: shared.limit_bytes,
            shared,
        }
    }

    /// Recompiles for a new configuration (subnet-manager table
    /// download, fault corruption): the previous compiled schedule is
    /// invalidated and the walk restarts, exactly like
    /// [`VlArbEngine::reconfigure`](crate::VlArbEngine::reconfigure).
    /// A schedule no other engine shares is recompiled in place; a
    /// shared one is left to its other holders and replaced.
    pub fn reconfigure(&mut self, config: VlArbConfig) {
        if Arc::get_mut(&mut self.shared).is_some() {
            self.reconfigure_with(|installed| *installed = config);
        } else {
            *self = CompiledVlArb::new(config);
        }
    }

    /// [`CompiledVlArb::reconfigure`] for the configuration `edit`
    /// makes of the installed one. An unshared schedule's configuration
    /// is edited in place, so its tables' storage is reused; a shared
    /// one's is copied first.
    pub fn reconfigure_with(&mut self, edit: impl FnOnce(&mut VlArbConfig)) {
        match Arc::get_mut(&mut self.shared) {
            Some(schedule) => {
                edit(&mut schedule.config);
                schedule.config.validate();
                schedule.recompile();
            }
            None => {
                let mut config = self.shared.config.clone();
                edit(&mut config);
                config.validate();
                self.shared = Arc::new(CompiledSchedule::compile(config));
            }
        }
        self.reset();
    }

    /// Rewinds the walk to the freshly-compiled state without
    /// recompiling: a table download that left this port's table
    /// unchanged, benchmarks, repeated deterministic runs.
    pub fn reset(&mut self) {
        self.high_cursor = self.shared.high.initial_cursor;
        self.high_credit = 0;
        self.low_cursor = self.shared.low.initial_cursor;
        self.low_credit = 0;
        self.hl_budget = self.shared.limit_bytes;
    }

    /// The configuration this engine was compiled from.
    #[must_use]
    pub fn config(&self) -> &VlArbConfig {
        &self.shared.config
    }

    /// The compiled high-priority grant stream.
    #[must_use]
    pub fn high_stream(&self) -> &GrantStream {
        &self.shared.high
    }

    fn limit_bytes(limit: u8) -> u64 {
        if limit == LIMIT_UNLIMITED {
            u64::MAX
        } else {
            u64::from(limit).max(1) * LIMIT_UNIT_BYTES
        }
    }

    /// Arbitrates one packet. Bit `v` of `ready_mask` must be set iff
    /// VL `v` has a head packet transmittable *now* (flow-control
    /// credit included); `bytes[v]` is that packet's size and is read
    /// only for set bits. Returns the same grant the interpreted
    /// engine would, or `None` when no table entry can transmit.
    #[inline]
    pub fn select(&mut self, ready_mask: u16, bytes: &[u64; 16]) -> Option<Grant> {
        let s = &*self.shared;
        // The low stream is consulted lazily: with budget left (the
        // common steady state — `LimitOfHighPriority = 255` never
        // drains it) a ready high entry wins outright.
        if let Some(idx) = s.high.peek(self.high_cursor, self.high_credit, ready_mask) {
            if self.hl_budget > 0
                || s.low
                    .peek(self.low_cursor, self.low_credit, ready_mask)
                    .is_none()
            {
                let vl = s.high.vls[idx as usize];
                let granted = bytes[vl as usize];
                let exhausted =
                    s.high
                        .commit(&mut self.high_cursor, &mut self.high_credit, idx, granted);
                self.hl_budget = self.hl_budget.saturating_sub(granted);
                return Some(Grant {
                    vl: VirtualLane::data(vl),
                    bytes: granted,
                    served_by: ServedBy::High,
                    exhausted,
                });
            }
        }
        let idx = s.low.peek(self.low_cursor, self.low_credit, ready_mask)?;
        let vl = s.low.vls[idx as usize];
        let granted = bytes[vl as usize];
        let exhausted = s
            .low
            .commit(&mut self.low_cursor, &mut self.low_credit, idx, granted);
        // Serving a low packet resets the high-priority budget.
        self.hl_budget = s.limit_bytes;
        Some(Grant {
            vl: VirtualLane::data(vl),
            bytes: granted,
            served_by: ServedBy::Low,
            exhausted,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;
    use crate::VlArbEngine;

    fn entry(v: u8, w: u8) -> ArbEntry {
        ArbEntry {
            vl: VirtualLane::data(v),
            weight: w,
        }
    }

    /// A seeded random configuration: up to 8 entries per table over
    /// VL0..=5 with weights 0..=4 (weight 0 exercises skipping), plus
    /// a random limit including the 0 and 255 edge cases.
    fn random_config(rng: &mut SplitMix64) -> VlArbConfig {
        let table = |rng: &mut SplitMix64| {
            let len = (rng.next_u64() % 9) as usize;
            (0..len)
                .map(|_| entry((rng.next_u64() % 6) as u8, (rng.next_u64() % 5) as u8))
                .collect::<Vec<_>>()
        };
        let high = table(rng);
        let low = table(rng);
        let limit = match rng.next_u64() % 4 {
            0 => 0,
            1 => LIMIT_UNLIMITED,
            _ => (rng.next_u64() % 8) as u8,
        };
        VlArbConfig {
            high,
            low,
            limit_of_high_priority: limit,
        }
    }

    /// A seeded ready mask over VL0..=5 with a head-packet size for
    /// every ready lane.
    fn random_ready(rng: &mut SplitMix64) -> (u16, [u64; 16]) {
        let ready_mask = (rng.next_u64() % (1 << 6)) as u16;
        let mut bytes = [0u64; 16];
        for (v, b) in bytes.iter_mut().enumerate() {
            if ready_mask & (1 << v) != 0 {
                *b = 64 * (1 + rng.next_u64() % 64);
            }
        }
        (ready_mask, bytes)
    }

    #[test]
    fn compiled_matches_interpreted_grant_for_grant() {
        // The core equivalence claim: over seeded random configs and
        // random ready/byte sequences, both engines emit identical
        // grant streams (VL, bytes, table, exhaustion flag).
        let mut rng = SplitMix64::seed_from_u64(0x5EED_5C4E_D01E);
        for case in 0..200 {
            let config = random_config(&mut rng);
            let mut interpreted = VlArbEngine::new(config.clone());
            let mut compiled = CompiledVlArb::new(config);
            for step in 0..500 {
                let (ready_mask, bytes) = random_ready(&mut rng);
                let a = interpreted
                    .select(|vl| (ready_mask & (1 << vl.index()) != 0).then(|| bytes[vl.index()]));
                let b = compiled.select(ready_mask, &bytes);
                assert_eq!(a, b, "case {case} step {step} diverged");
            }
        }
    }

    #[test]
    fn reconfigure_matches_interpreted_restart() {
        // Reconfiguring mid-stream restarts both engines identically.
        let mut rng = SplitMix64::seed_from_u64(0xC0FF_EE00);
        let first = random_config(&mut rng);
        let second = random_config(&mut rng);
        let mut interpreted = VlArbEngine::new(first.clone());
        let mut compiled = CompiledVlArb::new(first);
        let bytes = [64u64; 16];
        for _ in 0..10 {
            let a = interpreted.select(|vl| Some(bytes[vl.index()]));
            assert_eq!(a, compiled.select(0xFFFF, &bytes));
        }
        interpreted.reconfigure(second.clone());
        compiled.reconfigure(second);
        for _ in 0..50 {
            let a = interpreted.select(|vl| Some(bytes[vl.index()]));
            assert_eq!(a, compiled.select(0xFFFF, &bytes));
        }
    }

    #[test]
    fn reset_mid_walk_matches_a_fresh_engine() {
        // A download that leaves a port's table unchanged only resets
        // its engine, so after any prefix of grants `reset` must leave
        // both engines exactly as freshly built ones for the same config.
        let mut rng = SplitMix64::seed_from_u64(0x2E5E_7A1C);
        for case in 0..200 {
            let config = random_config(&mut rng);
            let mut compiled = CompiledVlArb::new(config.clone());
            let mut interpreted = VlArbEngine::new(config.clone());
            for _ in 0..rng.next_u64() % 40 {
                let (mask, bytes) = random_ready(&mut rng);
                let _ = compiled.select(mask, &bytes);
                let _ = interpreted
                    .select(|vl| (mask & (1 << vl.index()) != 0).then(|| bytes[vl.index()]));
            }
            compiled.reset();
            interpreted.reset();
            let mut fresh_compiled = CompiledVlArb::new(config.clone());
            let mut fresh_interpreted = VlArbEngine::new(config);
            for step in 0..200 {
                let (mask, bytes) = random_ready(&mut rng);
                let ready =
                    |vl: VirtualLane| (mask & (1 << vl.index()) != 0).then(|| bytes[vl.index()]);
                assert_eq!(
                    compiled.select(mask, &bytes),
                    fresh_compiled.select(mask, &bytes),
                    "case {case} step {step}: compiled reset"
                );
                assert_eq!(
                    interpreted.select(ready),
                    fresh_interpreted.select(ready),
                    "case {case} step {step}: interpreted reset"
                );
            }
        }
    }

    /// A table over the whole data-VL domain (VL0..=14) with weights
    /// 0..=255, up to the 64-entry limit.
    fn wide_table(rng: &mut SplitMix64) -> Vec<ArbEntry> {
        let len = rng.next_u64() % (TABLE_ENTRIES as u64 + 1);
        (0..len)
            .map(|_| entry((rng.next_u64() % 15) as u8, (rng.next_u64() % 256) as u8))
            .collect()
    }

    /// The next table a port receives: the installed one damaged the
    /// way the fault model's `corrupt_config` damages it (high entries
    /// zeroed or garbled to any weight), a narrow [`random_config`], or
    /// a wide table with limit 0, 255 or anything between.
    fn next_config(rng: &mut SplitMix64, installed: &VlArbConfig) -> VlArbConfig {
        match rng.next_u64() % 3 {
            0 => {
                let mut damaged = installed.clone();
                for e in &mut damaged.high {
                    match rng.next_u64() % 4 {
                        0 => e.weight = 0,
                        1 => e.weight = (rng.next_u64() & 0xFF) as u8,
                        _ => {}
                    }
                }
                damaged
            }
            1 => random_config(rng),
            _ => VlArbConfig {
                high: wide_table(rng),
                low: wide_table(rng),
                limit_of_high_priority: match rng.next_u64() % 3 {
                    0 => 0,
                    1 => LIMIT_UNLIMITED,
                    _ => (rng.next_u64() % 256) as u8,
                },
            },
        }
    }

    /// Bitmask of the VLs a table gives nonzero high-priority weight.
    fn high_mask(config: &VlArbConfig) -> u16 {
        config
            .high
            .iter()
            .filter(|e| e.weight > 0)
            .fold(0, |m, e| m | 1 << e.vl.index())
    }

    #[test]
    fn compiled_and_reference_engines_run_in_lockstep() {
        // The fabric's whole use of an arbiter, replayed on both
        // engines: `select` with a 16-bit ready mask (the unready
        // lanes' byte slots hold garbage the engine must not read),
        // `reconfigure` on a download or corruption, `reset` on a
        // download that left the table as it was, and the high-VL mask
        // the priority-input-claiming crossbar reads. After every step
        // both engines hold the same table and high mask, and every
        // select returns the same grant.
        let mut rng = SplitMix64::seed_from_u64(0x10C6_57E9);
        for case in 0..150 {
            let installed = random_config(&mut rng);
            let config = next_config(&mut rng, &installed);
            let mut compiled = CompiledVlArb::new(config.clone());
            let mut reference = VlArbEngine::new(config);
            for step in 0..3_000 {
                match rng.next_u64() % 40 {
                    0 => {
                        let config = next_config(&mut rng, reference.config());
                        compiled.reconfigure(config.clone());
                        reference.reconfigure(config);
                    }
                    1 => {
                        compiled.reset();
                        reference.reset();
                    }
                    _ => {
                        let mask = match rng.next_u64() % 4 {
                            0 => 0xFFFF,
                            _ => (rng.next_u64() & 0xFFFF) as u16,
                        };
                        let bytes: [u64; 16] = std::array::from_fn(|_| 1 + rng.next_u64() % 4_096);
                        let want = reference.select(|vl| {
                            (mask & (1 << vl.index()) != 0).then(|| bytes[vl.index()])
                        });
                        assert_eq!(
                            compiled.select(mask, &bytes),
                            want,
                            "case {case} step {step}: grants diverged"
                        );
                    }
                }
                assert_eq!(compiled.config(), reference.config());
                assert_eq!(
                    compiled.high_stream().vl_mask(),
                    high_mask(reference.config()),
                    "case {case} step {step}: high-VL masks diverged"
                );
            }
        }
    }

    #[test]
    fn grant_stream_drops_zero_weight_entries_and_scales_bursts() {
        let stream = GrantStream::compile(&[entry(0, 3), entry(2, 0), entry(1, 1), entry(0, 2)]);
        let flat: Vec<_> = stream.entries().collect();
        assert_eq!(
            flat,
            vec![
                (VirtualLane::data(0), 192),
                (VirtualLane::data(1), 64),
                (VirtualLane::data(0), 128),
            ]
        );
        assert_eq!(stream.len(), 3);
        assert_eq!(stream.vl_mask(), 0b011);
        assert_eq!(stream.service_units(VirtualLane::data(0)), 5);
        assert_eq!(stream.service_units(VirtualLane::data(1)), 1);
        assert_eq!(stream.total_units(), 6);
    }

    #[test]
    fn empty_and_all_zero_tables_compile_to_empty_streams() {
        assert!(GrantStream::compile(&[]).is_empty());
        let zeros = GrantStream::compile(&[entry(0, 0), entry(1, 0)]);
        assert!(zeros.is_empty());
        let mut arb = CompiledVlArb::new(VlArbConfig {
            high: vec![entry(0, 0)],
            low: vec![],
            limit_of_high_priority: 10,
        });
        assert!(arb.select(0xFFFF, &[64; 16]).is_none());
    }

    #[test]
    fn service_fractions_match_wrr_closed_form() {
        // The analytical cross-check (arXiv 2108.09534): a saturated
        // WRR stream serves VL i exactly w_i/Σw of the bytes over any
        // whole number of rounds, and within one entry burst of it at
        // any cut. Drive the compiled engine with every VL saturated
        // at 64-byte packets (one weight unit per packet, no overdraw)
        // and compare measured shares to the closed form.
        let mut rng = SplitMix64::seed_from_u64(0x2108_0953_4000);
        for _ in 0..50 {
            let mut config = random_config(&mut rng);
            // Saturation analysis is per-table; use high-only streams.
            config.low.clear();
            config.limit_of_high_priority = LIMIT_UNLIMITED;
            let mut arb = CompiledVlArb::new(config);
            let stream = arb.high_stream().clone();
            let total = stream.total_units();
            if total == 0 {
                assert!(arb.select(0xFFFF, &[64; 16]).is_none());
                continue;
            }
            // 200 whole rounds: every entry reloads exactly 200 times.
            let rounds = 200;
            let mut served = [0u64; 16];
            let bytes = [64u64; 16];
            for _ in 0..rounds * total {
                let g = arb.select(0xFFFF, &bytes).expect("saturated stream grants");
                served[g.vl.index()] += g.bytes;
            }
            let total_bytes: u64 = served.iter().sum();
            assert_eq!(total_bytes, rounds * total * 64);
            for (v, &lane_bytes) in served.iter().enumerate() {
                let vl = VirtualLane::new(v as u8).unwrap();
                let measured = lane_bytes as f64 / total_bytes as f64;
                let predicted = stream.service_fraction(vl);
                assert!(
                    (measured - predicted).abs() < 1e-12,
                    "VL{v}: measured {measured} != closed form {predicted}"
                );
            }
        }
    }

    #[test]
    fn initial_cursor_covers_the_weight_zero_head_case() {
        // Raw entry 0 has weight 0: the interpreted engine's first scan
        // serves the stream in order 0,1,… — the compiled initial
        // cursor must reproduce that, not start after stream entry 0.
        let config = VlArbConfig {
            high: vec![entry(3, 0), entry(1, 1), entry(2, 1)],
            low: vec![],
            limit_of_high_priority: LIMIT_UNLIMITED,
        };
        let mut interpreted = VlArbEngine::new(config.clone());
        let mut compiled = CompiledVlArb::new(config);
        let bytes = [64u64; 16];
        for _ in 0..8 {
            let a = interpreted.select(|vl| Some(bytes[vl.index()]));
            assert_eq!(a, compiled.select(0xFFFF, &bytes));
        }
    }
}
