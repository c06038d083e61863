//! The stateful high-priority arbitration table of one output port:
//! admission of connections (with sequence sharing), release, and
//! defragmentation.

use crate::alloc::AllocatorKind;
use crate::defrag::{plan_by_counting, Relocation};
use crate::distance::{effective_request, Distance};
use crate::entry::{TableSlot, VirtualLane, TABLE_ENTRIES};
use crate::eset::ESet;
use crate::rng::SplitMix64;
use crate::sequence::{Sequence, SequenceId, SequenceInfo};
use crate::sl::ServiceLevel;
use crate::weight::{Weight, MAX_TABLE_WEIGHT};

/// Errors returned by table operations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TableError {
    /// The request needs more entries than any permitted progression
    /// provides (weight above `32 · 255` units).
    RequestTooLarge,
    /// Admitting the request would exceed the configured reservation
    /// limit (e.g. the 80% QoS share of the link).
    CapacityExceeded,
    /// No free `E_{i,j}` exists for the request's distance.
    NoFreeSequence,
    /// The sequence handle is stale or was never issued.
    UnknownSequence,
    /// Releasing more weight than the sequence holds.
    WeightUnderflow,
}

impl std::fmt::Display for TableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            TableError::RequestTooLarge => "request needs more than 32 table entries",
            TableError::CapacityExceeded => "reservation limit exceeded",
            TableError::NoFreeSequence => "no free entry sequence for the requested distance",
            TableError::UnknownSequence => "unknown sequence id",
            TableError::WeightUnderflow => "released more weight than reserved",
        };
        f.write_str(s)
    }
}

impl std::error::Error for TableError {}

/// A granted admission: which sequence the connection joined and whether
/// a brand-new sequence had to be allocated for it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Admission {
    /// Sequence the connection now shares.
    pub sequence: SequenceId,
    /// `true` when a new sequence was allocated (vs joining an existing
    /// one).
    pub new_sequence: bool,
}

/// Where [`HighPriorityTable::plan_admit`] places a request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Placement {
    /// Join this established sequence of the request's SL.
    Join(SequenceId),
    /// Open a new sequence on this free entry set.
    Fresh(ESet),
}

/// A sequence that [`HighPriorityTable::repair`] had to evict because
/// its bookkeeping could not be trusted (overlapping entry set, drained
/// weight). Carries everything an admission layer needs to re-install
/// the reservation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EvictedSequence {
    /// Service level of the evicted reservation.
    pub sl: ServiceLevel,
    /// Virtual lane it was served on.
    pub vl: VirtualLane,
    /// Entry spacing the reservation held before eviction.
    pub distance: Distance,
    /// Total reserved weight (0 when the damage drained it).
    pub weight: Weight,
    /// Connections that shared the sequence.
    pub connections: u32,
}

/// Outcome of one [`HighPriorityTable::repair`] pass.
#[derive(Clone, Debug, Default)]
pub struct RepairReport {
    /// Whether the table failed its consistency check before repair.
    pub was_damaged: bool,
    /// Sequences evicted because their bookkeeping was untrustworthy;
    /// re-admitting them is the caller's (recovery manager's) job.
    pub evicted: Vec<EvictedSequence>,
    /// Relocations performed by the post-repair defragmentation.
    pub relocations: usize,
}

/// The high-priority table of one output port.
///
/// Owns the 64 slots, the live sequences and the reservation accounting.
/// All mutation goes through [`HighPriorityTable::admit`] /
/// [`HighPriorityTable::release`]; the slot array is always kept
/// consistent with the sequence set.
///
/// # Examples
///
/// ```
/// use iba_core::{Distance, HighPriorityTable, ServiceLevel, VirtualLane};
///
/// let mut table = HighPriorityTable::new();
/// let sl = ServiceLevel::new(2).unwrap();
///
/// // A connection needing entries every 8 slots with weight 80.
/// let a = table.admit(sl, VirtualLane::data(2), Distance::D8, 80).unwrap();
/// assert!(a.new_sequence);
/// assert_eq!(table.free_entries(), 56);
///
/// // A second connection of the same SL shares the sequence.
/// let b = table.admit(sl, VirtualLane::data(2), Distance::D8, 40).unwrap();
/// assert_eq!(a.sequence, b.sequence);
/// assert_eq!(table.sequence(a.sequence).unwrap().total_weight, 120);
///
/// // Releases return capacity; defragmentation keeps the layout optimal.
/// table.release(b.sequence, 40).unwrap();
/// table.release(a.sequence, 80).unwrap();
/// assert_eq!(table.free_entries(), 64);
/// ```
#[derive(Clone)]
pub struct HighPriorityTable {
    slots: [TableSlot; TABLE_ENTRIES],
    occupancy: u64,
    sequences: Vec<Option<Sequence>>,
    reserved_weight: Weight,
    capacity_limit: Weight,
    allocator: AllocatorKind,
    auto_defrag: bool,
    /// The join scan's index: per SL, bit `i` is set iff sequence `i`
    /// is live and serves that SL. Ids of 64 and above have no bit;
    /// only a damaged table reaches them (live sequences of a
    /// consistent table hold disjoint slots), and it is scanned.
    joinable: [u64; ServiceLevel::COUNT],
}

/// Prints the fields a derived `Debug` printed before the join index
/// existed, and nothing else: the table digests hash this string.
impl std::fmt::Debug for HighPriorityTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HighPriorityTable")
            .field("slots", &self.slots)
            .field("occupancy", &self.occupancy)
            .field("sequences", &self.sequences)
            .field("reserved_weight", &self.reserved_weight)
            .field("capacity_limit", &self.capacity_limit)
            .field("allocator", &self.allocator)
            .field("auto_defrag", &self.auto_defrag)
            .finish()
    }
}

/// Filler for the plan entries a defragmentation leaves unused.
const UNPLANNED: Relocation = Relocation {
    sequence: SequenceId(0),
    from: ESet::SLOT_ZERO,
    to: ESet::SLOT_ZERO,
};

/// Sequence `i`'s bit in a join-index word (none for `i >= 64`).
fn index_bit(i: usize) -> u64 {
    1u64.checked_shl(i as u32).unwrap_or(0)
}

impl Default for HighPriorityTable {
    fn default() -> Self {
        Self::new()
    }
}

impl HighPriorityTable {
    /// An empty table using the paper's bit-reversal allocator, automatic
    /// defragmentation on release and no reservation limit.
    #[must_use]
    pub fn new() -> Self {
        HighPriorityTable {
            slots: [TableSlot::FREE; TABLE_ENTRIES],
            occupancy: 0,
            sequences: Vec::new(),
            reserved_weight: 0,
            capacity_limit: MAX_TABLE_WEIGHT,
            allocator: AllocatorKind::BitReversal,
            auto_defrag: true,
            joinable: [0; ServiceLevel::COUNT],
        }
    }

    /// An empty table with an explicit allocation policy (for ablations).
    #[must_use]
    pub fn with_allocator(allocator: AllocatorKind) -> Self {
        HighPriorityTable {
            allocator,
            ..Self::new()
        }
    }

    /// Caps the total admissible weight (e.g. `0.8 · MAX_TABLE_WEIGHT`
    /// to reserve 20% of the link for best-effort traffic).
    pub fn set_capacity_limit(&mut self, limit: Weight) {
        self.capacity_limit = limit.min(MAX_TABLE_WEIGHT);
    }

    /// Enables/disables automatic defragmentation when a sequence dies.
    pub fn set_auto_defrag(&mut self, on: bool) {
        self.auto_defrag = on;
    }

    /// The configured reservation cap.
    #[must_use]
    pub fn capacity_limit(&self) -> Weight {
        self.capacity_limit
    }

    /// The allocation policy in use.
    #[must_use]
    pub fn allocator(&self) -> AllocatorKind {
        self.allocator
    }

    /// Bitmask of busy slots.
    #[must_use]
    pub fn occupancy(&self) -> u64 {
        self.occupancy
    }

    /// Number of free slots.
    #[must_use]
    pub fn free_entries(&self) -> usize {
        TABLE_ENTRIES - self.occupancy.count_ones() as usize
    }

    /// Total weight currently reserved by admitted connections.
    #[must_use]
    pub fn reserved_weight(&self) -> Weight {
        self.reserved_weight
    }

    /// The raw slot array (what would be written to the hardware table).
    #[must_use]
    pub fn slots(&self) -> &[TableSlot; TABLE_ENTRIES] {
        &self.slots
    }

    /// Live sequences with their public info.
    pub fn sequences(&self) -> impl Iterator<Item = (SequenceId, SequenceInfo)> + '_ {
        self.sequences.iter().enumerate().filter_map(|(i, s)| {
            s.as_ref()
                .map(|s| (SequenceId(i as u32), SequenceInfo::from(s)))
        })
    }

    /// Info for one sequence.
    #[must_use]
    pub fn sequence(&self, id: SequenceId) -> Option<SequenceInfo> {
        self.sequences
            .get(id.0 as usize)?
            .as_ref()
            .map(SequenceInfo::from)
    }

    /// Non-mutating admission check: would `admit` succeed?
    #[must_use]
    pub fn can_admit(&self, sl: ServiceLevel, distance: Distance, weight: Weight) -> bool {
        self.check_admit(sl, distance, weight).is_ok()
    }

    /// Non-mutating dry run of [`HighPriorityTable::admit`]: returns
    /// exactly the error `admit` would return for the same request.
    /// It is [`HighPriorityTable::plan_admit`] with its allocator probes
    /// recorded nowhere, so a vote taken with `check_admit` followed by
    /// the real `admit_observed` keeps metrics identical to calling
    /// `admit_observed` alone.
    pub fn check_admit(
        &self,
        sl: ServiceLevel,
        distance: Distance,
        weight: Weight,
    ) -> Result<(), TableError> {
        self.plan_admit(sl, distance, weight, &mut iba_obs::NullRecorder)
            .map(|_| ())
    }

    /// Admits a connection of service level `sl` (travelling on `vl`)
    /// that needs entry spacing `distance` and table weight `weight`.
    ///
    /// Following §3.3: first an already-established sequence of the same
    /// SL with enough room is reused; only if none exists is a fresh
    /// `E_{i,j}` looked up with the configured allocator.
    pub fn admit(
        &mut self,
        sl: ServiceLevel,
        vl: VirtualLane,
        distance: Distance,
        weight: Weight,
    ) -> Result<Admission, TableError> {
        self.admit_observed(sl, vl, distance, weight, &mut iba_obs::NullRecorder)
    }

    /// [`HighPriorityTable::admit`] with instrumentation: allocator
    /// probes (`alloc_probe_total`, `alloc_probe_depth`, ...) performed
    /// while placing a new sequence are recorded into `rec`. Joining an
    /// existing sequence performs no probes and records nothing.
    ///
    /// It is [`HighPriorityTable::plan_admit`] followed by
    /// [`HighPriorityTable::commit_admit`].
    pub fn admit_observed(
        &mut self,
        sl: ServiceLevel,
        vl: VirtualLane,
        distance: Distance,
        weight: Weight,
        rec: &mut dyn iba_obs::Recorder,
    ) -> Result<Admission, TableError> {
        let placement = self.plan_admit(sl, distance, weight, rec)?;
        Ok(self.commit_admit(sl, vl, weight, placement))
    }

    /// Decides where [`HighPriorityTable::admit_observed`] would place a
    /// request, without changing the table: `admit`'s checks in
    /// `admit`'s order (weight underflow, request size, capacity cap,
    /// join, fresh E-set), recording the same allocator probes into
    /// `rec`. [`HighPriorityTable::commit_admit`] applies the result.
    pub fn plan_admit(
        &self,
        sl: ServiceLevel,
        distance: Distance,
        weight: Weight,
        rec: &mut dyn iba_obs::Recorder,
    ) -> Result<Placement, TableError> {
        if weight == 0 {
            return Err(TableError::WeightUnderflow);
        }
        let (d_eff, _entries) =
            effective_request(distance, weight).ok_or(TableError::RequestTooLarge)?;
        if self.reserved_weight + weight > self.capacity_limit {
            return Err(TableError::CapacityExceeded);
        }
        if let Some(id) = self.find_joinable(sl, distance, weight) {
            return Ok(Placement::Join(id));
        }
        rec.span_begin("alloc.select");
        let selected = self.allocator.select_observed(self.occupancy, d_eff, rec);
        rec.span_end("alloc.select");
        selected
            .map(Placement::Fresh)
            .ok_or(TableError::NoFreeSequence)
    }

    /// Applies a placement that [`HighPriorityTable::plan_admit`]
    /// returned for a request of `sl` and `weight` on this table, with
    /// no change to the table in between. A placement planned against
    /// another table state is a caller error, checked in debug builds.
    pub fn commit_admit(
        &mut self,
        sl: ServiceLevel,
        vl: VirtualLane,
        weight: Weight,
        placement: Placement,
    ) -> Admission {
        assert!(
            !vl.is_management(),
            "VL15 never enters the arbitration table"
        );
        let (id, new_sequence) = match placement {
            Placement::Join(id) => {
                debug_assert!(
                    matches!(self.sequences.get(id.0 as usize), Some(Some(s)) if s.sl == sl),
                    "a planned join names a live sequence of its SL"
                );
                if let Some(seq) = self
                    .sequences
                    .get_mut(id.0 as usize)
                    .and_then(Option::as_mut)
                {
                    seq.total_weight += weight;
                    seq.connections += 1;
                    self.reserved_weight += weight;
                }
                (id, false)
            }
            Placement::Fresh(eset) => {
                debug_assert_eq!(self.occupancy & eset.mask(), 0, "a planned set is free");
                let id = self.insert_sequence(Sequence {
                    eset,
                    vl,
                    sl,
                    total_weight: weight,
                    connections: 1,
                });
                self.occupancy |= eset.mask();
                self.reserved_weight += weight;
                (id, true)
            }
        };
        self.rewrite_sequence_slots(id);
        Admission {
            sequence: id,
            new_sequence,
        }
    }

    /// Leaves the table as committing `Placement::Fresh(eset)` and then
    /// releasing the new sequence would: `sequences` gains the trailing
    /// `None` the new id's push would have left, the set's slots read
    /// free, and under auto-defrag the release's defragmentation runs.
    /// Admission undoes the fresh hops of a rejected path this way
    /// without ever reserving them. `eset` must be a fresh placement
    /// planned on the table as it stands (checked in debug builds).
    pub fn undo_fresh(&mut self, eset: ESet) {
        debug_assert_eq!(self.occupancy & eset.mask(), 0, "a planned set is free");
        if self.free_id().is_none() {
            self.sequences.push(None);
        }
        for slot in eset.slots() {
            self.slots[slot] = TableSlot::FREE;
        }
        if self.auto_defrag {
            self.repack();
        }
    }

    /// Releases one connection of weight `weight` from `id`.
    ///
    /// When the sequence's accumulated weight reaches zero its entries
    /// are freed and (if auto-defrag is on) the defragmentation pass
    /// restores the canonical layout. Returns the relocations performed
    /// (empty when the sequence survives or defrag moved nothing).
    pub fn release(
        &mut self,
        id: SequenceId,
        weight: Weight,
    ) -> Result<Vec<Relocation>, TableError> {
        let seq = self
            .sequences
            .get_mut(id.0 as usize)
            .and_then(Option::as_mut)
            .ok_or(TableError::UnknownSequence)?;
        if seq.total_weight < weight || seq.connections == 0 {
            return Err(TableError::WeightUnderflow);
        }
        seq.total_weight -= weight;
        seq.connections -= 1;
        self.reserved_weight -= weight;

        if seq.connections == 0 {
            debug_assert!(
                crate::invariants::released_sequence_is_drained(seq.connections, seq.total_weight),
                "weights must balance per connection"
            );
            let mask = seq.eset.mask();
            self.take_sequence(id.0 as usize);
            self.occupancy &= !mask;
            for (slot, s) in self.slots.iter_mut().enumerate() {
                if mask & (1 << slot) != 0 {
                    *s = TableSlot::FREE;
                }
            }
            if self.auto_defrag {
                return Ok(self.defragment());
            }
        } else {
            self.rewrite_sequence_slots(id);
        }
        Ok(Vec::new())
    }

    /// Runs the defragmentation algorithm: every live sequence is
    /// re-placed by the bit-reversal policy in descending-size order,
    /// which provably packs them and leaves the free slots in the
    /// canonical layout (free entries can always serve the most
    /// restrictive request their count permits).
    ///
    /// Allocates nothing but the returned moves. When a sequence moves,
    /// every slot is rewritten from the sequence records, so damaged
    /// slot contents are discarded too.
    pub fn defragment(&mut self) -> Vec<Relocation> {
        let mut plan = [UNPLANNED; TABLE_ENTRIES];
        let plan = self.plan_repack(&mut plan);
        let moved = plan.iter().filter(|r| r.from != r.to).count();
        if moved == 0 {
            return Vec::new();
        }
        let mut moves = Vec::with_capacity(moved);
        moves.extend(plan.iter().filter(|r| r.from != r.to));
        self.apply_plan(plan);
        moves
    }

    /// [`HighPriorityTable::defragment`] without the list of moves, so
    /// without allocating.
    fn repack(&mut self) {
        let mut plan = [UNPLANNED; TABLE_ENTRIES];
        let plan = self.plan_repack(&mut plan);
        if plan.iter().any(|r| r.from != r.to) {
            self.apply_plan(plan);
        }
    }

    /// The canonical plan of every live sequence, written into `plan`
    /// by counting each one's place ([`plan_by_counting`]), not by
    /// sorting.
    fn plan_repack<'p>(&self, plan: &'p mut [Relocation; TABLE_ENTRIES]) -> &'p [Relocation] {
        // Every live sequence holds at least one slot, so a table that
        // re-packs has at most 64 of them.
        let mut live = [(SequenceId(0), ESet::SLOT_ZERO); TABLE_ENTRIES];
        let mut n = 0;
        for (i, s) in self.sequences.iter().enumerate() {
            if let Some(s) = s {
                assert!(n < TABLE_ENTRIES, "live sequences always re-pack");
                live[n] = (SequenceId(i as u32), s.eset);
                n += 1;
            }
        }
        let plan = &mut plan[..n];
        // Theorem: descending-size re-placement of a feasible live set
        // always fits.
        assert!(
            plan_by_counting(&live[..n], plan),
            "live sequences always re-pack"
        );
        plan
    }

    /// Moves every sequence of `plan` to its target: clears every slot,
    /// then writes each sequence at its target (the targets are
    /// disjoint).
    fn apply_plan(&mut self, plan: &[Relocation]) {
        self.occupancy = 0;
        self.slots = [TableSlot::FREE; TABLE_ENTRIES];
        for r in plan {
            // The plan only names live sequences.
            if let Some(seq) = self.sequences[r.sequence.0 as usize].as_mut() {
                seq.eset = r.to;
                self.occupancy |= r.to.mask();
            }
            self.rewrite_sequence_slots(r.sequence);
        }
    }

    /// Looks for an established sequence the request may join: same SL,
    /// spacing at least as strict as required, and room for the weight.
    /// The first such sequence in id order, read off the join index.
    fn find_joinable(
        &self,
        sl: ServiceLevel,
        distance: Distance,
        weight: Weight,
    ) -> Option<SequenceId> {
        let joins = |s: &Sequence| s.satisfies_distance(distance) && s.fits(weight);
        if self.sequences.len() > TABLE_ENTRIES {
            // Ids past the index: a damaged table, scanned.
            return self
                .sequences
                .iter()
                .position(|s| s.as_ref().is_some_and(|s| s.sl == sl && joins(s)))
                .map(|i| SequenceId(i as u32));
        }
        let mut ids = self.joinable[sl.index()];
        while ids != 0 {
            let i = ids.trailing_zeros() as usize;
            ids &= ids - 1;
            if self.sequences[i].as_ref().is_some_and(joins) {
                return Some(SequenceId(i as u32));
            }
        }
        None
    }

    /// The lowest id in `sequences` that holds no sequence.
    fn free_id(&self) -> Option<usize> {
        let n = self.sequences.len();
        if n > TABLE_ENTRIES {
            return self.sequences.iter().position(Option::is_none);
        }
        // An id below 64 is live iff the join index has its bit.
        let live = self.joinable.iter().fold(0, |m, w| m | w);
        let i = (!live).trailing_zeros() as usize;
        (i < n).then_some(i)
    }

    /// Removes sequence `i`'s record (and its join-index bit).
    fn take_sequence(&mut self, i: usize) -> Option<Sequence> {
        let seq = self.sequences[i].take()?;
        self.joinable[seq.sl.index()] &= !index_bit(i);
        Some(seq)
    }

    fn insert_sequence(&mut self, seq: Sequence) -> SequenceId {
        let sl = seq.sl.index();
        let i = if let Some(i) = self.free_id() {
            self.sequences[i] = Some(seq);
            i
        } else {
            self.sequences.push(Some(seq));
            self.sequences.len() - 1
        };
        self.joinable[sl] |= index_bit(i);
        SequenceId(i as u32)
    }

    fn rewrite_sequence_slots(&mut self, id: SequenceId) {
        // Callers only pass live ids; a dead id has no slots to rewrite.
        let Some(seq) = self.sequences[id.0 as usize].as_ref() else {
            return;
        };
        let w = Sequence::per_slot_weight(seq.total_weight, seq.eset.len());
        let vl = seq.vl.raw();
        let eset = seq.eset;
        for slot in eset.slots() {
            self.slots[slot] = TableSlot {
                vl,
                weight: w as u8,
            };
        }
    }

    /// Debug self-check: slots, occupancy and sequences agree.
    ///
    /// Used by tests and the property suite; cheap enough to call after
    /// every operation.
    pub fn check_consistency(&self) -> Result<(), String> {
        let mut occ = 0u64;
        let mut weight = 0;
        for s in self.sequences.iter().flatten() {
            let mask = s.eset.mask();
            if occ & mask != 0 {
                return Err(format!("sequences overlap on mask {mask:#x}"));
            }
            occ |= mask;
            weight += s.total_weight;
            let w = Sequence::per_slot_weight(s.total_weight, s.eset.len());
            for slot in s.eset.slots() {
                let t = self.slots[slot];
                if t.weight as u16 != w || t.vl != s.vl.raw() {
                    return Err(format!("slot {slot} out of sync with its sequence"));
                }
            }
        }
        if occ != self.occupancy {
            return Err(format!(
                "occupancy mask {:#x} != sequences {occ:#x}",
                self.occupancy
            ));
        }
        if weight != self.reserved_weight {
            return Err(format!(
                "reserved weight {} != sequences {weight}",
                self.reserved_weight
            ));
        }
        for (i, slot) in self.slots.iter().enumerate() {
            let busy = occ & (1 << i) != 0;
            if slot.is_free() && busy {
                return Err(format!("slot {i} free but marked busy"));
            }
            if !slot.is_free() && !busy {
                return Err(format!("slot {i} weighted but not owned"));
            }
        }
        if self.joinable != self.join_index() {
            return Err("join index out of sync with the sequences".to_string());
        }
        Ok(())
    }

    /// The join index rebuilt from the sequence records.
    fn join_index(&self) -> [u64; ServiceLevel::COUNT] {
        let mut index = [0; ServiceLevel::COUNT];
        for (i, s) in self.sequences.iter().enumerate() {
            if let Some(s) = s {
                index[s.sl.index()] |= index_bit(i);
            }
        }
        index
    }

    /// Deterministically damages the table (for fault injection):
    /// garbles or drops slot contents, flips occupancy bits, orphans a
    /// sequence's slots and collides entry sets — the failure modes a
    /// VLArb table update loss or partial write would produce. Returns
    /// the number of damage operations applied (0 on an empty table).
    ///
    /// The damage is repairable: [`HighPriorityTable::repair`] always
    /// restores consistency afterwards.
    pub fn inject_corruption(&mut self, rng: &mut SplitMix64) -> usize {
        let busy_slots: Vec<usize> = (0..TABLE_ENTRIES)
            .filter(|i| self.occupancy & (1 << i) != 0)
            .collect();
        let live_ids: Vec<usize> = (0..self.sequences.len())
            .filter(|&i| self.sequences[i].is_some())
            .collect();
        if busy_slots.is_empty() || live_ids.is_empty() {
            return 0;
        }
        let ops = 1 + (rng.next_u64() % 3) as usize;
        for _ in 0..ops {
            match rng.next_u64() % 5 {
                0 => {
                    // Garble a busy slot's weight.
                    let slot = busy_slots[(rng.next_u64() as usize) % busy_slots.len()];
                    self.slots[slot].weight = (rng.next_u64() & 0xFF) as u8;
                }
                1 => {
                    // Entry loss: a busy slot reads back as free.
                    let slot = busy_slots[(rng.next_u64() as usize) % busy_slots.len()];
                    self.slots[slot] = TableSlot::FREE;
                }
                2 => {
                    // Occupancy bit flip.
                    let slot = busy_slots[(rng.next_u64() as usize) % busy_slots.len()];
                    self.occupancy ^= 1 << slot;
                }
                3 => {
                    // Orphan: drop a sequence's bookkeeping, leaving its
                    // slots and occupancy bits behind.
                    let id = live_ids[(rng.next_u64() as usize) % live_ids.len()];
                    if let Some(seq) = self.take_sequence(id) {
                        self.reserved_weight =
                            self.reserved_weight.saturating_sub(seq.total_weight);
                    }
                }
                _ => {
                    // Entry-set collision: move a sequence onto a random
                    // same-distance offset, possibly on top of another.
                    let id = live_ids[(rng.next_u64() as usize) % live_ids.len()];
                    if let Some(seq) = self.sequences[id].as_mut() {
                        let d = seq.eset.distance();
                        let offset = (rng.next_u64() as usize) % d.slots();
                        seq.eset = ESet::new(d, offset);
                    }
                }
            }
        }
        ops
    }

    /// Hot table repair: rebuilds a consistent table from the sequence
    /// bookkeeping, evicting every sequence whose state cannot be
    /// trusted (entry sets overlapping a lower-numbered survivor,
    /// drained weight or zero connections), then re-packs the survivors
    /// with the canonical bit-reversal defragmentation.
    ///
    /// Postcondition: [`HighPriorityTable::check_consistency`] passes.
    /// Evicted reservations are reported for re-admission by the
    /// recovery layer; their capacity is released here.
    pub fn repair(&mut self) -> RepairReport {
        let was_damaged = self.check_consistency().is_err();
        let mut evicted = Vec::new();
        // Eviction pass in ascending id order (deterministic): a
        // sequence survives only if it does not overlap the already
        // accepted set and still holds live weight.
        let mut occ = 0u64;
        for i in 0..self.sequences.len() {
            let Some(seq) = self.sequences[i].as_ref() else {
                continue;
            };
            let mask = seq.eset.mask();
            if occ & mask != 0 || seq.total_weight == 0 || seq.connections == 0 {
                if let Some(seq) = self.take_sequence(i) {
                    evicted.push(EvictedSequence {
                        sl: seq.sl,
                        vl: seq.vl,
                        distance: seq.eset.distance(),
                        weight: seq.total_weight,
                        connections: seq.connections,
                    });
                }
                continue;
            }
            occ |= mask;
        }
        // Rebuild the derived state — occupancy, reserved weight and
        // every slot — from the surviving sequences alone.
        self.occupancy = occ;
        self.reserved_weight = self
            .sequences
            .iter()
            .flatten()
            .map(|s| s.total_weight)
            .sum();
        self.slots = [TableSlot::FREE; TABLE_ENTRIES];
        let ids: Vec<SequenceId> = self
            .sequences
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|_| SequenceId(i as u32)))
            .collect();
        for id in ids {
            self.rewrite_sequence_slots(id);
        }
        // Canonical re-pack: the repaired table serves the strictest
        // requests its free-entry count permits.
        let relocations = self.defragment().len();
        debug_assert!(self.check_consistency().is_ok(), "repair left damage");
        RepairReport {
            was_damaged,
            evicted,
            relocations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defrag::canonical_plan;

    fn sl(i: u8) -> ServiceLevel {
        ServiceLevel::new(i).unwrap()
    }
    fn vl(i: u8) -> VirtualLane {
        VirtualLane::data(i)
    }

    #[test]
    fn admit_creates_then_shares() {
        let mut t = HighPriorityTable::new();
        let a = t.admit(sl(3), vl(3), Distance::D16, 40).unwrap();
        assert!(a.new_sequence);
        // Same SL, fits: joins the same sequence.
        let b = t.admit(sl(3), vl(3), Distance::D16, 40).unwrap();
        assert!(!b.new_sequence);
        assert_eq!(a.sequence, b.sequence);
        let info = t.sequence(a.sequence).unwrap();
        assert_eq!(info.total_weight, 80);
        assert_eq!(info.connections, 2);
        assert_eq!(info.per_slot_weight, 20); // 80 weight over 4 entries
        t.check_consistency().unwrap();
    }

    #[test]
    fn different_sls_get_different_sequences() {
        let mut t = HighPriorityTable::new();
        let a = t.admit(sl(4), vl(4), Distance::D32, 10).unwrap();
        let b = t.admit(sl(5), vl(5), Distance::D32, 10).unwrap();
        assert_ne!(a.sequence, b.sequence);
        t.check_consistency().unwrap();
    }

    #[test]
    fn full_sequence_spills_into_a_new_one() {
        let mut t = HighPriorityTable::new();
        // d=64 sequence holds one entry, cap 255.
        let a = t.admit(sl(6), vl(6), Distance::D64, 200).unwrap();
        let b = t.admit(sl(6), vl(6), Distance::D64, 100).unwrap();
        assert!(b.new_sequence);
        assert_ne!(a.sequence, b.sequence);
        t.check_consistency().unwrap();
    }

    #[test]
    fn capacity_limit_enforced() {
        let mut t = HighPriorityTable::new();
        t.set_capacity_limit(100);
        assert!(t.admit(sl(6), vl(6), Distance::D64, 60).is_ok());
        assert_eq!(
            t.admit(sl(7), vl(7), Distance::D64, 41).unwrap_err(),
            TableError::CapacityExceeded
        );
        // Exactly at the cap is fine.
        assert!(t.admit(sl(7), vl(7), Distance::D64, 40).is_ok());
        t.check_consistency().unwrap();
    }

    #[test]
    fn release_frees_and_reuses() {
        let mut t = HighPriorityTable::new();
        let a = t.admit(sl(0), vl(0), Distance::D2, 32).unwrap();
        assert_eq!(t.free_entries(), 32);
        t.release(a.sequence, 32).unwrap();
        assert_eq!(t.free_entries(), 64);
        assert_eq!(t.reserved_weight(), 0);
        assert!(t.sequence(a.sequence).is_none());
        t.check_consistency().unwrap();
    }

    #[test]
    fn partial_release_keeps_sequence() {
        let mut t = HighPriorityTable::new();
        let a = t.admit(sl(2), vl(2), Distance::D8, 30).unwrap();
        let _ = t.admit(sl(2), vl(2), Distance::D8, 50).unwrap();
        let moves = t.release(a.sequence, 30).unwrap();
        assert!(moves.is_empty());
        let info = t.sequence(a.sequence).unwrap();
        assert_eq!(info.total_weight, 50);
        assert_eq!(info.connections, 1);
        t.check_consistency().unwrap();
    }

    #[test]
    fn release_errors() {
        let mut t = HighPriorityTable::new();
        assert_eq!(
            t.release(SequenceId(9), 1).unwrap_err(),
            TableError::UnknownSequence
        );
        let a = t.admit(sl(2), vl(2), Distance::D8, 30).unwrap();
        assert_eq!(
            t.release(a.sequence, 31).unwrap_err(),
            TableError::WeightUnderflow
        );
    }

    #[test]
    fn weight_zero_rejected() {
        let mut t = HighPriorityTable::new();
        assert!(t.admit(sl(1), vl(1), Distance::D4, 0).is_err());
    }

    #[test]
    fn oversized_weight_rejected() {
        let mut t = HighPriorityTable::new();
        assert_eq!(
            t.admit(sl(9), vl(9), Distance::D64, 32 * 255 + 1)
                .unwrap_err(),
            TableError::RequestTooLarge
        );
    }

    #[test]
    fn can_admit_matches_admit() {
        let mut t = HighPriorityTable::new();
        t.set_capacity_limit(500);
        for (d, w) in [
            (Distance::D2, 100u32),
            (Distance::D64, 200),
            (Distance::D8, 150),
            (Distance::D4, 60),
        ] {
            let predicted = t.can_admit(sl(1), d, w);
            let actual = t.admit(sl(1), vl(1), d, w).is_ok();
            assert_eq!(predicted, actual, "mismatch for {d} w={w}");
        }
    }

    #[test]
    fn defrag_restores_strict_capability() {
        let mut t = HighPriorityTable::new();
        // Fill with 32 single-entry sequences on distinct SL/VL... use
        // distinct SLs cyclically so nothing joins.
        let mut ids = Vec::new();
        for k in 0..32 {
            let s = sl((k % 10) as u8);
            let adm = t.admit(s, vl((k % 10) as u8), Distance::D64, 255).unwrap();
            ids.push(adm.sequence);
        }
        // All even slots busy. Free every second sequence.
        for (k, id) in ids.iter().enumerate() {
            if k % 2 == 0 {
                t.release(*id, 255).unwrap();
            }
        }
        t.check_consistency().unwrap();
        // 48 slots free; a d=2 request (32 entries) must be admissible
        // thanks to defragmentation.
        assert!(t.can_admit(sl(0), Distance::D2, 32));
        let adm = t.admit(sl(0), vl(0), Distance::D2, 32).unwrap();
        assert!(adm.new_sequence);
        t.check_consistency().unwrap();
    }

    fn filled_table(seed: u64) -> HighPriorityTable {
        let mut t = HighPriorityTable::new();
        let mut rng = SplitMix64::seed_from_u64(seed);
        for k in 0..8u8 {
            let d = match rng.next_u64() % 4 {
                0 => Distance::D8,
                1 => Distance::D16,
                2 => Distance::D32,
                _ => Distance::D64,
            };
            let w = 10 + (rng.next_u64() % 80) as u32;
            // Distinct SLs so nothing joins; ignore full-table rejects.
            let _ = t.admit(sl(k % 10), vl(k % 10), d, w);
        }
        t.check_consistency().unwrap();
        t
    }

    #[test]
    fn corruption_damages_and_repair_heals() {
        let mut t = filled_table(11);
        let mut rng = SplitMix64::seed_from_u64(0xDEAD);
        let ops = t.inject_corruption(&mut rng);
        assert!(ops > 0);
        let report = t.repair();
        t.check_consistency().unwrap();
        assert!(report.was_damaged || report.evicted.is_empty());
    }

    #[test]
    fn repair_on_healthy_table_is_a_noop() {
        let mut t = filled_table(3);
        let before: Vec<_> = t.sequences().collect();
        let report = t.repair();
        assert!(!report.was_damaged);
        assert!(report.evicted.is_empty());
        let after: Vec<_> = t.sequences().collect();
        assert_eq!(before.len(), after.len());
        t.check_consistency().unwrap();
    }

    #[test]
    fn repair_always_restores_consistency_property() {
        // Seeded property sweep: whatever the damage, repair ends in a
        // consistent table whose free entries serve the strictest
        // request their count permits (canonical layout).
        for seed in 0..200u64 {
            let mut t = filled_table(seed);
            let mut rng = SplitMix64::seed_from_u64(seed ^ 0xC0FFEE);
            t.inject_corruption(&mut rng);
            let report = t.repair();
            t.check_consistency()
                .unwrap_or_else(|e| panic!("seed {seed}: repair left damage: {e}"));
            assert!(crate::defrag::is_canonical(t.occupancy()));
            // Evicted capacity was released: survivors account for all
            // reserved weight, so every eviction is re-admissible in
            // principle.
            for ev in &report.evicted {
                assert!(ev.weight == 0 || ev.distance.slots() >= 2);
            }
        }
    }

    #[test]
    fn repair_reports_overlap_evictions() {
        let mut t = HighPriorityTable::new();
        let a = t.admit(sl(1), vl(1), Distance::D16, 40).unwrap();
        let b = t.admit(sl(2), vl(2), Distance::D16, 60).unwrap();
        // Force b onto a's entry set: an overlap repair must resolve by
        // evicting the higher-numbered sequence.
        let eset_a = t.sequences[a.sequence.0 as usize].as_ref().unwrap().eset;
        t.sequences[b.sequence.0 as usize].as_mut().unwrap().eset = eset_a;
        assert!(t.check_consistency().is_err());
        let report = t.repair();
        assert!(report.was_damaged);
        assert_eq!(report.evicted.len(), 1);
        let ev = report.evicted[0];
        assert_eq!(ev.weight, 60);
        assert_eq!(ev.distance, Distance::D16);
        t.check_consistency().unwrap();
        // The survivor keeps its reservation; the evicted weight is
        // released and re-admissible.
        assert_eq!(t.reserved_weight(), 40);
        assert!(t.can_admit(sl(2), Distance::D16, 60));
    }

    /// The defragmentation the allocation-free pass replaced: collect
    /// the live set, plan it with the probe-based planner, and on any
    /// move clear every slot and rewrite each sequence in plan order.
    fn reference_defragment(t: &mut HighPriorityTable) -> Vec<Relocation> {
        let live: Vec<(SequenceId, ESet)> = t
            .sequences
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|s| (SequenceId(i as u32), s.eset)))
            .collect();
        let plan = crate::defrag::tests::probe_plan(&live).expect("live sequences re-pack");
        let moves: Vec<Relocation> = plan.iter().filter(|r| r.from != r.to).cloned().collect();
        if moves.is_empty() {
            return moves;
        }
        t.occupancy = 0;
        t.slots = [TableSlot::FREE; TABLE_ENTRIES];
        for r in &plan {
            if let Some(seq) = t.sequences[r.sequence.0 as usize].as_mut() {
                seq.eset = r.to;
                t.occupancy |= r.to.mask();
            }
        }
        for r in &plan {
            t.rewrite_sequence_slots(r.sequence);
        }
        moves
    }

    fn assert_twins(a: &HighPriorityTable, b: &HighPriorityTable, at: &str) {
        assert_eq!(a.slots(), b.slots(), "{at}: slots");
        assert_eq!(a.occupancy(), b.occupancy(), "{at}: occupancy");
        assert_eq!(a.reserved_weight(), b.reserved_weight(), "{at}: weight");
        let seqs = |t: &HighPriorityTable| format!("{:?}", t.sequences);
        assert_eq!(seqs(a), seqs(b), "{at}: sequences");
    }

    /// `t` defragmented as it stands, against the references: its plan
    /// entry for entry against the sorted one ([`canonical_plan`]), then
    /// on copies, the same moves and the same tables as the probe plan
    /// makes, also when re-packed without collecting the moves. Returns
    /// how many sequences move.
    fn assert_defrag_matches_the_reference(t: &HighPriorityTable, at: &str) -> usize {
        let live: Vec<(SequenceId, ESet)> = t.sequences().map(|(id, q)| (id, q.eset)).collect();
        let mut plan = [UNPLANNED; TABLE_ENTRIES];
        assert_eq!(
            Some(t.plan_repack(&mut plan).to_vec()),
            canonical_plan(&live),
            "{at}: plan"
        );
        let (mut a, mut b, mut c) = (t.clone(), t.clone(), t.clone());
        let moves = a.defragment();
        assert_eq!(moves, reference_defragment(&mut b), "{at}: moves");
        assert_twins(&a, &b, at);
        c.repack();
        assert_twins(&c, &b, &format!("{at} (repack)"));
        moves.len()
    }

    /// Whether two live sequences sit on the same entry set, as after an
    /// entry-set collision.
    fn has_equal_sets(t: &HighPriorityTable) -> bool {
        let sets: Vec<ESet> = t.sequences().map(|(_, q)| q.eset).collect();
        sets.iter()
            .enumerate()
            .any(|(i, e)| sets[i + 1..].contains(e))
    }

    #[test]
    fn defragment_matches_the_reference_on_a_seeded_walk() {
        let (mut undos, mut moving_undos, mut collided) = (0, 0, 0);
        for (seed, allocator) in [
            (1u64, AllocatorKind::BitReversal),
            (2, AllocatorKind::BitReversal),
            (3, AllocatorKind::FirstFit),
            (4, AllocatorKind::ReverseFit),
        ] {
            let mut rng = SplitMix64::seed_from_u64(seed);
            // `a` defragments itself on release and undo; its twin `b`
            // never does, and is defragmented by the reference instead.
            let mut a = HighPriorityTable::with_allocator(allocator);
            let mut b = HighPriorityTable::with_allocator(allocator);
            b.set_auto_defrag(false);
            let mut live: Vec<(SequenceId, Weight)> = Vec::new();
            let mut moved = 0;
            for step in 0..4000 {
                let at = format!("seed {seed} step {step}");
                if live.is_empty() || rng.gen_range(0u32..5) < 3 {
                    let k = rng.gen_range(0u8..10);
                    let d = *rng.choose(&Distance::ALL).unwrap();
                    let w = rng.gen_range(1u32..300);
                    let planned = a.plan_admit(sl(k), d, w, &mut iba_obs::NullRecorder);
                    if let (Ok(Placement::Fresh(eset)), 0) = (planned, step % 4) {
                        // A rejected path undoing its fresh hop here:
                        // `b` is left as `a`'s undo defragments it.
                        b.undo_fresh(eset);
                        let moves = assert_defrag_matches_the_reference(&b, &at);
                        undos += 1;
                        moving_undos += usize::from(moves > 0);
                        a.undo_fresh(eset);
                        reference_defragment(&mut b);
                    } else {
                        let got = a.admit(sl(k), vl(k), d, w);
                        assert_eq!(got, b.admit(sl(k), vl(k), d, w), "{at}: admit");
                        if let Ok(adm) = got {
                            live.push((adm.sequence, w));
                        }
                    }
                } else {
                    let (id, w) = live.swap_remove(rng.gen_range(0usize..live.len()));
                    let got = a.release(id, w).unwrap();
                    b.release(id, w).unwrap();
                    // Release defragments only when the sequence dies.
                    let want = match b.sequence(id) {
                        None => reference_defragment(&mut b),
                        Some(_) => Vec::new(),
                    };
                    assert_eq!(got, want, "{at}: relocations");
                    moved += usize::from(!got.is_empty());
                }
                assert_twins(&a, &b, &at);
                if step % 7 == 0 {
                    // Damaged slots, orphans and colliding entry sets:
                    // both passes must rewrite the same slots from the
                    // same records.
                    let mut damaged = b.clone();
                    damaged.inject_corruption(&mut SplitMix64::seed_from_u64(step));
                    collided += usize::from(has_equal_sets(&damaged));
                    assert_defrag_matches_the_reference(&damaged, &format!("{at} (damaged)"));
                }
            }
            assert!(moved > 100, "seed {seed}: only {moved} moving defrags");
        }
        assert!(
            undos > 900 && moving_undos > 400 && collided > 40,
            "{undos} undos, {moving_undos} moving, {collided} collided tables"
        );
    }

    #[test]
    fn ids_of_64_and_above_defragment_as_the_reference() {
        let mut rng = SplitMix64::seed_from_u64(64);
        let mut moved = 0;
        for round in 0..60u64 {
            let mut t = HighPriorityTable::new();
            t.set_auto_defrag(false);
            let mut live = Vec::new();
            for _ in 0..40 {
                let k = rng.gen_range(0u8..10);
                let d = *rng.choose(&Distance::ALL[2..]).unwrap();
                let w = rng.gen_range(1u32..200);
                if let Ok(adm) = t.admit(sl(k), vl(k), d, w) {
                    live.push((adm.sequence, w));
                }
            }
            for _ in 0..live.len() / 2 {
                let (id, w) = live.swap_remove(rng.gen_range(0usize..live.len()));
                t.release(id, w).unwrap();
            }
            // Re-home every third survivor past id 63, beyond the join
            // index.
            let survivors: Vec<SequenceId> = t.sequences().map(|(id, _)| id).collect();
            t.sequences.resize(TABLE_ENTRIES + 8, None);
            for (n, id) in survivors.iter().step_by(3).take(8).enumerate() {
                t.sequences[TABLE_ENTRIES + n] = t.take_sequence(id.0 as usize);
            }
            t.check_consistency().unwrap();
            if round % 2 == 1 {
                t.inject_corruption(&mut SplitMix64::seed_from_u64(round));
            }
            let moves = assert_defrag_matches_the_reference(&t, &format!("round {round}"));
            moved += usize::from(moves > 0);
        }
        assert!(moved > 50, "only {moved} moving defrags");
    }

    /// The join scan the index replaced: the first live sequence in id
    /// order that the request may join.
    fn linear_joinable(
        t: &HighPriorityTable,
        s: ServiceLevel,
        d: Distance,
        w: Weight,
    ) -> Option<SequenceId> {
        t.sequences
            .iter()
            .position(|q| {
                q.as_ref()
                    .is_some_and(|q| q.sl == s && q.satisfies_distance(d) && q.fits(w))
            })
            .map(|i| SequenceId(i as u32))
    }

    /// Plan-then-commit, plan-then-undo and the join index against
    /// admit, admit-then-release and the linear scan, for one request
    /// on `t`. Returns whether the request planned a fresh sequence.
    fn check_planning(t: &HighPriorityTable, k: u8, d: Distance, w: Weight, at: &str) -> bool {
        let debug = |t: &HighPriorityTable| format!("{t:?}");
        let (mut planned, mut admitted) =
            (iba_obs::ObsRecorder::new(), iba_obs::ObsRecorder::new());
        let plan = t.plan_admit(sl(k), d, w, &mut planned);
        let mut a = t.clone();
        let got = a.admit_observed(sl(k), vl(k), d, w, &mut admitted);
        assert_eq!(
            iba_obs::render_prom(&planned.metrics),
            iba_obs::render_prom(&admitted.metrics),
            "{at}: probes"
        );
        assert_eq!(plan.map(|_| ()), t.check_admit(sl(k), d, w), "{at}: check");
        let placement = match (plan, got) {
            (Ok(placement), Ok(_)) => placement,
            (Err(p), Err(g)) => {
                assert_eq!(p, g, "{at}: error");
                return false;
            }
            other => panic!("{at}: plan and admit disagree: {other:?}"),
        };
        let mut b = t.clone();
        assert_eq!(
            b.commit_admit(sl(k), vl(k), w, placement),
            got.unwrap(),
            "{at}"
        );
        assert_eq!(debug(&b), debug(&a), "{at}: commit");
        let Placement::Fresh(eset) = placement else {
            return false;
        };
        // A damaged table may put the new set on top of a live one; a
        // release then cannot always re-pack, so the undo is compared
        // only where the live sets still fit in one table.
        let entries: usize = t.sequences().map(|(_, q)| q.eset.len()).sum();
        if entries + eset.len() <= TABLE_ENTRIES {
            let mut undone = t.clone();
            undone.undo_fresh(eset);
            a.release(got.unwrap().sequence, w).unwrap();
            assert_eq!(debug(&undone), debug(&a), "{at}: undo");
        }
        true
    }

    #[test]
    fn planning_matches_admit_release_and_the_linear_scan_on_seeded_walks() {
        let (mut fresh, mut joins, mut damaged) = (0, 0, 0);
        for (seed, allocator, auto_defrag) in [
            (1u64, AllocatorKind::BitReversal, true),
            (2, AllocatorKind::BitReversal, true),
            (3, AllocatorKind::FirstFit, true),
            (4, AllocatorKind::ReverseFit, false),
        ] {
            let mut rng = SplitMix64::seed_from_u64(seed);
            let mut t = HighPriorityTable::with_allocator(allocator);
            t.set_auto_defrag(auto_defrag);
            t.set_capacity_limit(13_056);
            let mut live: Vec<(SequenceId, Weight)> = Vec::new();
            for step in 0..3000 {
                let at = format!("seed {seed} step {step}");
                match rng.gen_range(0u32..100) {
                    0..=59 => {
                        let k = rng.gen_range(0u8..6);
                        let d = *rng.choose(&Distance::ALL).unwrap();
                        let w = rng.gen_range(1u32..600);
                        if check_planning(&t, k, d, w, &at) {
                            fresh += 1;
                        }
                        if let Ok(adm) = t.admit(sl(k), vl(k), d, w) {
                            joins += usize::from(!adm.new_sequence);
                            live.push((adm.sequence, w));
                        }
                    }
                    60..=94 if !live.is_empty() => {
                        let (id, w) = live.swap_remove(rng.gen_range(0usize..live.len()));
                        t.release(id, w).unwrap();
                    }
                    _ => {
                        // Damage, plan on the damaged table, repair.
                        if t.inject_corruption(&mut rng) > 0 {
                            damaged += 1;
                            let k = rng.gen_range(0u8..6);
                            let d = *rng.choose(&Distance::ALL).unwrap();
                            check_planning(&t, k, d, rng.gen_range(1u32..600), &at);
                        }
                        t.repair();
                        live.clear();
                        for (id, info) in t.sequences().collect::<Vec<_>>() {
                            // Re-issue the survivors as one connection each.
                            if let Some(q) = t.sequences[id.0 as usize].as_mut() {
                                q.connections = 1;
                            }
                            live.push((id, info.total_weight));
                        }
                    }
                }
                t.check_consistency()
                    .unwrap_or_else(|e| panic!("{at}: {e}"));
                for k in 0..6 {
                    for d in Distance::ALL {
                        for w in [1, 100, 255, 1000] {
                            assert_eq!(
                                t.find_joinable(sl(k), d, w),
                                linear_joinable(&t, sl(k), d, w),
                                "{at}: join index, sl {k} {d} w={w}"
                            );
                        }
                    }
                }
            }
        }
        assert!(
            fresh > 1500 && joins > 1200 && damaged > 250,
            "{fresh} fresh plans, {joins} joins, {damaged} damaged tables"
        );
    }

    #[test]
    fn no_defrag_strands_entries_with_first_fit() {
        let mut t = HighPriorityTable::with_allocator(AllocatorKind::FirstFit);
        t.set_auto_defrag(false);
        let mut ids = Vec::new();
        for k in 0..4 {
            let s = sl(k);
            ids.push(t.admit(s, vl(k), Distance::D64, 255).unwrap().sequence);
        }
        // first-fit used slots 0,1,2,3; free slots 0 and 2.
        t.release(ids[0], 255).unwrap();
        t.release(ids[2], 255).unwrap();
        // 62 free slots but no free d=2 set (slots 1 and 3 busy kill
        // both offsets' sets? slot 1 kills E(2,1), slot 3 also odd).
        // E(2,0) = evens: free. So d2 admissible here; check a stricter
        // scenario: occupy slots 0 and 1 instead.
        let mut t = HighPriorityTable::with_allocator(AllocatorKind::FirstFit);
        t.set_auto_defrag(false);
        let a = t.admit(sl(0), vl(0), Distance::D64, 255).unwrap();
        let _b = t.admit(sl(1), vl(1), Distance::D64, 255).unwrap();
        // slots 0 (even) and 1 (odd) busy: no d=2 set free although 62
        // entries are free.
        assert!(!t.can_admit(sl(2), Distance::D2, 32));
        // The bit-reversal policy would have put the second sequence on
        // slot 32, keeping d=2 alive; show defrag repairs it too.
        t.release(a.sequence, 255).unwrap();
        t.defragment();
        assert!(t.can_admit(sl(2), Distance::D2, 32));
        t.check_consistency().unwrap();
    }
}
