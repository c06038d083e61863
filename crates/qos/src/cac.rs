//! Connection admission control: the per-port table registry and the
//! all-or-nothing multi-hop admission, decided before it reserves.
//!
//! "Each request is studied in each node in its path, and it is only
//! accepted if there are available resources."

use crate::connection::HopReservation;
use crate::stamp::{Lineage, Stamps};
use iba_core::{
    AllocatorKind, Distance, HighPriorityTable, Placement, SequenceId, ServiceLevel, TableError,
    VirtualLane, Weight, MAX_TABLE_WEIGHT,
};
use iba_sim::NodeId;

/// Identifies one output port in the fabric.
///
/// Ordered `(node, port)` with [`NodeId`]'s canonical order (switches
/// before hosts): the registry keeps its tables in this order, so
/// everything that iterates tables — audits, recovery, reports — sees
/// it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PortKey {
    /// Owning node.
    pub node: NodeId,
    /// Output port number.
    pub port: u8,
}

impl PortKey {
    /// A stable 64-bit code for this port — independent of process and
    /// hasher. Keys the repair drill's per-table RNG sub-streams. It
    /// orders as the key does ([`NodeId::port_code`]).
    #[must_use]
    pub fn stable_code(self) -> u64 {
        self.node.port_code(self.port)
    }
}

/// Why a request was rejected.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RejectReason {
    /// A hop's table had no free sequence for the distance.
    NoFreeSequence(PortKey),
    /// A hop's reservation cap (the 80% QoS share) was hit.
    CapacityExceeded(PortKey),
    /// The request is too large for any single sequence.
    RequestTooLarge,
    /// The request was malformed (zero weight, a stale sequence id or a
    /// path that names a port twice).
    InvalidRequest,
}

impl RejectReason {
    /// The reason as an `iba-obs` [`iba_obs::RejectKind`] (the port
    /// detail is dropped; only the category is metered).
    #[must_use]
    pub fn kind(&self) -> iba_obs::RejectKind {
        match self {
            RejectReason::NoFreeSequence(_) => iba_obs::RejectKind::NoFreeSequence,
            RejectReason::CapacityExceeded(_) => iba_obs::RejectKind::CapacityExceeded,
            RejectReason::RequestTooLarge => iba_obs::RejectKind::RequestTooLarge,
            RejectReason::InvalidRequest => iba_obs::RejectKind::Invalid,
        }
    }
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::NoFreeSequence(k) => {
                write!(f, "no free sequence at {:?} port {}", k.node, k.port)
            }
            RejectReason::CapacityExceeded(k) => {
                write!(f, "reservation cap reached at {:?} port {}", k.node, k.port)
            }
            RejectReason::RequestTooLarge => f.write_str("request exceeds one sequence"),
            RejectReason::InvalidRequest => f.write_str("malformed admission request"),
        }
    }
}

/// A release that did not match a prior admission: the hop's table
/// rejected it (stale sequence id or weight mismatch). Returned instead
/// of panicking; a caller releasing what its ledger says is held treats
/// it as a broken ledger (`iba_core::invariants::held_hops_release`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ReleaseError {
    /// Port whose table rejected the release.
    pub key: PortKey,
    /// The underlying table error.
    pub error: TableError,
}

impl std::fmt::Display for ReleaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "release failed at {:?} port {}: {}",
            self.key.node, self.key.port, self.error
        )
    }
}

impl std::error::Error for ReleaseError {}

/// Marks an untouched port in a [`PortIndex`].
const UNTOUCHED: u32 = u32::MAX;

/// Where each touched table sits in [`PortTables`]' arrays: one dense
/// array per node kind, read at `id * stride + port`, where `stride`
/// is one past the highest touched port of that kind. It holds
/// `(highest touched id + 1) * stride` positions, about one per port
/// for a fabric's dense ids. Rebuilt whenever a first touch shifts the
/// tables' positions.
#[derive(Clone, Default)]
struct PortIndex {
    stride: usize,
    position: Vec<u32>,
}

impl PortIndex {
    fn get(&self, id: u16, port: u8) -> Option<usize> {
        let port = usize::from(port);
        if port >= self.stride {
            return None;
        }
        let p = *self.position.get(usize::from(id) * self.stride + port)?;
        (p != UNTOUCHED).then_some(p as usize)
    }

    /// Indexes the `(id, port, position)` triples of one node kind.
    fn build(keys: impl Iterator<Item = (u16, u8, usize)> + Clone) -> Self {
        let stride = keys.clone().map(|(_, p, _)| usize::from(p) + 1).max();
        let ids = keys.clone().map(|(i, _, _)| usize::from(i) + 1).max();
        let (Some(stride), Some(ids)) = (stride, ids) else {
            return PortIndex::default();
        };
        let mut position = vec![UNTOUCHED; ids * stride];
        for (id, port, p) in keys {
            position[usize::from(id) * stride + usize::from(port)] = p as u32;
        }
        PortIndex { stride, position }
    }
}

/// One touched port and the stamp of its table's current content.
#[derive(Clone, Copy, Debug)]
pub(crate) struct StampedKey {
    pub(crate) key: PortKey,
    /// The key's [`PortKey::stable_code`], which orders as the key.
    pub(crate) code: u64,
    pub(crate) stamp: u64,
}

/// The registry of high-priority tables, one per output port, created
/// lazily with a shared configuration.
///
/// Tables live in one vector in canonical [`PortKey`] order, so
/// [`PortTables::tables`] is a contiguous walk, and a dense index per
/// node kind finds a port's table in one read. Their keys and stamps
/// live beside them in a second, small array in the same order, which
/// a download scans without touching a table.
///
/// Every mutable access to a table gives it a fresh stamp
/// ([`PortTables::stamp`]); equal stamps mean equal tables, across
/// registries and their clones. Within one [`PortTables::lineage`]
/// stamps only grow, so the tables changed since a download are those
/// stamped after [`PortTables::latest_stamp`] as it stood then.
#[derive(Clone)]
pub struct PortTables {
    /// Every touched port with its table's stamp, sorted by key.
    keys: Vec<StampedKey>,
    /// The touched ports' tables, in `keys` order.
    tables: Vec<HighPriorityTable>,
    switches: PortIndex,
    hosts: PortIndex,
    allocator: AllocatorKind,
    capacity_limit: Weight,
    stamps: Stamps,
    /// The last stamp `stamps` handed out (0: none yet).
    latest: u64,
    lineage: Lineage,
    /// Scratch of `admit_path`: each planned hop's table position and
    /// placement, kept to reuse its allocation.
    planned: Vec<(usize, Placement)>,
}

/// Prints what the registry printed when it was a
/// `BTreeMap<PortKey, HighPriorityTable>`: the table digests hash this
/// string. Stamps are left out, so they never move a digest.
impl std::fmt::Debug for PortTables {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        struct Tables<'a>(&'a PortTables);
        impl std::fmt::Debug for Tables<'_> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.debug_map().entries(self.0.tables()).finish()
            }
        }
        f.debug_struct("PortTables")
            .field("tables", &Tables(self))
            .field("allocator", &self.allocator)
            .field("capacity_limit", &self.capacity_limit)
            .finish()
    }
}

impl PortTables {
    /// Registry whose tables use the paper's allocator and reserve
    /// `qos_fraction` of each link for QoS traffic (paper: 0.8).
    #[must_use]
    pub fn new(qos_fraction: f64) -> Self {
        Self::with_allocator(AllocatorKind::BitReversal, qos_fraction)
    }

    /// Registry with an explicit allocation policy (ablations).
    #[must_use]
    pub fn with_allocator(allocator: AllocatorKind, qos_fraction: f64) -> Self {
        assert!((0.0..=1.0).contains(&qos_fraction));
        PortTables {
            keys: Vec::new(),
            tables: Vec::new(),
            switches: PortIndex::default(),
            hosts: PortIndex::default(),
            allocator,
            capacity_limit: (qos_fraction * f64::from(MAX_TABLE_WEIGHT)) as Weight,
            stamps: Stamps::new(),
            latest: 0,
            lineage: Lineage::new(),
            planned: Vec::new(),
        }
    }

    /// The reservation cap applied to every table (weight units).
    #[must_use]
    pub fn capacity_limit(&self) -> Weight {
        self.capacity_limit
    }

    /// Position of `key`'s table in `tables`, if it was ever touched.
    fn position(&self, key: PortKey) -> Option<usize> {
        match key.node {
            NodeId::Switch(s) => self.switches.get(s, key.port),
            NodeId::Host(h) => self.hosts.get(h, key.port),
        }
    }

    /// Re-indexes every entry after the positions shifted.
    fn reindex(&mut self) {
        let keys = self
            .keys
            .iter()
            .enumerate()
            .map(|(p, k)| (k.key.node, k.key.port, p));
        self.switches = PortIndex::build(keys.clone().filter_map(|(n, port, p)| match n {
            NodeId::Switch(s) => Some((s, port, p)),
            NodeId::Host(_) => None,
        }));
        self.hosts = PortIndex::build(keys.filter_map(|(n, port, p)| match n {
            NodeId::Host(h) => Some((h, port, p)),
            NodeId::Switch(_) => None,
        }));
    }

    /// A fresh table with the registry's configuration.
    fn fresh_table(&self) -> HighPriorityTable {
        let mut t = HighPriorityTable::with_allocator(self.allocator);
        t.set_capacity_limit(self.capacity_limit);
        t
    }

    /// The table at position `p`, restamped: the caller may change it.
    fn restamped(&mut self, p: usize) -> &mut HighPriorityTable {
        self.latest = self.stamps.fresh();
        self.keys[p].stamp = self.latest;
        &mut self.tables[p]
    }

    /// Position of `key`'s table, created on first touch (the caller
    /// stamps it). A creation shifts every later position up by one.
    fn touch(&mut self, key: PortKey) -> usize {
        if let Some(p) = self.position(key) {
            return p;
        }
        let p = self.keys.partition_point(|k| k.key < key);
        let table = self.fresh_table();
        let stamped = StampedKey {
            key,
            code: key.stable_code(),
            stamp: 0,
        };
        self.keys.insert(p, stamped);
        self.tables.insert(p, table);
        self.reindex();
        p
    }

    fn table_mut(&mut self, key: PortKey) -> &mut HighPriorityTable {
        let p = self.touch(key);
        self.restamped(p)
    }

    /// Read access to a port's table (if any reservation ever touched it).
    #[must_use]
    pub fn table(&self, key: PortKey) -> Option<&HighPriorityTable> {
        self.position(key).map(|p| &self.tables[p])
    }

    /// The stamp of a port's table content (`None`: never touched).
    /// Never 0, and unique to that content: two tables — in this
    /// registry, a clone of it, or any other — with the same stamp are
    /// equal.
    #[must_use]
    pub fn stamp(&self, key: PortKey) -> Option<u64> {
        self.position(key).map(|p| self.keys[p].stamp)
    }

    /// Names this registry's history of stamps: unique to it, and drawn
    /// afresh by a clone, whose stamps diverge from the original's.
    #[must_use]
    pub fn lineage(&self) -> u64 {
        self.lineage.id()
    }

    /// The largest [`PortTables::stamp`] this registry has handed out
    /// (0 before the first). Every table changed later gets a larger
    /// one.
    #[must_use]
    pub fn latest_stamp(&self) -> u64 {
        self.latest
    }

    /// All `(port, table)` pairs touched so far, in canonical key order.
    pub fn tables(&self) -> impl Iterator<Item = (PortKey, &HighPriorityTable)> {
        self.keys.iter().map(|k| k.key).zip(&self.tables)
    }

    /// Every touched port with its [`PortTables::stamp`], in canonical
    /// key order: position `p` holds the key of `tables()`' `p`-th
    /// table.
    pub(crate) fn stamped_keys(&self) -> &[StampedKey] {
        &self.keys
    }

    /// The `p`-th table of [`PortTables::tables`].
    pub(crate) fn table_at(&self, p: usize) -> &HighPriorityTable {
        &self.tables[p]
    }

    /// Reserves `(sl, vl, distance, weight)` at every port in `path`,
    /// or at none.
    ///
    /// Each hop is planned read-only, in path order, against its table
    /// as it stands; only if every hop plans are the placements
    /// committed. A rejection reports the first hop that failed. On
    /// consistent tables it leaves every table as reserving the earlier
    /// hops and rolling them back would have: a joined hop is
    /// untouched, and a hop that planned a fresh sequence gets that
    /// sequence's release defragmentation
    /// ([`HighPriorityTable::undo_fresh`]). (A joined sequence whose
    /// slots are damaged keeps them; repair rewrites them.) Tables of
    /// never-touched ports up to the failing hop are created, and only
    /// tables the call changed are restamped.
    ///
    /// A path that names a port twice is rejected as
    /// [`RejectReason::InvalidRequest`] before any table is touched.
    pub fn admit_path(
        &mut self,
        path: &[PortKey],
        sl: ServiceLevel,
        vl: VirtualLane,
        distance: Distance,
        weight: Weight,
    ) -> Result<Vec<HopReservation>, RejectReason> {
        self.admit_path_observed(path, sl, vl, distance, weight, &mut iba_obs::NullRecorder)
    }

    /// [`PortTables::admit_path`] with instrumentation: each planned
    /// hop's allocator probes are recorded into `rec`. The dynamic
    /// dispatch is not free even into a `NullRecorder`: in a sampling
    /// profile of the paper-scale fill, its empty `span_begin` alone
    /// took 1.7–2.8% of the samples.
    pub fn admit_path_observed(
        &mut self,
        path: &[PortKey],
        sl: ServiceLevel,
        vl: VirtualLane,
        distance: Distance,
        weight: Weight,
        rec: &mut dyn iba_obs::Recorder,
    ) -> Result<Vec<HopReservation>, RejectReason> {
        rec.span_begin("cac.admit");
        let mut planned = std::mem::take(&mut self.planned);
        planned.clear();
        let result = self
            .plan_path(path, sl, distance, weight, &mut planned, rec)
            .map(|()| self.commit_path(path, sl, vl, weight, &planned));
        self.planned = planned;
        rec.span_end("cac.admit");
        result
    }

    /// Plans every hop of `path` into `planned` as `(table position,
    /// placement)`, or undoes the fresh hops planned before the first
    /// hop that fails and reports it.
    fn plan_path(
        &mut self,
        path: &[PortKey],
        sl: ServiceLevel,
        distance: Distance,
        weight: Weight,
        planned: &mut Vec<(usize, Placement)>,
        rec: &mut dyn iba_obs::Recorder,
    ) -> Result<(), RejectReason> {
        if (1..path.len()).any(|i| path[..i].contains(&path[i])) {
            return Err(RejectReason::InvalidRequest);
        }
        for &key in path {
            let known = self.tables.len();
            let p = self.touch(key);
            if self.tables.len() > known {
                self.restamped(p);
                // The new table shifted every later position.
                for (q, _) in planned.iter_mut().filter(|(q, _)| *q >= p) {
                    *q += 1;
                }
            }
            match self.tables[p].plan_admit(sl, distance, weight, rec) {
                Ok(placement) => planned.push((p, placement)),
                Err(e) => {
                    for &(q, placement) in planned.iter().rev() {
                        if let Placement::Fresh(eset) = placement {
                            self.restamped(q).undo_fresh(eset);
                        }
                    }
                    return Err(match e {
                        TableError::NoFreeSequence => RejectReason::NoFreeSequence(key),
                        TableError::CapacityExceeded => RejectReason::CapacityExceeded(key),
                        TableError::RequestTooLarge => RejectReason::RequestTooLarge,
                        _ => RejectReason::InvalidRequest,
                    });
                }
            }
        }
        Ok(())
    }

    /// Commits the placements [`PortTables::plan_path`] planned for
    /// `path`.
    fn commit_path(
        &mut self,
        path: &[PortKey],
        sl: ServiceLevel,
        vl: VirtualLane,
        weight: Weight,
        planned: &[(usize, Placement)],
    ) -> Vec<HopReservation> {
        path.iter()
            .zip(planned)
            .map(|(&key, &(p, placement))| HopReservation {
                node: key.node,
                port: key.port,
                sequence: self
                    .restamped(p)
                    .commit_admit(sl, vl, weight, placement)
                    .sequence,
            })
            .collect()
    }

    /// Releases one hop's reservation. A mismatched release (a stale
    /// sequence id, a weight the sequence does not hold) is reported,
    /// not panicked on.
    pub fn release_hop(&mut self, hop: HopReservation, weight: Weight) -> Result<(), ReleaseError> {
        let key = hop.key();
        match self.table_mut(key).release(hop.sequence, weight) {
            Ok(_) => Ok(()),
            Err(error) => Err(ReleaseError { key, error }),
        }
    }

    /// Port keys of every table touched so far, in canonical order
    /// (switches before hosts, then node index, then port): the
    /// tables' own order, with no re-sort.
    pub(crate) fn sorted_keys(&self) -> Vec<PortKey> {
        self.keys.iter().map(|k| k.key).collect()
    }

    /// Mutable access to one touched table (recovery layer); restamps
    /// it.
    pub(crate) fn get_table_mut(&mut self, key: PortKey) -> Option<&mut HighPriorityTable> {
        let p = self.position(key)?;
        Some(self.restamped(p))
    }

    /// Mean reserved bandwidth (Mbps) over a set of ports, given the
    /// link capacity. Ports never touched count as zero.
    #[must_use]
    pub fn mean_reservation_mbps(&self, keys: &[PortKey], link_mbps: f64) -> f64 {
        if keys.is_empty() {
            return 0.0;
        }
        let total: f64 = keys
            .iter()
            .map(|k| {
                self.table(*k).map_or(0.0, |t| {
                    iba_core::bandwidth_for_weight(t.reserved_weight(), link_mbps)
                })
            })
            .sum();
        total / keys.len() as f64
    }

    /// Consistency check over every table (tests).
    pub fn check_all(&self) -> Result<(), String> {
        for (k, t) in self.tables() {
            t.check_consistency()
                .map_err(|e| format!("{:?} port {}: {e}", k.node, k.port))?;
        }
        Ok(())
    }

    /// Returns a sequence's info at a port, for assertions.
    #[must_use]
    pub fn sequence_info(&self, key: PortKey, id: SequenceId) -> Option<iba_core::SequenceInfo> {
        self.table(key)?.sequence(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u16, p: u8) -> PortKey {
        PortKey {
            node: NodeId::Switch(n),
            port: p,
        }
    }

    fn sl(i: u8) -> ServiceLevel {
        ServiceLevel::new(i).unwrap()
    }

    fn vl(i: u8) -> VirtualLane {
        VirtualLane::data(i)
    }

    #[test]
    fn path_admission_reserves_every_hop() {
        let mut pt = PortTables::new(0.8);
        let path = [key(0, 1), key(1, 2), key(2, 0)];
        let hops = pt
            .admit_path(&path, sl(3), vl(3), Distance::D16, 40)
            .unwrap();
        assert_eq!(hops.len(), 3);
        for k in &path {
            assert_eq!(pt.table(*k).unwrap().reserved_weight(), 40);
        }
        pt.check_all().unwrap();
    }

    #[test]
    fn failure_rolls_back_cleanly() {
        let mut pt = PortTables::new(0.8);
        // Exhaust hop 1's capacity (13056 cap).
        let filler = [key(1, 2)];
        for _ in 0..4 {
            pt.admit_path(&filler, sl(6), vl(6), Distance::D64, 3264)
                .unwrap();
        }
        // 13056 reserved exactly; next admission at hop 1 must fail.
        let path = [key(0, 1), key(1, 2), key(2, 0)];
        let err = pt
            .admit_path(&path, sl(3), vl(3), Distance::D16, 40)
            .unwrap_err();
        assert_eq!(err, RejectReason::CapacityExceeded(key(1, 2)));
        // Hops 0 and 2 were rolled back.
        assert_eq!(pt.table(key(0, 1)).unwrap().reserved_weight(), 0);
        assert!(
            pt.table(key(2, 0)).is_none() || pt.table(key(2, 0)).unwrap().reserved_weight() == 0
        );
        pt.check_all().unwrap();
    }

    #[test]
    fn a_path_naming_a_port_twice_is_rejected_untouched() {
        let mut pt = PortTables::new(0.8);
        pt.admit_path(&[key(0, 1)], sl(2), vl(2), Distance::D8, 30)
            .unwrap();
        let (before, stamp) = (format!("{pt:?}"), pt.stamp(key(0, 1)));
        for path in [
            [key(0, 1), key(1, 2), key(0, 1)],
            [key(1, 2), key(3, 0), key(3, 0)],
        ] {
            assert_eq!(
                pt.admit_path(&path, sl(2), vl(2), Distance::D8, 30)
                    .unwrap_err(),
                RejectReason::InvalidRequest
            );
        }
        // No table was created, changed or restamped.
        assert_eq!(format!("{pt:?}"), before);
        assert_eq!(pt.stamp(key(0, 1)), stamp);
        assert!(pt.table(key(1, 2)).is_none() && pt.table(key(3, 0)).is_none());
    }

    #[test]
    fn a_clone_has_a_lineage_of_its_own() {
        let mut pt = PortTables::new(0.8);
        assert_eq!(pt.latest_stamp(), 0);
        pt.admit_path(&[key(0, 1), key(1, 2)], sl(2), vl(2), Distance::D8, 30)
            .unwrap();
        let newest = pt.stamped_keys().iter().map(|k| k.stamp).max();
        assert_eq!(Some(pt.latest_stamp()), newest);
        let mut copy = pt.clone();
        assert_ne!(copy.lineage(), pt.lineage());
        assert_ne!(copy.clone().lineage(), copy.lineage());
        assert_eq!(copy.latest_stamp(), pt.latest_stamp());
        copy.admit_path(&[key(0, 1)], sl(2), vl(2), Distance::D8, 30)
            .unwrap();
        assert!(copy.stamp(key(0, 1)) > Some(pt.latest_stamp()));
        assert_eq!(copy.stamp(key(0, 1)), Some(copy.latest_stamp()));
    }

    #[test]
    fn a_rejection_restamps_only_the_tables_it_changes() {
        let mut pt = PortTables::new(0.8);
        // Hop (1, 2) is full; (0, 1) holds a joinable SL-2 sequence.
        for _ in 0..4 {
            pt.admit_path(&[key(1, 2)], sl(6), vl(6), Distance::D64, 3264)
                .unwrap();
        }
        pt.admit_path(&[key(0, 1)], sl(2), vl(2), Distance::D8, 30)
            .unwrap();
        let stamps = |pt: &PortTables| [key(0, 1), key(1, 2)].map(|k| pt.stamp(k));
        let before = (format!("{pt:?}"), stamps(&pt));
        // A join at (0, 1), then the full hop: nothing changes.
        let err = pt
            .admit_path(&[key(0, 1), key(1, 2)], sl(2), vl(2), Distance::D8, 30)
            .unwrap_err();
        assert_eq!(err, RejectReason::CapacityExceeded(key(1, 2)));
        assert_eq!((format!("{pt:?}"), stamps(&pt)), before);
        // A fresh hop at a new port, then the full hop: the new table
        // exists, empty, and the full one keeps its stamp.
        pt.admit_path(&[key(4, 0), key(1, 2)], sl(3), vl(3), Distance::D8, 30)
            .unwrap_err();
        assert_eq!(pt.table(key(4, 0)).unwrap().reserved_weight(), 0);
        assert_eq!(stamps(&pt), before.1);
        pt.check_all().unwrap();
    }

    #[test]
    fn releasing_every_hop_returns_capacity() {
        let mut pt = PortTables::new(0.8);
        let path = [key(0, 0), key(1, 1)];
        let hops = pt
            .admit_path(&path, sl(0), vl(0), Distance::D2, 100)
            .unwrap();
        for hop in hops {
            pt.release_hop(hop, 100).unwrap();
        }
        for k in &path {
            assert_eq!(pt.table(*k).unwrap().reserved_weight(), 0);
            assert_eq!(pt.table(*k).unwrap().free_entries(), 64);
        }
    }

    #[test]
    fn mismatched_release_reports_instead_of_panicking() {
        let mut pt = PortTables::new(0.8);
        let path = [key(0, 0), key(1, 1)];
        let hops = pt
            .admit_path(&path, sl(0), vl(0), Distance::D8, 50)
            .unwrap();
        // Releasing more weight than reserved is a typed error.
        let err = pt.release_hop(hops[0], 51).unwrap_err();
        assert_eq!(err.key, key(0, 0));
        assert_eq!(err.error, TableError::WeightUnderflow);
        // A double release names the stale sequence.
        pt.release_hop(hops[0], 50).unwrap();
        let err = pt.release_hop(hops[0], 50).unwrap_err();
        assert_eq!(err.error, TableError::UnknownSequence);
        pt.check_all().unwrap();
    }

    #[test]
    fn stable_code_is_injective_across_node_kinds() {
        let a = PortKey {
            node: NodeId::Switch(3),
            port: 1,
        };
        let b = PortKey {
            node: NodeId::Host(3),
            port: 1,
        };
        assert_ne!(a.stable_code(), b.stable_code());
        assert_eq!(a.stable_code(), (3 << 8) | 1);
        assert_eq!(b.stable_code(), (1 << 32) | (3 << 8) | 1);
    }

    #[test]
    fn reservation_metric() {
        let mut pt = PortTables::new(1.0);
        let path = [key(0, 0)];
        // Half the table weight => half the link.
        pt.admit_path(&path, sl(9), vl(9), Distance::D64, 8160)
            .unwrap();
        let mbps = pt.mean_reservation_mbps(&[key(0, 0), key(5, 5)], 2500.0);
        // One port at 1250 Mbps, one untouched: mean 625.
        assert!((mbps - 625.0).abs() < 1.0, "{mbps}");
    }

    /// The registry as it was before the dense index: a `BTreeMap`
    /// whose derived `Debug` is what the table digests hashed.
    mod reference {
        use super::super::*;
        use std::collections::BTreeMap;

        #[derive(Clone, Debug)]
        pub struct PortTables {
            pub tables: BTreeMap<PortKey, HighPriorityTable>,
            pub allocator: AllocatorKind,
            pub capacity_limit: Weight,
        }

        impl PortTables {
            pub fn table_mut(&mut self, key: PortKey) -> &mut HighPriorityTable {
                let (allocator, limit) = (self.allocator, self.capacity_limit);
                self.tables.entry(key).or_insert_with(|| {
                    let mut t = HighPriorityTable::with_allocator(allocator);
                    t.set_capacity_limit(limit);
                    t
                })
            }

            /// `admit_path` as it was before admission planned first:
            /// reserve hop by hop, and on the first failure release the
            /// hops reserved so far. A rejection reports how many of
            /// those hops had opened a fresh sequence.
            pub fn admit_path(
                &mut self,
                path: &[PortKey],
                sl: ServiceLevel,
                vl: VirtualLane,
                distance: Distance,
                weight: Weight,
            ) -> Result<Vec<HopReservation>, usize> {
                let mut done = Vec::new();
                let mut fresh = 0;
                for &key in path {
                    match self.table_mut(key).admit(sl, vl, distance, weight) {
                        Ok(adm) => {
                            fresh += usize::from(adm.new_sequence);
                            done.push(HopReservation {
                                node: key.node,
                                port: key.port,
                                sequence: adm.sequence,
                            });
                        }
                        Err(_) => {
                            self.release_path(&done, weight);
                            return Err(fresh);
                        }
                    }
                }
                Ok(done)
            }

            pub fn release_path(&mut self, hops: &[HopReservation], weight: Weight) {
                for hop in hops.iter().rev() {
                    let key = PortKey {
                        node: hop.node,
                        port: hop.port,
                    };
                    let _ = self.table_mut(key).release(hop.sequence, weight);
                }
            }
        }
    }

    /// Every lookup the registry must answer like the map: the ports the
    /// walk touches, ports it never touches, port 0, the maximum port
    /// and the highest host and switch ids.
    fn probe_keys() -> Vec<PortKey> {
        let mut keys = Vec::new();
        for id in [0u16, 1, 2, 3, 4, 5, 9, 300, u16::MAX] {
            for port in [0u8, 1, 2, 3, 7, u8::MAX] {
                keys.push(key(id, port));
                keys.push(PortKey {
                    node: NodeId::Host(id),
                    port,
                });
            }
        }
        keys
    }

    fn assert_same_registry(pt: &PortTables, reference: &reference::PortTables, step: usize) {
        assert_eq!(format!("{pt:?}"), format!("{reference:?}"), "step {step}");
        let want: Vec<PortKey> = reference.tables.keys().copied().collect();
        assert_eq!(pt.tables().map(|(k, _)| k).collect::<Vec<_>>(), want);
        assert_eq!(pt.sorted_keys(), want, "step {step}");
        for k in probe_keys() {
            assert_eq!(
                pt.table(k).map(|t| format!("{t:?}")),
                reference.tables.get(&k).map(|t| format!("{t:?}")),
                "step {step}: {k:?}"
            );
        }
    }

    #[test]
    fn registry_matches_the_btreemap_reference_on_a_seeded_walk() {
        use crate::recovery::repair_table;
        use iba_core::SplitMix64;

        // Touched ports: a few switch ports and host uplinks, plus the
        // maximum port of a switch and the highest host id.
        let mut touchable: Vec<PortKey> = (0..5)
            .flat_map(|s| (0..4).map(move |p| key(s, p)))
            .collect();
        touchable.extend((0..6).map(|h| PortKey {
            node: NodeId::Host(h),
            port: 0,
        }));
        touchable.push(key(9, u8::MAX));
        touchable.push(PortKey {
            node: NodeId::Host(u16::MAX),
            port: 0,
        });

        let mut rng = SplitMix64::seed_from_u64(0x00DE_75E7);
        let mut pt = PortTables::new(0.8);
        let mut reference = reference::PortTables {
            tables: std::collections::BTreeMap::new(),
            allocator: AllocatorKind::BitReversal,
            capacity_limit: pt.capacity_limit(),
        };
        let mut live: Vec<(Vec<HopReservation>, Weight)> = Vec::new();
        // Admits, teardowns and repairs taken.
        let mut taken = [0usize; 3];
        // Rejections that rolled back a fresh sequence in the reference:
        // the ones whose undo must defragment.
        let mut fresh_rollbacks = 0;
        assert_same_registry(&pt, &reference, 0);
        for step in 1..=1500 {
            match rng.gen_range(0u32..100) {
                0..=59 => {
                    taken[0] += 1;
                    let hops = rng.gen_range(1usize..5);
                    let mut path = Vec::with_capacity(hops);
                    while path.len() < hops {
                        let k = *rng.choose(&touchable).expect("non-empty");
                        if !path.contains(&k) {
                            path.push(k);
                        }
                    }
                    let (s, d) = (rng.gen_range(0u8..10), *rng.choose(&Distance::ALL).unwrap());
                    let w = rng.gen_range(1u32..400);
                    let got = pt.admit_path(&path, sl(s), vl(s), d, w).ok();
                    let want = reference.admit_path(&path, sl(s), vl(s), d, w);
                    fresh_rollbacks += usize::from(matches!(want, Err(n) if n > 0));
                    assert_eq!(
                        format!("{got:?}"),
                        format!("{:?}", want.ok()),
                        "step {step}"
                    );
                    live.extend(got.map(|h| (h, w)));
                }
                60..=91 if !live.is_empty() => {
                    taken[1] += 1;
                    let (hops, w) = live.swap_remove(rng.gen_range(0..live.len()));
                    for &hop in hops.iter().rev() {
                        let _ = pt.release_hop(hop, w);
                    }
                    reference.release_path(&hops, w);
                }
                _ => {
                    taken[2] += 1;
                    // Corrupt every touched table from one stream walked
                    // in key order, then repair in key order.
                    let seed = rng.next_u64();
                    let (mut a, mut b) = (
                        SplitMix64::seed_from_u64(seed),
                        SplitMix64::seed_from_u64(seed),
                    );
                    for k in pt.sorted_keys() {
                        pt.get_table_mut(k).unwrap().inject_corruption(&mut a);
                    }
                    for t in reference.tables.values_mut() {
                        t.inject_corruption(&mut b);
                    }
                    assert_same_registry(&pt, &reference, step);
                    let null = &mut iba_obs::NullRecorder;
                    for k in pt.sorted_keys() {
                        repair_table(pt.get_table_mut(k).unwrap(), null);
                    }
                    for t in reference.tables.values_mut() {
                        repair_table(t, null);
                    }
                    // Repairs re-admit under fresh ids; start over.
                    live.clear();
                }
            }
            assert_same_registry(&pt, &reference, step);
        }
        assert_eq!(format!("{pt:#?}"), format!("{reference:#?}"));
        assert!(pt.tables().count() > 20, "the walk touches most ports");
        assert!(
            taken.iter().all(|&n| n > 10),
            "every operation ran: {taken:?}"
        );
        assert!(
            fresh_rollbacks >= 10,
            "only {fresh_rollbacks} rejections rolled back a fresh sequence"
        );
    }

    #[test]
    fn shared_sequences_across_connections() {
        let mut pt = PortTables::new(0.8);
        let path = [key(0, 0)];
        let a = pt
            .admit_path(&path, sl(4), vl(4), Distance::D32, 30)
            .unwrap();
        let b = pt
            .admit_path(&path, sl(4), vl(4), Distance::D32, 30)
            .unwrap();
        assert_eq!(a[0].sequence, b[0].sequence, "same SL must share");
        let info = pt.sequence_info(key(0, 0), a[0].sequence).unwrap();
        assert_eq!(info.connections, 2);
        assert_eq!(info.total_weight, 60);
    }
}
