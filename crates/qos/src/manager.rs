//! The subnet QoS manager: owns every output port's tables, admits and
//! tears down connections, and pushes the resulting
//! `VLArbitrationTable` configurations into a simulated fabric.

use crate::cac::{PortKey, PortTables, RejectReason};
use crate::connection::{Connection, ConnectionId, HopReservation};
use crate::recovery::{self, RecoverySummary};
use iba_core::{
    sl, AllocatorKind, ArbEntry, Distance, HighPriorityTable, SlTable, SlToVlMap, VlArbConfig,
};
use iba_sim::{DownloadKey, Fabric, NodeId, PortDownload, SimConfig, LINK_1X_MBPS};
use iba_topo::{HostId, PortPeer, RoutingTable, Topology};
use iba_traffic::ConnectionRequest;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Domain-separation constant for table corruption.
const CORRUPT_SEED: u64 = 0x07AB_1EC0_5EED;
/// Odd multiplier spreading a port's stable code into its corruption
/// stream's seed.
const KEY_SPREAD: u64 = 0x9E37_79B9_7F4A_7C15;

/// Configuration of the low-priority table shared by all ports: one
/// entry per best-effort class, weighted by preference (PBE over BE over
/// CH), plus the `LimitOfHighPriority` value.
#[derive(Clone, Debug)]
pub struct LowPriorityPolicy {
    /// Low-priority table entries.
    pub entries: Vec<ArbEntry>,
    /// `LimitOfHighPriority` (255 = unlimited: low priority served only
    /// when the high-priority table is idle, which the 80% reservation
    /// cap guarantees happens regularly).
    pub limit_of_high_priority: u8,
}

impl Default for LowPriorityPolicy {
    fn default() -> Self {
        Self::for_map(&SlToVlMap::identity())
    }
}

impl LowPriorityPolicy {
    /// The standard best-effort policy expressed over a given SL→VL
    /// mapping: PBE over BE over CH, on whatever lanes the mapping
    /// assigns those SLs.
    #[must_use]
    pub fn for_map(map: &SlToVlMap) -> Self {
        // The best-effort SL constants are all valid (<= 12).
        let vl_of = |s: u8| {
            iba_core::ServiceLevel::new(s)
                .map(|sl| map.vl(sl))
                .unwrap_or(iba_core::VirtualLane::VL15)
        };
        LowPriorityPolicy {
            entries: vec![
                ArbEntry {
                    vl: vl_of(sl::SL_PBE),
                    weight: 64,
                },
                ArbEntry {
                    vl: vl_of(sl::SL_BE),
                    weight: 16,
                },
                ArbEntry {
                    vl: vl_of(sl::SL_CH),
                    weight: 2,
                },
            ],
            limit_of_high_priority: 255,
        }
    }
}

/// The QoS manager for one subnet.
#[derive(Clone, Debug)]
pub struct QosManager {
    topo: Topology,
    routing: RoutingTable,
    sl_table: SlTable,
    sl_to_vl: SlToVlMap,
    /// [`QosManager::effective_distance`] of every SL, by SL number:
    /// it depends only on the SL table and the SL→VL mapping.
    reserved: [Option<Distance>; 16],
    tables: PortTables,
    connections: Vec<Option<Connection>>,
    /// Indices of the empty `connections` records, smallest on top: a
    /// new connection takes the smallest free id.
    free_ids: BinaryHeap<Reverse<u32>>,
    low: LowPriorityPolicy,
    /// Stamp of `low` (see [`PortTables::stamp`]): renewed whenever the
    /// policy changes, so a port's [`DownloadKey`] covers everything
    /// its configuration is built from.
    low_stamp: u64,
    link_mbps: f64,
    header_bytes: u32,
    /// The path buffer admission reuses from request to request.
    path: Vec<PortKey>,
}

impl QosManager {
    /// Manager with the paper's defaults: bit-reversal allocator, 80%
    /// QoS share, identity SL→VL mapping, 1x links.
    #[must_use]
    pub fn new(topo: Topology, routing: RoutingTable, sl_table: SlTable) -> Self {
        Self::with_allocator(topo, routing, sl_table, AllocatorKind::BitReversal, 0.8)
    }

    /// Manager with an explicit allocation policy and QoS share
    /// (ablations).
    #[must_use]
    pub fn with_allocator(
        topo: Topology,
        routing: RoutingTable,
        sl_table: SlTable,
        allocator: AllocatorKind,
        qos_fraction: f64,
    ) -> Self {
        let sl_to_vl = SlToVlMap::identity();
        QosManager {
            topo,
            routing,
            reserved: reserved_distances(&sl_table, &sl_to_vl),
            sl_table,
            sl_to_vl,
            tables: PortTables::with_allocator(allocator, qos_fraction),
            connections: Vec::new(),
            free_ids: BinaryHeap::new(),
            low: LowPriorityPolicy::default(),
            low_stamp: crate::stamp::unique(),
            link_mbps: LINK_1X_MBPS,
            header_bytes: 0,
            path: Vec::new(),
        }
    }

    /// Overrides the low-priority policy.
    pub fn set_low_priority_policy(&mut self, policy: LowPriorityPolicy) {
        self.low = policy;
        self.low_stamp = crate::stamp::unique();
    }

    /// Takes the fabric's physical parameters from `config` (the
    /// frame's one source of them), on a manager that holds no
    /// connection yet:
    ///
    /// * the per-packet wire overhead, `header_bytes`: reservations are
    ///   made for the *gross* rate, `bandwidth · (payload + header) /
    ///   payload`, so the guarantee covers the headers too;
    /// * the link rate weights are computed against,
    ///   `link_bytes_per_cycle` times a 1x link;
    /// * the SL→VL mapping. Per §3.2 of the paper, when several SLs
    ///   share a VL "we could use less SLs or enforce more restrictive
    ///   requirements for some SLs": admission then reserves, for every
    ///   connection, the **most restrictive distance among the SLs
    ///   mapped to its VL**, so the shared lane still honours the
    ///   strictest guarantee riding on it.
    pub(crate) fn configure(&mut self, config: &SimConfig) {
        self.header_bytes = config.header_bytes;
        self.link_mbps = link_mbps(config);
        self.low = LowPriorityPolicy::for_map(&config.sl_to_vl);
        self.low_stamp = crate::stamp::unique();
        self.reserved = reserved_distances(&self.sl_table, &config.sl_to_vl);
        self.sl_to_vl = config.sl_to_vl.clone();
    }

    /// Whether the manager's physical parameters are `config`'s.
    pub(crate) fn agrees_with(&self, config: &SimConfig) -> bool {
        self.header_bytes == config.header_bytes
            && self.link_mbps == link_mbps(config)
            && self.sl_to_vl == config.sl_to_vl
    }

    /// The SL→VL mapping in force.
    #[must_use]
    pub fn sl_to_vl(&self) -> &SlToVlMap {
        &self.sl_to_vl
    }

    /// The effective distance reserved for a connection of `sl`: the
    /// SL's own distance tightened to the most restrictive distance of
    /// any QoS SL sharing the same VL.
    #[must_use]
    pub fn effective_distance(&self, sl_id: iba_core::ServiceLevel) -> Option<Distance> {
        self.reserved[sl_id.index()]
    }

    /// The SL configuration in force.
    #[must_use]
    pub fn sl_table(&self) -> &SlTable {
        &self.sl_table
    }

    /// The topology under management.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The routing tables in force.
    #[must_use]
    pub fn routing(&self) -> &RoutingTable {
        &self.routing
    }

    /// The output ports a connection from `src` to `dst` crosses:
    /// the host's uplink, then every switch's output along the route
    /// (the last one faces the destination host).
    #[must_use]
    pub fn path_ports(&self, src: HostId, dst: HostId) -> Vec<PortKey> {
        // A loop-free route visits each switch at most once.
        let mut ports = Vec::with_capacity(1 + self.topo.num_switches());
        self.path_ports_into(src, dst, &mut ports);
        ports
    }

    /// [`QosManager::path_ports`] into `ports`, replacing its contents.
    fn path_ports_into(&self, src: HostId, dst: HostId, ports: &mut Vec<PortKey>) {
        ports.clear();
        ports.push(PortKey {
            node: NodeId::Host(src.0),
            port: 0,
        });
        let routed = self.routing.for_each_hop(&self.topo, src, dst, |s, port| {
            ports.push(PortKey {
                node: NodeId::Switch(s.0),
                port,
            });
        });
        assert!(routed, "routing is complete: {src} -> {dst}");
    }

    /// Admits a connection request: reserves (SL, VL, distance, weight)
    /// in the high-priority table of every output port on the path, or
    /// rejects without side effects.
    pub fn request(&mut self, req: &ConnectionRequest) -> Result<ConnectionId, RejectReason> {
        self.request_observed(req, &mut iba_obs::NullRecorder)
    }

    /// The distance admission reserves for `req`: its own, tightened
    /// when the SL shares its VL with stricter SLs (see `QosManager::configure`).
    fn reserved_distance(&self, req: &ConnectionRequest) -> Distance {
        match self.effective_distance(req.sl) {
            Some(d) if d.at_least_as_strict(req.distance) => d,
            _ => req.distance,
        }
    }

    /// [`QosManager::request`] with instrumentation: records
    /// `cac_admit_total{sl}` or `cac_reject_total{reason}` plus the
    /// allocator probe metrics of every hop into `rec`.
    pub fn request_observed(
        &mut self,
        req: &ConnectionRequest,
        rec: &mut dyn iba_obs::Recorder,
    ) -> Result<ConnectionId, RejectReason> {
        // Reserve for the gross (wire) rate when headers are modelled.
        let gross_factor =
            f64::from(req.packet_bytes + self.header_bytes) / f64::from(req.packet_bytes);
        let Some(weight) =
            iba_core::weight_for_bandwidth(req.mean_bw_mbps * gross_factor, self.link_mbps)
        else {
            rec.cac_reject(RejectReason::RequestTooLarge.kind());
            return Err(RejectReason::RequestTooLarge);
        };
        let (vl, distance) = (self.sl_to_vl.vl(req.sl), self.reserved_distance(req));
        let mut path = std::mem::take(&mut self.path);
        self.path_ports_into(req.src, req.dst, &mut path);
        let admitted = self
            .tables
            .admit_path_observed(&path, req.sl, vl, distance, weight, rec);
        self.path = path;
        let hops = match admitted {
            Ok(h) => h,
            Err(e) => {
                rec.cac_reject(e.kind());
                return Err(e);
            }
        };
        rec.cac_admit(req.sl.raw());
        // The deadline is the *application's* requirement (its own
        // distance); the reservation distance may be tighter when SLs
        // share a VL, which only improves service.
        let deadline = iba_traffic::request::deadline_with_transmission(
            req.distance,
            hops.len(),
            req.packet_bytes,
        );
        let conn = Connection {
            request: *req,
            weight,
            deadline,
            interarrival: req.interarrival(),
            hops,
        };
        let id = match self.free_ids.pop() {
            Some(Reverse(id)) => {
                self.connections[id as usize] = Some(conn);
                id
            }
            None => {
                self.connections.push(Some(conn));
                (self.connections.len() - 1) as u32
            }
        };
        Ok(ConnectionId(id))
    }

    /// Tears a connection down, releasing every hop (defragmentation
    /// runs automatically inside each table). Returns `false` for stale
    /// handles.
    pub fn teardown(&mut self, id: ConnectionId) -> bool {
        self.teardown_observed(id, &mut iba_obs::NullRecorder)
    }

    /// [`QosManager::teardown`] with instrumentation: records one
    /// `cac_release_total` when the handle was live.
    ///
    /// Every hop of a live connection names the sequence it holds —
    /// [`QosManager::repair_tables`] rebinds the hops a repair moved —
    /// so the release cannot fail.
    pub fn teardown_observed(&mut self, id: ConnectionId, rec: &mut dyn iba_obs::Recorder) -> bool {
        let Some(slot) = self.connections.get_mut(id.0 as usize) else {
            return false;
        };
        let Some(conn) = slot.take() else {
            return false;
        };
        self.free_ids.push(Reverse(id.0));
        self.release_all(&conn.hops, conn.weight);
        rec.cac_release();
        true
    }

    /// Releases hops the connection ledger says are held, downstream
    /// first (defragmentation runs inside each table).
    fn release_all(&mut self, hops: &[HopReservation], weight: iba_core::Weight) {
        let mut failed = 0;
        for &hop in hops.iter().rev() {
            failed += usize::from(self.tables.release_hop(hop, weight).is_err());
        }
        debug_assert!(
            iba_core::invariants::held_hops_release(failed),
            "the connection ledger and the tables disagree on {failed} of {} hops",
            hops.len()
        );
    }

    /// Deterministically corrupts every admitted table (fault
    /// injection). Each touched port's table is damaged by its own
    /// SplitMix64 stream, seeded from `seed` and the port's stable
    /// code, so the damage a table takes is a property of that table,
    /// not of the other tables in the registry. Returns the number of
    /// damage operations applied.
    pub fn corrupt_tables(&mut self, seed: u64) -> usize {
        let mut ops = 0;
        for key in self.tables.sorted_keys() {
            let stream = seed ^ CORRUPT_SEED ^ key.stable_code().wrapping_mul(KEY_SPREAD);
            let mut rng = iba_core::SplitMix64::seed_from_u64(stream);
            if let Some(t) = self.tables.get_table_mut(key) {
                ops += t.inject_corruption(&mut rng);
            }
        }
        ops
    }

    /// Repairs every admitted table and rebinds the connections the
    /// repair moved, from the manager's own connection records.
    ///
    /// 1. Each touched table runs [`HighPriorityTable::repair`] in key
    ///    order. A surviving sequence keeps its id and its exact weight
    ///    and connection count (corruption never edits them), so the
    ///    hops naming it need nothing.
    /// 2. Every live hop whose sequence the repair evicted is collected
    ///    *before* any re-admission, so a fresh sequence that reuses an
    ///    evicted id cannot make another connection's stale hop look
    ///    live.
    /// 3. In connection-id order, each stale hop is re-admitted with
    ///    the connection's own SL, VL, reserved distance and weight
    ///    through the [`recovery`] degradation ladder, and the hop is
    ///    rebound to the sequence it got. A connection with a hop the
    ///    ladder cannot place is released on every hop it still holds
    ///    and its id freed: no half-paths.
    ///
    /// The summary counts connections: `reinstalled + lost == evicted`.
    /// The repaired state still has to be pushed into a fabric with
    /// [`QosManager::apply_tables`].
    pub fn repair_tables(&mut self, rec: &mut dyn iba_obs::Recorder) -> RecoverySummary {
        let mut summary = RecoverySummary::default();
        for key in self.tables.sorted_keys() {
            if let Some(t) = self.tables.get_table_mut(key) {
                summary.tables += 1;
                summary.repaired += usize::from(recovery::repair(t, rec).is_some());
            }
        }
        let stale: Vec<(usize, Vec<usize>)> = self
            .connections
            .iter()
            .enumerate()
            .filter_map(|(id, conn)| {
                let hops: Vec<usize> = (conn.as_ref()?.hops.iter().enumerate())
                    .filter(|(_, h)| self.tables.sequence_info(h.key(), h.sequence).is_none())
                    .map(|(i, _)| i)
                    .collect();
                (!hops.is_empty()).then_some((id, hops))
            })
            .collect();
        summary.evicted = stale.len();
        for (id, hops) in stale {
            let Some(mut conn) = self.connections[id].take() else {
                continue;
            };
            let sl = conn.request.sl;
            let (vl, distance) = (self.sl_to_vl.vl(sl), self.reserved_distance(&conn.request));
            let unplaced = hops.iter().position(|&i| {
                let hop = &mut conn.hops[i];
                let placed = self
                    .tables
                    .get_table_mut(hop.key())
                    .and_then(|t| recovery::reinstall(t, sl, vl, distance, conn.weight, rec));
                match placed {
                    Some(admission) => {
                        hop.sequence = admission.sequence;
                        false
                    }
                    None => true,
                }
            });
            match unplaced {
                None => {
                    self.connections[id] = Some(conn);
                    summary.reinstalled += 1;
                }
                Some(at) => {
                    // Release what the connection still holds: every hop
                    // but the stale ones from the unplaced one on.
                    let held: Vec<HopReservation> = (conn.hops.iter().enumerate())
                        .filter(|(i, _)| !hops[at..].contains(i))
                        .map(|(_, &h)| h)
                        .collect();
                    self.release_all(&held, conn.weight);
                    self.free_ids.push(Reverse(id as u32));
                    summary.lost += 1;
                }
            }
        }
        summary
    }

    /// A live connection.
    #[must_use]
    pub fn connection(&self, id: ConnectionId) -> Option<&Connection> {
        self.connections.get(id.0 as usize)?.as_ref()
    }

    /// All live connections.
    pub fn connections(&self) -> impl Iterator<Item = (ConnectionId, &Connection)> {
        self.connections
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.as_ref().map(|c| (ConnectionId(i as u32), c)))
    }

    /// Number of live connections.
    #[must_use]
    pub fn live_connections(&self) -> usize {
        self.connections.len() - self.free_ids.len()
    }

    /// Access to the raw port tables (reports, tests).
    #[must_use]
    pub fn port_tables(&self) -> &PortTables {
        &self.tables
    }

    /// Mutable access to the raw port tables (the table-local repair
    /// control in the tests).
    #[cfg(test)]
    pub(crate) fn tables_mut(&mut self) -> &mut PortTables {
        &mut self.tables
    }

    /// The port tables, consuming the manager (the admission service's
    /// report).
    pub(crate) fn into_tables(self) -> PortTables {
        self.tables
    }

    /// The output ports a table download covers, in canonical
    /// [`PortKey`] order: every wired switch port, then every host
    /// uplink.
    pub fn output_ports(&self) -> impl Iterator<Item = PortKey> + '_ {
        let topo = &self.topo;
        let switch_ports = topo.switch_ids().flat_map(move |s| {
            (0..topo.ports_per_switch())
                .filter(move |&p| !matches!(topo.peer(s, p), PortPeer::Free))
                .map(move |p| PortKey {
                    node: NodeId::Switch(s.0),
                    port: p,
                })
        });
        let host_ports = topo.host_ids().map(|h| PortKey {
            node: NodeId::Host(h.0),
            port: 0,
        });
        switch_ports.chain(host_ports)
    }

    /// Builds the `VLArbitrationTable` configuration of one output port:
    /// its high-priority table as filled by admission (empty if never
    /// touched), plus the shared low-priority policy.
    #[must_use]
    pub fn arb_config_for(&self, key: PortKey) -> VlArbConfig {
        let mut config = VlArbConfig::low_only(Vec::new());
        self.write_config(self.tables.table(key), &mut config);
        config
    }

    /// Rewrites `config` into the configuration of a port whose
    /// high-priority table is `table` (`None`: never touched), reusing
    /// its storage.
    fn write_config(&self, table: Option<&HighPriorityTable>, config: &mut VlArbConfig) {
        let (low, limit) = (&self.low.entries, self.low.limit_of_high_priority);
        match table {
            Some(t) => config.set_from_slots(t.slots(), low, limit),
            None => {
                config.high.clear();
                config.low.clone_from(low);
                config.limit_of_high_priority = limit;
            }
        }
    }

    /// Whether `installed` is exactly what `write_config(table, _)` writes,
    /// checked without building it.
    fn is_installed(&self, table: Option<&HighPriorityTable>, installed: &VlArbConfig) -> bool {
        let (low, limit) = (&self.low.entries, self.low.limit_of_high_priority);
        match table {
            Some(t) => installed.matches_slots(t.slots(), low, limit),
            None => {
                installed.high.is_empty()
                    && installed.low == *low
                    && installed.limit_of_high_priority == limit
            }
        }
    }

    /// Pushes the current table state into every output port of a
    /// fabric (the subnet-management download step). A port whose
    /// installed table differs from the manager's is recompiled, and
    /// every port's arbitration walk restarts, which leaves each port
    /// exactly as a recompile of its table would.
    pub fn apply_tables(&self, fabric: &mut Fabric) {
        self.apply_tables_observed(fabric, &mut iba_obs::NullRecorder);
    }

    /// [`QosManager::apply_tables`] with instrumentation: every port it
    /// recompiles fires the recorder's schedule invalidate/compile hooks
    /// (`schedule_invalidate_total` / `schedule_compile_total`); a port
    /// whose table did not change fires none.
    ///
    /// Each port's [`DownloadKey`] names what the manager would install
    /// there: its table's stamp (0 for a port without a table) and the
    /// low-priority policy's. One merge of the fabric's
    /// [`Fabric::port_downloads`] with the registry's stamped keys —
    /// both dense and in canonical key order — finds the ports whose
    /// recorded key differs. Only those are compared against the table
    /// installed in the fabric — a port changed behind the manager's
    /// back (a `CorruptTable` fault, a hand-installed table) has lost
    /// its key — then recompiled if it differs, and keyed. Every walk
    /// restarts through [`Fabric::restart_all_walks`], lazily, so a
    /// port the merge skips costs one key compare.
    pub fn apply_tables_observed(&self, fabric: &mut Fabric, rec: &mut dyn iba_obs::Recorder) {
        fabric.restart_all_walks();
        for (key, table, download) in self.stale_ports(fabric.port_downloads()) {
            let unchanged = fabric
                .output_table(key.node, key.port)
                .is_some_and(|installed| self.is_installed(table, installed));
            if !unchanged {
                let edit = |config: &mut VlArbConfig| self.write_config(table, config);
                fabric.edit_output_table_recorded(key.node, key.port, edit, rec);
            }
            fabric.record_download(key.node, key.port, download);
        }
    }

    /// The ports whose recorded download key is not the one this
    /// manager would install, each with its table (`None`: no table)
    /// and that key. One merge of two dense arrays in canonical key
    /// order: the fabric's ports and the registry's stamped keys.
    fn stale_ports(
        &self,
        ports: &[PortDownload],
    ) -> Vec<(PortKey, Option<&HighPriorityTable>, DownloadKey)> {
        let stamped = self.tables.stamped_keys();
        let mut stale = Vec::new();
        let mut t = 0;
        for port in ports {
            // Most ports hold a table: the next stamped key is theirs.
            let table = loop {
                match stamped.get(t) {
                    Some(s) if s.code == port.code => break Some(t),
                    Some(s) if s.code < port.code => t += 1,
                    _ => break None,
                }
            };
            let download = DownloadKey {
                table: table.map_or(0, |p| stamped[p].stamp),
                low: self.low_stamp,
            };
            if port.key != Some(download) {
                let key = PortKey {
                    node: port.node,
                    port: port.port,
                };
                stale.push((key, table.map(|p| self.tables.table_at(p)), download));
            }
        }
        stale
    }

    /// Mean reserved bandwidth (Mbps) over (host interfaces, switch
    /// ports) — the last two rows of Table 2. Host interfaces are the
    /// host uplinks and the switch→host downlinks; switch ports are the
    /// inter-switch outputs.
    #[must_use]
    pub fn reservation_summary(&self) -> (f64, f64) {
        let mut host_keys = Vec::new();
        let mut switch_keys = Vec::new();
        for h in self.topo.host_ids() {
            host_keys.push(PortKey {
                node: NodeId::Host(h.0),
                port: 0,
            });
        }
        for s in self.topo.switch_ids() {
            for p in 0..self.topo.ports_per_switch() {
                match self.topo.peer(s, p) {
                    PortPeer::Host(_) => host_keys.push(PortKey {
                        node: NodeId::Switch(s.0),
                        port: p,
                    }),
                    PortPeer::Switch { .. } => switch_keys.push(PortKey {
                        node: NodeId::Switch(s.0),
                        port: p,
                    }),
                    PortPeer::Free => {}
                }
            }
        }
        (
            self.tables
                .mean_reservation_mbps(&host_keys, self.link_mbps),
            self.tables
                .mean_reservation_mbps(&switch_keys, self.link_mbps),
        )
    }

    /// Classifies an application-level request (deadline in cycles, mean
    /// bandwidth) into a [`ConnectionRequest`] per the paper's scheme:
    /// deadline → distance (over the worst-case hop count of the pair),
    /// then (distance, bandwidth) → SL.
    #[must_use]
    pub fn classify_request(
        &self,
        id: u32,
        src: HostId,
        dst: HostId,
        deadline_cycles: u64,
        mean_bw_mbps: f64,
        packet_bytes: u32,
    ) -> Option<ConnectionRequest> {
        let hops = self.path_ports(src, dst).len();
        let distance = iba_traffic::request::distance_for_deadline(deadline_cycles, hops)?;
        let sl = self.sl_table.classify(distance, mean_bw_mbps)?;
        // The SL's own distance (at least as strict as required) is what
        // gets reserved, so every connection of the SL is homogeneous.
        let sl_distance = self.sl_table.profile(sl)?.distance?;
        Some(ConnectionRequest {
            id,
            src,
            dst,
            sl,
            distance: sl_distance,
            mean_bw_mbps,
            packet_bytes,
        })
    }
}

/// The link capacity (Mbps) weights are computed against: 2500 per
/// byte per cycle, so 2500 for 1x, 10000 for 4x, 30000 for 12x.
fn link_mbps(config: &SimConfig) -> f64 {
    LINK_1X_MBPS * config.link_bytes_per_cycle as f64
}

/// The distance admission reserves for each SL, by SL number: the
/// SL's own, tightened to the strictest distance of any QoS SL sharing
/// its VL (`None` for an SL without a distance).
fn reserved_distances(sl_table: &SlTable, map: &SlToVlMap) -> [Option<Distance>; 16] {
    std::array::from_fn(|i| {
        let sl = iba_core::ServiceLevel::new(i as u8)?;
        let own = sl_table.profile(sl)?.distance?;
        let vl = map.vl(sl);
        let shared = sl_table.qos_profiles().filter(|p| map.vl(p.sl) == vl);
        Some(shared.filter_map(|p| p.distance).fold(own, |tightest, d| {
            if d.at_least_as_strict(tightest) {
                d
            } else {
                tightest
            }
        }))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use iba_core::{Distance, ServiceLevel, VirtualLane};
    use iba_topo::{irregular, updown, SwitchId};

    fn small_manager(seed: u64) -> QosManager {
        let topo = irregular::generate(irregular::IrregularConfig::with_switches(4, seed));
        let routing = updown::compute(&topo);
        QosManager::new(topo, routing, SlTable::paper_table1())
    }

    fn req(id: u32, src: u16, dst: u16, sl_id: u8, d: Distance, mbps: f64) -> ConnectionRequest {
        ConnectionRequest {
            id,
            src: HostId(src),
            dst: HostId(dst),
            sl: ServiceLevel::new(sl_id).unwrap(),
            distance: d,
            mean_bw_mbps: mbps,
            packet_bytes: 256,
        }
    }

    #[test]
    fn admit_and_teardown_roundtrip() {
        let mut m = small_manager(1);
        let id = m.request(&req(0, 0, 9, 2, Distance::D8, 4.0)).unwrap();
        assert_eq!(m.live_connections(), 1);
        let conn = m.connection(id).unwrap().clone();
        assert!(conn.hop_count() >= 2, "host hop + at least one switch");
        assert_eq!(
            conn.deadline,
            iba_traffic::request::deadline_with_transmission(Distance::D8, conn.hop_count(), 256)
        );
        assert!(m.teardown(id));
        assert!(!m.teardown(id), "double teardown rejected");
        assert_eq!(m.live_connections(), 0);
        // Every table is empty again.
        for (_, t) in m.port_tables().tables() {
            assert_eq!(t.reserved_weight(), 0);
        }
    }

    #[test]
    fn observed_request_records_cac_metrics() {
        let mut m = small_manager(1);
        let mut rec = iba_obs::ObsRecorder::new();
        let id = m
            .request_observed(&req(0, 0, 9, 2, Distance::D8, 4.0), &mut rec)
            .unwrap();
        assert_eq!(rec.metrics.cac_admit.lane(2).get(), 1);
        assert!(rec.metrics.alloc_probe.get() >= 1, "hops probe allocator");
        // An impossible request (more than one sequence's worth) rejects.
        let err = m
            .request_observed(&req(1, 0, 9, 2, Distance::D8, 1e9), &mut rec)
            .unwrap_err();
        assert_eq!(err, crate::RejectReason::RequestTooLarge);
        let too_large = iba_obs::RejectKind::RequestTooLarge.index();
        assert_eq!(rec.metrics.cac_reject[too_large].get(), 1);
        assert!(m.teardown_observed(id, &mut rec));
        assert_eq!(rec.metrics.cac_release.get(), 1);
    }

    #[test]
    fn path_ports_follow_routing() {
        let m = small_manager(2);
        let ports = m.path_ports(HostId(0), HostId(15));
        assert!(matches!(ports[0].node, NodeId::Host(0)));
        for p in &ports[1..] {
            assert!(matches!(p.node, NodeId::Switch(_)));
        }
        // Last port faces the destination host.
        let PortKey {
            node: NodeId::Switch(s),
            port,
        } = *ports.last().unwrap()
        else {
            panic!()
        };
        assert_eq!(
            m.topology().peer(SwitchId(s), port),
            PortPeer::Host(HostId(15))
        );
    }

    #[test]
    fn connection_ids_match_a_linear_smallest_free_scan() {
        for seed in 0..4u64 {
            let mut m = small_manager(seed);
            let mut rng = iba_core::SplitMix64::seed_from_u64(seed ^ 0x1D5);
            // The reference: which ids are live, and the smallest free
            // one found by scanning them all.
            let mut live: Vec<bool> = Vec::new();
            let (mut reused, mut stale) = (0, 0);
            for i in 0..3000u32 {
                if rng.gen_range(0u32..5) < 3 {
                    let d = *rng
                        .choose(&[Distance::D8, Distance::D32, Distance::D64])
                        .unwrap();
                    let r = req(
                        i,
                        rng.gen_range(0u16..16),
                        rng.gen_range(0u16..16),
                        rng.gen_range(0u8..10),
                        d,
                        f64::from(rng.gen_range(1u32..40)),
                    );
                    let Ok(id) = m.request(&r) else { continue };
                    let want = live.iter().position(|l| !l).unwrap_or(live.len());
                    assert_eq!(id.0 as usize, want, "seed {seed} request {i}");
                    reused += usize::from(want < live.len());
                    if want == live.len() {
                        live.push(false);
                    }
                    live[want] = true;
                } else {
                    // Live, already torn down, or never issued.
                    let id = rng.gen_range(0usize..live.len() + 3);
                    let was_live = live.get(id).copied().unwrap_or(false);
                    stale += usize::from(!was_live);
                    assert_eq!(m.teardown(ConnectionId(id as u32)), was_live, "seed {seed}");
                    if was_live {
                        live[id] = false;
                        if rng.gen_range(0u32..4) == 0 {
                            assert!(!m.teardown(ConnectionId(id as u32)), "double teardown");
                            stale += 1;
                        }
                    }
                }
                assert_eq!(m.live_connections(), live.iter().filter(|l| **l).count());
            }
            assert!(
                reused > 100 && stale > 100,
                "seed {seed}: {reused} reused, {stale} stale"
            );
        }
    }

    #[test]
    fn path_ports_match_the_routed_switch_path() {
        for seed in 0..4 {
            let m = small_manager(seed);
            for src in m.topology().host_ids() {
                for dst in m.topology().host_ids() {
                    let switches = m.routing().switch_path(m.topology(), src, dst).unwrap();
                    let mut want = vec![PortKey {
                        node: NodeId::Host(src.0),
                        port: 0,
                    }];
                    want.extend(switches.into_iter().map(|s| PortKey {
                        node: NodeId::Switch(s.0),
                        port: m.routing().port(s, dst),
                    }));
                    assert_eq!(m.path_ports(src, dst), want, "seed {seed}: {src} -> {dst}");
                }
            }
        }
    }

    #[test]
    fn capacity_cap_eventually_rejects() {
        let mut m = small_manager(3);
        // Hammer one (src, dst) pair with large requests until rejection.
        let mut admitted = 0;
        let mut rejected = false;
        for i in 0..100 {
            match m.request(&req(i, 0, 9, 9, Distance::D64, 128.0)) {
                Ok(_) => admitted += 1,
                Err(_) => {
                    rejected = true;
                    break;
                }
            }
        }
        assert!(rejected, "cap never hit");
        // 128 Mbps reserves 836/13056 of a link: at most 15 fit.
        assert!(admitted <= 15, "{admitted} admitted");
        assert!(admitted >= 10, "only {admitted} admitted");
        assert_eq!(m.live_connections(), admitted);
    }

    #[test]
    fn arb_config_reflects_reservations() {
        let mut m = small_manager(4);
        let id = m.request(&req(0, 0, 9, 0, Distance::D2, 2.0)).unwrap();
        let conn = m.connection(id).unwrap();
        let key = PortKey {
            node: conn.hops[1].node,
            port: conn.hops[1].port,
        };
        let cfg = m.arb_config_for(key);
        // 32 entries for VL0 with the connection's weight spread over
        // them.
        let vl0_entries = cfg
            .high
            .iter()
            .filter(|e| e.weight > 0 && e.vl == VirtualLane::data(0))
            .count();
        assert_eq!(vl0_entries, 32);
        assert_eq!(cfg.low.len(), 3);
        assert_eq!(cfg.limit_of_high_priority, 255);
    }

    #[test]
    fn untouched_ports_get_low_only_config() {
        let m = small_manager(5);
        let cfg = m.arb_config_for(PortKey {
            node: NodeId::Switch(0),
            port: 0,
        });
        assert!(cfg.high.is_empty());
        assert_eq!(cfg.low.len(), 3);
    }

    #[test]
    fn classify_request_end_to_end() {
        let m = small_manager(6);
        // Loose deadline, moderate bandwidth: lands in a d=64 DB SL.
        let r = m
            .classify_request(0, HostId(0), HostId(8), 64 * 16320 * 12, 16.0, 256)
            .unwrap();
        assert_eq!(r.sl.raw(), 7);
        assert_eq!(r.distance, Distance::D64);
        // Impossible deadline: None.
        assert!(m
            .classify_request(0, HostId(0), HostId(8), 100, 16.0, 256)
            .is_none());
    }

    #[test]
    fn reservation_summary_scales_with_load() {
        let mut m = small_manager(7);
        let (h0, s0) = m.reservation_summary();
        assert_eq!((h0, s0), (0.0, 0.0));
        for i in 0..20 {
            let _ = m.request(&req(
                i,
                (i % 16) as u16,
                ((i + 5) % 16) as u16,
                7,
                Distance::D64,
                16.0,
            ));
        }
        let (h1, _s1) = m.reservation_summary();
        assert!(h1 > 0.0);
    }

    /// The drain oracle: tears down every live connection, then
    /// requires every table to be empty (occupancy 0, reserved weight
    /// 0). Names the first table left holding something.
    fn drain(m: &mut QosManager) -> Result<(), String> {
        let ids: Vec<ConnectionId> = m.connections().map(|(id, _)| id).collect();
        for id in ids {
            assert!(m.teardown(id), "a live connection tears down");
        }
        match m
            .port_tables()
            .tables()
            .find(|(_, t)| t.occupancy() != 0 || t.reserved_weight() != 0)
        {
            None => Ok(()),
            Some((key, t)) => Err(format!(
                "{key:?} keeps occupancy {:#x} and weight {}",
                t.occupancy(),
                t.reserved_weight()
            )),
        }
    }

    const REPAIR_SEEDS: u64 = 200;

    /// Four rounds of admissions, teardowns of about a third of the live
    /// connections, and a `repair` pass (which gets a round seed).
    fn churn_and_repair(seed: u64, mut repair: impl FnMut(&mut QosManager, u64)) -> QosManager {
        let mut m = small_manager(seed % 5);
        let mut rng = iba_core::SplitMix64::seed_from_u64(seed ^ 0xBEEF);
        for round in 0..4u32 {
            for i in 0..12 {
                let d = match rng.next_u64() % 3 {
                    0 => Distance::D8,
                    1 => Distance::D16,
                    _ => Distance::D64,
                };
                let _ = m.request(&req(
                    round * 12 + i,
                    (rng.next_u64() % 16) as u16,
                    (rng.next_u64() % 16) as u16,
                    (rng.next_u64() % 8) as u8,
                    d,
                    f64::from(rng.gen_range(1u32..60)),
                ));
            }
            let ids: Vec<ConnectionId> = m.connections().map(|(id, _)| id).collect();
            for id in ids {
                if rng.gen_range(0u32..3) == 0 {
                    assert!(m.teardown(id), "seed {seed}: a live connection tears down");
                }
            }
            repair(&mut m, seed.wrapping_mul(4) + u64::from(round));
        }
        m
    }

    #[test]
    fn corrupt_then_repair_restores_every_table_invariant() {
        // Seeded property sweep at the manager level: after every
        // corrupt-and-repair round `check_all` (per-table consistency +
        // eset spacing) holds and every evicted connection is either
        // reinstalled or lost; after the last round the drain oracle
        // finds every table empty.
        let (mut evicted, mut reinstalled) = (0, 0);
        for seed in 0..REPAIR_SEEDS {
            let mut m = churn_and_repair(seed, |m, round_seed| {
                let ops = m.corrupt_tables(round_seed);
                let summary = m.repair_tables(&mut iba_obs::NullRecorder);
                m.port_tables()
                    .check_all()
                    .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
                if ops > 0 {
                    assert!(summary.tables > 0, "seed {seed}: no tables visited");
                }
                assert_eq!(
                    summary.reinstalled + summary.lost,
                    summary.evicted,
                    "seed {seed}: eviction accounting broken"
                );
                evicted += summary.evicted;
                reinstalled += summary.reinstalled;
            });
            drain(&mut m).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
        assert!(
            reinstalled > REPAIR_SEEDS as usize,
            "{reinstalled} of {evicted} reinstalled"
        );
    }

    #[test]
    fn table_local_repair_fails_the_drain_oracle() {
        // Negative control: repair each table on its own with
        // `repair_table`, which re-admits an evicted sequence as one
        // reservation under a fresh id and leaves the connections naming
        // the old one. The drain must catch it. In a debug build a
        // teardown trips a table or ledger `debug_assert` first; that
        // counts as a failed drain too.
        let failed = (0..REPAIR_SEEDS)
            .filter(|&seed| {
                let run = std::panic::catch_unwind(|| {
                    let mut m = churn_and_repair(seed, |m, round_seed| {
                        m.corrupt_tables(round_seed);
                        let tables = m.tables_mut();
                        for key in tables.sorted_keys() {
                            if let Some(t) = tables.get_table_mut(key) {
                                recovery::repair_table(t, &mut iba_obs::NullRecorder);
                            }
                        }
                    });
                    drain(&mut m)
                });
                !matches!(run, Ok(Ok(())))
            })
            .count() as u64;
        assert!(
            failed * 2 > REPAIR_SEEDS,
            "table-local repair drained cleanly on {} of {REPAIR_SEEDS} seeds",
            REPAIR_SEEDS - failed
        );
    }

    #[test]
    fn a_connection_the_ladder_cannot_place_is_released_on_every_hop() {
        let mut m = small_manager(1);
        let id = m.request(&req(0, 0, 9, 2, Distance::D8, 4.0)).unwrap();
        let kept = m.request(&req(1, 3, 12, 4, Distance::D32, 8.0)).unwrap();
        let conn = m.connection(id).unwrap().clone();
        // Drop one hop's sequence behind the ledger's back and leave its
        // table no room to take the connection again.
        let hop = conn.hops[1];
        let tables = m.tables_mut();
        tables.release_hop(hop, conn.weight).unwrap();
        let t = tables.get_table_mut(hop.key()).unwrap();
        t.set_capacity_limit(t.reserved_weight());
        let summary = m.repair_tables(&mut iba_obs::NullRecorder);
        assert_eq!(
            (summary.evicted, summary.reinstalled, summary.lost),
            (1, 0, 1)
        );
        assert!(m.connection(id).is_none(), "a lost connection frees its id");
        assert!(!m.teardown(id));
        assert!(m.connection(kept).is_some());
        assert_eq!(m.live_connections(), 1);
        drain(&mut m).unwrap();
    }

    /// Hops of live connections whose sequence is looser than the
    /// distance the connection reserved: `(connection, hop)`.
    fn looser_hops(m: &QosManager) -> Vec<(ConnectionId, usize)> {
        m.connections()
            .flat_map(|(id, c)| {
                let reserved = m.reserved_distance(&c.request);
                c.hops.iter().enumerate().filter_map(move |(i, h)| {
                    let info = m.tables.sequence_info(h.key(), h.sequence)?;
                    (!info.eset.distance().at_least_as_strict(reserved)).then_some((id, i))
                })
            })
            .collect()
    }

    #[test]
    fn the_serve_repair_drill_reaches_the_degradation_ladder() {
        use crate::service::{apply_trace_sequential, generate_trace, TraceConfig, TraceOp};
        // The trace of `ibaqos serve --switches 4 --seed 42 --requests 500`.
        let hosts = small_manager(42).topology().num_hosts() as u16;
        let ops = generate_trace(&TraceConfig::new(hosts, 42, 500));
        // Replay up to the first repair that degrades a re-install.
        let (mut m, at) = (0..ops.len())
            .filter(|&at| matches!(ops[at], TraceOp::Repair { .. }))
            .find_map(|at| {
                let mut m = small_manager(42);
                let mut rec = iba_obs::ObsRecorder::new();
                apply_trace_sequential(&mut m, &ops[..=at], &mut rec);
                let degraded = rec.metrics.recovery_degraded.get();
                assert!(degraded <= 1, "op {at}: {degraded} degraded");
                (degraded == 1).then_some((m, at))
            })
            .expect("a repair drill on this trace degrades a re-install");
        let looser = looser_hops(&m);
        assert_eq!(looser.len(), 1, "op {at}: {looser:?}");

        // Control: without the ladder that hop is lost. Give its slots
        // back and re-admit it at the contracted distance alone.
        let (id, i) = looser[0];
        let conn = m.connection(id).unwrap().clone();
        let (hop, sl) = (conn.hops[i], conn.request.sl);
        let contracted = m.reserved_distance(&conn.request);
        m.tables.release_hop(hop, conn.weight).unwrap();
        let table = m.tables.get_table_mut(hop.key()).unwrap();
        assert_eq!(
            table.admit(sl, m.sl_to_vl.vl(sl), contracted, conn.weight),
            Err(iba_core::TableError::NoFreeSequence),
            "op {at}: hop {hop:?} fits at its contracted {contracted}"
        );
    }
}
