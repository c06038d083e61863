//! The fabric: nodes, links, and the deterministic event loop.

use crate::buffer::{Credits, HostLanes, PacketPool, RunArena};
use crate::config::SimConfig;
use crate::event::{Event, EventQueue};
use crate::fault::{corrupt_config, encode_target, FaultAction, FaultPlan, FaultState};
use crate::invariants;
use crate::packet::{FlowSpec, Packet};
use crate::port::{InFlight, InputPort, OutputPort, Peer, PortStats};
use crate::time::{cycles_for_bytes, Cycles};
use crate::trace::{DeliveryRecord, Observer};
use iba_core::{ArbEntry, CompiledVlArb, ServedBy, VirtualLane, VlArbConfig};
use iba_obs::{NullRecorder, Recorder, ServedKind};
use iba_topo::{HostId, PortPeer, RoutingTable, SwitchId, Topology};

/// A node of the fabric.
///
/// The derived `Ord` (switches before hosts, then index) is the
/// fabric-wide canonical node order; `BTreeMap<PortKey, _>` registries
/// and report sorting rely on it staying aligned with the variant
/// declaration order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum NodeId {
    /// A switch.
    Switch(u16),
    /// A host channel adapter.
    Host(u16),
}

impl NodeId {
    /// A code of output port `port` of this node that orders as the
    /// `(node, port)` pair does: switches before hosts, then node
    /// index, then port.
    #[must_use]
    pub fn port_code(self, port: u8) -> u64 {
        let (tag, idx) = match self {
            NodeId::Switch(i) => (0u64, u64::from(i)),
            NodeId::Host(i) => (1u64, u64::from(i)),
        };
        (tag << 32) | (idx << 8) | u64::from(port)
    }

    fn encode(self) -> u32 {
        match self {
            NodeId::Switch(s) => u32::from(s),
            NodeId::Host(h) => 0x8000_0000 | u32::from(h),
        }
    }

    fn decode(v: u32) -> Self {
        if v & 0x8000_0000 != 0 {
            NodeId::Host((v & 0x7FFF_FFFF) as u16)
        } else {
            NodeId::Switch(v as u16)
        }
    }
}

struct SwitchNode {
    inputs: Vec<InputPort>,
    outputs: Vec<OutputPort>,
    /// Routed-head index, the crossbar's request matrix:
    /// `routed[out * n + q]` has bit `v` set iff lane `v` of input `q`
    /// holds a head packet routed to output `out` (`n` = port count).
    routed: Vec<u16>,
    /// `routed_inputs[out]` has bit `q` set iff `routed[out * n + q]`
    /// is non-zero: the inputs an output's candidate scan visits.
    routed_inputs: Vec<u64>,
    /// Bit `q` set iff the crossbar is draining input `q`.
    busy_in: u64,
    /// Bit `out` set iff output `out` cannot start a transfer: it is
    /// mid-transfer, unwired or down.
    closed_out: u64,
}

impl SwitchNode {
    /// Indexes the new head packet of lane `vl` at input `q`, routed to
    /// output `out`, and marks input `q` for that output's next pass.
    #[inline]
    fn index_head(&mut self, q: usize, vl: usize, out: usize) {
        let n = self.inputs.len();
        self.routed[out * n + q] |= 1 << vl;
        self.routed_inputs[out] |= 1 << q;
        self.outputs[out].dirty_inputs |= 1 << q;
    }

    /// Drops the head packet of lane `vl` at input `q`, routed to
    /// output `out`, from the index.
    #[inline]
    fn unindex_head(&mut self, q: usize, vl: usize, out: usize) {
        let n = self.inputs.len();
        let cell = &mut self.routed[out * n + q];
        *cell &= !(1 << vl);
        if *cell == 0 {
            self.routed_inputs[out] &= !(1 << q);
        }
    }

    /// Recomputes bit `out` of `closed_out` from the port's state.
    #[inline]
    fn refresh_closed(&mut self, out: usize) {
        let o = &self.outputs[out];
        if o.busy() || o.peer == Peer::None || o.fault.down {
            self.closed_out |= 1 << out;
        } else {
            self.closed_out &= !(1 << out);
        }
    }
}

/// The candidate head packet per VL of one arbitration pass, in
/// struct-of-arrays form: bit `v` of `mask` set iff VL `v` has a
/// candidate, with its source input (switch outputs only) and size in
/// the parallel arrays.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
struct Candidates {
    mask: u16,
    src: [u8; 16],
    bytes: [u64; 16],
}

struct HostNode {
    out: OutputPort,
    /// Per-VL injection lanes of runs of a flow, in the fabric's shared
    /// run arena. The packets themselves are rebuilt at grant time from
    /// their flow's cursor.
    lanes: HostLanes,
    injected_bytes: u64,
    injected_packets: u64,
    delivered_bytes: u64,
    delivered_packets: u64,
}

struct FlowState {
    spec: FlowSpec,
    /// Sequence number of the next packet the source generates.
    next_seq: u64,
    /// Sequence number and creation time of the flow's oldest packet
    /// still in its host lane: the next one the lane grants. Each grant
    /// advances them by one packet and by the gap that scheduled the
    /// packet's successor.
    queued_seq: u64,
    queued_created: Cycles,
}

/// Aggregate measurements over the current statistics window.
#[derive(Clone, Copy, Debug, Default)]
pub struct FabricStats {
    /// Window length in cycles.
    pub window: Cycles,
    /// Bytes generated at all sources during the window.
    pub injected_bytes: u64,
    /// Packets generated.
    pub injected_packets: u64,
    /// Bytes delivered to all destinations.
    pub delivered_bytes: u64,
    /// Packets delivered.
    pub delivered_packets: u64,
    /// Mean utilisation (%) over host links (both directions).
    pub host_link_utilization: f64,
    /// Mean utilisation (%) over switch-to-switch links.
    pub switch_link_utilization: f64,
    /// Mean utilisation (%) over host links counting only
    /// high-priority-table (QoS) bytes — the paper's Table 2 accounting,
    /// whose reachable maximum is the QoS reservation cap.
    pub host_link_qos_utilization: f64,
    /// Mean QoS-only utilisation (%) over switch-to-switch links.
    pub switch_link_qos_utilization: f64,
}

impl FabricStats {
    /// Injected traffic in bytes/cycle/node, the unit of the paper's
    /// Table 2.
    #[must_use]
    pub fn injected_per_node(&self, hosts: usize) -> f64 {
        if self.window == 0 || hosts == 0 {
            return 0.0;
        }
        self.injected_bytes as f64 / self.window as f64 / hosts as f64
    }

    /// Delivered traffic in bytes/cycle/node.
    #[must_use]
    pub fn delivered_per_node(&self, hosts: usize) -> f64 {
        if self.window == 0 || hosts == 0 {
            return 0.0;
        }
        self.delivered_bytes as f64 / self.window as f64 / hosts as f64
    }
}

/// What a table download installed on one output port, as opaque
/// content stamps chosen by the subnet manager: equal keys mean equal
/// installed tables. The fabric only stores a port's key and forgets
/// it whenever anything else writes that port's table.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DownloadKey {
    /// Stamp of the port's high-priority table (the manager's choice
    /// for a port without one).
    pub table: u64,
    /// Stamp of the low-priority part of the table.
    pub low: u64,
}

/// One wired output port and the key of the download that installed
/// its table (`None` if no download did, or if anything wrote the
/// table since).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PortDownload {
    /// The port's node.
    pub node: NodeId,
    /// The port's number on that node.
    pub port: u8,
    /// [`NodeId::port_code`] of the port: the order of
    /// [`Fabric::port_downloads`].
    pub code: u64,
    /// See [`Fabric::download_key`].
    pub key: Option<DownloadKey>,
}

/// The simulator: a fabric of switches and hosts driven by a
/// deterministic event loop.
pub struct Fabric {
    topo: Topology,
    routing: RoutingTable,
    config: SimConfig,
    switches: Vec<SwitchNode>,
    hosts: Vec<HostNode>,
    flows: Vec<FlowState>,
    /// Backing storage for every packet buffered at a switch input.
    pool: PacketPool,
    /// Backing storage for the runs of every host lane.
    runs: RunArena,
    queue: EventQueue,
    /// Registered fault actions, addressed by [`Event::Fault`] index.
    faults: Vec<FaultAction>,
    now: Cycles,
    window_start: Cycles,
    events_processed: u64,
    /// Arbitration schedules compiled so far (initial port setup plus
    /// one per table change).
    schedule_compiles: u64,
    /// Compiled schedules invalidated by a table change (admit,
    /// teardown, repair, fault corruption — every mutation path).
    schedule_invalidations: u64,
    /// Every wired output port in canonical order (switch ports by
    /// switch, then port; then one per host) with its download key.
    /// Kept beside, not inside, the hot [`OutputPort`], so a download
    /// compares keys in one dense pass.
    downloads: Vec<PortDownload>,
    /// Position in `downloads` of every output port (switch ports
    /// first, `s * ports + p`, then one per host); `u32::MAX` for an
    /// unwired port.
    download_slot: Vec<u32>,
    /// Bumped by every download ([`Fabric::restart_all_walks`]); a port
    /// whose `walk_epoch` differs restarts its walk before its next
    /// grant.
    download_epoch: u64,
}

impl Fabric {
    /// Builds an idle fabric over `topo` with `routing` tables and the
    /// given configuration. All arbitration tables start as a plain
    /// round-robin over the data VLs in the low-priority table;
    /// experiments overwrite them via [`Fabric::set_output_table`].
    #[must_use]
    pub fn new(topo: Topology, routing: RoutingTable, config: SimConfig) -> Self {
        let cap = config.vl_buffer_bytes();
        // Compile the default schedule once and clone it onto every
        // port: a clone is a flat copy of the compiled arrays, far
        // cheaper than validating and compiling per port.
        let proto = CompiledVlArb::new(Self::default_arb_config());

        let n = topo.ports_per_switch() as usize;
        assert!(
            n <= 64,
            "the routed-head index holds at most 64 ports per switch, got {n}"
        );
        let switches: Vec<SwitchNode> = topo
            .switch_ids()
            .map(|s| {
                let inputs = (0..n).map(|_| InputPort::new(cap)).collect();
                let outputs = (0..n)
                    .map(|p| {
                        let peer = match topo.peer(s, p as u8) {
                            PortPeer::Switch { switch, port } => Peer::SwitchIn {
                                switch: switch.0,
                                port,
                            },
                            PortPeer::Host(h) => Peer::Host(h.0),
                            PortPeer::Free => Peer::None,
                        };
                        OutputPort::new(proto.clone(), Credits::full(cap), peer)
                    })
                    .collect();
                let mut node = SwitchNode {
                    inputs,
                    outputs,
                    routed: vec![0; n * n],
                    routed_inputs: vec![0; n],
                    busy_in: 0,
                    closed_out: 0,
                };
                for p in 0..n {
                    node.refresh_closed(p);
                }
                node
            })
            .collect();

        let hosts: Vec<HostNode> = topo
            .host_ids()
            .map(|h| {
                let att = topo.host(h);
                HostNode {
                    out: OutputPort::new(
                        proto.clone(),
                        Credits::full(cap),
                        Peer::SwitchIn {
                            switch: att.switch.0,
                            port: att.port,
                        },
                    ),
                    lanes: HostLanes::new(),
                    injected_bytes: 0,
                    injected_packets: 0,
                    delivered_bytes: 0,
                    delivered_packets: 0,
                }
            })
            .collect();

        let ports = switches.len() * n + hosts.len();
        let wired = switches.iter().enumerate().flat_map(|(s, node)| {
            (node.outputs.iter().enumerate())
                .filter(|(_, out)| out.peer != Peer::None)
                .map(move |(p, _)| (NodeId::Switch(s as u16), p as u8, s * n + p))
        });
        let host_ports =
            (0..hosts.len()).map(|h| (NodeId::Host(h as u16), 0, switches.len() * n + h));
        let mut download_slot = vec![u32::MAX; ports];
        let downloads = wired
            .chain(host_ports)
            .enumerate()
            .map(|(i, (node, port, slot))| {
                download_slot[slot] = i as u32;
                PortDownload {
                    node,
                    port,
                    code: node.port_code(port),
                    key: None,
                }
            })
            .collect();

        Fabric {
            topo,
            routing,
            config,
            switches,
            hosts,
            flows: Vec::new(),
            pool: PacketPool::new(),
            runs: RunArena::new(),
            queue: EventQueue::new(),
            faults: Vec::new(),
            now: 0,
            window_start: 0,
            events_processed: 0,
            schedule_compiles: ports as u64,
            schedule_invalidations: 0,
            downloads,
            download_slot,
            download_epoch: 0,
        }
    }

    /// The fallback arbitration table: every data VL in the low-priority
    /// table with maximum weight (plain round-robin, no QoS).
    #[must_use]
    pub fn default_arb_config() -> VlArbConfig {
        VlArbConfig::low_only(
            VirtualLane::all_data()
                .map(|vl| ArbEntry { vl, weight: 255 })
                .collect(),
        )
    }

    /// Current simulation time.
    #[must_use]
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// The topology being simulated.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The routing tables in use.
    #[must_use]
    pub fn routing(&self) -> &RoutingTable {
        &self.routing
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Events processed so far (performance metric).
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Installs an arbitration table on one output port.
    ///
    /// This always invalidates the port's compiled grant schedule and
    /// compiles the new table (every mutation path — admit, teardown,
    /// repair, fault corruption — funnels through here or through the
    /// fault handler's corruption arm), and forgets the port's
    /// [`Fabric::download_key`]. The subnet manager's download calls it
    /// only for ports whose table changed and restarts every walk with
    /// [`Fabric::restart_all_walks`].
    pub fn set_output_table(&mut self, node: NodeId, port: u8, cfg: VlArbConfig) {
        self.set_output_table_recorded(node, port, cfg, &mut NullRecorder);
    }

    /// [`Fabric::set_output_table`] with instrumentation: fires the
    /// recorder's `schedule_invalidated` / `schedule_compiled` hooks so
    /// the `schedule_invalidate_total` / `schedule_compile_total`
    /// metrics attribute recompiles to the QoS mutation that caused
    /// them.
    pub fn set_output_table_recorded(
        &mut self,
        node: NodeId,
        port: u8,
        cfg: VlArbConfig,
        rec: &mut dyn Recorder,
    ) {
        self.recompile_output(node, port, rec, |arb| arb.reconfigure(cfg));
    }

    /// [`Fabric::set_output_table_recorded`] for the table `edit` makes
    /// of the installed one, edited in place where the port's schedule
    /// is its own (see `CompiledVlArb::reconfigure_with`): a download
    /// rewrites a table without building a new one.
    pub fn edit_output_table_recorded(
        &mut self,
        node: NodeId,
        port: u8,
        edit: impl FnOnce(&mut VlArbConfig),
        rec: &mut dyn Recorder,
    ) {
        self.recompile_output(node, port, rec, |arb| arb.reconfigure_with(edit));
    }

    /// Recompiles one output port's schedule through `recompile`, with
    /// the accounting every table change shares.
    fn recompile_output(
        &mut self,
        node: NodeId,
        port: u8,
        rec: &mut dyn Recorder,
        recompile: impl FnOnce(&mut CompiledVlArb),
    ) {
        match node {
            NodeId::Switch(s) => {
                recompile(&mut self.switches[s as usize].outputs[port as usize].arb)
            }
            NodeId::Host(h) => {
                assert_eq!(port, 0, "hosts have a single port");
                recompile(&mut self.hosts[h as usize].out.arb);
            }
        }
        self.schedule_invalidations += 1;
        self.schedule_compiles += 1;
        rec.schedule_invalidated();
        rec.schedule_compiled();
        self.forget_download(node, port);
    }

    /// Where one output port's [`DownloadKey`] lives in `downloads`
    /// (`None` for an unwired port or an invalid target).
    fn port_index(&self, node: NodeId, port: u8) -> Option<usize> {
        let n = usize::from(self.topo.ports_per_switch());
        let slot = match node {
            NodeId::Switch(s) => {
                let (s, port) = (usize::from(s), usize::from(port));
                (s < self.switches.len() && port < n).then_some(s * n + port)
            }
            NodeId::Host(h) => {
                let h = usize::from(h);
                (port == 0 && h < self.hosts.len()).then_some(self.switches.len() * n + h)
            }
        }?;
        let i = self.download_slot[slot];
        (i != u32::MAX).then_some(i as usize)
    }

    /// The key recorded by the download that installed this port's
    /// table: `None` if no download did, or if anything wrote the
    /// table since — [`Fabric::set_output_table`],
    /// [`Fabric::set_uniform_tables`] or a
    /// [`FaultAction::CorruptTable`] fault.
    #[must_use]
    pub fn download_key(&self, node: NodeId, port: u8) -> Option<DownloadKey> {
        self.downloads[self.port_index(node, port)?].key
    }

    /// Every wired output port with its [`Fabric::download_key`], in
    /// canonical order: switch ports by switch, then port; then every
    /// host uplink. A download compares these keys in one pass.
    #[must_use]
    pub fn port_downloads(&self) -> &[PortDownload] {
        &self.downloads
    }

    /// Records that a download made this port's installed table the
    /// one `key` names. Only the download that just installed (or
    /// found) that table may call this: a key left on a table it does
    /// not name makes the next download skip a stale port. Does
    /// nothing for an unwired port or an invalid target.
    pub fn record_download(&mut self, node: NodeId, port: u8, key: DownloadKey) {
        if let Some(i) = self.port_index(node, port) {
            self.downloads[i].key = Some(key);
        }
    }

    /// Forgets one port's download key: something other than a
    /// download wrote its table.
    fn forget_download(&mut self, node: NodeId, port: u8) {
        if let Some(i) = self.port_index(node, port) {
            self.downloads[i].key = None;
        }
    }

    /// The arbitration table installed on one output port (`None` for
    /// an invalid target).
    #[must_use]
    pub fn output_table(&self, node: NodeId, port: u8) -> Option<&VlArbConfig> {
        self.output_port(node, port).map(|o| o.arb.config())
    }

    /// Restarts one output port's arbitration walk on the table it
    /// already holds, without recompiling: the port then arbitrates
    /// exactly as after a [`Fabric::set_output_table`] of that same
    /// table, but no schedule is invalidated or compiled. Does nothing
    /// for an invalid target. The eager form of
    /// [`Fabric::restart_all_walks`] for one port.
    pub fn restart_output_walk(&mut self, node: NodeId, port: u8) {
        if let Some(out) = self.output_port_mut(node, port) {
            out.arb.reset();
        }
    }

    /// Restarts every output port's arbitration walk, as
    /// [`Fabric::restart_output_walk`] on each would, in O(1): the
    /// download epoch moves on, and each port resets its walk before
    /// its next grant. Nothing observes a walk before that grant, so
    /// every grant is the one the eager restarts would give. The table
    /// download calls this once.
    pub fn restart_all_walks(&mut self) {
        self.download_epoch += 1;
    }

    /// Installs the same arbitration table on every output port of
    /// every switch and host (each port's schedule is invalidated and
    /// recompiled, and its download key forgotten).
    pub fn set_uniform_tables(&mut self, cfg: &VlArbConfig) {
        // One compile, then flat clones: every port gets an identical
        // freshly-reset schedule, exactly as if each had recompiled.
        let proto = CompiledVlArb::new(cfg.clone());
        for s in 0..self.switches.len() {
            for p in 0..self.switches[s].outputs.len() {
                self.switches[s].outputs[p].arb = proto.clone();
                self.schedule_invalidations += 1;
                self.schedule_compiles += 1;
            }
        }
        for h in 0..self.hosts.len() {
            self.hosts[h].out.arb = proto.clone();
            self.schedule_invalidations += 1;
            self.schedule_compiles += 1;
        }
        for d in &mut self.downloads {
            d.key = None;
        }
    }

    /// Arbitration schedules compiled so far: one per output port at
    /// construction, plus one per table change since.
    #[must_use]
    pub fn schedule_compiles(&self) -> u64 {
        self.schedule_compiles
    }

    /// Compiled schedules invalidated by table changes (admit,
    /// teardown, repair, fault corruption).
    #[must_use]
    pub fn schedule_invalidations(&self) -> u64 {
        self.schedule_invalidations
    }

    /// Schedules one fault action on the event calendar at time `at`.
    ///
    /// The action travels through the same `(time, seq)`-ordered queue
    /// as every other event, so faulted runs stay deterministic.
    pub fn schedule_fault(&mut self, at: Cycles, action: FaultAction) {
        let index = self.faults.len() as u32;
        self.faults.push(action);
        self.queue.push(at.max(self.now), Event::Fault { index });
    }

    /// Schedules every action of a [`FaultPlan`].
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan) {
        for &(at, action) in &plan.events {
            self.schedule_fault(at, action);
        }
    }

    /// Current fault state of an output port (`None` for an invalid
    /// target).
    #[must_use]
    pub fn fault_state(&self, node: NodeId, port: u8) -> Option<FaultState> {
        self.output_port(node, port).map(|o| o.fault)
    }

    fn output_port(&self, node: NodeId, port: u8) -> Option<&OutputPort> {
        match node {
            NodeId::Switch(s) => self.switches.get(s as usize)?.outputs.get(port as usize),
            NodeId::Host(h) => {
                if port != 0 {
                    return None;
                }
                self.hosts.get(h as usize).map(|h| &h.out)
            }
        }
    }

    fn output_port_mut(&mut self, node: NodeId, port: u8) -> Option<&mut OutputPort> {
        match node {
            NodeId::Switch(s) => self
                .switches
                .get_mut(s as usize)?
                .outputs
                .get_mut(port as usize),
            NodeId::Host(h) => {
                if port != 0 {
                    return None;
                }
                self.hosts.get_mut(h as usize).map(|h| &mut h.out)
            }
        }
    }

    /// Registers a flow and schedules its first packet.
    pub fn add_flow(&mut self, spec: FlowSpec) {
        assert!(
            spec.src.index() < self.hosts.len() && spec.dst.index() < self.hosts.len(),
            "flow endpoints must exist"
        );
        let flow = self.flows.len() as u32;
        let start = spec.start.max(self.now);
        self.flows.push(FlowState {
            spec,
            next_seq: 0,
            queued_seq: 0,
            queued_created: start,
        });
        self.queue.push(start, Event::Generate { flow });
    }

    /// Stops every flow with the given id at time `at` (no packets are
    /// generated after `at`; packets already queued still drain).
    /// Returns how many flow registrations matched.
    pub fn stop_flow(&mut self, id: u32, at: Cycles) -> usize {
        let mut n = 0;
        for f in &mut self.flows {
            if f.spec.id == id {
                let stop = f.spec.stop.map_or(at, |s| s.min(at));
                f.spec.stop = Some(stop);
                n += 1;
            }
        }
        n
    }

    /// Zeroes all counters and starts a new measurement window at the
    /// current time (call after the warm-up/transient period).
    pub fn reset_stats(&mut self) {
        self.window_start = self.now;
        for s in &mut self.switches {
            for o in &mut s.outputs {
                o.stats = PortStats::default();
            }
        }
        for h in &mut self.hosts {
            h.out.stats = PortStats::default();
            h.injected_bytes = 0;
            h.injected_packets = 0;
            h.delivered_bytes = 0;
            h.delivered_packets = 0;
        }
    }

    /// Runs the event loop until `t_end` (inclusive).
    pub fn run_until(&mut self, t_end: Cycles, observer: &mut impl Observer) {
        self.run_until_recorded(t_end, observer, &mut NullRecorder);
    }

    /// [`Fabric::run_until`] with instrumentation: arbitration grants,
    /// weight exhaustions, head-of-line stalls and queue depths are
    /// recorded into `rec` (see `METRICS.md` for the metric names).
    ///
    /// The recorder is a generic parameter, not a trait object: with
    /// [`NullRecorder`] every hook monomorphizes to nothing, keeping the
    /// plain [`Fabric::run_until`] on the uninstrumented fast path.
    pub fn run_until_recorded<R: Recorder>(
        &mut self,
        t_end: Cycles,
        observer: &mut impl Observer,
        rec: &mut R,
    ) {
        rec.span_begin("sim.run_until");
        while let Some((t, event)) = self.queue.pop_at_most(t_end) {
            debug_assert!(
                invariants::time_monotone(self.now, t),
                "time went backwards: now={} event={t}",
                self.now
            );
            self.now = t;
            self.events_processed += 1;
            rec.tick(t);
            rec.sim_event(self.queue.len() as u64);
            match event {
                Event::Generate { flow } => self.on_generate(flow as usize, observer, rec),
                Event::Complete { node, port } => {
                    self.on_complete(NodeId::decode(node), port, observer, rec);
                }
                Event::Fault { index } => self.on_fault(index as usize, rec),
            }
        }
        self.now = self.now.max(t_end);
        rec.span_end("sim.run_until");
    }

    /// Per-port statistics of a switch output.
    #[must_use]
    pub fn switch_port_stats(&self, switch: SwitchId, port: u8) -> PortStats {
        self.switches[switch.index()].outputs[port as usize].stats
    }

    /// Statistics of a host's uplink.
    #[must_use]
    pub fn host_port_stats(&self, host: HostId) -> PortStats {
        self.hosts[host.index()].out.stats
    }

    /// Aggregate measurements over the current window.
    #[must_use]
    pub fn summarize(&self) -> FabricStats {
        let window = self.now - self.window_start;
        let mut st = FabricStats {
            window,
            ..Default::default()
        };
        for h in &self.hosts {
            st.injected_bytes += h.injected_bytes;
            st.injected_packets += h.injected_packets;
            st.delivered_bytes += h.delivered_bytes;
            st.delivered_packets += h.delivered_packets;
        }
        let bpc = self.config.link_bytes_per_cycle;
        let qos_util = |s: &PortStats| {
            if window == 0 {
                0.0
            } else {
                100.0 * s.high_bytes as f64 / (window as f64 * bpc as f64)
            }
        };
        // Host links: host uplinks plus switch->host downlinks.
        let mut host_util = Vec::new();
        let mut host_qos = Vec::new();
        for h in &self.hosts {
            host_util.push(h.out.stats.utilization(window, bpc));
            host_qos.push(qos_util(&h.out.stats));
        }
        let mut switch_util = Vec::new();
        let mut switch_qos = Vec::new();
        for s in &self.switches {
            for o in &s.outputs {
                match o.peer {
                    Peer::Host(_) => {
                        host_util.push(o.stats.utilization(window, bpc));
                        host_qos.push(qos_util(&o.stats));
                    }
                    Peer::SwitchIn { .. } => {
                        switch_util.push(o.stats.utilization(window, bpc));
                        switch_qos.push(qos_util(&o.stats));
                    }
                    Peer::None => {}
                }
            }
        }
        let mean = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        st.host_link_utilization = mean(&host_util);
        st.switch_link_utilization = mean(&switch_util);
        st.host_link_qos_utilization = mean(&host_qos);
        st.switch_link_qos_utilization = mean(&switch_qos);
        st
    }

    /// Total bytes generated at one host and not yet granted its uplink
    /// (the host lanes hold them as runs, outside the packet pool).
    #[must_use]
    pub fn host_backlog(&self, host: HostId) -> u64 {
        self.hosts[host.index()].lanes.total_used()
    }

    /// Packets currently buffered at switch inputs (pool occupancy) and
    /// the pool's high-water slot count. Host backlogs are not in the
    /// pool: see [`Fabric::host_backlog`].
    #[must_use]
    pub fn pool_usage(&self) -> (usize, usize) {
        (self.pool.in_use(), self.pool.capacity())
    }

    // ------------------------------------------------------------------
    // Event handlers
    // ------------------------------------------------------------------

    fn on_generate<R: Recorder>(&mut self, flow: usize, observer: &mut impl Observer, rec: &mut R) {
        let f = &mut self.flows[flow];
        if f.spec.stop.is_some_and(|s| self.now > s) {
            return;
        }
        // Wire size: payload plus the configured header overhead.
        let bytes = f.spec.packet_bytes + self.config.header_bytes;
        let gap = f.spec.arrival.gap(f.next_seq);
        f.next_seq += 1;
        let stopped = f.spec.stop.is_some_and(|s| self.now + gap > s);
        let src = f.spec.src;
        let vl = self.config.sl_to_vl.vl(f.spec.sl).index();
        observer.on_generated(f.spec.id, bytes, self.now);
        {
            let Fabric { hosts, runs, .. } = self;
            let h = &mut hosts[src.index()];
            h.injected_bytes += u64::from(bytes);
            h.injected_packets += 1;
            h.lanes.push(runs, vl, flow as u32, bytes);
            h.out.dirty_lanes |= 1 << vl;
        }
        if !stopped {
            self.queue
                .push(self.now + gap, Event::Generate { flow: flow as u32 });
        }
        self.kick(NodeId::Host(src.0), 0, rec);
    }

    fn on_complete<R: Recorder>(
        &mut self,
        node: NodeId,
        port: u8,
        observer: &mut impl Observer,
        rec: &mut R,
    ) {
        let (inflight, peer) = match node {
            NodeId::Switch(s) => {
                let sw = &mut self.switches[s as usize];
                let out = &mut sw.outputs[port as usize];
                let taken = (out.inflight.take(), out.peer);
                sw.refresh_closed(port as usize);
                taken
            }
            NodeId::Host(h) => {
                let out = &mut self.hosts[h as usize].out;
                (out.inflight.take(), out.peer)
            }
        };
        assert!(
            inflight.is_some(),
            "complete event without an in-flight transfer"
        );
        let Some(inflight) = inflight else { return };

        // Free the crossbar input the packet came from. Every output
        // whose previous pass saw it busy now counts it as dirty.
        if let (NodeId::Switch(s), Some(q)) = (node, inflight.src_input) {
            self.switches[s as usize].busy_in &= !(1 << q);
        }

        // Hand the packet to the link's far end.
        match peer {
            Peer::Host(h) => {
                let p = &inflight.packet;
                observer.on_delivered(&DeliveryRecord {
                    flow: p.flow,
                    seq: p.seq,
                    src: p.src,
                    dst: p.dst,
                    sl: p.sl,
                    bytes: p.bytes,
                    created: p.created,
                    delivered: self.now,
                });
                let host = &mut self.hosts[h as usize];
                host.delivered_bytes += u64::from(p.bytes);
                host.delivered_packets += 1;
                // Hosts consume instantly: return the buffer credit.
                match node {
                    NodeId::Switch(s) => self.switches[s as usize].outputs[port as usize]
                        .restore_credit(inflight.vl as usize, u64::from(p.bytes)),
                    NodeId::Host(h2) => self.hosts[h2 as usize]
                        .out
                        .restore_credit(inflight.vl as usize, u64::from(p.bytes)),
                }
            }
            Peer::SwitchIn {
                switch,
                port: in_port,
            } => {
                let dst = inflight.packet.dst;
                let vl = inflight.vl as usize;
                let onward = self.routing.port(SwitchId(switch), dst);
                {
                    let Fabric { switches, pool, .. } = self;
                    let node = &mut switches[switch as usize];
                    let input = &mut node.inputs[in_port as usize];
                    input.vls.push(pool, vl, inflight.packet);
                    // A packet that became its lane's head carries the
                    // lane's cached route from here on, and enters the
                    // routed-head index (and its output's dirty set)
                    // under that route.
                    if input.vls.len(vl) == 1 {
                        input.head_route[vl] = onward;
                        node.index_head(in_port as usize, vl, onward as usize);
                    }
                }
                // The new packet may enable its onward output.
                self.kick(NodeId::Switch(switch), onward, rec);
            }
            Peer::None => unreachable!("transfer on an unwired port"),
        }

        // The link is free again.
        self.kick(node, port, rec);
        // A freed input may unblock transfers on other outputs — but
        // only on the outputs its remaining head packets actually route
        // to, so kick exactly those instead of scanning every port.
        if let (NodeId::Switch(s), Some(q)) = (node, inflight.src_input) {
            let mut ports_mask: u64 = 0;
            {
                let input = &self.switches[s as usize].inputs[q as usize];
                let mut pend = input.vls.occupied();
                while pend != 0 {
                    let vl = pend.trailing_zeros() as usize;
                    pend &= pend - 1;
                    ports_mask |= 1 << input.head_route[vl];
                }
            }
            ports_mask &= !(1u64 << port);
            while ports_mask != 0 {
                let p = ports_mask.trailing_zeros() as u8;
                ports_mask &= ports_mask - 1;
                self.kick(node, p, rec);
            }
        }
    }

    /// Applies a scheduled fault action to its target port.
    fn on_fault<R: Recorder>(&mut self, index: usize, rec: &mut R) {
        let Some(action) = self.faults.get(index).copied() else {
            return;
        };
        let (node, port) = action.target();
        let code = action.code();
        let mut recompiled = false;
        let detail = {
            let Some(out) = self.output_port_mut(node, port) else {
                return;
            };
            let detail = match action {
                FaultAction::DegradeLink { shift, .. } => {
                    out.fault.rate_shift = shift;
                    u32::from(shift)
                }
                FaultAction::LinkDown { .. } => {
                    out.fault.down = true;
                    0
                }
                FaultAction::LinkUp { .. } => {
                    out.fault.down = false;
                    0
                }
                FaultAction::SetVlBlackout { mask, .. } => {
                    out.fault.blackout_mask = mask;
                    u32::from(mask)
                }
                FaultAction::SetCreditStall { mask, .. } => {
                    out.fault.stall_mask = mask;
                    u32::from(mask)
                }
                FaultAction::CorruptTable { seed, .. } => {
                    let corrupted = corrupt_config(out.arb.config(), seed);
                    out.arb.reconfigure(corrupted);
                    recompiled = true;
                    (seed & 0xFFFF_FFFF) as u32
                }
            };
            // Any fault action may change which heads are eligible:
            // the port's next pass is a full one.
            out.dirty_inputs = !0;
            out.dirty_lanes = !0;
            detail
        };
        if let NodeId::Switch(s) = node {
            self.switches[s as usize].refresh_closed(port as usize);
        }
        if recompiled {
            self.schedule_invalidations += 1;
            self.schedule_compiles += 1;
            rec.schedule_invalidated();
            rec.schedule_compiled();
            // The damage is no download's table: the next one heals it.
            self.forget_download(node, port);
        }
        rec.fault_injected(code, encode_target(node, port), detail);
        // Restores (and table rewrites) can enable pending work on a
        // port no Complete event will ever revisit: kick it now.
        self.kick(node, port, rec);
    }

    // ------------------------------------------------------------------
    // Arbitration and transfer start
    // ------------------------------------------------------------------

    /// Attempts to start a transfer on an idle output port.
    fn kick<R: Recorder>(&mut self, node: NodeId, port: u8, rec: &mut R) {
        match node {
            NodeId::Switch(s) => self.kick_switch_output(s as usize, port as usize, rec),
            NodeId::Host(h) => self.kick_host_output(h as usize, rec),
        }
    }

    /// Whether input `q` holds a head packet that some *other* output
    /// could serve from its high-priority table right now (used by the
    /// priority-aware input-claiming extension).
    fn input_has_foreign_high_work(&self, s: usize, q: usize, this_port: usize) -> bool {
        let node = &self.switches[s];
        let input = &node.inputs[q];
        let mut pend = input.vls.occupied();
        while pend != 0 {
            let vl = pend.trailing_zeros() as usize;
            pend &= pend - 1;
            let o2 = input.head_route[vl] as usize;
            if o2 == this_port {
                continue;
            }
            let out2 = &node.outputs[o2];
            if out2.arb.high_stream().vl_mask() & (1 << vl) != 0
                && out2
                    .credits
                    .can_send(vl, u64::from(input.vls.head_bytes(vl)))
            {
                return true;
            }
        }
        false
    }

    /// Grants the next transfer on idle switch output `port`, if any
    /// input holds an eligible head packet for it.
    ///
    /// A pass scans only the heads in the port's dirty set (see
    /// [`Fabric::switch_candidates`]); every eligible head lies there,
    /// so the candidates and the grant are those of a full scan. The
    /// dirty inputs are the marked ones plus those freed since the
    /// previous pass: busy in the port's `busy_seen` snapshot, idle in
    /// `busy_in` now. After the pass the set shrinks to the lanes that
    /// have a candidate: the pass skipped their later heads, and any
    /// other head it examined stays ineligible until a marked state
    /// change. With `priority_input_claiming`, eligibility depends on
    /// other outputs' credits and tables, so every pass is a full one.
    fn kick_switch_output<R: Recorder>(&mut self, s: usize, port: usize, rec: &mut R) {
        // Busy, unwired and down ports exit on one bit test — most
        // kicks land on a busy port.
        if self.switches[s].closed_out & (1 << port) != 0 {
            return;
        }
        let busy_in = self.switches[s].busy_in;
        let (dirty_inputs, dirty_lanes) = if self.config.priority_input_claiming {
            (!0, !0)
        } else {
            let out = &self.switches[s].outputs[port];
            (
                out.dirty_inputs | (out.busy_seen & !busy_in),
                out.dirty_lanes,
            )
        };
        let cand = self.switch_candidates(s, port, dirty_inputs, dirty_lanes, rec);
        #[cfg(debug_assertions)]
        if dirty_inputs != !0 || dirty_lanes != !0 {
            let full = self.switch_candidates(s, port, !0, !0, &mut NullRecorder);
            assert_eq!(
                cand, full,
                "switch {s} output {port} at {}: a restricted pass (inputs {dirty_inputs:#x}, \
                 lanes {dirty_lanes:#x}) missed an eligible head",
                self.now
            );
        }
        let out = &mut self.switches[s].outputs[port];
        out.dirty_inputs = 0;
        out.dirty_lanes = cand.mask;
        out.busy_seen = busy_in;
        if cand.mask == 0 {
            return;
        }

        // VL15 bypasses arbitration entirely.
        let grant = if cand.mask & (1 << 15) != 0 {
            Some((15u8, None, false))
        } else {
            out.select(self.download_epoch, cand.mask, &cand.bytes)
                .map(|g| (g.vl.raw(), Some(g.served_by), g.exhausted))
        };
        let Some((vl, served, exhausted)) = grant else {
            return;
        };
        if exhausted {
            rec.arb_weight_exhausted(vl);
        }
        let q = cand.src[vl as usize] as usize;
        let bytes = cand.bytes[vl as usize] as u32;
        rec.arb_queue_depth(self.switches[s].inputs[q].vls.len(vl as usize) as u64);
        self.start_switch_transfer(s, port, q, vl, bytes, served, rec);
    }

    /// The candidate head per VL for switch output `port`, scanning
    /// the heads of the dirty set: every lane of the inputs in
    /// `dirty_inputs`, and the lanes in `dirty_lanes` of every input.
    ///
    /// The scan reads the switch's routed-head index: it visits only
    /// the idle inputs with a head packet routed to `port`, in
    /// round-robin order from `next_input`, and at each only the lanes
    /// so routed, ascending. A lane's candidate is its first eligible
    /// head in that order; a head outside the dirty set is not
    /// eligible, so the candidates equal a full scan's. The
    /// `fault_blocked` / `arb_hol_stall` hooks fire once per examined
    /// head.
    #[inline]
    fn switch_candidates<R: Recorder>(
        &self,
        s: usize,
        port: usize,
        dirty_inputs: u64,
        dirty_lanes: u16,
        rec: &mut R,
    ) -> Candidates {
        let mut cand = Candidates::default();
        let claiming = self.config.priority_input_claiming;
        let node = &self.switches[s];
        let out = &node.outputs[port];
        let fault = out.fault;
        let my_high = if claiming {
            out.arb.high_stream().vl_mask()
        } else {
            0
        };
        let n_in = node.inputs.len();
        let routed = &node.routed[port * n_in..(port + 1) * n_in];
        let mut inputs = node.routed_inputs[port] & !node.busy_in;
        if dirty_lanes == 0 {
            inputs &= dirty_inputs;
        }
        // Round-robin from `next_input`: the inputs at or above it
        // ascending, then the wrap below it. `next_input < n_in <= 64`,
        // so the shift is in range.
        let upper = !0u64 << out.next_input;
        for mut set in [inputs & upper, inputs & !upper] {
            while set != 0 {
                let q = set.trailing_zeros() as usize;
                set &= set - 1;
                // Dirty lanes routed here that have no candidate yet;
                // every such lane of a dirty input. The cached head size
                // answers the whole scan from port-local arrays — no
                // packet pool or routing table access here.
                let lanes = if dirty_inputs & (1 << q) != 0 {
                    !0
                } else {
                    dirty_lanes
                };
                let mut pend = routed[q] & lanes & !cand.mask;
                if pend == 0 {
                    continue;
                }
                let input = &node.inputs[q];
                // Extension: inputs with pending high-priority work for
                // other outputs are reserved for that work — this output
                // may still take its *own* high-table VLs from them, but
                // not low-priority packets.
                let protected = claiming && self.input_has_foreign_high_work(s, q, port);
                while pend != 0 {
                    let vl = pend.trailing_zeros() as usize;
                    pend &= pend - 1;
                    if protected && vl != 15 && my_high & (1 << vl) == 0 {
                        continue;
                    }
                    if fault.blackout_mask & (1 << vl) != 0 || fault.stall_mask & (1 << vl) != 0 {
                        // Injected VL blackout / credit stall: the head
                        // packet is routed here but the fault layer
                        // withholds it from the arbiter.
                        rec.fault_blocked(vl as u8);
                        continue;
                    }
                    let bytes = u64::from(input.vls.head_bytes(vl));
                    if !out.credits.can_send(vl, bytes) {
                        // Head packet routed here but blocked on
                        // downstream credit: a head-of-line stall.
                        rec.arb_hol_stall(vl as u8);
                        continue;
                    }
                    cand.mask |= 1 << vl;
                    cand.src[vl] = q as u8;
                    cand.bytes[vl] = bytes;
                }
            }
        }
        cand
    }

    #[allow(clippy::too_many_arguments)] // internal hot-path plumbing; a struct would just rename the args
    fn start_switch_transfer<R: Recorder>(
        &mut self,
        s: usize,
        port: usize,
        q: usize,
        vl: u8,
        bytes: u32,
        served: Option<ServedBy>,
        rec: &mut R,
    ) {
        let packet = {
            let Fabric { switches, pool, .. } = self;
            switches[s].inputs[q].vls.pop(pool, vl as usize)
        };
        assert!(
            packet.is_some(),
            "granted candidate vanished from input buffer"
        );
        let Some(packet) = packet else { return };
        debug_assert!(
            invariants::grant_matches_head(packet.bytes, bytes),
            "granted size {bytes} differs from head packet {}",
            packet.bytes
        );
        let node = &mut self.switches[s];
        node.busy_in |= 1 << q;
        // The popped head leaves the index; a promoted head gets the
        // lane's cached route and enters the index under it.
        node.unindex_head(q, vl as usize, port);
        if let Some(p) = node.inputs[q].vls.head(&self.pool, vl as usize) {
            let onward = self.routing.port(SwitchId(s as u16), p.dst);
            node.inputs[q].head_route[vl as usize] = onward;
            node.index_head(q, vl as usize, onward as usize);
        }

        // Return the buffer credit to whoever feeds this input port.
        let upstream = self.topo.peer(SwitchId(s as u16), q as u8);
        match upstream {
            PortPeer::Switch { switch, port: up } => {
                self.switches[switch.index()].outputs[up as usize]
                    .restore_credit(vl as usize, u64::from(bytes));
                self.kick(NodeId::Switch(switch.0), up, rec);
            }
            PortPeer::Host(h) => {
                self.hosts[h.index()]
                    .out
                    .restore_credit(vl as usize, u64::from(bytes));
                self.kick(NodeId::Host(h.0), 0, rec);
            }
            PortPeer::Free => unreachable!("packet arrived on an unwired port"),
        }

        let bpc = self.config.link_bytes_per_cycle;
        let node = &mut self.switches[s];
        node.closed_out |= 1 << port;
        let out = &mut node.outputs[port];
        // An injected rate degradation stretches the transfer.
        let duration =
            cycles_for_bytes(u64::from(bytes), bpc) << u32::from(out.fault.rate_shift.min(20));
        out.credits.consume(vl as usize, u64::from(bytes));
        // `q < ports_per_switch`, so one conditional reset wraps — no
        // modulo on the transfer path.
        let next = q as u8 + 1;
        out.next_input = if next >= self.topo.ports_per_switch() {
            0
        } else {
            next
        };
        Self::account(&mut out.stats, bytes, duration, vl, served, rec);
        out.inflight = Some(InFlight {
            packet,
            src_input: Some(q as u8),
            vl,
        });
        self.queue.push(
            self.now + duration,
            Event::Complete {
                node: NodeId::Switch(s as u16).encode(),
                port: port as u8,
            },
        );
    }

    /// Grants the next transfer on host `h`'s idle uplink, scanning only
    /// the heads of the port's dirty lanes (the switch outputs' lane
    /// set, without inputs).
    fn kick_host_output<R: Recorder>(&mut self, h: usize, rec: &mut R) {
        // Busy/down uplinks and uplinks with no changed head exit before
        // any candidate state is set up — most kicks land on a busy port.
        let dirty_lanes = {
            let host = &self.hosts[h];
            if host.out.busy() || host.out.fault.down {
                return;
            }
            host.out.dirty_lanes & host.lanes.occupied()
        };
        if dirty_lanes == 0 {
            return;
        }
        let cand = self.host_candidates(h, dirty_lanes, rec);
        #[cfg(debug_assertions)]
        {
            let full = self.host_candidates(h, !0, &mut NullRecorder);
            assert_eq!(
                cand, full,
                "host {h} at {}: a restricted pass (lanes {dirty_lanes:#x}) missed an eligible head",
                self.now
            );
        }
        let out = &mut self.hosts[h].out;
        out.dirty_lanes = cand.mask;
        if cand.mask == 0 {
            return;
        }

        let grant = if cand.mask & (1 << 15) != 0 {
            Some((15u8, cand.bytes[15] as u32, None, false))
        } else {
            out.select(self.download_epoch, cand.mask, &cand.bytes)
                .map(|g| {
                    (
                        g.vl.raw(),
                        cand.bytes[g.vl.index()] as u32,
                        Some(g.served_by),
                        g.exhausted,
                    )
                })
        };

        let Some((vl, bytes, served, exhausted)) = grant else {
            return;
        };
        if exhausted {
            rec.arb_weight_exhausted(vl);
        }
        rec.arb_queue_depth(self.hosts[h].lanes.len(vl as usize));
        let flow = {
            let Fabric { hosts, runs, .. } = self;
            hosts[h].lanes.pop(runs, vl as usize)
        };
        assert!(flow.is_some(), "granted candidate vanished from host lane");
        let Some(flow) = flow else { return };
        let f = &mut self.flows[flow as usize];
        let packet = Packet {
            flow: f.spec.id,
            seq: f.queued_seq,
            src: f.spec.src,
            dst: f.spec.dst,
            sl: f.spec.sl,
            bytes,
            created: f.queued_created,
        };
        f.queued_created += f.spec.arrival.gap(f.queued_seq);
        f.queued_seq += 1;
        let bpc = self.config.link_bytes_per_cycle;
        let out = &mut self.hosts[h].out;
        let duration =
            cycles_for_bytes(u64::from(bytes), bpc) << u32::from(out.fault.rate_shift.min(20));
        out.credits.consume(vl as usize, u64::from(bytes));
        Self::account(&mut out.stats, bytes, duration, vl, served, rec);
        out.inflight = Some(InFlight {
            packet,
            src_input: None,
            vl,
        });
        self.queue.push(
            self.now + duration,
            Event::Complete {
                node: NodeId::Host(h as u16).encode(),
                port: 0,
            },
        );
    }

    /// The candidate head per VL of host `h`'s uplink over the occupied
    /// lanes in `dirty_lanes`; the hooks fire once per examined head.
    #[inline]
    fn host_candidates<R: Recorder>(&self, h: usize, dirty_lanes: u16, rec: &mut R) -> Candidates {
        let mut cand = Candidates::default();
        let host = &self.hosts[h];
        let fault = host.out.fault;
        let mut pend = host.lanes.occupied() & dirty_lanes;
        while pend != 0 {
            let vl = pend.trailing_zeros() as usize;
            pend &= pend - 1;
            let bytes = u64::from(host.lanes.head_bytes(vl));
            if fault.blackout_mask & (1 << vl) != 0 || fault.stall_mask & (1 << vl) != 0 {
                rec.fault_blocked(vl as u8);
            } else if host.out.credits.can_send(vl, bytes) {
                cand.mask |= 1 << vl;
                cand.bytes[vl] = bytes;
            } else {
                rec.arb_hol_stall(vl as u8);
            }
        }
        cand
    }

    fn account<R: Recorder>(
        stats: &mut PortStats,
        bytes: u32,
        duration: Cycles,
        vl: u8,
        served: Option<ServedBy>,
        rec: &mut R,
    ) {
        stats.busy_cycles += duration;
        stats.bytes += u64::from(bytes);
        stats.packets += 1;
        stats.per_vl_bytes[vl as usize] += u64::from(bytes);
        let kind = match served {
            Some(ServedBy::High) => {
                stats.high_bytes += u64::from(bytes);
                ServedKind::High
            }
            Some(ServedBy::Low) => {
                stats.low_bytes += u64::from(bytes);
                ServedKind::Low
            }
            None => {
                debug_assert!(
                    invariants::unarbitrated_is_management(vl),
                    "only VL15 bypasses arbitration, got VL{vl}"
                );
                stats.vl15_bytes += u64::from(bytes);
                ServedKind::Management
            }
        };
        rec.arb_grant(vl, u64::from(bytes), kind);
    }
}

// The parallel harness moves whole fabrics (and their configs) into
// worker threads; keep that property checked at compile time.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Fabric>();
    assert_send::<SimConfig>();
    assert_send::<EventQueue>();
    assert_send::<PacketPool>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Arrival;
    use crate::trace::VecObserver;
    use iba_core::{Grant, ServiceLevel};
    use iba_topo::updown;

    fn two_host_fabric(mtu: u32) -> Fabric {
        // Two switches in a line, one host each.
        let mut t = Topology::new(2, 4);
        t.connect_switches(SwitchId(0), 1, SwitchId(1), 1);
        t.attach_host(SwitchId(0), 0);
        t.attach_host(SwitchId(1), 0);
        let r = updown::compute(&t);
        Fabric::new(t, r, SimConfig::paper_default(mtu))
    }

    fn flow(id: u32, src: u16, dst: u16, sl: u8, bytes: u32, interval: Cycles) -> FlowSpec {
        FlowSpec {
            id,
            src: HostId(src),
            dst: HostId(dst),
            sl: ServiceLevel::new(sl).unwrap(),
            packet_bytes: bytes,
            arrival: Arrival::Cbr { interval },
            start: 0,
            stop: None,
        }
    }

    #[test]
    fn single_packet_end_to_end_latency() {
        let mut f = two_host_fabric(256);
        f.add_flow(FlowSpec {
            stop: Some(0),
            ..flow(0, 0, 1, 0, 256, 1000)
        });
        let mut obs = VecObserver::default();
        f.run_until(100_000, &mut obs);
        assert_eq!(obs.records.len(), 1);
        let r = obs.records[0];
        // Three store-and-forward link crossings of 256 cycles each.
        assert_eq!(r.created, 0);
        assert_eq!(r.delivered, 3 * 256);
        assert_eq!(r.delay(), 768);
    }

    #[test]
    fn cbr_flow_delivers_all_packets_at_rate() {
        let mut f = two_host_fabric(256);
        f.add_flow(flow(7, 0, 1, 3, 256, 512)); // 50% load
        let mut obs = VecObserver::default();
        f.run_until(512 * 100, &mut obs);
        // ~100 packets generated, all but the in-flight tail delivered.
        assert!(obs.records.len() >= 98, "{} delivered", obs.records.len());
        // Deliveries are evenly spaced at the source interval.
        for w in obs.records.windows(2) {
            assert_eq!(w[1].delivered - w[0].delivered, 512);
        }
        // All carry the right flow id and SL.
        assert!(obs.records.iter().all(|r| r.flow == 7 && r.sl.raw() == 3));
    }

    #[test]
    fn saturated_link_throttles_to_capacity() {
        let mut f = two_host_fabric(256);
        // Two hosts each offering 100% toward the same destination: the
        // shared switch-switch link saturates at 1 byte/cycle.
        f.add_flow(flow(0, 0, 1, 0, 256, 256));
        let mut obs = VecObserver::default();
        f.run_until(256 * 200, &mut obs);
        f.reset_stats();
        f.run_until(256 * 1200, &mut obs);
        let st = f.summarize();
        // Delivered at full capacity: 1 byte/cycle over the link.
        let link = f.switch_port_stats(SwitchId(0), 1);
        assert!(
            link.utilization(st.window, 1) > 99.0,
            "link only {}% busy",
            link.utilization(st.window, 1)
        );
    }

    #[test]
    fn two_flows_share_by_table_weights() {
        // Hosts 0 and 1 both on switch 0... need a 3-host fabric: use a
        // single switch with 3 hosts, two senders to one receiver.
        let mut t = Topology::new(1, 4);
        t.attach_host(SwitchId(0), 0);
        t.attach_host(SwitchId(0), 1);
        t.attach_host(SwitchId(0), 2);
        let r = updown::compute(&t);
        let mut f = Fabric::new(t, r, SimConfig::paper_default(256));
        // Table on the receiver-facing output: VL1 weight 3, VL2 weight 1.
        let cfg = VlArbConfig {
            high: vec![
                ArbEntry {
                    vl: VirtualLane::data(1),
                    weight: 12,
                },
                ArbEntry {
                    vl: VirtualLane::data(2),
                    weight: 4,
                },
            ],
            low: vec![],
            limit_of_high_priority: 255,
        };
        f.set_uniform_tables(&cfg);
        // Both senders saturate their links.
        f.add_flow(flow(1, 0, 2, 1, 256, 256));
        f.add_flow(flow(2, 1, 2, 2, 256, 256));
        let mut obs = VecObserver::default();
        f.run_until(256 * 100, &mut obs); // warm-up
        obs.records.clear();
        f.run_until(256 * 1100, &mut obs);
        let f1 = obs.records.iter().filter(|r| r.flow == 1).count();
        let f2 = obs.records.iter().filter(|r| r.flow == 2).count();
        let ratio = f1 as f64 / f2 as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio {ratio} (f1={f1} f2={f2})");
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut f = two_host_fabric(256);
            f.add_flow(flow(0, 0, 1, 0, 256, 300));
            f.add_flow(flow(1, 1, 0, 1, 256, 700));
            let mut obs = VecObserver::default();
            f.run_until(1_000_000, &mut obs);
            obs.records
                .iter()
                .map(|r| (r.flow, r.seq, r.delivered))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn no_packet_loss_under_congestion() {
        let mut f = two_host_fabric(256);
        f.add_flow(FlowSpec {
            stop: Some(256 * 50),
            ..flow(0, 0, 1, 0, 256, 256)
        });
        f.add_flow(FlowSpec {
            stop: Some(256 * 50),
            ..flow(1, 1, 0, 1, 256, 256)
        });
        let mut obs = VecObserver::default();
        f.run_until(10_000_000, &mut obs);
        // Both flows emitted 51 packets (t=0..=50*256 inclusive start).
        let f0 = obs.records.iter().filter(|r| r.flow == 0).count();
        let f1 = obs.records.iter().filter(|r| r.flow == 1).count();
        assert_eq!(f0, 51);
        assert_eq!(f1, 51);
    }

    #[test]
    fn vl15_preempts_data_traffic() {
        let mut f = two_host_fabric(256);
        // Saturating data flow on VL0.
        f.add_flow(flow(0, 0, 1, 0, 256, 256));
        // Sparse management flow on SL15 -> VL15.
        f.add_flow(flow(1, 0, 1, 15, 64, 10_000));
        let mut obs = VecObserver::default();
        f.run_until(300_000, &mut obs);
        let mgmt: Vec<_> = obs.records.iter().filter(|r| r.flow == 1).collect();
        assert!(!mgmt.is_empty());
        // Management packets ride through with minimal queueing: their
        // delay stays near the unloaded 3-hop time for a 64B packet
        // behind at most one 256B packet per hop.
        for r in &mgmt {
            assert!(
                r.delay() <= 3 * (64 + 256) + 64,
                "VL15 delayed {} cycles",
                r.delay()
            );
        }
    }

    #[test]
    fn per_vl_accounting_sums_to_total() {
        let mut f = two_host_fabric(256);
        f.add_flow(flow(0, 0, 1, 2, 256, 600));
        f.add_flow(flow(1, 0, 1, 5, 256, 900));
        let mut obs = VecObserver::default();
        f.run_until(1_000_000, &mut obs);
        let st = f.host_port_stats(HostId(0));
        let sum: u64 = st.per_vl_bytes.iter().sum();
        assert_eq!(sum, st.bytes);
        assert!(st.per_vl_bytes[2] > 0);
        assert!(st.per_vl_bytes[5] > 0);
        assert_eq!(st.per_vl_bytes[7], 0);
    }

    #[test]
    fn header_overhead_appears_on_the_wire() {
        let mut t = Topology::new(2, 4);
        t.connect_switches(SwitchId(0), 1, SwitchId(1), 1);
        t.attach_host(SwitchId(0), 0);
        t.attach_host(SwitchId(1), 0);
        let r = updown::compute(&t);
        let mut f = Fabric::new(t, r, SimConfig::with_headers(256));
        f.add_flow(FlowSpec {
            stop: Some(0),
            ..flow(0, 0, 1, 0, 256, 1000)
        });
        let mut obs = VecObserver::default();
        f.run_until(100_000, &mut obs);
        let rec = obs.records[0];
        // 256 payload + 26 header bytes on the wire.
        assert_eq!(rec.bytes, 282);
        assert_eq!(rec.delay(), 3 * 282);
    }

    #[test]
    fn stats_window_reset() {
        let mut f = two_host_fabric(256);
        f.add_flow(flow(0, 0, 1, 0, 256, 512));
        let mut obs = VecObserver::default();
        f.run_until(51_200, &mut obs);
        let before = f.summarize();
        assert!(before.injected_packets > 0);
        f.reset_stats();
        let after = f.summarize();
        assert_eq!(after.injected_packets, 0);
        assert_eq!(after.window, 0);
    }

    #[test]
    fn recorded_run_matches_plain_run_and_measures_shares() {
        use iba_obs::ObsRecorder;
        // 2-VL steady state, weights 12:4 (= 3:1), both lanes saturated:
        // the per-VL serviced-bytes ratio must match the weights within
        // 1%, and the recorded run must behave identically to the plain
        // one.
        let build = || {
            let mut t = Topology::new(1, 4);
            t.attach_host(SwitchId(0), 0);
            t.attach_host(SwitchId(0), 1);
            t.attach_host(SwitchId(0), 2);
            let r = updown::compute(&t);
            let mut f = Fabric::new(t, r, SimConfig::paper_default(256));
            let cfg = VlArbConfig {
                high: vec![
                    ArbEntry {
                        vl: VirtualLane::data(1),
                        weight: 12,
                    },
                    ArbEntry {
                        vl: VirtualLane::data(2),
                        weight: 4,
                    },
                ],
                low: vec![],
                limit_of_high_priority: 255,
            };
            f.set_uniform_tables(&cfg);
            f.add_flow(flow(1, 0, 2, 1, 256, 256));
            f.add_flow(flow(2, 1, 2, 2, 256, 256));
            f
        };

        let mut plain = build();
        let mut obs_plain = VecObserver::default();
        plain.run_until(256 * 2000, &mut obs_plain);

        let mut recorded = build();
        let mut obs_rec = VecObserver::default();
        let mut rec = ObsRecorder::new();
        recorded.run_until_recorded(256 * 2000, &mut obs_rec, &mut rec);

        // Identical deliveries: instrumentation must not perturb the sim.
        let key = |v: &VecObserver| {
            v.records
                .iter()
                .map(|r| (r.flow, r.seq, r.delivered))
                .collect::<Vec<_>>()
        };
        assert_eq!(key(&obs_plain), key(&obs_rec));

        // Per-VL serviced-bytes ratio matches the 3:1 weights within 1%.
        let m = &rec.metrics;
        let vl1 = m.arb_bytes.0[1].get() as f64;
        let vl2 = m.arb_bytes.0[2].get() as f64;
        assert!(vl1 > 0.0 && vl2 > 0.0);
        let ratio = vl1 / vl2;
        assert!(
            (ratio - 3.0).abs() / 3.0 < 0.01,
            "serviced-bytes ratio {ratio} deviates >1% from 3.0"
        );
        // Saturated lanes exhaust their weight; grants were recorded on
        // both lanes and on the high table only.
        assert!(m.arb_weight_exhausted.0[1].get() > 0);
        assert!(m.arb_weight_exhausted.0[2].get() > 0);
        assert!(m.arb_high_bytes.get() > 0);
        assert_eq!(m.arb_low_bytes.get(), 0);
        assert!(m.arb_queue_depth.count() > 0);
    }

    #[test]
    fn packet_pool_drains_and_stays_bounded() {
        let mut f = two_host_fabric(256);
        f.add_flow(FlowSpec {
            stop: Some(256 * 100),
            ..flow(0, 0, 1, 0, 256, 256)
        });
        f.add_flow(FlowSpec {
            stop: Some(256 * 100),
            ..flow(1, 1, 0, 1, 256, 256)
        });
        let mut obs = VecObserver::default();
        f.run_until(10_000_000, &mut obs);
        let (in_use, cap) = f.pool_usage();
        // Everything delivered: the pool is empty again, and its
        // high-water mark stayed at the peak buffered population, not
        // the total packet count (202 generated).
        assert_eq!(in_use, 0);
        assert!(cap > 0 && cap < 202, "pool high-water {cap}");
    }

    #[test]
    fn link_flap_pauses_and_resumes_delivery() {
        let mut f = two_host_fabric(256);
        f.add_flow(flow(0, 0, 1, 0, 256, 512));
        // Take the inter-switch link down for a while, then restore it.
        f.schedule_fault(
            10_000,
            FaultAction::LinkDown {
                node: NodeId::Switch(0),
                port: 1,
            },
        );
        f.schedule_fault(
            60_000,
            FaultAction::LinkUp {
                node: NodeId::Switch(0),
                port: 1,
            },
        );
        let mut obs = VecObserver::default();
        f.run_until(200_000, &mut obs);
        // Nothing crosses the downed link inside the outage window
        // (transfers already on the wire at t=10_000 may still land).
        let during = obs
            .records
            .iter()
            .filter(|r| r.delivered > 11_000 && r.delivered < 60_000)
            .count();
        assert_eq!(during, 0, "packets crossed a downed link");
        // After the restore the backlog drains and delivery resumes.
        let after = obs.records.iter().filter(|r| r.delivered >= 60_000).count();
        assert!(after > 100, "only {after} deliveries after link-up");
        assert_eq!(f.host_backlog(HostId(0)), 0);
        assert!(f
            .fault_state(NodeId::Switch(0), 1)
            .is_some_and(|st| st.healthy()));
    }

    #[test]
    fn degraded_link_stretches_transfers() {
        let mut f = two_host_fabric(256);
        f.schedule_fault(
            0,
            FaultAction::DegradeLink {
                node: NodeId::Switch(0),
                port: 1,
                shift: 2,
            },
        );
        f.add_flow(FlowSpec {
            stop: Some(0),
            ..flow(0, 0, 1, 0, 256, 1000)
        });
        let mut obs = VecObserver::default();
        f.run_until(100_000, &mut obs);
        // Host hop + degraded (4x) switch hop + final hop.
        assert_eq!(obs.records[0].delay(), 256 + 4 * 256 + 256);
    }

    #[test]
    fn vl_blackout_blocks_only_that_lane() {
        let mut f = two_host_fabric(256);
        f.schedule_fault(
            0,
            FaultAction::SetVlBlackout {
                node: NodeId::Host(0),
                port: 0,
                mask: 1 << 1,
            },
        );
        f.add_flow(flow(0, 0, 1, 1, 256, 512)); // VL1: blacked out
        f.add_flow(flow(1, 0, 1, 2, 256, 512)); // VL2: unaffected
        let mut obs = VecObserver::default();
        f.run_until(100_000, &mut obs);
        assert!(obs.records.iter().all(|r| r.flow == 1));
        assert!(obs.records.iter().filter(|r| r.flow == 1).count() > 100);
        assert!(f.host_backlog(HostId(0)) > 0);
    }

    #[test]
    fn faulted_run_is_deterministic() {
        let run = || {
            let mut f = two_host_fabric(256);
            f.add_flow(flow(0, 0, 1, 0, 256, 300));
            f.add_flow(flow(1, 1, 0, 1, 256, 700));
            let plan = FaultPlan::generate(99, 5_000, 400_000, 2, 4, 2);
            f.apply_fault_plan(&plan);
            let mut obs = VecObserver::default();
            f.run_until(1_000_000, &mut obs);
            obs.records
                .iter()
                .map(|r| (r.flow, r.seq, r.delivered))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn every_writer_but_a_download_forgets_the_download_key() {
        let mut f = two_host_fabric(256);
        let key = DownloadKey { table: 7, low: 9 };
        let host = NodeId::Host(0);
        assert_eq!(f.download_key(host, 0), None, "no download yet");
        assert_eq!(f.download_key(host, 1), None, "hosts have one port");
        assert_eq!(f.download_key(NodeId::Switch(9), 0), None);
        f.record_download(NodeId::Switch(9), 0, key);

        f.record_download(host, 0, key);
        f.restart_output_walk(host, 0);
        assert_eq!(f.download_key(host, 0), Some(key), "a restart keeps it");
        f.set_output_table(host, 0, Fabric::default_arb_config());
        assert_eq!(f.download_key(host, 0), None);

        f.record_download(host, 0, key);
        f.set_uniform_tables(&Fabric::default_arb_config());
        assert_eq!(f.download_key(host, 0), None);

        f.record_download(host, 0, key);
        f.schedule_fault(
            0,
            FaultAction::CorruptTable {
                node: host,
                port: 0,
                seed: 3,
            },
        );
        f.run_until(1, &mut crate::trace::NullObserver);
        assert_eq!(f.download_key(host, 0), None);
    }

    #[test]
    fn port_downloads_list_the_wired_ports_in_key_order() {
        let mut f = two_host_fabric(256);
        let ports: Vec<(NodeId, u8)> = f
            .port_downloads()
            .iter()
            .map(|d| (d.node, d.port))
            .collect();
        let (s0, s1) = (NodeId::Switch(0), NodeId::Switch(1));
        let (h0, h1) = (NodeId::Host(0), NodeId::Host(1));
        assert_eq!(
            ports,
            [(s0, 0), (s0, 1), (s1, 0), (s1, 1), (h0, 0), (h1, 0)]
        );
        assert!(f
            .port_downloads()
            .windows(2)
            .all(|w| w[0].code < w[1].code && w[0].code == w[0].node.port_code(w[0].port)));
        // Port 2 of a switch is unwired: no download reaches it.
        f.record_download(s0, 2, DownloadKey { table: 1, low: 1 });
        assert_eq!(f.download_key(s0, 2), None);
        assert!(f.port_downloads().iter().all(|d| d.key.is_none()));
    }

    /// A two-table configuration whose walk state (cursors, credits and
    /// the `LimitOfHighPriority` budget) moves with every grant.
    fn walking_config(first_vl: u8) -> VlArbConfig {
        let entry = |vl: u8, weight: u8| ArbEntry {
            vl: VirtualLane::data(vl),
            weight,
        };
        VlArbConfig {
            high: vec![
                entry(first_vl, 3),
                entry(1, 0),
                entry(2, 2),
                entry(first_vl, 1),
                entry(3, 5),
            ],
            low: vec![entry(4, 2), entry(5, 1), entry(1, 3)],
            limit_of_high_priority: 1,
        }
    }

    /// The grants host 0's uplink gives over a seeded run of ready
    /// sets, selecting as the fabric's kicks do.
    fn host_grants(f: &mut Fabric, seed: u64) -> Vec<Option<Grant>> {
        let epoch = f.download_epoch;
        let out = &mut f.hosts[0].out;
        ready_sets(seed)
            .map(|(mask, bytes)| out.select(epoch, mask, &bytes))
            .collect()
    }

    /// The grants a freshly compiled arbiter of `cfg` gives over the
    /// same ready sets.
    fn fresh_grants(cfg: &VlArbConfig, seed: u64) -> Vec<Option<Grant>> {
        let mut arb = CompiledVlArb::new(cfg.clone());
        ready_sets(seed)
            .map(|(mask, bytes)| arb.select(mask, &bytes))
            .collect()
    }

    fn ready_sets(seed: u64) -> impl Iterator<Item = (u16, [u64; 16])> {
        let mut rng = iba_core::rng::SplitMix64::seed_from_u64(seed);
        (0..64).map(move |_| {
            let mask = (rng.next_u64() & 0x3F) as u16;
            let mut bytes = [0; 16];
            for b in &mut bytes[..6] {
                *b = 64 * (1 + rng.next_u64() % 64);
            }
            (mask, bytes)
        })
    }

    #[test]
    fn two_downloads_without_a_grant_restart_a_mid_walk_port() {
        let mut f = two_host_fabric(256);
        let cfg = walking_config(0);
        f.set_output_table(NodeId::Host(0), 0, cfg.clone());
        host_grants(&mut f, 1);
        // Stopped mid-walk, the port would not grant as a fresh one.
        let mut stopped = f.hosts[0].out.arb.clone();
        let stale: Vec<_> = ready_sets(2)
            .map(|(mask, bytes)| stopped.select(mask, &bytes))
            .collect();
        assert_ne!(stale, fresh_grants(&cfg, 2), "the walk moved");
        // Two downloads cross the port before its next grant.
        f.restart_all_walks();
        f.restart_all_walks();
        assert_eq!(host_grants(&mut f, 2), fresh_grants(&cfg, 2));
        // And a download after those grants restarts it again.
        f.restart_all_walks();
        assert_eq!(host_grants(&mut f, 3), fresh_grants(&cfg, 3));
    }

    #[test]
    fn a_port_recompiled_in_a_download_starts_fresh() {
        let mut f = two_host_fabric(256);
        let (first, second) = (walking_config(0), walking_config(6));
        f.set_output_table(NodeId::Host(0), 0, first);
        host_grants(&mut f, 4);
        // The download bumps the epoch, then recompiles the port.
        f.restart_all_walks();
        f.set_output_table(NodeId::Host(0), 0, second.clone());
        assert_eq!(host_grants(&mut f, 5), fresh_grants(&second, 5));
        // Recompiled in place (its schedule is its own by now), then
        // restarted by a later download: fresh again.
        host_grants(&mut f, 6);
        f.set_output_table(NodeId::Host(0), 0, walking_config(0));
        f.restart_all_walks();
        assert_eq!(host_grants(&mut f, 7), fresh_grants(&walking_config(0), 7));
    }

    #[test]
    fn corrupt_table_damages_high_entries() {
        let cfg = VlArbConfig {
            high: vec![
                ArbEntry {
                    vl: VirtualLane::data(1),
                    weight: 12,
                },
                ArbEntry {
                    vl: VirtualLane::data(2),
                    weight: 4,
                },
            ],
            low: vec![],
            limit_of_high_priority: 255,
        };
        let bad = corrupt_config(&cfg, 7);
        assert_ne!(bad.high, cfg.high, "corruption must change the table");
        assert_eq!(
            bad.high,
            corrupt_config(&cfg, 7).high,
            "corruption is seeded"
        );
    }

    /// Recomputes every switch's routed-head index from the lanes'
    /// occupancy and cached head routes, and its crossbar masks from
    /// the output ports, checks each cached route against the routing
    /// table, and asserts the incremental state equals the recomputed
    /// one.
    fn assert_route_index_consistent(f: &Fabric) {
        for (s, node) in f.switches.iter().enumerate() {
            let n = node.inputs.len();
            let mut routed = vec![0u16; n * n];
            let mut inputs = vec![0u64; n];
            let (mut busy_in, mut closed_out) = (0u64, 0u64);
            for (p, out) in node.outputs.iter().enumerate() {
                if let Some(q) = out.inflight.as_ref().and_then(|i| i.src_input) {
                    assert_eq!(busy_in & (1 << q), 0, "switch {s}: input {q} drained twice");
                    busy_in |= 1 << q;
                }
                if out.busy() || out.peer == Peer::None || out.fault.down {
                    closed_out |= 1 << p;
                }
            }
            assert_eq!(
                node.busy_in, busy_in,
                "switch {s}: busy inputs at {}",
                f.now
            );
            assert_eq!(
                node.closed_out, closed_out,
                "switch {s}: closed outputs at {}",
                f.now
            );
            for (q, input) in node.inputs.iter().enumerate() {
                let mut pend = input.vls.occupied();
                while pend != 0 {
                    let vl = pend.trailing_zeros() as usize;
                    pend &= pend - 1;
                    let out = input.head_route[vl];
                    let head = input
                        .vls
                        .head(&f.pool, vl)
                        .expect("occupied lane has a head");
                    assert_eq!(
                        out,
                        f.routing.port(SwitchId(s as u16), head.dst),
                        "switch {s} input {q} VL{vl}: stale cached route"
                    );
                    routed[usize::from(out) * n + q] |= 1 << vl;
                    inputs[usize::from(out)] |= 1 << q;
                }
            }
            assert_eq!(node.routed, routed, "switch {s}: routed lanes at {}", f.now);
            assert_eq!(
                node.routed_inputs, inputs,
                "switch {s}: routed inputs at {}",
                f.now
            );
        }
    }

    /// A seeded 4-switch fabric under heavy random load, with a
    /// high-priority table on every port so input claiming has work to
    /// protect, and SL15 management traffic beside the data lanes.
    fn seeded_fabric(seed: u64, claiming: bool, vl_buffer_packets: u32) -> Fabric {
        let topo = iba_topo::irregular::generate(iba_topo::IrregularConfig::with_switches(4, seed));
        let routing = updown::compute(&topo);
        let hosts = topo.num_hosts() as u16;
        let mut config = SimConfig::paper_default(256);
        config.priority_input_claiming = claiming;
        config.vl_buffer_packets = vl_buffer_packets;
        let mut f = Fabric::new(topo, routing, config);
        let high = [(1u8, 8u8), (3, 4), (5, 2)]
            .into_iter()
            .map(|(vl, weight)| ArbEntry {
                vl: VirtualLane::data(vl),
                weight,
            })
            .collect();
        f.set_uniform_tables(&VlArbConfig {
            high,
            limit_of_high_priority: 255,
            ..Fabric::default_arb_config()
        });
        let mut rng = iba_core::rng::SplitMix64::seed_from_u64(seed);
        for id in 0..32 {
            let src = rng.gen_range(0..hosts);
            let dst = (src + rng.gen_range(1..hosts)) % hosts;
            let sl = if id % 11 == 10 {
                15
            } else {
                rng.gen_range(0u8..10)
            };
            f.add_flow(flow(id, src, dst, sl, 256, rng.gen_range(300u64..3000)));
        }
        f
    }

    /// One fault of each port-level kind on switch 0 and 1 ports that
    /// carry traffic, the transient ones restored inside the run.
    fn index_fault_plan(f: &Fabric) -> FaultPlan {
        let wired = |s: u16| -> Vec<u8> {
            (0..f.topo.ports_per_switch())
                .filter(|&p| f.topo.peer(SwitchId(s), p) != PortPeer::Free)
                .collect()
        };
        let (w0, w1) = (wired(0), wired(1));
        let (s0, s1) = (NodeId::Switch(0), NodeId::Switch(1));
        let mut plan = FaultPlan::new(0);
        for (i, &port) in w0.iter().enumerate() {
            let t = 20_000 + 10_000 * i as u64;
            plan.push(
                t,
                FaultAction::SetVlBlackout {
                    node: s0,
                    port,
                    mask: 0x00F3,
                },
            );
            plan.push(
                t + 90_000,
                FaultAction::SetVlBlackout {
                    node: s0,
                    port,
                    mask: 0,
                },
            );
        }
        for (i, &port) in w1.iter().enumerate() {
            let t = 40_000 + 10_000 * i as u64;
            plan.push(
                t,
                FaultAction::SetCreditStall {
                    node: s1,
                    port,
                    mask: 0x030C,
                },
            );
            plan.push(
                t + 70_000,
                FaultAction::SetCreditStall {
                    node: s1,
                    port,
                    mask: 0,
                },
            );
            plan.push(t + 150_000, FaultAction::LinkDown { node: s1, port });
            plan.push(t + 200_000, FaultAction::LinkUp { node: s1, port });
            plan.push(
                t + 250_000,
                FaultAction::CorruptTable {
                    node: s1,
                    port,
                    seed: t,
                },
            );
        }
        plan.events.sort_by_key(|&(t, _)| t);
        plan
    }

    /// Every slice boundary recomputes the index and crossbar masks; in
    /// debug builds every restricted arbitration pass is also re-run as
    /// a full pass and must find the same candidates. One-packet
    /// buffers put the most heads behind credit.
    #[test]
    fn routed_head_index_matches_a_recomputation() {
        let runs = (0..6u64)
            .map(|seed| (seed, 4))
            .chain((6..12u64).map(|seed| (seed, 1)));
        for (seed, vl_buffer_packets) in runs {
            for claiming in [false, true] {
                for faulted in [false, true] {
                    let mut f = seeded_fabric(seed, claiming, vl_buffer_packets);
                    if faulted {
                        let plan = index_fault_plan(&f);
                        f.apply_fault_plan(&plan);
                    }
                    let mut obs = VecObserver::default();
                    for slice in 1..=40u64 {
                        f.run_until(slice * 12_500, &mut obs);
                        assert_route_index_consistent(&f);
                    }
                    assert!(obs.records.len() > 500, "seed {seed}: too little traffic");
                }
            }
        }
    }

    #[test]
    fn backlog_drains_when_capacity_allows() {
        let mut f = two_host_fabric(256);
        f.add_flow(FlowSpec {
            stop: Some(256 * 20),
            ..flow(0, 0, 1, 0, 256, 256)
        });
        let mut obs = VecObserver::default();
        f.run_until(5_000_000, &mut obs);
        assert_eq!(f.host_backlog(HostId(0)), 0);
    }
}
