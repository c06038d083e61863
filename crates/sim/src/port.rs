//! Input and output port state.

use crate::buffer::{Credits, VlQueueSet};
use crate::fault::FaultState;
use crate::packet::Packet;
use crate::time::Cycles;
use iba_core::{CompiledVlArb, Grant};

/// Where a port's link leads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Peer {
    /// Input port `port` of switch `switch`.
    SwitchIn {
        /// Peer switch index.
        switch: u16,
        /// Peer input port.
        port: u8,
    },
    /// A host (consumes instantly).
    Host(u16),
    /// Unwired.
    None,
}

/// Counters kept per output port.
#[derive(Clone, Copy, Default, Debug)]
pub struct PortStats {
    /// Cycles the link spent transmitting.
    pub busy_cycles: Cycles,
    /// Total bytes put on the wire.
    pub bytes: u64,
    /// Packets transmitted.
    pub packets: u64,
    /// Bytes granted by the high-priority table.
    pub high_bytes: u64,
    /// Bytes granted by the low-priority table.
    pub low_bytes: u64,
    /// Bytes of VL15 (management) traffic.
    pub vl15_bytes: u64,
    /// Bytes transmitted per VL (index = lane).
    pub per_vl_bytes: [u64; 16],
}

impl PortStats {
    /// Link utilisation over a window of `window` cycles at
    /// `bytes_per_cycle` capacity, in percent.
    #[must_use]
    pub fn utilization(&self, window: Cycles, bytes_per_cycle: u64) -> f64 {
        if window == 0 {
            return 0.0;
        }
        100.0 * self.bytes as f64 / (window as f64 * bytes_per_cycle as f64)
    }
}

/// A transfer currently on the wire.
#[derive(Debug)]
pub struct InFlight {
    /// The packet being moved.
    pub packet: Packet,
    /// Input port it left from (`None` when injected by a host).
    pub src_input: Option<u8>,
    /// VL it travels on (downstream buffer lane).
    pub vl: u8,
}

/// Output side of a port: arbitration engine, downstream credits, link
/// state and statistics.
#[derive(Debug)]
pub struct OutputPort {
    /// This port's `VLArbitrationTable`, compiled into grant streams.
    /// Every table change recompiles it through
    /// `CompiledVlArb::reconfigure`, into its own schedule when no other
    /// port shares it. Every download restarts the walk of every port,
    /// lazily: the port `reset`s it at its first grant after the
    /// download (see `OutputPort::select`), since a reset cannot be
    /// observed before then.
    pub arb: CompiledVlArb,
    /// The fabric's download epoch at this port's last walk restart.
    pub(crate) walk_epoch: u64,
    /// Credits for the downstream input buffers.
    pub credits: Credits,
    /// Where the link leads.
    pub peer: Peer,
    /// The transfer in progress, if any.
    pub inflight: Option<InFlight>,
    /// Round-robin pointer over input ports (switch outputs only).
    pub next_input: u8,
    /// Injected fault state (healthy by default).
    pub fault: FaultState,
    /// Inputs whose head packets may have changed eligibility for this
    /// port since its previous arbitration pass (switch outputs only).
    /// With the inputs freed since that pass (busy in `busy_seen`, idle
    /// now) they are the dirty inputs: the next pass scans every lane
    /// of them.
    pub dirty_inputs: u64,
    /// Lanes whose head packets may have changed eligibility since the
    /// previous pass: the next pass scans these lanes of every input.
    /// Every eligible head of the port lies in the dirty inputs or the
    /// dirty lanes.
    pub dirty_lanes: u16,
    /// The switch's busy inputs at this port's previous pass (switch
    /// outputs only).
    pub busy_seen: u64,
    /// Counters.
    pub stats: PortStats,
}

impl OutputPort {
    /// An idle output port.
    #[must_use]
    pub fn new(arb: CompiledVlArb, credits: Credits, peer: Peer) -> Self {
        OutputPort {
            arb,
            walk_epoch: 0,
            credits,
            peer,
            inflight: None,
            next_input: 0,
            fault: FaultState::default(),
            dirty_inputs: !0,
            dirty_lanes: !0,
            busy_seen: 0,
            stats: PortStats::default(),
        }
    }

    /// Arbitrates one packet (see `CompiledVlArb::select`), first
    /// restarting the walk if a download happened since the last
    /// restart: `epoch` is the fabric's download epoch.
    #[inline]
    pub(crate) fn select(&mut self, epoch: u64, ready: u16, bytes: &[u64; 16]) -> Option<Grant> {
        if self.walk_epoch != epoch {
            self.arb.reset();
            self.walk_epoch = epoch;
        }
        self.arb.select(ready, bytes)
    }

    /// Returns `bytes` of downstream credit on lane `vl`. A head on
    /// that lane may fit now, so the lane is marked for the next pass.
    #[inline]
    pub fn restore_credit(&mut self, vl: usize, bytes: u64) {
        self.credits.restore(vl, bytes);
        self.dirty_lanes |= 1 << vl;
    }

    /// Is the link currently transmitting?
    #[must_use]
    pub fn busy(&self) -> bool {
        self.inflight.is_some()
    }
}

/// Input side of a switch port: 16 VL buffers. Whether the crossbar
/// is draining the port ("only a VL of each input port can be
/// transmitting at the same time") is a bit of the switch's `busy_in`
/// mask.
#[derive(Debug)]
pub struct InputPort {
    /// Receive buffers, one per VL, in struct-of-arrays layout with an
    /// occupancy bitmask for the arbitration candidate scan.
    pub vls: VlQueueSet,
    /// Output port the head packet of each VL routes to (valid only
    /// while the lane's `occupied` bit is set). Routing is static for
    /// the lifetime of a run, so the fabric refreshes this cache on the
    /// push/pop that changes a lane's head and the candidate scan never
    /// touches the routing table or the packet pool.
    pub head_route: [u8; 16],
}

impl InputPort {
    /// Empty input port with `capacity` bytes per VL buffer.
    #[must_use]
    pub fn new(capacity: u64) -> Self {
        InputPort {
            vls: VlQueueSet::new(capacity),
            head_route: [0; 16],
        }
    }

    /// Total buffered bytes over all VLs.
    #[must_use]
    pub fn buffered(&self) -> u64 {
        self.vls.total_used()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_math() {
        let s = PortStats {
            bytes: 500,
            ..Default::default()
        };
        assert_eq!(s.utilization(1000, 1), 50.0);
        assert_eq!(s.utilization(1000, 4), 12.5);
        assert_eq!(s.utilization(0, 1), 0.0);
    }

    #[test]
    fn input_port_starts_empty() {
        let p = InputPort::new(1024);
        assert_eq!(p.buffered(), 0);
        assert_eq!(p.vls.occupied(), 0);
    }
}
