//! Admitted connection records.

use crate::cac::PortKey;
use iba_core::SequenceId;
use iba_sim::NodeId;
use iba_traffic::ConnectionRequest;

/// Handle to an admitted connection.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ConnectionId(pub u32);

/// One hop's reservation: which output port, and which sequence inside
/// that port's high-priority table.
#[derive(Clone, Copy, Debug)]
pub struct HopReservation {
    /// The node owning the output port.
    pub node: NodeId,
    /// Output port number.
    pub port: u8,
    /// Sequence the connection shares at this hop.
    pub sequence: SequenceId,
}

impl HopReservation {
    /// The output port this hop reserves on.
    #[must_use]
    pub fn key(&self) -> PortKey {
        PortKey {
            node: self.node,
            port: self.port,
        }
    }
}

/// A live connection: the original request plus everything admission
/// derived from it.
#[derive(Clone, Debug)]
pub struct Connection {
    /// The request as issued.
    pub request: ConnectionRequest,
    /// Table weight reserved at every hop.
    pub weight: u32,
    /// Per-hop reservations, source-side first.
    pub hops: Vec<HopReservation>,
    /// Guaranteed end-to-end deadline (cycles), derived from the
    /// distance and the hop count.
    pub deadline: u64,
    /// Nominal interarrival time (cycles) of the CBR source.
    pub interarrival: u64,
}

impl Connection {
    /// Number of arbitration stages the connection crosses.
    #[must_use]
    pub fn hop_count(&self) -> usize {
        self.hops.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iba_core::{Distance, ServiceLevel};
    use iba_topo::HostId;

    #[test]
    fn hop_count_counts_reservations() {
        let req = ConnectionRequest {
            id: 0,
            src: HostId(0),
            dst: HostId(1),
            sl: ServiceLevel::new(2).unwrap(),
            distance: Distance::D8,
            mean_bw_mbps: 4.0,
            packet_bytes: 256,
        };
        let c = Connection {
            request: req,
            weight: 27,
            hops: vec![
                HopReservation {
                    node: NodeId::Host(0),
                    port: 0,
                    sequence: SequenceId::new(0),
                },
                HopReservation {
                    node: NodeId::Switch(0),
                    port: 3,
                    sequence: SequenceId::new(1),
                },
            ],
            deadline: 100_000,
            interarrival: 160_000,
        };
        assert_eq!(c.hop_count(), 2);
    }
}
