//! Connection requests: what an application asks of the fabric.

use iba_core::{weight_for_bandwidth, Distance, ServiceLevel, Weight};
use iba_topo::HostId;

/// Worst-case cycles one high-priority table entry can consume before
/// the next entry is reached: maximum weight (255) times 64 bytes at one
/// byte per cycle.
pub const SERVICE_QUANTUM_CYCLES: u64 = 255 * 64;

/// The deadline (cycles) guaranteed to a connection of entry distance
/// `d` crossing `hops` arbitration stages: each stage serves the
/// connection's VL at least once every `d` entries, and an entry takes
/// at most [`SERVICE_QUANTUM_CYCLES`] to drain.
///
/// This is the inverse of the paper's "to request a maximum latency is
/// equivalent to requesting a sequence with a maximum distance between
/// two consecutive entries".
#[must_use]
pub fn deadline_for(distance: Distance, hops: usize) -> u64 {
    hops as u64 * distance.slots() as u64 * SERVICE_QUANTUM_CYCLES
}

/// The tightest permitted distance whose per-hop guarantee still meets a
/// requested end-to-end `deadline` over `hops` stages — the classifier
/// applications use when they think in time units rather than table
/// distances.
#[must_use]
pub fn distance_for_deadline(deadline: u64, hops: usize) -> Option<Distance> {
    let per_hop = deadline / (hops as u64 * SERVICE_QUANTUM_CYCLES);
    Distance::round_down(per_hop as usize)
}

/// The full guaranteed deadline, adding to the `d · quantum` spacing
/// bound the terms that come from whole-packet arbitration:
///
/// * every intervening table entry may overdraw its weight by one whole
///   packet ("always rounded up as a whole packet") — `d · packet` per
///   stage;
/// * at each stage the packet may find one non-preemptable packet in
///   service and must itself be transmitted — `2 · packet` per stage.
#[must_use]
pub fn deadline_with_transmission(distance: Distance, hops: usize, packet_bytes: u32) -> u64 {
    let per_stage = distance.slots() as u64 * (SERVICE_QUANTUM_CYCLES + u64::from(packet_bytes))
        + 2 * u64::from(packet_bytes);
    hops as u64 * per_stage
}

/// A QoS connection request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ConnectionRequest {
    /// Unique id (becomes the flow id once admitted).
    pub id: u32,
    /// Source host.
    pub src: HostId,
    /// Destination host.
    pub dst: HostId,
    /// Service level (classifies distance and bandwidth stratum).
    pub sl: ServiceLevel,
    /// Required entry distance in every arbitration table on the path.
    pub distance: Distance,
    /// Requested mean bandwidth (Mbps).
    pub mean_bw_mbps: f64,
    /// Packet size the connection will use (bytes).
    pub packet_bytes: u32,
}

impl ConnectionRequest {
    /// The table weight this request reserves at every hop on a link of
    /// `link_mbps` capacity.
    #[must_use]
    pub fn weight(&self, link_mbps: f64) -> Option<Weight> {
        weight_for_bandwidth(self.mean_bw_mbps, link_mbps)
    }

    /// Nominal interarrival time of the CBR source (cycles).
    #[must_use]
    pub fn interarrival(&self) -> u64 {
        iba_sim::interval_for_rate(u64::from(self.packet_bytes), self.mean_bw_mbps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_scales_with_distance_and_hops() {
        assert_eq!(deadline_for(Distance::D2, 1), 2 * 16320);
        assert_eq!(deadline_for(Distance::D64, 4), 4 * 64 * 16320);
        assert!(deadline_for(Distance::D2, 3) < deadline_for(Distance::D64, 3));
    }

    #[test]
    fn distance_for_deadline_inverts() {
        for d in Distance::ALL {
            for hops in 1..6 {
                let deadline = deadline_for(d, hops);
                let back = distance_for_deadline(deadline, hops).unwrap();
                assert_eq!(back, d, "d={d} hops={hops}");
            }
        }
    }

    #[test]
    fn too_tight_deadline_unsatisfiable() {
        // Less than two quanta per hop cannot be guaranteed.
        assert_eq!(distance_for_deadline(16320, 1), None);
        assert_eq!(distance_for_deadline(2 * 16320 - 1, 1), None);
        assert_eq!(distance_for_deadline(2 * 16320, 1), Some(Distance::D2));
    }

    #[test]
    fn weight_derives_from_bandwidth() {
        let r = ConnectionRequest {
            id: 0,
            src: HostId(0),
            dst: HostId(1),
            sl: ServiceLevel::new(0).unwrap(),
            distance: Distance::D2,
            mean_bw_mbps: 128.0,
            packet_bytes: 256,
        };
        assert_eq!(r.weight(2500.0), Some(836));
        assert!(r.weight(100.0).is_none(), "over link capacity");
    }

    #[test]
    fn interarrival_matches_rate() {
        let r = ConnectionRequest {
            id: 0,
            src: HostId(0),
            dst: HostId(1),
            sl: ServiceLevel::new(6).unwrap(),
            distance: Distance::D64,
            mean_bw_mbps: 2.5,
            packet_bytes: 256,
        };
        assert_eq!(r.interarrival(), 256_000);
    }
}
