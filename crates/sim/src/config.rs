//! Simulator configuration.

use iba_core::SlToVlMap;

/// Wire overhead of one IBA packet when header modelling is enabled:
/// LRH (8) + BTH (12) + ICRC (4) + VCRC (2) bytes.
pub const IBA_HEADER_BYTES: u32 = 26;

/// Global parameters of a simulation.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Packet MTU in bytes (256, 1024, 2048 or 4096 per the spec; the
    /// VL buffer capacity is sized from it).
    pub mtu: u32,
    /// VL buffer depth in whole packets (paper: 4).
    pub vl_buffer_packets: u32,
    /// Link capacity in bytes per cycle (1 = 1x, 4 = 4x, 12 = 12x).
    pub link_bytes_per_cycle: u64,
    /// The fabric-wide SLtoVL mapping applied by every sender.
    pub sl_to_vl: SlToVlMap,
    /// Per-packet header bytes added on the wire (0 = headers folded
    /// into the flow's packet size, the default; set to
    /// [`IBA_HEADER_BYTES`] to model LRH/BTH/CRC overhead explicitly —
    /// this is what makes small packets cost relatively more wire, the
    /// effect the paper notes under Table 2).
    pub header_bytes: u32,
    /// Priority-aware crossbar input claiming (extension, default off).
    ///
    /// With the plain multiplexed crossbar a low-priority transfer can
    /// occupy an input port while a high-priority packet at that input
    /// waits for another (momentarily busy) output — a small priority
    /// inversion under sustained best-effort overload. When this flag is
    /// set, an output serving its *low*-priority table declines to claim
    /// an input that currently holds a transmittable high-priority
    /// packet for some other output, eliminating the inversion at the
    /// cost of slightly lower best-effort throughput.
    pub priority_input_claiming: bool,
}

impl SimConfig {
    /// The paper's configuration: chosen MTU, 4-packet VL buffers,
    /// 1x links, identity SL→VL mapping.
    #[must_use]
    pub fn paper_default(mtu: u32) -> Self {
        assert!(
            matches!(mtu, 256 | 1024 | 2048 | 4096),
            "IBA MTUs are 256B, 1KB, 2KB or 4KB"
        );
        SimConfig {
            mtu,
            vl_buffer_packets: 4,
            link_bytes_per_cycle: 1,
            sl_to_vl: SlToVlMap::identity(),
            header_bytes: 0,
            priority_input_claiming: false,
        }
    }

    /// Same, with explicit IBA header overhead per packet.
    #[must_use]
    pub fn with_headers(mtu: u32) -> Self {
        SimConfig {
            header_bytes: IBA_HEADER_BYTES,
            ..Self::paper_default(mtu)
        }
    }

    /// VL buffer capacity in bytes (sized for whole packets including
    /// headers).
    #[must_use]
    pub fn vl_buffer_bytes(&self) -> u64 {
        u64::from(self.mtu + self.header_bytes) * u64::from(self.vl_buffer_packets)
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::paper_default(256)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = SimConfig::default();
        assert_eq!(c.mtu, 256);
        assert_eq!(c.vl_buffer_bytes(), 1024);
        assert_eq!(c.link_bytes_per_cycle, 1);
    }

    #[test]
    fn large_packets() {
        let c = SimConfig::paper_default(4096);
        assert_eq!(c.vl_buffer_bytes(), 16384);
    }

    #[test]
    #[should_panic(expected = "IBA MTUs")]
    fn invalid_mtu_rejected() {
        let _ = SimConfig::paper_default(512);
    }
}
