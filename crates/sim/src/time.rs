//! Time base of the simulator.
//!
//! One **cycle** is the time needed to transmit one byte on a 1x link.
//! The paper's links signal at 2.5 GHz (1x = 2.5 Gbps), so a cycle is
//! 3.2 ns of wall time and a 1x link moves exactly 1 byte/cycle; 4x and
//! 12x links move 4 and 12 bytes per cycle.

/// Simulation time, in cycles.
pub type Cycles = u64;

/// Capacity of a 1x link in Mbps (the paper's 2.5 Gbps signalling rate).
pub const LINK_1X_MBPS: f64 = 2500.0;

/// Wall-clock nanoseconds per cycle at the 1x rate (for reports only).
pub const NS_PER_CYCLE: f64 = 3.2;

/// Cycles needed to move `bytes` bytes over a link of
/// `bytes_per_cycle` capacity, rounded up, minimum 1.
#[must_use]
#[inline]
pub fn cycles_for_bytes(bytes: u64, bytes_per_cycle: u64) -> Cycles {
    debug_assert!(bytes_per_cycle > 0);
    // The paper's time base is 1 byte/cycle; skip the hardware divide
    // on that (overwhelmingly common) configuration.
    if bytes_per_cycle == 1 {
        return bytes.max(1);
    }
    bytes.div_ceil(bytes_per_cycle).max(1)
}

/// The CBR inter-packet interval (cycles) of a flow sending
/// `packet_bytes`-byte packets at `mbps` megabits per second, on the
/// 1-byte-per-cycle time base.
///
/// `interval = packet_bytes · (2500 / mbps)` cycles, rounded to nearest.
#[must_use]
pub fn interval_for_rate(packet_bytes: u64, mbps: f64) -> Cycles {
    assert!(mbps > 0.0, "rate must be positive");
    let cycles = packet_bytes as f64 * (LINK_1X_MBPS / mbps);
    cycles.round().max(1.0) as Cycles
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_per_cycle_on_1x() {
        assert_eq!(cycles_for_bytes(256, 1), 256);
        assert_eq!(cycles_for_bytes(4096, 1), 4096);
    }

    #[test]
    fn faster_links_divide() {
        assert_eq!(cycles_for_bytes(256, 4), 64);
        assert_eq!(cycles_for_bytes(256, 12), 22); // ceil(256/12)
        assert_eq!(cycles_for_bytes(1, 12), 1);
    }

    #[test]
    fn full_rate_interval_equals_packet_time() {
        // A 2500 Mbps flow saturates the 1x link: one packet per
        // packet-time.
        assert_eq!(interval_for_rate(256, 2500.0), 256);
    }

    #[test]
    fn interval_scales_inversely_with_rate() {
        // 1 Mbps with 256-byte packets: 2500x the packet time.
        assert_eq!(interval_for_rate(256, 1.0), 256 * 2500);
        // 128 Mbps: ~19.5x.
        let i = interval_for_rate(256, 128.0);
        assert_eq!(i, 5000);
    }

    #[test]
    fn rate_interval_roundtrip() {
        for mbps in [0.5, 1.0, 16.0, 128.0, 1250.0] {
            for bytes in [64u64, 256, 2048, 4096] {
                let i = interval_for_rate(bytes, mbps);
                // The rate a flow sending `bytes` every `i` cycles has.
                let back = bytes as f64 / i as f64 * LINK_1X_MBPS;
                assert!(
                    (back - mbps).abs() / mbps < 0.01,
                    "{mbps} Mbps {bytes}B -> {i} cycles -> {back} Mbps"
                );
            }
        }
    }
}
