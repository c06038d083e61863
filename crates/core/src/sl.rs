//! Service levels, traffic classes and the SL→VL mapping.
//!
//! The paper's key classification move: SLs are assigned by **maximum
//! latency** — i.e. by the maximum distance between two consecutive
//! entries of the high-priority table — rather than by bandwidth. All
//! connections of one SL therefore need the same entry spacing and can
//! share sequences, and for the most used distances (32 and 64) several
//! SLs are distinguished by mean bandwidth.

use crate::distance::Distance;
use crate::entry::VirtualLane;
use std::fmt;

/// A service level (0..=15) carried in every packet header.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ServiceLevel(u8);

impl ServiceLevel {
    /// The number of service levels.
    pub const COUNT: usize = 16;

    /// Creates a service level; `None` when `id > 15`.
    #[must_use]
    pub fn new(id: u8) -> Option<Self> {
        (id <= 15).then_some(ServiceLevel(id))
    }

    /// Raw SL number.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Raw SL number as `u8`.
    #[must_use]
    pub fn raw(self) -> u8 {
        self.0
    }
}

impl fmt::Display for ServiceLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SL{}", self.0)
    }
}

/// Pelissier's traffic taxonomy, extended by the authors with PBE.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TrafficClass {
    /// Dedicated Bandwidth Time Sensitive — bandwidth *and* latency
    /// guarantees (multimedia streams).
    Bts,
    /// Dedicated Bandwidth — bandwidth guarantee only; treated by the
    /// paper as BTS with "a big enough time deadline".
    Db,
    /// Preferential Best Effort — no guarantees, preferred over BE
    /// (web / database access).
    Pbe,
    /// Best Effort (mail, ftp, …).
    Be,
    /// Challenged — below best effort.
    Ch,
}

impl TrafficClass {
    /// Classes whose requirements are guaranteed through the
    /// high-priority table under the paper's proposal.
    #[must_use]
    pub fn is_guaranteed(self) -> bool {
        matches!(self, TrafficClass::Bts | TrafficClass::Db)
    }
}

impl fmt::Display for TrafficClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TrafficClass::Bts => "BTS",
            TrafficClass::Db => "DB",
            TrafficClass::Pbe => "PBE",
            TrafficClass::Be => "BE",
            TrafficClass::Ch => "CH",
        };
        f.write_str(s)
    }
}

/// Static features of one service level (a row of the paper's Table 1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SlProfile {
    /// The service level.
    pub sl: ServiceLevel,
    /// Traffic class served by the SL.
    pub class: TrafficClass,
    /// Maximum distance between consecutive high-priority entries
    /// (`None` for best-effort SLs, which use the low-priority table).
    pub distance: Option<Distance>,
    /// Mean-bandwidth range (Mbps) of connections admitted on the SL.
    pub bandwidth_mbps: (f64, f64),
}

impl SlProfile {
    /// Whether a connection of mean bandwidth `mbps` belongs in this SL's
    /// bandwidth stratum.
    #[must_use]
    pub fn bandwidth_in_range(&self, mbps: f64) -> bool {
        mbps >= self.bandwidth_mbps.0 && mbps <= self.bandwidth_mbps.1
    }
}

/// The complete SL configuration of a subnet: which SLs exist, their
/// distances and bandwidth strata, plus the best-effort levels.
#[derive(Clone, Debug)]
pub struct SlTable {
    profiles: Vec<SlProfile>,
}

/// Number of QoS (guaranteed) service levels in the paper's Table 1.
pub const QOS_SLS: usize = 10;
/// SL used for preferential best effort under this configuration.
pub const SL_PBE: u8 = 10;
/// SL used for best effort.
pub const SL_BE: u8 = 11;
/// SL used for challenged traffic.
pub const SL_CH: u8 = 12;

impl SlTable {
    /// The paper's Table 1 (values reconstructed — see DESIGN.md §4):
    /// ten QoS SLs classified by maximum distance, with the most used
    /// distances (32 and 64) subdivided by mean bandwidth, plus the three
    /// best-effort levels served from the low-priority table.
    #[must_use]
    pub fn paper_table1() -> Self {
        // Literal SL ids, all <= 12 (in-module access to the private field).
        let sl = |i: u8| ServiceLevel(i);
        let profiles = vec![
            SlProfile {
                sl: sl(0),
                class: TrafficClass::Bts,
                distance: Some(Distance::D2),
                bandwidth_mbps: (1.0, 4.0),
            },
            SlProfile {
                sl: sl(1),
                class: TrafficClass::Bts,
                distance: Some(Distance::D4),
                bandwidth_mbps: (1.0, 4.0),
            },
            SlProfile {
                sl: sl(2),
                class: TrafficClass::Bts,
                distance: Some(Distance::D8),
                bandwidth_mbps: (1.0, 8.0),
            },
            SlProfile {
                sl: sl(3),
                class: TrafficClass::Bts,
                distance: Some(Distance::D16),
                bandwidth_mbps: (1.0, 8.0),
            },
            SlProfile {
                sl: sl(4),
                class: TrafficClass::Bts,
                distance: Some(Distance::D32),
                bandwidth_mbps: (1.0, 8.0),
            },
            SlProfile {
                sl: sl(5),
                class: TrafficClass::Bts,
                distance: Some(Distance::D32),
                bandwidth_mbps: (8.0, 32.0),
            },
            SlProfile {
                sl: sl(6),
                class: TrafficClass::Db,
                distance: Some(Distance::D64),
                bandwidth_mbps: (1.0, 8.0),
            },
            SlProfile {
                sl: sl(7),
                class: TrafficClass::Db,
                distance: Some(Distance::D64),
                bandwidth_mbps: (8.0, 32.0),
            },
            SlProfile {
                sl: sl(8),
                class: TrafficClass::Db,
                distance: Some(Distance::D64),
                bandwidth_mbps: (32.0, 64.0),
            },
            SlProfile {
                sl: sl(9),
                class: TrafficClass::Db,
                distance: Some(Distance::D64),
                bandwidth_mbps: (64.0, 128.0),
            },
            SlProfile {
                sl: sl(SL_PBE),
                class: TrafficClass::Pbe,
                distance: None,
                bandwidth_mbps: (0.0, f64::INFINITY),
            },
            SlProfile {
                sl: sl(SL_BE),
                class: TrafficClass::Be,
                distance: None,
                bandwidth_mbps: (0.0, f64::INFINITY),
            },
            SlProfile {
                sl: sl(SL_CH),
                class: TrafficClass::Ch,
                distance: None,
                bandwidth_mbps: (0.0, f64::INFINITY),
            },
        ];
        SlTable { profiles }
    }

    /// All configured profiles.
    #[must_use]
    pub fn profiles(&self) -> &[SlProfile] {
        &self.profiles
    }

    /// Profiles of the guaranteed (QoS) service levels only.
    pub fn qos_profiles(&self) -> impl Iterator<Item = &SlProfile> {
        self.profiles.iter().filter(|p| p.class.is_guaranteed())
    }

    /// The profile of a given SL, if configured.
    #[must_use]
    pub fn profile(&self, sl: ServiceLevel) -> Option<&SlProfile> {
        self.profiles.iter().find(|p| p.sl == sl)
    }

    /// Classifies a QoS connection request into an SL: among the
    /// profiles whose distance is **at least as strict** as required and
    /// whose bandwidth stratum contains `mbps`, the loosest-distance one
    /// is chosen (using a stricter SL than needed wastes table entries).
    ///
    /// Falls back to ignoring the bandwidth stratum (any SL of a valid
    /// distance) before giving up, so out-of-range bandwidths still get
    /// the correct latency treatment.
    #[must_use]
    pub fn classify(&self, required: Distance, mbps: f64) -> Option<ServiceLevel> {
        let candidates = || {
            self.qos_profiles().filter_map(move |p| {
                let d = p.distance?;
                d.at_least_as_strict(required).then_some((p, d))
            })
        };
        candidates()
            .filter(|(p, _)| p.bandwidth_in_range(mbps))
            .max_by_key(|(_, d)| d.slots())
            .or_else(|| candidates().max_by_key(|(_, d)| d.slots()))
            .map(|(p, _)| p.sl)
    }
}

/// The `SLtoVLMappingTable` configured at the input of each link.
///
/// The default maps each SL to its own data VL (possible when the port
/// implements 16 VLs, as in the paper's evaluation). When fewer VLs are
/// available the administrator collapses several SLs onto one VL — the
/// mapped VL then carries the most restrictive requirement among them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SlToVlMap {
    map: [VirtualLane; 16],
}

impl Default for SlToVlMap {
    fn default() -> Self {
        Self::identity()
    }
}

impl SlToVlMap {
    /// SLn → VLn for n in 0..=14; SL15 → VL15.
    #[must_use]
    pub fn identity() -> Self {
        let mut map = [VirtualLane::VL15; 16];
        for (i, slot) in map.iter_mut().enumerate().take(15) {
            *slot = VirtualLane::data(i as u8);
        }
        SlToVlMap { map }
    }

    /// A mapping for a port with fewer VLs that keeps the QoS/best-effort
    /// separation intact: the ten QoS SLs (0–9) are folded round-robin
    /// onto `n_qos_vls` lanes, and the three best-effort SLs keep three
    /// dedicated lanes right after them (so low-priority traffic can
    /// never ride a high-priority table entry).
    ///
    /// Uses `n_qos_vls + 3` data VLs in total; `n_qos_vls` must be
    /// 1..=12.
    #[must_use]
    pub fn collapsed_qos(n_qos_vls: u8) -> Self {
        assert!((1..=12).contains(&n_qos_vls), "need room for 3 BE lanes");
        let mut map = [VirtualLane::VL15; 16];
        for (i, slot) in map.iter_mut().enumerate().take(QOS_SLS) {
            *slot = VirtualLane::data((i as u8) % n_qos_vls);
        }
        map[SL_PBE as usize] = VirtualLane::data(n_qos_vls);
        map[SL_BE as usize] = VirtualLane::data(n_qos_vls + 1);
        map[SL_CH as usize] = VirtualLane::data(n_qos_vls + 2);
        // Remaining SLs (13, 14) share the last best-effort lane.
        map[13] = VirtualLane::data(n_qos_vls + 2);
        map[14] = VirtualLane::data(n_qos_vls + 2);
        SlToVlMap { map }
    }

    /// Overrides the VL for one SL.
    pub fn set(&mut self, sl: ServiceLevel, vl: VirtualLane) {
        assert!(sl.index() != 15, "SL15 mapping is fixed to VL15");
        self.map[sl.index()] = vl;
    }

    /// The VL packets of `sl` travel on.
    #[must_use]
    pub fn vl(&self, sl: ServiceLevel) -> VirtualLane {
        self.map[sl.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_shape() {
        let t = SlTable::paper_table1();
        assert_eq!(t.qos_profiles().count(), QOS_SLS);
        assert_eq!(t.profiles().len(), QOS_SLS + 3);
        // Distances cover the whole permitted spectrum.
        for d in Distance::ALL {
            assert!(
                t.qos_profiles().any(|p| p.distance == Some(d)),
                "no SL with {d}"
            );
        }
        // The most used distances are subdivided by bandwidth.
        assert_eq!(
            t.qos_profiles()
                .filter(|p| p.distance == Some(Distance::D32))
                .count(),
            2
        );
        assert_eq!(
            t.qos_profiles()
                .filter(|p| p.distance == Some(Distance::D64))
                .count(),
            4
        );
    }

    #[test]
    fn classify_prefers_loosest_sufficient_distance() {
        let t = SlTable::paper_table1();
        // A 2 Mbps connection content with d=64 goes to SL6 (1-8 Mbps @ d64).
        assert_eq!(t.classify(Distance::D64, 2.0).unwrap().raw(), 6);
        // Same bandwidth but needing d=8 goes to SL2.
        assert_eq!(t.classify(Distance::D8, 2.0).unwrap().raw(), 2);
        // High-bandwidth loose-latency goes to the right stratum.
        assert_eq!(t.classify(Distance::D64, 100.0).unwrap().raw(), 9);
        assert_eq!(t.classify(Distance::D64, 20.0).unwrap().raw(), 7);
    }

    #[test]
    fn classify_falls_back_when_bandwidth_out_of_stratum() {
        let t = SlTable::paper_table1();
        // 100 Mbps at d=8: no d<=8 stratum contains it, but SL2 still
        // provides the latency guarantee.
        let sl = t.classify(Distance::D8, 100.0).unwrap();
        assert_eq!(sl.raw(), 2);
    }

    #[test]
    fn classify_respects_strictness() {
        let t = SlTable::paper_table1();
        for req in Distance::ALL {
            for mbps in [1.0, 4.0, 16.0, 64.0, 128.0] {
                if let Some(sl) = t.classify(req, mbps) {
                    let d = t.profile(sl).unwrap().distance.unwrap();
                    assert!(d.at_least_as_strict(req));
                }
            }
        }
    }

    #[test]
    fn identity_map() {
        let m = SlToVlMap::identity();
        for i in 0..15u8 {
            assert_eq!(m.vl(ServiceLevel::new(i).unwrap()).raw(), i);
        }
        assert!(m.vl(ServiceLevel::new(15).unwrap()).is_management());
    }

    #[test]
    fn collapsed_qos_keeps_be_separate() {
        let m = SlToVlMap::collapsed_qos(4);
        let qos_vls: std::collections::BTreeSet<u8> = (0..10)
            .map(|i| m.vl(ServiceLevel::new(i).unwrap()).raw())
            .collect();
        assert!(qos_vls.iter().all(|&v| v < 4));
        for be in [SL_PBE, SL_BE, SL_CH] {
            let v = m.vl(ServiceLevel::new(be).unwrap()).raw();
            assert!(!qos_vls.contains(&v), "SL{be} shares a QoS lane");
        }
        // Distinct BE lanes.
        assert_eq!(m.vl(ServiceLevel::new(SL_PBE).unwrap()).raw(), 4);
        assert_eq!(m.vl(ServiceLevel::new(SL_BE).unwrap()).raw(), 5);
        assert_eq!(m.vl(ServiceLevel::new(SL_CH).unwrap()).raw(), 6);
    }

    #[test]
    #[should_panic(expected = "room for 3 BE lanes")]
    fn collapsed_qos_needs_room() {
        let _ = SlToVlMap::collapsed_qos(13);
    }

    #[test]
    fn collapsed_map_wraps() {
        // The QoS SLs wrap round-robin onto the QoS lanes; SL15 stays
        // on VL15.
        let m = SlToVlMap::collapsed_qos(4);
        assert_eq!(m.vl(ServiceLevel::new(0).unwrap()).raw(), 0);
        assert_eq!(m.vl(ServiceLevel::new(5).unwrap()).raw(), 1);
        assert_eq!(m.vl(ServiceLevel::new(9).unwrap()).raw(), 1);
        assert_eq!(m.vl(ServiceLevel::new(14).unwrap()).raw(), 6);
        assert!(m.vl(ServiceLevel::new(15).unwrap()).is_management());
    }
}
