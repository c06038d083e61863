//! The QoS workload generator: an endless stream of connection requests
//! drawn from the SL table, which the admission control consumes until
//! the fabric is "quasi-fully loaded" (the paper establishes connections
//! until no more fit under the 80% reservation cap).

use crate::request::ConnectionRequest;
use iba_core::rng::SplitMix64;
use iba_core::{SlProfile, SlTable};
use iba_topo::{HostId, Topology};

/// Parameters of the request stream.
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// Packet size every connection uses (the paper runs the whole
    /// evaluation twice: small and large packets).
    pub packet_bytes: u32,
    /// RNG seed.
    pub seed: u64,
}

impl WorkloadConfig {
    /// Workload with the given packet size and seed.
    #[must_use]
    pub fn new(packet_bytes: u32, seed: u64) -> Self {
        WorkloadConfig { packet_bytes, seed }
    }
}

/// Infinite iterator of connection requests: cycles over the QoS SLs
/// round-robin (so every SL gets admission attempts), drawing uniform
/// random (src, dst) pairs and a uniform bandwidth within the SL's
/// stratum — the paper: "CBR traffic, randomly generated among the
/// bandwidth range of each SL".
pub struct RequestGenerator {
    profiles: Vec<SlProfile>,
    hosts: u16,
    packet_bytes: u32,
    rng: SplitMix64,
    next_id: u32,
    next_profile: usize,
}

impl RequestGenerator {
    /// Builds a generator over the QoS profiles of `sl_table`.
    #[must_use]
    pub fn new(topo: &Topology, sl_table: &SlTable, config: &WorkloadConfig) -> Self {
        let profiles: Vec<SlProfile> = sl_table.qos_profiles().copied().collect();
        assert!(!profiles.is_empty(), "no QoS service levels configured");
        assert!(topo.num_hosts() >= 2, "need at least two hosts");
        RequestGenerator {
            profiles,
            hosts: topo.num_hosts() as u16,
            packet_bytes: config.packet_bytes,
            rng: SplitMix64::seed_from_u64(config.seed),
            next_id: 0,
            next_profile: 0,
        }
    }

    /// Ids handed out so far.
    #[must_use]
    pub fn issued(&self) -> u32 {
        self.next_id
    }

    /// Draws the next request (always succeeds; admission may reject it).
    pub fn next_request(&mut self) -> ConnectionRequest {
        let profile = self.profiles[self.next_profile];
        self.next_profile = (self.next_profile + 1) % self.profiles.len();

        let src = HostId(self.rng.gen_range(0..self.hosts));
        let dst = loop {
            let d = HostId(self.rng.gen_range(0..self.hosts));
            if d != src {
                break d;
            }
        };
        let (lo, hi) = profile.bandwidth_mbps;
        let mean_bw_mbps = if (hi - lo).abs() < f64::EPSILON {
            lo
        } else {
            self.rng.gen_range(lo..hi)
        };
        let id = self.next_id;
        self.next_id += 1;
        ConnectionRequest {
            id,
            src,
            dst,
            sl: profile.sl,
            distance: profile
                .distance
                .expect("QoS profiles always carry a distance"),
            mean_bw_mbps,
            packet_bytes: self.packet_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iba_topo::irregular::{generate, IrregularConfig};

    fn gen() -> RequestGenerator {
        let topo = generate(IrregularConfig::paper_default(0));
        RequestGenerator::new(
            &topo,
            &SlTable::paper_table1(),
            &WorkloadConfig::new(256, 7),
        )
    }

    #[test]
    fn round_robins_over_all_sls() {
        let mut g = gen();
        let sls: Vec<u8> = (0..20).map(|_| g.next_request().sl.raw()).collect();
        assert_eq!(&sls[..10], &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(&sls[10..], &sls[..10]);
    }

    #[test]
    fn bandwidth_stays_in_stratum() {
        let topo = generate(IrregularConfig::paper_default(0));
        let table = SlTable::paper_table1();
        let mut g = RequestGenerator::new(&topo, &table, &WorkloadConfig::new(256, 3));
        for _ in 0..200 {
            let r = g.next_request();
            let p = table.profile(r.sl).unwrap();
            assert!(
                p.bandwidth_in_range(r.mean_bw_mbps),
                "{} got {} Mbps",
                r.sl,
                r.mean_bw_mbps
            );
            assert_eq!(Some(r.distance), p.distance);
        }
    }

    #[test]
    fn ids_are_dense_and_unique() {
        let mut g = gen();
        for i in 0..50 {
            assert_eq!(g.next_request().id, i);
        }
        assert_eq!(g.issued(), 50);
    }

    #[test]
    fn src_and_dst_differ() {
        let mut g = gen();
        for _ in 0..200 {
            let r = g.next_request();
            assert_ne!(r.src, r.dst);
        }
    }

    #[test]
    fn deterministic_stream() {
        let a: Vec<_> = {
            let mut g = gen();
            (0..30).map(|_| g.next_request()).collect()
        };
        let b: Vec<_> = {
            let mut g = gen();
            (0..30).map(|_| g.next_request()).collect()
        };
        assert_eq!(a, b);
    }
}
