//! Weight arithmetic: the IBA arbitration weight unit and the mapping
//! between requested mean bandwidth and table weight.

/// One arbitration weight unit corresponds to 64 bytes of payload credit
/// (IBA 1.0, §7.6.9).
pub const WEIGHT_UNIT_BYTES: u64 = 64;

/// Maximum weight a single table entry can carry.
pub const MAX_ENTRY_WEIGHT: u16 = 255;

/// Maximum accumulated weight of a fully loaded 64-entry table.
pub const MAX_TABLE_WEIGHT: u32 = 64 * MAX_ENTRY_WEIGHT as u32; // 16320

/// A (possibly multi-entry) weight amount, in 64-byte units.
///
/// A single table slot holds at most [`MAX_ENTRY_WEIGHT`]; larger weights
/// are spread across several slots of a sequence.
pub type Weight = u32;

/// Number of 64-byte weight units consumed by transmitting `bytes`
/// bytes, rounded **up** to whole units ("always rounded up as a whole
/// packet" — weight is debited per packet in 64-byte units).
#[must_use]
pub fn bytes_to_weight_units(bytes: u64) -> u64 {
    bytes.div_ceil(WEIGHT_UNIT_BYTES)
}

/// Translates a mean-bandwidth request into a table weight.
///
/// A connection asking for `bandwidth_mbps` on a link of
/// `link_mbps` capacity reserves the fraction `f = bandwidth / link` of
/// the link; to guarantee that share even when the table is fully
/// weighted, the connection must own `ceil(f · MAX_TABLE_WEIGHT)` weight
/// units (the paper: "a request of a certain bandwidth was treated in
/// each switch as a request of the corresponding weight in the
/// arbitration table").
///
/// Returns `None` when the request exceeds the link capacity.
#[must_use]
pub fn weight_for_bandwidth(bandwidth_mbps: f64, link_mbps: f64) -> Option<Weight> {
    if bandwidth_mbps <= 0.0
        || link_mbps <= 0.0
        || bandwidth_mbps > link_mbps
        || bandwidth_mbps.is_nan()
    {
        return None;
    }
    let scaled = bandwidth_mbps / link_mbps * f64::from(MAX_TABLE_WEIGHT);
    // The ceiling without `f64::ceil`, a library call on the baseline
    // x86-64 target: `scaled` is at most 16,320, so its truncation is
    // exact and it rounds up exactly when it exceeds the truncation.
    let whole = scaled as Weight;
    let w = whole + Weight::from(f64::from(whole) < scaled);
    Some(w.max(1))
}

/// Inverse of [`weight_for_bandwidth`]: the bandwidth (Mbps) guaranteed
/// by owning `weight` units on a `link_mbps` link with a fully weighted
/// table (worst case).
#[must_use]
pub fn bandwidth_for_weight(weight: Weight, link_mbps: f64) -> f64 {
    link_mbps * weight as f64 / MAX_TABLE_WEIGHT as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_rounding_is_per_packet() {
        assert_eq!(bytes_to_weight_units(0), 0);
        assert_eq!(bytes_to_weight_units(1), 1);
        assert_eq!(bytes_to_weight_units(64), 1);
        assert_eq!(bytes_to_weight_units(65), 2);
        assert_eq!(bytes_to_weight_units(256), 4);
        assert_eq!(bytes_to_weight_units(4096), 64);
    }

    #[test]
    fn weight_scales_with_fraction() {
        // Full link => whole table weight.
        assert_eq!(weight_for_bandwidth(2500.0, 2500.0), Some(MAX_TABLE_WEIGHT));
        // Half link => half the table weight.
        assert_eq!(
            weight_for_bandwidth(1250.0, 2500.0),
            Some(MAX_TABLE_WEIGHT / 2)
        );
    }

    #[test]
    fn tiny_requests_get_at_least_one_unit() {
        let w = weight_for_bandwidth(0.01, 2500.0).unwrap();
        assert!(w >= 1);
    }

    #[test]
    fn over_capacity_rejected() {
        assert_eq!(weight_for_bandwidth(2501.0, 2500.0), None);
        assert_eq!(weight_for_bandwidth(0.0, 2500.0), None);
        assert_eq!(weight_for_bandwidth(-1.0, 2500.0), None);
    }

    #[test]
    fn weight_bandwidth_roundtrip_is_conservative() {
        // The guaranteed bandwidth of the granted weight always covers the
        // request (ceil rounding is in the connection's favour).
        for mbps in [0.5, 1.0, 4.0, 16.0, 64.0, 128.0, 333.3] {
            let w = weight_for_bandwidth(mbps, 2500.0).unwrap();
            assert!(
                bandwidth_for_weight(w, 2500.0) >= mbps - 1e-9,
                "granted weight {w} under-covers {mbps} Mbps"
            );
        }
    }

    /// The rounding `weight_for_bandwidth` replaced.
    fn ceil_weight(bandwidth_mbps: f64, link_mbps: f64) -> Weight {
        let w = (bandwidth_mbps / link_mbps * f64::from(MAX_TABLE_WEIGHT)).ceil() as Weight;
        w.max(1)
    }

    #[test]
    fn integer_rounding_equals_ceil_at_every_table1_bandwidth() {
        const LINK_MBPS: f64 = 2500.0;
        // `iba_sim::config::IBA_HEADER_BYTES`, and no modelled header.
        const HEADER_BYTES: [u32; 2] = [0, 26];
        let mut checked = 0;
        for profile in crate::SlTable::paper_table1().qos_profiles() {
            let (lo, hi) = profile.bandwidth_mbps;
            for mtu in [256u32, 1024, 2048, 4096] {
                for header in HEADER_BYTES {
                    // The admission's gross (wire) factor for this MTU.
                    let gross = f64::from(mtu + header) / f64::from(mtu);
                    for k in 0..=4000 {
                        let mbps = (lo + (hi - lo) * f64::from(k) / 4000.0) * gross;
                        for mbps in [mbps, mbps.next_down(), mbps.next_up()] {
                            assert_eq!(
                                weight_for_bandwidth(mbps, LINK_MBPS),
                                Some(ceil_weight(mbps, LINK_MBPS)),
                                "{mbps} Mbps (mtu {mtu}, header {header})"
                            );
                            checked += 1;
                        }
                    }
                }
            }
        }
        assert!(checked > 500_000, "{checked} bandwidths checked");
    }

    #[test]
    fn integer_rounding_equals_ceil_on_exact_products() {
        // Bandwidths whose scaled weight is an exact integer, where
        // rounding up must not add a unit.
        let mut exact = 0;
        for link in [2500.0, 10_000.0, f64::from(MAX_TABLE_WEIGHT)] {
            for k in 1..=MAX_TABLE_WEIGHT {
                let mbps = link * f64::from(k) / f64::from(MAX_TABLE_WEIGHT);
                let scaled = mbps / link * f64::from(MAX_TABLE_WEIGHT);
                if scaled.fract() == 0.0 {
                    exact += 1;
                }
                assert_eq!(
                    weight_for_bandwidth(mbps, link),
                    Some(ceil_weight(mbps, link)),
                    "{mbps} of {link} Mbps"
                );
            }
        }
        assert!(exact > 35_000, "{exact} exact products");
    }

    #[test]
    fn example_from_design_doc() {
        // 128 Mbps on a 2.5 Gbps link needs 836 units => 4 entries by weight.
        let w = weight_for_bandwidth(128.0, 2500.0).unwrap();
        assert_eq!(w, 836);
        assert_eq!(w.div_ceil(MAX_ENTRY_WEIGHT as u32), 4);
    }
}
