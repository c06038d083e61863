//! Bit-reversal permutation — the probe order of the paper's allocator.
//!
//! For a request of distance `d = 2^i` the candidate start offsets
//! `j ∈ [0, d)` are inspected in the order `rev_i(0), rev_i(1), …,
//! rev_i(d-1)`, where `rev_i` reverses the `i` low bits. This fills even
//! offsets before odd ones at every scale, which is exactly what keeps
//! the residual free entries able to serve the most restrictive
//! (distance-2) request for as long as possible.

/// Reverses the `bits` least-significant bits of `value`.
///
/// `value` must be `< 2^bits`; bits above are ignored by construction.
#[must_use]
pub fn bit_reverse(value: u32, bits: u32) -> u32 {
    debug_assert!(bits <= 32);
    if bits == 0 {
        return 0;
    }
    value.reverse_bits() >> (32 - bits)
}

/// `bit_reverse(b, 6)` for every six-bit `b`.
const REVERSED_6: [u8; 64] = {
    let mut table = [0; 64];
    let mut b = 0;
    while b < 64 {
        table[b] = (b as u8).reverse_bits() >> 2;
        b += 1;
    }
    table
};

/// [`bit_reverse`] for `bits <= 6` (an entry set's index `i`) by one
/// table load in place of the shifts and masks: reversing `value < 2^bits`
/// in six bits leaves it `6 - bits` places too far left.
#[must_use]
pub(crate) fn bit_reverse_6(value: usize, bits: u32) -> usize {
    debug_assert!(bits <= 6 && value < 1 << bits);
    usize::from(REVERSED_6[value & 63]) >> (6 - bits)
}

/// The probe order for a request of distance `2^log2_distance`:
/// yields `rev(0), rev(1), …, rev(2^log2_distance - 1)`.
///
/// Example from the paper (`d = 8 = 2^3`): `0, 4, 2, 6, 1, 5, 3, 7`.
pub fn probe_order(log2_distance: u32) -> impl Iterator<Item = u32> {
    let n = 1u32 << log2_distance;
    (0..n).map(move |k| bit_reverse(k, log2_distance))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_bits_is_identity_zero() {
        assert_eq!(bit_reverse(0, 0), 0);
    }

    #[test]
    fn single_bit() {
        assert_eq!(bit_reverse(0, 1), 0);
        assert_eq!(bit_reverse(1, 1), 1);
    }

    #[test]
    fn three_bits_matches_paper_example() {
        // "the order to inspect the sets for a request of distance d = 8 =
        //  2^3 is E3,0, E3,4, E3,2, E3,6, E3,1, E3,5, E3,3, E3,7"
        let order: Vec<u32> = probe_order(3).collect();
        assert_eq!(order, vec![0, 4, 2, 6, 1, 5, 3, 7]);
    }

    #[test]
    fn probe_order_is_a_permutation() {
        for bits in 0..=6 {
            let mut order: Vec<u32> = probe_order(bits).collect();
            assert_eq!(order.len(), 1 << bits);
            order.sort_unstable();
            let expect: Vec<u32> = (0..1u32 << bits).collect();
            assert_eq!(order, expect);
        }
    }

    #[test]
    fn bit_reverse_is_involutive() {
        for bits in 1..=6 {
            for v in 0..1u32 << bits {
                assert_eq!(bit_reverse(bit_reverse(v, bits), bits), v);
            }
        }
    }

    #[test]
    fn the_table_reverses_as_the_shifts_do() {
        for bits in 0..=6 {
            for v in 0..1u32 << bits {
                assert_eq!(
                    bit_reverse_6(v as usize, bits),
                    bit_reverse(v, bits) as usize
                );
            }
        }
    }

    #[test]
    fn evens_probed_before_odds() {
        // The defining property: for every scale, all even offsets come
        // before any odd offset.
        for bits in 1..=6 {
            let order: Vec<u32> = probe_order(bits).collect();
            let half = order.len() / 2;
            assert!(order[..half].iter().all(|&j| j % 2 == 0));
            assert!(order[half..].iter().all(|&j| j % 2 == 1));
        }
    }
}
