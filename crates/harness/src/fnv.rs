//! FNV-1a, the workspace's equality witness: table digests fold bytes,
//! delivery digests fold 64-bit words. Both are order-sensitive, so
//! two digests match iff the same values arrived in the same order.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// A running FNV-1a 64-bit digest.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(OFFSET)
    }
}

impl Fnv64 {
    /// Folds one 64-bit word.
    #[inline]
    pub fn word(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(PRIME);
    }

    /// The digest so far.
    #[must_use]
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a over a byte string, one byte per fold.
#[must_use]
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::default();
    for &b in bytes {
        h.word(u64::from(b));
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_vectors() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
