//! Per-run bloom filters for point-lookup skip.
//!
//! Each immutable sorted run (SST) carries a bloom filter over its key set
//! so a point lookup can skip runs that certainly do not contain the key.
//! The filter is deterministic (no random seeds) so same-seed simulations
//! stay byte-identical: two FNV-1a hashes combined by double hashing derive
//! the `k` probe positions, the standard Kirsch–Mitzenmacher construction.
//!
//! Sizing targets ~10 bits per key with 7 probes, giving a false-positive
//! rate under 1% — and, as for any bloom filter, **zero false negatives**:
//! `may_contain` returns true for every inserted key (property-tested in
//! `tests/lsm_prop.rs`).

/// A fixed-size bloom filter over byte-string keys.
#[derive(Clone, Debug)]
pub struct BloomFilter {
    bits: Vec<u64>,
    nbits: u64,
    k: u32,
}

const BITS_PER_KEY: usize = 10;
const NUM_PROBES: u32 = 7;

/// FNV-1a with a caller-chosen offset basis, so two independent hash
/// functions come from one loop.
fn fnv1a(basis: u64, bytes: &[u8]) -> u64 {
    let mut h = basis;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

impl BloomFilter {
    /// A filter sized for `expected_keys` insertions.
    pub fn with_capacity(expected_keys: usize) -> BloomFilter {
        let nbits = (expected_keys.max(1) * BITS_PER_KEY).next_multiple_of(64) as u64;
        BloomFilter {
            bits: vec![0; (nbits / 64) as usize],
            nbits,
            k: NUM_PROBES,
        }
    }

    fn probe_bits(&self, key: &[u8]) -> impl Iterator<Item = u64> + '_ {
        let h1 = fnv1a(0xcbf2_9ce4_8422_2325, key);
        // A distinct basis yields an independent second hash; force it odd
        // so double hashing walks every residue even for power-of-two sizes.
        let h2 = fnv1a(0x6c62_272e_07bb_0142, key) | 1;
        (0..self.k as u64).map(move |i| h1.wrapping_add(i.wrapping_mul(h2)) % self.nbits)
    }

    /// Record `key` in the filter.
    pub fn insert(&mut self, key: &[u8]) {
        let positions: Vec<u64> = self.probe_bits(key).collect();
        for pos in positions {
            self.bits[(pos / 64) as usize] |= 1 << (pos % 64);
        }
    }

    /// False means the key is certainly absent; true means it may be
    /// present (subject to the false-positive rate).
    pub fn may_contain(&self, key: &[u8]) -> bool {
        self.probe_bits(key)
            .all(|pos| self.bits[(pos / 64) as usize] & (1 << (pos % 64)) != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inserted_keys_always_hit() {
        let mut f = BloomFilter::with_capacity(500);
        for i in 0..500u32 {
            f.insert(format!("key-{i}").as_bytes());
        }
        for i in 0..500u32 {
            assert!(f.may_contain(format!("key-{i}").as_bytes()));
        }
    }

    #[test]
    fn absent_keys_mostly_miss() {
        let mut f = BloomFilter::with_capacity(1000);
        for i in 0..1000u32 {
            f.insert(format!("present-{i}").as_bytes());
        }
        let fp = (0..1000u32)
            .filter(|i| f.may_contain(format!("absent-{i}").as_bytes()))
            .count();
        // ~10 bits/key, 7 probes => <1% expected; allow generous slack.
        assert!(fp < 50, "false positive rate too high: {fp}/1000");
    }

    #[test]
    fn empty_filter_rejects_everything() {
        let f = BloomFilter::with_capacity(16);
        assert!(!f.may_contain(b"anything"));
    }

    #[test]
    fn deterministic_across_instances() {
        let build = || {
            let mut f = BloomFilter::with_capacity(64);
            for i in 0..64u32 {
                f.insert(format!("k{i}").as_bytes());
            }
            f
        };
        let (a, b) = (build(), build());
        assert_eq!(a.bits, b.bits);
    }
}
