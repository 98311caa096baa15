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

/// The two hashes a filter derives its probe positions from. Taken once per
/// key and shown to every run's filter: with several runs per replica a
/// point lookup hashes its key once, not once per run.
#[derive(Clone, Copy, Debug)]
pub struct KeyHash(u64, u64);

impl KeyHash {
    /// FNV-1a from two offset bases, both in one pass over the key.
    pub fn of(key: &[u8]) -> KeyHash {
        let (mut h1, mut h2) = (0xcbf2_9ce4_8422_2325u64, 0x6c62_272e_07bb_0142u64);
        for &b in key {
            h1 = (h1 ^ b as u64).wrapping_mul(0x100_0000_01b3);
            h2 = (h2 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
        // A distinct basis yields an independent second hash; force it odd
        // so double hashing walks every residue even for power-of-two sizes.
        KeyHash(h1, h2 | 1)
    }
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

    fn probe_bits(&self, KeyHash(h1, h2): KeyHash) -> impl Iterator<Item = u64> {
        let nbits = self.nbits;
        (0..self.k as u64).map(move |i| h1.wrapping_add(i.wrapping_mul(h2)) % nbits)
    }

    /// Record a key in the filter.
    pub fn insert(&mut self, key: KeyHash) {
        for pos in self.probe_bits(key) {
            self.bits[(pos / 64) as usize] |= 1 << (pos % 64);
        }
    }

    /// False means the key is certainly absent; true means it may be
    /// present (subject to the false-positive rate).
    pub fn may_contain(&self, key: KeyHash) -> bool {
        self.probe_bits(key)
            .all(|pos| self.bits[(pos / 64) as usize] & (1 << (pos % 64)) != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(key: impl AsRef<[u8]>) -> KeyHash {
        KeyHash::of(key.as_ref())
    }

    #[test]
    fn inserted_keys_always_hit() {
        let mut f = BloomFilter::with_capacity(500);
        for i in 0..500u32 {
            f.insert(h(format!("key-{i}")));
        }
        for i in 0..500u32 {
            assert!(f.may_contain(h(format!("key-{i}"))));
        }
    }

    #[test]
    fn absent_keys_mostly_miss() {
        let mut f = BloomFilter::with_capacity(1000);
        for i in 0..1000u32 {
            f.insert(h(format!("present-{i}")));
        }
        let fp = (0..1000u32)
            .filter(|i| f.may_contain(h(format!("absent-{i}"))))
            .count();
        // ~10 bits/key, 7 probes => <1% expected; allow generous slack.
        assert!(fp < 50, "false positive rate too high: {fp}/1000");
    }

    #[test]
    fn empty_filter_rejects_everything() {
        let f = BloomFilter::with_capacity(16);
        assert!(!f.may_contain(h("anything")));
    }

    #[test]
    fn deterministic_across_instances() {
        let build = || {
            let mut f = BloomFilter::with_capacity(64);
            for i in 0..64u32 {
                f.insert(h(format!("k{i}")));
            }
            f
        };
        let (a, b) = (build(), build());
        assert_eq!(a.bits, b.bits);
    }
}
