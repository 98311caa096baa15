//! One fixed hasher for the per-op maps the simulation only ever looks up
//! in (the transport's in-flight RPCs, a range's timestamp cache).
//!
//! std's default `RandomState` seeds SipHash-1-3 per map: DoS-resistant and
//! comparatively slow, and neither matters for keys the simulation makes
//! itself. [`MulRotate`] folds each 8-byte word in with one rotate, xor and
//! multiply (the FxHash step). It is not seeded, so a map's layout is the
//! same from run to run; what the simulation observes still never depends
//! on it, since these maps are never walked (the hash-walk clippy gates in
//! `crates/{kv,storage}/clippy.toml`).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The FxHash multiplier: odd, with its bits spread over the word.
const K: u64 = 0x517c_c1b7_2722_0a95;

/// Multiply-rotate hasher; see the module doc.
#[derive(Clone, Copy, Debug, Default)]
pub struct MulRotate(u64);

impl MulRotate {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for MulRotate {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let mut word = [0; 8];
            word.copy_from_slice(w);
            self.add(u64::from_le_bytes(word));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut word = [0; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(n.into());
    }

    fn write_u32(&mut self, n: u32) {
        self.add(n.into());
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// A `HashMap` hashed by [`MulRotate`]: for lookups only, never walked.
pub type LookupMap<K, V> = HashMap<K, V, BuildHasherDefault<MulRotate>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash(v: impl Hash) -> u64 {
        BuildHasherDefault::<MulRotate>::default().hash_one(v)
    }

    #[test]
    fn fixed_and_sensitive_to_every_byte_and_the_length() {
        assert_eq!(hash(b"key".as_slice()), hash(b"key".as_slice()));
        assert_ne!(hash(b"key".as_slice()), hash(b"kez".as_slice()));
        // A trailing zero byte pads like the remainder, but the length
        // prefix tells them apart.
        assert_ne!(hash(b"key".as_slice()), hash(b"key\0".as_slice()));
        assert_ne!(
            hash(b"0123456789".as_slice()),
            hash(b"0123456788".as_slice())
        );
        assert_ne!(hash(1u64), hash(2u64));
    }

    #[test]
    fn a_lookup_map_finds_what_it_holds() {
        let mut m: LookupMap<u64, u64> = LookupMap::default();
        for i in 0..1000 {
            m.insert(i, i * i);
        }
        assert!((0..1000).all(|i| m.get(&i) == Some(&(i * i))));
        assert_eq!(m.get(&1000), None);
    }
}
