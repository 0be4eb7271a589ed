//! Fast non-cryptographic hashing for hot-path maps.
//!
//! `std::collections::HashMap` defaults to SipHash-1-3, which is
//! DoS-resistant but costs real cycles on the engine's per-row maps
//! (row-id → slot, index keys, join tables). Those maps never hash
//! attacker-controlled keys in an adversarial setting — inputs are
//! bounded by the application's own schema — so an FxHash-style
//! multiply-xor hash is the right trade. This is the same construction
//! rustc uses internally.
//!
//! Two functions of one state: [`Hasher::finish`] feeds maps and may
//! change whenever a map would be faster for it; [`route_hash`] places
//! keys on partitions, is persisted in effect (replay and every
//! partitioned placement depend on it), and must never change.

use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Multiply-xor hasher (FxHash construction).
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    state: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }

    /// The high half of the state xored into the low, then multiplied.
    #[inline]
    fn fold(&self) -> u64 {
        let h = self.state;
        (h ^ (h >> 32)).wrapping_mul(SEED)
    }
}

/// The hash partition routing reads (the engine's `hash_partition`):
/// FxHash's state, folded. A durable contract — a replayed batch must
/// land where the original did — so it is its own function and never
/// follows changes to [`FxHasher::finish`].
pub fn route_hash<T: Hash + ?Sized>(key: &T) -> u64 {
    let mut h = FxHasher::default();
    key.hash(&mut h);
    h.fold()
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // hashbrown picks buckets from the low bits, and a product's low
        // bits are a function of only its factors' low bits. The fold
        // alone left them that way: an integer's f64 bit pattern ends in
        // a run of zero mantissa bits, so `Value::Int(1..=500)` landed
        // in 1 of 1 024 low-10-bit buckets, 4 000 vehicle ids in 16 of
        // 8 192, and 400 `(xway, seg)` keys in 4 of 1 024. The rotation
        // brings the product's high bits — a function of every input
        // bit — down to where buckets are picked (rustc-hash 2 ends the
        // same way): 378, 3 225 and 325 of those buckets, about what
        // random keys fill (395, 3 162, 330).
        self.fold().rotate_left(26)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using [`FxHasher`].
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_and_spreads() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_ne!(hash_of(&1u64), hash_of(&2u64));
        assert_ne!(hash_of(&"a"), hash_of(&"b"));
        // Mixed-length byte strings don't trivially collide.
        assert_ne!(hash_of(&[1u8, 2, 3][..]), hash_of(&[1u8, 2, 3, 0][..]));
    }

    /// Distinct buckets among `keys` under a `1 << bits`-bucket table,
    /// which hashbrown indexes by the hash's low bits.
    fn buckets<T: Hash>(keys: impl Iterator<Item = T>, bits: u32) -> usize {
        let mask = (1u64 << bits) - 1;
        keys.map(|k| hash_of(&k) & mask).collect::<FxHashSet<_>>().len()
    }

    #[test]
    fn small_integer_keys_spread_over_the_low_bits() {
        use crate::Value;
        let contestants = buckets((1..=500).map(Value::Int), 10);
        assert!(contestants >= 300, "Int(1..=500): {contestants} of 1024 buckets");
        let vehicles = buckets((0..4000).map(Value::Int), 13);
        assert!(vehicles >= 2500, "Int(0..4000): {vehicles} of 8192 buckets");
        let segments =
            (0..4).flat_map(|x| (0..100).map(move |s| [Value::Int(x), Value::Int(s)])).collect::<Vec<_>>();
        let segments = buckets(segments.iter().map(|k| &k[..]), 10);
        assert!(segments >= 250, "400 (xway, seg) keys: {segments} of 1024 buckets");
    }

    #[test]
    fn map_works() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        for i in 0..1000 {
            m.insert(i, i * 2);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m[&500], 1000);
    }
}
