//! A deterministic, fast hasher for the simulator's internal maps.
//!
//! `std`'s default SipHash defends against keys crafted to collide and seeds
//! itself per process. The hot maps of the simulation — flow tables, the
//! FlowMemory, the controller's bookkeeping — are keyed by values the program
//! itself produced (flow ids, addresses of simulated hosts), probed several
//! times per simulated frame, and their growth pattern shows up in the
//! allocation counts the benchmark reports. [`FastHasher`] is an Fx-style
//! multiply-rotate hash: one rotate, one xor and one multiply per word, no
//! seed, so a run hashes — and allocates — identically in every process.
//!
//! Keep `std`'s hasher for maps keyed by input from outside the program
//! (configuration files, registry names).
//!
//! Iteration order of a [`FastMap`] is stable across processes but still
//! arbitrary: nothing may depend on it. Code that turns map contents into
//! output sorts first, exactly as it had to under the seeded hasher.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` using [`FastHasher`]. Construct with `default()` or
/// `with_capacity_and_hasher` (`new()` exists only for the std hasher).
pub type FastMap<K, V> = HashMap<K, V, FastBuildHasher>;
/// A `HashSet` using [`FastHasher`].
pub type FastSet<K> = HashSet<K, FastBuildHasher>;
/// The `BuildHasher` of [`FastMap`] / [`FastSet`].
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// Odd multiplier with well-spread bits (the 64-bit FxHash constant).
const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Fx-style word-at-a-time hasher. Not collision-resistant against an
/// adversary; see the module docs for where it may be used.
#[derive(Clone, Copy, Default)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(last));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// A multiply pushes entropy upwards only: the low bits of the state
    /// depend on just the low bits of the last word. hashbrown picks the
    /// bucket from the low bits and the control tag from the top seven, so
    /// rotate the well-mixed upper bits down to the bucket end; what lands
    /// on top (state bits 37–43) still depends on every key shape we hash.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(20)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FastBuildHasher::default().hash_one(v)
    }

    #[test]
    fn same_key_same_hash_and_no_seed() {
        assert_eq!(hash_of(&(7u32, [1u8, 2, 3, 4])), hash_of(&(7u32, [1u8, 2, 3, 4])));
        assert_ne!(hash_of(&1u64), hash_of(&2u64));
        // No per-process seed: the value is a constant of the algorithm.
        assert_eq!(hash_of(&1u64), K.rotate_left(20));
    }

    #[test]
    fn byte_slices_of_every_remainder_length_differ() {
        let bytes: Vec<u8> = (1..=20).collect();
        let mut seen = FastSet::default();
        for n in 0..=bytes.len() {
            assert!(seen.insert(hash_of(&&bytes[..n])), "prefix {n} collides");
        }
    }

    /// Distinct low-10-bit buckets and top-7-bit tags `keys` land on —
    /// hashbrown takes the bucket from the low end and its control tag from
    /// the high end, so both must carry entropy.
    fn spread<T: Hash>(keys: impl Iterator<Item = T>) -> (usize, usize) {
        let (mut buckets, mut tags) = (FastSet::default(), FastSet::default());
        for k in keys {
            let h = hash_of(&k);
            buckets.insert(h & 1023);
            tags.insert(h >> 57);
        }
        (buckets.len(), tags.len())
    }

    /// 4 096 uniformly hashed keys occupy 1024·(1 − e⁻⁴) ≈ 1 005 of 1 024
    /// buckets; 90 % of that is the floor for the structured keys below.
    const MIN_BUCKETS: usize = 905;

    fn assert_spreads<T: Hash>(what: &str, keys: impl Iterator<Item = T>) {
        let (buckets, tags) = spread(keys);
        assert!(buckets >= MIN_BUCKETS, "{what}: {buckets} of 1024 buckets");
        assert!(tags > 1, "{what}: constant control tag");
    }

    /// The shapes the hot maps are keyed by, 4 096 keys each, mirrored here
    /// as the field layouts their `derive(Hash)` feeds the hasher (the real
    /// `openflow::Match` is checked in `openflow::table`, the map it keys).
    #[test]
    fn structured_keys_spread_over_both_ends_of_the_hash() {
        // Sequential u64 ids.
        assert_spreads("sequential ids", 0..4096u64);
        // `FlowId`s: an insertion count above a 28-bit slot number — a
        // growing table (fresh slots) and a churning one (64 slots reused).
        assert_spreads("flow ids, growing", (0..4096u64).map(|i| i << 28 | i));
        assert_spreads("flow ids, churning", (0..4096u64).map(|i| i << 28 | (i % 64)));
        // `Ipv4Addr([u8; 4])`s of neighbouring /24s.
        #[derive(Hash)]
        struct Ip([u8; 4]);
        assert_spreads("addresses", (0..4096u32).map(|i| Ip([10, 0, (i >> 8) as u8, i as u8])));
        assert_spreads("one /24 x 16", (0..4096u32).map(|i| Ip([10, (i >> 8) as u8, 7, i as u8])));
        // `MacAddr([u8; 6])`s numbered from an id.
        #[derive(Hash)]
        struct Mac([u8; 6]);
        assert_spreads("macs", (0..4096u32).map(|i| Mac([2, 0, 0, 0, (i >> 8) as u8, i as u8])));
        // The harness's `(client index, source port)` connection keys.
        assert_spreads("conns", (0..4096usize).map(|i| (i % 50, 49152 + (i / 50) as u16)));
        // FlowMemory's `(ingress, client, service)` keys: one service, many
        // clients behind 16 ingresses.
        #[derive(Hash)]
        struct FlowKey(u32, Ip, (Ip, u16));
        assert_spreads(
            "flow keys",
            (0..4096u32).map(|i| FlowKey(i % 16, Ip([192, 168, (i >> 8) as u8, i as u8]), (Ip([203, 0, 113, 10]), 80))),
        );
    }

    #[test]
    fn map_behaves_like_a_map() {
        let mut m: FastMap<u64, u64> = FastMap::default();
        for k in 0..10_000u64 {
            m.insert(k, k * 3);
        }
        assert_eq!(m.len(), 10_000);
        assert!((0..10_000u64).all(|k| m[&k] == k * 3));
        assert!(m.remove(&17).is_some() && !m.contains_key(&17));
    }
}
