//! The hasher of every map keyed by kernel geometry.
//!
//! Those maps sit on the dispatch path: each intercepted convolution looks
//! its plan up by (op, [`crate::ConvGeometry`]), and the optimizer's
//! benchmark cache looks each micro-batch kernel up the same way. Their
//! keys are a dozen machine words that come from network definitions,
//! never from remote input, so SipHash (the standard library's default)
//! guards them against collision flooding that cannot happen, at several
//! times the cost. [`GeometryHasher`] is an FxHash-style word hasher
//! instead: one rotate, xor and multiply per word, with no per-map random
//! seed, so a map's behaviour is the same in every run.

use core::hash::{BuildHasherDefault, Hasher};
use std::collections::HashMap;

/// FxHash's multiplier (the 64-bit golden-ratio constant of rustc's
/// hasher).
const SEED: u64 = 0x517c_c1b7_2722_0a95;

/// A deterministic FxHash-style hasher for keys built from machine words.
#[derive(Debug, Clone, Copy, Default)]
pub struct GeometryHasher {
    hash: u64,
}

impl GeometryHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for GeometryHasher {
    /// The length, then the bytes in little-endian words, the last one
    /// zero-padded.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.add(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    /// Geometry fields are `usize`, and enum discriminants arrive here too.
    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// The high bits of the last multiply mix every word best; the table
    /// indexes by the low bits, so rotate the former into the latter.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// The [`core::hash::BuildHasher`] of [`GeometryHasher`].
pub type GeometryBuildHasher = BuildHasherDefault<GeometryHasher>;

/// A `HashMap` keyed by kernel geometry, hashed by [`GeometryHasher`].
pub type GeometryMap<K, V> = HashMap<K, V, GeometryBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConvGeometry, FilterShape, Shape4};
    use core::hash::{BuildHasher, Hash};

    fn geometry(n: usize) -> ConvGeometry {
        ConvGeometry::with_square(
            Shape4::new(n, 8, 16, 16),
            FilterShape::new(8, 8, 3, 3),
            1,
            1,
        )
    }

    #[test]
    fn equal_keys_hash_equally_in_every_map() {
        let (a, b) = (
            GeometryBuildHasher::default(),
            GeometryBuildHasher::default(),
        );
        assert_eq!(a.hash_one(geometry(4)), b.hash_one(geometry(4)));
        assert_ne!(a.hash_one(geometry(4)), a.hash_one(geometry(5)));
    }

    /// String keys hash whole, through the byte path.
    #[test]
    fn strings_of_any_length_hash_apart() {
        let h = GeometryBuildHasher::default();
        assert_ne!(h.hash_one("sim:P100-SXM2"), h.hash_one("sim:V100-SXM2"));
        assert_ne!(h.hash_one("ab"), h.hash_one("ab\0"));
    }

    #[test]
    fn a_map_of_every_micro_batch_finds_each_one() {
        let mut map: GeometryMap<ConvGeometry, usize> = GeometryMap::default();
        for n in 1..=256 {
            map.insert(geometry(n), n);
        }
        assert!((1..=256).all(|n| map[&geometry(n)] == n));
        let mut h = GeometryHasher::default();
        geometry(3).hash(&mut h);
        assert_ne!(h.finish(), 0);
    }
}
