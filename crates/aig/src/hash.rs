//! One seeded word hasher for the two maps every gain count probes: the
//! graph's structural-hash table, which each counted gate's
//! [`Aig::and_lookup`](crate::Aig::and_lookup) reads, and the cut cache's
//! class map in `elf-opt`.
//!
//! A key is hashed one `u64` word at a time, as rustc's FxHash does: rotate
//! the state, XOR the word in, multiply by an odd constant.  The state starts
//! at a seed, and [`WordHasher::finish`] folds the 128-bit product of the
//! state and a second constant into 64 bits.  The fold matters because
//! hashbrown picks a bucket by the low bits of the hash and tags it by the
//! top seven, and a plain product's low bits see only the low bits of the
//! words.
//!
//! # Attacker-chosen keys
//!
//! The strash keys of a served job are literal pairs of a circuit that
//! someone outside wrote as an AIGER file.  The seed is drawn once per
//! process from the standard library's `RandomState`, which the operating
//! system seeds, so which keys collide differs from process to process and a
//! file cannot be crafted to collide in advance.  This is not a keyed
//! pseudo-random function: an attacker who times many probes against one
//! process could still learn collisions, and that is accepted, because a
//! job's probes are bounded by its own size.  No result depends on a map's
//! iteration order, so the seed changes nothing a run computes.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// The odd multiplier of each word round (FxHash's).
const ROUND: u64 = 0x517c_c1b7_2722_0a95;
/// The multiplier of the final fold (the 64-bit golden ratio).
const FOLD: u64 = 0x9e37_79b9_7f4a_7c15;

/// The per-process seed, drawn from `RandomState` on first use.
fn process_seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| RandomState::new().hash_one(0x5eed_u64))
}

/// The [`BuildHasher`] of the strash and the class map: every hasher it
/// builds starts at the process's seed.
#[derive(Debug, Clone, Copy)]
pub struct WordState {
    seed: u64,
}

impl Default for WordState {
    fn default() -> Self {
        WordState {
            seed: process_seed(),
        }
    }
}

impl BuildHasher for WordState {
    type Hasher = WordHasher;

    fn build_hasher(&self) -> WordHasher {
        WordHasher { state: self.seed }
    }
}

/// Hashes a key a `u64` word at a time (see the module docs).
#[derive(Debug, Clone, Copy)]
pub struct WordHasher {
    state: u64,
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let mut le = [0; 8];
            le.copy_from_slice(word);
            self.write_u64(u64::from_le_bytes(le));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut le = [0; 8];
            le[..rest.len()].copy_from_slice(rest);
            // The length keeps a short tail apart from its zero padding.
            self.write_u64(u64::from_le_bytes(le) ^ (rest.len() as u64) << 59);
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(ROUND);
    }

    fn write_usize(&mut self, value: usize) {
        self.write_u64(value as u64);
    }

    fn finish(&self) -> u64 {
        let product = u128::from(self.state) * u128::from(FOLD);
        (product as u64) ^ (product >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aig::strash_key;
    use crate::Lit;
    use std::collections::HashMap;

    /// The longest distance from its home slot of any of `keys` in a
    /// linear-probing table twice their number, indexed by the low bits of
    /// the hash.
    fn longest_probe(state: WordState, keys: impl ExactSizeIterator<Item = (u32, u32)>) -> usize {
        let keys = keys.map(|(a, b)| strash_key(Lit::from_raw(a), Lit::from_raw(b)));
        let mask = (2 * keys.len()).next_power_of_two() - 1;
        let mut taken = vec![false; mask + 1];
        let mut longest = 0;
        for key in keys {
            let home = state.hash_one(key) as usize;
            let probe = (0..=mask)
                .find(|step| !taken[(home + step) & mask])
                .expect("the table is half empty");
            taken[(home + probe) & mask] = true;
            longest = longest.max(probe);
        }
        longest
    }

    /// Under two seeds, 2¹⁶ consecutive strash keys — the literal pairs of a
    /// chain of gates, each over its predecessor's literal and the next —
    /// and 2¹⁶ keys that differ only above their low 15 bits, which a
    /// product without the fold would send to a few slots, sit near their
    /// home slots.
    #[test]
    fn strash_keys_spread_under_two_seeds() {
        const KEYS: u32 = 1 << 16;
        // Read 23–30 on the consecutive keys and 7–25 on the strided ones,
        // as a random hash would.
        const LONGEST_PROBE: usize = 64;
        for seed in [1, 0xdead_beef_cafe_f00d] {
            let state = WordState { seed };
            let consecutive = (0..KEYS).map(|key| (2 * key, 2 * key + 2));
            let strided = (0..KEYS).map(|key| (key << 15, (key << 15) + 2));
            for (family, longest) in [
                ("consecutive", longest_probe(state, consecutive)),
                ("strided", longest_probe(state, strided)),
            ] {
                assert!(
                    longest <= LONGEST_PROBE,
                    "seed {seed:#x}, {family} keys: one sits {longest} slots from home"
                );
            }
        }
    }

    #[test]
    fn the_seed_changes_the_hash_and_a_map_still_finds_every_key() {
        let (a, b) = (WordState { seed: 1 }, WordState { seed: 2 });
        assert_ne!(a.hash_one((3u32, 5u32)), b.hash_one((3u32, 5u32)));
        assert_eq!(a.hash_one((3u32, 5u32)), a.hash_one((3u32, 5u32)));
        let mut map = HashMap::with_hasher(WordState::default());
        for key in 0..1000u32 {
            map.insert((key, key + 1), key);
        }
        assert!((0..1000u32).all(|key| map[&(key, key + 1)] == key));
    }

    #[test]
    fn a_short_tail_differs_from_its_padding() {
        let state = WordState { seed: 7 };
        let hash = |bytes: &[u8]| {
            let mut hasher = state.build_hasher();
            hasher.write(bytes);
            hasher.finish()
        };
        assert_ne!(hash(&[1]), hash(&[1, 0]));
        assert_ne!(hash(&[]), hash(&[0]));
    }
}
