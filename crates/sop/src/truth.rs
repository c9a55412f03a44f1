//! Truth tables over up to 16 variables, stored as packed 64-bit words.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{BitAnd, BitOr, BitXor, Not};

/// Maximum number of variables supported by [`TruthTable`].
pub const MAX_VARS: usize = 16;

/// `ELEMENTARY[v]` has bit `m` set exactly when bit `v` of `m` is set: the
/// single-word projection of variable `v < 6`.
pub(crate) const ELEMENTARY: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// A complete truth table of a Boolean function over `num_vars` variables.
///
/// Bit `m` of the table is the value of the function under the input
/// assignment encoded by the integer `m` (variable `i` is bit `i` of `m`).
///
/// # Examples
///
/// ```
/// use elf_sop::TruthTable;
/// let a = TruthTable::var(0, 2);
/// let b = TruthTable::var(1, 2);
/// let f = &a & &b;
/// assert_eq!(f.count_ones(), 1);
/// assert!(f.get_bit(0b11));
/// ```
#[derive(Debug, PartialEq, Eq)]
pub struct TruthTable {
    num_vars: usize,
    words: Vec<u64>,
}

impl Clone for TruthTable {
    fn clone(&self) -> Self {
        TruthTable {
            num_vars: self.num_vars,
            words: self.words.clone(),
        }
    }

    /// Copies into the words `self` already has room for.
    fn clone_from(&mut self, source: &Self) {
        self.num_vars = source.num_vars;
        self.words.clone_from(&source.words);
    }
}

/// A table is hashed a word at a time, the shape a word hasher reads fastest.
impl Hash for TruthTable {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.num_vars);
        for &word in &self.words {
            state.write_u64(word);
        }
    }
}

impl TruthTable {
    fn word_count(num_vars: usize) -> usize {
        if num_vars <= 6 {
            1
        } else {
            1 << (num_vars - 6)
        }
    }

    fn last_word_mask(num_vars: usize) -> u64 {
        if num_vars >= 6 {
            !0u64
        } else {
            (1u64 << (1usize << num_vars)) - 1
        }
    }

    /// Creates the constant-false function over `num_vars` variables.
    ///
    /// # Panics
    ///
    /// Panics if `num_vars > MAX_VARS`.
    pub fn zeros(num_vars: usize) -> Self {
        assert!(
            num_vars <= MAX_VARS,
            "at most {MAX_VARS} variables supported"
        );
        TruthTable {
            num_vars,
            words: vec![0; Self::word_count(num_vars)],
        }
    }

    /// Creates the constant-true function over `num_vars` variables.
    pub fn ones(num_vars: usize) -> Self {
        let mut t = Self::zeros(num_vars);
        for w in &mut t.words {
            *w = !0;
        }
        t.mask();
        t
    }

    /// Creates the projection function of variable `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars` or `num_vars > MAX_VARS`.
    pub fn var(var: usize, num_vars: usize) -> Self {
        assert!(var < num_vars, "variable index out of range");
        let mut t = Self::zeros(num_vars);
        for (i, w) in t.words.iter_mut().enumerate() {
            *w = Self::var_word(var, i);
        }
        t.mask();
        t
    }

    /// Word `index` of the projection function of variable `var`, as it
    /// appears in any table wide enough to hold it (tables of fewer than six
    /// variables keep only the low `2^num_vars` bits).
    pub fn var_word(var: usize, index: usize) -> u64 {
        if var < 6 {
            ELEMENTARY[var]
        } else if (index >> (var - 6)) & 1 == 1 {
            !0
        } else {
            0
        }
    }

    /// Creates a truth table from raw words (least-significant word first).
    ///
    /// # Panics
    ///
    /// Panics if the number of words does not match `num_vars`.
    pub fn from_words(words: Vec<u64>, num_vars: usize) -> Self {
        assert!(num_vars <= MAX_VARS);
        assert_eq!(words.len(), Self::word_count(num_vars), "wrong word count");
        let mut t = TruthTable { num_vars, words };
        t.mask();
        t
    }

    /// Makes `self` the table of `num_vars` variables whose words are
    /// `words`, as [`TruthTable::from_words`] does, in the words `self`
    /// already has room for.
    ///
    /// # Panics
    ///
    /// Panics if the number of words does not match `num_vars`.
    pub fn copy_from_words(&mut self, words: &[u64], num_vars: usize) {
        assert!(num_vars <= MAX_VARS);
        assert_eq!(words.len(), Self::word_count(num_vars), "wrong word count");
        self.num_vars = num_vars;
        self.words.clear();
        self.words.extend_from_slice(words);
        self.mask();
    }

    /// Builds a truth table by evaluating `f` on every input assignment.
    pub fn from_fn(num_vars: usize, mut f: impl FnMut(usize) -> bool) -> Self {
        let mut t = Self::zeros(num_vars);
        for m in 0..(1usize << num_vars) {
            if f(m) {
                t.set_bit(m);
            }
        }
        t
    }

    fn mask(&mut self) {
        let m = Self::last_word_mask(self.num_vars);
        if let Some(last) = self.words.last_mut() {
            *last &= m;
        }
    }

    /// Number of variables of this function.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The packed words of the table, least significant first.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Returns the value of the function for input assignment `minterm`.
    ///
    /// # Panics
    ///
    /// Panics if `minterm >= 2^num_vars`.
    pub fn get_bit(&self, minterm: usize) -> bool {
        assert!(minterm < 1usize << self.num_vars, "minterm out of range");
        self.words[minterm / 64] >> (minterm % 64) & 1 == 1
    }

    /// Sets the value of the function for input assignment `minterm` to true.
    pub fn set_bit(&mut self, minterm: usize) {
        assert!(minterm < 1usize << self.num_vars, "minterm out of range");
        self.words[minterm / 64] |= 1u64 << (minterm % 64);
    }

    /// Returns `true` if the function is constant false.
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Returns `true` if the function is constant true.
    pub fn is_one(&self) -> bool {
        let last = self.words.len() - 1;
        self.words[..last].iter().all(|&w| w == !0)
            && self.words[last] == Self::last_word_mask(self.num_vars)
    }

    /// Number of satisfying assignments (ON-set size).
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns the positive cofactor with respect to `var` (a function that no
    /// longer depends on `var`).
    pub fn cofactor1(&self, var: usize) -> Self {
        assert!(var < self.num_vars);
        let mut out = self.clone();
        if var < 6 {
            let shift = 1usize << var;
            let mask = ELEMENTARY[var];
            for w in &mut out.words {
                let hi = *w & mask;
                *w = hi | (hi >> shift);
            }
        } else {
            let block = 1usize << (var - 6);
            let total = out.words.len();
            let mut i = 0;
            while i < total {
                for k in 0..block {
                    out.words[i + k] = self.words[i + block + k];
                }
                for k in 0..block {
                    out.words[i + block + k] = self.words[i + block + k];
                }
                i += 2 * block;
            }
        }
        out.mask();
        out
    }

    /// Returns the negative cofactor with respect to `var`.
    pub fn cofactor0(&self, var: usize) -> Self {
        assert!(var < self.num_vars);
        let mut out = self.clone();
        if var < 6 {
            let shift = 1usize << var;
            let mask = !ELEMENTARY[var];
            for w in &mut out.words {
                let lo = *w & mask;
                *w = lo | (lo << shift);
            }
        } else {
            let block = 1usize << (var - 6);
            let total = out.words.len();
            let mut i = 0;
            while i < total {
                for k in 0..block {
                    out.words[i + block + k] = self.words[i + k];
                }
                i += 2 * block;
            }
        }
        out.mask();
        out
    }

    /// Returns the function with variable `var` complemented
    /// (`f(.., !x_var, ..)`).
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars`.
    pub fn flip_var(&self, var: usize) -> Self {
        let mut out = self.clone();
        out.flip_var_in_place(var);
        out
    }

    /// Complements the function in place (`!self`).
    pub fn complement_in_place(&mut self) {
        for word in &mut self.words {
            *word = !*word;
        }
        self.mask();
    }

    /// Complements variable `var` in place (see [`TruthTable::flip_var`]).
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars`.
    pub fn flip_var_in_place(&mut self, var: usize) {
        assert!(var < self.num_vars);
        if var < 6 {
            let shift = 1usize << var;
            let mask = ELEMENTARY[var];
            for w in &mut self.words {
                *w = ((*w & mask) >> shift) | ((*w & !mask) << shift);
            }
        } else {
            let block = 1usize << (var - 6);
            for pair in self.words.chunks_exact_mut(2 * block) {
                let (low, high) = pair.split_at_mut(block);
                low.swap_with_slice(high);
            }
        }
    }

    /// Exchanges variables `a` and `b` in place: minterm `m` of the result is
    /// minterm `m` of `self` with bits `a` and `b` traded.
    fn swap_vars(&mut self, a: usize, b: usize) {
        debug_assert!(a < self.num_vars && b < self.num_vars);
        let (lo, hi) = (a.min(b), a.max(b));
        if lo == hi {
            return;
        }
        if hi < 6 {
            // Minterms with lo = 1, hi = 0 sit `distance` bits below their
            // partners with lo = 0, hi = 1; everything else stays put.
            let distance = (1usize << hi) - (1usize << lo);
            let lower = ELEMENTARY[lo] & !ELEMENTARY[hi];
            let upper = lower << distance;
            for w in &mut self.words {
                *w = (*w & !(lower | upper))
                    | ((*w & lower) << distance)
                    | ((*w & upper) >> distance);
            }
        } else if lo < 6 {
            // `hi` selects a word, `lo` a bit position inside it.
            let block = 1usize << (hi - 6);
            let shift = 1usize << lo;
            let mask = ELEMENTARY[lo];
            for pair in self.words.chunks_exact_mut(2 * block) {
                let (low, high) = pair.split_at_mut(block);
                for (l, h) in low.iter_mut().zip(high) {
                    let (old_l, old_h) = (*l, *h);
                    *l = (old_l & !mask) | ((old_h & !mask) << shift);
                    *h = (old_h & mask) | ((old_l & mask) >> shift);
                }
            }
        } else {
            let (bit_lo, bit_hi) = (1usize << (lo - 6), 1usize << (hi - 6));
            for i in 0..self.words.len() {
                if i & bit_lo != 0 && i & bit_hi == 0 {
                    self.words.swap(i, i ^ bit_lo ^ bit_hi);
                }
            }
        }
    }

    /// Returns the function with its variables permuted: variable `v` of
    /// `self` becomes variable `perm[v]` of the result.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..num_vars`.
    pub fn permute_vars(&self, perm: &[usize]) -> Self {
        let mut out = self.clone();
        out.permute_vars_in_place(perm);
        out
    }

    /// Permutes the variables in place (see [`TruthTable::permute_vars`]) by
    /// at most `num_vars - 1` word-level variable swaps.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..num_vars`.
    pub fn permute_vars_in_place(&mut self, perm: &[usize]) {
        assert_eq!(perm.len(), self.num_vars, "permutation length mismatch");
        // at[p] = the original variable currently sitting at position p, and
        // position_of[v] = where the original variable v currently sits.
        let mut at = [usize::MAX; MAX_VARS];
        let mut position_of = [usize::MAX; MAX_VARS];
        let mut wanted = [usize::MAX; MAX_VARS];
        for (v, &p) in perm.iter().enumerate() {
            assert!(
                p < self.num_vars && wanted[p] == usize::MAX,
                "not a permutation"
            );
            wanted[p] = v;
            at[v] = v;
            position_of[v] = v;
        }
        for (position, &variable) in wanted[..self.num_vars].iter().enumerate() {
            let current = position_of[variable];
            self.swap_vars(position, current);
            let displaced = at[position];
            at[current] = displaced;
            position_of[displaced] = current;
            at[position] = variable;
            position_of[variable] = position;
        }
    }

    /// Number of ON-set minterms in which variable `var` is 1 (half the
    /// ON-set size of [`TruthTable::cofactor1`], without building it).
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars`.
    pub fn count_ones_with(&self, var: usize) -> usize {
        assert!(var < self.num_vars);
        if var < 6 {
            let mask = ELEMENTARY[var];
            self.words
                .iter()
                .map(|w| (w & mask).count_ones() as usize)
                .sum()
        } else {
            let block = 1usize << (var - 6);
            self.words
                .chunks_exact(2 * block)
                .flat_map(|pair| &pair[block..])
                .map(|w| w.count_ones() as usize)
                .sum()
        }
    }

    /// Returns `true` if the function depends on variable `var`.
    pub fn depends_on(&self, var: usize) -> bool {
        assert!(var < self.num_vars);
        if var < 6 {
            let shift = 1usize << var;
            let low = !ELEMENTARY[var];
            self.words.iter().any(|w| (w ^ (w >> shift)) & low != 0)
        } else {
            let block = 1usize << (var - 6);
            self.words
                .chunks_exact(2 * block)
                .any(|pair| pair[..block] != pair[block..])
        }
    }

    /// Returns the number of variables the function actually depends on
    /// (its true support size).
    pub fn support_size(&self) -> usize {
        (0..self.num_vars).filter(|&v| self.depends_on(v)).count()
    }

    /// Returns `self & !other` (difference of ON-sets).
    pub fn and_not(&self, other: &Self) -> Self {
        assert_eq!(self.num_vars, other.num_vars);
        let words = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| a & !b)
            .collect();
        TruthTable {
            num_vars: self.num_vars,
            words,
        }
    }

    /// Returns `true` if the ON-set of `self` is a subset of the ON-set of `other`.
    pub fn implies(&self, other: &Self) -> bool {
        assert_eq!(self.num_vars, other.num_vars);
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait for &TruthTable {
            type Output = TruthTable;
            fn $method(self, rhs: &TruthTable) -> TruthTable {
                assert_eq!(self.num_vars, rhs.num_vars, "variable counts differ");
                let words = self
                    .words
                    .iter()
                    .zip(&rhs.words)
                    .map(|(a, b)| a $op b)
                    .collect();
                let mut t = TruthTable { num_vars: self.num_vars, words };
                t.mask();
                t
            }
        }
    };
}

impl_binop!(BitAnd, bitand, &);
impl_binop!(BitOr, bitor, |);
impl_binop!(BitXor, bitxor, ^);

impl Not for &TruthTable {
    type Output = TruthTable;
    fn not(self) -> TruthTable {
        let words = self.words.iter().map(|w| !w).collect();
        let mut t = TruthTable {
            num_vars: self.num_vars,
            words,
        };
        t.mask();
        t
    }
}

impl fmt::Display for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x")?;
        for w in self.words.iter().rev() {
            write!(f, "{w:016x}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_and_vars() {
        let z = TruthTable::zeros(3);
        let o = TruthTable::ones(3);
        assert!(z.is_zero());
        assert!(o.is_one());
        assert_eq!(o.count_ones(), 8);
        let a = TruthTable::var(0, 3);
        assert_eq!(a.count_ones(), 4);
        assert!(a.get_bit(0b001));
        assert!(!a.get_bit(0b110));
    }

    #[test]
    fn boolean_operations() {
        let a = TruthTable::var(0, 3);
        let b = TruthTable::var(1, 3);
        let and = &a & &b;
        let or = &a | &b;
        let xor = &a ^ &b;
        assert_eq!(and.count_ones(), 2);
        assert_eq!(or.count_ones(), 6);
        assert_eq!(xor.count_ones(), 4);
        assert_eq!(&(!&and) & &and, TruthTable::zeros(3));
        assert!(and.implies(&or));
        assert!(!or.implies(&and));
    }

    #[test]
    fn cofactors_small_variable() {
        // f = a XOR b over 2 vars.
        let a = TruthTable::var(0, 2);
        let b = TruthTable::var(1, 2);
        let f = &a ^ &b;
        assert_eq!(f.cofactor0(0), b);
        assert_eq!(f.cofactor1(0), !&b);
        assert!(f.depends_on(0));
        assert!(f.depends_on(1));
        assert_eq!(f.support_size(), 2);
        let g = &a & &(!&a);
        assert_eq!(g.support_size(), 0);
    }

    #[test]
    fn cofactors_large_variable() {
        // 8 variables forces multi-word tables; check var 7.
        let a = TruthTable::var(7, 8);
        let b = TruthTable::var(0, 8);
        let f = &a & &b;
        assert_eq!(f.cofactor1(7), b);
        assert_eq!(f.cofactor0(7), TruthTable::zeros(8));
        assert!(!f.cofactor1(7).depends_on(7));
    }

    #[test]
    fn from_fn_matches_get_bit() {
        let f = TruthTable::from_fn(4, |m| (m.count_ones() % 2) == 1);
        for m in 0..16 {
            assert_eq!(f.get_bit(m), m.count_ones() % 2 == 1);
        }
        assert_eq!(f.count_ones(), 8);
    }

    #[test]
    fn masking_of_partial_words() {
        let t = TruthTable::ones(2);
        assert_eq!(t.words()[0], 0b1111);
        let n = !&TruthTable::zeros(1);
        assert_eq!(n.words()[0], 0b11);
        assert!(n.is_one());
    }

    /// The in-place writers leave what their allocating twins build, over
    /// a table of another width whose words they reuse.
    #[test]
    fn in_place_writers_match_their_allocating_twins() {
        let mut table = TruthTable::from_fn(9, |m| m % 5 == 1);
        for num_vars in [0, 3, 6, 8, 2] {
            let f = scrambled(num_vars, num_vars + 1);
            table.copy_from_words(f.words(), num_vars);
            assert_eq!(table, TruthTable::from_words(f.words().to_vec(), num_vars));
            table.complement_in_place();
            assert_eq!(table, !&f);
            table.clone_from(&f);
            assert_eq!(table, f);
        }
        // Bits past a narrow table's width are dropped as `from_words` does.
        table.copy_from_words(&[!0], 2);
        assert_eq!(table, TruthTable::ones(2));
    }

    #[test]
    #[should_panic(expected = "variable index out of range")]
    fn var_out_of_range_panics() {
        let _ = TruthTable::var(3, 3);
    }

    #[test]
    fn flip_var_matches_bit_level_definition() {
        for num_vars in [1, 2, 3, 6, 7, 8] {
            let f = TruthTable::from_fn(num_vars, |m| (m.wrapping_mul(2654435761) >> 3) & 1 == 1);
            for var in 0..num_vars {
                let flipped = f.flip_var(var);
                for m in 0..(1usize << num_vars) {
                    assert_eq!(
                        flipped.get_bit(m),
                        f.get_bit(m ^ (1 << var)),
                        "flip_var({var}) over {num_vars} vars, minterm {m}"
                    );
                }
                assert_eq!(flipped.flip_var(var), f, "flip is an involution");
            }
        }
    }

    #[test]
    fn permute_vars_matches_bit_level_definition() {
        // f over 3 vars, rotated: v -> (v + 1) % 3.
        let f = TruthTable::from_fn(3, |m| m.count_ones() >= 2);
        let perm = [1, 2, 0];
        let g = f.permute_vars(&perm);
        for m in 0..8usize {
            let mut original = 0usize;
            for (v, &p) in perm.iter().enumerate() {
                original |= (m >> p & 1) << v;
            }
            assert_eq!(g.get_bit(m), f.get_bit(original));
        }
        // Identity permutation is a no-op; 8 vars exercises multi-word tables.
        let wide = TruthTable::from_fn(8, |m| (m * 37) % 5 == 0);
        assert_eq!(wide.permute_vars(&[0, 1, 2, 3, 4, 5, 6, 7]), wide);
        let swapped = wide.permute_vars(&[7, 1, 2, 3, 4, 5, 6, 0]);
        for m in 0..256usize {
            let original = (m & !0x81) | ((m >> 7) & 1) | ((m & 1) << 7);
            assert_eq!(swapped.get_bit(m), wide.get_bit(original));
        }
    }

    /// A fixed pseudo-random function of `num_vars` variables.
    fn scrambled(num_vars: usize, salt: usize) -> TruthTable {
        TruthTable::from_fn(num_vars, |m| {
            ((m + salt).wrapping_mul(2654435761) >> 7).count_ones() % 2 == 1
        })
    }

    #[test]
    fn swap_vars_matches_bit_level_definition() {
        // 9 variables: both in one word, one in a word and one across words,
        // both across words.  3 variables: a table narrower than a word.
        for num_vars in [3, 9] {
            let f = scrambled(num_vars, 11);
            for a in 0..num_vars {
                for b in 0..num_vars {
                    let mut swapped = f.clone();
                    swapped.swap_vars(a, b);
                    let expected = TruthTable::from_fn(num_vars, |m| {
                        let (bit_a, bit_b) = (m >> a & 1, m >> b & 1);
                        f.get_bit((m & !(1 << a) & !(1 << b)) | bit_a << b | bit_b << a)
                    });
                    assert_eq!(swapped, expected, "swap_vars({a}, {b}) over {num_vars}");
                }
            }
        }
    }

    #[test]
    fn permute_vars_matches_bit_level_definition_across_widths() {
        for (salt, num_vars) in [1, 2, 4, 5, 6, 7, 8, 10, 11].into_iter().enumerate() {
            let f = scrambled(num_vars, salt);
            for round in 0..6usize {
                // A Fisher-Yates shuffle driven by a fixed multiplicative hash.
                let mut perm: Vec<usize> = (0..num_vars).collect();
                for i in (1..num_vars).rev() {
                    let j = (i + round).wrapping_mul(2654435761 + salt) % (i + 1);
                    perm.swap(i, j);
                }
                let expected = TruthTable::from_fn(num_vars, |m| {
                    let mut original = 0usize;
                    for (v, &p) in perm.iter().enumerate() {
                        original |= (m >> p & 1) << v;
                    }
                    f.get_bit(original)
                });
                assert_eq!(f.permute_vars(&perm), expected, "perm {perm:?}");
            }
        }
    }

    #[test]
    fn word_loops_match_their_cofactor_definitions() {
        for num_vars in [1, 3, 6, 7, 9] {
            // x_last & g: depends on some variables, is implied by itself.
            let last = TruthTable::var(num_vars - 1, num_vars);
            let g = scrambled(num_vars, 5).cofactor0(0);
            let f = &last & &g;
            for var in 0..num_vars {
                assert_eq!(
                    f.depends_on(var),
                    f.cofactor0(var) != f.cofactor1(var),
                    "depends_on({var}) over {num_vars}"
                );
                assert_eq!(
                    2 * f.count_ones_with(var),
                    f.cofactor1(var).count_ones(),
                    "count_ones_with({var}) over {num_vars}"
                );
            }
            assert!(!g.depends_on(0));
            assert!(f.implies(&g) && f.implies(&last) && f.implies(&f));
            assert_eq!(g.implies(&f), g.and_not(&f).is_zero());
        }
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn permute_vars_rejects_duplicates() {
        let f = TruthTable::zeros(3);
        let _ = f.permute_vars(&[0, 0, 1]);
    }

    #[test]
    fn hash_and_eq_agree_with_word_level_equality_across_widths() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};

        fn hash_of(t: &TruthTable) -> u64 {
            let mut hasher = DefaultHasher::new();
            t.hash(&mut hasher);
            hasher.finish()
        }

        // Same function built two different ways must be Eq and hash-equal;
        // widths from single-word partial (2 vars) to multi-word (8 vars).
        for num_vars in [2, 4, 6, 8] {
            let built = TruthTable::from_fn(num_vars, |m| m % 3 == 0);
            let rebuilt = TruthTable::from_words(built.words().to_vec(), num_vars);
            assert_eq!(built, rebuilt);
            assert_eq!(built.words(), rebuilt.words(), "words are the Eq basis");
            assert_eq!(hash_of(&built), hash_of(&rebuilt));

            // Flipping one minterm must break equality (and, for a sane
            // hasher, the hash).
            let mut other = built.clone();
            other.set_bit(1);
            if other != built {
                assert_ne!(other.words(), built.words());
                assert_ne!(hash_of(&other), hash_of(&built));
            }
        }

        // The same single-word bit pattern at different widths is NOT equal:
        // num_vars participates in Eq and Hash.
        let two = TruthTable::ones(2);
        let padded = TruthTable::from_words(vec![two.words()[0]], 3);
        assert_ne!(two, padded);
        assert_ne!(hash_of(&two), hash_of(&padded));
    }
}
