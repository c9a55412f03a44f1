//! Cubes, sum-of-products covers, and the Minato–Morreale irredundant SOP.
//!
//! The recursion runs on `u64` words: in registers up to seven variables
//! (one word, or the two cofactors of variable 6), on half-slices above.
//! Each level passes its children the prefix cube — the split literals of
//! every level above — so a cube is pushed complete and never revisited; in
//! registers, a child whose lower bound is empty is not called at all.  At
//! three variables or fewer a bound is one byte
//! repeated, and the interval's cubes and cover are one read of a table of
//! all 3^8 intervals, which the same recursion fills once per process.

use std::fmt;
use std::sync::LazyLock;

use crate::truth::{TruthTable, ELEMENTARY};

/// A product term (cube) over at most 16 variables.
///
/// `pos` and `neg` are bit masks of the variables appearing as positive and
/// negative literals respectively.  A variable present in neither mask is a
/// don't-care for the cube.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Cube {
    /// Mask of variables appearing as positive literals.
    pub pos: u32,
    /// Mask of variables appearing as negative literals.
    pub neg: u32,
}

impl Cube {
    /// The tautology cube (no literals).
    pub const TAUTOLOGY: Cube = Cube { pos: 0, neg: 0 };

    /// Creates a cube containing a single literal.
    pub fn literal(var: usize, positive: bool) -> Self {
        if positive {
            Cube {
                pos: 1 << var,
                neg: 0,
            }
        } else {
            Cube {
                pos: 0,
                neg: 1 << var,
            }
        }
    }

    /// Returns a copy of this cube with an extra literal.
    ///
    /// # Panics
    ///
    /// Panics if the cube already contains the opposite literal.
    pub fn with_literal(mut self, var: usize, positive: bool) -> Self {
        let bit = 1u32 << var;
        if positive {
            assert_eq!(self.neg & bit, 0, "cube would become contradictory");
            self.pos |= bit;
        } else {
            assert_eq!(self.pos & bit, 0, "cube would become contradictory");
            self.neg |= bit;
        }
        self
    }

    /// Number of literals in the cube.
    pub fn num_literals(&self) -> usize {
        (self.pos.count_ones() + self.neg.count_ones()) as usize
    }

    /// Returns `true` if the cube contains the given literal.
    pub fn contains(&self, var: usize, positive: bool) -> bool {
        let bit = 1u32 << var;
        if positive {
            self.pos & bit != 0
        } else {
            self.neg & bit != 0
        }
    }

    /// Removes a literal from the cube (no-op if absent).
    pub fn without(&self, var: usize, positive: bool) -> Self {
        let bit = !(1u32 << var);
        if positive {
            Cube {
                pos: self.pos & bit,
                neg: self.neg,
            }
        } else {
            Cube {
                pos: self.pos,
                neg: self.neg & bit,
            }
        }
    }

    /// Returns `true` if the cube evaluates to true under `minterm`.
    pub fn covers(&self, minterm: usize) -> bool {
        let m = minterm as u32;
        (m & self.pos) == self.pos && (m & self.neg) == 0
    }

    /// Converts the cube to a truth table over `num_vars` variables.
    pub fn to_truth_table(&self, num_vars: usize) -> TruthTable {
        let mut result = TruthTable::ones(num_vars);
        for var in 0..num_vars {
            if self.pos >> var & 1 == 1 {
                result = &result & &TruthTable::var(var, num_vars);
            }
            if self.neg >> var & 1 == 1 {
                result = &result & &!&TruthTable::var(var, num_vars);
            }
        }
        result
    }
}

impl fmt::Display for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == Cube::TAUTOLOGY {
            return write!(f, "1");
        }
        for var in 0..32 {
            if self.pos >> var & 1 == 1 {
                write!(f, "x{var}")?;
            }
            if self.neg >> var & 1 == 1 {
                write!(f, "!x{var}")?;
            }
        }
        Ok(())
    }
}

/// A sum-of-products cover: a disjunction of [`Cube`]s over `num_vars` variables.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Sop {
    num_vars: usize,
    cubes: Vec<Cube>,
}

impl Sop {
    /// Creates an empty (constant-false) cover.
    pub fn new(num_vars: usize) -> Self {
        Sop {
            num_vars,
            cubes: Vec::new(),
        }
    }

    /// Creates a cover from explicit cubes.
    pub fn from_cubes(num_vars: usize, cubes: Vec<Cube>) -> Self {
        Sop { num_vars, cubes }
    }

    /// The number of variables of the cover.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The cubes of the cover.
    pub fn cubes(&self) -> &[Cube] {
        &self.cubes
    }

    /// Number of cubes.
    pub fn num_cubes(&self) -> usize {
        self.cubes.len()
    }

    /// Total number of literals over all cubes.
    pub fn num_literals(&self) -> usize {
        self.cubes.iter().map(Cube::num_literals).sum()
    }

    /// Adds a cube to the cover.
    pub fn push(&mut self, cube: Cube) {
        self.cubes.push(cube);
    }

    /// Returns `true` if the cover has no cubes (constant false).
    pub fn is_empty(&self) -> bool {
        self.cubes.is_empty()
    }

    /// Evaluates the cover into a truth table.
    pub fn to_truth_table(&self) -> TruthTable {
        let mut result = TruthTable::zeros(self.num_vars);
        for cube in &self.cubes {
            result = &result | &cube.to_truth_table(self.num_vars);
        }
        result
    }

    /// Computes an irredundant sum-of-products cover of `function` using the
    /// Minato–Morreale algorithm.
    ///
    /// The resulting cover `C` satisfies `function ⊆ C ⊆ function` (it is
    /// exact) and no cube can be dropped without uncovering a minterm.
    pub fn isop(function: &TruthTable) -> Self {
        let mut cubes = Vec::new();
        Sop::isop_into(function, &mut cubes, &mut Vec::new());
        Sop {
            num_vars: function.num_vars(),
            cubes,
        }
    }

    /// [`Sop::isop`] with the cubes written to `cubes` (cleared first) and
    /// the recursion working in `buffer`, so a caller covering many functions
    /// allocates for the largest only.
    pub fn isop_into(function: &TruthTable, cubes: &mut Vec<Cube>, buffer: &mut Vec<u64>) {
        isop_interval(function, function, cubes, buffer);
    }
}

impl fmt::Display for Sop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.cubes.is_empty() {
            return write!(f, "0");
        }
        let strings: Vec<String> = self.cubes.iter().map(|c| c.to_string()).collect();
        write!(f, "{}", strings.join(" + "))
    }
}

/// Writes to `cubes` (cleared first) a Minato–Morreale ISOP of the interval
/// `[lower, upper]`: two tables over the same variables with `lower ⊆ upper`.
/// [`Sop::isop_into`] is the interval `[function, function]`.
fn isop_interval(
    lower: &TruthTable,
    upper: &TruthTable,
    cubes: &mut Vec<Cube>,
    buffer: &mut Vec<u64>,
) {
    let num_vars = lower.num_vars();
    cubes.clear();
    if num_vars <= 6 {
        // Repeat the tables over the unused high variables so that "all
        // ones" and the cofactor shifts need no width-dependent mask.
        let repeat = |w: u64| (num_vars..6).fold(w, |w, var| w | w << (1usize << var));
        let (lower, upper) = (repeat(lower.words()[0]), repeat(upper.words()[0]));
        let cover = isop_word::<true>(cubes, lower, upper, num_vars, Cube::TAUTOLOGY);
        debug_assert!(
            lower & !cover == 0 && cover & !upper == 0,
            "ISOP must lie in the interval"
        );
    } else {
        let (lower, upper) = (lower.words(), upper.words());
        // One buffer for the whole recursion: the cover, then four
        // half-width temporaries per level (4 * (1/2 + 1/4 + ..) < 4).
        buffer.clear();
        buffer.resize(5 * lower.len(), 0);
        let (cover, scratch) = buffer.split_at_mut(lower.len());
        isop_slices(cubes, lower, upper, cover, scratch, Cube::TAUTOLOGY);
        debug_assert!(
            (cover.iter().zip(lower.iter().zip(upper)))
                .all(|(c, (l, u))| l & !c == 0 && c & !u == 0),
            "ISOP must lie in the interval"
        );
    }
}

/// A byte repeated over a word: the table of a function of the three lowest
/// variables from its eight minterms.
const REPEAT_BYTE: u64 = 0x0101_0101_0101_0101;

/// `TRIT[byte]` is the base-3 number whose digit `i` is bit `i` of `byte`.
/// For `lower ⊆ upper`, `TRIT[lower] + TRIT[upper]` numbers the interval in
/// `0..3^8`: digit `i` is 0 if minterm `i` lies outside `upper`, 1 if it lies
/// in `upper` only and 2 if it lies in `lower`.
const TRIT: [u16; 256] = {
    let mut trit = [0; 256];
    let mut byte = 1;
    while byte < 256 {
        // The lowest set bit's digit plus the number of the bits above it.
        trit[byte] = 3u16.pow(byte.trailing_zeros()) + trit[byte & (byte - 1)];
        byte += 1;
    }
    trit
};

/// The ISOP of every interval over the three lowest variables, numbered as
/// in [`TRIT`].  An entry holds the cover in bits 0..8, the number of cubes
/// (at most four) in bits 8..11, and cube `i` in the six bits from
/// `11 + 6 i`: its positive literals, then its negative ones.  Filled once
/// per process by the word recursion itself, with the table turned off.
static INTERVAL_ISOP: LazyLock<[u64; 6561]> = LazyLock::new(|| {
    let mut table = [0; 6561];
    let mut cubes = Vec::with_capacity(4);
    for lower in 0..256usize {
        // Every `upper ⊇ lower`: `lower` plus each subset of the rest.
        let free = !lower & 0xff;
        let mut extra = free;
        loop {
            let upper = lower | extra;
            cubes.clear();
            let (l, u) = (lower as u64 * REPEAT_BYTE, upper as u64 * REPEAT_BYTE);
            let cover = isop_word::<false>(&mut cubes, l, u, 3, Cube::TAUTOLOGY);
            assert!(
                cubes.len() <= 4,
                "a three-variable ISOP has at most four cubes"
            );
            let mut entry = (cover & 0xff) | (cubes.len() as u64) << 8;
            for (i, cube) in cubes.iter().enumerate() {
                entry |= u64::from(cube.pos | cube.neg << 3) << (11 + 6 * i);
            }
            table[usize::from(TRIT[lower] + TRIT[upper])] = entry;
            if extra == 0 {
                break;
            }
            extra = (extra - 1) & free;
        }
    }
    table
});

/// [`isop_word`] at `top <= 3`, read from [`INTERVAL_ISOP`]: both bounds are
/// their low byte repeated.
fn isop_byte(cubes: &mut Vec<Cube>, lower: u64, upper: u64, prefix: Cube) -> u64 {
    let entry = INTERVAL_ISOP[usize::from(TRIT[lower as u8 as usize] + TRIT[upper as u8 as usize])];
    cubes.extend((0..entry >> 8 & 7).map(|i| {
        let literals = (entry >> (11 + 6 * i)) as u32;
        Cube {
            pos: prefix.pos | literals & 7,
            neg: prefix.neg | literals >> 3 & 7,
        }
    }));
    (entry & 0xff) * REPEAT_BYTE
}

/// Minato–Morreale ISOP of the interval `[lower, upper]` over the variables
/// below `top <= 6`, entirely in registers.  Both bounds are full 64-bit
/// tables that do not depend on any variable `>= top`.
///
/// Appends the cubes to `cubes`, each with the literals of `prefix` (the
/// split literals of the levels above) — those with the negative literal of
/// the split variable, then those with the positive one, then the rest — and
/// returns the function they cover.  With `TABLE`, an interval at `top <= 3`
/// is read from [`INTERVAL_ISOP`], which this recursion fills without it.
fn isop_word<const TABLE: bool>(
    cubes: &mut Vec<Cube>,
    lower: u64,
    upper: u64,
    top: usize,
    prefix: Cube,
) -> u64 {
    debug_assert_eq!(lower & !upper, 0, "lower bound must imply upper bound");
    if lower == 0 {
        return 0;
    }
    if TABLE && top <= 3 {
        return isop_byte(cubes, lower, upper, prefix);
    }
    if upper == !0 {
        cubes.push(prefix);
        return !0;
    }
    // The topmost variable either bound depends on.
    let mut var = top;
    let (mask, shift) = loop {
        assert!(var > 0, "non-constant interval must depend on a variable");
        var -= 1;
        let (mask, shift) = (ELEMENTARY[var], 1usize << var);
        if ((lower ^ (lower >> shift)) | (upper ^ (upper >> shift))) & !mask != 0 {
            break (mask, shift);
        }
    };
    let cofactor0 = |w: u64| (w & !mask) | ((w & !mask) << shift);
    let cofactor1 = |w: u64| (w & mask) | ((w & mask) >> shift);
    let (l0, l1) = (cofactor0(lower), cofactor1(lower));
    let (u0, u1) = (cofactor0(upper), cofactor1(upper));

    let bit = 1 << var;
    let prefix0 = Cube {
        neg: prefix.neg | bit,
        ..prefix
    };
    let cover0 = isop_child::<TABLE>(cubes, l0 & !u1, u0, var, prefix0);
    let prefix1 = Cube {
        pos: prefix.pos | bit,
        ..prefix
    };
    let cover1 = isop_child::<TABLE>(cubes, l1 & !u0, u1, var, prefix1);
    // Remaining minterms can be covered without mentioning `var`.
    let rest = (l0 & !cover0) | (l1 & !cover1);
    let cover_star = isop_child::<TABLE>(cubes, rest, u0 & u1, var, prefix);
    (cover0 & !mask) | (cover1 & mask) | cover_star
}

/// [`isop_word`] on a child interval, not called at all where its lower
/// bound is empty.
#[inline(always)]
fn isop_child<const TABLE: bool>(
    cubes: &mut Vec<Cube>,
    lower: u64,
    upper: u64,
    top: usize,
    prefix: Cube,
) -> u64 {
    if lower == 0 {
        0
    } else {
        isop_word::<TABLE>(cubes, lower, upper, top, prefix)
    }
}

/// The same recursion for bounds of more than one word (`2^k` words each,
/// i.e. `6 + k` variables): the cofactors of the top variable are the two
/// half-slices.  Writes the covered function to `cover`; `scratch` must hold
/// four times the bounds' length.
fn isop_slices(
    cubes: &mut Vec<Cube>,
    lower: &[u64],
    upper: &[u64],
    cover: &mut [u64],
    scratch: &mut [u64],
    prefix: Cube,
) {
    if lower.iter().all(|&w| w == 0) {
        cover.fill(0);
        return;
    }
    if upper.iter().all(|&w| w == !0) {
        cubes.push(prefix);
        cover.fill(!0);
        return;
    }
    // Drop top variables neither bound depends on: the low half is the whole
    // function then.
    let mut len = lower.len();
    while len > 1 {
        let half = len / 2;
        if lower[..half] != lower[half..len] || upper[..half] != upper[half..len] {
            break;
        }
        len = half;
    }
    if len == 1 {
        cover.fill(isop_word::<true>(cubes, lower[0], upper[0], 6, prefix));
        return;
    }
    if len == 2 {
        let pair = isop_pair(cubes, [lower[0], lower[1]], [upper[0], upper[1]], prefix);
        for chunk in cover.chunks_exact_mut(2) {
            chunk.copy_from_slice(&pair);
        }
        return;
    }
    let half = len / 2;
    let var = 6 + half.trailing_zeros() as usize;
    let (l0, l1) = lower[..len].split_at(half);
    let (u0, u1) = upper[..len].split_at(half);
    let (mine, scratch) = scratch.split_at_mut(4 * half);
    let (bound, mine) = mine.split_at_mut(half);
    let (upper_star, mine) = mine.split_at_mut(half);
    let (cover0, cover1) = mine.split_at_mut(half);

    for (b, (l, u)) in bound.iter_mut().zip(l0.iter().zip(u1)) {
        *b = l & !u;
    }
    let prefix0 = prefix.with_literal(var, false);
    isop_slices(cubes, bound, u0, cover0, scratch, prefix0);
    for (b, (l, u)) in bound.iter_mut().zip(l1.iter().zip(u0)) {
        *b = l & !u;
    }
    let prefix1 = prefix.with_literal(var, true);
    isop_slices(cubes, bound, u1, cover1, scratch, prefix1);
    for i in 0..half {
        bound[i] = (l0[i] & !cover0[i]) | (l1[i] & !cover1[i]);
        upper_star[i] = u0[i] & u1[i];
    }
    let (low, high) = cover[..len].split_at_mut(half);
    isop_slices(cubes, bound, upper_star, low, scratch, prefix);
    for i in 0..half {
        high[i] = cover1[i] | low[i];
        low[i] |= cover0[i];
    }
    // Repeat the cover over the dropped variables.
    while len < cover.len() {
        cover.copy_within(..len, len);
        len *= 2;
    }
}

/// [`isop_slices`] at two words (seven variables), in registers: the
/// cofactors of variable 6 are the two words.
fn isop_pair(cubes: &mut Vec<Cube>, lower: [u64; 2], upper: [u64; 2], prefix: Cube) -> [u64; 2] {
    let bit = 1 << 6;
    let prefix0 = Cube {
        neg: prefix.neg | bit,
        ..prefix
    };
    let cover0 = isop_child::<true>(cubes, lower[0] & !upper[1], upper[0], 6, prefix0);
    let prefix1 = Cube {
        pos: prefix.pos | bit,
        ..prefix
    };
    let cover1 = isop_child::<true>(cubes, lower[1] & !upper[0], upper[1], 6, prefix1);
    let rest = (lower[0] & !cover0) | (lower[1] & !cover1);
    let star = isop_child::<true>(cubes, rest, upper[0] & upper[1], 6, prefix);
    [cover0 | star, cover1 | star]
}

/// The table-at-a-time Minato–Morreale recursion [`Sop::isop`] used before
/// it moved onto word slices, kept as the oracle the new one is compared
/// against cube for cube.
///
/// Returns the cubes and the function they cover.
#[cfg(test)]
fn isop_rec(lower: &TruthTable, upper: &TruthTable, top: usize) -> (Vec<Cube>, TruthTable) {
    debug_assert!(lower.implies(upper), "lower bound must imply upper bound");
    if lower.is_zero() {
        return (Vec::new(), TruthTable::zeros(lower.num_vars()));
    }
    if upper.is_one() {
        return (vec![Cube::TAUTOLOGY], TruthTable::ones(lower.num_vars()));
    }
    // Find the topmost variable either bound depends on.
    let mut var = top;
    loop {
        assert!(var > 0, "non-constant interval must depend on a variable");
        var -= 1;
        if lower.depends_on(var) || upper.depends_on(var) {
            break;
        }
    }

    let l0 = lower.cofactor0(var);
    let l1 = lower.cofactor1(var);
    let u0 = upper.cofactor0(var);
    let u1 = upper.cofactor1(var);

    // Cubes that must contain the negative literal of `var`.
    let (cubes0, cover0) = isop_rec(&l0.and_not(&u1), &u0, var);
    // Cubes that must contain the positive literal of `var`.
    let (cubes1, cover1) = isop_rec(&l1.and_not(&u0), &u1, var);
    // Remaining minterms can be covered without mentioning `var`.
    let l0_rest = l0.and_not(&cover0);
    let l1_rest = l1.and_not(&cover1);
    let (cubes_star, cover_star) = isop_rec(&(&l0_rest | &l1_rest), &(&u0 & &u1), var);

    let nv = lower.num_vars();
    let var_tt = TruthTable::var(var, nv);
    let cover = &(&(&cover0 & &!&var_tt) | &(&cover1 & &var_tt)) | &cover_star;

    let mut cubes = Vec::with_capacity(cubes0.len() + cubes1.len() + cubes_star.len());
    cubes.extend(cubes0.into_iter().map(|c| c.with_literal(var, false)));
    cubes.extend(cubes1.into_iter().map(|c| c.with_literal(var, true)));
    cubes.extend(cubes_star);
    (cubes, cover)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The function computed by a random gate list over the projections:
    /// few cubes, skipped variables, shared structure — the shape of a cut
    /// function, which a uniformly random table never has.  An empty list
    /// yields a single literal.
    fn gate_list_function(num_vars: usize, gates: &[(u8, u16, u16, bool)]) -> TruthTable {
        let mut pool: Vec<TruthTable> = (0..num_vars)
            .map(|var| TruthTable::var(var, num_vars))
            .collect();
        for &(op, a, b, negate) in gates {
            let (a, b) = (
                &pool[a as usize % pool.len()],
                &pool[b as usize % pool.len()],
            );
            let gate = match op % 3 {
                0 => a & b,
                1 => a | b,
                _ => a ^ b,
            };
            pool.push(if negate { !&gate } else { gate });
        }
        pool.pop().expect("at least one projection")
    }

    /// Functions of `num_vars` variables: uniform tables, sparse and dense
    /// ones, gate-list functions (single literals included) and constants.
    pub(crate) fn arbitrary_function(num_vars: usize) -> impl Strategy<Value = TruthTable> {
        let words = TruthTable::zeros(num_vars).words().len();
        let uniform = move || {
            prop::collection::vec(any::<u64>(), words)
                .prop_map(move |w| TruthTable::from_words(w, num_vars))
        };
        prop_oneof![
            uniform(),
            (uniform(), uniform(), uniform(), any::<bool>()).prop_map(|(a, b, c, dense)| {
                let sparse = &(&a & &b) & &c;
                if dense {
                    !&sparse
                } else {
                    sparse
                }
            }),
            prop::collection::vec((0u8..3, any::<u16>(), any::<u16>(), any::<bool>()), 0..24)
                .prop_map(move |gates| gate_list_function(num_vars, &gates)),
            any::<bool>().prop_map(move |value| {
                if value {
                    TruthTable::ones(num_vars)
                } else {
                    TruthTable::zeros(num_vars)
                }
            }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(384))]

        /// The word-slice recursion emits exactly the cubes of the
        /// table-at-a-time one, in the same order — on tables narrower than
        /// a word, on one word, and on up to 64 words; for a complete
        /// function and for an interval `[lower, lower | slack]`.
        #[test]
        fn isop_matches_the_table_oracle_cube_for_cube(
            bounds in (1usize..=12)
                .prop_flat_map(|n| (arbitrary_function(n), arbitrary_function(n)))
        ) {
            let (function, slack) = &bounds;
            let (cubes, cover) = isop_rec(function, function, function.num_vars());
            prop_assert_eq!(&cover, function);
            let sop = Sop::isop(function);
            prop_assert_eq!(sop.cubes(), &cubes[..]);

            let upper = function | slack;
            let (cubes, cover) = isop_rec(function, &upper, function.num_vars());
            prop_assert!(function.implies(&cover) && cover.implies(&upper));
            let mut interval = Vec::new();
            isop_interval(function, &upper, &mut interval, &mut Vec::new());
            prop_assert_eq!(interval, cubes);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// On multi-word tables (the width of default refactor cuts) the
        /// cover is exact, every cube is an implicant, and no cube can be
        /// dropped: each covers a minterm no other cube does.
        #[test]
        fn multi_word_isop_is_an_exact_irredundant_cover_of_implicants(
            function in (7usize..=10).prop_flat_map(arbitrary_function)
        ) {
            let sop = Sop::isop(&function);
            prop_assert_eq!(sop.to_truth_table(), function.clone());
            let minterms = 1usize << function.num_vars();
            let mut covered_by = vec![0u32; minterms];
            for cube in sop.cubes() {
                for (m, count) in covered_by.iter_mut().enumerate() {
                    if cube.covers(m) {
                        prop_assert!(function.get_bit(m), "cube {} leaves the ON-set at {}", cube, m);
                        *count += 1;
                    }
                }
            }
            for (index, cube) in sop.cubes().iter().enumerate() {
                prop_assert!(
                    (0..minterms).any(|m| cube.covers(m) && covered_by[m] == 1),
                    "cube {} ({}) is redundant", index, cube
                );
            }
        }
    }

    #[test]
    fn isop_matches_the_oracle_on_every_function_of_three_variables() {
        for bits in 0..256u64 {
            let function = TruthTable::from_words(vec![bits], 3);
            let (cubes, _) = isop_rec(&function, &function, 3);
            assert_eq!(Sop::isop(&function).cubes(), &cubes[..], "table {bits:#x}");
        }
    }

    /// Every interval over three variables, read from the table the way the
    /// recursion reads it, gives the oracle's cubes in order and its cover.
    /// The intervals are numbered here minterm by minterm, and `TRIT` must
    /// give each that number, so a wrong index fails as surely as a wrong
    /// entry.
    #[test]
    fn the_interval_table_matches_the_oracle_on_every_three_variable_interval() {
        for number in 0..6561usize {
            let (mut lower, mut upper, mut digits) = (0u64, 0u64, number);
            for minterm in 0..8 {
                match digits % 3 {
                    2 => lower |= 1 << minterm,
                    1 => upper |= 1 << minterm,
                    _ => {}
                }
                digits /= 3;
            }
            upper |= lower;
            let index = usize::from(TRIT[lower as usize] + TRIT[upper as usize]);
            assert_eq!(index, number, "interval [{lower:#04x}, {upper:#04x}]");

            let mut cubes = Vec::new();
            let cover = isop_byte(
                &mut cubes,
                lower * REPEAT_BYTE,
                upper * REPEAT_BYTE,
                Cube::TAUTOLOGY,
            );
            let table = |bits: u64| TruthTable::from_words(vec![bits], 3);
            let (expected, expected_cover) = isop_rec(&table(lower), &table(upper), 3);
            assert_eq!(cubes, expected, "interval [{lower:#04x}, {upper:#04x}]");
            assert_eq!(
                cover,
                expected_cover.words()[0] * REPEAT_BYTE,
                "interval [{lower:#04x}, {upper:#04x}]"
            );
        }
    }

    #[test]
    fn cube_basics() {
        let c = Cube::literal(0, true).with_literal(2, false);
        assert_eq!(c.num_literals(), 2);
        assert!(c.contains(0, true));
        assert!(c.contains(2, false));
        assert!(!c.contains(1, true));
        assert!(c.covers(0b001));
        assert!(!c.covers(0b101));
        assert_eq!(c.without(2, false), Cube::literal(0, true));
        assert_eq!(c.to_string(), "x0!x2");
        assert_eq!(Cube::TAUTOLOGY.to_string(), "1");
    }

    #[test]
    #[should_panic(expected = "contradictory")]
    fn contradictory_cube_panics() {
        let _ = Cube::literal(1, true).with_literal(1, false);
    }

    #[test]
    fn cube_truth_table() {
        let c = Cube::literal(0, true).with_literal(1, false);
        let tt = c.to_truth_table(2);
        assert_eq!(tt.count_ones(), 1);
        assert!(tt.get_bit(0b01));
    }

    #[test]
    fn isop_of_simple_functions() {
        // AND
        let a = TruthTable::var(0, 2);
        let b = TruthTable::var(1, 2);
        let and = &a & &b;
        let sop = Sop::isop(&and);
        assert_eq!(sop.num_cubes(), 1);
        assert_eq!(sop.to_truth_table(), and);

        // XOR needs two cubes.
        let xor = &a ^ &b;
        let sop = Sop::isop(&xor);
        assert_eq!(sop.num_cubes(), 2);
        assert_eq!(sop.to_truth_table(), xor);

        // Constants.
        assert!(Sop::isop(&TruthTable::zeros(3)).is_empty());
        let one = Sop::isop(&TruthTable::ones(3));
        assert_eq!(one.num_cubes(), 1);
        assert_eq!(one.cubes()[0], Cube::TAUTOLOGY);
    }

    #[test]
    fn isop_is_irredundant_for_majority() {
        // MAJ3 has exactly three prime implicants: ab + ac + bc.
        let a = TruthTable::var(0, 3);
        let b = TruthTable::var(1, 3);
        let c = TruthTable::var(2, 3);
        let maj = &(&(&a & &b) | &(&a & &c)) | &(&b & &c);
        let sop = Sop::isop(&maj);
        assert_eq!(sop.to_truth_table(), maj);
        assert_eq!(sop.num_cubes(), 3);
        assert_eq!(sop.num_literals(), 6);
    }

    #[test]
    fn isop_covers_multi_word_function() {
        // 8-variable function: (x0 & x7) | (x3 & !x6)
        let x0 = TruthTable::var(0, 8);
        let x3 = TruthTable::var(3, 8);
        let x6 = TruthTable::var(6, 8);
        let x7 = TruthTable::var(7, 8);
        let f = &(&x0 & &x7) | &(&x3 & &!&x6);
        let sop = Sop::isop(&f);
        assert_eq!(sop.to_truth_table(), f);
        assert!(sop.num_cubes() <= 3);
    }

    #[test]
    fn sop_display() {
        let a = TruthTable::var(0, 2);
        let b = TruthTable::var(1, 2);
        let or = &a | &b;
        let sop = Sop::isop(&or);
        assert_eq!(sop.to_truth_table(), or);
        assert!(!sop.to_string().is_empty());
    }
}
