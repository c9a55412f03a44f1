//! Algebraic factoring of sum-of-products covers into factored forms.
//!
//! Refactoring replaces the cut's function by the AIG translation of a
//! factored form, so the quality of factoring directly determines how many
//! AND gates the resynthesized cut needs.  The algorithm implemented here is
//! literal-based quick factoring (the classic `QUICK_FACTOR` of MIS/SIS,
//! also used by ABC's `Dec_Factor`): repeatedly divide the cover by its most
//! frequent literal and recurse on quotient and remainder.
//!
//! # One flat form
//!
//! A [`FactoredForm`] is an arena, like ABC's `Dec_Graph`: one `Vec` of
//! binary [`Gate`]s whose operands are small `Copy` [`Term`]s — a constant,
//! a literal, or the index of an earlier gate — plus the root term.  Copying
//! a form is one `memcpy`, dropping it one `free`, and a consumer walks it
//! from the root by index.
//!
//! [`factor_truth_table_into`] writes into a caller-owned form from the two
//! stacks of a [`FactorScratch`]: the cover sits at the bottom of one cube
//! stack, each division pushes its quotient on top (the remainder is
//! compacted in place, a cover is never read again once divided) and pops it
//! on return; cubes and disjunctions are reduced pairwise, in place, on one
//! term stack.  A warm scratch factors without touching the allocator.
//!
//! # Counting literals
//!
//! A cover's 32 literal counts (both phases of 16 variables) are held
//! bit-sliced: plane `i` is one word holding bit `i` of every literal's
//! count, and a cover of `n` cubes uses the bit length of `n` planes.
//! Cubes are added four at a time through carry-save adders, whatever
//! literals they hold, and the most frequent literal falls out of narrowing
//! the lanes from the top plane down.  A division writes every cube to both the
//! quotient and the remainder and advances only the side it belongs to,
//! noting a tautology quotient as it goes.  Counts are taken only where the
//! descent goes: a quotient's when the descent recurses into it, a
//! remainder's once the quotient has returned, so a factoring the watcher
//! stops early pays for neither.
//!
//! # Watching the gates go in
//!
//! [`factor_truth_table_into`] shows a watcher each gate as it is appended,
//! the form holding every gate so far, and stops the factoring where the
//! watcher returns `false`.  Gates are only ever appended, so the gates of a
//! stopped form are a prefix of the complete form's, gate for gate: a caller
//! that counts what each gate costs (the operators' gain count) can give up
//! as soon as the count has decided, without the rest of the form.

use std::fmt;

use crate::cover::{Cube, Sop};
use crate::truth::TruthTable;

/// An operand of a [`Gate`], or the root of a [`FactoredForm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Term {
    /// A constant.
    Const(bool),
    /// A possibly-negated variable.
    Literal {
        /// Variable index (cut leaf index).
        var: u8,
        /// Whether the literal is complemented.
        negated: bool,
    },
    /// The gate at this index of [`FactoredForm::gates`].
    Gate(u32),
}

/// A binary AND or OR over two [`Term`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gate {
    /// Disjunction when set, conjunction otherwise.
    pub or: bool,
    /// The two operands, in the order an AIG translation builds them.
    pub operands: [Term; 2],
}

/// A factored Boolean expression: a tree of binary AND/OR [`Gate`]s over
/// literals and constants, held in one arena.
///
/// A gate's operands name earlier gates only and every gate is used exactly
/// once, so the expression corresponds one-to-one with the AIG subgraph that
/// refactoring would build (each gate costs one AND node).  Equality is
/// arena equality: the same gates in the same order under the same root.
#[derive(Debug, PartialEq, Eq)]
pub struct FactoredForm {
    gates: Vec<Gate>,
    root: Term,
}

impl Default for FactoredForm {
    /// The constant-false form.
    fn default() -> Self {
        FactoredForm::leaf(Term::Const(false))
    }
}

impl Clone for FactoredForm {
    fn clone(&self) -> Self {
        FactoredForm {
            gates: self.gates.clone(),
            root: self.root,
        }
    }

    /// Copies into the gates `self` already has room for.
    fn clone_from(&mut self, source: &Self) {
        self.gates.clone_from(&source.gates);
        self.root = source.root;
    }
}

impl FactoredForm {
    /// The gate-free form of a constant or a literal.
    ///
    /// # Panics
    ///
    /// Panics if `term` is a gate reference.
    pub fn leaf(term: Term) -> Self {
        FactoredForm::from_parts(Vec::new(), term)
    }

    /// Assembles a form from its arena and root.
    ///
    /// # Panics
    ///
    /// Panics if a gate or the root refers to a gate that does not precede it.
    pub fn from_parts(gates: Vec<Gate>, root: Term) -> Self {
        let operands = gates
            .iter()
            .enumerate()
            .flat_map(|(index, gate)| gate.operands.map(|term| (term, index)));
        for (term, end) in operands.chain([(root, gates.len())]) {
            assert!(
                !matches!(term, Term::Gate(index) if index as usize >= end),
                "a gate's operands and the root must name earlier gates"
            );
        }
        FactoredForm { gates, root }
    }

    /// The gates, operands before the gates that use them.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// The term the expression evaluates to.
    pub fn root(&self) -> Term {
        self.root
    }

    /// Appends a gate and returns the term that names it.
    ///
    /// The index fits: a factored cover has fewer gates than literals, and a
    /// cover of distinct cubes over [`crate::MAX_VARS`] variables fewer than
    /// `16 * 3^16 < 2^30`.
    fn push(&mut self, or: bool, a: Term, b: Term) -> Term {
        let index = self.gates.len() as u32;
        self.gates.push(Gate {
            or,
            operands: [a, b],
        });
        Term::Gate(index)
    }

    /// Copies `source` into `self` gate by gate, showing `watch` each gate
    /// as factoring appended it, and stops where `watch` returns `false`
    /// (see the module docs).
    pub fn replay(&mut self, source: &FactoredForm, mut watch: impl FnMut(&FactoredForm) -> bool) {
        self.gates.clear();
        self.root = Term::Const(false);
        let complete = source.gates.iter().all(|&gate| {
            self.gates.push(gate);
            watch(self)
        });
        if complete {
            self.root = source.root;
        }
    }

    /// Number of binary gates (AND/OR nodes) in the expression, which equals
    /// the number of AIG AND nodes needed to implement it.
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// Number of literal leaves in the expression.
    pub fn num_literals(&self) -> usize {
        let literal = |term: &Term| matches!(term, Term::Literal { .. });
        let operands = self.gates.iter().flat_map(|gate| &gate.operands);
        operands
            .chain([&self.root])
            .filter(|term| literal(term))
            .count()
    }

    /// Depth of the expression tree in binary gates.
    pub fn depth(&self) -> usize {
        self.fold(|_| 0, |_, a, b| 1 + a.max(b))
    }

    /// Evaluates the expression into a truth table over `num_vars` variables.
    pub fn to_truth_table(&self, num_vars: usize) -> TruthTable {
        let leaf = |term| match term {
            Term::Const(false) => TruthTable::zeros(num_vars),
            Term::Const(true) => TruthTable::ones(num_vars),
            Term::Literal { var, negated } => {
                let table = TruthTable::var(usize::from(var), num_vars);
                if negated {
                    !&table
                } else {
                    table
                }
            }
            Term::Gate(_) => unreachable!("fold resolves gates"),
        };
        self.fold(leaf, |or, a, b| if or { &a | &b } else { &a & &b })
    }

    /// Evaluates the expression under a single input assignment.
    pub fn evaluate(&self, assignment: usize) -> bool {
        let leaf = |term| match term {
            Term::Const(value) => value,
            Term::Literal { var, negated } => (assignment >> var & 1 == 1) != negated,
            Term::Gate(_) => unreachable!("fold resolves gates"),
        };
        self.fold(leaf, |or, a, b| if or { a || b } else { a && b })
    }

    /// Evaluates the tree bottom-up: `leaf` values a constant or a literal,
    /// `gate` combines the values of a gate's operands (`or` first).
    fn fold<T: Clone>(&self, leaf: impl Fn(Term) -> T, gate: impl Fn(bool, T, T) -> T) -> T {
        let mut values: Vec<T> = Vec::with_capacity(self.gates.len());
        let value = |term, values: &[T]| match term {
            Term::Gate(index) => values[index as usize].clone(),
            _ => leaf(term),
        };
        for Gate { or, operands } in &self.gates {
            let [a, b] = operands.map(|term| value(term, &values));
            values.push(gate(*or, a, b));
        }
        value(self.root, &values)
    }
}

impl fmt::Display for FactoredForm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let leaf = |term| match term {
            Term::Const(value) => u8::from(value).to_string(),
            Term::Literal { var, negated } => format!("{}x{var}", if negated { "!" } else { "" }),
            Term::Gate(_) => unreachable!("fold resolves gates"),
        };
        let text = self.fold(leaf, |or, a, b| {
            format!("({a} {} {b})", if or { '|' } else { '&' })
        });
        f.write_str(&text)
    }
}

/// The buffers [`factor_truth_table_into`] works in; they grow to the
/// largest cover met and are reused from then on.
#[derive(Debug, Default)]
pub struct FactorScratch {
    /// The cover being factored, then the quotients of the divisions in
    /// progress, innermost on top.
    cubes: Vec<Cube>,
    /// The operands being reduced to one term.
    terms: Vec<Term>,
    /// The word buffer of [`Sop::isop_into`].
    words: Vec<u64>,
}

/// Factors a sum-of-products cover into a [`FactoredForm`].
///
/// The result is functionally identical to the cover
/// (`factor(s).to_truth_table() == s.to_truth_table()`) and typically needs
/// far fewer binary gates than the flat SOP.
pub fn factor(sop: &Sop) -> FactoredForm {
    let mut scratch = FactorScratch {
        cubes: sop.cubes().to_vec(),
        ..FactorScratch::default()
    };
    let mut form = FactoredForm::default();
    factor_cover(&mut scratch, &mut form, |_| true);
    form
}

/// Factors a truth table by first computing its irredundant SOP.
pub fn factor_truth_table(function: &TruthTable) -> FactoredForm {
    let mut form = FactoredForm::default();
    factor_truth_table_into(function, &mut FactorScratch::default(), &mut form, |_| true);
    form
}

/// [`factor_truth_table`] into the caller's form, working in the caller's
/// buffers (the cover goes straight onto the cube stack), showing `watch`
/// each gate as it is appended and stopping where it returns `false` (see
/// the module docs).  A stopped form holds the gates shown so far under a
/// constant-false root; a watcher that never stops it, `|_| true`, makes
/// this [`factor_truth_table`].
pub fn factor_truth_table_into(
    function: &TruthTable,
    scratch: &mut FactorScratch,
    form: &mut FactoredForm,
    watch: impl FnMut(&FactoredForm) -> bool,
) {
    Sop::isop_into(function, &mut scratch.cubes, &mut scratch.words);
    factor_cover(scratch, form, watch);
}

/// Factors the cover `scratch.cubes` holds into `form` under `watch`.
fn factor_cover(
    scratch: &mut FactorScratch,
    form: &mut FactoredForm,
    mut watch: impl FnMut(&FactoredForm) -> bool,
) {
    let FactorScratch { cubes, terms, .. } = scratch;
    // A stopped run leaves terms of its reductions behind, which would pile
    // up; a watched form's root is constant false until the run ends.
    terms.clear();
    form.gates.clear();
    form.root = Term::Const(false);
    if cubes.contains(&Cube::TAUTOLOGY) {
        form.root = Term::Const(true);
    } else if !cubes.is_empty() {
        let end = cubes.len();
        let emit = |or, a, b| {
            let term = form.push(or, a, b);
            watch(form).then_some(term)
        };
        let root = Factoring { cubes, terms, emit }.cover(0, end);
        form.root = root.unwrap_or(Term::Const(false));
    }
}

/// A cube's literals as lanes of a word: the positive literal of variable
/// `v` at bit `v`, the negative one at bit `16 + v` (a cube is at most
/// [`crate::MAX_VARS`] wide).
fn lanes(cube: Cube) -> u32 {
    cube.pos | cube.neg << 16
}

/// Cubes per literal, bit-sliced: plane `i` holds bit `i` of the count of
/// every lane (see [`lanes`]).  A cover of `n` cubes uses the bit length of
/// `n` planes, so adding a cube increments every lane at once, the same
/// work whatever literals it holds.
struct LiteralCounts {
    planes: [u32; u32::BITS as usize],
    len: usize,
}

impl LiteralCounts {
    /// The counts of `cubes` (fewer than `2^32` of them).
    ///
    /// Four cubes at a time go through carry-save adders into planes 0 and
    /// 1, and only their carry into plane 2 ripples up.
    fn of(cubes: &[Cube]) -> Self {
        let mut planes = [0; u32::BITS as usize];
        let len = (usize::BITS - cubes.len().leading_zeros()) as usize;
        // Three words in, their lane-wise sum out: (bit 0, bit 1).
        let add = |a: u32, b: u32, c: u32| (a ^ b ^ c, (a & b) | ((a ^ b) & c));
        let ripple = |planes: &mut [u32], mut carry: u32| {
            for plane in planes {
                let next = *plane & carry;
                *plane ^= carry;
                carry = next;
            }
        };
        let mut quads = cubes.chunks_exact(4);
        for quad in &mut quads {
            let [a, b, c, d] = [0, 1, 2, 3].map(|i| lanes(quad[i]));
            let (ones, twos_ab) = add(planes[0], a, b);
            let (ones, twos_cd) = add(ones, c, d);
            let (twos, fours) = add(planes[1], twos_ab, twos_cd);
            planes[0] = ones;
            planes[1] = twos;
            ripple(&mut planes[2..len], fours);
        }
        for &cube in quads.remainder() {
            ripple(&mut planes[..len], lanes(cube));
        }
        LiteralCounts { planes, len }
    }

    /// The literal occurring in the most cubes, if any occurs in at least
    /// two; among equals the lowest variable, its positive phase first.
    ///
    /// The lanes of the highest count are found by narrowing every lane to
    /// those set in each plane from the top down, where any is.
    fn most_frequent(&self) -> Option<(usize, bool)> {
        let planes = &self.planes[..self.len];
        let [_, high @ ..] = planes else {
            return None;
        };
        if high.iter().all(|&plane| plane == 0) {
            return None;
        }
        let mut best = !0u32;
        for &plane in planes.iter().rev() {
            let kept = best & plane;
            if kept != 0 {
                best = kept;
            }
        }
        let var = (best | best >> 16).trailing_zeros() as usize;
        Some((var, best >> var & 1 == 1))
    }
}

/// One run of [`factor_cover`]: the two stacks, and `emit`, which appends a
/// gate to the form and returns its term, or `None` once the watcher has
/// stopped the run.  Each step returns `None` from then on, leaving the
/// stacks as they were.
struct Factoring<'a, E: FnMut(bool, Term, Term) -> Option<Term>> {
    cubes: &'a mut Vec<Cube>,
    terms: &'a mut Vec<Term>,
    emit: E,
}

impl<E: FnMut(bool, Term, Term) -> Option<Term>> Factoring<'_, E> {
    /// Factors the cover `cubes[start..end]` — at least one cube, none the
    /// tautology.  The range is consumed: dividing compacts the remainder
    /// into its front.  A cover's literals are counted only once the descent
    /// reaches it: the quotient's when the descent recurses into it, the
    /// remainder's after the quotient returns.
    fn cover(&mut self, start: usize, end: usize) -> Option<Term> {
        if end - start == 1 {
            return self.cube(self.cubes[start]);
        }
        let counts = LiteralCounts::of(&self.cubes[start..end]);
        let Some((var, positive)) = counts.most_frequent() else {
            // No shared literal: the cover is already a simple OR of cubes.
            let base = self.terms.len();
            for index in start..end {
                let term = self.cube(self.cubes[index])?;
                self.terms.push(term);
            }
            return self.reduce(base, true);
        };
        let top = self.cubes.len();
        let (remainder_end, tautology) = self.divide(start, end, var, positive);
        let lit = Term::Literal {
            var: var as u8,
            negated: !positive,
        };
        let product = if tautology {
            lit
        } else {
            let quotient = self.cover(top, self.cubes.len())?;
            (self.emit)(false, lit, quotient)?
        };
        self.cubes.truncate(top);
        if remainder_end == start {
            Some(product)
        } else {
            let remainder = self.cover(start, remainder_end)?;
            (self.emit)(true, product, remainder)
        }
    }

    /// Divides `cubes[start..end]` by a literal: `F = lit * Q + R`, `Q`
    /// pushed on top of the stack and `R` compacted where `F` was.  Every cube
    /// is written to both places and only the right end advances, so the
    /// split has no branch per cube.  Returns where `R` ends and whether `Q`
    /// holds the tautology (a cube of the literal alone).
    fn divide(&mut self, start: usize, end: usize, var: usize, positive: bool) -> (usize, bool) {
        let literal = 1u32 << (var + if positive { 0 } else { 16 });
        let (keep_pos, keep_neg) = (!(literal & 0xffff), !(literal >> 16));
        let top = self.cubes.len();
        self.cubes.resize(top + (end - start), Cube::TAUTOLOGY);
        let (cover, quotient) = self.cubes.split_at_mut(top);
        let (mut taken, mut kept, mut tautology) = (0, start, false);
        for index in start..end {
            let cube = cover[index];
            let held = lanes(cube);
            let holds = held & literal != 0;
            quotient[taken] = Cube {
                pos: cube.pos & keep_pos,
                neg: cube.neg & keep_neg,
            };
            cover[kept] = cube;
            taken += usize::from(holds);
            kept += usize::from(!holds);
            tautology |= held == literal;
        }
        self.cubes.truncate(top + taken);
        (kept, tautology)
    }

    /// The balanced AND tree of a cube's literals, lowest variable first.
    fn cube(&mut self, cube: Cube) -> Option<Term> {
        let base = self.terms.len();
        let mut rest = cube.pos | cube.neg;
        while rest != 0 {
            let var = rest.trailing_zeros();
            self.terms.push(Term::Literal {
                var: var as u8,
                negated: cube.neg >> var & 1 == 1,
            });
            rest &= rest - 1;
        }
        self.reduce(base, false)
    }

    /// Pops `terms[base..]` (at least one term) and returns their balanced
    /// AND or OR tree: neighbours are paired level by level, in place, an odd
    /// last term moving up unpaired.
    fn reduce(&mut self, base: usize, or: bool) -> Option<Term> {
        let mut len = self.terms.len() - base;
        assert!(len > 0, "cannot reduce an empty term list");
        while len > 1 {
            for pair in 0..len / 2 {
                let [a, b] = [0, 1].map(|side| self.terms[base + 2 * pair + side]);
                self.terms[base + pair] = (self.emit)(or, a, b)?;
            }
            if len % 2 == 1 {
                self.terms[base + len / 2] = self.terms[base + len - 1];
            }
            len = len.div_ceil(2);
        }
        let term = self.terms[base];
        self.terms.truncate(base);
        Some(term)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cover::tests::arbitrary_function;

    fn check_factor(function: &TruthTable) -> FactoredForm {
        let sop = Sop::isop(function);
        let expr = factor(&sop);
        assert_eq!(
            expr.to_truth_table(function.num_vars()),
            *function,
            "factored form must match the function"
        );
        expr
    }

    #[test]
    fn factor_constants() {
        assert_eq!(factor(&Sop::new(3)).root(), Term::Const(false));
        let ones = check_factor(&TruthTable::ones(3));
        assert_eq!(ones, FactoredForm::leaf(Term::Const(true)));
    }

    #[test]
    fn factor_single_literal() {
        let a = TruthTable::var(2, 4);
        let expr = check_factor(&a);
        assert_eq!(expr.num_gates(), 0);
        let expr = check_factor(&!&a);
        assert_eq!(expr.num_gates(), 0);
        assert_eq!(expr.num_literals(), 1);
    }

    #[test]
    fn factoring_extracts_shared_literal() {
        // f = a b + a c  ==>  a (b + c): 2 gates instead of 3.
        let a = TruthTable::var(0, 3);
        let b = TruthTable::var(1, 3);
        let c = TruthTable::var(2, 3);
        let f = &(&a & &b) | &(&a & &c);
        let expr = check_factor(&f);
        assert_eq!(expr.num_gates(), 2);
        assert_eq!(expr.num_literals(), 3);
    }

    #[test]
    fn factoring_xor_keeps_function() {
        let a = TruthTable::var(0, 2);
        let b = TruthTable::var(1, 2);
        let f = &a ^ &b;
        let expr = check_factor(&f);
        assert_eq!(expr.num_gates(), 3);
    }

    #[test]
    fn factoring_majority() {
        let a = TruthTable::var(0, 3);
        let b = TruthTable::var(1, 3);
        let c = TruthTable::var(2, 3);
        let maj = &(&(&a & &b) | &(&a & &c)) | &(&b & &c);
        let expr = check_factor(&maj);
        // Factored MAJ3 = a(b+c) + bc uses 4 gates, better than the flat SOP's 5.
        assert!(expr.num_gates() <= 4);
    }

    #[test]
    fn evaluate_matches_truth_table() {
        let a = TruthTable::var(0, 4);
        let b = TruthTable::var(1, 4);
        let c = TruthTable::var(2, 4);
        let d = TruthTable::var(3, 4);
        let f = &(&(&a & &b) | &(&c & &d)) ^ &a;
        let expr = check_factor(&f);
        for m in 0..16 {
            assert_eq!(expr.evaluate(m), f.get_bit(m));
        }
    }

    #[test]
    fn depth_of_balanced_cube() {
        let cube = Cube::TAUTOLOGY
            .with_literal(0, true)
            .with_literal(1, true)
            .with_literal(2, true)
            .with_literal(3, true);
        let sop = Sop::from_cubes(4, vec![cube]);
        let expr = factor(&sop);
        assert_eq!(expr.num_gates(), 3);
        assert_eq!(expr.depth(), 2);
    }

    /// The per-literal counts, their scan and the eager subtraction the
    /// descent used before the counts were bit-sliced and taken lazily, kept
    /// as the oracle [`LiteralCounts`] is compared against.
    mod per_literal {
        use crate::cover::Cube;

        /// Cubes per literal: the positive literal of variable `v` at `v`, the
        /// negative one at `16 + v`.
        pub type LiteralCounts = [u16; 32];

        pub fn count_literals(cubes: &[Cube]) -> LiteralCounts {
            let mut counts = [0; 32];
            for cube in cubes {
                let mut rest = cube.pos | cube.neg << 16;
                while rest != 0 {
                    counts[rest.trailing_zeros() as usize] += 1;
                    rest &= rest - 1;
                }
            }
            counts
        }

        /// The literal occurring in the most cubes, if any occurs in at least
        /// two.
        ///
        /// The counts are scanned lowest variable and positive phase first, so
        /// ties go to the earliest literal in that order.
        pub fn most_frequent_literal(counts: &LiteralCounts) -> Option<(usize, bool)> {
            let mut best: Option<(usize, bool, u16)> = None; // (var, phase, count)
            for var in 0..16 {
                for positive in [true, false] {
                    let count = counts[if positive { var } else { 16 + var }];
                    if count >= 2 && best.is_none_or(|(_, _, c)| count > c) {
                        best = Some((var, positive, count));
                    }
                }
            }
            best.map(|(var, positive, _)| (var, positive))
        }

        /// The remainder's counts after dividing a cover counted `counts` by
        /// `(var, positive)` into a quotient counted `quotient`: what is left
        /// of the cover's, none of the dividing literal (every cube holding
        /// it went to the quotient).
        pub fn remainder_counts(
            counts: &LiteralCounts,
            quotient: &LiteralCounts,
            var: usize,
            positive: bool,
        ) -> LiteralCounts {
            let mut remainder = *counts;
            for (left, taken) in remainder.iter_mut().zip(quotient) {
                *left -= taken;
            }
            remainder[if positive { var } else { 16 + var }] = 0;
            remainder
        }
    }

    /// The bit-sliced counts of `cubes` read lane by lane, as the oracle
    /// holds them; the planes past the cover's bit length must be empty.
    fn sliced_counts(cubes: &[Cube]) -> per_literal::LiteralCounts {
        let counts = LiteralCounts::of(cubes);
        assert!(counts.planes[counts.len..].iter().all(|&plane| plane == 0));
        std::array::from_fn(|lane| {
            let bits = counts.planes.iter().enumerate();
            bits.map(|(bit, plane)| (plane >> lane & 1) << bit)
                .sum::<u32>() as u16
        })
    }

    #[test]
    fn most_frequent_literal_matches_the_per_literal_scan() {
        // The definition: per literal, count the cubes containing it; the
        // first literal (lowest variable, positive phase first) with the
        // highest count of at least two wins.
        let scan = |cubes: &[Cube], num_vars: usize| {
            let mut best: Option<(usize, bool, usize)> = None;
            for var in 0..num_vars {
                for positive in [true, false] {
                    let count = cubes.iter().filter(|c| c.contains(var, positive)).count();
                    if count >= 2 && best.is_none_or(|(_, _, c)| count > c) {
                        best = Some((var, positive, count));
                    }
                }
            }
            best.map(|(var, positive, _)| (var, positive))
        };
        for num_vars in 1..=10usize {
            for salt in 0..40usize {
                let function = TruthTable::from_fn(num_vars, |m| {
                    ((m + 3 * salt).wrapping_mul(2654435761) >> 5) % 3 == 0
                });
                let cubes = Sop::isop(&function).cubes().to_vec();
                // Every suffix is a cover the recursion may meet.
                for start in 0..cubes.len() {
                    let cover = &cubes[start..];
                    let oracle = per_literal::count_literals(cover);
                    assert_eq!(sliced_counts(cover), oracle);
                    let best = LiteralCounts::of(cover).most_frequent();
                    assert_eq!(best, scan(cover, num_vars));
                    assert_eq!(best, per_literal::most_frequent_literal(&oracle));
                }
            }
        }
        // A tie between x0 (positive) and !x1: the earlier literal wins.
        let tie = [
            Cube::literal(0, true).with_literal(1, false),
            Cube::literal(0, true).with_literal(2, true),
            Cube::literal(1, false).with_literal(3, true),
        ];
        assert_eq!(LiteralCounts::of(&tie).most_frequent(), Some((0, true)));
        // Both phases of x15 tie: the positive one wins.
        let tie = [
            Cube::literal(15, true),
            Cube::literal(15, false).with_literal(3, true),
            Cube::literal(15, true).with_literal(14, false),
            Cube::literal(15, false),
        ];
        assert_eq!(LiteralCounts::of(&tie).most_frequent(), Some((15, true)));
        assert_eq!(LiteralCounts::of(&[]).most_frequent(), None);
        assert_eq!(LiteralCounts::of(&tie[..1]).most_frequent(), None);
    }

    /// Random cube lists over all sixteen variables, built to tie: a list
    /// of one or two cubes, or of up to 300, alone or followed by its
    /// mirror image — every cube with its phases swapped (each variable's
    /// two literals tie), with two variables swapped (their literals tie
    /// pairwise), or repeated (every count doubles).
    fn tying_cubes() -> impl proptest::prelude::Strategy<Value = Vec<Cube>> {
        use proptest::prelude::*;
        let cube = || {
            (any::<u16>(), any::<u16>(), any::<u16>(), any::<bool>()).prop_map(
                |(a, b, c, sparse)| {
                    let keep = if sparse { b & c } else { !0 };
                    Cube {
                        pos: u32::from(a & b & keep),
                        neg: u32::from(!a & c & keep),
                    }
                },
            )
        };
        let len = prop_oneof![1usize..=1, 2usize..=2, 1usize..=300];
        let list = len.prop_flat_map(move |len| proptest::collection::vec(cube(), len));
        (list, 0u8..4, 0usize..16, 0usize..16).prop_map(|(mut cubes, mirror, a, b)| {
            let swap = |mask: u32| {
                let (bit_a, bit_b) = (mask >> a & 1, mask >> b & 1);
                mask & !(1 << a | 1 << b) | bit_a << b | bit_b << a
            };
            let image = |cube: Cube| match mirror {
                1 => Cube {
                    pos: cube.neg,
                    neg: cube.pos,
                },
                2 => Cube {
                    pos: swap(cube.pos),
                    neg: swap(cube.neg),
                },
                _ => cube,
            };
            if mirror != 0 {
                let images: Vec<Cube> = cubes.iter().map(|&cube| image(cube)).collect();
                cubes.extend(images);
            }
            cubes
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// The bit-sliced counts are the per-literal ones lane for lane and
        /// pick the same literal, ties included; dividing by it splits the
        /// cover as the per-cube test does, notes a tautology quotient, and
        /// leaves a remainder whose counts, taken afresh, are the eager
        /// subtraction's.
        #[test]
        fn bit_sliced_counts_match_the_per_literal_oracle(cubes in tying_cubes()) {
            let oracle = per_literal::count_literals(&cubes);
            proptest::prop_assert_eq!(sliced_counts(&cubes), oracle);
            let best = LiteralCounts::of(&cubes).most_frequent();
            proptest::prop_assert_eq!(best, per_literal::most_frequent_literal(&oracle));
            let Some((var, positive)) = best else {
                return;
            };
            let (quotient, remainder): (Vec<Cube>, Vec<Cube>) =
                cubes.iter().partition(|cube| cube.contains(var, positive));
            let quotient: Vec<Cube> =
                quotient.iter().map(|cube| cube.without(var, positive)).collect();

            let (mut stack, mut terms) = (cubes.clone(), Vec::new());
            let mut factoring = Factoring {
                cubes: &mut stack,
                terms: &mut terms,
                emit: |_, _, _| None,
            };
            let (remainder_end, tautology) = factoring.divide(0, cubes.len(), var, positive);
            proptest::prop_assert_eq!(&stack[..remainder_end], &remainder[..]);
            proptest::prop_assert_eq!(&stack[cubes.len()..], &quotient[..]);
            proptest::prop_assert_eq!(tautology, quotient.contains(&Cube::TAUTOLOGY));
            let eager = per_literal::remainder_counts(
                &oracle,
                &per_literal::count_literals(&quotient),
                var,
                positive,
            );
            proptest::prop_assert_eq!(sliced_counts(&remainder), eager);
        }
    }

    #[test]
    fn display_is_readable() {
        let a = TruthTable::var(0, 2);
        let b = TruthTable::var(1, 2);
        let f = &a & &b;
        let expr = check_factor(&f);
        let text = expr.to_string();
        assert!(text.contains("x0"));
        assert!(text.contains("x1"));
        assert!(text.contains('&'));
    }

    /// The boxed tree and the `Vec`-per-division factoring this module used
    /// before the arena, kept verbatim: the oracle [`factor`] is compared
    /// against tree for tree.
    mod boxed {
        use std::fmt;

        use crate::cover::{Cube, Sop};
        use crate::truth::TruthTable;

        /// A factored Boolean expression.
        ///
        /// Leaves are literals or constants; internal nodes are binary AND/OR
        /// operators.  The expression corresponds one-to-one with the AIG subgraph
        /// that refactoring would build (each binary operator costs one AND gate).
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub enum FactoredForm {
            /// A constant.
            Const(bool),
            /// A possibly-negated variable.
            Literal {
                /// Variable index (cut leaf index).
                var: usize,
                /// Whether the literal is complemented.
                negated: bool,
            },
            /// Conjunction of two sub-expressions.
            And(Box<FactoredForm>, Box<FactoredForm>),
            /// Disjunction of two sub-expressions.
            Or(Box<FactoredForm>, Box<FactoredForm>),
        }

        impl FactoredForm {
            /// Number of binary gates (AND/OR nodes) in the expression, which equals
            /// the number of AIG AND nodes needed to implement it.
            pub fn num_gates(&self) -> usize {
                match self {
                    FactoredForm::Const(_) | FactoredForm::Literal { .. } => 0,
                    FactoredForm::And(a, b) | FactoredForm::Or(a, b) => {
                        1 + a.num_gates() + b.num_gates()
                    }
                }
            }

            /// Number of literal leaves in the expression.
            pub fn num_literals(&self) -> usize {
                match self {
                    FactoredForm::Const(_) => 0,
                    FactoredForm::Literal { .. } => 1,
                    FactoredForm::And(a, b) | FactoredForm::Or(a, b) => {
                        a.num_literals() + b.num_literals()
                    }
                }
            }

            /// Depth of the expression tree in binary gates.
            pub fn depth(&self) -> usize {
                match self {
                    FactoredForm::Const(_) | FactoredForm::Literal { .. } => 0,
                    FactoredForm::And(a, b) | FactoredForm::Or(a, b) => {
                        1 + a.depth().max(b.depth())
                    }
                }
            }

            /// Evaluates the expression into a truth table over `num_vars` variables.
            pub fn to_truth_table(&self, num_vars: usize) -> TruthTable {
                match self {
                    FactoredForm::Const(false) => TruthTable::zeros(num_vars),
                    FactoredForm::Const(true) => TruthTable::ones(num_vars),
                    FactoredForm::Literal { var, negated } => {
                        let t = TruthTable::var(*var, num_vars);
                        if *negated {
                            !&t
                        } else {
                            t
                        }
                    }
                    FactoredForm::And(a, b) => {
                        &a.to_truth_table(num_vars) & &b.to_truth_table(num_vars)
                    }
                    FactoredForm::Or(a, b) => {
                        &a.to_truth_table(num_vars) | &b.to_truth_table(num_vars)
                    }
                }
            }
        }

        impl fmt::Display for FactoredForm {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                match self {
                    FactoredForm::Const(v) => write!(f, "{}", u8::from(*v)),
                    FactoredForm::Literal { var, negated } => {
                        if *negated {
                            write!(f, "!x{var}")
                        } else {
                            write!(f, "x{var}")
                        }
                    }
                    FactoredForm::And(a, b) => write!(f, "({a} & {b})"),
                    FactoredForm::Or(a, b) => write!(f, "({a} | {b})"),
                }
            }
        }

        /// Factors a sum-of-products cover into a [`FactoredForm`].
        ///
        /// The result is functionally identical to the cover
        /// (`factor(s).to_truth_table() == s.to_truth_table()`) and typically needs
        /// far fewer binary gates than the flat SOP.
        pub fn factor(sop: &Sop) -> FactoredForm {
            factor_cubes(sop.cubes(), sop.num_vars())
        }

        fn factor_cubes(cubes: &[Cube], num_vars: usize) -> FactoredForm {
            if cubes.is_empty() {
                return FactoredForm::Const(false);
            }
            if cubes.contains(&Cube::TAUTOLOGY) {
                return FactoredForm::Const(true);
            }
            if cubes.len() == 1 {
                return cube_to_and_tree(&cubes[0], num_vars);
            }
            let Some((var, positive)) = most_frequent_literal(cubes, num_vars) else {
                // No shared literal: the cover is already a simple OR of cubes.
                let terms: Vec<FactoredForm> = cubes
                    .iter()
                    .map(|c| cube_to_and_tree(c, num_vars))
                    .collect();
                return balanced_or(terms);
            };
            // Divide by the literal: F = lit * Q + R.
            let mut quotient = Vec::new();
            let mut remainder = Vec::new();
            for cube in cubes {
                if cube.contains(var, positive) {
                    quotient.push(cube.without(var, positive));
                } else {
                    remainder.push(*cube);
                }
            }
            let lit = FactoredForm::Literal {
                var,
                negated: !positive,
            };
            let quotient_expr = factor_cubes(&quotient, num_vars);
            let product = match quotient_expr {
                FactoredForm::Const(true) => lit,
                other => FactoredForm::And(Box::new(lit), Box::new(other)),
            };
            if remainder.is_empty() {
                product
            } else {
                FactoredForm::Or(
                    Box::new(product),
                    Box::new(factor_cubes(&remainder, num_vars)),
                )
            }
        }

        /// The literal occurring in the most cubes, if any occurs in at least two.
        ///
        /// Occurrences are counted in one pass over the cubes, then scanned lowest
        /// variable and positive phase first, so ties go to the earliest literal in
        /// that order.
        fn most_frequent_literal(cubes: &[Cube], num_vars: usize) -> Option<(usize, bool)> {
            let mut counts = [[0usize; 2]; u32::BITS as usize]; // [var][positive]
            for cube in cubes {
                for (mask, positive) in [(cube.pos, true), (cube.neg, false)] {
                    let mut rest = mask;
                    while rest != 0 {
                        counts[rest.trailing_zeros() as usize][usize::from(positive)] += 1;
                        rest &= rest - 1;
                    }
                }
            }
            let mut best: Option<(usize, bool, usize)> = None; // (var, phase, count)
            for (var, by_phase) in counts.iter().enumerate().take(num_vars) {
                for positive in [true, false] {
                    let count = by_phase[usize::from(positive)];
                    if count >= 2 && best.is_none_or(|(_, _, c)| count > c) {
                        best = Some((var, positive, count));
                    }
                }
            }
            best.map(|(var, positive, _)| (var, positive))
        }

        fn cube_to_and_tree(cube: &Cube, num_vars: usize) -> FactoredForm {
            let mut literals = Vec::with_capacity(cube.num_literals());
            for var in 0..num_vars {
                if cube.contains(var, true) {
                    literals.push(FactoredForm::Literal {
                        var,
                        negated: false,
                    });
                }
                if cube.contains(var, false) {
                    literals.push(FactoredForm::Literal { var, negated: true });
                }
            }
            if literals.is_empty() {
                return FactoredForm::Const(true);
            }
            balanced_and(literals)
        }

        fn balanced_and(mut terms: Vec<FactoredForm>) -> FactoredForm {
            balanced_reduce(&mut terms, FactoredForm::And)
        }

        fn balanced_or(mut terms: Vec<FactoredForm>) -> FactoredForm {
            balanced_reduce(&mut terms, FactoredForm::Or)
        }

        fn balanced_reduce(
            terms: &mut Vec<FactoredForm>,
            combine: fn(Box<FactoredForm>, Box<FactoredForm>) -> FactoredForm,
        ) -> FactoredForm {
            assert!(!terms.is_empty(), "cannot reduce an empty term list");
            while terms.len() > 1 {
                let mut next = Vec::with_capacity(terms.len().div_ceil(2));
                let mut iter = terms.drain(..);
                while let Some(first) = iter.next() {
                    match iter.next() {
                        Some(second) => next.push(combine(Box::new(first), Box::new(second))),
                        None => next.push(first),
                    }
                }
                drop(iter);
                *terms = next;
            }
            terms.pop().expect("reduced to a single term")
        }
    }

    /// The boxed tree a flat form spells out.
    fn boxed_tree(form: &FactoredForm) -> boxed::FactoredForm {
        let leaf = |term| match term {
            Term::Const(value) => boxed::FactoredForm::Const(value),
            Term::Literal { var, negated } => boxed::FactoredForm::Literal {
                var: usize::from(var),
                negated,
            },
            Term::Gate(_) => unreachable!("fold resolves gates"),
        };
        form.fold(leaf, |or, a, b| {
            let combine = if or {
                boxed::FactoredForm::Or
            } else {
                boxed::FactoredForm::And
            };
            combine(Box::new(a), Box::new(b))
        })
    }

    /// Factors `sop` both ways and expects one tree: equal as trees, in
    /// print, in every count and as functions.  Returns the flat form.
    fn assert_matches_boxed(sop: &Sop) -> FactoredForm {
        let oracle = boxed::factor(sop);
        let form = factor(sop);
        assert_eq!(boxed_tree(&form), oracle, "cover {sop}");
        assert_eq!(form.to_string(), oracle.to_string());
        assert_eq!(form.num_gates(), oracle.num_gates());
        assert_eq!(form.num_literals(), oracle.num_literals());
        assert_eq!(form.depth(), oracle.depth());
        let num_vars = sop.num_vars();
        assert_eq!(
            form.to_truth_table(num_vars),
            oracle.to_truth_table(num_vars)
        );
        form
    }

    /// A width of one variable to [`crate::MAX_VARS`], one draw in `one_in`
    /// twelve variables or more, where lanes 11 to 15 of either phase are
    /// counted and a uniform table's cover runs to thousands of cubes (10 544
    /// at sixteen variables, whose check against the boxed oracle takes a
    /// second in a debug build), the rest narrower.
    fn width(one_in: u8) -> impl proptest::prelude::Strategy<Value = usize> {
        let draws = (0..one_in, 1usize..=11, 12usize..=crate::MAX_VARS);
        proptest::prelude::Strategy::prop_map(
            draws,
            |(pick, narrow, wide)| {
                if pick == 0 {
                    wide
                } else {
                    narrow
                }
            },
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(768))]

        /// The arena factoring is the boxed one, tree for tree, on every
        /// function family the ISOP is tested on, and a scratch that has met
        /// other functions before changes nothing.
        #[test]
        fn flat_factoring_matches_the_boxed_oracle(
            functions in proptest::collection::vec(
                proptest::prelude::Strategy::prop_flat_map(width(64), arbitrary_function),
                1..4,
            )
        ) {
            let mut scratch = FactorScratch::default();
            for function in &functions {
                let form = assert_matches_boxed(&Sop::isop(function));
                let mut via_table = FactoredForm::default();
                factor_truth_table_into(function, &mut scratch, &mut via_table, |_| true);
                proptest::prop_assert_eq!(&via_table, &form);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(384))]

        /// A watcher shown each gate as it is appended, stopping at gate `k`,
        /// leaves exactly the first `k` gates of the complete form — factored
        /// or replayed — and the scratch the stopped run left behind factors
        /// the next function as a cold one does, its term stack emptied.
        #[test]
        fn a_stopped_factoring_is_a_prefix_and_leaves_the_scratch_clean(
            functions in proptest::collection::vec(
                proptest::prelude::Strategy::prop_flat_map(width(4), arbitrary_function),
                2..5,
            ),
            stops in proptest::collection::vec(proptest::prelude::any::<usize>(), 5),
        ) {
            let (mut scratch, mut form) = (FactorScratch::default(), FactoredForm::default());
            for (function, stop) in functions.iter().zip(&stops) {
                let complete = factor(&Sop::isop(function));
                let mut warm = FactoredForm::default();
                factor_truth_table_into(function, &mut scratch, &mut warm, |_| true);
                proptest::prop_assert_eq!(&warm, &complete);
                // What a stopped run left on the term stack is not carried on.
                proptest::prop_assert!(scratch.terms.is_empty());
                let k = 1 + stop % complete.num_gates().max(1);
                let mut shown = Vec::new();
                let watch = |form: &FactoredForm| {
                    shown.push(form.num_gates());
                    form.num_gates() < k
                };
                factor_truth_table_into(function, &mut scratch, &mut form, watch);
                let k = k.min(complete.num_gates());
                proptest::prop_assert_eq!(shown, (1..=k).collect::<Vec<_>>());
                proptest::prop_assert_eq!(form.gates(), &complete.gates()[..k]);
                let mut replayed = FactoredForm::default();
                replayed.replay(&complete, |form| form.num_gates() < k);
                proptest::prop_assert_eq!(replayed.gates(), form.gates());
                replayed.replay(&complete, |_| true);
                proptest::prop_assert_eq!(&replayed, &complete);
            }
        }
    }

    #[test]
    fn flat_factoring_matches_the_boxed_oracle_on_the_corner_covers() {
        let literal = |var, positive| Cube::literal(var, positive);
        let covers = [
            // Constants, of no variable and of some.
            Sop::new(0),
            Sop::from_cubes(0, vec![Cube::TAUTOLOGY]),
            Sop::isop(&TruthTable::zeros(0)),
            Sop::isop(&TruthTable::ones(0)),
            Sop::new(4),
            Sop::isop(&TruthTable::ones(11)),
            // Single literals and a single cube.
            Sop::from_cubes(3, vec![literal(2, true)]),
            Sop::from_cubes(3, vec![literal(0, false)]),
            Sop::from_cubes(
                5,
                vec![literal(0, true)
                    .with_literal(3, false)
                    .with_literal(4, true)],
            ),
            // A tautology cube among others, first, last and alone in a quotient.
            Sop::from_cubes(3, vec![Cube::TAUTOLOGY, literal(1, true)]),
            Sop::from_cubes(
                3,
                vec![literal(1, true), literal(2, false), Cube::TAUTOLOGY],
            ),
            Sop::from_cubes(
                3,
                vec![literal(0, true), literal(0, true).with_literal(1, true)],
            ),
            // No shared literal: a bare OR of cubes, odd and even in number.
            Sop::from_cubes(
                4,
                vec![literal(0, true), literal(1, false), literal(2, true)],
            ),
            Sop::from_cubes(4, (0..4).map(|var| literal(var, var % 2 == 0)).collect()),
            // An empty remainder: every cube holds the dividing literal.
            Sop::from_cubes(
                3,
                vec![
                    literal(0, false).with_literal(1, true),
                    literal(0, false).with_literal(2, true),
                ],
            ),
        ];
        for sop in &covers {
            assert_matches_boxed(sop);
        }
        // Parity has the longest covers: 2^(n-1) cubes without a don't-care.
        for num_vars in 1..=11 {
            let parity = TruthTable::from_fn(num_vars, |m| m.count_ones() % 2 == 1);
            assert_matches_boxed(&Sop::isop(&parity));
        }
    }

    #[test]
    fn from_parts_rejects_forward_references() {
        let gate = Gate {
            or: false,
            operands: [Term::Gate(0), Term::Const(true)],
        };
        assert!(
            std::panic::catch_unwind(|| FactoredForm::from_parts(vec![gate], Term::Gate(0)))
                .is_err()
        );
        assert!(std::panic::catch_unwind(|| FactoredForm::leaf(Term::Gate(0))).is_err());
    }
}
