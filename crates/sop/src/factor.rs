//! Algebraic factoring of sum-of-products covers into factored forms.
//!
//! Refactoring replaces the cut's function by the AIG translation of a
//! factored form, so the quality of factoring directly determines how many
//! AND gates the resynthesized cut needs.  The algorithm implemented here is
//! literal-based quick factoring (the classic `QUICK_FACTOR` of MIS/SIS,
//! also used by ABC's `Dec_Factor`): repeatedly divide the cover by its most
//! frequent literal and recurse on quotient and remainder.

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
            FactoredForm::And(a, b) | FactoredForm::Or(a, b) => 1 + a.num_gates() + b.num_gates(),
        }
    }

    /// Number of literal leaves in the expression.
    pub fn num_literals(&self) -> usize {
        match self {
            FactoredForm::Const(_) => 0,
            FactoredForm::Literal { .. } => 1,
            FactoredForm::And(a, b) | FactoredForm::Or(a, b) => a.num_literals() + b.num_literals(),
        }
    }

    /// Depth of the expression tree in binary gates.
    pub fn depth(&self) -> usize {
        match self {
            FactoredForm::Const(_) | FactoredForm::Literal { .. } => 0,
            FactoredForm::And(a, b) | FactoredForm::Or(a, b) => 1 + a.depth().max(b.depth()),
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
            FactoredForm::And(a, b) => &a.to_truth_table(num_vars) & &b.to_truth_table(num_vars),
            FactoredForm::Or(a, b) => &a.to_truth_table(num_vars) | &b.to_truth_table(num_vars),
        }
    }

    /// Evaluates the expression under a single input assignment.
    pub fn evaluate(&self, assignment: usize) -> bool {
        match self {
            FactoredForm::Const(v) => *v,
            FactoredForm::Literal { var, negated } => (assignment >> var & 1 == 1) != *negated,
            FactoredForm::And(a, b) => a.evaluate(assignment) && b.evaluate(assignment),
            FactoredForm::Or(a, b) => a.evaluate(assignment) || b.evaluate(assignment),
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

/// Factors a truth table by first computing its irredundant SOP.
pub fn factor_truth_table(function: &TruthTable) -> FactoredForm {
    factor(&Sop::isop(function))
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

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(factor(&Sop::new(3)), FactoredForm::Const(false),);
        let ones = check_factor(&TruthTable::ones(3));
        assert_eq!(ones, FactoredForm::Const(true));
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
                    assert_eq!(
                        most_frequent_literal(&cubes[start..], num_vars),
                        scan(&cubes[start..], num_vars)
                    );
                }
            }
        }
        // A tie between x0 (positive) and !x1: the earlier literal wins.
        let tie = [
            Cube::literal(0, true).with_literal(1, false),
            Cube::literal(0, true).with_literal(2, true),
            Cube::literal(1, false).with_literal(3, true),
        ];
        assert_eq!(most_frequent_literal(&tie, 4), Some((0, true)));
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
}
