//! Shared helpers for cut resynthesis: evaluating a cut's function and
//! counting or building the AIG implementation of a factored form.
//!
//! [`count_new_nodes`] and [`build_expr`] walk the form's arena from the root
//! by index, first operand before second, a gate after its operands: node
//! ids follow the order `Aig::and` is called in, so that order is part of
//! every fingerprint (the arena itself lists a balanced tree level by level,
//! which is not it).

use elf_aig::{Aig, Cut, CutScratch, Lit, NodeId};
use elf_sop::{FactoredForm, Gate, Term, TruthTable, MAX_VARS};

use crate::cache::NpnTransform;

/// The buffers a cut is simulated in: the walk that orders its cone, the
/// order, and one table per leaf and cone node.
#[derive(Debug, Default)]
pub(crate) struct Simulation {
    walk: CutScratch,
    /// The cone in evaluation order ([`Cut::cone_topological`], the root last).
    pub(crate) order: Vec<NodeId>,
    /// The tables, laid out as [`simulate_cut`] documents.
    pub(crate) tables: Vec<u64>,
}

/// Computes the truth table of the cut's root as a function of its leaves.
///
/// Leaf `i` of the cut corresponds to truth-table variable `i`.
///
/// # Panics
///
/// Panics if the cut has more than [`elf_sop::MAX_VARS`] leaves.
pub fn cut_truth_table(aig: &Aig, cut: &Cut) -> TruthTable {
    cut_truth_table_in(aig, cut, &mut Simulation::default())
}

/// [`cut_truth_table`] simulating in the caller's buffers, so a pass that
/// evaluates many cuts allocates for the table it returns only.
pub(crate) fn cut_truth_table_in(aig: &Aig, cut: &Cut, simulation: &mut Simulation) -> TruthTable {
    let words = simulate_cut(aig, cut, simulation);
    let tables = &simulation.tables;
    // `from_words` drops the bits a table of fewer than six variables lacks.
    TruthTable::from_words(tables[tables.len() - words..].to_vec(), cut.num_leaves())
}

/// Simulates every cone node of `cut` over the cut's leaves, once, leaves the
/// cone in evaluation order in `simulation.order` and returns the number of
/// words per table.
///
/// `simulation.tables` becomes one flat buffer sized to the cut — per-call
/// work must not scale with the arena.  Slot 0 stays constant false, slot
/// `1 + i` holds leaf `i`'s projection and slot `1 + num_leaves + j` the
/// `j`-th node of the order; a fanin is found by position among the handful
/// of leaves and earlier cone nodes.  Below six leaves a slot's single word
/// repeats the `2^n`-bit table to fill all 64 bits, so two slots are equal as
/// words exactly when they are equal as functions.
///
/// # Panics
///
/// Panics if the cut has more than [`elf_sop::MAX_VARS`] leaves.
pub(crate) fn simulate_cut(aig: &Aig, cut: &Cut, simulation: &mut Simulation) -> usize {
    let Simulation {
        walk,
        order,
        tables,
    } = simulation;
    let num_vars = cut.num_leaves();
    assert!(
        num_vars <= elf_sop::MAX_VARS,
        "cut with {num_vars} leaves exceeds the supported truth-table width"
    );
    cut.cone_topological_into(aig, walk, order);
    assert_eq!(
        order.last(),
        Some(&cut.root),
        "root is part of its own cone"
    );
    let words = 1usize << num_vars.saturating_sub(6);
    tables.clear();
    tables.resize((1 + num_vars + order.len()) * words, 0);
    for (var, table) in tables[words..]
        .chunks_exact_mut(words)
        .take(num_vars)
        .enumerate()
    {
        for (index, word) in table.iter_mut().enumerate() {
            *word = TruthTable::var_word(var, index);
        }
    }
    // Where a fanin's table starts, and the mask that complements it.
    let operand = |lit: Lit, done: usize| -> (usize, u64) {
        let slot = if lit.node().is_const0() {
            0
        } else {
            1 + cut
                .leaves
                .iter()
                .chain(&order[..done])
                .position(|&id| id == lit.node())
                .expect("fanin of a cone node must be a leaf or an earlier cone node")
        };
        (slot * words, if lit.is_complemented() { !0 } else { 0 })
    };
    for (done, &node) in order.iter().enumerate() {
        let (f0, f1) = aig.fanins(node);
        let (at0, flip0) = operand(f0, done);
        let (at1, flip1) = operand(f1, done);
        let (earlier, table) = tables.split_at_mut((1 + num_vars + done) * words);
        for (index, word) in table[..words].iter_mut().enumerate() {
            *word = (earlier[at0 + index] ^ flip0) & (earlier[at1 + index] ^ flip1);
        }
    }
    words
}

/// Result of estimating the cost of implementing a factored form in an AIG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImplementationCost {
    /// Number of new AND nodes that would have to be created (nodes already
    /// present in the graph are free).
    pub new_nodes: usize,
    /// Estimated level of the new root (based on current fanin levels).
    pub level: u32,
}

/// Estimates how many new AND nodes are needed to implement `expr` on top of
/// `leaf_lits`, reusing structurally hashed nodes that already exist.
///
/// Mirrors ABC's `Dec_GraphToNetworkCount`: it does not modify the graph.
/// `root` is the node being resynthesized; when the caller has dereferenced
/// the root's MFFC (the normal usage during gain evaluation), nodes inside
/// the MFFC — which are scheduled for deletion — are counted as *new* even
/// though they still exist in the hash table.  This makes the degenerate
/// candidate "rebuild the existing structure" cost exactly as much as it
/// saves, so its gain is zero.
pub fn count_new_nodes(
    aig: &Aig,
    expr: &FactoredForm,
    leaf_lits: &[Lit],
    root: Option<NodeId>,
) -> ImplementationCost {
    let mut new_nodes = 0usize;
    let level = count_rec(aig, expr, expr.root(), leaf_lits, root, &mut new_nodes).1;
    ImplementationCost { new_nodes, level }
}

/// Recursive helper: returns (literal if the sub-expression already exists,
/// estimated level).
fn count_rec(
    aig: &Aig,
    expr: &FactoredForm,
    term: Term,
    leaf_lits: &[Lit],
    root: Option<NodeId>,
    new_nodes: &mut usize,
) -> (Option<Lit>, u32) {
    match term {
        Term::Const(value) => (Some(aig.constant(value)), 0),
        Term::Literal { var, negated } => {
            let lit = leaf_lits[usize::from(var)].complement_if(negated);
            (Some(lit), aig.level(lit.node()))
        }
        Term::Gate(index) => {
            let Gate {
                or,
                operands: [a, b],
            } = expr.gates()[index as usize];
            let (la, level_a) = count_rec(aig, expr, a, leaf_lits, root, new_nodes);
            let (lb, level_b) = count_rec(aig, expr, b, leaf_lits, root, new_nodes);
            let level = 1 + level_a.max(level_b);
            let found = match (la, lb) {
                // a | b is the complement of !a & !b.
                (Some(x), Some(y)) => aig.and_lookup(x.complement_if(or), y.complement_if(or)),
                _ => None,
            };
            let Some(lit) = found else {
                *new_nodes += 1;
                return (None, level);
            };
            let node = lit.node();
            // Nodes in the dereferenced MFFC (refs == 0) and the root itself
            // will be deleted by the commit, so reusing them still costs one
            // node.
            if Some(node) == root || (aig.is_and(node) && aig.refs(node) == 0) {
                *new_nodes += 1;
            }
            // Constant folding may collapse the operator; the existing
            // literal's own level is a better estimate.
            (Some(lit.complement_if(or)), aig.level(node))
        }
    }
}

/// Builds the AIG implementation of `expr` over `leaf_lits`, returning the
/// literal of the new root.
pub fn build_expr(aig: &mut Aig, expr: &FactoredForm, leaf_lits: &[Lit]) -> Lit {
    build_rec(aig, expr, expr.root(), leaf_lits)
}

fn build_rec(aig: &mut Aig, expr: &FactoredForm, term: Term, leaf_lits: &[Lit]) -> Lit {
    match term {
        Term::Const(value) => aig.constant(value),
        Term::Literal { var, negated } => leaf_lits[usize::from(var)].complement_if(negated),
        Term::Gate(index) => {
            let Gate {
                or,
                operands: [a, b],
            } = expr.gates()[index as usize];
            let x = build_rec(aig, expr, a, leaf_lits);
            let y = build_rec(aig, expr, b, leaf_lits);
            if or {
                aig.or(x, y)
            } else {
                aig.and(x, y)
            }
        }
    }
}

/// One way to implement a cut off the form of its NPN representative (the
/// reading rule of [`crate::cache`]'s module docs), and what it is worth.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Reading {
    /// The cut's leaf literals as the representative's variables.
    pub(crate) lits: [Lit; MAX_VARS],
    /// Whether the literal `build_expr` returns is complemented.
    pub(crate) complemented: bool,
    /// Nodes the commit frees minus nodes it adds.
    pub(crate) gain: i64,
}

/// Weighs the readings of `form` that `CutCache::factor_both_into` returned
/// for the cut over `leaf_lits` rooted at `node` — the function's, then the
/// complement's where it is one of its own — with the cut-bounded MFFC of
/// `node`, `saved` nodes, dereferenced.  Returns the one of highest gain
/// among those not above `level_bound`, the first on a tie.
pub(crate) fn best_reading(
    aig: &Aig,
    form: &FactoredForm,
    (transform, complement): (NpnTransform, Option<NpnTransform>),
    leaf_lits: &[Lit],
    node: NodeId,
    saved: i64,
    level_bound: Option<u32>,
) -> Option<Reading> {
    let mut best: Option<Reading> = None;
    for (transform, complemented) in [(Some(transform), false), (complement, true)] {
        let Some(transform) = transform else { continue };
        let lits = transform.leaf_map(leaf_lits);
        let cost = count_new_nodes(aig, form, &lits, Some(node));
        if level_bound.is_some_and(|bound| cost.level > bound) {
            continue;
        }
        let gain = saved - cost.new_nodes as i64;
        if best.is_none_or(|best| gain > best.gain) {
            best = Some(Reading {
                lits,
                complemented: transform.output_negated() != complemented,
                gain,
            });
        }
    }
    best
}

/// Builds a replacement for `node` speculatively through `build` and commits
/// it with [`Aig::replace`], returning the achieved gain in AND nodes.
///
/// A degenerate replacement — one that reproduces `node` or depends on it —
/// is dropped together with every node `build` created: the graph stays
/// unchanged and the result is `None`.
pub(crate) fn commit_replacement(
    aig: &mut Aig,
    operator: &str,
    node: NodeId,
    build: impl FnOnce(&mut Aig) -> Lit,
) -> Option<i64> {
    let ands_before = aig.num_ands() as i64;
    aig.begin_speculation();
    let new_lit = build(aig);
    if new_lit.node() == node || aig.cone_contains(new_lit.node(), node) {
        aig.reject_speculation();
        return None;
    }
    aig.commit_speculation();
    crate::operator::debug_assert_commit_equivalence(aig, operator, node, new_lit);
    aig.replace(node, new_lit);
    Some(ands_before - aig.num_ands() as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use elf_aig::CutParams;
    use elf_sop::factor_truth_table;

    fn or_of_ands() -> (Aig, Lit) {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        let t0 = aig.and(a, b);
        let t1 = aig.and(a, c);
        let f = aig.or(t0, t1);
        aig.add_output(f);
        (aig, f)
    }

    #[test]
    fn cut_truth_table_matches_simulation() {
        let (mut aig, f) = or_of_ands();
        let cut = aig.reconvergence_cut(f.node(), &CutParams::default());
        let tt = cut_truth_table(&aig, &cut);
        // Leaves are the three inputs; verify against direct evaluation.
        assert_eq!(cut.num_leaves(), 3);
        for m in 0..8usize {
            let mut assignment = vec![false; 3];
            for (i, &leaf) in cut.leaves.iter().enumerate() {
                // Map leaf index back to its input position.
                let pos = aig
                    .inputs()
                    .iter()
                    .position(|&x| x == leaf)
                    .expect("leaf is an input");
                assignment[pos] = m >> i & 1 == 1;
            }
            // The primary output is the complemented root literal (an OR is
            // built as a complemented AND), so compare against the root node.
            let out = aig.evaluate(&assignment)[0];
            let expected = if f.is_complemented() { !out } else { out };
            assert_eq!(tt.get_bit(m), expected, "mismatch at minterm {m}");
        }
    }

    #[test]
    fn count_matches_build_and_function_is_preserved() {
        let (mut aig, f) = or_of_ands();
        let cut = aig.reconvergence_cut(f.node(), &CutParams::default());
        let tt = cut_truth_table(&aig, &cut);
        let leaf_lits: Vec<Lit> = cut.leaves.iter().map(|&l| l.lit()).collect();
        let expr = factor_truth_table(&tt);
        let cost = count_new_nodes(&aig, &expr, &leaf_lits, None);
        // Factored form a(b+c) needs 2 gates; at most 2 are new.
        assert!(cost.new_nodes <= 2);
        let before = aig.num_ands();
        let lit = build_expr(&mut aig, &expr, &leaf_lits);
        assert_eq!(aig.num_ands(), before + cost.new_nodes);
        // The rebuilt literal must match the function of the original root
        // node (the primary output is the complemented root).
        let mut check = aig.clone();
        check.add_output(f.node().lit());
        check.add_output(lit);
        let tables = check.output_truth_tables();
        assert_eq!(tables[1], tables[2]);
    }

    #[test]
    fn count_treats_dereferenced_mffc_as_new() {
        // Rebuilding the existing structure of a node whose MFFC has been
        // dereferenced must cost as many nodes as the MFFC contains, so the
        // identity rewrite has zero gain.
        let (mut aig, f) = or_of_ands();
        let cut = aig.reconvergence_cut(f.node(), &CutParams::default());
        let tt = cut_truth_table(&aig, &cut);
        let leaf_lits: Vec<Lit> = cut.leaves.iter().map(|&l| l.lit()).collect();
        let expr = factor_truth_table(&tt);
        let saved = aig.deref_mffc_bounded(f.node(), &[]);
        let cost = count_new_nodes(&aig, &expr, &leaf_lits, Some(f.node()));
        aig.ref_mffc_bounded(f.node(), &[]);
        // a(b+c) needs 2 nodes; the whole 3-node MFFC is saved, so the gain
        // estimate is positive but bounded by the real improvement.
        assert!(saved as i64 - cost.new_nodes as i64 <= 1);
        assert!(cost.new_nodes >= 2);
    }

    #[test]
    fn build_expr_constants_and_literals() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let leaf_lits = vec![a];
        let mut leaf = |term| build_expr(&mut aig, &FactoredForm::leaf(term), &leaf_lits);
        assert_eq!(leaf(Term::Const(false)), Lit::FALSE);
        assert_eq!(leaf(Term::Const(true)), Lit::TRUE);
        let negated = true;
        assert_eq!(leaf(Term::Literal { var: 0, negated }), !a);
        assert_eq!(aig.num_ands(), 0);
    }
}
