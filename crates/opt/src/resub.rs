//! Window-based resubstitution.
//!
//! Resubstitution tries to express the function of a node using other nodes
//! already present in the network (divisors).  This implementation works
//! inside a reconvergence-driven window so that all functions can be compared
//! exactly with truth tables over the window's leaves: a node is replaced by
//! a divisor (0-resubstitution) or by a single new gate over two divisors
//! (1-resubstitution) when doing so removes more nodes than it adds.
//!
//! # The search contract
//!
//! The first match wins, so the order of the search decides the result and
//! is pinned (a `#[cfg(test)]` copy of the original `TruthTable`-per-divisor
//! step checks it node for node):
//!
//! * **Window.**  The node's reconvergence-driven cut of up to
//!   [`MAX_LEAVES`] leaves, skipped below two leaves or two cone nodes.  It
//!   is simulated *once*: one flat word buffer holds the table of every leaf
//!   and cone node, and a divisor is a literal plus its slot in that buffer,
//!   read off the simulation's slot map in O(1).
//! * **Divisors.**  The leaves in cut order, then the cone nodes in
//!   `Cut::cone` order that are neither the root nor inside its MFFC nor
//!   above its level.
//! * **0-resubstitution** (tried when the MFFC frees at least one node):
//!   divisors in order, each as itself, then complemented.
//! * **1-resubstitution** (at least two nodes): pairs `(i, j)` with `i < j`
//!   in order; per pair the polarities (a, b), (!a, b), (a, !b), (!a, !b);
//!   per polarity AND before OR.  A match whose gate turns out to depend on
//!   the root is dropped and the search goes on.
//!
//! Comparisons run on word slices under a complement mask.  Below six
//! leaves a table is one word that repeats its `2^n` bits to fill all 64
//! (the leaf projections do, and AND and complement keep it so), which makes
//! whole-word comparison exact without masking the upper bits off.

use elf_aig::{Aig, CutParams, NodeId};

use crate::build::{commit_replacement, simulate_cut};
use crate::operator::{debug_assert_commit_equivalence, OpStats, PassScratch, PrunableOperator};

/// The leaf bound of the window (ABC's `resub -K 8`).
const MAX_LEAVES: usize = 8;

/// The window every node is resubstituted in.
fn window() -> CutParams {
    CutParams::with_max_leaves(MAX_LEAVES)
}

/// The resubstitution operator at ABC's defaults: 0- and 1-resubstitution
/// in a window of up to eight leaves (`resub -K 8`), over divisors not above
/// the root's level.
#[derive(Debug, Clone, Copy, Default)]
pub struct Resubstitution;

impl Resubstitution {
    /// Creates a resubstitution operator.
    pub fn new() -> Self {
        Resubstitution
    }

    /// Runs resubstitution over every node of the graph:
    /// [`PrunableOperator::run`], callable without the trait in scope.
    pub fn run(&self, aig: &mut Aig) -> OpStats {
        PrunableOperator::run(self, aig)
    }
}

impl PrunableOperator for Resubstitution {
    const NAME: &'static str = "resub";

    /// The window is the cut this operator resynthesizes.
    const RESYNTHESIZES_WINDOW: bool = true;

    fn feature_cut_params(&self) -> CutParams {
        window()
    }

    /// Attempts resubstitution at one node inside its window — the feature
    /// window itself, so a pass that already formed it hands it over.
    fn resynthesize(
        &self,
        aig: &mut Aig,
        node: NodeId,
        scratch: &mut PassScratch,
        holds_window: bool,
    ) -> Option<i64> {
        let PassScratch {
            cut,
            cut_scratch,
            simulation,
            divisors,
            ..
        } = scratch;
        if !holds_window {
            aig.reconvergence_cut_with(node, &window(), cut_scratch, cut);
        }
        if cut.num_leaves() < 2 || cut.cone.len() < 2 {
            return None;
        }
        let num_vars = cut.num_leaves();
        let words = simulate_cut(aig, cut, simulation);
        let (order, tables, slots) = (&simulation.order, &simulation.tables, &simulation.slots);
        let table = |slot: usize| &tables[slot * words..][..words];
        let root_tt = table(num_vars + order.len());
        let root_level = aig.level(node);

        // Divisors: leaves and cone nodes outside the MFFC, not above the
        // root.  With the root's MFFC dereferenced, exactly the cone nodes
        // inside it have zero references.  A cone node's table slot is the
        // one the simulation mapped it to.
        divisors.clear();
        divisors.extend(
            cut.leaves
                .iter()
                .zip(1..)
                .map(|(leaf, slot)| (leaf.lit(), slot)),
        );
        let saved = aig.deref_mffc_bounded(node, &[]) as i64;
        for &n in &cut.cone {
            if n == node || aig.refs(n) == 0 {
                continue;
            }
            if aig.level(n) > root_level {
                continue;
            }
            // The simulation's walk reaches the whole cone, so every cone
            // node has a slot.
            if let Some(slot) = slots.get(n) {
                divisors.push((n.lit(), slot as usize));
            }
        }
        aig.ref_mffc_bounded(node, &[]);

        // 0-resubstitution: the root equals a divisor or its complement
        // (`d & d` is `d`).
        for &(lit, slot) in divisors.iter() {
            if saved < 1 {
                break;
            }
            let tt = table(slot);
            let replacement = if and_is(tt, 0, tt, 0, root_tt, 0) {
                lit
            } else if and_is(tt, !0, tt, !0, root_tt, 0) {
                !lit
            } else {
                continue;
            };
            if replacement.node() == node || aig.cone_contains(replacement.node(), node) {
                continue;
            }
            let before = aig.num_ands() as i64;
            debug_assert_commit_equivalence(aig, Self::NAME, node, replacement);
            aig.replace(node, replacement);
            return Some(before - aig.num_ands() as i64);
        }

        if saved < 2 {
            return None;
        }

        // 1-resubstitution: root = d1 op d2 for AND/OR over (possibly
        // complemented) divisors.
        for (i, &(lit_a, slot_a)) in divisors.iter().enumerate() {
            for &(lit_b, slot_b) in &divisors[i + 1..] {
                let (tt_a, tt_b) = (table(slot_a), table(slot_b));
                for (ca, cb) in [(false, false), (true, false), (false, true), (true, true)] {
                    let (flip_a, flip_b) = (flip(ca), flip(cb));
                    // a | b is the complement of !a & !b.
                    let is_or = if and_is(tt_a, flip_a, tt_b, flip_b, root_tt, 0) {
                        false
                    } else if and_is(tt_a, !flip_a, tt_b, !flip_b, root_tt, !0) {
                        true
                    } else {
                        continue;
                    };
                    let a = lit_a.complement_if(ca);
                    let b = lit_b.complement_if(cb);
                    // A committed 1-resubstitution ends the search at this
                    // node even when its gain turns out to be zero (the new
                    // gate already existed): it is accepted as neutral.
                    let committed = commit_replacement(aig, Self::NAME, node, |aig| {
                        if is_or {
                            aig.or(a, b)
                        } else {
                            aig.and(a, b)
                        }
                    });
                    if committed.is_some() {
                        return committed;
                    }
                }
            }
        }
        None
    }
}

/// The mask that complements a table's words when `complemented`.
fn flip(complemented: bool) -> u64 {
    if complemented {
        !0
    } else {
        0
    }
}

/// Whether `(a ^ flip_a) & (b ^ flip_b)` is `root ^ flip_root`, word for word.
fn and_is(a: &[u64], flip_a: u64, b: &[u64], flip_b: u64, root: &[u64], flip_root: u64) -> bool {
    (a.iter().zip(b).zip(root))
        .all(|((&a, &b), &root)| (a ^ flip_a) & (b ^ flip_b) == root ^ flip_root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cut_truth_table;
    use elf_aig::{check_equivalence, Cut, EquivalenceResult, Lit};
    use elf_circuits::epfl::{arithmetic_suite, Scale};
    use elf_circuits::industrial_suite;
    use elf_sop::TruthTable;

    /// The oracle: the resubstitution step as it was before the window was
    /// simulated once — a cloned window and a fresh simulation per divisor,
    /// two `TruthTable` clones per polarity per pair — kept verbatim.
    fn resub_node_oracle(aig: &mut Aig, node: NodeId) -> Option<i64> {
        let cut = &mut Cut::empty();
        aig.reconvergence_cut_into(node, &window(), cut);
        if cut.num_leaves() < 2 || cut.cone.len() < 2 {
            return None;
        }
        let num_vars = cut.num_leaves();
        let root_tt = cut_truth_table(aig, cut);
        let root_level = aig.level(node);

        // Determine which cone nodes belong to the root's MFFC: after
        // dereferencing, exactly those have zero references.
        let saved = aig.deref_mffc_bounded(node, &[]) as i64;
        let mffc: Vec<NodeId> = cut
            .cone
            .iter()
            .copied()
            .filter(|&n| n == node || aig.refs(n) == 0)
            .collect();
        aig.ref_mffc_bounded(node, &[]);

        // Divisors: leaves and cone nodes outside the MFFC, not above the root.
        let mut divisors: Vec<(Lit, TruthTable)> = Vec::new();
        for (i, &leaf) in cut.leaves.iter().enumerate() {
            divisors.push((leaf.lit(), TruthTable::var(i, num_vars)));
        }
        for &n in &cut.cone {
            if n == node || mffc.contains(&n) {
                continue;
            }
            if aig.level(n) > root_level {
                continue;
            }
            let sub_cut = Cut {
                root: n,
                leaves: cut.leaves.clone(),
                cone: cut.cone.clone(),
            };
            divisors.push((n.lit(), cut_truth_table(aig, &sub_cut)));
        }

        // 0-resubstitution: the root equals a divisor or its complement.
        for (lit, tt) in &divisors {
            if saved < 1 {
                break;
            }
            let replacement = if *tt == root_tt {
                Some(*lit)
            } else if !tt == root_tt {
                Some(!*lit)
            } else {
                None
            };
            if let Some(replacement) = replacement {
                if replacement.node() == node || aig.cone_contains(replacement.node(), node) {
                    continue;
                }
                let before = aig.num_ands() as i64;
                debug_assert_commit_equivalence(aig, Resubstitution::NAME, node, replacement);
                aig.replace(node, replacement);
                return Some(before - aig.num_ands() as i64);
            }
        }

        if saved < 2 {
            return None;
        }

        // 1-resubstitution: root = d1 op d2 for AND/OR over (possibly
        // complemented) divisors.
        for i in 0..divisors.len() {
            for j in (i + 1)..divisors.len() {
                let (lit_a, tt_a) = &divisors[i];
                let (lit_b, tt_b) = &divisors[j];
                for (ca, cb) in [(false, false), (true, false), (false, true), (true, true)] {
                    let ta = if ca { !tt_a } else { tt_a.clone() };
                    let tb = if cb { !tt_b } else { tt_b.clone() };
                    let candidate = if (&ta & &tb) == root_tt {
                        Some(false)
                    } else if (&ta | &tb) == root_tt {
                        Some(true)
                    } else {
                        None
                    };
                    let Some(is_or) = candidate else { continue };
                    let a = lit_a.complement_if(ca);
                    let b = lit_b.complement_if(cb);
                    let committed = commit_replacement(aig, Resubstitution::NAME, node, |aig| {
                        if is_or {
                            aig.or(a, b)
                        } else {
                            aig.and(a, b)
                        }
                    });
                    if committed.is_some() {
                        return committed;
                    }
                }
            }
        }
        None
    }

    /// Runs the operator on `aig` and the oracle step on a copy — walking
    /// the nodes under its own token guard — and expects the same network,
    /// node for node.  Returns how many commits happened at windows of each
    /// leaf count.
    fn assert_pass_matches_oracle(name: &str, mut aig: Aig) -> [usize; 9] {
        let mut twin = aig.clone();
        let stats = Resubstitution.run(&mut aig);

        let mut commits_by_leaves = [0; 9];
        let targets: Vec<_> = twin.and_ids().map(|id| twin.token(id)).collect();
        for token in targets {
            let node = token.id();
            if !twin.token_is_current(token) || twin.refs(node) == 0 {
                continue;
            }
            let leaves = twin.reconvergence_cut(node, &window()).num_leaves();
            if resub_node_oracle(&mut twin, node).is_some() {
                commits_by_leaves[leaves] += 1;
            }
        }
        let structure = |aig: &Aig| -> Vec<(NodeId, (Lit, Lit))> {
            aig.and_ids().map(|id| (id, aig.fanins(id))).collect()
        };
        assert_eq!(
            stats.cuts_committed,
            commits_by_leaves.iter().sum::<usize>(),
            "{name}"
        );
        assert_eq!(structure(&aig), structure(&twin), "{name}");
        assert_eq!(aig.outputs(), twin.outputs(), "{name}");
        commits_by_leaves
    }

    fn both_suites() -> impl Iterator<Item = (String, Aig)> {
        industrial_suite(0.003, 1)
            .into_iter()
            .chain(arithmetic_suite(Scale::Tiny))
    }

    /// Default windows reach eight leaves: tables of one, two and four
    /// words, and the repeating single words below six leaves, all commit.
    #[test]
    fn pass_matches_the_oracle_on_both_suites() {
        let mut commits_by_leaves = [0; 9];
        for (name, aig) in both_suites() {
            let commits = assert_pass_matches_oracle(&name, aig);
            for (total, commits) in commits_by_leaves.iter_mut().zip(commits) {
                *total += commits;
            }
        }
        let [.., five, six, seven, eight] = commits_by_leaves;
        assert!(
            five > 0 && six > 0 && seven > 0 && eight > 0,
            "{commits_by_leaves:?}"
        );
    }

    #[test]
    fn zero_resub_removes_redundant_conjunction() {
        // root = (a & b) & (a | b) is functionally just a & b; the divisor
        // a & b is available in the window (it also drives an output), so
        // 0-resubstitution replaces root by it and frees two nodes.
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let ab = aig.and(a, b);
        let aorb = aig.or(a, b);
        let root = aig.and(ab, aorb);
        aig.add_output(root);
        aig.add_output(ab);
        let golden = aig.clone();
        let stats = Resubstitution.run(&mut aig);
        assert!(stats.cuts_committed >= 1, "{stats:?}");
        assert_eq!(aig.outputs()[0], ab, "a 0-resubstitution: no new gate");
        assert!(stats.total_gain >= 2);
        assert_eq!(
            check_equivalence(&golden, &aig, 8, 9),
            EquivalenceResult::Equivalent
        );
        assert!(aig.check_invariants().is_empty());
    }

    #[test]
    fn resub_preserves_function_on_random_structure() {
        let mut aig = Aig::new();
        let inputs = aig.add_inputs(5);
        let mut acc = inputs[0];
        for i in 1..5 {
            let t = aig.xor(acc, inputs[i]);
            let u = aig.or(t, inputs[i - 1]);
            acc = aig.and(u, t);
        }
        aig.add_output(acc);
        let golden = aig.clone();
        let _ = Resubstitution.run(&mut aig);
        assert_eq!(
            check_equivalence(&golden, &aig, 8, 10),
            EquivalenceResult::Equivalent
        );
        assert!(aig.check_invariants().is_empty());
    }

    #[test]
    fn resub_does_nothing_on_irredundant_circuit() {
        let mut aig = Aig::new();
        let inputs = aig.add_inputs(4);
        let f = aig.and_many(&inputs);
        aig.add_output(f);
        let stats = Resubstitution.run(&mut aig);
        assert_eq!(stats.total_gain, 0);
    }
}
