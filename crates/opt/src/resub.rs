//! Window-based resubstitution.
//!
//! Resubstitution tries to express the function of a node using other nodes
//! already present in the network (divisors).  This implementation works
//! inside a reconvergence-driven window so that all functions can be compared
//! exactly with truth tables over the window's leaves: a node is replaced by
//! a divisor (0-resubstitution) or by a single new gate over two divisors
//! (1-resubstitution) when doing so removes more nodes than it adds.

use elf_aig::{Aig, Cut, CutParams, Lit, NodeId};
use elf_sop::TruthTable;

use crate::build::{commit_replacement, cut_truth_table};
use crate::operator::{debug_assert_commit_equivalence, OpStats, PrunableOperator};

/// Parameters of the resubstitution operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResubParams {
    /// Window (reconvergence-driven cut) parameters.
    pub cut: CutParams,
    /// Try 1-resubstitution (one new gate over two divisors) in addition to
    /// 0-resubstitution.
    pub use_one_resub: bool,
    /// Reject candidates that would increase the node's level.
    pub preserve_level: bool,
}

impl Default for ResubParams {
    fn default() -> Self {
        ResubParams {
            cut: CutParams::with_max_leaves(8),
            use_one_resub: true,
            preserve_level: true,
        }
    }
}

/// The resubstitution operator.
#[derive(Debug, Clone, Default)]
pub struct Resubstitution {
    params: ResubParams,
}

impl Resubstitution {
    /// Creates a resubstitution operator with the given parameters.
    pub fn new(params: ResubParams) -> Self {
        Resubstitution { params }
    }

    /// Returns the operator's parameters.
    pub fn params(&self) -> &ResubParams {
        &self.params
    }

    /// Runs resubstitution over every node of the graph:
    /// [`PrunableOperator::run`], callable without the trait in scope.
    pub fn run(&self, aig: &mut Aig) -> OpStats {
        PrunableOperator::run(self, aig)
    }
}

impl PrunableOperator for Resubstitution {
    const NAME: &'static str = "resub";

    fn feature_cut_params(&self) -> CutParams {
        self.params.cut
    }

    /// Attempts resubstitution at one node inside its window — the feature
    /// window itself, so a pass that already formed it hands it over.
    fn resynthesize(
        &self,
        aig: &mut Aig,
        node: NodeId,
        cut: &mut Cut,
        holds_window: bool,
    ) -> Option<i64> {
        if !holds_window {
            aig.reconvergence_cut_into(node, &self.params.cut, cut);
        }
        if cut.num_leaves() < 2 || cut.cone.len() < 2 {
            return None;
        }
        let num_vars = cut.num_leaves();
        let root_tt = cut_truth_table(aig, cut);
        let root_level = aig.level(node);

        // Determine which cone nodes belong to the root's MFFC: after
        // dereferencing, exactly those have zero references.
        let saved = aig.deref_mffc(node) as i64;
        let mffc: Vec<NodeId> = cut
            .cone
            .iter()
            .copied()
            .filter(|&n| n == node || aig.refs(n) == 0)
            .collect();
        aig.ref_mffc(node);

        // Divisors: leaves and cone nodes outside the MFFC, not above the root.
        let mut divisors: Vec<(Lit, TruthTable)> = Vec::new();
        for (i, &leaf) in cut.leaves.iter().enumerate() {
            divisors.push((leaf.lit(), TruthTable::var(i, num_vars)));
        }
        for &n in &cut.cone {
            if n == node || mffc.contains(&n) {
                continue;
            }
            if self.params.preserve_level && aig.level(n) > root_level {
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
                debug_assert_commit_equivalence(aig, Self::NAME, node, replacement);
                aig.replace(node, replacement);
                return Some(before - aig.num_ands() as i64);
            }
        }

        if !self.params.use_one_resub || saved < 2 {
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

#[cfg(test)]
mod tests {
    use super::*;
    use elf_aig::{check_equivalence, EquivalenceResult};

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
        let stats = Resubstitution::default().run(&mut aig);
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
        let _ = Resubstitution::default().run(&mut aig);
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
        let stats = Resubstitution::default().run(&mut aig);
        assert_eq!(stats.total_gain, 0);
    }
}
