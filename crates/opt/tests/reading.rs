//! The reading rule, through the public API only: implementing a cut from the
//! factored form of its NPN *representative* — leaf literals placed by
//! `NpnTransform::leaf_map`, the built literal complemented by
//! `output_negated` — costs what the decanonicalized form of `CutCache::factor`
//! costs and builds the same nodes with the same ids, for the cut function
//! and for its complement, whatever part of the graph is dereferenced.

use elf_aig::{Aig, Cut, CutParams, Lit, NodeId};
use elf_circuits::{script_strategy, scripted_circuit};
use elf_opt::{build_expr, count_new_nodes, cut_truth_table, CutCache, CutCacheConfig};
use elf_sop::{FactorScratch, FactoredForm, TruthTable};
use proptest::prelude::*;

/// Every AND node followed by its fanin literals, then the output literals.
type Structure = (Vec<(NodeId, Lit, Lit)>, Vec<Lit>);

fn structure(aig: &Aig) -> Structure {
    let nodes = aig.and_ids().map(|id| {
        let (f0, f1) = aig.fanins(id);
        (id, f0, f1)
    });
    (nodes.collect(), aig.outputs().to_vec())
}

/// How much of the graph around the cut is dereferenced while costs are read.
#[derive(Debug, Clone, Copy)]
enum Deref {
    Nothing,
    /// The root's MFFC down to the cut's leaves, as the operators do.
    Bounded,
    /// The root's whole MFFC, through the leaves.
    Whole,
}

/// Checks both polarities of `cut` on `source`, cache off and cache on, and
/// returns the cut's function.
fn check_cut(source: &Aig, cut: &Cut, deref: Deref) -> TruthTable {
    let truth = cut_truth_table(source, cut);
    let leaf_lits: Vec<Lit> = cut.leaves.iter().map(|&leaf| leaf.lit()).collect();
    let mut dereferenced = source.clone();
    match deref {
        Deref::Nothing => {}
        Deref::Bounded => drop(dereferenced.deref_mffc_bounded(cut.root, &cut.leaves)),
        Deref::Whole => drop(dereferenced.deref_mffc_bounded(cut.root, &[])),
    }

    for config in [CutCacheConfig::disabled(), CutCacheConfig::default()] {
        let cache = CutCache::new(config);
        let (mut scratch, mut form) = (FactorScratch::default(), FactoredForm::default());
        let (transform, complement) = cache.factor_both_into(&truth, &mut scratch, &mut form);
        for complemented in [false, true] {
            // The form of the polarity itself, over the cut's own leaves ...
            let oracle = if complemented {
                cache.factor(&!&truth)
            } else {
                cache.factor(&truth)
            };
            // ... against the representative's, read through the transform:
            // the complement has a reading of its own (built, it is `!f`)
            // or is the first reading, and every candidate ends as `f`.
            let own = complement.filter(|_| complemented);
            let reading = own.unwrap_or(transform);
            let lits = reading.leaf_map(&leaf_lits);
            let flip = reading.output_negated() != own.is_some();

            for root in [Some(cut.root), None] {
                assert_eq!(
                    count_new_nodes(&dereferenced, &form, &lits, root),
                    count_new_nodes(&dereferenced, &oracle, &leaf_lits, root),
                    "cost of {truth} (complemented: {complemented}, {deref:?})"
                );
            }
            let (mut read, mut rebuilt) = (source.clone(), source.clone());
            let read_lit = build_expr(&mut read, &form, &lits).complement_if(flip);
            let rebuilt_lit =
                build_expr(&mut rebuilt, &oracle, &leaf_lits).complement_if(complemented);
            assert_eq!(read_lit, rebuilt_lit, "root literal of {truth}");
            assert_eq!(structure(&read), structure(&rebuilt), "nodes of {truth}");
        }
    }
    truth
}

/// The cut of `root` over `leaves`: its cone collected by walking the fanins.
fn cut_over(aig: &Aig, root: Lit, leaves: &[Lit]) -> Cut {
    let leaves: Vec<NodeId> = leaves.iter().map(|leaf| leaf.node()).collect();
    let mut cone = Vec::new();
    let mut stack = vec![root.node()];
    while let Some(id) = stack.pop() {
        if leaves.contains(&id) || cone.contains(&id) {
            continue;
        }
        cone.push(id);
        let (f0, f1) = aig.fanins(id);
        stack.extend([f0.node(), f1.node()]);
    }
    Cut {
        root: root.node(),
        leaves,
        cone,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn reading_the_representative_matches_the_decanonicalized_form(
        script in script_strategy(40),
        picks in prop::collection::vec((any::<usize>(), 3usize..=10, 0usize..3), 1..6),
    ) {
        let aig = scripted_circuit(6, &script);
        let nodes: Vec<NodeId> = aig.and_ids().filter(|&id| aig.refs(id) > 0).collect();
        for &(pick, max_leaves, deref) in &picks {
            let Some(&root) = nodes.get(pick % nodes.len().max(1)) else { break };
            let cut = aig.reconvergence_cut(root, &CutParams::with_max_leaves(max_leaves));
            let deref = [Deref::Nothing, Deref::Bounded, Deref::Whole][deref];
            check_cut(&aig, &cut, deref);
        }
    }
}

/// The classes the random cuts seldom meet, each built over three inputs of
/// a graph that already holds some of the nodes its implementations need:
/// self-dual functions whose two polarities normalize to equal words (a
/// complement of its own), dense ON-sets (an output-negated representative),
/// and cuts whose function is a constant.
#[test]
fn reading_covers_self_dual_output_negated_and_constant_classes() {
    let mut aig = Aig::new();
    let [a, b, c] = [aig.add_input(), aig.add_input(), aig.add_input()];
    // Structure for `and_lookup` to find: parts of both majority forms.
    let a_or_c = aig.or(a, c);
    let shared = aig.and(b, a_or_c);
    aig.add_output(shared);
    let ac = aig.and(a, c);
    aig.add_output(ac);

    let majority = aig.maj(a, b, c);
    let multiplexer = aig.mux(a, b, c);
    let parity = {
        let ab = aig.xor(a, b);
        aig.xor(ab, c)
    };
    let dense = {
        let (ab, bc) = (aig.or(a, b), aig.or(b, c));
        aig.and(ab, bc)
    };
    let sparse = {
        let bc = aig.and(!b, c);
        aig.and(a, bc)
    };
    // Constant over the leaves, but not to the structural hash.
    let never = {
        let ab = aig.and(a, b);
        let not_a_c = aig.and(!a, c);
        aig.and(ab, not_a_c)
    };
    let roots = [majority, multiplexer, parity, dense, sparse, never];
    for &root in &roots {
        aig.add_output(root);
    }

    let mut seen = Vec::new();
    for &root in &roots {
        assert!(aig.is_and(root.node()), "{root:?} is a node of its own");
        let cut = cut_over(&aig, root, &[a, b, c]);
        for deref in [Deref::Nothing, Deref::Bounded, Deref::Whole] {
            seen.push(check_cut(&aig, &cut, deref));
        }
    }

    // The cases are the ones announced.
    let cache = CutCache::disabled();
    let (mut scratch, mut form) = (FactorScratch::default(), FactoredForm::default());
    let mut classes = |root: Lit| {
        let truth = cut_truth_table(&aig, &cut_over(&aig, root, &[a, b, c]));
        let (transform, complement) = cache.factor_both_into(&truth, &mut scratch, &mut form);
        (truth, transform.output_negated(), complement.is_some())
    };
    assert!(classes(majority).2 && classes(multiplexer).2);
    assert!(!classes(parity).2);
    let (dense_truth, dense_negated, _) = classes(dense);
    assert!(dense_truth.count_ones() > 4 && dense_negated);
    assert!(!classes(sparse).1);
    assert!(classes(never).0.is_zero());
    assert_eq!(seen.len(), 3 * roots.len());
}
