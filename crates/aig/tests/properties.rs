//! Property-based tests for the AIG substrate.

use elf_aig::{check_equivalence, Aig, CutParams, EquivalenceResult, Lit};
use proptest::prelude::*;

/// A small random-circuit description: a sequence of gate build instructions.
#[derive(Debug, Clone)]
enum GateOp {
    And(usize, bool, usize, bool),
    Or(usize, bool, usize, bool),
    Xor(usize, bool, usize, bool),
    Mux(usize, usize, usize),
}

fn gate_ops(max_ops: usize) -> impl Strategy<Value = Vec<GateOp>> {
    prop::collection::vec(
        prop_oneof![
            (0usize..64, any::<bool>(), 0usize..64, any::<bool>())
                .prop_map(|(a, ca, b, cb)| GateOp::And(a, ca, b, cb)),
            (0usize..64, any::<bool>(), 0usize..64, any::<bool>())
                .prop_map(|(a, ca, b, cb)| GateOp::Or(a, ca, b, cb)),
            (0usize..64, any::<bool>(), 0usize..64, any::<bool>())
                .prop_map(|(a, ca, b, cb)| GateOp::Xor(a, ca, b, cb)),
            (0usize..64, 0usize..64, 0usize..64).prop_map(|(s, t, e)| GateOp::Mux(s, t, e)),
        ],
        1..max_ops,
    )
}

/// Builds an AIG with `num_inputs` inputs from a gate-op script.
fn build_circuit(num_inputs: usize, ops: &[GateOp]) -> Aig {
    let mut aig = Aig::new();
    let mut signals: Vec<Lit> = aig.add_inputs(num_inputs);
    for op in ops {
        let pick = |i: usize, c: bool, signals: &[Lit]| signals[i % signals.len()].complement_if(c);
        let lit = match *op {
            GateOp::And(a, ca, b, cb) => {
                let (x, y) = (pick(a, ca, &signals), pick(b, cb, &signals));
                aig.and(x, y)
            }
            GateOp::Or(a, ca, b, cb) => {
                let (x, y) = (pick(a, ca, &signals), pick(b, cb, &signals));
                aig.or(x, y)
            }
            GateOp::Xor(a, ca, b, cb) => {
                let (x, y) = (pick(a, ca, &signals), pick(b, cb, &signals));
                aig.xor(x, y)
            }
            GateOp::Mux(s, t, e) => {
                let (s, t, e) = (
                    pick(s, false, &signals),
                    pick(t, false, &signals),
                    pick(e, true, &signals),
                );
                aig.mux(s, t, e)
            }
        };
        signals.push(lit);
    }
    // Use the last few signals as outputs.
    let n = signals.len();
    for lit in signals.iter().skip(n.saturating_sub(4)) {
        aig.add_output(*lit);
    }
    aig
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Invariants (refcounts, hash table, fanout lists) hold after arbitrary
    /// construction sequences.
    #[test]
    fn construction_preserves_invariants(ops in gate_ops(40)) {
        let aig = build_circuit(4, &ops);
        prop_assert!(aig.check_invariants().is_empty(), "{:?}", aig.check_invariants());
    }

    /// Restrashing never changes the function and never increases node count.
    #[test]
    fn restrash_preserves_function(ops in gate_ops(40)) {
        let aig = build_circuit(5, &ops);
        let fresh = aig.restrash();
        prop_assert!(fresh.num_ands() <= aig.num_ands());
        prop_assert_eq!(
            check_equivalence(&aig, &fresh, 8, 11),
            EquivalenceResult::Equivalent
        );
    }

    /// AIGER text round-trips preserve the function, and in both formats a
    /// parsed file serializes back to the identical bytes.
    #[test]
    fn aiger_round_trip(ops in gate_ops(30)) {
        let aig = build_circuit(4, &ops);
        let text = elf_aig::aiger::to_ascii(&aig);
        let parsed = elf_aig::aiger::from_ascii(&text).unwrap();
        prop_assert_eq!(
            check_equivalence(&aig, &parsed, 8, 5),
            EquivalenceResult::Equivalent
        );
        prop_assert_eq!(elf_aig::aiger::to_ascii(&parsed), text);
        let binary = elf_aig::aiger::to_binary(&aig);
        let parsed = elf_aig::aiger::from_binary(&binary).unwrap();
        prop_assert_eq!(elf_aig::aiger::to_binary(&parsed), binary);
    }

    /// Structural hashing is idempotent: building the same AND twice returns
    /// the same literal and does not grow the graph.
    #[test]
    fn strash_idempotent(ops in gate_ops(30), a in 0usize..32, b in 0usize..32) {
        let mut aig = build_circuit(4, &ops);
        let nodes: Vec<_> = aig.and_ids().collect();
        if nodes.len() >= 2 {
            let x = nodes[a % nodes.len()].lit();
            let y = nodes[b % nodes.len()].lit();
            let before = aig.num_ands();
            let first = aig.and(x, y);
            let mid = aig.num_ands();
            let second = aig.and(x, y);
            prop_assert_eq!(first, second);
            prop_assert_eq!(mid, aig.num_ands());
            prop_assert!(aig.num_ands() <= before + 1);
        }
    }

    /// A reconvergence-driven cut is a legal cut: removing the leaves
    /// disconnects the root from all primary inputs, and every cone node lies
    /// between the root and the leaves.
    #[test]
    fn reconvergence_cut_is_legal(ops in gate_ops(60)) {
        let mut aig = build_circuit(6, &ops);
        let roots: Vec<_> = aig.and_ids().collect();
        for root in roots.into_iter().rev().take(5) {
            let cut = aig.reconvergence_cut(root, &CutParams::default());
            prop_assert!(cut.num_leaves() <= CutParams::default().max_leaves);
            prop_assert!(cut.cone.contains(&root));
            // Every cone node's fanins are either in the cone or leaves.
            for &node in &cut.cone {
                let (f0, f1) = aig.fanins(node);
                for fanin in [f0.node(), f1.node()] {
                    prop_assert!(
                        cut.cone.contains(&fanin) || cut.leaves.contains(&fanin),
                        "cone node has fanin outside cut"
                    );
                }
            }
            // Features are finite and consistent with the cut.
            let features = aig.cut_features(&cut);
            prop_assert_eq!(features.leaves as usize, cut.num_leaves());
            prop_assert_eq!(features.cut_size as usize, cut.size());
        }
    }

    /// `replace` with a functionally-identical literal preserves the overall
    /// function (here we re-build an equivalent node by hand).
    #[test]
    fn replace_with_equivalent_preserves_function(ops in gate_ops(40)) {
        let mut aig = build_circuit(5, &ops);
        let golden = aig.clone();
        // Pick the last AND node and rebuild its function from its own fanins
        // (a trivially equivalent replacement), then replace.
        if let Some(root) = aig.and_ids().last() {
            let (f0, f1) = aig.fanins(root);
            // Build AND(f1, f0) which strashes to the same node, then a fresh
            // equivalent via double negation of the fanins.
            let rebuilt = aig.and(!(!f0), f1);
            if rebuilt.node() != root {
                aig.replace(root, rebuilt);
            }
            prop_assert!(aig.check_invariants().is_empty());
            prop_assert_eq!(
                check_equivalence(&golden, &aig, 8, 23),
                EquivalenceResult::Equivalent
            );
        }
    }
}
