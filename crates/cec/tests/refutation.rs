//! Refutation property tests: every functional mutation of a circuit must
//! be caught by the SAT checker with a **replayable** counterexample.
//!
//! The mutations model real operator bugs — a complemented fanin, an AND
//! input silently tied to a constant, a flipped output — applied to random
//! scripted circuits.  Mutations that happen to be functional no-ops (the
//! mutated signal was redundant) are detected with the exhaustive
//! simulation oracle of `elf-aig` and skipped: the property is about
//! *broken* circuits, and the oracle's verdict doubles as a cross-check of
//! the SAT result on the skipped cases.
//!
//! The differential property at the end guards the sweep's merges: an
//! optimized circuit shares most of its structure with its input, so most
//! of its miter is merged by structure, and a wrong merge would prove a
//! broken circuit.  Its oracle is exhaustive enumeration.  Random simulation
//! refutes nearly every plain fault before the sweep runs, so the property
//! also checks the fault switched on for one input vector alone, which the
//! random vectors often miss over nine or ten inputs: its candidates are
//! then faulty nodes that look like good ones, which is where a wrong merge
//! would hide.

use elf_aig::{check_equivalence as sim_check, Aig, EquivalenceResult, Lit, NodeId};
use elf_cec::{check_equivalence, Equivalence};
use elf_circuits::{script_strategy, scripted_circuit};
use elf_opt::{Refactor, Resubstitution, Rewrite};
use proptest::prelude::*;

/// One injected fault.
#[derive(Debug, Clone, Copy)]
enum Fault {
    /// Complement fanin `side` of the `pick`-th reachable AND node.
    FlipFanin { pick: usize, side: bool },
    /// Replace fanin `side` of the `pick`-th reachable AND node with a
    /// constant (`true`/`false` chosen by `side` too, to keep the space
    /// small).
    ConstantInput { pick: usize, side: bool },
    /// Complement the `pick`-th primary output.
    FlipOutput { pick: usize },
    /// [`Fault::FlipFanin`] on the single input vector `minterm` (bit `i`
    /// is input `i`) and on no other: the faulty cone then matches the good
    /// one on almost every simulation vector, so the sweep takes its nodes
    /// for candidates of the good ones and must refute them.
    FlipFaninOn {
        pick: usize,
        side: bool,
        minterm: u32,
    },
}

/// Rebuilds `aig` node by node, injecting `fault` along the way.  The
/// rebuild goes through the ordinary strashing constructors, so the result
/// is a *legal* AIG — exactly what a buggy operator would hand back.
fn inject(aig: &Aig, fault: Fault) -> Aig {
    let mut mutated = Aig::new();
    let inputs = mutated.add_inputs(aig.num_inputs());
    let mut map: Vec<Option<Lit>> = vec![None; aig.num_slots()];
    map[0] = Some(Lit::FALSE);
    for (old, new) in aig.inputs().iter().zip(&inputs) {
        map[old.index() as usize] = Some(*new);
    }

    let translate = |map: &[Option<Lit>], lit: Lit| -> Lit {
        let mapped = map[lit.node().index() as usize].expect("fanins map before fanouts");
        if lit.is_complemented() {
            !mapped
        } else {
            mapped
        }
    };

    let order = aig.topological_order();
    let target: Option<NodeId> = match fault {
        Fault::FlipFanin { pick, .. }
        | Fault::ConstantInput { pick, .. }
        | Fault::FlipFaninOn { pick, .. }
            if !order.is_empty() =>
        {
            Some(order[pick % order.len()])
        }
        _ => None,
    };
    for id in order {
        let (f0, f1) = aig.fanins(id);
        let (mut a, mut b) = (translate(&map, f0), translate(&map, f1));
        if target == Some(id) {
            match fault {
                Fault::FlipFanin { side, .. } => {
                    if side {
                        b = !b;
                    } else {
                        a = !a;
                    }
                }
                Fault::ConstantInput { side, .. } => {
                    if side {
                        b = Lit::TRUE;
                    } else {
                        a = Lit::FALSE;
                    }
                }
                Fault::FlipFaninOn { side, minterm, .. } => {
                    let hit = inputs.iter().enumerate().fold(Lit::TRUE, |acc, (i, &x)| {
                        mutated.and(acc, x.complement_if(minterm >> i & 1 == 0))
                    });
                    if side {
                        b = mutated.xor(b, hit);
                    } else {
                        a = mutated.xor(a, hit);
                    }
                }
                Fault::FlipOutput { .. } => {}
            }
        }
        let built = mutated.and(a, b);
        map[id.index() as usize] = Some(built);
    }

    for (i, &out) in aig.outputs().iter().enumerate() {
        let mut lit = translate(&map, out);
        if let Fault::FlipOutput { pick } = fault {
            if i == pick % aig.num_outputs() {
                lit = !lit;
            }
        }
        mutated.add_output(lit);
    }
    mutated
}

/// The property: if the fault changed the function (exhaustive-simulation
/// oracle — the scripted circuits have 5 inputs, well within the exhaustive
/// range), the SAT checker must refute with a counterexample that replays
/// to a real output disagreement; if it did not, the checker must prove
/// equivalence.
fn assert_fault_is_caught(original: &Aig, fault: Fault) {
    let mutated = inject(original, fault);
    let oracle = sim_check(original, &mutated, 8, 11);
    match check_equivalence(original, &mutated) {
        Equivalence::CounterExample(witness) => {
            assert_eq!(
                oracle,
                EquivalenceResult::NotEquivalent,
                "SAT refuted a circuit the exhaustive oracle calls equivalent ({fault:?})"
            );
            assert_eq!(witness.len(), original.num_inputs());
            assert_ne!(
                original.evaluate(&witness),
                mutated.evaluate(&witness),
                "the counterexample does not replay ({fault:?})"
            );
        }
        Equivalence::Proved => {
            assert_eq!(
                oracle,
                EquivalenceResult::Equivalent,
                "SAT proved a circuit the exhaustive oracle refutes ({fault:?})"
            );
        }
        Equivalence::Undecided(budget) => {
            panic!("the default budget ({budget} conflicts) starved on a toy circuit ({fault:?})");
        }
    }
}

/// `rf; rw; rs` with default parameters.
fn rf_rw_rs(aig: &Aig) -> Aig {
    let mut optimized = aig.clone();
    Refactor::default().run(&mut optimized);
    Rewrite::default().run(&mut optimized);
    Resubstitution.run(&mut optimized);
    optimized
}

/// Whether `a` and `b` agree on every input vector, by enumeration.
fn agree_everywhere(a: &Aig, b: &Aig) -> bool {
    let n = a.num_inputs();
    (0u32..1 << n).all(|vector| {
        let inputs: Vec<bool> = (0..n).map(|i| vector >> i & 1 == 1).collect();
        a.evaluate(&inputs) == b.evaluate(&inputs)
    })
}

/// Checks `other` against `original`: the verdict must match the
/// enumeration oracle, and a counterexample must replay.
fn assert_checker_matches_enumeration(original: &Aig, other: &Aig) -> bool {
    let equivalent = agree_everywhere(original, other);
    match check_equivalence(original, other) {
        Equivalence::Proved => assert!(equivalent, "a broken circuit proved"),
        Equivalence::CounterExample(witness) => {
            assert!(!equivalent, "an equivalent circuit refuted");
            assert_ne!(original.evaluate(&witness), other.evaluate(&witness));
        }
        Equivalence::Undecided(_) => panic!("undecided on a toy circuit"),
    }
    equivalent
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn an_optimized_circuit_is_proved_and_its_flipped_fanin_refuted_as_enumeration_says(
        inputs in 6usize..=10,
        script in script_strategy(48),
        pick in 0usize..256,
        side in any::<bool>(),
        minterm in any::<u32>(),
    ) {
        let original = scripted_circuit(inputs, &script);
        let optimized = rf_rw_rs(&original);
        prop_assert!(assert_checker_matches_enumeration(&original, &optimized));
        let broken = inject(&optimized, Fault::FlipFanin { pick, side });
        assert_checker_matches_enumeration(&original, &broken);
        let minterm = minterm % (1 << inputs);
        let rare = inject(&optimized, Fault::FlipFaninOn { pick, side, minterm });
        assert_checker_matches_enumeration(&original, &rare);
    }

    #[test]
    fn a_complemented_fanin_is_refuted_with_a_replayable_witness(
        script in script_strategy(24),
        pick in 0usize..64,
        side in any::<bool>(),
    ) {
        let original = scripted_circuit(5, &script);
        assert_fault_is_caught(&original, Fault::FlipFanin { pick, side });
    }

    #[test]
    fn an_input_tied_to_a_constant_is_refuted_with_a_replayable_witness(
        script in script_strategy(24),
        pick in 0usize..64,
        side in any::<bool>(),
    ) {
        let original = scripted_circuit(5, &script);
        assert_fault_is_caught(&original, Fault::ConstantInput { pick, side });
    }

    #[test]
    fn a_flipped_output_is_refuted_with_a_replayable_witness(
        script in script_strategy(24),
        pick in 0usize..8,
    ) {
        let original = scripted_circuit(5, &script);
        assert_fault_is_caught(&original, Fault::FlipOutput { pick });
    }

    #[test]
    fn an_unmutated_rebuild_is_proved(script in script_strategy(24)) {
        // Control case: inject a fault and immediately undo it, leaving a
        // faithful strashed rebuild — the checker must prove it equivalent.
        let original = scripted_circuit(5, &script);
        let mut rebuilt = inject(&original, Fault::FlipOutput { pick: 0 });
        let out = rebuilt.outputs()[0];
        rebuilt.set_output(0, !out);
        prop_assert_eq!(
            check_equivalence(&original, &rebuilt),
            Equivalence::Proved
        );
    }
}
