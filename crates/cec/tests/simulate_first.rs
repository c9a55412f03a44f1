//! The sweep's simulate-first step: a miter whose output is already true on
//! one of the random simulation vectors is refuted from that vector, before
//! the CNF is built or the solver is asked anything — and nothing else moves.
//!
//! The equivalent pair's report below pins the sweep's counts.  It was
//! re-recorded when the sweep moved to cone loading, implication-first
//! queries and merges by structure, with its per-query cap going 10 → 2:
//! these adders' full adders associate the sum's XORs differently, so no
//! pair merges by structure, and 18 pairs that need more than two conflicts
//! are left to the final query (proved 57 → 39, undecided 0 → 18, SAT calls
//! 115 → 106, conflicts 154 → 135).

use elf_aig::{Aig, Lit};
use elf_cec::{check_equivalence_with, CecParams, CecReport, Equivalence};

/// A ripple-carry adder.  `majority` picks the second of two structurally
/// different full adders: `a ^ (b ^ c)` with a three-AND majority carry
/// instead of `(a ^ b) ^ c` with a generate/propagate carry.
fn adder(bits: usize, majority: bool) -> Aig {
    let mut aig = Aig::new();
    let a = aig.add_inputs(bits);
    let b = aig.add_inputs(bits);
    let mut carry = Lit::FALSE;
    for i in 0..bits {
        let (sum, next) = if majority {
            let bc = aig.xor(b[i], carry);
            let sum = aig.xor(a[i], bc);
            let ab = aig.and(a[i], b[i]);
            let ac = aig.and(a[i], carry);
            let bc = aig.and(b[i], carry);
            let either = aig.or(ab, ac);
            (sum, aig.or(either, bc))
        } else {
            let ab = aig.xor(a[i], b[i]);
            let sum = aig.xor(ab, carry);
            let gen = aig.and(a[i], b[i]);
            let prop = aig.and(ab, carry);
            (sum, aig.or(gen, prop))
        };
        carry = next;
        aig.add_output(sum);
    }
    aig.add_output(carry);
    aig
}

fn assert_replays(a: &Aig, b: &Aig, report: &CecReport) {
    match &report.result {
        Equivalence::CounterExample(inputs) => {
            assert_eq!(inputs.len(), a.num_inputs());
            assert_ne!(a.evaluate(inputs), b.evaluate(inputs));
        }
        other => panic!("expected a counterexample, got {other:?}"),
    }
}

#[test]
fn an_output_flipped_mutant_is_refuted_by_simulation_alone() {
    let a = adder(10, false);
    let mut mutant = adder(10, true);
    let out = mutant.outputs()[4];
    mutant.set_output(4, !out);

    let report = check_equivalence_with(&a, &mutant, &CecParams::default());
    assert_replays(&a, &mutant, &report);
    // The pair disagrees on every vector: the first simulation round already
    // holds the witness, so no query is issued and no class is formed.
    assert_eq!((report.sat_calls, report.conflicts), (0, 0));
    assert_eq!(report.candidate_classes, 0);
    assert!(report.miter_ands > 0);
}

#[test]
fn a_single_minterm_mutant_still_needs_the_solver() {
    // Flip one output on exactly one of the 2^20 input vectors (bit `i` of
    // the minterm is input `i`): 512 random vectors miss it, SAT does not.
    // The low sum bit, a middle one and the carry out, each on its own
    // vector.
    let a = adder(10, false);
    for (output, minterm) in [(0, 0xF_FFFFu32), (4, 0x5_5555), (10, 0xD_B6DB)] {
        let vector: Vec<bool> = (0..a.num_inputs()).map(|i| minterm >> i & 1 == 1).collect();
        let mut mutant = adder(10, true);
        let inputs: Vec<Lit> = mutant.inputs().iter().map(|&id| Lit::from(id)).collect();
        let minterm = inputs
            .iter()
            .zip(&vector)
            .fold(Lit::TRUE, |acc, (&input, &one)| {
                mutant.and(acc, input.complement_if(!one))
            });
        let out = mutant.outputs()[output];
        let flipped = mutant.xor(out, minterm);
        mutant.set_output(output, flipped);

        let report = check_equivalence_with(&a, &mutant, &CecParams::default());
        assert_replays(&a, &mutant, &report);
        assert_eq!(report.result, Equivalence::CounterExample(vector));
        assert!(
            report.sat_calls > 0,
            "simulation cannot have found output {output}'s flip"
        );
        assert!(report.candidate_classes > 0);
    }
}

#[test]
fn an_equivalent_pair_reports_what_it_reported_before() {
    // An equivalent pair's miter output is zero on every vector, so the step
    // never fires: these are the counts of the FRAIG-order sweep alone.
    let report = check_equivalence_with(&adder(10, false), &adder(10, true), &CecParams::default());
    assert_eq!(
        report,
        CecReport {
            result: Equivalence::Proved,
            miter_ands: 211,
            candidate_classes: 19,
            proved_pairs: 39,
            disproved_pairs: 0,
            undecided_pairs: 18,
            sat_calls: 106,
            conflicts: 135,
        }
    );
}
