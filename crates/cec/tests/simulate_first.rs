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

    // `sweep: false` stays the monolithic baseline: SAT finds the witness.
    let monolithic = CecParams {
        sweep: false,
        ..CecParams::default()
    };
    let report = check_equivalence_with(&a, &mutant, &monolithic);
    assert_replays(&a, &mutant, &report);
    assert_eq!(report.sat_calls, 1);
}

#[test]
fn a_single_minterm_mutant_still_needs_the_solver() {
    // Flip output 0 on exactly one of the 2^20 input vectors (all ones):
    // 512 random vectors miss it, SAT does not.
    let a = adder(10, false);
    let mut mutant = adder(10, true);
    let inputs: Vec<Lit> = mutant.inputs().iter().map(|&id| Lit::from(id)).collect();
    let minterm = inputs
        .iter()
        .fold(Lit::TRUE, |acc, &input| mutant.and(acc, input));
    let out = mutant.outputs()[0];
    let flipped = mutant.xor(out, minterm);
    mutant.set_output(0, flipped);

    let report = check_equivalence_with(&a, &mutant, &CecParams::default());
    assert_replays(&a, &mutant, &report);
    assert_eq!(report.result, Equivalence::CounterExample(vec![true; 20]));
    assert!(report.sat_calls > 0, "simulation cannot have found this");
    assert!(report.candidate_classes > 0);
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
