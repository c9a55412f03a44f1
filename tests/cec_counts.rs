//! Search-identity pins for `elf-cec`: the exact verdict and solver counts of
//! the benchmark's sixteen equivalent pairs (the six `Scale::Tiny` arithmetic
//! circuits and `industrial_suite(0.001, 1)`, each against its plain
//! `rf; rw; rs` output) under a 3 000-conflict budget.
//!
//! The table was recorded on the commit *before* the solver's containers were
//! rebuilt (PR 23) and uses only public API, so it runs unmodified on either
//! side: a change to the solver that keeps these rows made the same decisions,
//! learnt the same clauses and proved the same pairs.  It is what stands in
//! for a retained copy of the old solver.

use elf::aig::Aig;
use elf::cec::{check_equivalence_with, CecParams, Equivalence};
use elf::circuits::{arithmetic_circuit, industrial_suite, Scale, ARITHMETIC_NAMES};
use elf::core::{Flow, Parallelism};

/// `(circuit, verdict, conflicts, sat_calls, candidate_classes, proved_pairs,
/// disproved_pairs, undecided_pairs)`; the verdict is `P`roved or `U`ndecided.
type Row = (&'static str, char, u64, usize, usize, usize, usize, usize);

const RECORDED: [Row; 16] = [
    ("div", 'U', 3000, 461, 469, 228, 1, 1),
    ("hyp", 'U', 3000, 37, 779, 17, 0, 1),
    ("log2", 'P', 2236, 39, 2046, 17, 1, 1),
    ("multiplier", 'U', 3000, 5, 500, 1, 0, 1),
    ("sqrt", 'P', 758, 593, 159, 296, 0, 0),
    ("square", 'P', 1999, 45, 472, 21, 0, 1),
    ("design 1", 'P', 647, 671, 192, 333, 2, 0),
    ("design 2", 'P', 334, 437, 106, 218, 0, 0),
    ("design 3", 'P', 1396, 707, 199, 348, 5, 0),
    ("design 4", 'P', 141, 453, 49, 226, 0, 0),
    ("design 5", 'P', 862, 985, 218, 489, 3, 0),
    ("design 6", 'U', 3000, 73, 224, 35, 0, 1),
    ("design 7", 'P', 248, 527, 115, 263, 0, 0),
    ("design 8", 'P', 63, 163, 30, 81, 0, 0),
    ("design 9", 'P', 63, 423, 12, 211, 0, 0),
    ("design 10", 'P', 1500, 605, 227, 299, 2, 1),
];

fn circuits() -> Vec<(String, Aig)> {
    let mut circuits: Vec<(String, Aig)> = ARITHMETIC_NAMES
        .iter()
        .map(|name| (name.to_string(), arithmetic_circuit(name, Scale::Tiny)))
        .collect();
    circuits.extend(industrial_suite(0.001, 1));
    circuits
}

#[test]
fn equivalent_pairs_keep_their_recorded_verdicts_and_counts() {
    let flow = Flow::from_script("rf; rw; rs")
        .expect("the script parses")
        .with_parallelism(Parallelism::sequential());
    let params = CecParams {
        conflict_budget: 3_000,
        ..CecParams::default()
    };
    let circuits = circuits();
    assert_eq!(circuits.len(), RECORDED.len());
    for ((name, aig), recorded) in circuits.iter().zip(RECORDED) {
        let mut optimized = aig.clone();
        flow.run(&mut optimized);
        let report = check_equivalence_with(aig, &optimized, &params);
        let verdict = match report.result {
            Equivalence::Proved => 'P',
            Equivalence::Undecided(_) => 'U',
            Equivalence::CounterExample(_) => panic!("{name}: an equivalent pair was refuted"),
        };
        let row = (
            name.as_str(),
            verdict,
            report.conflicts,
            report.sat_calls,
            report.candidate_classes,
            report.proved_pairs,
            report.disproved_pairs,
            report.undecided_pairs,
        );
        assert_eq!(row, recorded, "the search changed");
    }
}
