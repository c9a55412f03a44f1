//! Search pins for `elf-cec`: the exact verdict and solver counts of the
//! benchmark's sixteen equivalent pairs (the six `Scale::Tiny` arithmetic
//! circuits and `industrial_suite(0.001, 1)`, each against its plain
//! `rf; rw; rs` output) under a 3 000-conflict budget.
//!
//! The table pins the FRAIG-order search and was recorded on the change that
//! introduced it: the sweep queries candidate pairs in the candidate's
//! topological order, each query capped at a few conflicts.  Every pair is
//! proved under this budget, and that guarantee is asserted on its own.  A
//! change to the solver or the sweep that keeps these rows made the same
//! decisions, learnt the same clauses and proved the same pairs; one that is
//! meant to change the search re-records the table and says why.

use elf::aig::Aig;
use elf::cec::{check_equivalence_with, CecParams, Equivalence};
use elf::circuits::{arithmetic_circuit, industrial_suite, Scale, ARITHMETIC_NAMES};
use elf::core::{Flow, Parallelism};

/// `(circuit, verdict, conflicts, sat_calls, candidate_classes, proved_pairs,
/// disproved_pairs, undecided_pairs)`; the verdict is `P`roved or `U`ndecided.
type Row = (&'static str, char, u64, usize, usize, usize, usize, usize);

const RECORDED: [Row; 16] = [
    ("div", 'P', 586, 1693, 469, 842, 3, 1),
    ("hyp", 'P', 1065, 2091, 779, 1038, 0, 7),
    ("log2", 'P', 1775, 2501, 2046, 1215, 1, 34),
    ("multiplier", 'P', 567, 1143, 500, 571, 0, 0),
    ("sqrt", 'P', 287, 593, 159, 294, 0, 2),
    ("square", 'P', 574, 1179, 472, 589, 0, 0),
    ("design 1", 'P', 291, 671, 192, 332, 2, 1),
    ("design 2", 'P', 151, 437, 106, 218, 0, 0),
    ("design 3", 'P', 287, 707, 199, 348, 5, 0),
    ("design 4", 'P', 122, 453, 49, 226, 0, 0),
    ("design 5", 'P', 371, 985, 218, 489, 3, 0),
    ("design 6", 'P', 289, 707, 224, 351, 2, 0),
    ("design 7", 'P', 182, 527, 115, 263, 0, 0),
    ("design 8", 'P', 49, 163, 30, 81, 0, 0),
    ("design 9", 'P', 63, 423, 12, 211, 0, 0),
    ("design 10", 'P', 320, 859, 227, 427, 2, 0),
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
    let rows: Vec<Row> = circuits
        .iter()
        .zip(RECORDED)
        .map(|((name, aig), (recorded_name, ..))| {
            assert_eq!(name, recorded_name);
            let mut optimized = aig.clone();
            flow.run(&mut optimized);
            let report = check_equivalence_with(aig, &optimized, &params);
            let verdict = match report.result {
                Equivalence::Proved => 'P',
                Equivalence::Undecided(_) => 'U',
                Equivalence::CounterExample(_) => panic!("{name}: an equivalent pair was refuted"),
            };
            (
                recorded_name,
                verdict,
                report.conflicts,
                report.sat_calls,
                report.candidate_classes,
                report.proved_pairs,
                report.disproved_pairs,
                report.undecided_pairs,
            )
        })
        .collect();
    // The guarantee first, then the exact search.
    let undecided: Vec<&str> = rows
        .iter()
        .filter(|row| row.1 != 'P')
        .map(|row| row.0)
        .collect();
    assert!(undecided.is_empty(), "undecided: {undecided:?}");
    assert_eq!(rows, RECORDED, "the search changed");
}
