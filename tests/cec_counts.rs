//! Search pins for `elf-cec`: the exact verdict and solver counts of the
//! benchmark's sixteen equivalent pairs (the six `Scale::Tiny` arithmetic
//! circuits and `industrial_suite(0.001, 1)`, each against its plain
//! `rf; rw; rs` output) under a 3 000-conflict budget.
//!
//! The table pins the FRAIG-order search as it stands since cone loading:
//! the sweep queries candidate pairs in the candidate's topological order,
//! each query on the cones of its two nodes alone, implication first, and
//! capped at a few conflicts; a candidate whose fanins are already merged
//! with its representative's is proved by structure, with no query.  It was
//! re-recorded when that change (and the solver's budget check moving to the
//! decision point) changed the search.  Summed over the sixteen rows:
//! conflicts 6 979 → 2 168, SAT calls 15 132 → 7 028, proved pairs 7 495 →
//! 8 813 (5 421 of them by structure), disproved 18 → 16, undecided 45 → 123
//! (a pair the cap abandons is undecided by design, and the cap went 10 →
//! 2); candidate classes unchanged.  Every pair is proved under this budget,
//! and that guarantee is asserted on its own.  A change to the solver or
//! the sweep that keeps these rows made the same decisions, learnt the same
//! clauses and proved the same pairs; one that is meant to change the
//! search re-records the table and says why.
//!
//! `MUTANTS` pins the other half of the benchmark's checks: each optimized
//! circuit with its middle output (index `num_outputs() / 2`) complemented,
//! checked against its input.  A row holds the verdict, the SAT calls, the
//! conflicts and a hash of the counterexample.  A complemented output makes
//! the miter true on every input vector, so each mutant is refuted by the
//! first vector of the first random simulation round, with no SAT call; the
//! hash then depends on the input count alone, hence its repeats.  These
//! checks are the miter and one simulation round, and the rows guard both.

use elf::aig::Aig;
use elf::cec::{check_equivalence_with, CecParams, Equivalence};
use elf::circuits::{arithmetic_circuit, industrial_suite, Scale, ARITHMETIC_NAMES};
use elf::core::{Flow, Parallelism};

/// `(circuit, verdict, conflicts, sat_calls, candidate_classes, proved_pairs,
/// disproved_pairs, undecided_pairs)`; the verdict is `P`roved or `U`ndecided.
type Row = (&'static str, char, u64, usize, usize, usize, usize, usize);

const RECORDED: [Row; 16] = [
    ("div", 'P', 125, 792, 469, 840, 3, 4),
    ("hyp", 'P', 257, 602, 779, 1027, 0, 18),
    ("log2", 'P', 615, 1292, 2046, 2574, 1, 65),
    ("multiplier", 'P', 89, 173, 500, 569, 0, 2),
    ("sqrt", 'P', 127, 343, 159, 279, 0, 17),
    ("square", 'P', 120, 276, 472, 587, 0, 2),
    ("design 1", 'P', 99, 321, 192, 326, 1, 8),
    ("design 2", 'P', 57, 273, 106, 218, 0, 0),
    ("design 3", 'P', 89, 354, 199, 348, 4, 3),
    ("design 4", 'P', 87, 397, 49, 226, 0, 0),
    ("design 5", 'P', 171, 603, 218, 489, 3, 0),
    ("design 6", 'P', 70, 284, 224, 351, 2, 1),
    ("design 7", 'P', 77, 333, 115, 261, 0, 2),
    ("design 8", 'P', 20, 111, 30, 81, 0, 0),
    ("design 9", 'P', 49, 413, 12, 211, 0, 0),
    ("design 10", 'P', 116, 461, 227, 426, 2, 1),
];

/// `(circuit, flipped output, verdict, conflicts, sat_calls, counterexample
/// hash)`; the verdict is `C`ounterexample or `U`ndecided, and the hash is
/// [`witness_hash`] of the counterexample (0 without one).
type MutantRow = (&'static str, usize, char, u64, usize, u64);

const MUTANTS: [MutantRow; 16] = [
    ("div", 8, 'C', 0, 0, 12296398489145892912),
    ("hyp", 3, 'C', 0, 0, 16455863728088766490),
    ("log2", 4, 'C', 0, 0, 6463987291085687674),
    ("multiplier", 8, 'C', 0, 0, 12296398489145892912),
    ("sqrt", 3, 'C', 0, 0, 16455863728088766490),
    ("square", 8, 'C', 0, 0, 6463987291085687674),
    ("design 1", 6, 'C', 0, 0, 340301158218904622),
    ("design 2", 10, 'C', 0, 0, 15144558600418432595),
    ("design 3", 17, 'C', 0, 0, 3826015618712316295),
    ("design 4", 17, 'C', 0, 0, 3826015618712316295),
    ("design 5", 25, 'C', 0, 0, 16437339318264601020),
    ("design 6", 12, 'C', 0, 0, 10442334856135129370),
    ("design 7", 9, 'C', 0, 0, 18257510788282783307),
    ("design 8", 9, 'C', 0, 0, 7806697707443149529),
    ("design 9", 13, 'C', 0, 0, 10442334856135129370),
    ("design 10", 17, 'C', 0, 0, 11926105977970764388),
];

fn circuits() -> Vec<(String, Aig)> {
    let mut circuits: Vec<(String, Aig)> = ARITHMETIC_NAMES
        .iter()
        .map(|name| (name.to_string(), arithmetic_circuit(name, Scale::Tiny)))
        .collect();
    circuits.extend(industrial_suite(0.001, 1));
    circuits
}

/// Each circuit with its plain `rf; rw; rs` output.
fn optimized_pairs() -> Vec<(String, Aig, Aig)> {
    let flow = Flow::from_script("rf; rw; rs")
        .expect("the script parses")
        .with_parallelism(Parallelism::sequential());
    circuits()
        .into_iter()
        .map(|(name, aig)| {
            let mut optimized = aig.clone();
            flow.run(&mut optimized);
            (name, aig, optimized)
        })
        .collect()
}

const PARAMS: CecParams = CecParams {
    conflict_budget: 3_000,
};

/// FNV-1a over a counterexample, one byte per input.
fn witness_hash(witness: &[bool]) -> u64 {
    witness.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &bit| {
        (hash ^ u64::from(bit)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn equivalent_pairs_keep_their_recorded_verdicts_and_counts() {
    let pairs = optimized_pairs();
    assert_eq!(pairs.len(), RECORDED.len());
    let rows: Vec<Row> = pairs
        .iter()
        .zip(RECORDED)
        .map(|((name, aig, optimized), (recorded_name, ..))| {
            assert_eq!(name, recorded_name);
            let report = check_equivalence_with(aig, optimized, &PARAMS);
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

#[test]
fn output_flipped_mutants_keep_their_recorded_verdicts_and_counts() {
    let pairs = optimized_pairs();
    assert_eq!(pairs.len(), MUTANTS.len());
    let rows: Vec<MutantRow> = pairs
        .iter()
        .zip(MUTANTS)
        .map(|((name, aig, optimized), (recorded_name, ..))| {
            assert_eq!(name, recorded_name);
            let mut mutant = optimized.clone();
            let flipped = mutant.num_outputs() / 2;
            let output = mutant.outputs()[flipped];
            mutant.set_output(flipped, !output);
            let report = check_equivalence_with(aig, &mutant, &PARAMS);
            let (verdict, hash) = match &report.result {
                Equivalence::CounterExample(witness) => {
                    assert_ne!(aig.evaluate(witness), mutant.evaluate(witness), "{name}");
                    ('C', witness_hash(witness))
                }
                Equivalence::Undecided(_) => ('U', 0),
                Equivalence::Proved => panic!("{name}: an output-flipped mutant was proved"),
            };
            (
                recorded_name,
                flipped,
                verdict,
                report.conflicts,
                report.sat_calls,
                hash,
            )
        })
        .collect();
    assert_eq!(rows, MUTANTS, "the search changed");
}
