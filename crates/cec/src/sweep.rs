//! Simulation-guided SAT sweeping of a miter.
//!
//! A raw miter query hands the solver one monolithic problem.  The
//! fraig-style sweep instead mines the miter for *internal* equivalences
//! first: bit-parallel random simulation partitions the AND nodes into
//! candidate-equivalence classes (nodes whose simulation words agree up to
//! complementation), and the candidate pairs are discharged in FRAIG order
//! (Mishchenko et al., "FRAIGs: a unifying representation for logic
//! synthesis and verification", 2005): candidates in topological order, so
//! every merge in a candidate's fanin cone is known when it is reached.
//!
//! * A candidate whose fanins, read through those merges, are its
//!   representative's is proved by structure, with no SAT call and no
//!   clause loaded.
//! * Any other pair gets two small incremental queries on the cones of its
//!   two nodes alone ([`Encoding`] loads a node's cone when a query first
//!   asks for it), each under a small conflict cap.  Each query asserts the
//!   literal that sets an AND to 1 first, so an equivalence the merged
//!   fanins already imply ends by propagation, as a failed assumption.
//!
//! Proved pairs are merged: every fanout loaded afterwards reads the
//! representative's literal.  Refuted pairs yield counterexample patterns
//! that are fed back into the simulation to split the classes further.  The
//! final miter query then loads the output's cone through the merges.
//!
//! The random rounds also decide the easy half of refutation: if the miter
//! output is true on any simulated vector, that vector is the answer and the
//! solver is never built (an equivalent pair's output is zero on every
//! vector, so its counts are untouched by this step).

use std::collections::HashMap;

use elf_aig::{Aig, Lit, NodeId};

use crate::cnf::Encoding;
use crate::solver::{SolveResult, Solver};
use crate::{CecParams, CecReport, Equivalence};

/// Decides a single-output miter: is its output satisfiable?
///
/// `Proved` means the output is constant false (the two original circuits
/// agree everywhere); `CounterExample` carries an input assignment on which
/// they disagree.
pub(crate) fn solve_miter(m: &Aig, params: &CecParams) -> CecReport {
    let mut report = CecReport {
        result: Equivalence::Undecided(params.conflict_budget),
        miter_ands: m.num_reachable_ands(),
        candidate_classes: 0,
        proved_pairs: 0,
        disproved_pairs: 0,
        undecided_pairs: 0,
        sat_calls: 0,
        conflicts: 0,
    };
    let out = m.outputs()[0];
    // Structural hashing may have decided the miter already.
    if out == Lit::FALSE {
        report.result = Equivalence::Proved;
        return report;
    }
    if out == Lit::TRUE {
        report.result = Equivalence::CounterExample(vec![false; m.num_inputs()]);
        return report;
    }

    // The sweep's random rounds come first: a vector on which the output is
    // already true is the answer, with no CNF and no solver.
    let mut sim = Sim::new(m);
    if let Some(witness) = sim.random_rounds(m, out) {
        report.result = Equivalence::CounterExample(witness);
        return report;
    }

    let mut solver = Solver::new();
    let mut enc = Encoding::new(m, &mut solver);
    sweep(m, &mut sim, &mut solver, &mut enc, params, &mut report);

    let out = enc.lit(m, &mut solver, out);
    let final_budget = params
        .conflict_budget
        .saturating_sub(solver.num_conflicts())
        .max(1);
    report.sat_calls += 1;
    report.result = match solver.solve(&[out], Some(final_budget)) {
        SolveResult::Unsat => Equivalence::Proved,
        SolveResult::Sat => Equivalence::CounterExample(
            m.inputs()
                .iter()
                .map(|&input| enc.model_value(&solver, input))
                .collect(),
        ),
        SolveResult::Unknown => Equivalence::Undecided(params.conflict_budget),
    };
    report.conflicts = solver.num_conflicts();
    report
}

/// Seed of the simulation patterns; fixed seed, fixed run.
const SIM_SEED: u64 = 0xE1F_CEC;

/// Random simulation rounds (64 input vectors each) that form the
/// candidate-equivalence classes before SAT sweeping.
const SIM_ROUNDS: usize = 8;

/// One simulation state: accumulated 64-pattern words per node slot.
struct Sim {
    /// `words[slot]` holds one word per completed simulation round;
    /// unreachable slots stay empty.
    words: Vec<Vec<u64>>,
    order: Vec<NodeId>,
}

impl Sim {
    fn new(m: &Aig) -> Sim {
        Sim {
            words: vec![Vec::new(); m.num_slots()],
            order: m.topological_order(),
        }
    }

    /// Appends one simulation round driven by the given per-input words.
    fn round(&mut self, m: &Aig, input_words: &[u64]) {
        self.words[0].push(0);
        for (input, &word) in m.inputs().iter().zip(input_words) {
            self.words[input.as_usize()].push(word);
        }
        for &id in &self.order {
            let (f0, f1) = m.fanins(id);
            let v0 = self.eval_last(f0);
            let v1 = self.eval_last(f1);
            self.words[id.as_usize()].push(v0 & v1);
        }
    }

    /// Runs the [`SIM_ROUNDS`] random rounds.  A round on which `out` is
    /// true for some vector ends them: the column of the lowest such bit is
    /// returned as a counterexample.
    fn random_rounds(&mut self, m: &Aig, out: Lit) -> Option<Vec<bool>> {
        let mut rng = SIM_SEED ^ 0x5EED_CEC5_EED0_CEC5;
        let mut input_words = vec![0u64; m.num_inputs()];
        for _ in 0..SIM_ROUNDS {
            for word in &mut input_words {
                *word = splitmix64(&mut rng);
            }
            self.round(m, &input_words);
            let hits = self.eval_last(out);
            if hits != 0 {
                let column = hits.trailing_zeros();
                return Some(input_words.iter().map(|w| w >> column & 1 == 1).collect());
            }
        }
        None
    }

    /// The newest word of `lit` (complement applied).
    fn eval_last(&self, lit: Lit) -> u64 {
        let words = &self.words[lit.node().as_usize()];
        let w = words[words.len() - 1];
        if lit.is_complemented() {
            !w
        } else {
            w
        }
    }

    /// Whether the node's words are complemented for canonicalization.
    fn phase(&self, id: NodeId) -> bool {
        self.words[id.as_usize()][0] & 1 == 1
    }

    /// The node's words with the canonical phase applied.
    fn canonical(&self, id: NodeId) -> Vec<u64> {
        let flip = self.phase(id);
        self.words[id.as_usize()]
            .iter()
            .map(|&w| if flip { !w } else { w })
            .collect()
    }

    /// Re-checks (over every accumulated word, including refinement rounds)
    /// that `a` and `b` still look equal up to `complemented`.
    fn still_matches(&self, a: NodeId, b: NodeId, complemented: bool) -> bool {
        let wa = &self.words[a.as_usize()];
        let wb = &self.words[b.as_usize()];
        wa.len() == wb.len()
            && wa
                .iter()
                .zip(wb)
                .all(|(&x, &y)| x == if complemented { !y } else { y })
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Conflicts one sweep query may spend.  A pair that needs more is left to
/// the final query: in topological order an equivalence whose fanin cone is
/// already merged is a local question, which propagation through the cone
/// or a learnt clause or two settles, so a small cap decides nearly every
/// pair and stops one hard pair from eating the sweep's whole half of the
/// budget.
///
/// Grid on the `cec_verify` benchmark at 3 000 conflicts: `main_ms` over
/// its sixteen equivalent pairs (median of five runs for caps 1 and 2, both
/// of two runs otherwise; 2-core x86-64) and conflicts over all its checks,
/// every check decided.  The last column is one check of two ripple adders
/// whose full adders associate the sum's XORs differently (10 / 128 bits,
/// default budget):
///
/// | cap |   seed 9 ms |  seed 11 ms | conflicts, seed 9 / 11 | XOR adders ms |
/// |----:|------------:|------------:|-----------------------:|--------------:|
/// |   1 |        26.7 |        29.2 |          2 037 / 2 100 |   1.8 / 102.7 |
/// |   2 |        27.9 |        29.5 |          2 091 / 2 165 |    0.8 / 45.1 |
/// |   3 | 33.2 / 35.8 | 35.1 / 31.1 |          2 182 / 2 256 |    0.8 / 35.0 |
/// |   5 | 39.8 / 36.7 | 36.7 / 45.5 |          2 307 / 2 370 |    0.9 / 31.5 |
/// |  10 | 54.0 / 50.3 | 56.2 / 49.6 |          2 560 / 2 629 |    0.8 / 33.5 |
///
/// A cap of 1 was a cliff while the solver checked its budget right after a
/// conflict, abandoning a query that the learnt clause already decided; it
/// checks before the next decision now.  1 is then the cheapest cap on the
/// benchmark, by 1–4 % in the median, but an XOR that needs two conflicts is
/// never merged under it, and on the adders nearly every pair falls to the
/// final query (2 of 57 proved at 10 bits).  2 keeps most of those merges
/// and costs less than half as much there.
const PAIR_CONFLICTS: u64 = 2;

/// The sweep's `(representative, candidate)` pairs and the number of
/// candidate classes (signatures with at least two members).
///
/// One pass over the constant and `sim.order` pairs each node with the first
/// node in topological order that has its canonical signature.  The pairs
/// come out in the candidate's topological order, so by the time a candidate
/// is queried every proved equivalence in its fanin cone is already a clause.
fn candidate_pairs(sim: &Sim) -> (Vec<(NodeId, NodeId)>, usize) {
    // Per signature: its representative, and whether it has a candidate yet.
    let mut representative: HashMap<Vec<u64>, (NodeId, bool)> = HashMap::new();
    let (mut pairs, mut classes) = (Vec::new(), 0);
    for id in std::iter::once(Lit::FALSE.node()).chain(sim.order.iter().copied()) {
        let (rep, paired) = representative
            .entry(sim.canonical(id))
            .or_insert((id, false));
        if *rep != id {
            classes += usize::from(!std::mem::replace(paired, true));
            pairs.push((*rep, id));
        }
    }
    (pairs, classes)
}

/// Whether `cand` equals `rep` by structure: both are ANDs over the same
/// two fanins once those are read through the representative map.
fn same_fanins(m: &Aig, enc: &Encoding, rep: NodeId, cand: NodeId) -> bool {
    let fanins = |id| {
        let (a, b) = m.fanins(id);
        let (a, b) = (enc.repr(a), enc.repr(b));
        (a.min(b), a.max(b))
    };
    m.is_and(rep) && fanins(rep) == fanins(cand)
}

/// Mines candidate equivalences from the random rounds `sim` holds and
/// discharges them in the order of [`candidate_pairs`].
///
/// A candidate whose fanins, read through the merges so far, are its
/// representative's is merged by structure: no SAT call, no clause, and its
/// cone is never loaded.  Any other pair gets two incremental queries on
/// the cones of the two nodes, each capped at [`PAIR_CONFLICTS`].  Each
/// query asserts the literal that sets an AND to 1 first, so that an
/// equivalence the merged fanins already imply fails that assumption by
/// propagation alone.  Proved pairs are merged in `enc`: nothing loaded
/// reads a candidate before its turn, and every fanout loaded after it reads
/// its representative.  Refuted pairs refine `sim`.
fn sweep(
    m: &Aig,
    sim: &mut Sim,
    solver: &mut Solver,
    enc: &mut Encoding,
    params: &CecParams,
    report: &mut CecReport,
) {
    let (pairs, classes) = candidate_pairs(sim);
    report.candidate_classes = classes;

    // The sweep may spend at most half the conflict budget; the final miter
    // query gets the rest.  Merges by structure cost nothing and go on after
    // that half is spent.
    let sweep_budget = params.conflict_budget / 2;
    let mut input_words = vec![0u64; m.num_inputs()];
    for (rep, cand) in pairs {
        let complemented = sim.phase(rep) != sim.phase(cand);
        if !complemented && same_fanins(m, enc, rep, cand) {
            enc.merge(cand, rep.lit());
            report.proved_pairs += 1;
            continue;
        }
        let Some(remaining) = sweep_budget
            .checked_sub(solver.num_conflicts())
            .filter(|&r| r > 0)
        else {
            continue;
        };
        // Refinement rounds from earlier counterexamples may have split the
        // pair since the classes were formed.
        if !sim.still_matches(rep, cand, complemented) {
            continue;
        }
        let budget = Some(remaining.min(PAIR_CONFLICTS));
        let lr = enc.lit(m, solver, rep.lit());
        let lc = enc.lit(m, solver, cand.lit().complement_if(complemented));
        report.sat_calls += 1;
        let forward = solver.solve(&[lr, !lc], budget);
        let backward = match forward {
            SolveResult::Unsat => {
                report.sat_calls += 1;
                solver.solve(&[lc, !lr], budget)
            }
            other => other,
        };
        match (forward, backward) {
            (SolveResult::Unsat, SolveResult::Unsat) => {
                enc.merge(cand, rep.lit().complement_if(complemented));
                report.proved_pairs += 1;
            }
            (SolveResult::Sat, _) | (_, SolveResult::Sat) => {
                report.disproved_pairs += 1;
                // Feed the distinguishing assignment back into the simulation
                // so related classes split too.
                for (word, &input) in input_words.iter_mut().zip(m.inputs()) {
                    *word = if enc.model_value(solver, input) {
                        !0
                    } else {
                        0
                    };
                }
                sim.round(m, &input_words);
            }
            _ => report.undecided_pairs += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elf_aig::miter;

    /// A ripple-carry adder over a carry input, each sum `(a ^ b) ^ c`.  Its
    /// lowest `majority` cells take the majority carry `ab | (a | b)c`, the
    /// others the generate/propagate carry `ab | (a ^ b)c`.
    fn adder(bits: usize, majority: usize) -> Aig {
        let mut aig = Aig::new();
        let a = aig.add_inputs(bits);
        let b = aig.add_inputs(bits);
        let mut carry = aig.add_inputs(1)[0];
        for i in 0..bits {
            let ab = aig.xor(a[i], b[i]);
            let sum = aig.xor(ab, carry);
            let gen = aig.and(a[i], b[i]);
            let either = if i < majority { aig.or(a[i], b[i]) } else { ab };
            let prop = aig.and(either, carry);
            carry = aig.or(gen, prop);
            aig.add_output(sum);
        }
        aig.add_output(carry);
        aig
    }

    fn empty_report() -> CecReport {
        CecReport {
            result: Equivalence::Undecided(0),
            miter_ands: 0,
            candidate_classes: 0,
            proved_pairs: 0,
            disproved_pairs: 0,
            undecided_pairs: 0,
            sat_calls: 0,
            conflicts: 0,
        }
    }

    #[test]
    fn cells_above_the_one_that_differs_are_merged_by_structure() {
        let params = CecParams::default();
        // Sweeps two `bits`-wide adders that differ in the lowest cell only;
        // returns the pairs proved by SAT outside the constant class (which
        // holds the miter's output comparisons) and those proved by
        // structure.
        let sweep_twins = |bits: usize| {
            let m = miter(&adder(bits, 0), &adder(bits, 1)).expect("same interfaces");
            let mut sim = Sim::new(&m);
            assert_eq!(sim.random_rounds(&m, m.outputs()[0]), None);
            let (pairs, _) = candidate_pairs(&sim);
            let mut solver = Solver::new();
            let mut enc = Encoding::new(&m, &mut solver);
            let mut report = empty_report();
            sweep(&m, &mut sim, &mut solver, &mut enc, &params, &mut report);
            assert_eq!((report.disproved_pairs, report.undecided_pairs), (0, 0));

            // A candidate is loaded only to be queried: a merged one that
            // never was is proved by structure.
            let merged: Vec<(NodeId, NodeId)> = pairs
                .into_iter()
                .filter(|&(_, cand)| enc.repr(cand.lit()) != cand.lit())
                .collect();
            assert_eq!(merged.len(), report.proved_pairs);
            let by_sat = merged.iter().filter(|p| enc.is_loaded(p.1)).count();
            let inner_by_sat = merged
                .iter()
                .filter(|p| enc.is_loaded(p.1) && p.0 != Lit::FALSE.node())
                .count();

            let full = solve_miter(&m, &params);
            assert_eq!(full.result, Equivalence::Proved);
            assert_eq!(full.proved_pairs, report.proved_pairs);
            assert!(
                full.sat_calls <= 2 * by_sat + 1,
                "{} SAT calls for {by_sat} pairs proved by SAT",
                full.sat_calls
            );
            (inner_by_sat, merged.len() - by_sat)
        };
        let (narrow, wide) = (sweep_twins(2), sweep_twins(8));
        // Six more cells need no more SAT proofs, and each merges its five
        // carry-dependent ANDs (the sum's three, the propagate, the carry)
        // by structure.
        assert_eq!(wide.0, narrow.0);
        assert_eq!(wide.1, narrow.1 + 5 * 6, "{narrow:?} -> {wide:?}");
    }

    #[test]
    fn candidates_come_in_topological_order_after_their_representatives() {
        let m = miter(&adder(6, 0), &adder(6, 6)).expect("same interfaces");
        let mut sim = Sim::new(&m);
        assert_eq!(
            sim.random_rounds(&m, m.outputs()[0]),
            None,
            "the adders are equivalent"
        );
        let (pairs, classes) = candidate_pairs(&sim);

        // Topological position per slot, the constant first.
        let const0 = Lit::FALSE.node();
        let nodes: Vec<NodeId> = std::iter::once(const0)
            .chain(sim.order.iter().copied())
            .collect();
        let mut position = vec![usize::MAX; m.num_slots()];
        for (i, id) in nodes.iter().enumerate() {
            position[id.as_usize()] = i;
        }
        for &(rep, cand) in &pairs {
            assert!(position[rep.as_usize()] < position[cand.as_usize()]);
        }
        for window in pairs.windows(2) {
            assert!(position[window[0].1.as_usize()] < position[window[1].1.as_usize()]);
        }

        // The oracle: group the nodes by canonical signature, the first
        // member of each group its representative.
        let mut groups: HashMap<Vec<u64>, Vec<NodeId>> = HashMap::new();
        for &id in &nodes {
            groups.entry(sim.canonical(id)).or_default().push(id);
        }
        let mut expected: Vec<(NodeId, NodeId)> = groups
            .values()
            .flat_map(|members| members[1..].iter().map(|&cand| (members[0], cand)))
            .collect();
        expected.sort_unstable();
        let mut got = pairs.clone();
        got.sort_unstable();
        assert_eq!(got, expected);
        assert_eq!(
            classes,
            groups.values().filter(|members| members.len() > 1).count()
        );

        // The miter has the constant class (its XORed output pairs) and
        // several classes of internal equivalences besides.
        assert!(pairs.iter().any(|&(rep, _)| rep == const0));
        assert!(classes >= 3, "only {classes} candidate classes");
    }
}
