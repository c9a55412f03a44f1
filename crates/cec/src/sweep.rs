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
//!
//! # The simulation store
//!
//! The words live in one flat vector, a table of one word per node slot per
//! round, round after round: a round appends a table and fills it in the
//! miter's one topological order (the order `miter_ands` counts and the
//! sweep walks), reading fanins from the same table.  A node's signature is
//! its word in every table, each complemented when the node's first word has
//! bit 0 set, so a node and its complement share one signature.  Classes are
//! formed without a key per node: each signature is hashed in place with the
//! seeded [`WordState`] into an open-addressing table of representatives,
//! and a hash match is confirmed word by word before a node is paired.  The
//! representative is still the first node of its signature in topological
//! order, so the pairs, their order and the class count do not depend on the
//! hash or its seed.

use std::hash::{BuildHasher, Hasher};

use elf_aig::{Aig, Lit, NodeId, WordState};

use crate::cnf::Encoding;
use crate::solver::{SolveResult, Solver};
use crate::{CecParams, CecReport, Equivalence};

/// Decides a single-output miter: is its output satisfiable?
///
/// `Proved` means the output is constant false (the two original circuits
/// agree everywhere); `CounterExample` carries an input assignment on which
/// they disagree.
///
/// `order` is `m`'s topological order, computed once with the miter.
pub(crate) fn solve_miter(m: &Aig, order: &[NodeId], params: &CecParams) -> CecReport {
    let mut report = CecReport {
        result: Equivalence::Undecided(params.conflict_budget),
        miter_ands: order.len(),
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
    let mut sim = Sim::new(m, order);
    let witness = {
        let _span = elf_obs::span!("cec.simulate");
        sim.random_rounds(m, out)
    };
    if let Some(witness) = witness {
        report.result = Equivalence::CounterExample(witness);
        return report;
    }

    let mut solver = Solver::new();
    let mut enc = Encoding::new(m, &mut solver);
    {
        let _span = elf_obs::span!("cec.sweep");
        sweep(m, &mut sim, &mut solver, &mut enc, params, &mut report);
    }

    let _span = elf_obs::span!("cec.final");
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

/// One simulation state: a table of 64-pattern words per completed round
/// (see the module docs).
struct Sim<'a> {
    /// The miter's topological order: the evaluation order of a round.
    order: &'a [NodeId],
    /// Words per table: the miter's slot count.
    slots: usize,
    /// `words[round * slots + slot]`; the constant's slot and slots the order
    /// does not reach hold 0.
    words: Vec<u64>,
}

impl<'a> Sim<'a> {
    fn new(m: &Aig, order: &'a [NodeId]) -> Sim<'a> {
        let slots = m.num_slots();
        Sim {
            order,
            slots,
            words: Vec::with_capacity(SIM_ROUNDS * slots),
        }
    }

    /// Appends one simulation round driven by the given per-input words.
    fn round(&mut self, m: &Aig, input_words: &[u64]) {
        let start = self.words.len();
        self.words.resize(start + self.slots, 0);
        let table = &mut self.words[start..];
        for (input, &word) in m.inputs().iter().zip(input_words) {
            table[input.as_usize()] = word;
        }
        for &id in self.order {
            let (f0, f1) = m.fanins(id);
            table[id.as_usize()] = value(table, f0) & value(table, f1);
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
            let hits = value(&self.words[self.words.len() - self.slots..], out);
            if hits != 0 {
                let column = hits.trailing_zeros();
                return Some(input_words.iter().map(|w| w >> column & 1 == 1).collect());
            }
        }
        None
    }

    /// Whether the node's words are complemented in its signature.
    fn phase(&self, id: NodeId) -> bool {
        self.words[id.as_usize()] & 1 == 1
    }

    /// The node's signature: its word in every round, with the phase applied.
    fn signature(&self, id: NodeId) -> impl Iterator<Item = u64> + '_ {
        let flip = if self.phase(id) { !0 } else { 0 };
        let words = self.words[id.as_usize()..].iter().step_by(self.slots);
        words.map(move |&w| w ^ flip)
    }

    /// Whether `a` and `b` look equal up to complementation over every
    /// round, refinement rounds included.
    fn same_signature(&self, a: NodeId, b: NodeId) -> bool {
        self.signature(a).eq(self.signature(b))
    }
}

/// The word of `lit` in one round's table (complement applied).
fn value(table: &[u64], lit: Lit) -> u64 {
    let w = table[lit.node().as_usize()];
    if lit.is_complemented() {
        !w
    } else {
        w
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
/// node in topological order that has its signature.  The pairs come out in
/// the candidate's topological order, so by the time a candidate is queried
/// every proved equivalence in its fanin cone is already a clause.
/// Representatives sit in an open-addressing table by signature hash, with
/// linear probing; a hash match counts once the signatures agree word by
/// word.  The hash is seeded per process, so a circuit read from outside
/// cannot be built to make its signatures collide.
fn candidate_pairs(sim: &Sim) -> (Vec<(NodeId, NodeId)>, usize) {
    const EMPTY: u32 = u32::MAX;
    let state = WordState::default();
    let mask = (2 * (sim.order.len() + 1)).next_power_of_two() - 1;
    // Per bucket: the signature's hash, its representative's slot, and
    // whether it has a candidate yet.
    let mut buckets = vec![(0u64, EMPTY, false); mask + 1];
    let (mut pairs, mut classes) = (Vec::new(), 0);
    for id in std::iter::once(Lit::FALSE.node()).chain(sim.order.iter().copied()) {
        let mut hasher = state.build_hasher();
        sim.signature(id).for_each(|word| hasher.write_u64(word));
        let hash = hasher.finish();
        let mut at = hash as usize & mask;
        loop {
            let (bucket_hash, rep, paired) = &mut buckets[at];
            if *rep == EMPTY {
                (*bucket_hash, *rep) = (hash, id.index());
                break;
            }
            let rep = NodeId::new(*rep);
            if *bucket_hash == hash && sim.same_signature(rep, id) {
                classes += usize::from(!std::mem::replace(paired, true));
                pairs.push((rep, id));
                break;
            }
            at = (at + 1) & mask;
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
        if !sim.same_signature(rep, cand) {
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
    use std::collections::HashMap;

    use elf_aig::miter;
    use elf_circuits::{script_strategy, scripted_circuit};
    use elf_opt::{Refactor, Resubstitution, Rewrite};
    use proptest::prelude::*;

    /// The store the flat tables replaced, kept as their oracle: a `Vec` of
    /// words per node slot (unreachable slots stay empty), and classes keyed
    /// by each node's phase-normalised words in a `HashMap`.
    struct OracleSim {
        words: Vec<Vec<u64>>,
        order: Vec<NodeId>,
    }

    impl OracleSim {
        fn new(m: &Aig) -> OracleSim {
            OracleSim {
                words: vec![Vec::new(); m.num_slots()],
                order: m.topological_order(),
            }
        }

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

        fn eval_last(&self, lit: Lit) -> u64 {
            let words = &self.words[lit.node().as_usize()];
            let w = words[words.len() - 1];
            if lit.is_complemented() {
                !w
            } else {
                w
            }
        }

        fn canonical(&self, id: NodeId) -> Vec<u64> {
            let flip = self.words[id.as_usize()][0] & 1 == 1;
            self.words[id.as_usize()]
                .iter()
                .map(|&w| if flip { !w } else { w })
                .collect()
        }

        fn candidate_pairs(&self) -> (Vec<(NodeId, NodeId)>, usize) {
            let mut representative: HashMap<Vec<u64>, (NodeId, bool)> = HashMap::new();
            let (mut pairs, mut classes) = (Vec::new(), 0);
            for id in std::iter::once(Lit::FALSE.node()).chain(self.order.iter().copied()) {
                let (rep, paired) = representative
                    .entry(self.canonical(id))
                    .or_insert((id, false));
                if *rep != id {
                    classes += usize::from(!std::mem::replace(paired, true));
                    pairs.push((*rep, id));
                }
            }
            (pairs, classes)
        }
    }

    /// The flat store and the oracle hold the same words on the constant,
    /// the inputs and every node of the order, and form the same pairs and
    /// classes.
    fn assert_same_store(m: &Aig, sim: &Sim, oracle: &OracleSim) {
        assert_eq!(sim.order, &oracle.order[..]);
        let nodes = std::iter::once(Lit::FALSE.node())
            .chain(m.inputs().iter().copied())
            .chain(sim.order.iter().copied());
        for id in nodes {
            let words: Vec<u64> = sim.words[id.as_usize()..]
                .iter()
                .step_by(sim.slots)
                .copied()
                .collect();
            assert_eq!(words, oracle.words[id.as_usize()], "node {id:?}");
            assert_eq!(sim.signature(id).collect::<Vec<_>>(), oracle.canonical(id));
        }
        assert_eq!(candidate_pairs(sim), oracle.candidate_pairs());
    }

    /// Runs the random rounds and then one refinement round per pattern
    /// (bit `i` of a pattern is input `i`, as a counterexample feeds it back)
    /// on both stores, comparing them after each.
    fn assert_store_matches_oracle(m: &Aig, patterns: &[u32]) {
        let order = m.topological_order();
        let mut sim = Sim::new(m, &order);
        let mut oracle = OracleSim::new(m);
        let out = m.outputs()[0];
        assert_eq!(sim.random_rounds(m, out), oracle.random_rounds(m, out));
        assert_same_store(m, &sim, &oracle);
        for &pattern in patterns {
            let input_words: Vec<u64> = (0..m.num_inputs())
                .map(|i| if pattern >> (i % 32) & 1 == 1 { !0 } else { 0 })
                .collect();
            sim.round(m, &input_words);
            oracle.round(m, &input_words);
            assert_same_store(m, &sim, &oracle);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn the_flat_store_matches_the_per_node_oracle_on_scripted_miters(
            inputs in 6usize..=10,
            script in script_strategy(48),
            gate in 0usize..48,
            kind in 1u8..6,
            patterns in prop::collection::vec(any::<u32>(), 0..4),
        ) {
            let original = scripted_circuit(inputs, &script);
            // Equivalent: the circuit against its `rf; rw; rs` output.
            let mut optimized = original.clone();
            Refactor::default().run(&mut optimized);
            Rewrite::default().run(&mut optimized);
            Resubstitution.run(&mut optimized);
            let equivalent = miter(&original, &optimized).expect("same interfaces");
            assert_store_matches_oracle(&equivalent, &patterns);
            // Mutated: one gate of the script changes kind.
            let mut mutated = script.clone();
            let at = gate % mutated.len();
            mutated[at].0 = mutated[at].0.wrapping_add(kind);
            let mutated = scripted_circuit(inputs, &mutated);
            let mutant = miter(&original, &mutated).expect("same interfaces");
            assert_store_matches_oracle(&mutant, &patterns);
        }
    }

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
            let order = m.topological_order();
            let mut sim = Sim::new(&m, &order);
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

            let full = solve_miter(&m, &order, &params);
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
        let order = m.topological_order();
        let mut sim = Sim::new(&m, &order);
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
            groups
                .entry(sim.signature(id).collect())
                .or_default()
                .push(id);
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
