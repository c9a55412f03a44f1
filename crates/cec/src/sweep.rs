//! Simulation-guided SAT sweeping of a miter.
//!
//! A raw miter query hands the solver one monolithic problem.  The
//! fraig-style sweep instead mines the miter for *internal* equivalences
//! first: bit-parallel random simulation partitions the AND nodes into
//! candidate-equivalence classes (nodes whose simulation words agree up to
//! complementation), and each candidate pair is discharged with two small
//! incremental SAT queries, in FRAIG order (Mishchenko et al., "FRAIGs: a
//! unifying representation for logic synthesis and verification", 2005):
//! candidates in topological order, each query under a small conflict cap.
//! Proved pairs become permanent binary clauses that effectively merge the
//! nodes for every later query; refuted pairs yield counterexample patterns
//! that are fed back into the simulation to split the classes further.  The
//! final miter query then runs on a CNF that is already riddled with
//! short-cuts.
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
    let mut sim = params.sweep.then(|| Sim::new(m));
    if let Some(sim) = &mut sim {
        if let Some(witness) = sim.random_rounds(m, params, out) {
            report.result = Equivalence::CounterExample(witness);
            return report;
        }
    }

    let mut solver = Solver::new();
    let enc = Encoding::encode(m, &mut solver);
    let start_conflicts = solver.num_conflicts();

    if let Some(sim) = &mut sim {
        sweep(
            m,
            sim,
            &mut solver,
            &enc,
            params,
            &mut report,
            start_conflicts,
        );
    }

    let spent = solver.num_conflicts() - start_conflicts;
    let final_budget = params.conflict_budget.saturating_sub(spent).max(1);
    report.sat_calls += 1;
    let result = solver.solve(&[enc.lit(out)], Some(final_budget));
    report.result = match result {
        SolveResult::Unsat => Equivalence::Proved,
        SolveResult::Sat => Equivalence::CounterExample(
            m.inputs()
                .iter()
                .map(|&input| solver.model_value(enc.var(input)))
                .collect(),
        ),
        SolveResult::Unknown => Equivalence::Undecided(params.conflict_budget),
    };
    report.conflicts = solver.num_conflicts() - start_conflicts;
    report
}

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

    /// Runs the `sim_rounds` random rounds.  A round on which `out` is true
    /// for some vector ends them: the column of the lowest such bit is
    /// returned as a counterexample.
    fn random_rounds(&mut self, m: &Aig, params: &CecParams, out: Lit) -> Option<Vec<bool>> {
        let mut rng = params.seed ^ 0x5EED_CEC5_EED0_CEC5;
        let mut input_words = vec![0u64; m.num_inputs()];
        for _ in 0..params.sim_rounds.max(1) {
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
/// already merged is a local question, so a small cap decides nearly every
/// pair and stops one hard pair from eating the sweep's whole half of the
/// budget.  On the `cec_verify` benchmark's sixteen equivalent pairs at 3 000
/// conflicts (seeds 9 and 11, 2-core x86-64), caps of 3 / 5 / 10 / 20 / 50 /
/// none took 87–88 / 123–126 / 93–96 / 120–125 / 189–191 / 228–230 ms, with
/// every pair proved; a cap of 1 starves the sweep (698–791 ms, 3–5 pairs
/// undecided).  10 spends the fewest conflicts and sits well clear of that
/// cliff.
const PAIR_CONFLICTS: u64 = 10;

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

/// Mines candidate equivalences from the random rounds `sim` holds and
/// discharges them with incremental SAT, in the order of
/// [`candidate_pairs`], each query capped at [`PAIR_CONFLICTS`].
fn sweep(
    m: &Aig,
    sim: &mut Sim,
    solver: &mut Solver,
    enc: &Encoding,
    params: &CecParams,
    report: &mut CecReport,
    start_conflicts: u64,
) {
    let (pairs, classes) = candidate_pairs(sim);
    report.candidate_classes = classes;

    // The sweep may spend at most half the conflict budget; the final miter
    // query gets the rest.
    let sweep_budget = params.conflict_budget / 2;
    let mut input_words = vec![0u64; m.num_inputs()];
    for (rep, cand) in pairs {
        let spent = solver.num_conflicts() - start_conflicts;
        let Some(remaining) = sweep_budget.checked_sub(spent).filter(|&r| r > 0) else {
            break;
        };
        let budget = Some(remaining.min(PAIR_CONFLICTS));
        let complemented = sim.phase(rep) != sim.phase(cand);
        // Refinement rounds from earlier counterexamples may have split the
        // pair since the classes were formed.
        if !sim.still_matches(rep, cand, complemented) {
            continue;
        }
        let lr = enc.var(rep).positive();
        let lc = if complemented {
            enc.var(cand).negative()
        } else {
            enc.var(cand).positive()
        };
        report.sat_calls += 2;
        let forward = solver.solve(&[lr, !lc], budget);
        let backward = match forward {
            SolveResult::Unsat => solver.solve(&[!lr, lc], budget),
            other => other,
        };
        match (forward, backward) {
            (SolveResult::Unsat, SolveResult::Unsat) => {
                // Proved: merge the nodes for all later queries.
                solver.add_clause(&[!lr, lc]);
                solver.add_clause(&[lr, !lc]);
                report.proved_pairs += 1;
            }
            (SolveResult::Sat, _) | (_, SolveResult::Sat) => {
                report.disproved_pairs += 1;
                // Feed the distinguishing assignment back into the simulation
                // so related classes split too.
                for (word, &input) in input_words.iter_mut().zip(m.inputs()) {
                    *word = if solver.model_value(enc.var(input)) {
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

    /// A ripple-carry adder; `majority` picks a structurally different full
    /// adder (`a ^ (b ^ c)` with a three-AND majority carry).
    fn adder(bits: usize, majority: bool) -> Aig {
        let mut aig = Aig::new();
        let a = aig.add_inputs(bits);
        let b = aig.add_inputs(bits);
        let mut carry = Lit::FALSE;
        for i in 0..bits {
            let (sum, next) = if majority {
                let bc = aig.xor(b[i], carry);
                let ab = aig.and(a[i], b[i]);
                let ac = aig.and(a[i], carry);
                let both = aig.and(b[i], carry);
                let either = aig.or(ab, ac);
                (aig.xor(a[i], bc), aig.or(either, both))
            } else {
                let ab = aig.xor(a[i], b[i]);
                let gen = aig.and(a[i], b[i]);
                let prop = aig.and(ab, carry);
                (aig.xor(ab, carry), aig.or(gen, prop))
            };
            carry = next;
            aig.add_output(sum);
        }
        aig.add_output(carry);
        aig
    }

    #[test]
    fn candidates_come_in_topological_order_after_their_representatives() {
        let m = miter(&adder(6, false), &adder(6, true)).expect("same interfaces");
        let mut sim = Sim::new(&m);
        assert_eq!(
            sim.random_rounds(&m, &CecParams::default(), m.outputs()[0]),
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
