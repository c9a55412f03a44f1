//! # elf-cec
//!
//! SAT-based combinational equivalence checking for the ELF flow.
//!
//! Optimizing a circuit is only useful if the optimized circuit still
//! computes the same function.  This crate turns that property from an
//! assumption into a theorem: [`check_equivalence`] builds the
//! [`miter`] of two circuits with matched primary interfaces
//! and decides its satisfiability with a built-in CDCL SAT solver —
//! [`Equivalence::Proved`] is a proof of functional equality over *all*
//! `2^n` input vectors, and [`Equivalence::CounterExample`] carries a
//! concrete input assignment on which the circuits disagree.
//!
//! The pipeline is the classical fraig recipe:
//!
//! 1. **Miter** — both circuits are copied over shared primary inputs
//!    through the structural hash; output pairs are XORed and OR-reduced.
//!    Identical structure collapses on the spot (equivalence decided with
//!    no solver at all).
//! 2. **Simulation** — bit-parallel random simulation first looks at the
//!    miter output itself: a vector on which it is true is a counterexample,
//!    returned with no CNF built and no SAT call.  Otherwise the same words
//!    partition the miter's AND nodes into candidate-equivalence classes.
//! 3. **SAT sweep** — each candidate is paired with the first node of its
//!    class in topological order and the pairs are discharged in the
//!    candidate's topological order, so every merge in a candidate's fanin
//!    cone is known when it is reached.  A candidate whose fanins, read
//!    through those merges, are its representative's is merged by
//!    structure, with no SAT call.  Any other pair gets two small
//!    incremental queries, each capped at a few conflicts (a pair that needs
//!    more is left to the final query).  The CNF is loaded lazily: a query
//!    adds the clauses of the cones it asks about, encoded through the
//!    merges, and nothing else.  Proofs merge the candidate into its
//!    representative for every later fanout; refutations become new
//!    simulation patterns that split the classes.
//! 4. **Final query** — the miter output's cone is loaded through the
//!    merges and asked for satisfiability under the rest of the conflict
//!    budget; running out of budget yields the honest
//!    [`Equivalence::Undecided`].
//!
//! Under `ELF_TRACE`, a check's `cec` span holds one span per step:
//! `cec.miter` (construction and the topological order every later step
//! reads), `cec.simulate`, `cec.sweep` and `cec.final`.
//!
//! The solver is written from scratch in this crate (watched literals over
//! a flat clause arena, first-UIP learning, VSIDS from an indexed heap,
//! phase saving, Luby restarts) — no external dependencies.
//!
//! # Examples
//!
//! ```
//! use elf_aig::Aig;
//! use elf_cec::{check_equivalence, Equivalence};
//!
//! // f = a & (b | c)  versus  g = (a & b) | (a & c)
//! let mut f = Aig::new();
//! let ins = f.add_inputs(3);
//! let or = f.or(ins[1], ins[2]);
//! let root = f.and(ins[0], or);
//! f.add_output(root);
//!
//! let mut g = Aig::new();
//! let ins = g.add_inputs(3);
//! let ab = g.and(ins[0], ins[1]);
//! let ac = g.and(ins[0], ins[2]);
//! let root = g.or(ab, ac);
//! g.add_output(root);
//!
//! assert_eq!(check_equivalence(&f, &g), Equivalence::Proved);
//!
//! // Break g and the checker answers with a witness.
//! let mut broken = Aig::new();
//! let ins = broken.add_inputs(3);
//! let root = broken.and(ins[0], ins[1]);
//! broken.add_output(root);
//! match check_equivalence(&f, &broken) {
//!     Equivalence::CounterExample(inputs) => {
//!         assert_ne!(f.evaluate(&inputs), broken.evaluate(&inputs));
//!     }
//!     other => panic!("expected a counterexample, got {other:?}"),
//! }
//! ```

use elf_aig::{miter, Aig};

mod cnf;
mod solver;
mod sweep;

pub use solver::{SatLit, SolveResult, Solver, Var};

/// Outcome of an equivalence check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Equivalence {
    /// The circuits compute the same function on every input vector.
    Proved,
    /// The circuits disagree on this input assignment (one boolean per
    /// primary input, in input order).
    CounterExample(Vec<bool>),
    /// The conflict budget (carried here) ran out before a verdict.
    Undecided(u64),
}

impl Equivalence {
    /// `true` exactly for [`Equivalence::Proved`].
    pub fn is_proved(&self) -> bool {
        matches!(self, Equivalence::Proved)
    }

    /// The distinguishing input assignment, when one was found.
    pub fn counterexample(&self) -> Option<&[bool]> {
        match self {
            Equivalence::CounterExample(inputs) => Some(inputs),
            _ => None,
        }
    }
}

/// Tuning knobs of the equivalence checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CecParams {
    /// Total SAT conflict budget.  The sweep may spend at most half; the
    /// final miter query gets the rest.  When the budget runs out the check
    /// returns [`Equivalence::Undecided`] rather than stalling the flow.
    pub conflict_budget: u64,
}

impl Default for CecParams {
    fn default() -> Self {
        CecParams {
            conflict_budget: 100_000,
        }
    }
}

/// Everything a check learned, for benchmarking and telemetry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CecReport {
    /// The verdict.
    pub result: Equivalence,
    /// Output-reachable AND gates in the miter (after structural sharing).
    pub miter_ands: usize,
    /// Candidate-equivalence classes with at least two members.
    pub candidate_classes: usize,
    /// Candidate pairs proved equivalent during the sweep, by SAT or by
    /// structure (fanins already merged with the representative's, no SAT
    /// call).
    pub proved_pairs: usize,
    /// Candidate pairs refuted (their counterexamples refined the classes).
    pub disproved_pairs: usize,
    /// Candidate pairs abandoned at the per-pair conflict cap or when the
    /// sweep's half of the budget ran out (pairs the sweep never queried are
    /// not counted).
    pub undecided_pairs: usize,
    /// Individual SAT queries issued, including the final miter query.
    pub sat_calls: usize,
    /// SAT conflicts spent in total.
    pub conflicts: u64,
}

/// Checks two circuits for combinational equivalence with default
/// [`CecParams`].
///
/// The circuits must have the same number of primary inputs and outputs;
/// inputs and outputs are matched by position.
///
/// # Panics
///
/// Panics if the primary interfaces do not match (same contract as
/// [`elf_aig::check_equivalence`]).
pub fn check_equivalence(a: &Aig, b: &Aig) -> Equivalence {
    check_equivalence_with(a, b, &CecParams::default()).result
}

/// Checks two circuits for combinational equivalence and reports the full
/// solver statistics.
///
/// # Panics
///
/// Panics if the primary interfaces do not match.
pub fn check_equivalence_with(a: &Aig, b: &Aig, params: &CecParams) -> CecReport {
    let _span = elf_obs::span!(
        "cec",
        ands = a.num_reachable_ands() + b.num_reachable_ands()
    );
    let (m, order) = {
        let _span = elf_obs::span!("cec.miter");
        let m = match miter(a, b) {
            Ok(m) => m,
            Err(e) => panic!("cannot check equivalence: {e}"),
        };
        let order = m.topological_order();
        (m, order)
    };
    sweep::solve_miter(&m, &order, params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use elf_aig::Lit;

    fn adder(bits: usize) -> Aig {
        let mut aig = Aig::new();
        let a = aig.add_inputs(bits);
        let b = aig.add_inputs(bits);
        let mut carry = Lit::FALSE;
        for i in 0..bits {
            let axb = aig.xor(a[i], b[i]);
            let sum = aig.xor(axb, carry);
            let gen = aig.and(a[i], b[i]);
            let prop = aig.and(axb, carry);
            carry = aig.or(gen, prop);
            aig.add_output(sum);
        }
        aig.add_output(carry);
        aig
    }

    #[test]
    fn identical_adders_are_proved_structurally() {
        let a = adder(4);
        let report = check_equivalence_with(&a, &a, &CecParams::default());
        assert_eq!(report.result, Equivalence::Proved);
        // Structural hashing decides this before any SAT call.
        assert_eq!(report.sat_calls, 0);
    }

    #[test]
    fn de_morgan_twins_are_proved_by_sat() {
        // f = a & b & c, written two structurally different ways.
        let mut f = Aig::new();
        let ins = f.add_inputs(3);
        let t = f.and(ins[0], ins[1]);
        let root = f.and(t, ins[2]);
        f.add_output(root);

        let mut g = Aig::new();
        let ins = g.add_inputs(3);
        let t = g.or(!ins[1], !ins[2]);
        let root = g.and(ins[0], !t);
        g.add_output(root);

        let report = check_equivalence_with(&f, &g, &CecParams::default());
        assert_eq!(report.result, Equivalence::Proved);
        assert!(report.sat_calls > 0, "these are not structurally identical");
    }

    #[test]
    fn a_single_output_flip_is_refuted_with_a_replayable_witness() {
        let a = adder(3);
        let mut b = adder(3);
        let outs = b.outputs().to_vec();
        b.set_output(1, !outs[1]);

        match check_equivalence(&a, &b) {
            Equivalence::CounterExample(inputs) => {
                assert_eq!(inputs.len(), a.num_inputs());
                assert_ne!(a.evaluate(&inputs), b.evaluate(&inputs));
            }
            other => panic!("expected a counterexample, got {other:?}"),
        }
    }

    #[test]
    fn the_sweep_proves_commuted_adders() {
        let a = adder(4);
        // Same function, restructured: swap the input vectors (addition is
        // commutative, so a + b == b + a).
        let mut b = Aig::new();
        let x = b.add_inputs(4);
        let y = b.add_inputs(4);
        let mut carry = Lit::FALSE;
        for i in 0..4 {
            let yxx = b.xor(y[i], x[i]);
            let sum = b.xor(carry, yxx);
            let gen = b.and(y[i], x[i]);
            let prop = b.and(yxx, carry);
            carry = b.or(gen, prop);
            b.add_output(sum);
        }
        b.add_output(carry);

        let with_sweep = check_equivalence_with(&a, &b, &CecParams::default());
        assert_eq!(with_sweep.result, Equivalence::Proved);
    }

    #[test]
    fn a_starved_budget_reports_undecided() {
        let a = adder(6);
        let mut b = Aig::new();
        let x = b.add_inputs(6);
        let y = b.add_inputs(6);
        let mut carry = Lit::FALSE;
        for i in 0..6 {
            let yxx = b.xor(y[i], x[i]);
            let sum = b.xor(carry, yxx);
            let gen = b.and(y[i], x[i]);
            let prop = b.and(yxx, carry);
            carry = b.or(gen, prop);
            b.add_output(sum);
        }
        b.add_output(carry);

        let report = check_equivalence_with(&a, &b, &CecParams { conflict_budget: 1 });
        // With one conflict allowed the check either finishes trivially or
        // honestly declines — it never misreports.
        match report.result {
            Equivalence::Proved | Equivalence::Undecided(_) => {}
            Equivalence::CounterExample(_) => panic!("equivalent circuits refuted"),
        }
    }

    #[test]
    fn constant_circuits_with_no_inputs_are_handled() {
        let mut a = Aig::new();
        a.add_output(Lit::TRUE);
        let mut b = Aig::new();
        b.add_output(Lit::TRUE);
        assert_eq!(check_equivalence(&a, &b), Equivalence::Proved);

        let mut c = Aig::new();
        c.add_output(Lit::FALSE);
        match check_equivalence(&a, &c) {
            Equivalence::CounterExample(inputs) => assert!(inputs.is_empty()),
            other => panic!("expected a counterexample, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "cannot check equivalence")]
    fn mismatched_interfaces_panic() {
        let mut a = Aig::new();
        a.add_inputs(2);
        a.add_output(Lit::FALSE);
        let mut b = Aig::new();
        b.add_inputs(3);
        b.add_output(Lit::FALSE);
        let _ = check_equivalence(&a, &b);
    }
}
