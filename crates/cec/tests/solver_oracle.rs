//! The CDCL solver against exhaustive enumeration: random CNFs of at most
//! twelve variables, random assumptions, random conflict budgets.
//!
//! `Sat` must come with a model that satisfies every clause and every
//! assumption, `Unsat` must mean that no assignment does, `Unknown` is only
//! allowed when a budget was given — and the solver must answer a second,
//! unbudgeted query correctly afterwards (whatever the first one left in the
//! trail, the branching heap and the clause store).

use elf_cec::{SatLit, SolveResult, Solver, Var};
use proptest::collection::vec;
use proptest::prelude::*;

/// A literal before the solver exists: `(variable index, polarity)`; the
/// index is reduced modulo the instance's variable count.
type RawLit = (usize, bool);

fn raw_lits(len: std::ops::RangeInclusive<usize>) -> impl Strategy<Value = Vec<RawLit>> {
    vec((0usize..12, any::<bool>()), len)
}

/// A variable count and up to five short clauses per variable: the clause to
/// variable ratio straddles the 3-SAT threshold, so a fair share of the
/// instances needs conflicts, learnt clauses and backtracking to decide.
fn instance() -> impl Strategy<Value = (usize, Vec<Vec<RawLit>>)> {
    (1usize..=12).prop_flat_map(|n| (n..=n, vec(raw_lits(2..=3), 0..=5 * n)))
}

/// Whether `assignment` (bit `v` = value of variable `v`) makes `lit` true.
fn holds(assignment: u32, num_vars: usize, (var, positive): RawLit) -> bool {
    (assignment >> (var % num_vars) & 1 == 1) == positive
}

/// Whether `assignment` satisfies all clauses and assumptions.
fn satisfies(
    assignment: u32,
    num_vars: usize,
    clauses: &[Vec<RawLit>],
    assumptions: &[RawLit],
) -> bool {
    assumptions.iter().all(|&l| holds(assignment, num_vars, l))
        && clauses
            .iter()
            .all(|clause| clause.iter().any(|&l| holds(assignment, num_vars, l)))
}

/// Exhaustive oracle: does any assignment satisfy all clauses and assumptions?
fn satisfiable(num_vars: usize, clauses: &[Vec<RawLit>], assumptions: &[RawLit]) -> bool {
    (0..1u32 << num_vars).any(|a| satisfies(a, num_vars, clauses, assumptions))
}

/// Checks one answer of the solver against the oracle.
fn assert_answer_is_right(
    solver: &Solver,
    vars: &[Var],
    clauses: &[Vec<RawLit>],
    assumptions: &[RawLit],
    budget: Option<u64>,
    answer: SolveResult,
) {
    let expected = satisfiable(vars.len(), clauses, assumptions);
    match answer {
        SolveResult::Sat => {
            assert!(expected, "Sat on an unsatisfiable query");
            let model = vars
                .iter()
                .enumerate()
                .map(|(i, &v)| u32::from(solver.model_value(v)) << i)
                .sum();
            assert!(
                satisfies(model, vars.len(), clauses, assumptions),
                "the model breaks a clause or an assumption"
            );
        }
        SolveResult::Unsat => assert!(!expected, "Unsat on a satisfiable query"),
        SolveResult::Unknown => assert!(budget.is_some(), "Unknown without a budget"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn answers_match_exhaustive_enumeration(
        instance in instance(),
        first in raw_lits(0..=3),
        second in raw_lits(0..=3),
        budget in 0u64..8,
    ) {
        let (num_vars, clauses) = (instance.0, &instance.1);
        let mut solver = Solver::new();
        let vars: Vec<Var> = (0..num_vars).map(|_| solver.new_var()).collect();
        let lit = |(var, positive): RawLit| -> SatLit { vars[var % num_vars].lit(positive) };
        for clause in clauses {
            let lits: Vec<SatLit> = clause.iter().map(|&l| lit(l)).collect();
            solver.add_clause(&lits);
        }

        // Half the first queries run under a budget of 0..=3 conflicts.
        let budget = (budget < 4).then_some(budget);
        let assumed: Vec<SatLit> = first.iter().map(|&l| lit(l)).collect();
        let answer = solver.solve(&assumed, budget);
        assert_answer_is_right(&solver, &vars, clauses, &first, budget, answer);

        let assumed: Vec<SatLit> = second.iter().map(|&l| lit(l)).collect();
        let answer = solver.solve(&assumed, None);
        assert_answer_is_right(&solver, &vars, clauses, &second, None, answer);
    }
}
