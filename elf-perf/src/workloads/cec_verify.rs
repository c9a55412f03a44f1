//! `cec_verify`: SAT equivalence checks of (input, optimized) pairs and of
//! an output-flipped mutant of each.  Only `elf-cec` and `elf_aig::miter`
//! run, so solver work shows here and nowhere else; the small conflict
//! budget makes "share decided" a count with headroom both ways.

use std::time::Instant;

use elf_aig::Aig;
use elf_cec::{check_equivalence_with, CecParams, CecReport, Equivalence};
use elf_circuits::{arithmetic_circuit, industrial_suite, Scale};
use elf_core::{CutCache, CutCacheConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::flow_cached::plain_flow;
use super::{Ctx, Extra, Measured, Workload};
use crate::check::{fingerprint, inputs_print, same_function, Ops};
use crate::inputs::{prepare, Prepared, Protocol};
use crate::stats::{sum_over_circuits, Reading};

/// The workload type.
#[derive(Debug)]
pub struct CecVerify;

/// An input circuit's two partners.
#[derive(Debug, Clone)]
pub struct Pair {
    /// The input after the plain flow: equivalent to the input.
    pub optimized: Aig,
    /// `optimized` with one output complemented: never equivalent.
    pub mutant: Aig,
}

/// The inputs: `Scale::Tiny` arithmetic circuits (all six in a measured
/// run) and ten seeded industrial-profile netlists.
pub fn circuits(ctx: &Ctx) -> Vec<(String, Aig)> {
    let arithmetic = ctx.sizes.cec_arith.iter();
    let mut circuits: Vec<(String, Aig)> = arithmetic
        .map(|name| (name.to_string(), arithmetic_circuit(name, Scale::Tiny)))
        .collect();
    circuits.extend(industrial_suite(ctx.sizes.cec_scale, ctx.seed));
    circuits
}

/// Builds every circuit's pair; an optimized circuit that random simulation
/// tells from its input is a failed operation.
pub fn build_pairs(circuits: &[(String, Aig)], seed: u64, ops: &mut Ops) -> Vec<Pair> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xCEC);
    let cache = CutCache::new(CutCacheConfig::default());
    circuits
        .iter()
        .map(|(name, aig)| {
            let mut optimized = aig.clone();
            plain_flow(&cache).run(&mut optimized);
            ops.record(
                (!same_function(aig, &optimized, seed))
                    .then(|| format!("{name}: flow output not equivalent")),
            );
            let mut mutant = optimized.clone();
            let flipped = rng.gen_range(0..mutant.num_outputs());
            let output = mutant.outputs()[flipped];
            mutant.set_output(flipped, !output);
            Pair { optimized, mutant }
        })
        .collect()
}

/// Checks `a` against `b` under the benchmark's conflict budget; returns
/// the report and the seconds it took.
pub fn timed_check(ctx: &Ctx, a: &Aig, b: &Aig) -> (CecReport, f64) {
    let params = CecParams {
        conflict_budget: ctx.sizes.cec_budget,
        ..CecParams::default()
    };
    let start = Instant::now();
    let report = check_equivalence_with(a, b, &params);
    (report, start.elapsed().as_secs_f64())
}

/// What is wrong with a verdict, given the known answer.
pub fn verdict_problem(
    name: &str,
    input: &Aig,
    other: &Aig,
    equivalent: bool,
    verdict: &Equivalence,
) -> Option<String> {
    match verdict {
        Equivalence::Undecided(_) => None,
        Equivalence::Proved if equivalent => None,
        Equivalence::Proved => Some(format!("{name}: mutant proved equivalent")),
        Equivalence::CounterExample(_) if equivalent => {
            Some(format!("{name}: counterexample for an equivalent pair"))
        }
        Equivalence::CounterExample(inputs) => (input.evaluate(inputs) == other.evaluate(inputs))
            .then(|| format!("{name}: counterexample does not replay")),
    }
}

impl Workload for CecVerify {
    const NAME: &'static str = "cec_verify";
    // No classifier: nothing here prunes.  The traced run trains one for its
    // layer probes.
    type State = (Vec<(String, Aig)>, Vec<Pair>);

    fn setup(ctx: &Ctx, ops: &mut Ops) -> Self::State {
        let circuits = circuits(ctx);
        let pairs = build_pairs(&circuits, ctx.seed, ops);
        (circuits, pairs)
    }

    fn measure(ctx: &Ctx, (circuits, pairs): &mut Self::State, ops: &mut Ops) -> Measured {
        let count = pairs.len();
        // seconds[kind][circuit][trial], kind 0 = equivalent pair, 1 = mutant.
        let mut seconds = [vec![Vec::new(); count], vec![Vec::new(); count]];
        let mut conflicts: [Vec<Option<u64>>; 2] = [vec![None; count], vec![None; count]];
        let (mut decided, mut sat_calls) = (0usize, 0usize);
        let mut trials = 0;
        let start = Instant::now();
        // A trial is about five seconds; two fit the run.
        let ctx = Ctx {
            min_trials: ctx.min_trials.min(2),
            ..*ctx
        };
        while ctx.wants_trial(trials, start) {
            for (index, ((name, aig), pair)) in circuits.iter().zip(pairs.iter()).enumerate() {
                for (kind, other) in [&pair.optimized, &pair.mutant].into_iter().enumerate() {
                    let (report, elapsed) = timed_check(&ctx, aig, other);
                    seconds[kind][index].push(elapsed);
                    let mut problem = verdict_problem(name, aig, other, kind == 0, &report.result);
                    match conflicts[kind][index] {
                        None => {
                            conflicts[kind][index] = Some(report.conflicts);
                            decided +=
                                usize::from(!matches!(report.result, Equivalence::Undecided(_)));
                            sat_calls += report.sat_calls;
                        }
                        Some(expected) if expected != report.conflicts => {
                            problem = problem.or_else(|| {
                                Some(format!("{name}: conflicts differ between trials"))
                            });
                        }
                        Some(_) => {}
                    }
                    ops.record(problem);
                }
            }
            trials += 1;
        }

        let main = Reading::fastest(sum_over_circuits(&seconds[0]).scaled(1e3));
        let reference = Reading::fastest(sum_over_circuits(&seconds[1]).scaled(1e3));
        let total_conflicts: u64 = conflicts.iter().flatten().map(|c| c.unwrap_or(0)).sum();
        Measured {
            main,
            reference,
            trials,
            extras: vec![
                Extra::measured("verify_s", (main.value + reference.value) / 1e3, "s"),
                Extra::exact(
                    "decided_frac",
                    decided as f64 / (2 * count) as f64,
                    "fraction",
                ),
                Extra::exact("conflicts", total_conflicts as f64, "count"),
                Extra::exact("sat_calls", sat_calls as f64, "count"),
                Extra::exact(
                    "inputs_print",
                    inputs_print(circuits.iter().map(|(_, aig)| fingerprint(aig))),
                    "hash",
                ),
            ],
            notes: vec![format!(
                "{count} pairs (Scale::Tiny arithmetic and ten industrial; input vs \
                 plain-flow output) and one output-flipped mutant each; conflict budget \
                 {}; main = pairs, ref = mutants",
                ctx.sizes.cec_budget
            )],
        }
    }

    fn into_prepared(ctx: &Ctx, state: Self::State) -> Prepared {
        drop(state);
        prepare(|| circuits(ctx), Protocol::Pooled)
    }
}
