//! The four workloads.  Each builds its inputs from the seed, measures two
//! times a user of it waits for, and checks every output it produced.

use std::time::{Duration, Instant};

use elf_aig::Aig;

use crate::check::{fingerprint, same_function, Ops};
use crate::inputs::{Prepared, Sizes};
use crate::stats::{sum_over_circuits, Reading};

pub mod arith_rf;
pub mod cec_verify;
pub mod flow_cached;
pub mod serve_open;

/// Workload names, in report order.  Later issues refer to them.
pub const NAMES: [&str; 4] = ["arith_rf", "flow_cached", "serve_open", "cec_verify"];

/// What a run was asked for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ctx {
    /// Seed of every generated input and of the trial order.
    pub seed: u64,
    /// How long to measure, in seconds.
    pub seconds: f64,
    /// Input sizes.
    pub sizes: Sizes,
    /// Fewest trials of a timed arm, whatever `seconds` says.
    pub min_trials: usize,
    /// How many times set-up runs; the fastest is `setup_s`.
    pub setups: usize,
}

impl Ctx {
    /// Whether trial number `done` (from 0) should still start.
    pub fn wants_trial(&self, done: usize, since: Instant) -> bool {
        done < self.min_trials || since.elapsed().as_secs_f64() < self.seconds
    }
}

/// A named value a workload reports besides the gated metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct Extra {
    /// Name; the names of ISSUE 11 where it defined one.
    pub name: &'static str,
    /// Reading.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Whether the same seed must reproduce it exactly.
    pub exact: bool,
}

impl Extra {
    /// A timing or other reading that varies from run to run.
    pub fn measured(name: &'static str, value: f64, unit: &'static str) -> Extra {
        Extra {
            name,
            value,
            unit,
            exact: false,
        }
    }

    /// A count or a ratio of counts.
    pub fn exact(name: &'static str, value: f64, unit: &'static str) -> Extra {
        Extra {
            name,
            value,
            unit,
            exact: true,
        }
    }
}

/// What the timed part of a workload found.
#[derive(Debug, Clone)]
pub struct Measured {
    /// `main_ms`.
    pub main: Reading,
    /// `ref_ms`.
    pub reference: Reading,
    /// Trials of each timed arm.
    pub trials: usize,
    /// Workload-specific readings.
    pub extras: Vec<Extra>,
    /// Statements about how the arms were run.
    pub notes: Vec<String>,
}

/// One workload.
pub trait Workload {
    /// Name, as the driver passes it.
    const NAME: &'static str;
    /// Everything set-up builds.
    type State;
    /// Builds the inputs from `ctx.seed`.  Runs several times per process;
    /// the fastest is `setup_s`.
    fn setup(ctx: &Ctx, ops: &mut Ops) -> Self::State;
    /// Measures for `ctx.seconds` and checks the outputs.
    fn measure(ctx: &Ctx, state: &mut Self::State, ops: &mut Ops) -> Measured;
    /// Gives up everything but the prepared circuits, stopping what runs.
    fn into_prepared(ctx: &Ctx, state: Self::State) -> Prepared;
}

/// Result of [`two_arm_trials`]: `[plain, pruned]` throughout.
#[derive(Debug, Clone)]
pub struct TwoArms {
    /// Seconds per `[arm][circuit][trial]`.
    pub seconds: [Vec<Vec<f64>>; 2],
    /// Reachable ANDs of each arm's output per circuit.
    pub ands: [Vec<usize>; 2],
    /// Trials run.
    pub trials: usize,
    /// Largest disagreement between the benchmark's clock and the time the
    /// program reported for the same call, as a share of the former.
    pub clock_gap: f64,
}

impl TwoArms {
    /// Sum over circuits of the circuit's fastest trial, in ms.
    pub fn total_ms(&self, arm: usize) -> Reading {
        Reading::fastest(sum_over_circuits(&self.seconds[arm]).scaled(1e3))
    }

    /// Worst per-circuit (pruned − plain) / plain AND count, in percent.
    pub fn worst_and_delta_pct(&self) -> f64 {
        self.ands[0]
            .iter()
            .zip(&self.ands[1])
            .map(|(&plain, &pruned)| (pruned as f64 - plain as f64) / plain.max(1) as f64 * 100.0)
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

/// Runs interleaved trials of a plain arm (0) and a pruned arm (1) over the
/// prepared circuits until the time is up.
///
/// `steps(trial)` lists the `(arm, circuit)` calls of one trial in order;
/// `run` makes one call on a fresh clone and returns the time the program
/// reported for it.  Outside the timed call, every output is compared with
/// the first trial's output of the same arm and circuit, node for node, and
/// the first is simulated against its input.
pub fn two_arm_trials(
    ctx: &Ctx,
    prepared: &Prepared,
    ops: &mut Ops,
    steps: impl Fn(usize) -> Vec<(usize, usize)>,
    mut run: impl FnMut(usize, usize, usize, &mut Aig) -> Duration,
) -> TwoArms {
    let count = prepared.circuits.len();
    let mut result = TwoArms {
        seconds: [vec![Vec::new(); count], vec![Vec::new(); count]],
        ands: [vec![0; count], vec![0; count]],
        trials: 0,
        clock_gap: 0.0,
    };
    let mut first: [Vec<Option<u64>>; 2] = [vec![None; count], vec![None; count]];
    let start = Instant::now();
    while ctx.wants_trial(result.trials, start) {
        for (arm, index) in steps(result.trials) {
            let circuit = &prepared.circuits[index];
            let mut aig = circuit.aig.clone();
            let clock = Instant::now();
            let reported = run(result.trials, arm, index, &mut aig);
            let elapsed = clock.elapsed().as_secs_f64();
            result.seconds[arm][index].push(elapsed);
            result.clock_gap = result
                .clock_gap
                .max((elapsed - reported.as_secs_f64()).abs() / elapsed);

            let print = fingerprint(&aig);
            let arm_name = ["plain", "pruned"][arm];
            ops.record(match first[arm][index] {
                Some(expected) if expected != print => Some(format!(
                    "{} {arm_name}: trial {} differs from trial 0",
                    circuit.name, result.trials
                )),
                Some(_) => None,
                None => {
                    first[arm][index] = Some(print);
                    result.ands[arm][index] = aig.num_reachable_ands();
                    (!same_function(&circuit.aig, &aig, ctx.seed))
                        .then(|| format!("{} {arm_name}: output not equivalent", circuit.name))
                }
            });
        }
        result.trials += 1;
    }
    result
}

/// Which arm goes first: alternates with the trial, the circuit and the seed.
pub fn plain_first(seed: u64, trial: usize, circuit: usize) -> bool {
    seed.wrapping_add((trial + circuit) as u64)
        .is_multiple_of(2)
}
