//! `arith_rf`: one refactor pass over five arithmetic circuits with the cut
//! cache off in both arms.  Resynthesis (`elf-sop` ISOP and factoring) does
//! most of the work and the cache none, so pruning and SOP-kernel changes
//! show here and cache changes must not.

use elf_core::{CutCacheConfig, ElfClassifier, ElfConfig, ElfRefactor, Parallelism};
use elf_opt::{Refactor, RefactorParams};

use super::{plain_first, two_arm_trials, Ctx, Extra, Measured, Workload};
use crate::check::Ops;
use crate::inputs::{arithmetic_set, prepare, Prepared, Protocol};

/// The workload type.
#[derive(Debug)]
pub struct ArithRf;

/// The paper's pruned operator around `classifier`: sequential, cache off.
pub fn pruned_refactor(classifier: ElfClassifier) -> ElfRefactor {
    ElfRefactor::new(
        classifier,
        ElfConfig {
            refactor: RefactorParams::default(),
            parallelism: Parallelism::sequential(),
            cut_cache: CutCacheConfig::disabled(),
            ..ElfConfig::default()
        },
    )
}

impl Workload for ArithRf {
    const NAME: &'static str = "arith_rf";
    type State = Prepared;

    fn setup(ctx: &Ctx, _ops: &mut Ops) -> Prepared {
        let widths = ctx.sizes.arith_widths;
        prepare(|| arithmetic_set(&widths), Protocol::LeaveOneOut)
    }

    fn measure(ctx: &Ctx, prepared: &mut Prepared, ops: &mut Ops) -> Measured {
        // `Refactor::new` attaches a disabled cache; the pruned arm is told
        // the same through `ElfConfig::cut_cache`.
        let plain = Refactor::new(RefactorParams::default());
        let pruned: Vec<ElfRefactor> = prepared
            .circuits
            .iter()
            .map(|c| pruned_refactor(c.classifier.clone()))
            .collect();
        let mut prune = (0usize, 0usize);
        let arms = two_arm_trials(
            ctx,
            prepared,
            ops,
            |trial| {
                (0..pruned.len())
                    .flat_map(|c| {
                        let first = usize::from(!plain_first(ctx.seed, trial, c));
                        [(first, c), (1 - first, c)]
                    })
                    .collect()
            },
            |trial, arm, index, aig| {
                if arm == 0 {
                    plain.run(aig).runtime
                } else {
                    let stats = pruned[index].run(aig);
                    if trial == 0 {
                        prune.0 += stats.pruned;
                        prune.1 += stats.pruned + stats.kept;
                    }
                    stats.total_time
                }
            },
        );

        let recalls: Vec<f64> = prepared
            .circuits
            .iter()
            .filter_map(|c| c.shipped_recall)
            .collect();
        let (main, reference) = (arms.total_ms(1), arms.total_ms(0));
        Measured {
            main,
            reference,
            trials: arms.trials,
            extras: vec![
                Extra::measured("pruned_s", main.value / 1e3, "s"),
                Extra::measured("plain_s", reference.value / 1e3, "s"),
                Extra::exact("and_delta_pct", arms.worst_and_delta_pct(), "%"),
                Extra::exact(
                    "prune_rate",
                    prune.0 as f64 / prune.1.max(1) as f64,
                    "fraction",
                ),
                Extra::exact(
                    "shipped_recall",
                    recalls.iter().sum::<f64>() / recalls.len().max(1) as f64,
                    "fraction",
                ),
                Extra::measured("clock_gap", arms.clock_gap, "fraction"),
                Extra::exact("inputs_print", prepared.inputs_print(), "hash"),
            ],
            notes: vec![
                "arms: plain = Refactor::new(params).run, pruned = ElfRefactor::new(leave-one-out \
                 classifier at recall 0.90).run; cut cache DISABLED in both arms; sequential"
                    .into(),
            ],
        }
    }

    fn into_prepared(_ctx: &Ctx, state: Prepared) -> Prepared {
        state
    }
}
