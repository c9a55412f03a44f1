//! `flow_cached`: `rf; rw; rs` over ten seeded industrial-profile netlists
//! with one warm cut cache per arm.  The cache does the factoring, so
//! `elf-aig` cut/strash/MFFC work, rewrite and resub dominate and `elf-sop`
//! does little: a gain bought with the cache off that costs with it on shows
//! here.

use elf_circuits::industrial_suite;
use elf_core::{CutCache, CutCacheConfig, ElfClassifier, ElfOptions, Flow, Parallelism};

use super::{plain_first, two_arm_trials, Ctx, Extra, Measured, Workload};
use crate::check::Ops;
use crate::inputs::{permutation, prepare, Prepared, Protocol, SCRIPT};

/// Seed of the ten designs.  The suite is fixed and `--seed` orders it (and
/// with that the order in which the shared cache meets the designs): at
/// fixed recall the pruned flow's time follows each suite's own prune rate,
/// which moved `main_ms` 1190–1730 ms over ten seeded suites while `ref_ms`
/// stayed within 4 %.
pub const SUITE_SEED: u64 = 1;

/// The workload type.
#[derive(Debug)]
pub struct FlowCached;

/// The unpruned flow, sequential, on `cache`.
pub fn plain_flow(cache: &CutCache) -> Flow {
    Flow::from_script(SCRIPT)
        .expect("the benchmark's script parses")
        .with_parallelism(Parallelism::sequential())
        .with_cut_cache(cache.clone())
}

/// The flow with every stage pruned by `classifier`, sequential, on `cache`.
pub fn pruned_flow(classifier: &ElfClassifier, cache: &CutCache) -> Flow {
    let options = ElfOptions {
        parallelism: Parallelism::sequential(),
        ..ElfOptions::default()
    };
    Flow::pruned_from_script(SCRIPT, classifier, options)
        .expect("the benchmark's script parses")
        .with_cut_cache(cache.clone())
}

impl Workload for FlowCached {
    const NAME: &'static str = "flow_cached";
    type State = Prepared;

    fn setup(ctx: &Ctx, _ops: &mut Ops) -> Prepared {
        let order = permutation(10, ctx.seed);
        let suite = || {
            let suite = industrial_suite(ctx.sizes.flow_scale, SUITE_SEED);
            order.iter().map(|&design| suite[design].clone()).collect()
        };
        prepare(suite, Protocol::Pooled)
    }

    fn measure(ctx: &Ctx, prepared: &mut Prepared, ops: &mut Ops) -> Measured {
        let count = prepared.circuits.len();
        // One fresh, identically built cache per arm per trial, shared by
        // the ten designs in order.
        let fresh = || CutCache::new(CutCacheConfig::default());
        let mut caches = [fresh(), fresh()];
        let mut hit_rates = [0.0f64; 2];
        let classifiers: Vec<ElfClassifier> = prepared
            .circuits
            .iter()
            .map(|c| c.classifier.clone())
            .collect();
        let arms = two_arm_trials(
            ctx,
            prepared,
            ops,
            |trial| {
                let first = usize::from(!plain_first(ctx.seed, trial, 0));
                [first, 1 - first]
                    .into_iter()
                    .flat_map(|arm| (0..count).map(move |c| (arm, c)))
                    .collect()
            },
            |_, arm, index, aig| {
                // Every arm's steps start at the first design.
                if index == 0 {
                    caches[arm] = fresh();
                }
                let flow = if arm == 0 {
                    plain_flow(&caches[arm])
                } else {
                    pruned_flow(&classifiers[index], &caches[arm])
                };
                let runtime = flow.run(aig).runtime;
                if index + 1 == count {
                    hit_rates[arm] = caches[arm].stats().hit_rate();
                }
                runtime
            },
        );

        let (main, reference) = (arms.total_ms(1), arms.total_ms(0));
        Measured {
            main,
            reference,
            trials: arms.trials,
            extras: vec![
                Extra::measured("pruned_s", main.value / 1e3, "s"),
                Extra::measured("plain_s", reference.value / 1e3, "s"),
                Extra::exact("and_delta_pct", arms.worst_and_delta_pct(), "%"),
                Extra::exact("plain_cache_hit_rate", hit_rates[0], "fraction"),
                Extra::exact("pruned_cache_hit_rate", hit_rates[1], "fraction"),
                Extra::measured("clock_gap", arms.clock_gap, "fraction"),
                Extra::exact("inputs_print", prepared.inputs_print(), "hash"),
            ],
            notes: vec![format!(
                "arms: plain = Flow::from_script(\"{SCRIPT}\"), pruned = Flow::pruned_from_script \
                 (one classifier, recall 0.90 per design); cut cache ENABLED in both arms: a fresh \
                 CutCache::new(CutCacheConfig::default()) per arm per trial, shared by the designs \
                 in order; sequential"
            )],
        }
    }

    fn into_prepared(_ctx: &Ctx, state: Prepared) -> Prepared {
        state
    }
}
