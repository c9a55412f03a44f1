//! Script-style optimization pipelines: the [`Flow`] builder.
//!
//! ABC users compose operators with scripts like `rf; rw; rs` (`resyn2` is
//! such a pipeline).  [`Flow`] reproduces that composition surface over this
//! crate's operators — plain *and* classifier-pruned — and reports uniform
//! per-stage statistics ([`FlowStats`]) thanks to the shared
//! [`OpStats`] every [`elf_opt::PrunableOperator`] pass returns.
//!
//! Every stage has one shape: an operator (refactor, rewrite or resub,
//! built once when the stage is added) plus an optional classifier.  Without
//! one the stage runs the operator's plain pass; with one it runs the same
//! pruned pass as [`Elf::run`](crate::Elf::run), whose keep/prune decisions
//! all come from [`ElfClassifier::classify`].  The flow's one thread count
//! and its one shared cut cache, when attached, apply to every stage.
//!
//! # Examples
//!
//! ```
//! use elf_aig::Aig;
//! use elf_core::Flow;
//! use elf_opt::RefactorParams;
//!
//! let mut aig = Aig::new();
//! let inputs = aig.add_inputs(4);
//! let ab = aig.and(inputs[0], inputs[1]);
//! let cd = aig.and(inputs[2], inputs[3]);
//! let abcd = aig.and(ab, cd);
//! let f = aig.or(ab, abcd);
//! aig.add_output(f);
//!
//! let flow = Flow::new()
//!     .refactor(RefactorParams::default())
//!     .rewrite()
//!     .resub();
//! let stats = flow.run(&mut aig);
//! assert_eq!(stats.stages.len(), 3);
//! assert!(stats.ands_after <= stats.ands_before);
//!
//! // The same pipeline, ABC-script style:
//! let scripted = Flow::from_script("rf; rw; rs").unwrap();
//! assert_eq!(scripted.len(), 3);
//! ```

use std::error::Error;
use std::fmt;
use std::time::{Duration, Instant};

use elf_aig::Aig;
use elf_cec::Equivalence;
use elf_obs::metrics::Registry;
use elf_obs::names;
use elf_opt::{
    CutCache, OpStats, PrunableOperator, Refactor, RefactorParams, Resubstitution, Rewrite,
};
use elf_par::Parallelism;

use crate::classifier::ElfClassifier;
use crate::flow::{pruned_pass, ElfOptions, ElfStats};
use crate::verify::{VerifyCheck, VerifyMode, VerifyOutcome};

/// The operator of a [`Stage`], built once when the stage is added.
#[derive(Debug, Clone)]
enum Operator {
    Refactor(Refactor),
    Rewrite(Rewrite),
    Resub(Resubstitution),
}

impl Operator {
    fn set_cut_cache(&mut self, cache: &CutCache) {
        match self {
            Operator::Refactor(op) => op.set_cut_cache(cache.clone()),
            Operator::Rewrite(op) => op.set_cut_cache(cache.clone()),
            Operator::Resub(op) => op.set_cut_cache(cache.clone()),
        }
    }
}

/// One stage of a [`Flow`]: an operator, pruned when it carries a
/// classifier.
#[derive(Debug, Clone)]
struct Stage {
    operator: Operator,
    classifier: Option<ElfClassifier>,
}

impl Stage {
    fn name(&self) -> &'static str {
        let pruned = self.classifier.is_some();
        match (&self.operator, pruned) {
            (Operator::Refactor(_), false) => Refactor::NAME,
            (Operator::Rewrite(_), false) => Rewrite::NAME,
            (Operator::Resub(_), false) => Resubstitution::NAME,
            (Operator::Refactor(_), true) => "elf-refactor",
            (Operator::Rewrite(_), true) => "elf-rewrite",
            (Operator::Resub(_), true) => "elf-resub",
        }
    }

    /// Runs the stage: the plain pass, or the pruned pass when the stage
    /// carries a classifier.
    fn run(&self, aig: &mut Aig, parallelism: Parallelism) -> (OpStats, Option<ElfStats>) {
        match &self.operator {
            Operator::Refactor(op) => self.run_operator(op, aig, parallelism),
            Operator::Rewrite(op) => self.run_operator(op, aig, parallelism),
            Operator::Resub(op) => self.run_operator(op, aig, parallelism),
        }
    }

    fn run_operator<O: PrunableOperator>(
        &self,
        operator: &O,
        aig: &mut Aig,
        parallelism: Parallelism,
    ) -> (OpStats, Option<ElfStats>) {
        match &self.classifier {
            None => (operator.run(aig), None),
            Some(classifier) => {
                let stats = pruned_pass(operator, classifier, parallelism, aig);
                (stats.op, Some(stats))
            }
        }
    }
}

/// Statistics of one executed [`Flow`] stage.
#[derive(Debug, Clone)]
pub struct StageStats {
    /// Stage name (`"refactor"`, `"elf-rewrite"`, ...).
    pub name: &'static str,
    /// Core operator statistics of the stage.
    pub op: OpStats,
    /// Pruning-flow statistics when the stage was classifier-pruned.
    pub elf: Option<ElfStats>,
    /// Reachable AND count after the stage.
    pub ands_after: usize,
    /// Wall-clock time of the stage.
    pub runtime: Duration,
}

/// Statistics of a full [`Flow`] run.
#[derive(Debug, Clone, Default)]
pub struct FlowStats {
    /// Per-stage statistics, in execution order.
    pub stages: Vec<StageStats>,
    /// Reachable AND count before the first stage.
    pub ands_before: usize,
    /// Reachable AND count after the last stage.
    pub ands_after: usize,
    /// Total wall-clock time of the pipeline.
    pub runtime: Duration,
    /// Equivalence-check results when the flow ran with a
    /// [`VerifyMode`] other than `Off` (see [`Flow::with_verify`]).
    pub verify: Option<VerifyOutcome>,
}

impl FlowStats {
    /// Total node gain over all stages.
    pub fn total_gain(&self) -> i64 {
        self.ands_before as i64 - self.ands_after as i64
    }
}

/// Error returned when parsing a flow script fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFlowError {
    token: String,
}

impl ParseFlowError {
    /// The script token that failed to parse.
    pub fn token(&self) -> &str {
        &self.token
    }
}

impl fmt::Display for ParseFlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown flow operator `{}` (expected rf/refactor, rw/rewrite or rs/resub)",
            self.token
        )
    }
}

impl Error for ParseFlowError {}

/// A composable sequence of plain and classifier-pruned operators.
///
/// Build with the chaining methods ([`Flow::refactor`], [`Flow::elf_rewrite`],
/// ...) or parse an ABC-style script with [`Flow::from_script`], then execute
/// with [`Flow::run`].  Every stage is an operator plus an optional
/// classifier: a stage with one runs the pruned pass (sweep, one batched
/// [`ElfClassifier::classify`], resynthesis of the kept nodes), a stage
/// without one the plain pass.
#[derive(Debug, Clone, Default)]
pub struct Flow {
    stages: Vec<Stage>,
    /// Worker-thread count of the pruned stages' sweep (plain stages, the
    /// forward pass and graph mutation are sequential).
    parallelism: Parallelism,
    /// How much SAT-based equivalence checking the run performs.
    verify: VerifyMode,
    /// When set, every stage — pruned and plain — factors cut functions
    /// through this shared NPN-canonical cache instead of its own.
    cut_cache: Option<CutCache>,
    /// Registry every run records its counters and histograms into
    /// ([`Registry::global`] when unset — see [`Flow::with_metrics`]).
    metrics: Option<Registry>,
}

impl Flow {
    /// Creates an empty flow.
    pub fn new() -> Self {
        Flow::default()
    }

    /// Parses an ABC-style script of plain operators, e.g. `"rf; rw; rs"`.
    ///
    /// Recognized tokens (separated by `;`, `,` or whitespace):
    /// `rf`/`refactor`, `rw`/`rewrite`, `rs`/`resub`, each added with default
    /// parameters.  Empty segments (leading, trailing or doubled separators)
    /// are ignored, so `"rf;; rw;"` parses like `"rf; rw"`.  Classifier-pruned
    /// stages carry a trained model; build them with
    /// [`Flow::pruned_from_script`] or the `elf_*` builder methods.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseFlowError`] naming the first unknown token.
    pub fn from_script(script: &str) -> Result<Self, ParseFlowError> {
        let mut flow = Flow::new();
        for word in Self::script_words(script) {
            flow = match word {
                "rf" | "refactor" => flow.refactor(RefactorParams::default()),
                "rw" | "rewrite" => flow.rewrite(),
                "rs" | "resub" => flow.resub(),
                unknown => {
                    return Err(ParseFlowError {
                        token: unknown.to_string(),
                    })
                }
            };
        }
        Ok(flow)
    }

    /// Parses an ABC-style script into a fully classifier-pruned pipeline:
    /// every stage is the pruned counterpart of the plain operator, all of
    /// them sharing one trained classifier, `options.parallelism` and one
    /// cut cache sized by `options.cut_cache`.
    ///
    /// Building the pipeline is **weight-allocation-free**: each stage's
    /// classifier clone shares the trained weights behind the classifier's
    /// [`SharedMlp`](elf_nn::SharedMlp)/
    /// [`SharedNormalizer`](elf_nn::SharedNormalizer) handles, so a serving
    /// layer can afford to build a fresh `Flow` per submitted request.
    ///
    /// `Flow::pruned_from_script("rf; rw; rs", &clf, options)` is the pruned
    /// analogue of `Flow::from_script("rf; rw; rs")` — the composition the
    /// repeated-run determinism stress test hammers at full thread count.
    /// The flow verifies nothing until [`Flow::with_verify`] says so.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseFlowError`] naming the first unknown token.
    pub fn pruned_from_script(
        script: &str,
        classifier: &ElfClassifier,
        options: ElfOptions,
    ) -> Result<Self, ParseFlowError> {
        let mut flow = Flow::new()
            .with_parallelism(options.parallelism)
            .with_cut_cache(CutCache::new(options.cut_cache));
        for word in Self::script_words(script) {
            let classifier = classifier.clone();
            flow = match word {
                "rf" | "refactor" => flow.elf_refactor(RefactorParams::default(), classifier),
                "rw" | "rewrite" => flow.elf_rewrite(classifier),
                "rs" | "resub" => flow.elf_resub(classifier),
                unknown => {
                    return Err(ParseFlowError {
                        token: unknown.to_string(),
                    })
                }
            };
        }
        Ok(flow)
    }

    /// The words of an ABC-style script: separator and whitespace handling
    /// shared by [`Flow::from_script`] and [`Flow::pruned_from_script`].
    fn script_words(script: &str) -> impl Iterator<Item = &str> {
        script.split([';', ',']).flat_map(str::split_whitespace)
    }

    /// Sets the worker-thread count of the pruned stages' feature sweep;
    /// their forward pass runs on the calling thread, and plain stages
    /// mutate the graph sequentially and have no parallel phase.  Defaults
    /// to `ELF_THREADS`; results are identical for every count.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Selects how much SAT-based equivalence checking the run performs:
    /// [`VerifyMode::Final`] proves the end result against the input
    /// circuit, [`VerifyMode::PerStage`] additionally localizes any
    /// miscompile to the stage that introduced it.  Results land in
    /// [`FlowStats::verify`]; a refutation never panics.
    pub fn with_verify(mut self, verify: VerifyMode) -> Self {
        self.verify = verify;
        self
    }

    /// Shares one NPN-canonical cut-factoring cache across every stage of
    /// the flow — the stages already added and any added later, pruned and
    /// plain alike.  A serving layer passes a per-job view of its
    /// service-lifetime cache here so factoring work learned on one job
    /// speeds up the next.  Purely a performance knob: the produced AIG is
    /// node-for-node identical whatever cache (or none) is attached.
    pub fn with_cut_cache(mut self, cache: CutCache) -> Self {
        for stage in &mut self.stages {
            stage.operator.set_cut_cache(&cache);
        }
        self.cut_cache = Some(cache);
        self
    }

    /// The shared cut-factoring cache, when one was attached.
    pub fn cut_cache(&self) -> Option<&CutCache> {
        self.cut_cache.as_ref()
    }

    /// Directs every metric of this flow's runs — per-stage runtimes and
    /// commit/reject/prune counters, cut-cache hit deltas, SAT verify
    /// counters — into `registry` instead of the process-wide
    /// [`Registry::global`].  A serving layer passes its own registry here
    /// so `metrics_text()` reflects exactly its traffic; tests pass an
    /// isolated registry to assert exact values.  Purely observational:
    /// attaching a registry never changes the produced circuit.
    pub fn with_metrics(mut self, registry: Registry) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Appends a stage; a flow-shared cut cache, if any, is attached to it
    /// as to every other stage.
    fn push(mut self, operator: Operator, classifier: Option<ElfClassifier>) -> Self {
        self.stages.push(Stage {
            operator,
            classifier,
        });
        match self.cut_cache.take() {
            Some(cache) => self.with_cut_cache(cache),
            None => self,
        }
    }

    /// Appends a plain refactor stage.
    pub fn refactor(self, params: RefactorParams) -> Self {
        self.push(Operator::Refactor(Refactor::new(params)), None)
    }

    /// Appends a plain rewrite stage.
    pub fn rewrite(self) -> Self {
        self.push(Operator::Rewrite(Rewrite::new()), None)
    }

    /// Appends a plain resubstitution stage.
    pub fn resub(self) -> Self {
        self.push(Operator::Resub(Resubstitution::new()), None)
    }

    /// Appends a refactor stage pruned by `classifier`.
    pub fn elf_refactor(self, params: RefactorParams, classifier: ElfClassifier) -> Self {
        self.push(Operator::Refactor(Refactor::new(params)), Some(classifier))
    }

    /// Appends a rewrite stage pruned by `classifier`.
    pub fn elf_rewrite(self, classifier: ElfClassifier) -> Self {
        self.push(Operator::Rewrite(Rewrite::new()), Some(classifier))
    }

    /// Appends a resubstitution stage pruned by `classifier`.
    pub fn elf_resub(self, classifier: ElfClassifier) -> Self {
        self.push(Operator::Resub(Resubstitution::new()), Some(classifier))
    }

    /// Number of stages in the flow.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Returns `true` if the flow has no stages.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Stage names in execution order.
    pub fn stage_names(&self) -> Vec<&'static str> {
        self.stages.iter().map(Stage::name).collect()
    }

    /// Runs every stage in order over `aig`, returning per-stage statistics.
    pub fn run(&self, aig: &mut Aig) -> FlowStats {
        let start = Instant::now();
        let registry = self.metrics.clone().unwrap_or_else(Registry::global);
        let _flow_span = elf_obs::span!("flow", stages = self.stages.len());
        registry.counter(names::FLOW_RUNS).inc();
        let cache_counts_before = self.cut_cache.as_ref().map(cache_counts);
        let ands_before = aig.num_reachable_ands();
        let mut stages = Vec::with_capacity(self.stages.len());
        let flow_snapshot = (self.verify == VerifyMode::Final).then(|| aig.clone());
        let mut checks: Vec<VerifyCheck> = Vec::new();
        for stage in &self.stages {
            let stage_snapshot = (self.verify == VerifyMode::PerStage).then(|| aig.clone());
            let stage_span = elf_obs::span!(stage.name(), ands = aig.num_reachable_ands());
            let stage_start = Instant::now();
            let (op, elf) = stage.run(aig, self.parallelism);
            let runtime = stage_start.elapsed();
            drop(stage_span);
            op.record_into(&registry, stage.name());
            registry
                .histogram_with(names::STAGE_RUNTIME_US, &[("stage", stage.name())])
                .record_duration(runtime);
            stages.push(StageStats {
                name: stage.name(),
                op,
                elf,
                ands_after: aig.num_reachable_ands(),
                runtime,
            });
            if let Some(before) = stage_snapshot {
                checks.push(Self::check_stage(
                    Some(stage.name()),
                    &before,
                    aig,
                    &registry,
                ));
            }
        }
        if let Some(before) = flow_snapshot {
            checks.push(Self::check_stage(None, &before, aig, &registry));
        }
        // Per-run cut-cache deltas: this flow's handle shares view counters
        // with every stage it wired, so the difference is exactly the
        // lookups this run performed.
        if let (Some(cache), Some(before)) = (&self.cut_cache, cache_counts_before) {
            let names = [
                names::CUT_CACHE_HITS,
                names::CUT_CACHE_MISSES,
                names::CUT_CACHE_COMPLETIONS,
            ];
            for ((name, after), before) in names.into_iter().zip(cache_counts(cache)).zip(before) {
                registry.counter(name).add(after.saturating_sub(before));
            }
        }
        FlowStats {
            stages,
            ands_before,
            ands_after: aig.num_reachable_ands(),
            runtime: start.elapsed(),
            verify: self.verify.is_enabled().then_some(VerifyOutcome {
                mode: self.verify,
                checks,
            }),
        }
    }

    /// One SAT equivalence check of `after` against `before`, attributed to
    /// `stage` (`None` for the whole-flow check).  Conflict/budget counters
    /// land in `registry`; the check time in the `elf_verify_us` histogram.
    fn check_stage(
        stage: Option<&'static str>,
        before: &Aig,
        after: &Aig,
        registry: &Registry,
    ) -> VerifyCheck {
        let _span = elf_obs::span!("verify", ands = after.num_reachable_ands());
        let check_start = Instant::now();
        let report = elf_cec::check_equivalence_with(before, after, &elf_cec::CecParams::default());
        let runtime = check_start.elapsed();
        registry.counter(names::VERIFY_CHECKS).inc();
        registry.counter(names::SAT_CONFLICTS).add(report.conflicts);
        registry
            .counter(names::SAT_CALLS)
            .add(report.sat_calls as u64);
        // Both outcome counters exist (at 0) from the first check on, so a
        // scrape can tell "nothing refuted" from "nothing verified".
        let undecided = matches!(report.result, Equivalence::Undecided(_));
        let refuted = matches!(report.result, Equivalence::CounterExample(_));
        registry
            .counter(names::VERIFY_UNDECIDED)
            .add(u64::from(undecided));
        registry
            .counter(names::VERIFY_REFUTED)
            .add(u64::from(refuted));
        registry
            .histogram(names::VERIFY_US)
            .record_duration(runtime);
        VerifyCheck {
            stage,
            result: report.result,
            runtime,
            conflicts: report.conflicts,
        }
    }
}

/// The view counters of `cache` a run exports the deltas of: hits, misses
/// and completions.
fn cache_counts(cache: &CutCache) -> [u64; 3] {
    [
        cache.local_hits(),
        cache.local_misses(),
        cache.local_completions(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::ElfClassifier;
    use crate::flow::ElfOptions;
    use elf_aig::{check_equivalence, EquivalenceResult};
    use elf_nn::{Mlp, Normalizer};

    fn always_keep_classifier() -> ElfClassifier {
        let normalizer = Normalizer::from_stats(vec![2.0; 6], vec![1.0; 6]);
        ElfClassifier::from_parts(normalizer, Mlp::paper_architecture(5), 0.0)
    }

    fn redundant_circuit() -> Aig {
        let mut aig = Aig::new();
        let inputs = aig.add_inputs(6);
        let mut acc = inputs[5];
        for w in inputs.windows(3) {
            let t0 = aig.and(w[0], w[1]);
            let t1 = aig.and(w[0], w[2]);
            let or = aig.or(t0, t1);
            acc = aig.and(acc, or);
        }
        aig.add_output(acc);
        aig.cleanup();
        aig
    }

    /// A flow re-run on its warm cache finds every class stored as far as
    /// its counts read: the second run's deltas read hits only, no miss and
    /// no completion, while the first run exported all three.
    #[test]
    fn a_rerun_on_its_warm_cache_misses_and_completes_nothing() {
        use elf_circuits::epfl::{multiplier, Scale};
        use elf_opt::CutCacheConfig;

        let registry = Registry::new();
        let flow = Flow::from_script("rf; rw; rs")
            .unwrap()
            .with_cut_cache(CutCache::new(CutCacheConfig::default()))
            .with_metrics(registry.clone());
        let counts = || {
            let names = [
                names::CUT_CACHE_HITS,
                names::CUT_CACHE_MISSES,
                names::CUT_CACHE_COMPLETIONS,
            ];
            names.map(|name| registry.counter(name).get())
        };
        let source = multiplier(Scale::Tiny);
        flow.run(&mut source.clone());
        let [hits, misses, completions] = counts();
        assert!(hits > 0 && misses > 0 && completions > 0, "{:?}", counts());
        flow.run(&mut source.clone());
        let [warm_hits, warm_misses, warm_completions] = counts();
        assert!(warm_hits > hits);
        assert_eq!((warm_misses, warm_completions), (misses, completions));
    }

    #[test]
    fn script_parses_abc_aliases() {
        let flow = Flow::from_script("rf; rw; rs").unwrap();
        assert_eq!(flow.stage_names(), vec!["refactor", "rewrite", "resub"]);
        let flow = Flow::from_script("refactor rewrite, resub").unwrap();
        assert_eq!(flow.len(), 3);
        assert!(Flow::from_script("").unwrap().is_empty());
        let err = Flow::from_script("rf; balance").unwrap_err();
        assert!(err.to_string().contains("balance"));
    }

    #[test]
    fn script_rejects_unknown_tokens_with_the_offending_word() {
        // The error names exactly the first unknown token, not just "failed".
        let err = Flow::from_script("rf; balance; rw").unwrap_err();
        assert_eq!(err.token(), "balance");
        assert_eq!(
            err,
            Flow::from_script("balance").unwrap_err(),
            "same token must produce the same error value"
        );
        // Later valid tokens do not mask an earlier unknown one.
        let err = Flow::from_script("rw rfz").unwrap_err();
        assert_eq!(err.token(), "rfz");
        assert!(err.to_string().contains("rfz"));
        assert!(err.to_string().contains("expected rf/refactor"));
        // The pruned parser applies the identical token rules.
        let err =
            Flow::pruned_from_script("rf; dch", &always_keep_classifier(), ElfOptions::default())
                .unwrap_err();
        assert_eq!(err.token(), "dch");
    }

    #[test]
    fn script_tolerates_empty_segments_and_stray_separators() {
        // Empty script, whitespace-only script and separator-only scripts all
        // parse to an empty flow rather than erroring.
        assert!(Flow::from_script("").unwrap().is_empty());
        assert!(Flow::from_script("   \t  ").unwrap().is_empty());
        assert!(Flow::from_script(" ; , ; ").unwrap().is_empty());
        // Trailing and doubled separators are ignored.
        let flow = Flow::from_script("rf;; rw;").unwrap();
        assert_eq!(flow.stage_names(), vec!["refactor", "rewrite"]);
        let flow = Flow::from_script(";rf ,, rs").unwrap();
        assert_eq!(flow.stage_names(), vec!["refactor", "resub"]);
        // An empty flow still runs as a no-op.
        let mut aig = redundant_circuit();
        let before = aig.num_reachable_ands();
        let stats = Flow::from_script(";;").unwrap().run(&mut aig);
        assert!(stats.stages.is_empty());
        assert_eq!(aig.num_reachable_ands(), before);
    }

    #[test]
    fn pruned_script_builds_elf_stages() {
        let flow = Flow::pruned_from_script(
            "rf; rw; rs",
            &always_keep_classifier(),
            ElfOptions::default(),
        )
        .unwrap();
        assert_eq!(
            flow.stage_names(),
            vec!["elf-refactor", "elf-rewrite", "elf-resub"]
        );
        let mut aig = redundant_circuit();
        let golden = aig.clone();
        let stats = flow.run(&mut aig);
        assert_eq!(stats.stages.len(), 3);
        assert!(stats.stages.iter().all(|s| s.elf.is_some()));
        assert_eq!(
            check_equivalence(&golden, &aig, 8, 43),
            EquivalenceResult::Equivalent
        );
    }

    #[test]
    fn plain_pipeline_is_sound_and_monotone() {
        let mut aig = redundant_circuit();
        let golden = aig.clone();
        let stats = Flow::from_script("rf; rw; rs").unwrap().run(&mut aig);
        assert_eq!(stats.stages.len(), 3);
        assert!(stats.ands_after <= stats.ands_before);
        assert_eq!(
            stats.total_gain(),
            stats.ands_before as i64 - stats.ands_after as i64
        );
        for window in stats.stages.windows(2) {
            assert!(window[1].ands_after <= window[0].ands_after);
        }
        assert_eq!(
            check_equivalence(&golden, &aig, 8, 41),
            EquivalenceResult::Equivalent
        );
        assert!(aig.check_invariants().is_empty());
    }

    #[test]
    fn mixed_pipeline_runs_pruned_and_plain_stages() {
        let mut aig = redundant_circuit();
        let golden = aig.clone();
        let stats = Flow::new()
            .refactor(RefactorParams::default())
            .elf_rewrite(always_keep_classifier())
            .resub()
            .run(&mut aig);
        assert_eq!(
            stats.stages.iter().map(|s| s.name).collect::<Vec<_>>(),
            vec!["refactor", "elf-rewrite", "resub"]
        );
        let pruned_stage = &stats.stages[1];
        assert!(pruned_stage.elf.is_some());
        assert_eq!(pruned_stage.elf.as_ref().unwrap().pruned, 0);
        assert_eq!(
            check_equivalence(&golden, &aig, 8, 42),
            EquivalenceResult::Equivalent
        );
    }

    #[test]
    fn pruned_script_shares_weights_across_stages_without_copying() {
        use std::sync::Arc;
        let classifier = always_keep_classifier();
        let model = Arc::clone(classifier.model_handle());
        let before = Arc::strong_count(&model);
        // One pruned stage per script token, each holding a classifier clone:
        // the strong count grows by exactly the stage count, proving every
        // stage references the same weights instead of deep-cloning them.
        let flow =
            Flow::pruned_from_script("rf; rw; rs", &classifier, ElfOptions::default()).unwrap();
        assert_eq!(flow.len(), 3);
        assert_eq!(Arc::strong_count(&model), before + 3);
        // Running the flow allocates no further weight references...
        let mut aig = redundant_circuit();
        flow.run(&mut aig);
        assert_eq!(Arc::strong_count(&model), before + 3);
        // ...and dropping it releases exactly what it borrowed.
        drop(flow);
        assert_eq!(Arc::strong_count(&model), before);
    }

    #[test]
    fn final_verify_proves_a_full_pruned_flow() {
        let flow = Flow::pruned_from_script(
            "rf; rw; rs",
            &always_keep_classifier(),
            ElfOptions::default(),
        )
        .unwrap();
        let unchecked = flow.run(&mut redundant_circuit());
        assert!(unchecked.verify.is_none(), "parsing turns no check on");
        let flow = flow.with_verify(VerifyMode::Final);
        let mut aig = redundant_circuit();
        let stats = flow.run(&mut aig);
        let outcome = stats.verify.expect("verify was requested");
        assert_eq!(outcome.mode, VerifyMode::Final);
        assert_eq!(outcome.checks.len(), 1, "Final runs exactly one check");
        assert_eq!(outcome.checks[0].stage, None);
        assert!(outcome.proved());
        assert!(outcome.counterexample().is_none());
    }

    #[test]
    fn per_stage_verify_checks_every_stage() {
        let flow = Flow::pruned_from_script(
            "rf; rw; rs",
            &always_keep_classifier(),
            ElfOptions::default(),
        )
        .unwrap()
        .with_verify(VerifyMode::PerStage);
        let mut aig = redundant_circuit();
        let stats = flow.run(&mut aig);
        let outcome = stats.verify.expect("verify was requested");
        assert_eq!(outcome.checks.len(), 3, "one check per stage");
        assert_eq!(
            outcome.checks.iter().map(|c| c.stage).collect::<Vec<_>>(),
            vec![Some("elf-refactor"), Some("elf-rewrite"), Some("elf-resub")]
        );
        assert!(outcome.proved());
    }

    #[test]
    fn plain_flows_verify_through_the_builder() {
        let mut aig = redundant_circuit();
        let stats = Flow::from_script("rf; rw; rs")
            .unwrap()
            .with_verify(VerifyMode::PerStage)
            .run(&mut aig);
        let outcome = stats.verify.expect("verify was requested");
        assert_eq!(outcome.checks.len(), 3);
        assert!(outcome.proved());
        // Verification must not change the result.
        let mut unchecked = redundant_circuit();
        Flow::from_script("rf; rw; rs").unwrap().run(&mut unchecked);
        assert_eq!(
            check_equivalence(&unchecked, &aig, 8, 45),
            EquivalenceResult::Equivalent
        );
    }

    #[test]
    fn a_refuted_check_is_counted() {
        // No stage can be made to break a circuit from outside, so the gate
        // is handed a mutated output directly.
        let before = redundant_circuit();
        let mut after = before.clone();
        let out = after.outputs()[0];
        after.set_output(0, !out);
        let registry = Registry::new();
        let check = Flow::check_stage(None, &before, &after, &registry);
        assert!(check.result.counterexample().is_some());
        let counters = registry.snapshot().counters;
        assert_eq!(counters.get(names::VERIFY_CHECKS), Some(&1));
        assert_eq!(counters.get(names::VERIFY_REFUTED), Some(&1));
        assert_eq!(counters.get(names::VERIFY_UNDECIDED), Some(&0));
        // An output flip disagrees on every vector: simulation refutes it.
        assert_eq!(counters.get(names::SAT_CALLS), Some(&0));
    }

    #[test]
    fn verify_off_reports_nothing() {
        let mut aig = redundant_circuit();
        let stats = Flow::from_script("rf").unwrap().run(&mut aig);
        assert!(stats.verify.is_none());
    }

    #[test]
    fn empty_flow_is_a_no_op() {
        let mut aig = redundant_circuit();
        let before = aig.num_reachable_ands();
        let stats = Flow::new().run(&mut aig);
        assert!(stats.stages.is_empty());
        assert_eq!(stats.ands_before, before);
        assert_eq!(stats.ands_after, before);
        assert_eq!(stats.total_gain(), 0);
    }
}
