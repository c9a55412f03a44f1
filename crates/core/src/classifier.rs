//! The ELF cut classifier: a mean–variance normalizer fused with the
//! 325-parameter MLP, evaluated on one big batch of cut features.

use std::error::Error;
use std::fmt;

use elf_aig::NUM_FEATURES;
use elf_nn::{
    model_from_text, model_to_text, train, ConfusionMatrix, Dataset, Mlp, Normalizer, SharedMlp,
    SharedNormalizer, TrainConfig, TrainReport,
};
use elf_par::Parallelism;

/// Error returned when deserializing a stored classifier fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseClassifierError {
    message: String,
}

impl ParseClassifierError {
    fn new(message: impl Into<String>) -> Self {
        ParseClassifierError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseClassifierError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid classifier text: {}", self.message)
    }
}

impl Error for ParseClassifierError {}

/// Default decision threshold on the classifier's output probability.
pub const DEFAULT_THRESHOLD: f32 = 0.5;

/// Training-set recall preserved by the post-training threshold calibration.
pub const RECALL_TARGET: f64 = 0.95;

/// The trained ELF classifier.
///
/// Conceptually this is the ONNX graph the paper deploys inside ABC: a
/// mean–variance-normalization node fused with the feed-forward network.
/// Classification is always performed on a whole batch of cuts at once (the
/// paper's key engineering optimization).
///
/// The trained weights live behind shared handles
/// ([`SharedMlp`]/[`SharedNormalizer`]): **cloning a classifier never copies
/// a weight matrix**, it bumps two reference counts.  That makes per-request
/// clones — e.g. [`crate::Flow::pruned_from_script`] building one pruned
/// stage per script token, or a serving layer pinning a model version per
/// job — allocation-free on the weight path, while `set_threshold` still
/// works per clone (the threshold is plain data next to the handles).
///
/// # Examples
///
/// ```
/// use elf_core::{ElfClassifier, Parallelism};
/// use elf_nn::Dataset;
///
/// let mut data = Dataset::new();
/// for i in 0..100 {
///     let x = i as f32;
///     data.push(vec![x, x, 10.0, 20.0, 1.0, 5.0], i % 10 == 0);
/// }
/// let (classifier, _report) = ElfClassifier::fit(&data, &Default::default(), 42);
/// let decisions = classifier.classify(
///     &[
///         [1.0, 1.0, 10.0, 20.0, 1.0, 5.0],
///         [9.0, 9.0, 10.0, 20.0, 1.0, 5.0],
///     ],
///     Parallelism::sequential(),
/// );
/// assert_eq!(decisions.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ElfClassifier {
    normalizer: SharedNormalizer,
    model: SharedMlp,
    threshold: f32,
}

impl ElfClassifier {
    /// Trains a classifier on a labelled feature dataset.
    ///
    /// The normalizer is fitted on the training data and fused with the
    /// model; `seed` controls weight initialization and data shuffling.
    ///
    /// After training, the decision threshold is calibrated to be
    /// recall-driven: it is set to the largest value that still classifies at
    /// least [`RECALL_TARGET`] of the training positives as positive
    /// (clamped to `[0.05, 0.5]`).  The paper stresses that recall directly
    /// bounds the area loss, so the operating point favours recall over
    /// pruning rate.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty or does not have six features.
    pub fn fit(data: &Dataset, config: &TrainConfig, seed: u64) -> (Self, TrainReport) {
        assert_eq!(
            data.num_features(),
            NUM_FEATURES,
            "the ELF classifier expects {NUM_FEATURES} features"
        );
        let normalizer = Normalizer::fit(data);
        let normalized = normalizer.transform(data);
        let mut model = Mlp::paper_architecture(seed);
        let report = train(&mut model, &normalized, config);
        let mut classifier = ElfClassifier {
            normalizer: normalizer.into_shared(),
            model: model.into_shared(),
            threshold: DEFAULT_THRESHOLD,
        };
        classifier.calibrate_threshold(data, RECALL_TARGET);
        (classifier, report)
    }

    /// Calibrates the decision threshold so that at least `recall_target` of
    /// the positive examples in `data` are classified as positive.
    ///
    /// The threshold is clamped to `[0.05, 0.5]`; if `data` has no positive
    /// examples, or the model is so diverged that the chosen quantile is not
    /// a finite probability, the threshold is left unchanged.
    pub fn calibrate_threshold(&mut self, data: &Dataset, recall_target: f64) {
        let mut positive_probs: Vec<f32> = Vec::new();
        let rows: Vec<Vec<f32>> = data
            .features()
            .iter()
            .map(|f| self.normalizer.transform_row(f))
            .collect();
        let probs = self.model.predict(&rows);
        for (p, &label) in probs.iter().zip(data.labels()) {
            if label >= 0.5 {
                positive_probs.push(*p);
            }
        }
        if positive_probs.is_empty() {
            return;
        }
        // `total_cmp` orders the finite sigmoid outputs as `partial_cmp`
        // would and gives the NaNs of a diverged model a place instead of a
        // panic.
        positive_probs.sort_by(f32::total_cmp);
        // Keep `recall_target` of positives: threshold at the (1 - target)
        // quantile of the positive probability distribution.
        let index = ((1.0 - recall_target) * positive_probs.len() as f64).floor() as usize;
        let quantile = positive_probs[index.min(positive_probs.len() - 1)];
        if quantile.is_finite() {
            self.threshold = quantile.clamp(0.05, DEFAULT_THRESHOLD);
        }
    }

    /// Creates a classifier from already-trained parts, freezing them into
    /// shared handles.  Several classifiers over one set of weights (e.g.
    /// different thresholds) are clones with [`ElfClassifier::set_threshold`].
    pub fn from_parts(normalizer: Normalizer, model: Mlp, threshold: f32) -> Self {
        ElfClassifier {
            normalizer: normalizer.into_shared(),
            model: model.into_shared(),
            threshold,
        }
    }

    /// The decision threshold.
    pub fn threshold(&self) -> f32 {
        self.threshold
    }

    /// Sets the decision threshold (lower thresholds favour recall over
    /// pruning rate).
    pub fn set_threshold(&mut self, threshold: f32) {
        self.threshold = threshold;
    }

    /// The underlying network.
    pub fn model(&self) -> &Mlp {
        self.model.as_ref()
    }

    /// The shared handle to the underlying network's weights.
    ///
    /// Two classifier clones always satisfy
    /// `Arc::ptr_eq(a.model_handle(), b.model_handle())`: cloning shares, it
    /// never copies.  Serving layers use the handle to *prove* the zero-copy
    /// property via `Arc::strong_count`.
    pub fn model_handle(&self) -> &SharedMlp {
        &self.model
    }

    /// The normalization half of the fused classifier: the feature batch as
    /// the model-ready rows a forward pass consumes.
    ///
    /// With `self_normalize` the batch is standardized with its *own*
    /// statistics (the paper's per-circuit normalization), falling back to
    /// the training statistics for batches of fewer than two rows exactly
    /// like [`ElfClassifier::predict_batch_self_normalized`].
    ///
    /// The first half of [`ElfClassifier::classify`]: a benchmark probing
    /// one layer at a time times it apart from the forward pass.
    pub fn normalized_rows(
        &self,
        features: &[[f32; NUM_FEATURES]],
        self_normalize: bool,
    ) -> Vec<Vec<f32>> {
        if !self_normalize || features.len() < 2 {
            return self.normalizer.transform_rows(features);
        }
        let dataset = Dataset::from_parts(
            features.iter().map(|f| f.to_vec()).collect(),
            vec![0.0; features.len()],
        );
        Normalizer::fit(&dataset).transform_rows(features)
    }

    /// Predicted probability that each cut will be successfully resynthesized,
    /// with the batch standardized with its *own* statistics: one sequential
    /// forward pass over [`ElfClassifier::normalized_rows`]`(features, true)`.
    ///
    /// The paper standardizes every dataset individually so the model
    /// generalizes to circuits whose feature ranges (levels, fanouts) differ
    /// from anything seen during training.
    ///
    /// Batches with fewer than two rows carry no usable self-statistics (the
    /// standard deviation of a single row is zero, which would normalize
    /// every feature to exactly 0 and make the decision independent of the
    /// cut), so they fall back to the training statistics.
    pub fn predict_batch_self_normalized(&self, features: &[[f32; NUM_FEATURES]]) -> Vec<f32> {
        if features.is_empty() {
            return Vec::new();
        }
        let rows = self.normalized_rows(features, true);
        self.model.predict_with(&rows, Parallelism::sequential())
    }

    /// The keep/prune decision for one circuit's batch of cut features:
    /// `true` means "attempt resynthesis".
    ///
    /// The batch is standardized with its own statistics
    /// ([`ElfClassifier::normalized_rows`]), run through the network
    /// (row-chunked across `parallelism`'s workers; bit-identical for every
    /// thread count) and thresholded.  This is the one decision function:
    /// every pruned pass and [`ElfClassifier::evaluate`] call it.
    pub fn classify(
        &self,
        features: &[[f32; NUM_FEATURES]],
        parallelism: Parallelism,
    ) -> Vec<bool> {
        let rows = self.normalized_rows(features, true);
        let probabilities = self.model.predict_with(&rows, parallelism);
        probabilities.iter().map(|p| *p >= self.threshold).collect()
    }

    /// Evaluates the classifier against ground-truth labels, returning the
    /// confusion matrix used by Tables VII and VIII.  The features are one
    /// circuit's batch, decided as a pruned pass decides them
    /// ([`ElfClassifier::classify`]).
    pub fn evaluate(&self, features: &[[f32; NUM_FEATURES]], labels: &[bool]) -> ConfusionMatrix {
        let predictions = self.classify(features, Parallelism::sequential());
        ConfusionMatrix::from_predictions(&predictions, labels)
    }

    /// Serializes the classifier (normalizer, model and threshold) to text.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("threshold {}\n", self.threshold));
        let mean: Vec<String> = self
            .normalizer
            .mean()
            .iter()
            .map(|v| format!("{v:e}"))
            .collect();
        let std: Vec<String> = self
            .normalizer
            .std()
            .iter()
            .map(|v| format!("{v:e}"))
            .collect();
        out.push_str(&format!("mean {}\n", mean.join(" ")));
        out.push_str(&format!("std {}\n", std.join(" ")));
        out.push_str(&model_to_text(&self.model));
        out
    }

    /// Deserializes a classifier from the text produced by [`ElfClassifier::to_text`].
    ///
    /// # Errors
    ///
    /// Returns a [`ParseClassifierError`] if any section is malformed, if
    /// `mean` or `std` does not hold one value per feature, or if the
    /// network's layers do not chain from the six features to one output.
    pub fn from_text(text: &str) -> Result<Self, ParseClassifierError> {
        let mut lines = text.lines();
        let parse_err = ParseClassifierError::new;
        let threshold_line = lines.next().ok_or_else(|| parse_err("missing threshold"))?;
        let threshold: f32 = threshold_line
            .strip_prefix("threshold ")
            .and_then(|s| s.trim().parse().ok())
            .ok_or_else(|| parse_err("bad threshold line"))?;
        let parse_vec = |line: &str, prefix: &str| -> Result<Vec<f32>, ParseClassifierError> {
            line.strip_prefix(prefix)
                .ok_or_else(|| parse_err("missing normalizer line"))?
                .split_whitespace()
                .map(|s| s.parse().map_err(|_| parse_err("bad normalizer value")))
                .collect()
        };
        let mean = parse_vec(
            lines.next().ok_or_else(|| parse_err("missing mean"))?,
            "mean ",
        )?;
        let std = parse_vec(
            lines.next().ok_or_else(|| parse_err("missing std"))?,
            "std ",
        )?;
        if mean.len() != NUM_FEATURES || std.len() != NUM_FEATURES {
            return Err(parse_err("mean and std must hold one value per feature"));
        }
        let rest: Vec<&str> = lines.collect();
        let model = model_from_text(&rest.join("\n"))
            .map_err(|e| ParseClassifierError::new(format!("model section: {e}")))?;
        let outputs = model
            .layers()
            .iter()
            .try_fold(NUM_FEATURES, |width, layer| {
                (layer.inputs() == width).then_some(layer.outputs())
            });
        if outputs != Some(1) {
            return Err(parse_err(
                "model layers must chain from the features to one output",
            ));
        }
        Ok(ElfClassifier {
            normalizer: Normalizer::from_stats(mean, std).into_shared(),
            model: model.into_shared(),
            threshold,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic_dataset(n: usize) -> Dataset {
        let mut data = Dataset::new();
        for i in 0..n {
            // Positives: low cut fanout, several reconvergent nodes.
            let positive = i % 7 == 0;
            let features = if positive {
                vec![1.0, 5.0, 2.0, 12.0, 4.0, 6.0]
            } else {
                vec![3.0 + (i % 5) as f32, 20.0, 15.0, 8.0, 0.0, 8.0]
            };
            data.push(features, positive);
        }
        data
    }

    /// Keep/prune decisions for one circuit's batch, the way a pruned pass
    /// decides them.
    fn classify(classifier: &ElfClassifier, features: &[[f32; NUM_FEATURES]]) -> Vec<bool> {
        classifier.classify(features, Parallelism::sequential())
    }

    /// Probabilities under the training statistics: what a batch of fewer
    /// than two rows falls back to.
    fn predict_trained(classifier: &ElfClassifier, features: &[[f32; NUM_FEATURES]]) -> Vec<f32> {
        classifier
            .model()
            .predict(&classifier.normalized_rows(features, false))
    }

    fn quick_config() -> TrainConfig {
        TrainConfig {
            epochs: 10,
            learning_rate: 0.05,
            ..Default::default()
        }
    }

    #[test]
    fn fit_and_classify_separable_data() {
        let data = synthetic_dataset(400);
        let (classifier, report) = ElfClassifier::fit(&data, &quick_config(), 3);
        assert!(report.validation_metrics.recall() > 0.8);
        let positives = classify(&classifier, &[[1.0, 5.0, 2.0, 12.0, 4.0, 6.0]]);
        let negatives = classify(&classifier, &[[5.0, 20.0, 15.0, 8.0, 0.0, 8.0]]);
        assert!(positives[0]);
        assert!(!negatives[0]);
    }

    #[test]
    fn calibration_survives_a_diverged_model() {
        // Training that diverged leaves NaN weights behind, so every
        // probability is NaN: calibration must not panic and must leave the
        // threshold where it was.
        let diverged = Mlp::from_layers(vec![elf_nn::Dense::from_parts(
            elf_nn::Matrix::from_vec(NUM_FEATURES, 1, vec![f32::NAN; NUM_FEATURES]),
            vec![0.0],
            elf_nn::Activation::Sigmoid,
        )]);
        let data = synthetic_dataset(50);
        let normalizer = Normalizer::fit(&data);
        let mut classifier = ElfClassifier::from_parts(normalizer, diverged, 0.3);
        classifier.calibrate_threshold(&data, RECALL_TARGET);
        assert_eq!(classifier.threshold(), 0.3);
    }

    #[test]
    fn threshold_zero_keeps_everything() {
        let data = synthetic_dataset(200);
        let (mut classifier, _) = ElfClassifier::fit(&data, &quick_config(), 5);
        classifier.set_threshold(0.0);
        let decisions = classify(
            &classifier,
            &[
                [1.0, 5.0, 2.0, 12.0, 4.0, 6.0],
                [9.0, 20.0, 15.0, 8.0, 0.0, 8.0],
            ],
        );
        assert!(decisions.iter().all(|&d| d));
        assert_eq!(classifier.threshold(), 0.0);
    }

    #[test]
    fn evaluation_produces_confusion_matrix() {
        let data = synthetic_dataset(300);
        let (classifier, _) = ElfClassifier::fit(&data, &quick_config(), 7);
        let features: Vec<[f32; 6]> = data
            .features()
            .iter()
            .map(|f| [f[0], f[1], f[2], f[3], f[4], f[5]])
            .collect();
        let labels: Vec<bool> = data.labels().iter().map(|&l| l >= 0.5).collect();
        let cm = classifier.evaluate(&features, &labels);
        assert_eq!(cm.total(), data.len());
        assert!(cm.recall() > 0.8);
        assert!(cm.accuracy() > 0.8);
    }

    #[test]
    fn serialization_round_trip() {
        let data = synthetic_dataset(150);
        let (classifier, _) = ElfClassifier::fit(&data, &quick_config(), 9);
        let text = classifier.to_text();
        let restored = ElfClassifier::from_text(&text).expect("round trip");
        let sample = [[2.0f32, 7.0, 3.0, 11.0, 2.0, 5.0]];
        assert_eq!(
            classifier.predict_batch_self_normalized(&sample)[0].to_bits(),
            restored.predict_batch_self_normalized(&sample)[0].to_bits()
        );
    }

    #[test]
    fn malformed_text_is_an_error_not_a_panic() {
        let data = synthetic_dataset(100);
        let (classifier, _) = ElfClassifier::fit(&data, &quick_config(), 19);
        let text = classifier.to_text();
        let lines: Vec<&str> = text.lines().collect();
        let with = |index: usize, line: &str| {
            let mut lines = lines.clone();
            lines[index] = line;
            lines.join("\n")
        };
        let layer = |inputs: usize, outputs: usize| {
            format!(
                "layer {inputs} {outputs} sigmoid\n{}\n{}",
                vec!["0"; inputs * outputs].join(" "),
                vec!["0"; outputs].join(" ")
            )
        };
        let header = "threshold 0.5\nmean 0 0 0 0 0 0\nstd 1 1 1 1 1 1";
        let cases = [
            // `mean` and `std` of different lengths.
            with(1, "mean 0 0 0 0 0"),
            // Both of the same wrong length.
            with(1, "mean 0 0 0 0 0 0 0").replace("std ", "std 1 "),
            // A layer count no allocation can hold.
            format!("{header}\nmlp 18446744073709551615"),
            // A weight count that overflows.
            format!("{header}\nmlp 1\nlayer 4294967296 4294967297 relu\n\n0"),
            // Layers that do not start at the feature count...
            format!("{header}\nmlp 1\n{}", layer(5, 1)),
            // ...do not chain...
            format!("{header}\nmlp 2\n{}\n{}", layer(6, 3), layer(2, 1)),
            // ...or do not end in one output.
            format!("{header}\nmlp 1\n{}", layer(6, 2)),
            format!("{header}\nmlp 0"),
        ];
        for case in &cases {
            assert!(ElfClassifier::from_text(case).is_err(), "accepted:\n{case}");
        }
        let chained = format!("{header}\nmlp 2\n{}\n{}", layer(6, 3), layer(3, 1));
        let parsed = ElfClassifier::from_text(&chained).expect("a chained model parses");
        assert_eq!(
            parsed
                .classify(&[[1.0; 6], [2.0; 6]], Parallelism::sequential())
                .len(),
            2
        );
    }

    #[test]
    fn empty_batch_is_handled() {
        let data = synthetic_dataset(100);
        let (classifier, _) = ElfClassifier::fit(&data, &quick_config(), 11);
        assert!(classifier.normalized_rows(&[], true).is_empty());
        assert!(classifier.predict_batch_self_normalized(&[]).is_empty());
        assert!(classify(&classifier, &[]).is_empty());
    }

    #[test]
    fn single_row_self_normalization_falls_back_to_training_stats() {
        // The std-dev of a one-row batch is zero: self-statistics would
        // normalize every feature to exactly 0, making the decision
        // independent of the cut.  The fallback must instead produce the
        // training-normalized probability — finite, and feature-dependent.
        let data = synthetic_dataset(200);
        let (classifier, _) = ElfClassifier::fit(&data, &quick_config(), 13);
        let positive = [[1.0f32, 5.0, 2.0, 12.0, 4.0, 6.0]];
        let negative = [[5.0f32, 20.0, 15.0, 8.0, 0.0, 8.0]];
        for row in [positive, negative] {
            let probs = classifier.predict_batch_self_normalized(&row);
            assert_eq!(probs.len(), 1);
            assert!(probs[0].is_finite(), "one-row batch produced {}", probs[0]);
            assert_eq!(
                probs[0].to_bits(),
                predict_trained(&classifier, &row)[0].to_bits()
            );
            assert_eq!(classify(&classifier, &row).len(), 1);
        }
        // Distinct cuts must be able to get distinct probabilities again.
        let p_pos = classifier.predict_batch_self_normalized(&positive)[0];
        let p_neg = classifier.predict_batch_self_normalized(&negative)[0];
        assert_ne!(p_pos.to_bits(), p_neg.to_bits());
    }

    #[test]
    fn normalized_rows_plus_decide_equals_the_self_normalized_path() {
        // The split seam (normalize here, forward pass elsewhere, threshold
        // here) must be bit-identical to the kept fused entry point, and a
        // batch of fewer than two rows must take the training statistics.
        let data = synthetic_dataset(250);
        let (classifier, _) = ElfClassifier::fit(&data, &quick_config(), 17);
        let batches: Vec<Vec<[f32; 6]>> = vec![
            vec![],
            vec![[1.0, 5.0, 2.0, 12.0, 4.0, 6.0]],
            (0..37)
                .map(|i| {
                    let x = i as f32;
                    [x % 7.0, x % 19.0, x % 13.0, 8.0 + x % 3.0, x % 5.0, 6.0]
                })
                .collect(),
        ];
        for features in &batches {
            let rows = classifier.normalized_rows(features, true);
            if features.len() < 2 {
                assert_eq!(rows, classifier.normalized_rows(features, false));
            }
            let probs = classifier.model().predict(&rows);
            let fused = classifier.predict_batch_self_normalized(features);
            assert_eq!(
                probs.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
                fused.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
                "rows={}",
                features.len()
            );
            let decided: Vec<bool> = probs.iter().map(|p| *p >= classifier.threshold()).collect();
            assert_eq!(decided, classify(&classifier, features));
        }
    }

    #[test]
    fn cloning_shares_weights_instead_of_copying_them() {
        use std::sync::Arc;
        let data = synthetic_dataset(120);
        let (classifier, _) = ElfClassifier::fit(&data, &quick_config(), 21);
        let model = Arc::clone(classifier.model_handle());
        let before = Arc::strong_count(&model);
        let clones: Vec<ElfClassifier> = (0..5).map(|_| classifier.clone()).collect();
        // Five clones are five new strong references to the *same* weights —
        // not five weight copies.
        assert_eq!(Arc::strong_count(&model), before + 5);
        for clone in &clones {
            assert!(Arc::ptr_eq(clone.model_handle(), &model));
            assert!(Arc::ptr_eq(&clone.normalizer, &classifier.normalizer));
        }
        drop(clones);
        assert_eq!(Arc::strong_count(&model), before);
        // A different threshold over the same weights still shares them.
        let mut tuned = classifier.clone();
        tuned.set_threshold(0.2);
        assert!(Arc::ptr_eq(tuned.model_handle(), classifier.model_handle()));
        assert_eq!(tuned.threshold(), 0.2);
        assert_eq!(
            predict_trained(&tuned, &[[1.0, 5.0, 2.0, 12.0, 4.0, 6.0]])[0].to_bits(),
            predict_trained(&classifier, &[[1.0, 5.0, 2.0, 12.0, 4.0, 6.0]])[0].to_bits()
        );
    }

    #[test]
    fn parallel_classification_matches_sequential() {
        // A pruned pass row-chunks the forward pass over the self-normalized
        // rows; every thread count must reproduce the sequential decision.
        let data = synthetic_dataset(300);
        let (classifier, _) = ElfClassifier::fit(&data, &quick_config(), 15);
        let features: Vec<[f32; 6]> = (0..97)
            .map(|i| {
                let x = i as f32;
                [x % 9.0, x % 21.0, x % 16.0, 8.0 + x % 5.0, x % 4.0, 6.0]
            })
            .collect();
        let sequential = classifier.predict_batch_self_normalized(&features);
        let rows = classifier.normalized_rows(&features, true);
        for threads in [1, 2, 3, 7] {
            let probs = classifier
                .model()
                .predict_with(&rows, Parallelism::threads(threads));
            assert_eq!(
                probs.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
                sequential.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
                "threads={threads}"
            );
        }
    }
}
