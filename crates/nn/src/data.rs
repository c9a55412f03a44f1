//! Datasets, normalization, resampling and augmentation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// In-place seeded Fisher–Yates shuffle of example indices.
fn shuffle_indices(indices: &mut [usize], rng: &mut StdRng) {
    for i in (1..indices.len()).rev() {
        let j = rng.gen_range(0..=i);
        indices.swap(i, j);
    }
}

/// A labelled binary-classification dataset with dense feature rows.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Dataset {
    features: Vec<Vec<f32>>,
    labels: Vec<f32>,
}

impl Dataset {
    /// Creates an empty dataset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a dataset from parallel feature and label vectors.
    ///
    /// # Panics
    ///
    /// Panics if the two vectors have different lengths.
    pub fn from_parts(features: Vec<Vec<f32>>, labels: Vec<f32>) -> Self {
        assert_eq!(features.len(), labels.len(), "feature/label count mismatch");
        Dataset { features, labels }
    }

    /// Adds one labelled example.
    pub fn push(&mut self, features: Vec<f32>, label: bool) {
        self.features.push(features);
        self.labels.push(if label { 1.0 } else { 0.0 });
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Returns `true` if the dataset has no examples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of features per example (0 for an empty dataset).
    pub fn num_features(&self) -> usize {
        self.features.first().map_or(0, Vec::len)
    }

    /// The feature rows.
    pub fn features(&self) -> &[Vec<f32>] {
        &self.features
    }

    /// The labels (0.0 or 1.0).
    pub fn labels(&self) -> &[f32] {
        &self.labels
    }

    /// Counts of (negative, positive) examples.
    pub fn class_counts(&self) -> (usize, usize) {
        let positives = self.labels.iter().filter(|&&l| l >= 0.5).count();
        (self.len() - positives, positives)
    }

    /// Appends all examples of `other`.
    pub fn extend_from(&mut self, other: &Dataset) {
        self.features.extend(other.features.iter().cloned());
        self.labels.extend_from_slice(&other.labels);
    }

    /// Splits the dataset into (train, validation) preserving the class
    /// balance of both sides (stratified split), after a seeded per-class
    /// shuffle: the example indices of each side, in a seeded order.
    ///
    /// Unlike a plain shuffle split, a heavily imbalanced dataset is
    /// guaranteed to keep at least one example of every represented class on each side
    /// (whenever the class has two or more examples and the fraction is
    /// non-zero), so validation recall is never undefined just because the
    /// shuffle dropped every positive from the validation slice.
    pub fn split_stratified(&self, fraction: f32, seed: u64) -> (Vec<usize>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut negatives: Vec<usize> = Vec::new();
        let mut positives: Vec<usize> = Vec::new();
        for (index, &label) in self.labels.iter().enumerate() {
            if label >= 0.5 {
                positives.push(index);
            } else {
                negatives.push(index);
            }
        }
        let mut train_idx = Vec::with_capacity(self.len());
        let mut valid_idx = Vec::new();
        for class in [&mut negatives, &mut positives] {
            shuffle_indices(class, &mut rng);
            let rounded = ((class.len() as f32) * fraction).round() as usize;
            let valid_count = if class.len() >= 2 && fraction > 0.0 {
                rounded.clamp(1, class.len() - 1)
            } else {
                rounded.min(class.len())
            };
            let (valid, train) = class.split_at(valid_count);
            valid_idx.extend_from_slice(valid);
            train_idx.extend_from_slice(train);
        }
        // Re-shuffle the concatenated per-class runs so downstream
        // sequential mini-batching never sees class-sorted data.
        shuffle_indices(&mut train_idx, &mut rng);
        shuffle_indices(&mut valid_idx, &mut rng);
        (train_idx, valid_idx)
    }
}

/// A cheaply-cloneable shared handle to fitted [`Normalizer`] statistics —
/// the normalization half of the shared-weight pair whose model half is
/// [`SharedMlp`](crate::SharedMlp).
pub type SharedNormalizer = std::sync::Arc<Normalizer>;

/// Mean–variance normalization fitted on a dataset.
///
/// The paper fuses this normalization into the deployed model ("we merged a
/// Mean Variance Normalization node directly with the model"); the same
/// fusion is done by `elf-core`'s classifier, which stores a `Normalizer`
/// next to the MLP.
#[derive(Debug, Clone, PartialEq)]
pub struct Normalizer {
    mean: Vec<f32>,
    std: Vec<f32>,
}

impl Normalizer {
    /// Fits per-feature mean and standard deviation on a dataset's feature
    /// rows ([`Normalizer::fit_rows`]).
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty.
    pub fn fit(dataset: &Dataset) -> Self {
        Self::fit_rows(dataset.features())
    }

    /// Fits per-feature mean and standard deviation on feature rows, each
    /// summed in row order; the first row's length is the feature count.  A
    /// standard deviation is never below `1e-6`, so standardizing a constant
    /// feature never divides by zero.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty.
    pub fn fit_rows<R: AsRef<[f32]>>(rows: &[R]) -> Self {
        assert!(
            !rows.is_empty(),
            "cannot fit a normalizer on an empty dataset"
        );
        let n = rows.len() as f32;
        let mut mean = vec![0.0; rows[0].as_ref().len()];
        for row in rows {
            for (m, v) in mean.iter_mut().zip(row.as_ref()) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        let mut var = vec![0.0; mean.len()];
        for row in rows {
            for ((v, x), m) in var.iter_mut().zip(row.as_ref()).zip(&mean) {
                *v += (x - m) * (x - m);
            }
        }
        let std = var.into_iter().map(|v| (v / n).sqrt().max(1e-6)).collect();
        Normalizer { mean, std }
    }

    /// Creates a normalizer from explicit statistics.
    pub fn from_stats(mean: Vec<f32>, std: Vec<f32>) -> Self {
        assert_eq!(mean.len(), std.len());
        Normalizer { mean, std }
    }

    /// Per-feature means.
    pub fn mean(&self) -> &[f32] {
        &self.mean
    }

    /// Per-feature standard deviations.
    pub fn std(&self) -> &[f32] {
        &self.std
    }

    /// Normalizes one feature row.
    pub fn transform_row(&self, row: &[f32]) -> Vec<f32> {
        row.iter()
            .zip(self.mean.iter().zip(&self.std))
            .map(|(x, (m, s))| (x - m) / s)
            .collect()
    }

    /// Freezes the fitted statistics into a [`SharedNormalizer`] handle.
    pub fn into_shared(self) -> SharedNormalizer {
        std::sync::Arc::new(self)
    }

    /// Normalizes a whole dataset, returning a new dataset.
    pub fn transform(&self, dataset: &Dataset) -> Dataset {
        Dataset::from_parts(
            dataset
                .features()
                .iter()
                .map(|row| self.transform_row(row))
                .collect(),
            dataset.labels().to_vec(),
        )
    }
}

/// Weighted random sampling with replacement that balances the two classes
/// (the resampling strategy the paper found most effective).
#[derive(Debug, Clone)]
pub(crate) struct WeightedRandomSampler {
    /// Running sums of the per-example weights.
    cumulative: Vec<f64>,
}

impl WeightedRandomSampler {
    /// Builds a sampler over examples with these labels whose per-example
    /// weight is inversely proportional to its class frequency.
    pub(crate) fn balanced(labels: &[f32]) -> Self {
        let pos = labels.iter().filter(|&&l| l >= 0.5).count();
        let neg = labels.len() - pos;
        let w_pos = if pos == 0 { 0.0 } else { 1.0 / pos as f64 };
        let w_neg = if neg == 0 { 0.0 } else { 1.0 / neg as f64 };
        let mut cumulative = Vec::with_capacity(labels.len());
        let mut total = 0.0;
        for &label in labels {
            total += if label >= 0.5 { w_pos } else { w_neg };
            cumulative.push(total);
        }
        WeightedRandomSampler { cumulative }
    }

    /// Draws one example index, with replacement.
    ///
    /// # Panics
    ///
    /// Panics if the sampler is over no examples.
    pub(crate) fn draw(&self, rng: &mut impl Rng) -> usize {
        let total = *self.cumulative.last().unwrap_or(&0.0);
        let r = rng.gen_range(0.0..total);
        // The cumulative weights are finite and non-negative, where
        // `total_cmp` orders exactly as `partial_cmp` does.
        match self
            .cumulative
            .binary_search_by(|probe| probe.total_cmp(&r))
        {
            Ok(i) | Err(i) => i.min(self.cumulative.len() - 1),
        }
    }
}

/// Draws one MixUp example (Zhang et al.) over `len` examples: the indices
/// `(i, j)` of the pair it mixes and the weight `lambda` of the first, from
/// Beta(`alpha`, `alpha`).  Each feature and the label is [`mix`]ed.
pub(crate) fn mix_pair(len: usize, alpha: f32, rng: &mut StdRng) -> (usize, usize, f32) {
    let i = rng.gen_range(0..len);
    let j = rng.gen_range(0..len);
    (i, j, sample_beta(alpha, alpha, rng))
}

/// The convex combination `lambda * a + (1 - lambda) * b`.
pub(crate) fn mix(lambda: f32, a: f32, b: f32) -> f32 {
    lambda * a + (1.0 - lambda) * b
}

/// Samples from a Beta(`a`, `b`) distribution (used by MixUp).
fn sample_beta(a: f32, b: f32, rng: &mut impl Rng) -> f32 {
    let x = sample_gamma(a, rng);
    let y = sample_gamma(b, rng);
    if x + y == 0.0 {
        0.5
    } else {
        x / (x + y)
    }
}

/// Marsaglia–Tsang gamma sampling (shape `a`, scale 1).
fn sample_gamma(shape: f32, rng: &mut impl Rng) -> f32 {
    if shape < 1.0 {
        // Boost the shape and correct with a power of a uniform.
        let u: f32 = rng.gen_range(f32::EPSILON..1.0);
        return sample_gamma(shape + 1.0, rng) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        // Standard normal via Box-Muller.
        let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = rng.gen_range(0.0..1.0);
        let normal = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos();
        let v = (1.0 + c * normal).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f32 = rng.gen_range(f32::EPSILON..1.0);
        if u.ln() < 0.5 * normal * normal + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_dataset() -> Dataset {
        let mut data = Dataset::new();
        for i in 0..20 {
            let x = i as f32;
            data.push(vec![x, 2.0 * x], i % 5 == 0);
        }
        data
    }

    #[test]
    fn dataset_basics() {
        let data = toy_dataset();
        assert_eq!(data.len(), 20);
        assert_eq!(data.num_features(), 2);
        assert_eq!(data.class_counts(), (16, 4));
        assert!(!data.is_empty());
        assert_eq!(data.features().len(), 20);
    }

    #[test]
    fn stratified_split_keeps_positives_on_both_sides() {
        // 2 positives in 50 examples: a plain 10% shuffle split frequently
        // drops every positive from validation; the stratified split never
        // does.
        let mut data = Dataset::new();
        for i in 0..50 {
            data.push(vec![i as f32], i < 2);
        }
        let positives = |side: &[usize]| side.iter().filter(|&&i| i < 2).count();
        for seed in 0..20 {
            let (train, valid) = data.split_stratified(0.1, seed);
            assert_eq!(train.len() + valid.len(), data.len());
            assert!(positives(&valid) >= 1, "seed {seed}: no positive");
            assert!(positives(&train) >= 1, "seed {seed}: no positive");
        }
    }

    #[test]
    fn stratified_split_handles_degenerate_classes() {
        // A single positive stays in training (recall would otherwise train
        // on zero positives).
        let mut data = Dataset::new();
        for i in 0..10 {
            data.push(vec![i as f32], i == 0);
        }
        let (train, valid) = data.split_stratified(0.2, 7);
        assert!(train.contains(&0));
        assert!(!valid.contains(&0));
        // All-negative data still splits cleanly.
        let mut negatives = Dataset::new();
        for i in 0..10 {
            negatives.push(vec![i as f32], false);
        }
        let (train, valid) = negatives.split_stratified(0.2, 7);
        assert_eq!(train.len() + valid.len(), 10);
        assert_eq!(valid.len(), 2);
    }

    #[test]
    fn normalizer_centers_and_scales() {
        let data = toy_dataset();
        let norm = Normalizer::fit(&data);
        let transformed = norm.transform(&data);
        for k in 0..2 {
            let s: f32 = transformed.features().iter().map(|row| row[k]).sum();
            assert!(s.abs() < 1e-3, "mean should be ~0, got {s}");
        }
        assert_eq!(Normalizer::fit_rows(data.features()), norm);
        // Round trip on a single row.
        let row = norm.transform_row(&[0.0, 0.0]);
        assert!(row[0] < 0.0);
    }

    #[test]
    fn balanced_sampler_oversamples_minority() {
        let data = toy_dataset();
        let sampler = WeightedRandomSampler::balanced(data.labels());
        let mut rng = StdRng::seed_from_u64(9);
        let positives = (0..4000)
            .filter(|_| data.labels()[sampler.draw(&mut rng)] >= 0.5)
            .count();
        let fraction = positives as f64 / 4000.0;
        assert!(
            (fraction - 0.5).abs() < 0.08,
            "balanced sampling should yield ~50% positives, got {fraction}"
        );
    }

    #[test]
    fn mixup_labels_are_convex_combinations() {
        let data = toy_dataset();
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..50 {
            let (i, j, lambda) = mix_pair(data.len(), 0.4, &mut rng);
            let (a, b) = (&data.features()[i], &data.features()[j]);
            let row: Vec<f32> = a.iter().zip(b).map(|(&a, &b)| mix(lambda, a, b)).collect();
            let label = mix(lambda, data.labels()[i], data.labels()[j]);
            assert!((0.0..=1.0).contains(&label));
            // Feature 1 is always twice feature 0 in the source data, and the
            // relation is preserved by convex combination.
            assert!((row[1] - 2.0 * row[0]).abs() < 1e-3);
        }
    }

    #[test]
    fn beta_samples_stay_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..200 {
            let s = sample_beta(0.4, 0.4, &mut rng);
            assert!((0.0..=1.0).contains(&s));
        }
    }
}
