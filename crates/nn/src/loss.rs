//! Loss functions for the imbalanced binary classification task.
//!
//! The paper experimented with binary cross entropy, focal loss and
//! class-balanced losses; plain BCE (optionally with a positive-class weight)
//! worked best.  BCE and weighted BCE are provided.

const EPS: f32 = 1e-6;

/// A binary classification loss over sigmoid probabilities.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Loss {
    /// Standard binary cross entropy.
    #[default]
    BinaryCrossEntropy,
    /// Binary cross entropy where positive examples are weighted by
    /// `pos_weight` (used to counter class imbalance).
    WeightedBce {
        /// Multiplier applied to positive-class terms.
        pos_weight: f32,
    },
}

impl Loss {
    /// Mean loss of the predicted probabilities `probs` against `targets`.
    ///
    /// # Panics
    ///
    /// Panics if the number of predictions and targets differ.
    pub fn value(&self, probs: &[f32], targets: &[f32]) -> f32 {
        assert_eq!(
            probs.len(),
            targets.len(),
            "prediction/target size mismatch"
        );
        let n = targets.len().max(1) as f32;
        let mut total = 0.0;
        for (&p, &t) in probs.iter().zip(targets) {
            total += self.sample_value(p.clamp(EPS, 1.0 - EPS), t);
        }
        total / n
    }

    /// Writes the gradient of the mean loss with respect to each predicted
    /// probability into `grad`, where backpropagation starts from.
    ///
    /// # Panics
    ///
    /// Panics if `probs`, `targets` and `grad` differ in length.
    pub(crate) fn gradient(&self, probs: &[f32], targets: &[f32], grad: &mut [f32]) {
        assert_eq!(
            (probs.len(), grad.len()),
            (targets.len(), targets.len()),
            "prediction/target size mismatch"
        );
        let n = targets.len().max(1) as f32;
        for ((g, &p), &t) in grad.iter_mut().zip(probs).zip(targets) {
            *g = self.sample_gradient(p.clamp(EPS, 1.0 - EPS), t) / n;
        }
    }

    fn sample_value(&self, p: f32, t: f32) -> f32 {
        match *self {
            Loss::BinaryCrossEntropy => -(t * p.ln() + (1.0 - t) * (1.0 - p).ln()),
            Loss::WeightedBce { pos_weight } => {
                -(pos_weight * t * p.ln() + (1.0 - t) * (1.0 - p).ln())
            }
        }
    }

    fn sample_gradient(&self, p: f32, t: f32) -> f32 {
        match *self {
            Loss::BinaryCrossEntropy => -(t / p) + (1.0 - t) / (1.0 - p),
            Loss::WeightedBce { pos_weight } => -(pos_weight * t / p) + (1.0 - t) / (1.0 - p),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bce_value_matches_formula() {
        let probs = [0.9, 0.1];
        let targets = [1.0, 0.0];
        let expected = (-(0.9f32.ln()) - (0.9f32.ln())) / 2.0;
        assert!((Loss::BinaryCrossEntropy.value(&probs, &targets) - expected).abs() < 1e-5);
    }

    #[test]
    fn perfect_predictions_have_near_zero_loss() {
        let probs = [1.0, 0.0, 1.0];
        let targets = [1.0, 0.0, 1.0];
        for loss in [
            Loss::BinaryCrossEntropy,
            Loss::WeightedBce { pos_weight: 5.0 },
        ] {
            assert!(loss.value(&probs, &targets) < 1e-3, "{loss:?}");
        }
    }

    #[test]
    fn gradients_match_finite_differences() {
        let targets = [1.0, 0.0];
        for loss in [
            Loss::BinaryCrossEntropy,
            Loss::WeightedBce { pos_weight: 3.0 },
        ] {
            for &p0 in &[0.3f32, 0.7] {
                let mut grad = [0.0; 2];
                loss.gradient(&[p0, 0.4], &targets, &mut grad);
                let eps = 1e-3;
                let plus = loss.value(&[p0 + eps, 0.4], &targets);
                let minus = loss.value(&[p0 - eps, 0.4], &targets);
                let numeric = (plus - minus) / (2.0 * eps);
                assert!(
                    (numeric - grad[0]).abs() < 1e-2,
                    "{loss:?}: numeric {numeric} vs analytic {}",
                    grad[0]
                );
            }
        }
    }

    #[test]
    fn weighted_bce_penalizes_missed_positives_more() {
        let miss_positive = Loss::WeightedBce { pos_weight: 10.0 }.value(&[0.2], &[1.0]);
        let plain = Loss::BinaryCrossEntropy.value(&[0.2], &[1.0]);
        assert!(miss_positive > plain);
    }
}
