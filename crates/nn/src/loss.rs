//! Loss functions for the imbalanced binary classification task.
//!
//! The paper experimented with binary cross entropy, focal loss and
//! class-balanced losses; plain BCE (optionally with a positive-class weight)
//! worked best.  BCE, weighted BCE and focal loss are provided.

use crate::matrix::Matrix;

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
    /// Focal loss (Lin et al.) with focusing parameter `gamma` and class
    /// balance `alpha`.
    Focal {
        /// Focusing parameter; `0.0` recovers (alpha-weighted) BCE.
        gamma: f32,
        /// Weight of the positive class in `[0, 1]`.
        alpha: f32,
    },
}

impl Loss {
    /// Mean loss of predictions `probs` (column vector) against `targets`.
    ///
    /// # Panics
    ///
    /// Panics if the number of predictions and targets differ.
    pub fn value(&self, probs: &Matrix, targets: &[f32]) -> f32 {
        assert_eq!(
            probs.rows(),
            targets.len(),
            "prediction/target size mismatch"
        );
        let n = targets.len().max(1) as f32;
        let mut total = 0.0;
        for (i, &t) in targets.iter().enumerate() {
            let p = probs.get(i, 0).clamp(EPS, 1.0 - EPS);
            total += self.sample_value(p, t);
        }
        total / n
    }

    /// Gradient of the mean loss with respect to the predicted probabilities.
    pub fn gradient(&self, probs: &Matrix, targets: &[f32]) -> Matrix {
        assert_eq!(
            probs.rows(),
            targets.len(),
            "prediction/target size mismatch"
        );
        let n = targets.len().max(1) as f32;
        let mut grad = Matrix::zeros(probs.rows(), 1);
        for (i, &t) in targets.iter().enumerate() {
            let p = probs.get(i, 0).clamp(EPS, 1.0 - EPS);
            grad.set(i, 0, self.sample_gradient(p, t) / n);
        }
        grad
    }

    fn sample_value(&self, p: f32, t: f32) -> f32 {
        match *self {
            Loss::BinaryCrossEntropy => -(t * p.ln() + (1.0 - t) * (1.0 - p).ln()),
            Loss::WeightedBce { pos_weight } => {
                -(pos_weight * t * p.ln() + (1.0 - t) * (1.0 - p).ln())
            }
            Loss::Focal { gamma, alpha } => {
                let pos = -alpha * (1.0 - p).powf(gamma) * p.ln();
                let neg = -(1.0 - alpha) * p.powf(gamma) * (1.0 - p).ln();
                t * pos + (1.0 - t) * neg
            }
        }
    }

    fn sample_gradient(&self, p: f32, t: f32) -> f32 {
        match *self {
            Loss::BinaryCrossEntropy => -(t / p) + (1.0 - t) / (1.0 - p),
            Loss::WeightedBce { pos_weight } => -(pos_weight * t / p) + (1.0 - t) / (1.0 - p),
            Loss::Focal { gamma, alpha } => {
                let d_pos = alpha
                    * (gamma * (1.0 - p).powf(gamma - 1.0) * p.ln() - (1.0 - p).powf(gamma) / p);
                let d_neg = (1.0 - alpha)
                    * (p.powf(gamma) / (1.0 - p) - gamma * p.powf(gamma - 1.0) * (1.0 - p).ln());
                t * d_pos + (1.0 - t) * d_neg
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn column(values: &[f32]) -> Matrix {
        Matrix::from_rows(&values.iter().map(|&v| vec![v]).collect::<Vec<_>>())
    }

    #[test]
    fn bce_value_matches_formula() {
        let probs = column(&[0.9, 0.1]);
        let targets = [1.0, 0.0];
        let expected = (-(0.9f32.ln()) - (0.9f32.ln())) / 2.0;
        assert!((Loss::BinaryCrossEntropy.value(&probs, &targets) - expected).abs() < 1e-5);
    }

    #[test]
    fn perfect_predictions_have_near_zero_loss() {
        let probs = column(&[1.0, 0.0, 1.0]);
        let targets = [1.0, 0.0, 1.0];
        for loss in [
            Loss::BinaryCrossEntropy,
            Loss::WeightedBce { pos_weight: 5.0 },
            Loss::Focal {
                gamma: 2.0,
                alpha: 0.25,
            },
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
            Loss::Focal {
                gamma: 2.0,
                alpha: 0.25,
            },
        ] {
            for &p0 in &[0.3f32, 0.7] {
                let probs = column(&[p0, 0.4]);
                let grad = loss.gradient(&probs, &targets);
                let eps = 1e-3;
                let plus = loss.value(&column(&[p0 + eps, 0.4]), &targets);
                let minus = loss.value(&column(&[p0 - eps, 0.4]), &targets);
                let numeric = (plus - minus) / (2.0 * eps);
                assert!(
                    (numeric - grad.get(0, 0)).abs() < 1e-2,
                    "{loss:?}: numeric {numeric} vs analytic {}",
                    grad.get(0, 0)
                );
            }
        }
    }

    #[test]
    fn weighted_bce_penalizes_missed_positives_more() {
        let probs = column(&[0.2]);
        let miss_positive = Loss::WeightedBce { pos_weight: 10.0 }.value(&probs, &[1.0]);
        let plain = Loss::BinaryCrossEntropy.value(&probs, &[1.0]);
        assert!(miss_positive > plain);
    }

    #[test]
    fn focal_downweights_easy_examples() {
        let easy = column(&[0.95]);
        let hard = column(&[0.55]);
        let focal = Loss::Focal {
            gamma: 2.0,
            alpha: 0.5,
        };
        let bce = Loss::BinaryCrossEntropy;
        let ratio_focal = focal.value(&hard, &[1.0]) / focal.value(&easy, &[1.0]);
        let ratio_bce = bce.value(&hard, &[1.0]) / bce.value(&easy, &[1.0]);
        assert!(ratio_focal > ratio_bce);
    }
}
