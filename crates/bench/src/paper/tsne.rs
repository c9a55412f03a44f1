//! Exact t-SNE (t-distributed stochastic neighbour embedding).
//!
//! Used to regenerate Figure 3 of the paper: a two-dimensional visualization
//! of the 6-dimensional cut-feature space, with refactored and unrefactored
//! cuts coloured differently.  The implementation is the exact O(N²)
//! algorithm of van der Maaten & Hinton, sufficient for the few thousand
//! points the figure plots.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Target perplexity (effective number of neighbours).
const PERPLEXITY: f64 = 30.0;
/// Number of gradient-descent iterations.
const ITERATIONS: usize = 250;
/// Learning rate.
const LEARNING_RATE: f64 = 100.0;
/// Momentum coefficient.
const MOMENTUM: f64 = 0.8;
/// Early-exaggeration factor applied to the affinities for the first
/// quarter of the iterations.
const EARLY_EXAGGERATION: f64 = 4.0;
/// RNG seed for the initial embedding.
const SEED: u64 = 0x7541;

/// Embeds `points` (each a feature vector) into two dimensions.
///
/// Returns one `[x, y]` coordinate per input point.
///
/// # Panics
///
/// Panics if the points have inconsistent dimensionality.
pub fn tsne(points: &[Vec<f64>]) -> Vec<[f64; 2]> {
    let n = points.len();
    if n == 0 {
        return Vec::new();
    }
    let dims = points[0].len();
    assert!(
        points.iter().all(|p| p.len() == dims),
        "all points must have the same dimensionality"
    );
    if n == 1 {
        return vec![[0.0, 0.0]];
    }

    // Pairwise squared Euclidean distances in the input space.
    let mut distances = vec![0.0f64; n * n];
    for i in 0..n {
        for j in (i + 1)..n {
            let d: f64 = points[i]
                .iter()
                .zip(&points[j])
                .map(|(a, b)| (a - b) * (a - b))
                .sum();
            distances[i * n + j] = d;
            distances[j * n + i] = d;
        }
    }

    // Per-point bandwidths via binary search on the perplexity.
    let target_entropy = PERPLEXITY.ln();
    let mut p = vec![0.0f64; n * n];
    for i in 0..n {
        let mut beta = 1.0f64;
        let mut beta_min = f64::NEG_INFINITY;
        let mut beta_max = f64::INFINITY;
        for _ in 0..50 {
            // Compute conditional probabilities and entropy for this beta.
            let mut sum = 0.0;
            let mut entropy_acc = 0.0;
            for j in 0..n {
                if i == j {
                    continue;
                }
                let value = (-distances[i * n + j] * beta).exp();
                sum += value;
                entropy_acc += beta * distances[i * n + j] * value;
            }
            let entropy = if sum > 0.0 {
                sum.ln() + entropy_acc / sum
            } else {
                0.0
            };
            let diff = entropy - target_entropy;
            if diff.abs() < 1e-5 {
                break;
            }
            if diff > 0.0 {
                beta_min = beta;
                beta = if beta_max.is_infinite() {
                    beta * 2.0
                } else {
                    (beta + beta_max) / 2.0
                };
            } else {
                beta_max = beta;
                beta = if beta_min.is_infinite() {
                    beta / 2.0
                } else {
                    (beta + beta_min) / 2.0
                };
            }
        }
        let mut sum = 0.0;
        for j in 0..n {
            if i != j {
                let value = (-distances[i * n + j] * beta).exp();
                p[i * n + j] = value;
                sum += value;
            }
        }
        if sum > 0.0 {
            for j in 0..n {
                p[i * n + j] /= sum;
            }
        }
    }

    // Symmetrize.
    let mut joint = vec![0.0f64; n * n];
    for i in 0..n {
        for j in 0..n {
            joint[i * n + j] = ((p[i * n + j] + p[j * n + i]) / (2.0 * n as f64)).max(1e-12);
        }
    }

    // Gradient descent on the embedding.
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut embedding: Vec<[f64; 2]> = (0..n)
        .map(|_| [rng.gen_range(-1e-2..1e-2), rng.gen_range(-1e-2..1e-2)])
        .collect();
    let mut velocity = vec![[0.0f64; 2]; n];
    let exaggeration_steps = ITERATIONS / 4;

    for iteration in 0..ITERATIONS {
        let exaggeration = if iteration < exaggeration_steps {
            EARLY_EXAGGERATION
        } else {
            1.0
        };
        // Low-dimensional affinities (Student-t kernel).
        let mut q_unnormalized = vec![0.0f64; n * n];
        let mut q_sum = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                let dx = embedding[i][0] - embedding[j][0];
                let dy = embedding[i][1] - embedding[j][1];
                let value = 1.0 / (1.0 + dx * dx + dy * dy);
                q_unnormalized[i * n + j] = value;
                q_unnormalized[j * n + i] = value;
                q_sum += 2.0 * value;
            }
        }
        let q_sum = q_sum.max(1e-12);

        // Gradient.
        for i in 0..n {
            let mut grad = [0.0f64; 2];
            for j in 0..n {
                if i == j {
                    continue;
                }
                let q = (q_unnormalized[i * n + j] / q_sum).max(1e-12);
                let factor =
                    4.0 * (exaggeration * joint[i * n + j] - q) * q_unnormalized[i * n + j];
                grad[0] += factor * (embedding[i][0] - embedding[j][0]);
                grad[1] += factor * (embedding[i][1] - embedding[j][1]);
            }
            for d in 0..2 {
                velocity[i][d] = MOMENTUM * velocity[i][d] - LEARNING_RATE * grad[d];
            }
        }
        for i in 0..n {
            embedding[i][0] += velocity[i][0];
            embedding[i][1] += velocity[i][1];
        }
        // Re-centre the embedding.
        let mean_x: f64 = embedding.iter().map(|p| p[0]).sum::<f64>() / n as f64;
        let mean_y: f64 = embedding.iter().map(|p| p[1]).sum::<f64>() / n as f64;
        for point in &mut embedding {
            point[0] -= mean_x;
            point[1] -= mean_y;
        }
    }
    embedding
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two well-separated Gaussian-ish clusters in 6-D should remain separated
    /// in the 2-D embedding.
    #[test]
    fn separates_two_clusters() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut points = Vec::new();
        let mut labels = Vec::new();
        for i in 0..60 {
            let offset = if i % 2 == 0 { 0.0 } else { 20.0 };
            let point: Vec<f64> = (0..6).map(|_| offset + rng.gen_range(-0.5..0.5)).collect();
            points.push(point);
            labels.push(i % 2 == 0);
        }
        let embedding = tsne(&points);
        assert_eq!(embedding.len(), points.len());
        // Average intra-cluster distance must be well below the inter-cluster
        // distance.
        let centroid = |keep: bool| -> [f64; 2] {
            let selected: Vec<&[f64; 2]> = embedding
                .iter()
                .zip(&labels)
                .filter(|(_, &l)| l == keep)
                .map(|(e, _)| e)
                .collect();
            let n = selected.len() as f64;
            [
                selected.iter().map(|p| p[0]).sum::<f64>() / n,
                selected.iter().map(|p| p[1]).sum::<f64>() / n,
            ]
        };
        let c0 = centroid(true);
        let c1 = centroid(false);
        let inter = ((c0[0] - c1[0]).powi(2) + (c0[1] - c1[1]).powi(2)).sqrt();
        let mut intra = 0.0;
        let mut count = 0.0;
        for (point, &label) in embedding.iter().zip(&labels) {
            let c = if label { c0 } else { c1 };
            intra += ((point[0] - c[0]).powi(2) + (point[1] - c[1]).powi(2)).sqrt();
            count += 1.0;
        }
        intra /= count;
        assert!(
            inter > 2.0 * intra,
            "clusters not separated: inter {inter}, intra {intra}"
        );
    }

    #[test]
    fn degenerate_inputs() {
        assert!(tsne(&[]).is_empty());
        let single = tsne(&[vec![1.0, 2.0]]);
        assert_eq!(single, vec![[0.0, 0.0]]);
    }

    #[test]
    fn embedding_is_centred() {
        let points: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![i as f64, (i * i % 7) as f64, 1.0])
            .collect();
        let embedding = tsne(&points);
        let mean_x: f64 = embedding.iter().map(|p| p[0]).sum::<f64>() / 20.0;
        let mean_y: f64 = embedding.iter().map(|p| p[1]).sum::<f64>() / 20.0;
        assert!(mean_x.abs() < 1e-6);
        assert!(mean_y.abs() < 1e-6);
    }
}
