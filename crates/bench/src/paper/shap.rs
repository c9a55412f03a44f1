//! Exact Shapley-value feature attribution.
//!
//! Figure 4 of the paper shows SHAP values for the six cut features.  With
//! only six features the Shapley value of each feature can be computed
//! exactly by enumerating all 2⁶ feature subsets; missing features are
//! marginalized over a background dataset (the standard "interventional"
//! formulation used by KernelSHAP).

/// A black-box scalar model: one output per feature row of a batch.
pub type Model<'a> = &'a dyn Fn(&[Vec<f32>]) -> Vec<f32>;

/// Exact Shapley values of one instance.
///
/// `background` supplies the reference distribution used to marginalize
/// features excluded from a coalition; a handful of representative rows is
/// enough for the small models used here.
///
/// # Panics
///
/// Panics if `instance`, the background rows, or the model's expectations on
/// feature count are inconsistent, or if there are more than 20 features
/// (exact enumeration would be too expensive).
pub fn shapley_values(model: Model<'_>, instance: &[f32], background: &[Vec<f32>]) -> Vec<f64> {
    let num_features = instance.len();
    assert!(
        num_features <= 20,
        "exact Shapley supports at most 20 features"
    );
    assert!(!background.is_empty(), "background set must not be empty");
    assert!(
        background.iter().all(|row| row.len() == num_features),
        "background rows must match the instance dimensionality"
    );

    // Value of a coalition S: E_b[ f(x_S, b_!S) ] over the background rows.
    let coalition_value = |mask: usize| -> f64 {
        let rows: Vec<Vec<f32>> = background
            .iter()
            .map(|b| {
                (0..num_features)
                    .map(|f| {
                        if mask >> f & 1 == 1 {
                            instance[f]
                        } else {
                            b[f]
                        }
                    })
                    .collect()
            })
            .collect();
        let outputs = model(&rows);
        outputs.iter().map(|&v| v as f64).sum::<f64>() / outputs.len() as f64
    };

    // Cache all 2^n coalition values.
    let total_masks = 1usize << num_features;
    let values: Vec<f64> = (0..total_masks).map(coalition_value).collect();

    // Precompute factorials for the Shapley weights.
    let factorial: Vec<f64> = (0..=num_features).fold(Vec::new(), |mut acc, i| {
        let next = if i == 0 { 1.0 } else { acc[i - 1] * i as f64 };
        acc.push(next);
        acc
    });
    let n_fact = factorial[num_features];

    let mut shapley = vec![0.0f64; num_features];
    for (feature, value) in shapley.iter_mut().enumerate() {
        for mask in 0..total_masks {
            if mask >> feature & 1 == 1 {
                continue;
            }
            let size = (mask as u32).count_ones() as usize;
            let weight = factorial[size] * factorial[num_features - size - 1] / n_fact;
            *value += weight * (values[mask | (1 << feature)] - values[mask]);
        }
    }
    shapley
}

/// Summary of Shapley attributions over a set of instances (one row of
/// Figure 4 per feature).
#[derive(Debug, Clone, PartialEq)]
pub struct ShapSummary {
    /// Mean Shapley value per feature (signed).
    pub mean: Vec<f64>,
    /// Mean absolute Shapley value per feature (importance).
    pub mean_abs: Vec<f64>,
    /// Per-instance Shapley values (instances x features).
    pub per_instance: Vec<Vec<f64>>,
}

/// Computes Shapley values for many instances and aggregates them.
pub fn shap_summary(
    model: Model<'_>,
    instances: &[Vec<f32>],
    background: &[Vec<f32>],
) -> ShapSummary {
    let per_instance: Vec<Vec<f64>> = instances
        .iter()
        .map(|instance| shapley_values(model, instance, background))
        .collect();
    let num_features = instances.first().map_or(0, Vec::len);
    let mut mean = vec![0.0; num_features];
    let mut mean_abs = vec![0.0; num_features];
    for row in &per_instance {
        for (f, &v) in row.iter().enumerate() {
            mean[f] += v;
            mean_abs[f] += v.abs();
        }
    }
    let n = per_instance.len().max(1) as f64;
    for f in 0..num_features {
        mean[f] /= n;
        mean_abs[f] /= n;
    }
    ShapSummary {
        mean,
        mean_abs,
        per_instance,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A linear model has Shapley values equal to `w_i * (x_i - E[b_i])`.
    #[test]
    fn linear_model_matches_closed_form() {
        let weights = [2.0f32, -1.0, 0.5, 0.0];
        let model = |rows: &[Vec<f32>]| -> Vec<f32> {
            rows.iter()
                .map(|r| r.iter().zip(&weights).map(|(x, w)| x * w).sum())
                .collect()
        };
        let background = vec![vec![0.0, 0.0, 0.0, 0.0], vec![2.0, 2.0, 2.0, 2.0]];
        let instance = vec![3.0, 1.0, -2.0, 5.0];
        let values = shapley_values(&model, &instance, &background);
        let background_mean = [1.0f32, 1.0, 1.0, 1.0];
        for f in 0..4 {
            let expected = weights[f] as f64 * (instance[f] - background_mean[f]) as f64;
            assert!(
                (values[f] - expected).abs() < 1e-4,
                "feature {f}: {} vs {expected}",
                values[f]
            );
        }
    }

    /// Shapley values always sum to `f(x) - E[f(background)]` (efficiency).
    #[test]
    fn efficiency_property_holds_for_nonlinear_model() {
        let model = |rows: &[Vec<f32>]| -> Vec<f32> {
            rows.iter()
                .map(|r| (r[0] * r[1] + (r[2] - r[1]).max(0.0)).tanh())
                .collect()
        };
        let background = vec![
            vec![0.1, 0.5, 0.3],
            vec![0.9, 0.2, 0.8],
            vec![0.4, 0.4, 0.4],
        ];
        let instance = vec![0.7, 0.9, 0.1];
        let values = shapley_values(&model, &instance, &background);
        let fx = model(std::slice::from_ref(&instance))[0] as f64;
        let ef: f64 =
            model(&background).iter().map(|&v| v as f64).sum::<f64>() / background.len() as f64;
        let total: f64 = values.iter().sum();
        assert!((total - (fx - ef)).abs() < 1e-4, "{total} vs {}", fx - ef);
    }

    #[test]
    fn irrelevant_feature_gets_zero_attribution() {
        let model = |rows: &[Vec<f32>]| -> Vec<f32> { rows.iter().map(|r| r[0] * 3.0).collect() };
        let background = vec![vec![0.0, 7.0], vec![1.0, -3.0]];
        let values = shapley_values(&model, &[2.0, 100.0], &background);
        assert!(values[1].abs() < 1e-6);
        assert!(values[0] > 0.0);
    }

    #[test]
    fn summary_aggregates_instances() {
        let model = |rows: &[Vec<f32>]| -> Vec<f32> { rows.iter().map(|r| r[0] - r[1]).collect() };
        let background = vec![vec![0.0, 0.0]];
        let instances = vec![vec![1.0, 0.0], vec![-1.0, 0.0]];
        let summary = shap_summary(&model, &instances, &background);
        assert_eq!(summary.per_instance.len(), 2);
        // Feature 0 has opposite contributions that cancel in the mean but
        // not in the mean absolute value.
        assert!(summary.mean[0].abs() < 1e-6);
        assert!(summary.mean_abs[0] > 0.5);
    }
}
