//! Optimizers and learning-rate schedules.

use crate::model::Mlp;

/// Decay rate of Adam's first moment.
const BETA1: f32 = 0.9;
/// Decay rate of Adam's second moment.
const BETA2: f32 = 0.999;
/// Added to the second moment's root before dividing by it.
const EPSILON: f32 = 1e-8;

/// The Adam optimizer (Kingma & Ba) with per-parameter moment estimates.
///
/// The paper trains the classifier with Adam at learning rate 0.1 under a
/// cosine-annealing-with-warm-restarts schedule.  The moments are sized by
/// the model once, and a step updates every parameter in place.
#[derive(Debug, Clone)]
pub(crate) struct Adam {
    learning_rate: f32,
    step_count: u64,
    /// First moments, per layer those of its weights (row-major, as the
    /// layer holds them), then of its biases.
    pub(crate) m: Vec<[Vec<f32>; 2]>,
    /// Second moments, shaped as the first.
    pub(crate) v: Vec<[Vec<f32>; 2]>,
}

impl Adam {
    /// Creates an Adam optimizer for `model`'s parameters with the given
    /// learning rate and moment decay rates 0.9 and 0.999.
    pub(crate) fn new(learning_rate: f32, model: &Mlp) -> Self {
        Adam {
            learning_rate,
            step_count: 0,
            m: model.zeroed_parameters(),
            v: model.zeroed_parameters(),
        }
    }

    /// Sets the learning rate (used by schedulers between steps).
    pub(crate) fn set_learning_rate(&mut self, learning_rate: f32) {
        self.learning_rate = learning_rate;
    }

    /// Applies one Adam update to `model` given each layer's weight and
    /// bias gradients, shaped as [`Mlp::zeroed_parameters`].
    pub(crate) fn step(&mut self, model: &mut Mlp, grads: &[[Vec<f32>; 2]]) {
        self.step_count += 1;
        let t = self.step_count as f32;
        let rate = self.learning_rate;
        let corrections = (1.0 - BETA1.powf(t), 1.0 - BETA2.powf(t));
        let moments = self.m.iter_mut().zip(&mut self.v);
        for ((layer, [dw, db]), ([wm, bm], [wv, bv])) in
            model.layers.iter_mut().zip(grads).zip(moments)
        {
            update(layer.weights.data_mut(), dw, wm, wv, rate, corrections);
            update(&mut layer.bias, db, bm, bv, rate, corrections);
        }
    }
}

/// One Adam update of `params` in place, zipped with their gradients and
/// moments `m` and `v`; `c` holds the step's two bias corrections.
fn update(
    params: &mut [f32],
    grads: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    rate: f32,
    c: (f32, f32),
) {
    let moments = m.iter_mut().zip(v.iter_mut());
    for ((p, &g), (m, v)) in params.iter_mut().zip(grads).zip(moments) {
        *m = BETA1 * *m + (1.0 - BETA1) * g;
        *v = BETA2 * *v + (1.0 - BETA2) * g * g;
        let m_hat = *m / c.0;
        let v_hat = *v / c.1;
        *p -= rate * m_hat / (v_hat.sqrt() + EPSILON);
    }
}

/// Cosine annealing learning-rate schedule with warm restarts
/// (Loshchilov & Hutter, SGDR).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CosineAnnealingWarmRestarts {
    base_lr: f32,
    min_lr: f32,
    /// Length of the first restart period, in epochs.
    initial_period: f32,
    /// Multiplier applied to the period after each restart.
    period_mult: f32,
}

impl CosineAnnealingWarmRestarts {
    /// Creates a schedule starting at `base_lr`, annealing to `min_lr` over
    /// `initial_period` epochs, with the period multiplied by `period_mult`
    /// after each restart.
    ///
    /// # Panics
    ///
    /// Panics if `initial_period` is not positive or `period_mult < 1`.
    pub(crate) fn new(base_lr: f32, min_lr: f32, initial_period: f32, period_mult: f32) -> Self {
        assert!(initial_period > 0.0, "initial period must be positive");
        assert!(period_mult >= 1.0, "period multiplier must be at least 1");
        CosineAnnealingWarmRestarts {
            base_lr,
            min_lr,
            initial_period,
            period_mult,
        }
    }

    /// The learning rate at a (possibly fractional) epoch index.
    pub(crate) fn learning_rate_at(&self, epoch: f32) -> f32 {
        // Locate the current restart period.
        let mut period = self.initial_period;
        let mut start = 0.0;
        while epoch >= start + period {
            start += period;
            period *= self.period_mult;
        }
        let progress = (epoch - start) / period;
        self.min_lr
            + 0.5 * (self.base_lr - self.min_lr) * (1.0 + (std::f32::consts::PI * progress).cos())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Activation;
    use crate::train::{batch_major, Workspace};

    #[test]
    fn adam_reduces_loss_on_toy_problem() {
        // Learn y = x0 > x1 on a small synthetic dataset.
        let mut model = Mlp::new(&[2, 8, 1], Activation::Relu, Activation::Sigmoid, 5);
        let mut optimizer = Adam::new(0.05, &model);
        let mut workspace = Workspace::new(&model);
        let inputs: Vec<Vec<f32>> = (0..40)
            .map(|i| vec![(i % 7) as f32 / 7.0, (i % 5) as f32 / 5.0])
            .collect();
        let targets: Vec<f32> = inputs
            .iter()
            .map(|v| if v[0] > v[1] { 1.0 } else { 0.0 })
            .collect();
        let x = batch_major(&inputs);
        let loss_fn = crate::loss::Loss::BinaryCrossEntropy;
        let initial = loss_fn.value(&model.predict(&inputs), &targets);
        for _ in 0..300 {
            workspace.gradients(&model, (&x, &targets), loss_fn);
            optimizer.step(&mut model, &workspace.grads);
        }
        let trained = loss_fn.value(&model.predict(&inputs), &targets);
        assert!(
            trained < initial * 0.5,
            "loss did not improve: {initial} -> {trained}"
        );
    }

    #[test]
    fn scheduler_anneals_and_restarts() {
        let schedule = CosineAnnealingWarmRestarts::new(0.1, 0.001, 10.0, 2.0);
        let start = schedule.learning_rate_at(0.0);
        let middle = schedule.learning_rate_at(5.0);
        let end = schedule.learning_rate_at(9.999);
        let restarted = schedule.learning_rate_at(10.0);
        assert!((start - 0.1).abs() < 1e-6);
        assert!(middle < start && middle > end);
        assert!(end < 0.01);
        assert!(
            (restarted - 0.1).abs() < 1e-3,
            "restart should reset the LR"
        );
        // Second period is twice as long: epoch 20 is mid-period, not a restart.
        let mid_second = schedule.learning_rate_at(20.0);
        assert!(mid_second < 0.1 && mid_second > 0.001);
    }

    #[test]
    fn set_learning_rate_takes_effect() {
        // Adam's first step moves every parameter with a non-zero gradient
        // by the learning rate (m̂ / √v̂ = ±1), so it shows the rate in force.
        let mut model = Mlp::new(&[2, 1], Activation::Relu, Activation::Sigmoid, 5);
        let before = model.clone();
        let mut adam = Adam::new(0.1, &model);
        adam.set_learning_rate(0.01);
        adam.step(&mut model, &[[vec![1.0, -2.0], vec![1.0]]]);
        let (old, new) = (&before.layers()[0], &model.layers()[0]);
        let moved = old.weights().data().iter().zip(new.weights().data());
        for (a, b) in moved.chain(old.bias().iter().zip(new.bias())) {
            assert!(((a - b).abs() - 0.01).abs() < 1e-5, "{a} -> {b}");
        }
    }
}
