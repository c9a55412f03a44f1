//! Optimizers and learning-rate schedules.

use crate::matrix::Matrix;
use crate::model::{Gradients, Mlp};

/// The Adam optimizer (Kingma & Ba) with per-parameter moment estimates.
///
/// The paper trains the classifier with Adam at learning rate 0.1 under a
/// cosine-annealing-with-warm-restarts schedule.
#[derive(Debug, Clone)]
pub(crate) struct Adam {
    learning_rate: f32,
    beta1: f32,
    beta2: f32,
    epsilon: f32,
    step_count: u64,
    weight_m: Vec<Matrix>,
    weight_v: Vec<Matrix>,
    bias_m: Vec<Vec<f32>>,
    bias_v: Vec<Vec<f32>>,
}

impl Adam {
    /// Creates an Adam optimizer with the given learning rate and default
    /// moment decay rates (0.9, 0.999).
    pub(crate) fn new(learning_rate: f32) -> Self {
        Adam {
            learning_rate,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
            step_count: 0,
            weight_m: Vec::new(),
            weight_v: Vec::new(),
            bias_m: Vec::new(),
            bias_v: Vec::new(),
        }
    }

    /// Sets the learning rate (used by schedulers between steps).
    pub(crate) fn set_learning_rate(&mut self, learning_rate: f32) {
        self.learning_rate = learning_rate;
    }

    fn ensure_state(&mut self, grads: &Gradients) {
        if self.weight_m.len() == grads.weights.len() {
            return;
        }
        self.weight_m = grads
            .weights
            .iter()
            .map(|g| Matrix::zeros(g.rows(), g.cols()))
            .collect();
        self.weight_v = self.weight_m.clone();
        self.bias_m = grads.biases.iter().map(|b| vec![0.0; b.len()]).collect();
        self.bias_v = self.bias_m.clone();
    }

    /// Applies one Adam update to the model given freshly computed gradients.
    pub(crate) fn step(&mut self, model: &mut Mlp, grads: &Gradients) {
        self.ensure_state(grads);
        self.step_count += 1;
        let t = self.step_count as f32;
        let bias_correction1 = 1.0 - self.beta1.powf(t);
        let bias_correction2 = 1.0 - self.beta2.powf(t);
        let mut deltas = Gradients {
            weights: Vec::with_capacity(grads.weights.len()),
            biases: Vec::with_capacity(grads.biases.len()),
        };
        for (layer, grad) in grads.weights.iter().enumerate() {
            let m = &mut self.weight_m[layer];
            let v = &mut self.weight_v[layer];
            let mut delta = Matrix::zeros(grad.rows(), grad.cols());
            for idx in 0..grad.data().len() {
                let g = grad.data()[idx];
                let m_val = self.beta1 * m.data()[idx] + (1.0 - self.beta1) * g;
                let v_val = self.beta2 * v.data()[idx] + (1.0 - self.beta2) * g * g;
                m.data_mut()[idx] = m_val;
                v.data_mut()[idx] = v_val;
                let m_hat = m_val / bias_correction1;
                let v_hat = v_val / bias_correction2;
                delta.data_mut()[idx] = self.learning_rate * m_hat / (v_hat.sqrt() + self.epsilon);
            }
            deltas.weights.push(delta);
        }
        for (layer, grad) in grads.biases.iter().enumerate() {
            let m = &mut self.bias_m[layer];
            let v = &mut self.bias_v[layer];
            let mut delta = vec![0.0; grad.len()];
            for idx in 0..grad.len() {
                let g = grad[idx];
                m[idx] = self.beta1 * m[idx] + (1.0 - self.beta1) * g;
                v[idx] = self.beta2 * v[idx] + (1.0 - self.beta2) * g * g;
                let m_hat = m[idx] / bias_correction1;
                let v_hat = v[idx] / bias_correction2;
                delta[idx] = self.learning_rate * m_hat / (v_hat.sqrt() + self.epsilon);
            }
            deltas.biases.push(delta);
        }
        model.apply_update(&deltas);
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

    #[test]
    fn adam_reduces_loss_on_toy_problem() {
        // Learn y = x0 > x1 on a small synthetic dataset.
        let mut model = Mlp::new(&[2, 8, 1], Activation::Relu, Activation::Sigmoid, 5);
        let mut optimizer = Adam::new(0.05);
        let inputs: Vec<Vec<f32>> = (0..40)
            .map(|i| vec![(i % 7) as f32 / 7.0, (i % 5) as f32 / 5.0])
            .collect();
        let targets: Vec<f32> = inputs
            .iter()
            .map(|v| if v[0] > v[1] { 1.0 } else { 0.0 })
            .collect();
        let x = Matrix::from_rows(&inputs);
        let loss_fn = crate::loss::Loss::BinaryCrossEntropy;
        let initial = loss_fn.value(&model.predict(&inputs), &targets);
        for _ in 0..300 {
            let acts = model.forward_cached(&x);
            let grad = loss_fn.gradient(acts.last().unwrap().data(), &targets);
            let grads = model.backward(&acts, &grad);
            optimizer.step(&mut model, &grads);
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
        let mut adam = Adam::new(0.1);
        adam.set_learning_rate(0.01);
        let acts = model.forward_cached(&Matrix::from_rows(&[vec![1.0, -2.0]]));
        let grads = model.backward(&acts, &Matrix::from_vec(1, 1, vec![1.0]));
        adam.step(&mut model, &grads);
        let (old, new) = (&before.layers()[0], &model.layers()[0]);
        let moved = old.weights().data().iter().zip(new.weights().data());
        for (a, b) in moved.chain(old.bias().iter().zip(new.bias())) {
            assert!(((a - b).abs() - 0.01).abs() < 1e-5, "{a} -> {b}");
        }
    }
}
