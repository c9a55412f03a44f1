//! Fully-connected layers and activations.

use rand::Rng;

use crate::matrix::Matrix;

/// Element-wise activation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Rectified linear unit.
    Relu,
    /// Logistic sigmoid.
    Sigmoid,
}

impl Activation {
    /// Applies the activation to a single value.
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
        }
    }

    /// Applies the activation to every value of a slice (the match taken
    /// once, so the loop vectorizes).
    pub(crate) fn apply_all(self, values: &mut [f32]) {
        match self {
            Activation::Relu => values
                .iter_mut()
                .for_each(|v| *v = Activation::Relu.apply(*v)),
            Activation::Sigmoid => values
                .iter_mut()
                .for_each(|v| *v = Activation::Sigmoid.apply(*v)),
        }
    }

    /// Derivative of the activation expressed in terms of its *output* value.
    pub fn derivative_from_output(self, y: f32) -> f32 {
        match self {
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Sigmoid => y * (1.0 - y),
        }
    }
}

/// A dense (fully-connected) layer `y = act(x W + b)`.
///
/// Weights are stored as an `input x output` matrix so a batch of inputs
/// (`N x input`) multiplies directly into a batch of outputs (`N x output`).
#[derive(Debug, Clone, PartialEq)]
pub struct Dense {
    pub(crate) weights: Matrix,
    pub(crate) bias: Vec<f32>,
    activation: Activation,
}

impl Dense {
    /// Creates a layer with Xavier-uniform initialized weights and zero biases
    /// (the initialization used in the paper).
    pub fn xavier(
        inputs: usize,
        outputs: usize,
        activation: Activation,
        rng: &mut impl Rng,
    ) -> Self {
        let limit = (6.0f32 / (inputs + outputs) as f32).sqrt();
        let mut weights = Matrix::zeros(inputs, outputs);
        for value in weights.data_mut() {
            *value = rng.gen_range(-limit..=limit);
        }
        Dense {
            weights,
            bias: vec![0.0; outputs],
            activation,
        }
    }

    /// Creates a layer from explicit weights and biases.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len()` does not match the weight matrix's column count.
    pub fn from_parts(weights: Matrix, bias: Vec<f32>, activation: Activation) -> Self {
        assert_eq!(weights.cols(), bias.len(), "bias length must match outputs");
        Dense {
            weights,
            bias,
            activation,
        }
    }

    /// Number of input features.
    pub fn inputs(&self) -> usize {
        self.weights.rows()
    }

    /// Number of output features.
    pub fn outputs(&self) -> usize {
        self.weights.cols()
    }

    /// The layer's activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// The weight matrix (`inputs x outputs`).
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// The bias vector.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Number of trainable parameters (weights plus biases).
    pub fn num_params(&self) -> usize {
        self.weights.rows() * self.weights.cols() + self.bias.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn activations_behave() {
        assert_eq!(Activation::Relu.apply(-2.0), 0.0);
        assert_eq!(Activation::Relu.apply(3.0), 3.0);
        assert!((Activation::Sigmoid.apply(0.0) - 0.5).abs() < 1e-6);
        assert_eq!(Activation::Relu.derivative_from_output(0.0), 0.0);
        assert_eq!(Activation::Relu.derivative_from_output(2.0), 1.0);
        assert!((Activation::Sigmoid.derivative_from_output(0.5) - 0.25).abs() < 1e-6);
    }

    #[test]
    fn xavier_initialization_is_bounded_and_biases_zero() {
        let mut rng = StdRng::seed_from_u64(1);
        let layer = Dense::xavier(6, 12, Activation::Relu, &mut rng);
        let limit = (6.0f32 / 18.0).sqrt();
        assert!(layer
            .weights()
            .data()
            .iter()
            .all(|w| w.abs() <= limit + 1e-6));
        assert!(layer.bias().iter().all(|&b| b == 0.0));
        assert_eq!(layer.num_params(), 6 * 12 + 12);
        assert_eq!(layer.inputs(), 6);
        assert_eq!(layer.outputs(), 12);
    }

    #[test]
    fn forward_matches_hand_computation() {
        let weights = Matrix::from_rows(&[vec![1.0, -1.0], vec![2.0, 0.5]]);
        let layer = Dense::from_parts(weights, vec![0.5, -0.5], Activation::Relu);
        let mut y = [0.0; 2];
        crate::matrix::forward(&[1.0, 1.0], 1, layer.weights(), layer.bias(), &mut y);
        layer.activation().apply_all(&mut y);
        // pre-activation: [1*1 + 1*2 + 0.5, 1*-1 + 1*0.5 - 0.5] = [3.5, -1.0]
        assert_eq!(y, [3.5, 0.0]);
    }
}
