//! Plain-text serialization of trained models.
//!
//! The deployed ELF classifier is tiny (325 parameters), so a simple
//! line-oriented text format is used instead of pulling in a serialization
//! dependency.  The format stores, per layer: dimensions, activation, the
//! weight matrix in row-major order and the bias vector.

use std::error::Error;
use std::fmt;
use std::str::FromStr;

use crate::layer::{Activation, Dense};
use crate::matrix::Matrix;
use crate::model::Mlp;

/// Error returned when parsing a serialized model fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseModelError {
    message: String,
}

impl ParseModelError {
    fn new(message: impl Into<String>) -> Self {
        ParseModelError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid model text: {}", self.message)
    }
}

impl Error for ParseModelError {}

fn activation_name(activation: Activation) -> &'static str {
    match activation {
        Activation::Relu => "relu",
        Activation::Sigmoid => "sigmoid",
    }
}

fn activation_from_name(name: &str) -> Result<Activation, ParseModelError> {
    match name {
        "relu" => Ok(Activation::Relu),
        "sigmoid" => Ok(Activation::Sigmoid),
        other => Err(ParseModelError::new(format!(
            "unknown activation `{other}`"
        ))),
    }
}

/// Serializes a model to a text representation.
pub fn model_to_text(model: &Mlp) -> String {
    let mut out = String::new();
    out.push_str(&format!("mlp {}\n", model.layers().len()));
    for layer in model.layers() {
        out.push_str(&format!(
            "layer {} {} {}\n",
            layer.inputs(),
            layer.outputs(),
            activation_name(layer.activation())
        ));
        let weights: Vec<String> = layer
            .weights()
            .data()
            .iter()
            .map(|w| format!("{w:e}"))
            .collect();
        out.push_str(&weights.join(" "));
        out.push('\n');
        let bias: Vec<String> = layer.bias().iter().map(|b| format!("{b:e}")).collect();
        out.push_str(&bias.join(" "));
        out.push('\n');
    }
    out
}

/// Parses a model from the text produced by [`model_to_text`].
///
/// # Errors
///
/// Returns [`ParseModelError`] if the header, a dimension, an activation name
/// or a numeric value is malformed, or if a weight or bias is not finite.
pub fn model_from_text(text: &str) -> Result<Mlp, ParseModelError> {
    let mut lines = text.lines();
    let header = lines
        .next()
        .ok_or_else(|| ParseModelError::new("empty input"))?;
    let mut parts = header.split_whitespace();
    if parts.next() != Some("mlp") {
        return Err(ParseModelError::new("header must start with `mlp`"));
    }
    let count: usize = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| ParseModelError::new("missing layer count"))?;
    // The count is untrusted: layers are pushed as they parse, not reserved.
    let mut layers = Vec::new();
    for _ in 0..count {
        let meta = lines
            .next()
            .ok_or_else(|| ParseModelError::new("missing layer header"))?;
        let fields: Vec<&str> = meta.split_whitespace().collect();
        if fields.len() != 4 || fields[0] != "layer" {
            return Err(ParseModelError::new(
                "layer header must be `layer IN OUT ACT`",
            ));
        }
        let inputs: usize = fields[1]
            .parse()
            .map_err(|_| ParseModelError::new("bad input dimension"))?;
        let outputs: usize = fields[2]
            .parse()
            .map_err(|_| ParseModelError::new("bad output dimension"))?;
        let activation = activation_from_name(fields[3])?;
        let weights = parse_floats(
            lines
                .next()
                .ok_or_else(|| ParseModelError::new("missing weight row"))?,
        )?;
        if inputs.checked_mul(outputs) != Some(weights.len()) {
            return Err(ParseModelError::new("weight count mismatch"));
        }
        let bias = parse_floats(
            lines
                .next()
                .ok_or_else(|| ParseModelError::new("missing bias row"))?,
        )?;
        if bias.len() != outputs {
            return Err(ParseModelError::new("bias count mismatch"));
        }
        layers.push(Dense::from_parts(
            Matrix::from_vec(inputs, outputs, weights),
            bias,
            activation,
        ));
    }
    Ok(Mlp::from_layers(layers))
}

/// The finite numbers of one whitespace-separated row: a `NaN` or infinite
/// weight would load and then decide every cut alike.
fn parse_floats(line: &str) -> Result<Vec<f32>, ParseModelError> {
    line.split_whitespace()
        .map(|s| match f32::from_str(s) {
            Ok(value) if value.is_finite() => Ok(value),
            Ok(_) => Err(ParseModelError::new(format!("non-finite value `{s}`"))),
            Err(_) => Err(ParseModelError::new(format!("bad float `{s}`"))),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_preserves_predictions() {
        let model = Mlp::paper_architecture(21);
        let text = model_to_text(&model);
        let parsed = model_from_text(&text).expect("round trip");
        let x = [[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [0.0; 6]];
        for (original, restored) in model.predict(&x).iter().zip(parsed.predict(&x)) {
            assert!((original - restored).abs() < 1e-6);
        }
        assert_eq!(parsed.num_params(), 325);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(model_from_text("").is_err());
        assert!(model_from_text("mlp x").is_err());
        assert!(model_from_text("mlp 1\nlayer 2 2 bogus\n1 2 3 4\n0 0\n").is_err());
        assert!(model_from_text("mlp 1\nlayer 2 2 relu\n1 2 3\n0 0\n").is_err());
        assert!(model_from_text("mlp 1\nlayer 2 2 relu\n1 2 3 4\n0\n").is_err());
        assert!(model_from_text("mlp 1\nlayer 2 2 identity\n1 2 3 4\n0 0\n").is_err());
        // Non-finite weights and biases would load and then decide every cut
        // alike.
        for bad in ["NaN", "nan", "inf", "-inf", "infinity", "1e39"] {
            let weights = format!("mlp 1\nlayer 2 2 relu\n1 {bad} 3 4\n0 0\n");
            assert!(model_from_text(&weights).is_err(), "{weights}");
            let bias = format!("mlp 1\nlayer 2 2 relu\n1 2 3 4\n0 {bad}\n");
            assert!(model_from_text(&bias).is_err(), "{bias}");
        }
        // Counts nothing could hold are errors, not allocations or overflows.
        assert!(model_from_text("mlp 18446744073709551615\n").is_err());
        assert!(model_from_text("mlp 1\nlayer 4294967296 4294967297 relu\n\n0\n").is_err());
    }
}
