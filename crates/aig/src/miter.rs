//! Miter construction: the combinational-equivalence reduction.
//!
//! A *miter* of two circuits with matched primary inputs and outputs is a
//! single-output circuit that evaluates to 1 exactly on the input vectors
//! where the two circuits disagree: each output pair is XORed and the XORs
//! are OR-reduced.  The two cones share the same primary inputs (matched by
//! position) and are built through the structural hash, so logic the two
//! circuits have in common is represented once — which is what makes the
//! simulation-guided SAT sweep of `elf-cec` effective.

use std::error::Error;
use std::fmt;

use crate::aig::Aig;
use crate::lit::Lit;

/// Why a miter could not be formed: the two circuits do not have matching
/// primary interfaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MiterError {
    /// The circuits disagree on the number of primary inputs.
    InputCount {
        /// Inputs of the left circuit.
        left: usize,
        /// Inputs of the right circuit.
        right: usize,
    },
    /// The circuits disagree on the number of primary outputs.
    OutputCount {
        /// Outputs of the left circuit.
        left: usize,
        /// Outputs of the right circuit.
        right: usize,
    },
}

impl fmt::Display for MiterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MiterError::InputCount { left, right } => {
                write!(f, "input count mismatch: {left} vs {right} primary inputs")
            }
            MiterError::OutputCount { left, right } => {
                write!(
                    f,
                    "output count mismatch: {left} vs {right} primary outputs"
                )
            }
        }
    }
}

impl Error for MiterError {}

impl Aig {
    /// Copies `other`'s output cones into `self`, substituting
    /// `input_map[i]` for `other`'s `i`-th primary input, and returns
    /// `other`'s output literals expressed in `self`.
    ///
    /// Only logic reachable from `other`'s outputs is copied.  New AND gates
    /// go through `self`'s structural hash, so structure `self` already
    /// contains is reused rather than duplicated — appending a circuit to
    /// itself over the same inputs creates no new nodes.  `self` is sized
    /// for `other`'s ANDs once, up front.
    ///
    /// # Panics
    ///
    /// Panics if `input_map.len()` differs from `other.num_inputs()`.
    pub fn append_mapped(&mut self, other: &Aig, input_map: &[Lit]) -> Vec<Lit> {
        assert_eq!(
            input_map.len(),
            other.num_inputs(),
            "one mapped literal per primary input of the appended circuit"
        );
        // `map[id]` is the literal of `other`'s node `id` in `self`; the
        // constant node 0 maps to constant false.
        self.reserve(other.num_ands());
        let mut map: Vec<Lit> = vec![Lit::FALSE; other.num_slots()];
        for (input, &lit) in other.inputs().iter().zip(input_map) {
            map[input.as_usize()] = lit;
        }
        let translate = |map: &[Lit], lit: Lit| -> Lit {
            if lit.node().is_const0() {
                Lit::FALSE.complement_if(lit.is_complemented())
            } else {
                map[lit.node().as_usize()].complement_if(lit.is_complemented())
            }
        };
        for id in other.topological_order() {
            let (f0, f1) = other.fanins(id);
            let a = translate(&map, f0);
            let b = translate(&map, f1);
            map[id.as_usize()] = self.and(a, b);
        }
        other
            .outputs()
            .iter()
            .map(|&out| translate(&map, out))
            .collect()
    }
}

/// Builds the miter of two circuits with matched primary interfaces.
///
/// The result has `a.num_inputs()` primary inputs (shared by both cones,
/// matched by position) and exactly one primary output that is 1 iff the
/// circuits disagree on some output under the applied input vector.  When
/// structural hashing collapses the two cones completely, the output is the
/// constant-false literal and equivalence is decided without any solver.
///
/// # Errors
///
/// Returns a [`MiterError`] when the input or output counts differ.
///
/// # Examples
///
/// ```
/// use elf_aig::{miter, Aig, Lit};
///
/// let mut a = Aig::new();
/// let ins = a.add_inputs(2);
/// let f = a.and(ins[0], ins[1]);
/// a.add_output(f);
///
/// // De Morgan twin: x & y == !(!x | !y).
/// let mut b = Aig::new();
/// let ins = b.add_inputs(2);
/// let g = b.or(!ins[0], !ins[1]);
/// b.add_output(!g);
///
/// let m = miter(&a, &b).unwrap();
/// assert_eq!(m.num_outputs(), 1);
/// // Structural hashing collapses the identical functions on the spot.
/// assert_eq!(m.outputs()[0], Lit::FALSE);
/// ```
pub fn miter(a: &Aig, b: &Aig) -> Result<Aig, MiterError> {
    if a.num_inputs() != b.num_inputs() {
        return Err(MiterError::InputCount {
            left: a.num_inputs(),
            right: b.num_inputs(),
        });
    }
    if a.num_outputs() != b.num_outputs() {
        return Err(MiterError::OutputCount {
            left: a.num_outputs(),
            right: b.num_outputs(),
        });
    }
    let mut m = Aig::new();
    // Both circuits' ANDs, and an XOR (three ANDs) and an OR per output pair.
    m.reserve(a.num_inputs() + a.num_ands() + b.num_ands() + 4 * a.num_outputs());
    let inputs = m.add_inputs(a.num_inputs());
    let outs_a = m.append_mapped(a, &inputs);
    let outs_b = m.append_mapped(b, &inputs);
    let mut diff = Lit::FALSE;
    for (&x, &y) in outs_a.iter().zip(&outs_b) {
        let differs = m.xor(x, y);
        diff = m.or(diff, differs);
    }
    m.add_output(diff);
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn half_adder() -> Aig {
        let mut aig = Aig::new();
        let ins = aig.add_inputs(2);
        let sum = aig.xor(ins[0], ins[1]);
        let carry = aig.and(ins[0], ins[1]);
        aig.add_output(sum);
        aig.add_output(carry);
        aig
    }

    #[test]
    fn identical_circuits_collapse_to_a_constant_false_miter() {
        let a = half_adder();
        let m = miter(&a, &a).unwrap();
        assert_eq!(m.num_inputs(), 2);
        assert_eq!(m.num_outputs(), 1);
        assert_eq!(m.outputs()[0], Lit::FALSE);
        assert!(m.check_invariants().is_empty());
    }

    #[test]
    fn the_miter_fires_exactly_on_disagreements() {
        let a = half_adder();
        // Break the carry: OR instead of AND.
        let mut b = Aig::new();
        let ins = b.add_inputs(2);
        let sum = b.xor(ins[0], ins[1]);
        let carry = b.or(ins[0], ins[1]);
        b.add_output(sum);
        b.add_output(carry);

        let m = miter(&a, &b).unwrap();
        for pattern in 0..4u32 {
            let bits = [pattern & 1 == 1, pattern & 2 == 2];
            let va = a.evaluate(&bits);
            let vb = b.evaluate(&bits);
            let vm = m.evaluate(&bits);
            assert_eq!(vm[0], va != vb, "miter wrong on {bits:?}");
        }
    }

    #[test]
    fn mismatched_interfaces_are_rejected() {
        let a = half_adder();
        let mut b = Aig::new();
        b.add_inputs(3);
        b.add_output(Lit::FALSE);
        assert!(matches!(
            miter(&a, &b),
            Err(MiterError::InputCount { left: 2, right: 3 })
        ));

        let mut c = Aig::new();
        let ins = c.add_inputs(2);
        c.add_output(ins[0]);
        let err = miter(&a, &c).unwrap_err();
        assert!(matches!(err, MiterError::OutputCount { left: 2, right: 1 }));
        assert!(err.to_string().contains("output count"));
    }

    #[test]
    fn append_mapped_reuses_existing_structure() {
        let a = half_adder();
        let mut host = Aig::new();
        let inputs = host.add_inputs(2);
        let first = host.append_mapped(&a, &inputs);
        let ands_once = host.num_ands();
        let second = host.append_mapped(&a, &inputs);
        assert_eq!(first, second, "same cone over same inputs: same literals");
        assert_eq!(host.num_ands(), ands_once, "strash must deduplicate");
    }
}
