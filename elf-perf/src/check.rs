//! Output checks, all outside timed regions.  A violation is counted as a
//! failed operation and reported; it never panics the run.

use elf_aig::{check_equivalence, Aig};

/// Random-simulation rounds (64 patterns each) of an equivalence check.
const SIM_ROUNDS: usize = 16;

/// FNV-1a hash of the reachable AND structure and the outputs: equal values
/// mean the same network node for node (ids, fanins, polarities).
pub fn fingerprint(aig: &Aig) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |value: u64| {
        hash ^= value;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    };
    mix(aig.num_inputs() as u64);
    for id in aig.topological_order() {
        let (f0, f1) = aig.fanins(id);
        mix(u64::from(id.index()));
        for fanin in [f0, f1] {
            mix(u64::from(fanin.node().index()) << 1 | u64::from(fanin.is_complemented()));
        }
    }
    for output in aig.outputs() {
        mix(u64::from(output.node().index()) << 1 | u64::from(output.is_complemented()));
    }
    hash
}

/// Folds input fingerprints (circuits in run order, arrival schedules) into
/// one exact reading: equal seeds must give equal values, and a result says
/// which inputs it was taken on.  48 bits, so an `f64` holds it exactly.
pub fn inputs_print(parts: impl IntoIterator<Item = u64>) -> f64 {
    let folded = parts
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |hash, part| {
            (hash ^ part).wrapping_mul(0x0000_0100_0000_01b3)
        });
    (folded >> 16) as f64
}

/// Whether `output` computes what `input` does, by exhaustive or random
/// simulation (`elf_aig::check_equivalence`).
pub fn same_function(input: &Aig, output: &Aig, seed: u64) -> bool {
    input.num_inputs() == output.num_inputs()
        && input.num_outputs() == output.num_outputs()
        && check_equivalence(input, output, SIM_ROUNDS, seed).holds()
}

/// Counts operations attempted and failed, and keeps the first few reasons.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output was wrong.
    pub failed: u64,
    /// Why, for the first failures.
    pub reasons: Vec<String>,
}

impl Ops {
    /// Counts one operation; `problem` says what was wrong with it, if anything.
    pub fn record(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(reason) = problem {
            self.failed += 1;
            if self.reasons.len() < 8 {
                self.reasons.push(reason);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_gate(flip: bool) -> Aig {
        let mut aig = Aig::new();
        let i = aig.add_inputs(3);
        let t = aig.and(i[0], i[1]);
        let r = aig.and(t, i[2].complement_if(flip));
        aig.add_output(r);
        aig
    }

    #[test]
    fn fingerprint_and_function_tell_circuits_apart() {
        assert_eq!(fingerprint(&two_gate(false)), fingerprint(&two_gate(false)));
        assert_ne!(fingerprint(&two_gate(false)), fingerprint(&two_gate(true)));
        assert!(same_function(&two_gate(false), &two_gate(false), 1));
        assert!(!same_function(&two_gate(false), &two_gate(true), 1));
    }

    #[test]
    fn ops_count_failures_with_reasons() {
        let mut ops = Ops::default();
        ops.record(None);
        ops.record(Some("wrong".into()));
        assert_eq!((ops.attempted, ops.failed), (2, 1));
        assert_eq!(ops.reasons, ["wrong"]);
    }
}
