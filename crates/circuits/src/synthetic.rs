//! Large synthetic circuits (the paper's Table VI workloads).
//!
//! The EPFL suite ships three "more-than-a-million-gates" synthetic
//! benchmarks (`sixteen`, `twenty`, `twentythree`, with 16.2, 20.7 and 23.3
//! million AND gates).  They exist purely to stress scalability, so this
//! module reproduces them with the random-netlist generator at the requested
//! node count.  A scale factor lets the default harness run minute-scale
//! versions while `--scale full` reproduces the multi-million-node runs.
//! [`generate_large_circuit`] dials in an exact AND-gate budget instead
//! ("give me a 1M-node circuit") with the same generator and sizing rule.

use elf_aig::Aig;

use crate::industrial::generate_random_netlist;

/// Descriptor of one synthetic benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyntheticSpec {
    /// Benchmark name.
    pub name: &'static str,
    /// Full-size AND-gate count (as in the EPFL suite).
    pub full_ands: usize,
}

/// The three Table VI benchmarks.
pub const TABLE6_SPECS: [SyntheticSpec; 3] = [
    SyntheticSpec {
        name: "sixteen",
        full_ands: 16_216_836,
    },
    SyntheticSpec {
        name: "twenty",
        full_ands: 20_732_893,
    },
    SyntheticSpec {
        name: "twentythree",
        full_ands: 23_339_737,
    },
];

/// Generates one synthetic benchmark at `scale` (1.0 = full size).
pub fn generate_synthetic(spec: &SyntheticSpec, scale: f64, seed: u64) -> Aig {
    assert!(scale > 0.0, "scale must be positive");
    let target = (((spec.full_ands as f64) * scale).round() as usize).max(1000);
    sized_netlist(spec.name, target, seed)
}

/// Generates a deterministic circuit named `large_<target_ands>` with
/// roughly `target_ands` AND gates, sized like the Table VI family.
///
/// # Examples
///
/// ```
/// use elf_circuits::generate_large_circuit;
///
/// let aig = generate_large_circuit(20_000, 42);
/// let ands = aig.num_reachable_ands();
/// assert!(ands > 10_000 && ands < 40_000);
/// ```
pub fn generate_large_circuit(target_ands: usize, seed: u64) -> Aig {
    assert!(target_ands >= 16, "target too small to be interesting");
    sized_netlist(&format!("large_{target_ands}"), target_ands, seed)
}

/// The one sizing rule: wide, moderately deep random logic with a small
/// redundant fraction, matching the ~1% refactor rate of the EPFL synthetic
/// family.  Interface width grows with the gate budget (a few hundred gates
/// per input, as in the published synthetic profiles).
fn sized_netlist(name: &str, target: usize, seed: u64) -> Aig {
    let inputs = (target / 200).clamp(64, 50_000);
    let outputs = (target / 300).clamp(32, 40_000);
    generate_random_netlist(name, inputs, outputs, target, 60, 0.02, seed)
}

/// Generates the whole Table VI family at the given scale.
pub fn synthetic_suite(scale: f64, seed: u64) -> Vec<(String, Aig)> {
    TABLE6_SPECS
        .iter()
        .enumerate()
        .map(|(index, spec)| {
            (
                spec.name.to_string(),
                generate_synthetic(spec, scale, seed.wrapping_add(index as u64)),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use elf_aig::simulation_signature;

    #[test]
    fn scaled_down_synthetic_has_requested_order_of_magnitude() {
        let spec = TABLE6_SPECS[0];
        let aig = generate_synthetic(&spec, 0.0005, 3);
        let ands = aig.num_reachable_ands();
        let target = (spec.full_ands as f64 * 0.0005) as usize;
        assert!(ands > target / 3, "too small: {ands} vs target {target}");
        assert!(ands < target * 2, "too large: {ands} vs target {target}");
        assert!(aig.check_invariants().is_empty());
    }

    #[test]
    fn specs_are_ordered_by_size() {
        assert!(TABLE6_SPECS[0].full_ands < TABLE6_SPECS[1].full_ands);
        assert!(TABLE6_SPECS[1].full_ands < TABLE6_SPECS[2].full_ands);
    }

    #[test]
    fn hits_the_requested_size() {
        let aig = generate_large_circuit(50_000, 7);
        let ands = aig.num_reachable_ands();
        assert!(
            ands > 25_000 && ands < 100_000,
            "unexpected size {ands} for a 50k target"
        );
        assert!(aig.check_invariants().is_empty());
        assert_eq!(aig.name(), "large_50000");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = generate_large_circuit(10_000, 3);
        let b = generate_large_circuit(10_000, 3);
        assert_eq!(
            simulation_signature(&a, 4, 0),
            simulation_signature(&b, 4, 0)
        );
        let c = generate_large_circuit(10_000, 4);
        assert_ne!(
            simulation_signature(&a, 4, 0),
            simulation_signature(&c, 4, 0)
        );
    }

    #[test]
    fn large_circuits_are_sized_like_table6() {
        let spec = TABLE6_SPECS[0];
        let target = 8_108;
        let scale = target as f64 / spec.full_ands as f64;
        let table6 = generate_synthetic(&spec, scale, 5);
        let large = generate_large_circuit(target, 5);
        assert_eq!(table6.name(), "sixteen");
        assert_eq!(large.name(), "large_8108");
        assert_eq!(large.num_reachable_ands(), table6.num_reachable_ands());
        assert_eq!(
            simulation_signature(&large, 4, 0),
            simulation_signature(&table6, 4, 0)
        );
    }
}
