//! Free-list recycling soundness: heavy `rf; rw; rs` churn must keep the
//! circuit's function and every structural invariant intact, and keep the
//! arena proportional to the live nodes instead of growing with the total
//! number of commits.

use elf_aig::{check_equivalence, Aig, EquivalenceResult};
use elf_circuits::{generate_large_circuit, script_strategy, scripted_circuit};
use elf_opt::{Refactor, RefactorParams, Resubstitution, Rewrite};
use proptest::prelude::*;

/// One heavy optimization pass: zero-gain refactor (commits even when the
/// gain is zero, maximizing slot churn), then rewrite, then resubstitution.
fn churn_pass(aig: &mut Aig) {
    let params = RefactorParams {
        zero_gain: true,
        ..Default::default()
    };
    let _ = Refactor::new(params).run(aig);
    let _ = Rewrite::default().run(aig);
    let _ = Resubstitution.run(aig);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Recycling is invisible: every pass of the heavy flow leaves the
    /// input circuit's function and clean invariants (among them: the free
    /// list holds exactly the dead slots).
    #[test]
    fn recycling_preserves_function_and_invariants_under_heavy_flow(
        script in script_strategy(40),
    ) {
        let source = scripted_circuit(6, &script);
        let mut recycled = source.clone();
        for pass in 0..3 {
            churn_pass(&mut recycled);
            prop_assert!(
                recycled.check_invariants().is_empty(),
                "pass {}: {:?}", pass, recycled.check_invariants()
            );
            prop_assert_eq!(
                check_equivalence(&source, &recycled, 16, 0xE1F),
                EquivalenceResult::Equivalent,
                "pass {} changed the circuit's function", pass
            );
        }
    }
}

/// After a long multi-pass flow on a dense (freshly restrashed) graph the
/// arena must stay within a constant factor of the live nodes: every slot
/// freed by a commit is handed back to later insertions.
#[test]
fn arena_stays_proportional_to_live_nodes_after_long_flow() {
    let mut aig = generate_large_circuit(12_000, 7);
    churn_pass(&mut aig);
    // Generation-time dead logic inflates the initial arena; restrash packs
    // it so the remaining growth is attributable to the optimizers alone.
    let mut dense = aig.restrash();
    for pass in 0..3 {
        churn_pass(&mut dense);
        assert!(
            dense.check_invariants().is_empty(),
            "pass {pass}: {:?}",
            dense.check_invariants()
        );
    }
    let ratio = dense.num_slots() as f64 / dense.num_live_nodes() as f64;
    assert!(
        ratio <= 1.1,
        "arena holds {} slots for {} live nodes ({ratio:.3}x) — recycling regressed",
        dense.num_slots(),
        dense.num_live_nodes()
    );
}
