//! Property-based tests for truth tables, ISOP and factoring.

use elf_sop::{factor, Sop, TruthTable};
use proptest::prelude::*;

fn arbitrary_truth_table(num_vars: usize) -> impl Strategy<Value = TruthTable> {
    let bits = 1usize << num_vars;
    prop::collection::vec(any::<bool>(), bits)
        .prop_map(move |values| TruthTable::from_fn(num_vars, |m| values[m]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The ISOP cover reproduces the original function exactly, on tables
    /// narrower than a word, of one word, and of up to sixteen (the width of
    /// default refactor cuts).
    #[test]
    fn isop_is_exact(tt in (1usize..=10).prop_flat_map(arbitrary_truth_table)) {
        let sop = Sop::isop(&tt);
        prop_assert_eq!(sop.to_truth_table(), tt);
    }

    /// Every cube of the ISOP is an implicant (covers only ON-set minterms).
    #[test]
    fn isop_cubes_are_implicants(tt in (1usize..=5).prop_flat_map(arbitrary_truth_table)) {
        let sop = Sop::isop(&tt);
        for cube in sop.cubes() {
            prop_assert!(cube.to_truth_table(tt.num_vars()).implies(&tt));
        }
    }

    /// The ISOP is irredundant: removing any cube uncovers some minterm.
    #[test]
    fn isop_is_irredundant(tt in (1usize..=5).prop_flat_map(arbitrary_truth_table)) {
        let sop = Sop::isop(&tt);
        let cubes = sop.cubes();
        for skip in 0..cubes.len() {
            let reduced: Vec<_> = cubes
                .iter()
                .enumerate()
                .filter_map(|(i, c)| (i != skip).then_some(*c))
                .collect();
            let reduced = Sop::from_cubes(tt.num_vars(), reduced);
            prop_assert_ne!(reduced.to_truth_table(), tt.clone(), "cube {} is redundant", skip);
        }
    }

    /// Factoring preserves the function and never uses more gates than the
    /// flat SOP implementation.
    #[test]
    fn factoring_is_correct_and_no_worse_than_sop(
        tt in (1usize..=6).prop_flat_map(arbitrary_truth_table)
    ) {
        let sop = Sop::isop(&tt);
        let expr = factor(&sop);
        prop_assert_eq!(expr.to_truth_table(tt.num_vars()), tt);
        if !sop.is_empty() {
            // Flat SOP cost: (literals - 1 per cube) ANDs + (cubes - 1) ORs.
            let flat_cost: usize = sop
                .cubes()
                .iter()
                .map(|c| c.num_literals().saturating_sub(1))
                .sum::<usize>()
                + sop.num_cubes().saturating_sub(1);
            prop_assert!(expr.num_gates() <= flat_cost.max(1));
        }
    }

    /// Cofactors are consistent with the Shannon expansion.
    #[test]
    fn shannon_expansion(tt in (2usize..=6).prop_flat_map(arbitrary_truth_table), var_raw in 0usize..6) {
        let var = var_raw % tt.num_vars();
        let x = TruthTable::var(var, tt.num_vars());
        let reconstructed = &(&x & &tt.cofactor1(var)) | &(&!&x & &tt.cofactor0(var));
        prop_assert_eq!(reconstructed, tt);
    }

    /// Double complement and De Morgan hold for the operators.
    #[test]
    fn boolean_algebra_laws(
        a in (3usize..=5).prop_flat_map(arbitrary_truth_table),
    ) {
        let n = a.num_vars();
        let b = TruthTable::var(0, n);
        prop_assert_eq!(!&!&a, a.clone());
        prop_assert_eq!(!&(&a & &b), &!&a | &!&b);
        prop_assert_eq!(&a ^ &a, TruthTable::zeros(n));
        prop_assert_eq!(&a | &TruthTable::zeros(n), a.clone());
        prop_assert_eq!(&a & &TruthTable::ones(n), a.clone());
    }
}
