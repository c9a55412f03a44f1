//! `Aig::cut_features_with` counts the cut fanout and the reconvergent nodes
//! from the cone's fanin edges, tallied in its scratch's count column, and
//! `Aig::cut_features` is that routine on a scratch kept per thread.  These
//! tests hold both to the definition — a scan
//! of the fanout list of every cone node and every leaf, each consumer
//! looked up in the cone — on every node of scripted circuits at every leaf
//! bound from 2 to 16, before and after operator churn has reordered fanout
//! lists and recycled slots, and on the arithmetic and industrial circuits
//! the benchmark runs.

use elf_aig::{Aig, Cut, CutFeatures, CutParams, CutScratch, Fanout, NodeId};
use elf_circuits::epfl::{arithmetic_circuit, Scale};
use elf_circuits::{industrial_suite, script_strategy, scripted_circuit};
use elf_opt::{Refactor, RefactorParams, Resubstitution, Rewrite};
use proptest::prelude::*;

/// The six features by their fanout-side definition (what `cut_features`
/// computed before it counted from the fanin side).
fn features_by_fanout_scan(aig: &Aig, cut: &Cut) -> CutFeatures {
    let in_cone = |id: NodeId| cut.cone.contains(&id);
    let mut cut_fanout = 0usize;
    let mut reconvergent = 0usize;
    for &node in &cut.cone {
        let mut internal_consumers = 0usize;
        for fanout in aig.fanouts(node) {
            match fanout {
                Fanout::Node(consumer) if in_cone(consumer) => internal_consumers += 1,
                _ => cut_fanout += 1,
            }
        }
        if node != cut.root && internal_consumers >= 2 {
            reconvergent += 1;
        }
    }
    for &leaf in &cut.leaves {
        let internal_consumers = aig
            .fanouts(leaf)
            .filter(|fanout| matches!(fanout, Fanout::Node(c) if in_cone(*c)))
            .count();
        if internal_consumers >= 2 {
            reconvergent += 1;
        }
    }
    CutFeatures {
        root_fanout: aig.refs(cut.root) as f32,
        root_level: aig.level(cut.root) as f32,
        cut_fanout: cut_fanout as f32,
        cut_size: cut.size() as f32,
        reconvergent: reconvergent as f32,
        leaves: cut.num_leaves() as f32,
    }
}

/// Checks every live AND node's cut at `max_leaves`, through both entry
/// points (the scratch reused across the cuts, as the sweep reuses it),
/// returning how many.
fn check_every_cut(aig: &Aig, params: &CutParams) -> usize {
    let (mut scratch, mut cut) = (CutScratch::new(), Cut::empty());
    let nodes: Vec<NodeId> = aig.and_ids().collect();
    for &node in &nodes {
        aig.reconvergence_cut_with(node, params, &mut scratch, &mut cut);
        let scan = features_by_fanout_scan(aig, &cut)
            .to_array()
            .map(f32::to_bits);
        for fanin_side in [
            aig.cut_features_with(&cut, &mut scratch),
            aig.cut_features(&cut),
        ] {
            assert_eq!(
                fanin_side.to_array().map(f32::to_bits),
                scan,
                "node {node:?} at {params:?}: {cut:?}"
            );
        }
    }
    nodes.len()
}

/// The churn the benchmark's flows put a graph through: zero-gain refactor
/// (many commits), rewrite, resub.
fn churn(aig: &mut Aig) {
    let zero_gain = RefactorParams {
        zero_gain: true,
        ..Default::default()
    };
    Refactor::new(zero_gain).run(aig);
    Rewrite::default().run(aig);
    Resubstitution.run(aig);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fanin_side_features_equal_the_fanout_scan(
        script in script_strategy(60),
        max_leaves in 2usize..=16,
    ) {
        let params = CutParams::with_max_leaves(max_leaves);
        let mut aig = scripted_circuit(6, &script);
        check_every_cut(&aig, &params);
        churn(&mut aig);
        prop_assert!(aig.check_invariants().is_empty());
        check_every_cut(&aig, &params);
        // Dangling nodes (kept by the operators, not by a scripted circuit)
        // have cuts too.
        churn(&mut aig);
        check_every_cut(&aig, &params);
    }
}

/// The multiplier's primary inputs feed dozens of nodes each (the scan's
/// worst case), the divider's cones are deep, an industrial design's
/// irregular; three cut sizes, before and after a refactor pass.
#[test]
fn fanin_side_features_equal_the_fanout_scan_on_benchmark_circuits() {
    let (_, industrial) = industrial_suite(0.003, 1).swap_remove(0);
    let circuits = [
        arithmetic_circuit("multiplier", Scale::Tiny),
        arithmetic_circuit("div", Scale::Tiny),
        industrial,
    ];
    let mut checked = 0;
    for mut aig in circuits {
        for max_leaves in [4, 10, 16] {
            checked += check_every_cut(&aig, &CutParams::with_max_leaves(max_leaves));
        }
        Refactor::default().run(&mut aig);
        checked += check_every_cut(&aig, &CutParams::default());
    }
    assert!(checked > 5_000, "{checked} cuts");
}
