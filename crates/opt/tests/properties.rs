//! Property-based tests: every optimization operator must preserve the
//! function of the network and never increase the reachable node count.

use elf_aig::{check_equivalence, Aig, Cut, EquivalenceResult, Lit, NodeId};
use elf_circuits::{script_strategy, scripted_circuit};
use elf_opt::{
    build_expr, count_new_nodes, cut_truth_table, CutCache, CutCacheConfig, OpStats,
    PrunableOperator, Refactor, RefactorParams, Resubstitution, Rewrite,
};
use elf_par::Parallelism;
use proptest::prelude::*;

/// A deterministic pseudo-random keep/prune decision derived from the node id
/// and a proptest-chosen mask, so pruned runs are reproducible.
fn pseudo_random_keep(node: NodeId, mask: u64) -> bool {
    let mut x = node.index() as u64 ^ mask;
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x & 1 == 0
}

/// Runs `operator` keeping a pseudo-random subset of the swept nodes and
/// checks that the result is combinationally equivalent to the input and
/// structurally sound.
fn check_pruned_run<O: PrunableOperator>(operator: &O, mut aig: Aig, mask: u64, sim_seed: u64) {
    let golden = aig.clone();
    let before = aig.num_reachable_ands();
    let stats = operator.run_batched(&mut aig, Parallelism::sequential(), |rows| {
        let keep = |&(node, _): &_| pseudo_random_keep(node, mask);
        rows.iter().map(keep).collect()
    });
    assert!(aig.num_reachable_ands() <= before);
    assert_eq!(
        stats.cuts_pruned + stats.cuts_resynthesized,
        stats.nodes_visited
    );
    assert!(
        aig.check_invariants().is_empty(),
        "{:?}",
        aig.check_invariants()
    );
    assert_eq!(
        check_equivalence(&golden, &aig, 16, sim_seed),
        EquivalenceResult::Equivalent
    );
}

/// The refactor pass as it chose an implementation before
/// `CutCache::factor_both`: both polarities of every cut are factored on
/// their own and both are gain-evaluated.  Public API only; the reference
/// the operator is pinned against, node for node.
/// Like the operator, it rejects a candidate that would raise the root's
/// level.
fn refactor_evaluating_both_polarities(aig: &mut Aig, params: &RefactorParams, cache: &CutCache) {
    let targets: Vec<_> = aig.and_ids().map(|id| aig.token(id)).collect();
    let mut cut = Cut::empty();
    for token in targets {
        let node = token.id();
        if !aig.token_is_current(token) || aig.refs(node) == 0 {
            continue;
        }
        aig.reconvergence_cut_into(node, &params.cut, &mut cut);
        if cut.num_leaves() < params.min_leaves {
            continue;
        }
        let truth = cut_truth_table(aig, &cut);
        let leaf_lits: Vec<Lit> = cut.leaves.iter().map(|&l| l.lit()).collect();
        let candidates = [
            (cache.factor(&truth), false),
            (cache.factor(&!&truth), true),
        ];
        let saved = aig.deref_mffc_bounded(node, &cut.leaves) as i64;
        let root_level = aig.level(node);
        let mut best: Option<(usize, i64)> = None;
        for (index, (expr, _)) in candidates.iter().enumerate() {
            let cost = count_new_nodes(aig, expr, &leaf_lits, Some(node));
            if cost.level > root_level {
                continue;
            }
            let gain = saved - cost.new_nodes as i64;
            let better = best.is_none_or(|(best_index, best_gain)| {
                gain > best_gain
                    || (gain == best_gain
                        && expr.num_gates() < candidates[best_index].0.num_gates())
            });
            if better {
                best = Some((index, gain));
            }
        }
        aig.ref_mffc_bounded(node, &cut.leaves);
        let Some((index, gain)) = best else { continue };
        if !(gain > 0 || (params.zero_gain && gain >= 0)) {
            continue;
        }
        let (expr, complemented) = &candidates[index];
        aig.begin_speculation();
        let new_lit = build_expr(aig, expr, &leaf_lits).complement_if(*complemented);
        if new_lit.node() == node || aig.cone_contains(new_lit.node(), node) {
            aig.reject_speculation();
            continue;
        }
        aig.commit_speculation();
        aig.replace(node, new_lit);
    }
}

/// Every AND node followed by its fanin literals, then the output literals.
type Structure = (Vec<(NodeId, Lit, Lit)>, Vec<Lit>);

fn structure(aig: &Aig) -> Structure {
    let nodes = aig.and_ids().map(|id| {
        let (f0, f1) = aig.fanins(id);
        (id, f0, f1)
    });
    (nodes.collect(), aig.outputs().to_vec())
}

/// What every keep-everything twin of a pass must reproduce: the plain
/// pass's network, node for node, and its statistics but for the wall clock
/// and the windows a batched pass reused (a plain pass keeps none).
fn outcome(aig: &Aig, stats: &OpStats) -> (Structure, OpStats) {
    let counters = OpStats {
        runtime: std::time::Duration::ZERO,
        windows_reused: 0,
        ..*stats
    };
    (structure(aig), counters)
}

/// Runs `operator` on copies of `source` plainly and through every driver
/// policy that ends up keeping every node — a batch that keeps everything,
/// the recording pass — and asserts each twin equals the plain pass.
fn check_keep_all_policies<O: PrunableOperator>(operator: &O, source: &Aig) {
    let mut plain = source.clone();
    let plain_stats = operator.run(&mut plain);
    assert_eq!(plain_stats.cuts_pruned, 0);
    let expected = outcome(&plain, &plain_stats);

    let mut batched = source.clone();
    let mut swept = Vec::new();
    let stats = operator.run_batched(&mut batched, Parallelism::sequential(), |rows| {
        swept.extend(rows.iter().map(|&(node, _)| node));
        vec![true; rows.len()]
    });
    assert_eq!(&outcome(&batched, &stats), &expected, "{} batch", O::NAME);
    assert!(stats.windows_reused <= stats.cuts_resynthesized);

    // The recording pass labels as many nodes as a pass visits, in the order
    // the sweep lists them, and labels as committed exactly as many as it
    // committed.
    let mut recorded = source.clone();
    let (stats, samples) = operator.run_recording(&mut recorded);
    assert_eq!(&outcome(&recorded, &stats), &expected, "{} record", O::NAME);
    assert_eq!(samples.len(), plain_stats.nodes_visited);
    let mut sweep_order = swept.iter();
    assert!(
        samples
            .iter()
            .all(|sample| sweep_order.any(|&node| node == sample.node)),
        "{} record",
        O::NAME
    );
    let committed = samples.iter().filter(|sample| sample.committed).count();
    assert_eq!(committed, plain_stats.cuts_committed);
}

/// `Elf` around `operator` with a keep-everything classifier equals the
/// plain pass and prunes nothing.
fn check_keep_all_elf<O: PrunableOperator + Clone>(operator: &O, source: &Aig) {
    use elf_core::{Elf, ElfClassifier, ElfOptions};
    use elf_nn::{Mlp, Normalizer};

    let mut plain = source.clone();
    let plain_stats = operator.run(&mut plain);
    let classifier = ElfClassifier::from_parts(
        Normalizer::from_stats(vec![2.0; 6], vec![1.0; 6]),
        Mlp::paper_architecture(5),
        0.0,
    );
    let elf = Elf::with_operator(classifier, operator.clone(), ElfOptions::default());
    let mut pruned = source.clone();
    let stats = elf.run(&mut pruned);
    assert_eq!(
        outcome(&pruned, &stats.op),
        outcome(&plain, &plain_stats),
        "{}",
        O::NAME
    );
    assert_eq!(
        (stats.pruned, stats.kept),
        (0, plain_stats.cuts_resynthesized)
    );
}

/// The filtered twin of a batched pass: the live, referenced AND nodes in
/// arena order under a token guard of its own, each pruned or kept as
/// `keep` says, and each kept one resynthesized by a batch of its own that
/// keeps it alone — whose sweep formed its window on the graph as it is
/// then, so no window it is handed was formed before an earlier commit.
fn filtered_twin<O: PrunableOperator>(
    operator: &O,
    aig: &mut Aig,
    keep: impl Fn(NodeId) -> bool,
) -> OpStats {
    let mut stats = OpStats::default();
    let live = aig.and_ids().filter(|&id| aig.refs(id) > 0);
    let targets: Vec<_> = live.map(|id| aig.token(id)).collect();
    for token in targets {
        let node = token.id();
        if !aig.token_is_current(token) || aig.refs(node) == 0 {
            continue;
        }
        stats.nodes_visited += 1;
        if !keep(node) {
            stats.cuts_pruned += 1;
            continue;
        }
        let alone = operator.run_batched(aig, Parallelism::sequential(), |rows| {
            rows.iter().map(|&(id, _)| id == node).collect()
        });
        assert_eq!(alone.cuts_resynthesized, 1);
        stats.cuts_resynthesized += 1;
        stats.cuts_committed += alone.cuts_committed;
        stats.total_gain += alone.total_gain;
    }
    stats
}

/// The batched entry — the sweep's unedited windows handed to the kept
/// nodes — against its [`filtered_twin`] given the same decisions: the same
/// network node for node, the same counters but the clock and the reused
/// windows, at 1, 2 and 4 workers.  Returns the windows the batch reused at
/// one worker.
fn check_batched_against_filter<O: PrunableOperator>(
    operator: &O,
    source: &Aig,
    keep: impl Fn(NodeId) -> bool,
) -> usize {
    let mut filtered = source.clone();
    let twin = filtered_twin(operator, &mut filtered, &keep);
    let mut reused = Vec::new();
    for threads in [1, 2, 4] {
        let mut batched = source.clone();
        let stats = operator.run_batched(&mut batched, Parallelism::threads(threads), |rows| {
            rows.iter().map(|&(node, _)| keep(node)).collect()
        });
        assert_eq!(
            outcome(&batched, &stats),
            outcome(&filtered, &twin),
            "{} at {threads} threads",
            O::NAME
        );
        assert!(stats.windows_reused <= stats.cuts_resynthesized);
        if !O::RESYNTHESIZES_WINDOW {
            assert_eq!(stats.windows_reused, 0, "{}", O::NAME);
        }
        reused.push(stats.windows_reused);
    }
    assert!(reused.windows(2).all(|w| w[0] == w[1]), "{reused:?}");
    reused[0]
}

/// f = (a & b) | (a & c) feeding n = f & d, then g = (b & d) | (b & e):
/// refactor commits at f, freeing f's cone (inside n's window), commits at
/// g, whose build pops those slots, and only then reaches n — whose stored
/// window now names two recycled slots and a rewired root.
#[test]
fn a_window_whose_slots_were_freed_and_recycled_is_formed_afresh() {
    let mut aig = Aig::new();
    let [a, b, c, d, e] = [(); 5].map(|_| aig.add_input());
    let ab = aig.and(a, b);
    let ac = aig.and(a, c);
    let f = aig.or(ab, ac);
    let bd = aig.and(b, d);
    let be = aig.and(b, e);
    let g = aig.or(bd, be);
    let n = aig.and(f, d);
    aig.add_output(n);
    aig.add_output(g);

    let refactor = Refactor::default();
    let window = aig.reconvergence_cut(n.node(), &refactor.params().cut);
    let tokens: Vec<_> = window
        .leaves
        .iter()
        .chain(&window.cone)
        .map(|&id| aig.token(id))
        .collect();
    let reused = check_batched_against_filter(&refactor, &aig, |_| true);

    let mut after = aig.clone();
    let stats = refactor.run_batched(&mut after, Parallelism::sequential(), |rows| {
        vec![true; rows.len()]
    });
    assert_eq!(stats.cuts_committed, 2, "{stats:?}");
    let recycled = tokens
        .iter()
        .filter(|&&token| !after.token_is_current(token) && !after.is_dead(token.id()))
        .count();
    assert!(recycled >= 1, "no slot of n's window was recycled");
    assert!(after.token_is_current(aig.token(n.node())), "n survives");
    // n and everything after the first commit that touched it re-form.
    assert_eq!(reused, stats.windows_reused);
    assert!(stats.windows_reused < stats.cuts_resynthesized, "{stats:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Resynthesising each cut once — one NPN representative, the complement
    /// weighed only where `factor_both` returns it — lands on the network
    /// the pass reached when it factored and evaluated both polarities of
    /// every cut: node for node, cache on and off, with and without
    /// zero-gain commits.
    #[test]
    fn refactor_matches_evaluating_both_polarities_of_every_cut(
        script in script_strategy(40),
        zero_gain in any::<bool>(),
    ) {
        let params = RefactorParams { zero_gain, ..Default::default() };
        for config in [CutCacheConfig::disabled(), CutCacheConfig::default()] {
            let mut operator = Refactor::new(params);
            operator.set_cut_cache(CutCache::new(config));
            let mut aig = scripted_circuit(6, &script);
            let mut twin = aig.clone();
            let _ = operator.run(&mut aig);
            refactor_evaluating_both_polarities(&mut twin, &params, &CutCache::new(config));
            prop_assert_eq!(structure(&aig), structure(&twin));
        }
    }

    /// Refactor preserves functionality and reports a gain that matches the
    /// actual change in reachable node count.
    #[test]
    fn refactor_preserves_function(script in script_strategy(40)) {
        let mut aig = scripted_circuit(6, &script);
        let golden = aig.clone();
        let before = aig.num_reachable_ands() as i64;
        let stats = Refactor::new(RefactorParams::default()).run(&mut aig);
        let after = aig.num_reachable_ands() as i64;
        prop_assert!(after <= before);
        prop_assert_eq!(stats.total_gain, before - after);
        prop_assert!(aig.check_invariants().is_empty(), "{:?}", aig.check_invariants());
        prop_assert_eq!(
            check_equivalence(&golden, &aig, 16, 99),
            EquivalenceResult::Equivalent
        );
    }

    /// Refactor in zero-gain mode also preserves functionality.
    #[test]
    fn refactor_zero_gain_preserves_function(script in script_strategy(30)) {
        let mut aig = scripted_circuit(5, &script);
        let golden = aig.clone();
        let params = RefactorParams { zero_gain: true, ..Default::default() };
        let _ = Refactor::new(params).run(&mut aig);
        prop_assert!(aig.check_invariants().is_empty());
        prop_assert_eq!(
            check_equivalence(&golden, &aig, 16, 7),
            EquivalenceResult::Equivalent
        );
    }

    /// Rewrite preserves functionality and never increases the node count.
    #[test]
    fn rewrite_preserves_function(script in script_strategy(30)) {
        let mut aig = scripted_circuit(5, &script);
        let golden = aig.clone();
        let before = aig.num_reachable_ands();
        let _ = Rewrite::default().run(&mut aig);
        prop_assert!(aig.num_reachable_ands() <= before);
        prop_assert!(aig.check_invariants().is_empty());
        prop_assert_eq!(
            check_equivalence(&golden, &aig, 16, 13),
            EquivalenceResult::Equivalent
        );
    }

    /// Resubstitution preserves functionality and never increases node count.
    #[test]
    fn resub_preserves_function(script in script_strategy(30)) {
        let mut aig = scripted_circuit(5, &script);
        let golden = aig.clone();
        let before = aig.num_reachable_ands();
        let _ = Resubstitution.run(&mut aig);
        prop_assert!(aig.num_reachable_ands() <= before);
        prop_assert!(aig.check_invariants().is_empty());
        prop_assert_eq!(
            check_equivalence(&golden, &aig, 16, 17),
            EquivalenceResult::Equivalent
        );
    }

    /// Every prunable operator preserves combinational equivalence when an
    /// arbitrary (pseudo-random) subset of nodes is pruned —
    /// the soundness contract the ELF classifier relies on: *which* cuts are
    /// kept can never change the circuit's function.
    #[test]
    fn operators_preserve_function_under_random_filters(
        script in script_strategy(30),
        mask in any::<u64>(),
    ) {
        check_pruned_run(&Refactor::default(), scripted_circuit(5, &script), mask, 51);
        check_pruned_run(&Rewrite::default(), scripted_circuit(5, &script), mask, 52);
        check_pruned_run(&Resubstitution, scripted_circuit(5, &script), mask, 53);
    }

    /// A batch with windows reused equals the filtered twin given the same
    /// decisions, for every operator, random decision sets and 1/2/4
    /// workers — commits free and recycle slots inside later windows, and
    /// reordered fanout lists feed the next windows' features.
    #[test]
    fn batched_pass_with_reused_windows_matches_filtered_twin(
        script in script_strategy(40),
        mask in any::<u64>(),
    ) {
        let source = scripted_circuit(6, &script);
        let keep = |node: NodeId| pseudo_random_keep(node, mask) || mask & 1 == 0;
        check_batched_against_filter(&Refactor::default(), &source, keep);
        check_batched_against_filter(&Rewrite::default(), &source, keep);
        check_batched_against_filter(&Resubstitution, &source, keep);
    }

    /// Keeping every node is a no-op wrapper, for every operator and every
    /// policy of the pass driver: the twin must land on exactly the same
    /// network as the plain pass, node for node, with the same counters.
    #[test]
    fn always_keep_filter_matches_plain_run(script in script_strategy(30)) {
        let source = scripted_circuit(5, &script);
        check_keep_all_policies(&Refactor::default(), &source);
        check_keep_all_policies(&Rewrite::default(), &source);
        check_keep_all_policies(&Resubstitution, &source);
    }

    /// `Elf<O>` with an always-keep classifier (threshold 0) commits exactly
    /// what the plain operator commits, node for node — rewrite, where this
    /// was first pinned, and the other two; batched and per-node.
    #[test]
    fn elf_rewrite_with_always_keep_classifier_matches_plain_rewrite(
        script in script_strategy(24),
    ) {
        let source = scripted_circuit(5, &script);
        check_keep_all_elf(&Rewrite::default(), &source);
        check_keep_all_elf(&Refactor::default(), &source);
        check_keep_all_elf(&Resubstitution, &source);
    }

    /// Chaining refactor twice (the paper's "ELF x 2" setting applied to the
    /// baseline) is still sound and monotone in node count.
    #[test]
    fn refactor_twice_is_sound(script in script_strategy(30)) {
        let mut aig = scripted_circuit(5, &script);
        let golden = aig.clone();
        let refactor = Refactor::new(RefactorParams::default());
        let first = refactor.run(&mut aig);
        let second = refactor.run(&mut aig);
        prop_assert!(second.total_gain <= first.total_gain + second.total_gain);
        prop_assert!(aig.check_invariants().is_empty());
        prop_assert_eq!(
            check_equivalence(&golden, &aig, 16, 29),
            EquivalenceResult::Equivalent
        );
    }
}
