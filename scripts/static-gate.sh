#!/usr/bin/env bash
# Static panic-path gate: the crates on the serving and verification paths
# must not reach for `.unwrap()` / `.expect(...)` in non-test code.  A panic
# in a long-lived service thread (or inside the correctness gate itself)
# turns one bad job into a poisoned worker; these crates plumb errors
# instead, and this gate keeps it that way.  `elf-aig` is gated too: it reads
# untrusted AIGER files, whose every defect must come back as an error.
# `elf-opt` is gated as well: every served job runs its operators, and so is
# `elf-nn`: every served job runs `Mlp::predict`, and `model_from_text` parses
# model files from outside, and so is `elf-sop`: every served job factors
# through it.
#
# Test code (everything from the first `#[cfg(test)]` line onward) and doc
# comments (whose examples run as doctests) are exempt: panicking asserts
# are exactly what tests are for.
set -euo pipefail

cd "$(dirname "$0")/.."

GATED_DIRS=(crates/serve/src crates/cec/src crates/obs/src crates/core/src crates/aig/src crates/opt/src crates/nn/src crates/sop/src)

status=0
for dir in "${GATED_DIRS[@]}"; do
    for file in "$dir"/*.rs; do
        # Strip the in-file test module: offenders are only counted in the
        # non-test region before the first `#[cfg(test)]`.
        offenders=$(awk '
            /^#\[cfg\(test\)\]/ { exit }
            /^[[:space:]]*\/\/[\/!]/ { next }
            /\.unwrap\(\)|\.expect\(/ { printf "%s:%d: %s\n", FILENAME, FNR, $0 }
        ' "$file")
        if [ -n "$offenders" ]; then
            echo "$offenders"
            status=1
        fi
    done
done

if [ "$status" -ne 0 ]; then
    echo "static-gate: unwrap()/expect() found in non-test serving/verification code" >&2
    exit 1
fi
echo "static-gate: clean (${GATED_DIRS[*]})"

# One-loop gate: every operator pass — under each of the three policies,
# plain, recording and decided (which `Elf` prunes through) — runs through
# the single token-guarded loop of `crates/opt/src/operator.rs`, which is
# what makes the arms of every comparison the same code.  A second `token_is_current` in the non-test
# region of the operator or flow crates is a second copy of that loop.
guards=$(awk '
    FNR == 1 { in_tests = 0 }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests || /^[[:space:]]*\/\// { next }
    /token_is_current/ { printf "%s:%d: %s\n", FILENAME, FNR, $0 }
' crates/opt/src/*.rs crates/core/src/*.rs)
if [ "$(printf '%s' "$guards" | grep -c .)" -ne 1 ]; then
    echo "$guards"
    echo "static-gate: expected exactly one token-guarded pass loop in crates/opt/src + crates/core/src" >&2
    exit 1
fi
echo "static-gate: one pass loop ($guards)"

# Off-the-heap gate: rewrite holds a window's cut sets in one positional
# scratch and resub simulates its window once.  The `Vec`-of-`Vec`s
# enumeration and the truth table per divisor survive only as `#[cfg(test)]`
# oracles; either shape in the non-test region is the slow path coming back.
heap=$(awk '
    FNR == 1 { in_tests = 0 }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests || /^[[:space:]]*\/\// { next }
    /Vec<Vec<NodeId>>/ { printf "%s:%d: %s\n", FILENAME, FNR, $0 }
    FILENAME ~ /resub\.rs$/ && /cut_truth_table/ { printf "%s:%d: %s\n", FILENAME, FNR, $0 }
' crates/opt/src/rewrite.rs crates/opt/src/resub.rs)
if [ -n "$heap" ]; then
    echo "$heap"
    echo "static-gate: per-cut Vec<Vec<NodeId>> or per-divisor cut_truth_table in non-test rewrite/resub code" >&2
    exit 1
fi
echo "static-gate: rewrite and resub stay off the heap"

# Resynthesis stays off the heap too: a factored form is one flat arena,
# written by `factor_truth_table_into` from two reusable stacks and read by
# the operators through the NPN transform.  A `Box` in the non-test region of the factoring
# or of the code that counts, builds or caches forms is the boxed tree coming
# back (it survives only as the `#[cfg(test)]` oracles); a `decanonicalize(`
# call in an operator is the per-cut rebuild of the form coming back.
boxed=$(awk '
    FNR == 1 { in_tests = 0 }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests || /^[[:space:]]*\/\// { next }
    FILENAME !~ /(refactor|rewrite)\.rs$/ && /Box<FactoredForm>|Box::new\(/ { printf "%s:%d: %s\n", FILENAME, FNR, $0 }
    FILENAME ~ /(refactor|rewrite)\.rs$/ && /decanonicalize\(/ { printf "%s:%d: %s\n", FILENAME, FNR, $0 }
' crates/sop/src/factor.rs crates/opt/src/cache.rs crates/opt/src/build.rs \
    crates/opt/src/refactor.rs crates/opt/src/rewrite.rs)
if [ -n "$boxed" ]; then
    echo "$boxed"
    echo "static-gate: boxed factored form or per-cut decanonicalize in non-test resynthesis code" >&2
    exit 1
fi
echo "static-gate: resynthesis stays off the heap"

# Features from the fanin side: `Aig::cut_features_with` counts the cut
# fanout and the reconvergent nodes off the cone's fanin edges.  A
# `fanouts(` walk or a `contains(` lookup in its non-test body is the
# per-leaf fanout scan coming back (it survives only as the oracle of
# `crates/opt/tests/features.rs`).
if ! grep -q 'pub fn cut_features_with(' crates/aig/src/cut.rs; then
    echo "static-gate: Aig::cut_features_with not found in crates/aig/src/cut.rs" >&2
    exit 1
fi
scan=$(awk '
    /^#\[cfg\(test\)\]/ { exit }
    /pub fn cut_features_with\(/ { inside = 1 }
    !inside || /^[[:space:]]*\/\// { next }
    /fanouts\(|contains\(/ { printf "%s:%d: %s\n", FILENAME, FNR, $0 }
    /^    }$/ { inside = 0 }
' crates/aig/src/cut.rs)
if [ -n "$scan" ]; then
    echo "$scan"
    echo "static-gate: fanout scan in non-test Aig::cut_features_with" >&2
    exit 1
fi
echo "static-gate: cut features are counted from the fanin side"

# A pruned node costs little: the cut engine keeps each leaf's cost and reads
# the graph only for the leaves an expansion adds, the features are tallied
# once per cone edge in the scratch's count column, and the classifier
# standardizes the batch into one buffer for `Mlp::predict`.
# In non-test `cut.rs`, a `leaf_expansion_cost` or a `self.node(` snapshot is
# the per-round rescan of every leaf coming back (it survives as the
# `#[cfg(test)]` oracle), and a `chunks(64)` in `cut_features_with` the
# 64-lane block compare; a `Vec<Vec<f32>>` or a `normalized_rows` call in
# `ElfClassifier::classify` or the `standardize` it calls is a `Vec` per row
# coming back.
if ! grep -q 'pub fn classify(' crates/core/src/classifier.rs; then
    echo "static-gate: ElfClassifier::classify not found in crates/core/src/classifier.rs" >&2
    exit 1
fi
pruned=$(awk '
    FNR == 1 { in_tests = 0; inside = 0 }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests || /^[[:space:]]*\/\// { next }
    FILENAME ~ /cut\.rs$/ && /leaf_expansion_cost|self\.node\(/ { printf "%s:%d: %s\n", FILENAME, FNR, $0 }
    FILENAME ~ /cut\.rs$/ && /pub fn cut_features_with\(/ { inside = 1 }
    FILENAME ~ /classifier\.rs$/ && /fn (classify|standardize)\(/ { inside = 1 }
    inside && FILENAME ~ /cut\.rs$/ && /chunks\(64\)/ { printf "%s:%d: %s\n", FILENAME, FNR, $0 }
    inside && FILENAME ~ /classifier\.rs$/ && /Vec<Vec<f32>>|normalized_rows/ { printf "%s:%d: %s\n", FILENAME, FNR, $0 }
    /^    }$/ { inside = 0 }
' crates/aig/src/cut.rs crates/core/src/classifier.rs)
if [ -n "$pruned" ]; then
    echo "$pruned"
    echo "static-gate: leaf rescan or node snapshot in non-test cut.rs, 64-lane block compare in cut_features_with, or a Vec per row in ElfClassifier::classify" >&2
    exit 1
fi
echo "static-gate: a pruned node's cut, features and decision stay cheap"

# One product kernel, one inference path, one thread for a decision.
# Training's three products per layer run through `matrix.rs`'s batch-major
# `forward`, `input_gradient` and `weight_gradient`, called from the training
# step's own `Workspace::forward`, and its validation loss through
# `Mlp::predict`, the kernel inference runs.  A `matmul_transpose_*`, `dot4`
# or `KC`/`MC`/`NR` block constant in non-test `matrix.rs` is a second,
# blocked product kernel coming back; a `.forward(` in non-test `train.rs`
# other than the step's `self.forward(` is the second forward path, a
# `.to_vec()` the per-batch copy of the rows; a `Parallelism` in the
# signature of `ElfClassifier::classify` is the fan-out of a forward pass
# that takes well under a millisecond.
if ! grep -q 'pub fn classify(' crates/core/src/classifier.rs; then
    echo "static-gate: ElfClassifier::classify not found in crates/core/src/classifier.rs" >&2
    exit 1
fi
kernels=$(awk '
    FNR == 1 { in_tests = 0; signature = 0 }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests || /^[[:space:]]*\/\// { next }
    FILENAME ~ /matrix\.rs$/ && /matmul_transpose_|dot4|(^|[^A-Za-z0-9_])(KC|MC|NR)([^A-Za-z0-9_]|$)/ { printf "%s:%d: %s\n", FILENAME, FNR, $0 }
    FILENAME ~ /train\.rs$/ && /\.forward\(|\.to_vec\(\)/ && !/self\.forward\(/ { printf "%s:%d: %s\n", FILENAME, FNR, $0 }
    FILENAME ~ /classifier\.rs$/ && /pub fn classify\(/ { signature = 1 }
    signature && /Parallelism/ { printf "%s:%d: %s\n", FILENAME, FNR, $0 }
    signature && /\{[[:space:]]*$/ { signature = 0 }
' crates/nn/src/matrix.rs crates/nn/src/train.rs crates/core/src/classifier.rs)
if [ -n "$kernels" ]; then
    echo "$kernels"
    echo "static-gate: a blocked product kernel in non-test matrix.rs, a second forward path or a row copy in non-test train.rs, or a Parallelism in ElfClassifier::classify" >&2
    exit 1
fi
echo "static-gate: one product kernel, one inference path, classify on one thread"

# One fused training step: every mini-batch runs forward, backward and Adam
# through `train.rs`'s `Workspace`, on an epoch pool written in place into
# one buffer.  A `forward_cached(` or `Matrix::from_rows(` in non-test
# `train.rs` is the per-batch `Matrix` pipeline coming back, a `.select(` or
# `mixup(` the epoch pool's `Vec` per row; a `fn backward(` in non-test
# `model.rs` is backpropagation through a matrix per product coming back (it
# survives only as the `#[cfg(test)]` oracle in `train.rs`).
fused=$(awk '
    FNR == 1 { in_tests = 0 }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests || /^[[:space:]]*\/\// { next }
    FILENAME ~ /train\.rs$/ && /forward_cached\(|Matrix::from_rows\(|\.select\(|mixup\(/ { printf "%s:%d: %s\n", FILENAME, FNR, $0 }
    FILENAME ~ /model\.rs$/ && /fn backward\(/ { printf "%s:%d: %s\n", FILENAME, FNR, $0 }
' crates/nn/src/train.rs crates/nn/src/model.rs)
if [ -n "$fused" ]; then
    echo "$fused"
    echo "static-gate: a per-batch Matrix pipeline or per-row pool in non-test train.rs, or backward in non-test model.rs" >&2
    exit 1
fi
echo "static-gate: training runs one fused step"

# One batched entry: a pruned pass sweeps, classifies and mutates through
# `PrunableOperator::run_batched`, which reuses the sweep's windows.  A
# `run_decided` outside tests is the second, window-less phase 3 coming back.
decided=$(find crates/*/src src examples -name '*.rs' -print0 | xargs -0 awk '
    FNR == 1 { in_tests = 0 }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests || /^[[:space:]]*\/\// { next }
    /run_decided/ { printf "%s:%d: %s\n", FILENAME, FNR, $0 }
')
if [ -n "$decided" ]; then
    echo "$decided"
    echo "static-gate: run_decided outside tests" >&2
    exit 1
fi
echo "static-gate: one batched entry (no run_decided)"

# Unsafe code is denied workspace-wide (`unsafe_code = "deny"` in Cargo.toml);
# the one sanctioned opt-out is the counting allocator of the allocation test.
unsafe_allowed=$(grep -rln --include='*.rs' 'allow(unsafe_code)' src crates tests examples elf-perf/src elf-perf/tests vendor \
    | grep -v '^crates/opt/tests/allocations.rs$' || true)
if [ -n "$unsafe_allowed" ]; then
    echo "$unsafe_allowed"
    echo "static-gate: allow(unsafe_code) outside crates/opt/tests/allocations.rs" >&2
    exit 1
fi
echo "static-gate: unsafe code allowed in the counting allocator only"

# One-heap, one-clause-store gate: the CDCL solver branches from an indexed
# heap of variables and keeps every clause in one literal arena.  A
# `BinaryHeap` (the lazy order heap: one entry per bump and per unassignment)
# or a `Vec` per clause in the non-test region of `elf-cec` is the 80 µs
# conflict coming back.  Every watch list is a segment of one store: a
# `Vec<Vec<u32>>` is an allocation per literal coming back.
containers=$(awk '
    FNR == 1 { in_tests = 0 }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests || /^[[:space:]]*\/\// { next }
    /BinaryHeap|Vec<Vec<SatLit>>|Vec<Vec<u32>>/ { printf "%s:%d: %s\n", FILENAME, FNR, $0 }
' crates/cec/src/*.rs)
if [ -n "$containers" ]; then
    echo "$containers"
    echo "static-gate: BinaryHeap, Vec<Vec<SatLit>> or Vec<Vec<u32>> in non-test elf-cec code" >&2
    exit 1
fi
echo "static-gate: the CDCL core stays off the heap"

# Slot-indexed tables in the checker: what `elf-cec` keeps per node lives in
# a `Vec` indexed by slot, and the sweep's pair order falls out of one pass
# over the topological order.  A `HashMap<NodeId` in the non-test region is
# the per-node rank map, and the re-sort of the classes it fed, coming back.
# The simulation words are flat tables, one per round, and the classes hash
# each signature in place: a `Vec<Vec<u64>>` is a `Vec` of words per node
# coming back, and a `HashMap<Vec<u64>` an allocated key per node.
node_maps=$(awk '
    FNR == 1 { in_tests = 0 }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests || /^[[:space:]]*\/\// { next }
    /HashMap<NodeId|Vec<Vec<u64>>|HashMap<Vec<u64>/ { printf "%s:%d: %s\n", FILENAME, FNR, $0 }
' crates/cec/src/*.rs)
if [ -n "$node_maps" ]; then
    echo "$node_maps"
    echo "static-gate: HashMap<NodeId, _>, Vec<Vec<u64>> or HashMap<Vec<u64>, _> in non-test elf-cec code" >&2
    exit 1
fi
echo "static-gate: elf-cec keeps per-node tables by slot"

# One home for verification, one path to a decision: in `elf-core`, only the
# flow (`pipeline.rs`) calls the SAT checker, and the classifier's decision
# runs through `ElfClassifier::classify`.  A `check_equivalence` anywhere
# else in the non-test region is a second gate coming back; a
# `pub fn classify_batch*` or `pub fn predict_batch_with` is a second
# decision path coming back.
twins=$(awk '
    FNR == 1 { in_tests = 0 }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests || /^[[:space:]]*\/\// { next }
    FILENAME !~ /pipeline\.rs$/ && /check_equivalence/ { printf "%s:%d: %s\n", FILENAME, FNR, $0 }
    /pub fn (classify_batch|predict_batch_with)/ { printf "%s:%d: %s\n", FILENAME, FNR, $0 }
' crates/core/src/*.rs)
if [ -n "$twins" ]; then
    echo "$twins"
    echo "static-gate: check_equivalence outside pipeline.rs or a classify_batch/predict_batch_with twin in non-test elf-core code" >&2
    exit 1
fi
echo "static-gate: elf-core verifies in the flow only and decides through one path"

# One queue, one MFFC walk, no recycling mode.  `elf-serve` schedules from one
# FIFO: a `Vec<VecDeque` in its non-test region is the per-shard deques and
# their stealing coming back.  `elf-aig` walks an MFFC through the bounded
# pair only (`&[]` bounds nothing): a `pub fn deref_mffc(` / `ref_mffc(` is
# the unbounded twin coming back.  Slot recycling has no off switch: a
# `pub fn set_recycling` is the append-only mode coming back.
modes=$(awk '
    FNR == 1 { in_tests = 0 }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests || /^[[:space:]]*\/\// { next }
    FILENAME ~ /serve/ && /Vec<VecDeque/ { printf "%s:%d: %s\n", FILENAME, FNR, $0 }
    FILENAME ~ /aig/ && /pub fn (set_recycling|deref_mffc\(|ref_mffc\()/ { printf "%s:%d: %s\n", FILENAME, FNR, $0 }
' crates/serve/src/*.rs crates/aig/src/*.rs)
if [ -n "$modes" ]; then
    echo "$modes"
    echo "static-gate: per-shard deques in non-test elf-serve code, or an unbounded MFFC walk or recycling switch in elf-aig" >&2
    exit 1
fi
echo "static-gate: one job queue, one MFFC walk, no recycling mode"

# Cone loading: `elf-cec` encodes a node when a query asks for it, so each
# query propagates over the cone it can reach.  A `topological_order` in the
# non-test region of the encoder is the whole-miter eager encoding coming back.
eager=$(awk '
    /^#\[cfg\(test\)\]/ { exit }
    /^[[:space:]]*\/\// { next }
    /topological_order/ { printf "%s:%d: %s\n", FILENAME, FNR, $0 }
' crates/cec/src/cnf.rs)
if [ -n "$eager" ]; then
    echo "$eager"
    echo "static-gate: topological_order in non-test crates/cec/src/cnf.rs (eager whole-miter encoding)" >&2
    exit 1
fi
echo "static-gate: the CNF is loaded one cone at a time"

# One way to run a pruned pass: in `elf-core`, a flow stage is an operator
# plus an optional classifier, and `Elf::run` and `Flow::run` share one
# crate-private pruned pass at one thread count.  A `fn run_with` or an
# `Option<Parallelism>` in the non-test region is the per-call thread-count
# override and its precedence rule coming back; a `predict_with(` outside
# `classifier.rs` is a second keep/prune decision composed beside
# `ElfClassifier::classify`.
passes=$(awk '
    FNR == 1 { in_tests = 0 }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests || /^[[:space:]]*\/\// { next }
    /fn run_with|Option<Parallelism>/ { printf "%s:%d: %s\n", FILENAME, FNR, $0 }
    FILENAME !~ /classifier\.rs$/ && /predict_with\(/ { printf "%s:%d: %s\n", FILENAME, FNR, $0 }
' crates/core/src/*.rs)
if [ -n "$passes" ]; then
    echo "$passes"
    echo "static-gate: run_with or Option<Parallelism> in non-test elf-core code, or predict_with( outside classifier.rs" >&2
    exit 1
fi
echo "static-gate: one pruned pass and one decision function in elf-core"

# Linear-time cut simulation: `simulate_cut` orders the cone itself and maps
# each leaf and cone node to its table slot in an epoch-stamped slot map, and
# resub reads its divisors' slots off that map.  A `.position(` in the
# non-test region of `build.rs` or `resub.rs` is the O(cone²) fanin scan
# coming back; a `cone_topological` in non-test `crates/*/src` is the second
# cone walk coming back (it survives as the `#[cfg(test)]` oracle of
# `build.rs`).
scans=$(find crates/*/src -name '*.rs' -print0 | xargs -0 awk '
    FNR == 1 { in_tests = 0 }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests || /^[[:space:]]*\/\// { next }
    FILENAME ~ /crates\/opt\/src\/(build|resub)\.rs$/ && /\.position\(/ { printf "%s:%d: %s\n", FILENAME, FNR, $0 }
    /cone_topological/ { printf "%s:%d: %s\n", FILENAME, FNR, $0 }
')
if [ -n "$scans" ]; then
    echo "$scans"
    echo "static-gate: .position( in non-test build.rs/resub.rs, or cone_topological in non-test crates/*/src" >&2
    exit 1
fi
echo "static-gate: cut simulation finds fanins and divisors in O(1)"

# Counting while factoring: each reading's gain is counted gate by gate as the
# cache writes the form, and the factoring stops at the gate where every
# reading has lost.  A `count_rec` in the non-test region of `crates/opt/src`
# is the root-first recount of a finished form coming back; a
# `factor_truth_table_into(` outside `cache.rs` is a second place forms are
# made, beside the one lookup that replays, factors and stores them.
counting=$(awk '
    FNR == 1 { in_tests = 0 }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests || /^[[:space:]]*\/\// { next }
    /count_rec/ { printf "%s:%d: %s\n", FILENAME, FNR, $0 }
    FILENAME !~ /cache\.rs$/ && /factor_truth_table_into\(/ { printf "%s:%d: %s\n", FILENAME, FNR, $0 }
' crates/opt/src/*.rs)
if [ -n "$counting" ]; then
    echo "$counting"
    echo "static-gate: count_rec in non-test crates/opt/src, or factor_truth_table_into( outside cache.rs" >&2
    exit 1
fi
echo "static-gate: gains are counted while the form is written, and forms are made in cache.rs"

# One bench harness: `elf-perf` (its own package, named by BENCHMARK.json)
# times every layer with interleaved arms and a reported spread.  A
# `[[bench]]` table or a `criterion` dependency in a workspace manifest, or a
# `crates/*/benches/` directory, is the second, unmeasured harness coming back.
harness=$(
    grep -nE '^[[:space:]]*\[\[bench\]\]|^[[:space:]]*criterion[[:space:]]*[.=]|dependencies\.criterion\]' \
        Cargo.toml crates/*/Cargo.toml vendor/*/Cargo.toml || true
    find crates -mindepth 2 -maxdepth 2 -type d -name benches
)
if [ -n "$harness" ]; then
    echo "$harness"
    echo "static-gate: a [[bench]] table, criterion dependency or crates/*/benches/ directory; elf-perf is the one benchmark (see elf-perf/README.md)" >&2
    exit 1
fi
echo "static-gate: one bench harness (elf-perf)"

# Cubes pushed whole: the Minato–Morreale recursion hands each level the
# split literals of the levels above and pushes every cube complete, and an
# interval over the three lowest variables is one table read.  An
# `add_split_literal`, a `for` over `&mut cubes` or a `cubes[..]` range
# written to in the non-test region of `cover.rs` is the pass that added the
# literals after the fact, once per level, coming back.
after=$(awk '
    /^#\[cfg\(test\)\]/ { exit }
    /^[[:space:]]*\/\// { next }
    /add_split_literal|in &mut cubes|cubes(\[[^]]*\])?\.iter_mut\(|cubes\[[^]]*\.\./ { printf "%s:%d: %s\n", FILENAME, FNR, $0 }
' crates/sop/src/cover.rs)
if [ -n "$after" ]; then
    echo "$after"
    echo "static-gate: split literals added to pushed cubes after the fact in non-test crates/sop/src/cover.rs" >&2
    exit 1
fi
echo "static-gate: ISOP pushes every cube whole"

# Literal counts held bit-sliced: quick factoring counts a cover's literals
# as 32 lanes of one word per bit of the count, adding cubes without a loop
# over their literals, and finds the most frequent literal by narrowing
# lanes plane by plane.  A per-literal `[u16; 32]` count or a `for var in 0..16`
# scan in non-test `factor.rs` is counting one literal at a time coming back
# (it survives only as the `#[cfg(test)]` oracle).
sliced=$(awk '
    /^#\[cfg\(test\)\]/ { exit }
    /^[[:space:]]*\/\// { next }
    /\[u16; 32\]|for var in 0\.\.16/ { printf "%s:%d: %s\n", FILENAME, FNR, $0 }
' crates/sop/src/factor.rs)
if [ -n "$sliced" ]; then
    echo "$sliced"
    echo "static-gate: a per-literal [u16; 32] count or a for var in 0..16 scan in non-test crates/sop/src/factor.rs" >&2
    exit 1
fi
echo "static-gate: quick factoring counts literals bit-sliced"

# Cut sets kept across roots: rewrite's window stores the cut sets of its
# complete nodes (the prefix of the window whose whole fanin cone it holds)
# and serves one to a later root while no node of its cone carries an edit
# stamp past the clock it was last known exact under.  An `enumerate_cuts`
# in the non-test region of `rewrite.rs` that reads no `edit_clock()` or no
# `edit_stamp(`, or neither reads nor fills the store, or a `local_cone`
# that no longer records `complete`, is the per-root merge of every window
# node coming back; a non-test function that reads `edit_clock()` and calls
# `flush(` is the whole store thrown away at every commit.
store=$(awk '
    /^#\[cfg\(test\)\]/ { exit }
    /^[[:space:]]*\/\// { next }
    /^    #\[cfg\(test\)\]$/ { test_item = 1; next }
    /^    fn / {
        skipping = test_item
        name = $0
        sub(/^    fn /, "", name)
        sub(/\(.*/, "", name)
    }
    { test_item = 0 }
    skipping { if (/^    }$/) skipping = 0; next }
    /fn enumerate_cuts\(/ { inside = "enumerate" }
    /fn local_cone\(/ { inside = "cone" }
    inside == "enumerate" && /edit_clock\(\)/ { found["edit_clock() read in enumerate_cuts"] = 1 }
    inside == "enumerate" && /edit_stamp\(/ { found["edit_stamp( read in enumerate_cuts"] = 1 }
    inside == "enumerate" && /store\.get\(/ { found["store read in enumerate_cuts"] = 1 }
    inside == "enumerate" && /store\.insert\(/ { found["store filled in enumerate_cuts"] = 1 }
    inside == "cone" && /self\.complete = / { found["complete recorded in local_cone"] = 1 }
    /edit_clock\(\)/ { clock[name] = FNR }
    /flush\(/ && !/fn flush\(/ { flush[name] = FNR }
    /^    }$/ { inside = "" }
    END {
        n = split("edit_clock() read in enumerate_cuts|edit_stamp( read in enumerate_cuts|store read in enumerate_cuts|store filled in enumerate_cuts|complete recorded in local_cone", wanted, "|")
        for (i = 1; i <= n; i++) if (!(wanted[i] in found)) print "crates/opt/src/rewrite.rs: no " wanted[i]
        for (f in flush) if (f in clock) print "crates/opt/src/rewrite.rs:" flush[f] ": " f " flushes the store on an edit_clock() reading"
    }
' crates/opt/src/rewrite.rs)
if [ -n "$store" ]; then
    echo "$store"
    echo "static-gate: rewrite enumerates without its store of complete nodes' cut sets, or flushes it when the clock moves, in non-test crates/opt/src/rewrite.rs" >&2
    exit 1
fi
echo "static-gate: rewrite keeps complete nodes' cut sets while their cones are unstamped"

# A root cut weighed from its leaves: rewrite evaluates a cut's function by
# one walk from the root to the leaves and weighs it through `build.rs`'s
# `weigh`, never through the simulation refactor uses.  A `load_cut`,
# `simulate_cut`, `cut_truth_table_in` or `best_reading` (which simulates) in
# the non-test region of `rewrite.rs`, or a simulation inside `weigh`, is
# the per-cut cone list and slot map coming back.
weigh=$(awk '
    FNR == 1 { testing = 0 }
    /^#\[cfg\(test\)\]/ { testing = 1 }
    testing || /^[[:space:]]*\/\// { next }
    FILENAME ~ /rewrite\.rs$/ && /load_cut\(|simulate_cut\(|cut_truth_table_in\(|best_reading\(/ {
        printf "%s:%d: %s\n", FILENAME, FNR, $0
    }
    FILENAME ~ /build\.rs$/ && /^pub\(crate\) fn weigh\(/ { inside = 1; seen = 1 }
    FILENAME ~ /build\.rs$/ && inside && /simulate_cut\(|cut_truth_table_in\(/ {
        printf "%s:%d: %s\n", FILENAME, FNR, $0
    }
    FILENAME ~ /build\.rs$/ && /^}$/ { inside = 0 }
    END { if (!seen) print "crates/opt/src/build.rs: no weigh" }
' crates/opt/src/rewrite.rs crates/opt/src/build.rs)
if [ -n "$weigh" ]; then
    echo "$weigh"
    echo "static-gate: rewrite weighs a cut through its cone list or a simulation in non-test crates/opt/src" >&2
    exit 1
fi
echo "static-gate: rewrite weighs a root cut from its leaves"

# Operators at their one configuration: rewrite and resub run at ABC's
# defaults and refactor always preserves levels and weighs the complement,
# so their settings are constants; the pass loop keeps the three policies
# something calls; the graph owns no cut scratch (cuts are formed in the
# pass's scratch or a per-thread one) and has no by-value node snapshot.
# The classifier trains one recipe, so its resampling, MixUp, validation
# split and schedule are constants in `elf-nn`'s `train.rs`, as are the
# recall target of the threshold calibration, the cut's expansion cost and
# Figure 3's t-SNE settings.  The equivalence checker always sweeps over
# eight simulation rounds, the cut cache has one capacity, every served job
# runs one set of flow options, a full admission queue blocks or rejects,
# a client collects a job with `recv`, the harness runs the operators at
# their defaults and derives the circuit scales from `--scale`, and no
# model has an identity layer.  A `preserve_level`, `try_complement`,
# `use_one_resub`, `cuts_per_node`, `RewriteParams`, `ResubParams`,
# `run_with_filter`, `NodeKind`, `take_cut_scratch`, `balanced_sampling`,
# `mixup_alpha`, `mixup_fraction`, `validation_fraction`,
# `scheduler_period`, `scheduler_mult`, `max_expansion_cost`, `TsneConfig`,
# `recall_target`, `sim_rounds`, `run_sync`, `AdmissionPolicy::Timeout`,
# `Activation::Identity`, `pub industrial_scale` or `pub synthetic_scale`
# in non-test code, a `pub capacity` in `cache.rs`'s `CutCacheConfig`, a
# `pub options:` in `service.rs` or a `pub elf:` in `experiment.rs` is a
# single-valued knob, the path it selected, the unused filter policy or the
# graph-owned scratch coming back.
knobs=$(find crates/*/src src examples -name '*.rs' -print0 | xargs -0 awk '
    FNR == 1 { in_tests = 0; in_config = 0 }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests || /^[[:space:]]*\/\// { next }
    FILENAME ~ /opt\/src\/cache\.rs$/ && /pub struct CutCacheConfig/ { in_config = 1 }
    in_config && /^}/ { in_config = 0 }
    /preserve_level|try_complement|use_one_resub|cuts_per_node|RewriteParams|ResubParams|run_with_filter|NodeKind|take_cut_scratch/ ||
    /balanced_sampling|mixup_alpha|mixup_fraction|validation_fraction|scheduler_period|scheduler_mult|max_expansion_cost|TsneConfig|recall_target/ ||
    /sim_rounds|run_sync|AdmissionPolicy::Timeout|Activation::Identity|pub industrial_scale|pub synthetic_scale/ ||
    (in_config && /pub capacity/) ||
    (FILENAME ~ /serve\/src\/service\.rs$/ && /pub options:/) ||
    (FILENAME ~ /core\/src\/experiment\.rs$/ && /pub elf:/) {
        printf "%s:%d: %s\n", FILENAME, FNR, $0
    }
')
if [ -n "$knobs" ]; then
    echo "$knobs"
    echo "static-gate: a single-valued knob or the path it selected, the filter policy or a graph-owned cut scratch in non-test code" >&2
    exit 1
fi
echo "static-gate: operators, classifier, checker, cache, service and harness at their one configuration, three pass policies, no graph-owned cut scratch"

# Per-cut lookups cost what the gain count reads: the strash and the cut
# cache's class map hash with `elf-aig`'s seeded word hasher, and a cut is
# simulated into the pass scratch's table.  A `strash` declared as a
# `HashMap` without `WordState` in non-test `aig.rs`, a `HashMap::new()` or
# a `HashMap<` without `WordState` in non-test `cache.rs`, or a `.to_vec()`
# in `build.rs`'s `cut_truth_table_in` is SipHash or the table owned per
# cut coming back.
lookups=$(awk '
    FNR == 1 { in_tests = 0; in_truth = 0 }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests || /^[[:space:]]*\/\// { next }
    FILENAME ~ /aig\.rs$/ && /strash: HashMap/ && !/WordState/ { printf "%s:%d: %s\n", FILENAME, FNR, $0 }
    FILENAME ~ /cache\.rs$/ && (/HashMap::new\(\)/ || (/HashMap</ && !/WordState/)) { printf "%s:%d: %s\n", FILENAME, FNR, $0 }
    FILENAME ~ /build\.rs$/ && /fn cut_truth_table_in/ { in_truth = 1 }
    in_truth && /\.to_vec\(\)/ { printf "%s:%d: %s\n", FILENAME, FNR, $0 }
    in_truth && /^}/ { in_truth = 0 }
' crates/aig/src/aig.rs crates/opt/src/cache.rs crates/opt/src/build.rs)
if [ -n "$lookups" ]; then
    echo "$lookups"
    echo "static-gate: the strash or the class map on the default hasher, or a table allocated per cut in cut_truth_table_in" >&2
    exit 1
fi
echo "static-gate: per-cut lookups hash words and simulate into the scratch"
