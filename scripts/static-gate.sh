#!/usr/bin/env bash
# Static panic-path gate: the crates on the serving and verification paths
# must not reach for `.unwrap()` / `.expect(...)` in non-test code.  A panic
# in a long-lived service thread (or inside the correctness gate itself)
# turns one bad job into a poisoned worker; these crates plumb errors
# instead, and this gate keeps it that way.  `elf-aig` is gated too: it reads
# untrusted AIGER files, whose every defect must come back as an error.
#
# Test code (everything from the first `#[cfg(test)]` line onward) and doc
# comments (whose examples run as doctests) are exempt: panicking asserts
# are exactly what tests are for.
set -euo pipefail

cd "$(dirname "$0")/.."

GATED_DIRS=(crates/serve/src crates/cec/src crates/obs/src crates/core/src crates/aig/src)

status=0
for dir in "${GATED_DIRS[@]}"; do
    for file in "$dir"/*.rs; do
        # Strip the in-file test module: offenders are only counted in the
        # non-test region before the first `#[cfg(test)]`.
        offenders=$(awk '
            /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
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

# One-loop gate: every operator pass — plain, recording, filtered, decided,
# pruned by `Elf` — runs through the single token-guarded loop of
# `crates/opt/src/operator.rs`, which is what makes the arms of every
# comparison the same code.  A second `token_is_current` in the non-test
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

# Features from the fanin side: `Aig::cut_features` counts the cut fanout
# and the reconvergent nodes off the cone's fanin edges.  A `fanouts(` walk
# or a `contains(` lookup in its non-test body is the per-leaf fanout scan
# coming back (it survives only as the oracle of
# `crates/opt/tests/features.rs`).
if ! grep -q 'pub fn cut_features(' crates/aig/src/cut.rs; then
    echo "static-gate: Aig::cut_features not found in crates/aig/src/cut.rs" >&2
    exit 1
fi
scan=$(awk '
    /^#\[cfg\(test\)\]/ { exit }
    /pub fn cut_features\(/ { inside = 1 }
    !inside || /^[[:space:]]*\/\// { next }
    /fanouts\(|contains\(/ { printf "%s:%d: %s\n", FILENAME, FNR, $0 }
    /^    }$/ { inside = 0 }
' crates/aig/src/cut.rs)
if [ -n "$scan" ]; then
    echo "$scan"
    echo "static-gate: fanout scan in non-test Aig::cut_features" >&2
    exit 1
fi
echo "static-gate: cut features are counted from the fanin side"

# One batched entry: a pruned pass sweeps, classifies and mutates through
# `PrunableOperator::run_batched`, which reuses the sweep's windows.  A
# `run_decided` outside tests is the second, window-less phase 3 coming back.
decided=$(find crates/*/src src examples -name '*.rs' -print0 | xargs -0 awk '
    FNR == 1 { in_tests = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
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
# conflict coming back.
containers=$(awk '
    FNR == 1 { in_tests = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests || /^[[:space:]]*\/\// { next }
    /BinaryHeap|Vec<Vec<SatLit>>/ { printf "%s:%d: %s\n", FILENAME, FNR, $0 }
' crates/cec/src/*.rs)
if [ -n "$containers" ]; then
    echo "$containers"
    echo "static-gate: BinaryHeap or Vec<Vec<SatLit>> in non-test elf-cec code" >&2
    exit 1
fi
echo "static-gate: the CDCL core stays off the heap"

# Slot-indexed tables in the checker: what `elf-cec` keeps per node lives in
# a `Vec` indexed by slot, and the sweep's pair order falls out of one pass
# over the topological order.  A `HashMap<NodeId` in the non-test region is
# the per-node rank map, and the re-sort of the classes it fed, coming back.
node_maps=$(awk '
    FNR == 1 { in_tests = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests || /^[[:space:]]*\/\// { next }
    /HashMap<NodeId/ { printf "%s:%d: %s\n", FILENAME, FNR, $0 }
' crates/cec/src/*.rs)
if [ -n "$node_maps" ]; then
    echo "$node_maps"
    echo "static-gate: HashMap<NodeId, _> in non-test elf-cec code" >&2
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
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
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
    /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
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
    /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
    /^[[:space:]]*\/\// { next }
    /add_split_literal|in &mut cubes|cubes(\[[^]]*\])?\.iter_mut\(|cubes\[[^]]*\.\./ { printf "%s:%d: %s\n", FILENAME, FNR, $0 }
' crates/sop/src/cover.rs)
if [ -n "$after" ]; then
    echo "$after"
    echo "static-gate: split literals added to pushed cubes after the fact in non-test crates/sop/src/cover.rs" >&2
    exit 1
fi
echo "static-gate: ISOP pushes every cube whole"

# Cut sets kept across roots: rewrite's window stores the cut sets of its
# complete nodes (the prefix of the window whose whole fanin cone it holds)
# and serves them to later roots until the graph's edit clock moves.  An
# `enumerate_cuts` in the non-test region of `rewrite.rs` that reads no
# `edit_clock()` or neither reads nor fills the store, or a `local_cone` that
# no longer records `complete`, is the per-root merge of every window node
# coming back.
store=$(awk '
    /^#\[cfg\(test\)\]/ { exit }
    /^[[:space:]]*\/\// { next }
    /fn enumerate_cuts\(/ { inside = "enumerate" }
    /fn local_cone\(/ { inside = "cone" }
    inside == "enumerate" && /edit_clock\(\)/ { found["edit_clock() read in enumerate_cuts"] = 1 }
    inside == "enumerate" && /store\.set\(/ { found["store read in enumerate_cuts"] = 1 }
    inside == "enumerate" && /store\.insert\(/ { found["store filled in enumerate_cuts"] = 1 }
    inside == "cone" && /self\.complete = / { found["complete recorded in local_cone"] = 1 }
    /^    }$/ { inside = "" }
    END {
        n = split("edit_clock() read in enumerate_cuts|store read in enumerate_cuts|store filled in enumerate_cuts|complete recorded in local_cone", wanted, "|")
        for (i = 1; i <= n; i++) if (!(wanted[i] in found)) print "crates/opt/src/rewrite.rs: no " wanted[i]
    }
' crates/opt/src/rewrite.rs)
if [ -n "$store" ]; then
    echo "$store"
    echo "static-gate: rewrite enumerates without its store of complete nodes' cut sets in non-test crates/opt/src/rewrite.rs" >&2
    exit 1
fi
echo "static-gate: rewrite keeps complete nodes' cut sets until the graph is edited"
