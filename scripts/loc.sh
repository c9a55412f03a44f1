#!/usr/bin/env bash
# Non-test lines of code per crate and in total.
#
# A line counts when it sits in `crates/*/src/**/*.rs` or `src/*.rs`, before
# the first line of its file that starts with `#[cfg(test)]` in column 0 (the
# in-file test module), is not blank and does not start with `//` (leading
# whitespace ignored; this drops comments and doc comments).  Indented
# `#[cfg(test)]` items (test hooks inside non-test code) and mentions in
# comments count as code.  The facade `src/` is reported as `elf`.
#
# Usage: scripts/loc.sh
set -euo pipefail

cd "$(dirname "$0")/.."

count() {
    find "$@" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests || /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { lines++ }
        END { print lines + 0 }
    '
}

total=0
for dir in crates/*/; do
    crate=$(basename "$dir")
    [ -d "$dir/src" ] || continue
    lines=$(count "$dir/src")
    printf '%-10s %6d\n' "$crate" "$lines"
    total=$((total + lines))
done
lines=$(count src -maxdepth 1)
printf '%-10s %6d\n' elf "$lines"
total=$((total + lines))
printf '%-10s %6d\n' total "$total"
