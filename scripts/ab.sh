#!/usr/bin/env bash
# Interleaved A/B timing of two `elf-perf` binaries on one workload.
#
# Runs `<pairs>` pairs of untraced runs, one of each binary per pair, the
# parent first in odd pairs and the change first in even ones, so that a
# drift of the machine's speed over the session falls on both sides alike.
# Fails as soon as a run fails or reports `"correct": false`.  Then prints,
# per end-to-end metric and side, the median, the minimum and the
# interquartile range (quartiles interpolated linearly between ranks), the
# change's median against the parent's, and in how many pairs the change
# read lower (every end-to-end metric is lower-is-better).
#
# Usage: scripts/ab.sh <parent elf-perf> <change elf-perf> <workload> <pairs> [seconds]
#   seconds defaults to 15, the benchmark's run length; SEED (default 1)
#   picks the workload's seed.
set -euo pipefail

usage() {
    echo "usage: $0 <parent elf-perf> <change elf-perf> <workload> <pairs> [seconds]" >&2
    exit 2
}

[ $# -ge 4 ] && [ $# -le 5 ] || usage
parent=$1
change=$2
workload=$3
pairs=$4
seconds=${5:-15}
seed=${SEED:-1}
for number in "$pairs" "$seconds" "$seed"; do
    [[ $number =~ ^[0-9]+$ ]] && [ "$number" -gt 0 ] || usage
done
for binary in "$parent" "$change"; do
    [ -x "$binary" ] || { echo "ab: $binary is not an executable" >&2; exit 2; }
done

runs=$(mktemp)
trap 'rm -f "$runs"' EXIT

for ((pair = 1; pair <= pairs; pair++)); do
    if ((pair % 2 == 1)); then order="parent change"; else order="change parent"; fi
    for side in $order; do
        if [ "$side" = parent ]; then binary=$parent; else binary=$change; fi
        if ! output=$("$binary" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 2>/dev/null); then
            echo "ab: pair $pair: the $side run failed" >&2
            exit 1
        fi
        line=$(printf '%s\n' "$output" | tail -n 1)
        if ! printf '%s' "$line" | grep -q '"correct": true'; then
            echo "ab: pair $pair: the $side run is not correct: $line" >&2
            exit 1
        fi
        echo "$pair $side $line" >>"$runs"
        echo "pair $pair/$pairs: $side done" >&2
    done
done

awk -v workload="$workload" -v seed="$seed" -v seconds="$seconds" '
    # Every `"name": {"unit": "u", "value": v}` of the metrics object.
    {
        pair = $1; side = $2; rest = $0
        while (match(rest, /"[a-z_0-9.]+": \{"unit": "[^"]*", "value": [-+0-9.eE]+\}/)) {
            entry = substr(rest, RSTART, RLENGTH)
            rest = substr(rest, RSTART + RLENGTH)
            split(entry, quoted, "\"")
            name = quoted[2]; unit[name] = quoted[6]
            value = entry
            sub(/.*"value": /, "", value)
            sub(/\}$/, "", value)
            if (!(name in seen)) { seen[name] = 1; names[++count] = name }
            at[side, name, pair] = value + 0
            n[side, name]++
            sample[side, name, n[side, name]] = value + 0
        }
        if (pair > pairs) pairs = pair
    }

    # The q-quantile of the n sorted values in `sorted`, interpolated.
    function quantile(sorted, len, q,    rank, low) {
        rank = 1 + q * (len - 1)
        low = int(rank)
        if (low >= len) return sorted[len]
        return sorted[low] + (rank - low) * (sorted[low + 1] - sorted[low])
    }

    # Sorts sample[side, name, 1..len] into `sorted`.
    function sort_sample(side, name, len,    i, j, v) {
        for (i = 1; i <= len; i++) {
            v = sample[side, name, i]
            for (j = i - 1; j >= 1 && sorted[j] > v; j--) sorted[j + 1] = sorted[j]
            sorted[j + 1] = v
        }
    }

    END {
        printf "%s, seed %s, %s s per run, %d interleaved pairs\n", workload, seed, seconds, pairs
        printf "%-12s %-6s %-7s %12s %12s %12s %9s %7s\n", "metric", "unit", "side", "median", "min", "IQR", "change", "wins"
        for (k = 1; k <= count; k++) {
            name = names[k]
            for (s = 1; s <= 2; s++) {
                side = s == 1 ? "parent" : "change"
                len = n[side, name]
                sort_sample(side, name, len)
                median[side] = quantile(sorted, len, 0.5)
                low[side] = sorted[1]
                iqr[side] = quantile(sorted, len, 0.75) - quantile(sorted, len, 0.25)
            }
            wins = 0
            for (p = 1; p <= pairs; p++) if (at["change", name, p] < at["parent", name, p]) wins++
            delta = median["parent"] == 0 ? 0 : 100 * (median["change"] / median["parent"] - 1)
            printf "%-12s %-6s %-7s %12.4f %12.4f %12.4f %9s %7s\n", name, unit[name], "parent", median["parent"], low["parent"], iqr["parent"], "", ""
            printf "%-12s %-6s %-7s %12.4f %12.4f %12.4f %+8.1f%% %3d/%-3d\n", name, unit[name], "change", median["change"], low["change"], iqr["change"], delta, wins, pairs
        }
    }
' "$runs"
