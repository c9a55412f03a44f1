#!/usr/bin/env bash
# Masks the wall-clock columns of the `paper` harness's stdout, so that the
# output of two runs (two commits, two thread counts) can be compared with
# `diff`: everything left unmasked is deterministic for a given seed.
#
# Masked: millisecond readings (`12.34 ms`, and the first number after each
# `|` of a comparison row), speed-ups (`2.50x`), and the "holds?" verdict of
# `paper summary`'s speed-up rows.
#
# Usage: paper table3 --quick | scripts/mask-timing.sh
set -euo pipefail

sed -E \
    -e 's/[0-9]+\.[0-9]+x/#x/g' \
    -e 's/[0-9]+\.[0-9]+ ms/# ms/g' \
    -e 's/\| +[0-9]+\.[0-9]+ /| # /g' \
    -e '/speed-up/s/(yes|no)$/#/'
