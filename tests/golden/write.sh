#!/bin/sh
# Writes every bit-identity golden into OUTDIR: figure{3,4,5,6}.csv from
# small.ini, sncpc_seed7.csv from sncpc_seed7.ini and, through solve.sh,
# solve_nash.txt, solve_sncpc.txt, solve_M4.txt, solve_EPA.txt and
# solve_nash_zero_gain.txt.  This script alone lists the goldens: CI
# compares each file it writes with its namesake in tests/golden and fails
# on a golden it does not write; `sh tests/golden/write.sh tests/golden`
# rewrites them all.
# Run from the repository root.
set -e
out=$1
mkdir -p "$out"
for f in 3 4 5 6; do
    PYTHONPATH=src python3 -m epipower.cli figure "$f" \
        --config tests/golden/small.ini --out "$out/figure$f.csv" > /dev/null
done
PYTHONPATH=src python3 -m epipower.cli figure 5 \
    --config tests/golden/sncpc_seed7.ini --out "$out/sncpc_seed7.csv" > /dev/null
sh tests/golden/solve.sh NASH > "$out/solve_nash.txt"
sh tests/golden/solve.sh SNCPC > "$out/solve_sncpc.txt"
for s in M4 EPA nash_zero_gain; do
    sh tests/golden/solve.sh "$s" > "$out/solve_$s.txt"
done
