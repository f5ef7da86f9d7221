#!/bin/sh
# Prints the transcript of `epipower solve SCHEME` (nash or sncpc) on one
# fixed 5-node network with mixed SINR targets: a run to convergence, then
# a run capped at one sweep.  Each run gives its command, its output
# (stdout and stderr; only one of them is ever written) and its exit code.
# tests/golden/solve_SCHEME.txt holds the expected transcript:
#   sh tests/golden/solve.sh nash | cmp tests/golden/solve_nash.txt -
# Run from the repository root.
scheme=$1
for cap in 200 1; do
    set -- solve "$scheme" --gains 2.4,1.9,1.5,1.2,0.4 \
        --thresholds-db=-9,-12,-7,-13,-10 --noise-db 0 --grid-levels 12001 \
        --max-stages "$cap"
    echo "\$ epipower $*"
    PYTHONPATH=src python3 -m epipower.cli "$@" 2>&1
    echo "exit $?"
done
