#!/bin/sh
# Prints the transcript of `epipower solve SCHEME` (nash or sncpc) on one
# fixed 5-node network with mixed SINR targets: a run to convergence, then
# a run capped at one sweep.  SCHEME nash_zero_gain instead prints two
# `solve nash` runs on a 2-node network whose node 0 has a zero squared
# gain: gain 0, then gain 1e-170, whose square underflows to 0.  Each run
# gives its command, its output (stdout and stderr; only one of them is
# ever written) and its exit code.  tests/golden/solve_SCHEME.txt holds
# the expected transcript:
#   sh tests/golden/solve.sh nash | cmp tests/golden/solve_nash.txt -
# Run from the repository root.
scheme=$1
run() {
    echo "\$ epipower $*"
    PYTHONPATH=src python3 -m epipower.cli "$@" 2>&1
    echo "exit $?"
}
if [ "$scheme" = nash_zero_gain ]; then
    for gain in 0 1e-170; do
        run solve nash --gains "$gain,1" --thresholds-db 0,0 --grid-levels 11 \
            --p-max 10
    done
    exit
fi
for cap in 200 1; do
    run solve "$scheme" --gains 2.4,1.9,1.5,1.2,0.4 \
        --thresholds-db=-9,-12,-7,-13,-10 --noise-db 0 --grid-levels 12001 \
        --max-stages "$cap"
done
