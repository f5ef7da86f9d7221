#!/bin/sh
# Prints the transcript of `epipower solve LABEL` (NASH, SNCPC, M4 or EPA)
# on one fixed 5-node network with mixed SINR targets.  The comparators
# run once; M4 runs to convergence, then again at belief depth 1 (only
# the belief policies read --max-stages).  LABEL nash_zero_gain
# instead prints two `solve NASH` runs on a 2-node network whose node 0
# has a zero squared gain: gain 0, then gain 1e-170, whose square
# underflows to 0.  Each run gives its command, its output (stdout and
# stderr; only one of them is ever written) and its exit code.
# tests/golden/write.sh names each transcript; for example
#   sh tests/golden/solve.sh NASH | cmp tests/golden/solve_nash.txt -
# Run from the repository root.
label=$1
run() {
    echo "\$ epipower $*"
    PYTHONPATH=src python3 -m epipower.cli "$@" 2>&1
    echo "exit $?"
}
if [ "$label" = nash_zero_gain ]; then
    for gain in 0 1e-170; do
        run solve NASH --gains "$gain,1" --thresholds-db 0,0 --grid-levels 11 \
            --p-max 10
    done
    exit
fi
network="--gains 2.4,1.9,1.5,1.2,0.4 --thresholds-db=-9,-12,-7,-13,-10 \
--noise-db 0 --grid-levels 12001"
if [ "$label" != M4 ]; then
    run solve "$label" $network
    exit
fi
for depth in 200 1; do
    run solve M4 $network --max-stages "$depth"
done
