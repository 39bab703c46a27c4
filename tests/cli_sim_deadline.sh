#!/bin/sh
# `fstg sim` under --time-budget-ms must exit 3 (budget exhausted) within
# setup + budget + slack. Setup is what `sim` runs before its budget starts
# (load, synthesize, verify), timed here as `fstg gen` on the same circuit,
# which also writes the test file the budgeted run simulates. The slack is
# SLACK_MS plus three setups, so it scales with the build: sanitizer builds
# run both the setup and the work before the first deadline poll 20-30x
# slower.
#
# Arguments after SLACK_MS go to the budgeted `fstg sim` (--static-prune
# puts the static pre-flight under the deadline too).
#
# Usage: cli_sim_deadline.sh FSTG WORKDIR CIRCUIT BUDGET_MS SLACK_MS [SIM_ARG...]
set -u
fstg=$1 dir=$2 circuit=$3 budget=$4 slack=$5
shift 5
mkdir -p "$dir" || exit 1
now_ms() { echo $(( $(date +%s%N) / 1000000 )); }

t0=$(now_ms)
"$fstg" gen "$circuit" -o "$dir/$circuit.tests" 2>/dev/null || exit 1
setup=$(( $(now_ms) - t0 ))

t0=$(now_ms)
"$fstg" sim "$circuit" "$dir/$circuit.tests" --time-budget-ms "$budget" "$@"
rc=$?
elapsed=$(( $(now_ms) - t0 ))
slack=$(( slack + 3 * setup ))
limit=$(( setup + budget + slack ))
echo "sim exit $rc after $elapsed ms (setup $setup ms + budget $budget ms" \
     "+ slack $slack ms = $limit ms)"
[ "$rc" -eq 3 ] && [ "$elapsed" -le "$limit" ]
