#!/usr/bin/env bash
# `--prof` under a worker pool: `tracon predict --prof` with set-up on
# one worker and on four must report the same call counts, because the
# profiling accumulators are atomic and set-up runs each host-sim run
# exactly once whatever the worker count. Each of the three set-up
# layers is entered once.
#
# Usage: prof_setup_calls.sh TRACON_BINARY
set -euo pipefail

TRACON=$1

report_1=$("$TRACON" predict --threads 1 --prof 2>&1 >/dev/null)
report_4=$("$TRACON" predict --threads 4 --prof 2>&1 >/dev/null)
calls() {  # calls REPORT SCOPE: the scope's call count, or nothing
  awk -v s="$2" '$1 == s { print $2 }' <<< "$1"
}

for scope in virt.host_sim.run model.fit model.profile sim.perf_table \
             model.train; do
  one=$(calls "$report_1" "$scope")
  four=$(calls "$report_4" "$scope")
  echo "$scope: $one calls on 1 worker, $four on 4"
  [ -n "$one" ] && [ "$one" -gt 0 ] || { echo "FAIL: no $scope row"; exit 1; }
  [ "$one" = "$four" ] || { echo "FAIL: $scope call count differs"; exit 1; }
done
for scope in model.profile sim.perf_table model.train; do
  [ "$(calls "$report_4" "$scope")" = 1 ] ||
    { echo "FAIL: $scope entered more than once"; exit 1; }
done
echo "prof_setup_calls: counts match"
