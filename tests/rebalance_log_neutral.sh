#!/usr/bin/env bash
# Recording the decision log changes no other output of a rebalancing
# run (DESIGN.md §6g, §6h): the rebalancer keeps its own mispredict
# signal and never reads the log.
#
# Usage: rebalance_log_neutral.sh TRACON_BINARY
#
# Runs the same 512-machine, 4-thread `--rebalance` run without and
# with `--decisions-out` and compares the metrics JSON (the `build`
# fingerprint masked), the series, the span log, the Chrome trace, the
# task-event JSONL and the summary on stdout byte for byte.
set -euo pipefail

TRACON=$1

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

RUN=(dynamic --machines 512 --lambda 800 --hours 2 --scheduler mibs
     --threads 4 --rebalance --snapshot-interval 600)
FILES=(metrics.json series.jsonl spans.jsonl chrome.json events.jsonl)
exports() {  # the compared exports of a run, into directory $1
  echo --metrics-out "$1/metrics.json" --series-out "$1/series.jsonl" \
       --spans-out "$1/spans.jsonl" --trace-out "$1/chrome.json" \
       --events-jsonl "$1/events.jsonl"
}

mkdir off on
"$TRACON" "${RUN[@]}" $(exports off) > off/stdout.txt
"$TRACON" "${RUN[@]}" $(exports on) --decisions-out on/decisions.jsonl \
    > on/stdout.txt
grep -q '"kind": "migration"' on/decisions.jsonl \
    || { echo "FAIL: the rebalancing run migrated nothing"; exit 1; }

mask() { sed -E '1,20s/("build": *)"[^"]*"/\1"*"/' "$1"; }
for f in "${FILES[@]}"; do
  [ -s "off/$f" ] || { echo "FAIL: the run wrote no $f"; exit 1; }
  cmp <(mask "off/$f") <(mask "on/$f") \
      || { echo "FAIL: --decisions-out changed $f"; exit 1; }
done
summary() { grep -v ' written to ' "$1"; }
cmp <(summary off/stdout.txt) <(summary on/stdout.txt) \
    || { echo "FAIL: --decisions-out changed the summary"; exit 1; }

echo "rebalance_log_neutral: all checks passed"
