#!/usr/bin/env bash
# The flat `tracon dynamic` run is the one-shard run of the sharded
# engine (DESIGN.md §7).
#
# Usage: one_shard_contract.sh TRACON_BINARY
#
#   1. the same short run with no shape flags and with
#      `--shards 1 --threads 4` writes byte-identical exports; the
#      metrics JSON/CSV differ only in the `shards`/`threads`
#      fingerprint entries the shape flags add, and the summary only in
#      the shape the header then names;
#   2. --confidence-weighting runs whenever the run has one shard
#      (`--threads 2` at 16 machines) and is rejected with two.
set -euo pipefail

TRACON=$1

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

RUN=(dynamic --machines 12 --lambda 20 --hours 0.5 --scheduler mibs
     --rebalance --snapshot-interval 300)
FILES=(metrics.json metrics.csv series.jsonl decisions.jsonl spans.jsonl
       chrome.json trace.jsonl events.jsonl events.csv)
exports() {  # every export of a dynamic run, into directory $1
  echo --metrics-out "$1/metrics.json" --metrics-csv "$1/metrics.csv" \
       --series-out "$1/series.jsonl" --decisions-out "$1/decisions.jsonl" \
       --spans-out "$1/spans.jsonl" --trace-out "$1/chrome.json" \
       --trace-jsonl "$1/trace.jsonl" --events-jsonl "$1/events.jsonl" \
       --trace "$1/events.csv"
}

echo "== flat run vs --shards 1 --threads 4 =="
mkdir flat one
"$TRACON" "${RUN[@]}" $(exports flat) > flat.log
"$TRACON" "${RUN[@]}" --shards 1 --threads 4 $(exports one) > one.log
shape='"(shards|threads)": |^fingerprint,(shards|threads),'
for f in "${FILES[@]}"; do
  [ -s "flat/$f" ] || { echo "FAIL: flat run wrote no $f"; exit 1; }
  case $f in
    metrics.*)
      grep -Eq "$shape" "flat/$f" \
          && { echo "FAIL: flat $f records the execution shape"; exit 1; }
      [ "$(grep -Ec "$shape" "one/$f")" -eq 2 ] \
          || { echo "FAIL: --shards 1 $f lacks shards/threads"; exit 1; }
      # Dropping an entry moves the JSON object's trailing comma.
      cmp <(grep -Ev "$shape" "flat/$f" | sed 's/,$//') \
          <(grep -Ev "$shape" "one/$f" | sed 's/,$//') \
          || { echo "FAIL: $f differs beyond shards/threads"; exit 1; }
      ;;
    *)
      cmp "flat/$f" "one/$f" || { echo "FAIL: $f differs"; exit 1; }
      ;;
  esac
done
summary() { grep -v ' written to ' "$1" | sed 's/ 1 shards, 4 threads,//'; }
cmp <(summary flat.log) <(summary one.log) \
    || { echo "FAIL: summaries differ"; exit 1; }

echo "== --confidence-weighting needs one shard =="
CONF=(dynamic --machines 16 --lambda 20 --hours 0.2 --scheduler mix
      --confidence-weighting)
"$TRACON" "${CONF[@]}" --threads 2 > conf.log
grep -q '^MIX8-RT: 16 machines, 1 shards, 2 threads,' conf.log \
    || { echo "FAIL: unexpected summary"; cat conf.log; exit 1; }
status=0
"$TRACON" "${CONF[@]}" --shards 2 > conf2.log 2> conf2.err || status=$?
[ "$status" -eq 1 ] \
    || { echo "FAIL: --shards 2 exited $status, want 1"; exit 1; }

echo "one_shard_contract: all checks passed"
