#!/usr/bin/env bash
# Whole-run golden: two `tracon dynamic` runs with all nine exports,
# and the set-up outputs, compared by SHA-256 against recorded digests,
# so a refactor of the engine, the shard merge, a writer or set-up that
# moves any output byte fails here.
#
# Usage: run_golden.sh TRACON_BINARY
#
#   flat    the one-shard run: 16 machines, MIBS, --rebalance, a
#           300 s snapshot series;
#   sharded 512 machines in 4 shards on 2 threads, --rebalance: the
#           shard merge of every record store and of the series;
#   setup   `tracon profile --out` (the perf table as 17-digit CSV) and
#           `tracon predict` stdout, with set-up on every core and on
#           one worker (--threads 1).
#
# The `build` (git describe) and `threads` fingerprint values are
# masked; every other byte of every export and of the summary is
# pinned. To re-record after an intended output change, run with
# RECORD=1 and paste the printed lines over the DIGESTS block.
set -euo pipefail

TRACON=$1

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

FILES=(metrics.json metrics.csv series.jsonl decisions.jsonl spans.jsonl
       chrome.json trace.jsonl events.jsonl events.csv)
exports() {  # every export of a dynamic run, into directory $1
  echo --metrics-out "$1/metrics.json" --metrics-csv "$1/metrics.csv" \
       --series-out "$1/series.jsonl" --decisions-out "$1/decisions.jsonl" \
       --spans-out "$1/spans.jsonl" --trace-out "$1/chrome.json" \
       --trace-jsonl "$1/trace.jsonl" --events-jsonl "$1/events.jsonl" \
       --trace "$1/events.csv"
}

mkdir flat sharded masked
"$TRACON" dynamic --machines 16 --lambda 30 --hours 1 --scheduler mibs \
    --rebalance --snapshot-interval 300 $(exports flat) > flat/summary.txt
"$TRACON" dynamic --machines 512 --shards 4 --threads 2 --hours 0.25 \
    --rebalance $(exports sharded) > sharded/summary.txt

# Fingerprints sit in the first lines of each file: the JSON headers
# and the metrics JSON block, and the CSV's `fingerprint,KEY,value,V`
# rows.
for run in flat sharded; do
  mkdir "masked/$run"
  for f in "${FILES[@]}" summary.txt; do
    [ -s "$run/$f" ] || { echo "FAIL: $run run wrote no $f"; exit 1; }
    sed -E '1,20{s/("(build|threads)": *)"[^"]*"/\1"*"/g
                 s/^(fingerprint,(build|threads),value,).*/\1*/}' \
        "$run/$f" > "masked/$run/$f"
  done
done
mkdir masked/setup
for t in all 1; do
  threads=(); [ "$t" = all ] || threads=(--threads "$t")
  "$TRACON" profile --seed 42 "${threads[@]}" --out "masked/setup/profile_$t.csv" \
      > /dev/null
  "$TRACON" predict --seed 42 --fg video --bg blastn "${threads[@]}" \
      > "masked/setup/predict_$t.txt"
done
cd masked

if [ "${RECORD:-0}" = 1 ]; then
  sha256sum flat/* sharded/* setup/*
  exit 0
fi

if ! sha256sum --quiet -c - <<'DIGESTS'; then
40e65d3674335704142d1c078c22622555cb2e50af2dcbf9c3a1949fa36bee0a  flat/chrome.json
c38291e5de8833e7c6197604f781f33730b96c985ec16917f57a68c250a96c39  flat/decisions.jsonl
2cb76758eaf1778809c58cdeebade9302876a151bad220640e75bb18837d54df  flat/events.csv
1dc627490e21296d949905ac254002a5677b25b815d74c63a15b5019abdde64f  flat/events.jsonl
604790de04b8b65e0eac043ddc291dc90a77f2cc004ac98e7ea7452dd81ee522  flat/metrics.csv
aed1459762d8a4453fafef320b276c339cbb869dfc7abe2ac538b5703ebcc943  flat/metrics.json
44beeb46c6dee5dd663948dfdbfee23aad392e018e22ef10f5403d34561f06ab  flat/series.jsonl
a7c3d266affc5e68f6e86fa89031a753a526f6a6b6ff3078d3640c094b93b649  flat/spans.jsonl
5d9227650f9fc938d6c1795cfc9e2f47ec0518888ba877cb503a5e7e1a1b4df1  flat/summary.txt
9b3f8c789cb28ba018fafbb8cfdf79fdecf55808082ff2e9218d6b63d3218683  flat/trace.jsonl
43f1ff8612913dcde62afee760e7181d15532ae12c64cdc1e9712d2a4b0b8a0b  sharded/chrome.json
271170026dac13630a77f7547eaec94a8a0bbc2937b14d59beea0cb3a3321fbb  sharded/decisions.jsonl
fab95c78109593810f4f0bf6b33df2787d42229596d1ef7898160ad7bfb28f79  sharded/events.csv
da2e8af5d12a74c8bc9a7f7d09e4e9a2e472c621cb6ae00adcf81001c83d0b6c  sharded/events.jsonl
1968d8346921aae9a40e49526a8ace2b6ba2d26b15f84bdc1cebab0964e071f2  sharded/metrics.csv
dc7dccfdb118482de3d70bee58848f796911c1cf8af497b914532e2f662f5df4  sharded/metrics.json
92287c0fda9ba6d16bc61f91307f95b9b8abe852b2920cf3a066780ad1611f6e  sharded/series.jsonl
fff2e933433dc30365eabbd050e346082eb1dab18535ab9b5136fd8fdc8480cb  sharded/spans.jsonl
66370178ca6223e1066d04432b7236ebae50b7effb5afbbd82cc69cb20256e5e  sharded/summary.txt
3d3145d4559bd549c2169402f7c8b811e97607b0848cb6e86b60e5b0acc46466  sharded/trace.jsonl
8dd7235cbd58aa19c2c4325e7a4c85742a2814c1f2414ebc8fb0a95fdabde8c0  setup/predict_1.txt
8dd7235cbd58aa19c2c4325e7a4c85742a2814c1f2414ebc8fb0a95fdabde8c0  setup/predict_all.txt
ef8a68da84c89359a5bea0438f7b94fddfa985cbf4ea3f1ff443acf9154518ce  setup/profile_1.csv
ef8a68da84c89359a5bea0438f7b94fddfa985cbf4ea3f1ff443acf9154518ce  setup/profile_all.csv
DIGESTS
  echo "FAIL: run output changed"
  exit 1
fi
echo "run_golden: all digests match"
