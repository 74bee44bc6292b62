#!/usr/bin/env bash
# Result-hash lock of the benchmark workloads.
#
# Runs every line of tests/data/bench_result_hashes.txt (workload,
# seed, smoke or full size) and fails naming the workload, seed and
# size of each run whose result_hash differs from the recorded one.
# The hash covers every query's virtual latency, cost, minimum BW, WAN
# bytes and failure flag, so a refactor that must not change results
# is checked for bit-identity here, at smoke and full size, instead of
# against a second checkout. The full-size runs take about 25 s on a
# 4-vCPU VM.
#
# Usage, from the root of a checkout:  bash tools/check_result_hashes.sh
# It first brings bench_wanify (in ${CARGO_TARGET_DIR:-.bench_build})
# up to date with the checkout through wanbench/run.py, as
# wanbench/check_determinism.sh does: an incremental build, so a
# binary built before an edit is rebuilt before any hash is compared.

set -u
cd "$(dirname "$0")/.."

# Build through the normal entry point (its JSON line is dropped).
python3 wanbench/run.py --workload mesh-cascade-64dc --seconds 1 \
    --trace 0 --smoke > /dev/null || exit 1
bench="${CARGO_TARGET_DIR:-.bench_build}/bench_wanify"

status=0
while read -r workload seed size want; do
    case "$workload" in '' | '#'*) continue ;; esac
    run="$workload seed=$seed $size"
    case "$size" in
    smoke) sizeFlag=--smoke ;;
    full) sizeFlag= ;;
    *)
        echo "FAIL: $run: size must be smoke or full"
        status=1
        continue
        ;;
    esac
    got=$(WANIFY_THREADS="${WANIFY_THREADS:-1}" "$bench" \
        --workload "$workload" --seed "$seed" $sizeFlag --seconds 1 \
        --trace 0 < /dev/null |
        awk '$1 == "info" && $2 == "result_hash" { print $3 }')
    if [ -n "${want:-}" ] && [ "${got:-none}" = "$want" ]; then
        echo "$run result_hash=$got"
    else
        echo "FAIL: $run result_hash=${got:-none}, recorded ${want:-none}"
        status=1
    fi
done < tests/data/bench_result_hashes.txt
[ $status -eq 0 ] && echo "result hashes: all runs match"
exit $status
