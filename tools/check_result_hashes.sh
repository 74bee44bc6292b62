#!/usr/bin/env bash
# Result-hash lock of the benchmark workloads.
#
# Runs every workload listed in tests/data/bench_result_hashes.txt at
# --smoke size and its default seed, and fails naming each workload
# whose result_hash differs from the recorded one. The hash covers
# every query's virtual latency, cost, minimum BW, WAN bytes and
# failure flag, so a refactor that must not change results is checked
# for bit-identity here instead of against a second checkout.
#
# Usage, from the root of a checkout:  bash tools/check_result_hashes.sh
# It reuses the bench_wanify that wanbench/check_determinism.sh builds
# (in ${CARGO_TARGET_DIR:-.bench_build}), building it first if absent.

set -u
cd "$(dirname "$0")/.."

bench="${CARGO_TARGET_DIR:-.bench_build}/bench_wanify"
if [ ! -x "$bench" ]; then
    python3 wanbench/run.py --workload mesh-cascade-64dc --seconds 1 \
        --trace 0 --smoke > /dev/null || exit 1
fi

status=0
while read -r workload want; do
    case "$workload" in '' | '#'*) continue ;; esac
    got=$(WANIFY_THREADS="${WANIFY_THREADS:-1}" "$bench" \
        --workload "$workload" --smoke --seconds 1 --trace 0 |
        awk '$1 == "info" && $2 == "result_hash" { print $3 }')
    if [ "${got:-none}" = "$want" ]; then
        echo "$workload result_hash=$got"
    else
        echo "FAIL: $workload result_hash=${got:-none}, recorded $want"
        status=1
    fi
done < tests/data/bench_result_hashes.txt
[ $status -eq 0 ] && echo "result hashes: all workloads match"
exit $status
