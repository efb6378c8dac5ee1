#!/usr/bin/env bash
# Simulator golden test: the paper figures and one seeded experiment must
# reproduce the committed output in tests/golden/ byte for byte.
#  - fig4_selected_replicas and fig5_timing_failures at AQUA_BENCH_SEEDS=1;
#  - aqua_experiment with a mid-run crash of five replicas (view change,
#    eviction, one redispatch, QoS callbacks) and staleness probes, its
#    stdout and its per-request CSV.
# The simulator is deterministic per seed, so any difference is a real
# behaviour change: review it, do not re-bake it blindly.
#
# Driven by ctest with FIG4, FIG5 and AQUA_EXPERIMENT pointing at the built
# binaries and GOLDEN_DIR at tests/golden.
set -euo pipefail

FIG4="${FIG4:?FIG4 must point at the fig4_selected_replicas binary}"
FIG5="${FIG5:?FIG5 must point at the fig5_timing_failures binary}"
EXPERIMENT="${AQUA_EXPERIMENT:?AQUA_EXPERIMENT must point at the aqua_experiment binary}"
GOLDEN="${GOLDEN_DIR:?GOLDEN_DIR must point at tests/golden}"

WORK="$(mktemp -d)"
trap 'rm -rf "${WORK}"' EXIT
cd "${WORK}"
# The figure benches also write BENCH_*.json (and print its path); keep it
# in the scratch dir under a relative name.
export AQUA_BENCH_JSON_DIR=.

AQUA_BENCH_SEEDS=1 "${FIG4}" >fig4_selected_replicas.txt
AQUA_BENCH_SEEDS=1 "${FIG5}" >fig5_timing_failures.txt
"${EXPERIMENT}" --seed 11 --requests 60 --clients 2 --think 50 --crash-at 3.01 \
  --crash-count 5 --probe-staleness 500 --csv aqua_experiment.csv >aqua_experiment.txt

status=0
for f in fig4_selected_replicas.txt fig5_timing_failures.txt aqua_experiment.txt \
  aqua_experiment.csv; do
  if ! diff -u "${GOLDEN}/${f}" "${f}"; then
    echo "FAIL: ${f} differs from the golden copy" >&2
    status=1
  fi
done
exit "${status}"
