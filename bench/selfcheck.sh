#!/bin/bash
# Runs the whole benchmark twice on this tree with one seed and compares the
# two runs: it fails if any end-to-end metric of the second run is worse than
# the first by more than its bound in BENCHMARK.json, or if a count that must
# repeat exactly (sim.engine.events, packet.mallocs_per_event,
# cluster.fct_gain) differs at all. It prints the observed difference beside
# every bound, so bounds are measured, not guessed. About 10 minutes.
#
#   bench/selfcheck.sh [seed]
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-1}"
for run in a b; do
	go run ./bench --seed "$seed" --out "bench/out/selfcheck-$run"
done
go run ./bench --compare "bench/out/selfcheck-a/result.json,bench/out/selfcheck-b/result.json"
