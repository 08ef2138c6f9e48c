#!/usr/bin/env bash
# Reproduce everything: tests, then every paper figure/table benchmark.
#
# Usage:
#   scripts/reproduce.sh                 # default reduced-scale harness
#   NDPBRIDGE_BENCH_UNITS=512 \
#   NDPBRIDGE_BENCH_SCALE=2.0 scripts/reproduce.sh    # toward paper scale
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== unit / integration / property tests =="
python -m pytest tests/ 2>&1 | tee test_output.txt

echo "== per-figure benchmark harness =="
python -m pytest benchmarks/ -s 2>&1 | tee bench_output.txt

echo "done; see test_output.txt and bench_output.txt"
