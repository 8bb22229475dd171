#!/usr/bin/env bash
# Runs the full benchmark suite and merges every section into one
# pam-bench/v1 trajectory file (see docs/BENCHMARKS.md).
#
#   scripts/run_benches.sh [--build-dir DIR] [--out FILE] [--quick]
#
#   --build-dir DIR  build tree with the bench binaries (default: build)
#   --out FILE       merged trajectory output (default: BENCH_trajectory.json)
#   --quick          set PAM_BENCH_QUICK=1: same cases/metrics, fewer
#                    iterations/shorter simulated windows (what CI runs)
#
# Typical flows:
#   scripts/run_benches.sh --quick --out BENCH_new.json
#   scripts/bench_compare.py BENCH_baseline.json BENCH_new.json
# Re-baselining: scripts/run_benches.sh --quick --out BENCH_baseline.json
set -euo pipefail

SCRIPT_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
BUILD_DIR=build
OUT=BENCH_trajectory.json
QUICK=0

while [[ $# -gt 0 ]]; do
  case "$1" in
    --build-dir) BUILD_DIR="$2"; shift 2 ;;
    --out) OUT="$2"; shift 2 ;;
    --quick) QUICK=1; shift ;;
    -h|--help) sed -n '2,15p' "${BASH_SOURCE[0]}"; exit 0 ;;
    *) echo "run_benches: unknown argument: $1" >&2; exit 2 ;;
  esac
done

BENCHES=(
  bench_algorithm_micro
  bench_cluster_scale
  bench_datacenter_scale
  bench_fig1_crossings
  bench_fig2_latency
  bench_fig2_throughput
  bench_latency_breakdown
  bench_load_sweep
  bench_pcie_ablation
  bench_policy_sweep
  bench_table1_capacity
)

for b in "${BENCHES[@]}"; do
  if [[ ! -x "$BUILD_DIR/bench/$b" ]]; then
    echo "run_benches: $BUILD_DIR/bench/$b not found or not executable." >&2
    echo "run_benches: configure + build first: cmake -B $BUILD_DIR -S . -DCMAKE_BUILD_TYPE=Release && cmake --build $BUILD_DIR -j" >&2
    exit 2
  fi
done

if [[ "$QUICK" == 1 ]]; then
  export PAM_BENCH_QUICK=1
  echo "run_benches: quick mode (PAM_BENCH_QUICK=1)"
fi

TMPDIR_BENCH="$(mktemp -d)"
trap 'rm -rf "$TMPDIR_BENCH"' EXIT

SECTIONS=()
for b in "${BENCHES[@]}"; do
  echo "run_benches: $b"
  if ! "$BUILD_DIR/bench/$b" --bench-json="$TMPDIR_BENCH/$b.json" \
      > "$TMPDIR_BENCH/$b.log" 2>&1; then
    echo "run_benches: $b FAILED; output:" >&2
    cat "$TMPDIR_BENCH/$b.log" >&2
    exit 1
  fi
  SECTIONS+=("$TMPDIR_BENCH/$b.json")
done

python3 "$SCRIPT_DIR/bench_merge.py" "${SECTIONS[@]}" --out "$OUT"
