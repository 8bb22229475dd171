#!/usr/bin/env bash
# Runs the static-analysis gate: pam_lint (architecture and determinism
# rules A001..A003/D001..D006/X001,
# docs/STATIC_ANALYSIS.md) followed by clang-tidy over the curated check
# set in .clang-tidy, which alone owns the copy checks.  This is exactly
# what the `lint` CI job runs.
#
#   scripts/run_lint.sh [--build-dir DIR] [--json FILE] [--metrics FILE]
#                       [--dot FILE] [--changed] [--skip-tidy]
#
#   --build-dir DIR  build tree with pam_lint and compile_commands.json
#                    (default: build)
#   --json FILE      also write the pam-lint/v1 JSON report to FILE
#   --metrics FILE   also write the advisory pam-lint-metrics/v1 JSON
#   --dot FILE       also write the layer graph (`pam_lint graph --dot`)
#   --changed        fast path: lint only files changed vs origin/main
#                    (full compile_commands set stays the CI default)
#   --skip-tidy      run only pam_lint (needed where clang-tidy is absent)
#
# pam_lint scans the compile_commands.json file set (plus companion
# headers, closed over project includes) when the database exists, falling
# back to everything under src/.  With no clang-tidy binary the gate fails
# (exit 2) unless --skip-tidy is given, and a --skip-tidy pass says that
# only pam_lint ran.
#
# Both stages always run: a pam_lint failure no longer short-circuits
# clang-tidy, so CI logs and artifacts carry the full picture even when
# only one stage fails.
set -euo pipefail

ROOT_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR=build
JSON_OUT=""
METRICS_OUT=""
DOT_OUT=""
CHANGED=0
SKIP_TIDY=0

while [[ $# -gt 0 ]]; do
  case "$1" in
    --build-dir) BUILD_DIR="$2"; shift 2 ;;
    --json) JSON_OUT="$2"; shift 2 ;;
    --metrics) METRICS_OUT="$2"; shift 2 ;;
    --dot) DOT_OUT="$2"; shift 2 ;;
    --changed) CHANGED=1; shift ;;
    --skip-tidy) SKIP_TIDY=1; shift ;;
    -h|--help) sed -n '2,28p' "${BASH_SOURCE[0]}"; exit 0 ;;
    *) echo "run_lint: unknown argument: $1" >&2; exit 2 ;;
  esac
done

PAM_LINT="$BUILD_DIR/src/lint/pam_lint"
if [[ ! -x "$PAM_LINT" ]]; then
  echo "run_lint: $PAM_LINT not found or not executable." >&2
  echo "run_lint: build it first: cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j --target pam_lint" >&2
  exit 2
fi

DB="$BUILD_DIR/compile_commands.json"
LINT_ARGS=(--root "$ROOT_DIR")
CHANGED_FILES=()
if [[ "$CHANGED" == 1 ]]; then
  BASE=origin/main
  if ! git -C "$ROOT_DIR" rev-parse --verify --quiet "$BASE" > /dev/null; then
    BASE=main
  fi
  while IFS= read -r f; do
    case "$f" in
      src/*.cpp|src/*.hpp|src/*.h|src/*.cc) ;;
      *) continue ;;
    esac
    [[ -f "$ROOT_DIR/$f" ]] && CHANGED_FILES+=("$f")
  done < <(git -C "$ROOT_DIR" diff --name-only "$BASE" -- src/)
  if [[ "${#CHANGED_FILES[@]}" -eq 0 ]]; then
    echo "run_lint: --changed: no source changes vs $BASE; nothing to lint"
    exit 0
  fi
  echo "run_lint: --changed: ${#CHANGED_FILES[@]} file(s) vs $BASE"
  LINT_ARGS+=("${CHANGED_FILES[@]}")
elif [[ -f "$DB" ]]; then
  LINT_ARGS+=(--compile-commands "$DB")
else
  echo "run_lint: no $DB; scanning all of src/ instead"
fi

# Every requested artifact and the human report are emitted before any
# verdict is acted on (set -e is sidestepped with explicit statuses), so
# CI always gets the JSON report, the layer graph and the metrics file —
# whichever stage ends up failing.
LINT_STATUS=0
if [[ -n "$JSON_OUT" ]]; then
  "$PAM_LINT" "${LINT_ARGS[@]}" --json="$JSON_OUT" || LINT_STATUS=$?
  echo "run_lint: wrote $JSON_OUT"
fi
if [[ -n "$DOT_OUT" ]]; then
  "$PAM_LINT" graph "${LINT_ARGS[@]}" --dot="$DOT_OUT" || true
  echo "run_lint: wrote $DOT_OUT"
fi
if [[ -n "$METRICS_OUT" ]]; then
  "$PAM_LINT" metrics "${LINT_ARGS[@]}" --json="$METRICS_OUT" || true
  echo "run_lint: wrote $METRICS_OUT"
fi
"$PAM_LINT" "${LINT_ARGS[@]}" || LINT_STATUS=$?
if [[ "$LINT_STATUS" -ne 0 ]]; then
  echo "run_lint: pam_lint FAILED" >&2
fi

TIDY_STATUS=0
if [[ "$SKIP_TIDY" == 1 ]]; then
  echo "run_lint: clang-tidy skipped (--skip-tidy)"
else
  TIDY=""
  for cand in clang-tidy clang-tidy-18 clang-tidy-17 clang-tidy-16 clang-tidy-15 clang-tidy-14; do
    if command -v "$cand" > /dev/null 2>&1; then
      TIDY="$cand"
      break
    fi
  done
  if [[ -z "$TIDY" ]]; then
    echo "run_lint: no clang-tidy binary found; install one, or pass --skip-tidy to run pam_lint only" >&2
    TIDY_STATUS=2
  elif [[ ! -f "$DB" ]]; then
    echo "run_lint: WARNING: clang-tidy needs $DB; configure with CMake first" >&2
    TIDY_STATUS=2
  else
    "$TIDY" --version
    # The curated check set (.clang-tidy) runs warnings-as-errors; only
    # project translation units are tidied — third_party and generated
    # code never appear in src/.
    mapfile -t TU < <(python3 - "$DB" "$ROOT_DIR" <<'EOF'
import json, os, sys
db, root = sys.argv[1], sys.argv[2]
seen = set()
for entry in json.load(open(db)):
    path = os.path.normpath(os.path.join(entry.get("directory", ""), entry["file"]))
    rel = os.path.relpath(path, root)
    if rel.startswith("src" + os.sep) and rel not in seen:
        seen.add(rel)
        print(rel)
EOF
)
    if [[ "$CHANGED" == 1 ]]; then
      FILTERED=()
      for f in "${TU[@]}"; do
        for c in "${CHANGED_FILES[@]}"; do
          if [[ "$f" == "$c" ]]; then
            FILTERED+=("$f")
            break
          fi
        done
      done
      TU=("${FILTERED[@]+"${FILTERED[@]}"}")
    fi
    if [[ "${#TU[@]}" -eq 0 ]]; then
      echo "run_lint: no matching src/ translation units to tidy"
    else
      echo "run_lint: clang-tidy over ${#TU[@]} translation units"
      for f in "${TU[@]}"; do
        "$TIDY" -p "$BUILD_DIR" --quiet "$ROOT_DIR/$f" || TIDY_STATUS=1
      done
      if [[ "$TIDY_STATUS" -ne 0 ]]; then
        echo "run_lint: clang-tidy FAILED" >&2
      fi
    fi
  fi
fi

if [[ "$LINT_STATUS" -ne 0 ]]; then
  exit "$LINT_STATUS"
fi
if [[ "$TIDY_STATUS" -ne 0 ]]; then
  exit "$TIDY_STATUS"
fi
if [[ "$SKIP_TIDY" == 1 ]]; then
  echo "run_lint: gate PASSED (pam_lint only; clang-tidy not run)"
else
  echo "run_lint: gate PASSED (pam_lint + clang-tidy)"
fi
