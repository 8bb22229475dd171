#!/usr/bin/env python3
"""Compare two pam-bench/v1 trajectory files and gate on regressions.

Usage: bench_compare.py OLD.json NEW.json [--threshold 0.10]

Records are matched by identity (bench, case, params, metric).  Only the
gated kinds move the exit code:

  throughput  regression when NEW < OLD * (1 - threshold)
  latency     regression when NEW > OLD * (1 + threshold)

count/ratio/info records are reported for context but never gated, and a
record present in OLD but missing from NEW is always a failure (a bench
silently dropping a metric is how trajectories rot).  Records only in NEW
are fine — that is how new benches join the baseline.

Exit codes: 0 pass, 1 regression or missing record, 2 schema/usage error.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_schema  # noqa: E402


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"bench_compare: {path}: {exc}", file=sys.stderr)
        sys.exit(2)
    errors = bench_schema.validate(doc, source=path)
    if errors:
        for err in errors:
            print(f"bench_compare: {err}", file=sys.stderr)
        sys.exit(2)
    return doc


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", metavar="OLD.json")
    parser.add_argument("new", metavar="NEW.json")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="relative regression threshold (default 0.10)")
    args = parser.parse_args()
    if not 0.0 < args.threshold < 1.0:
        print("bench_compare: --threshold must be in (0, 1)", file=sys.stderr)
        sys.exit(2)

    old_doc = load(args.old)
    new_doc = load(args.new)
    if old_doc["quick"] != new_doc["quick"]:
        print(f"bench_compare: WARNING: quick-mode mismatch "
              f"(old quick={old_doc['quick']}, new quick={new_doc['quick']}); "
              "timing deltas are not meaningful across modes",
              file=sys.stderr)
    if "nproc" in old_doc and "nproc" in new_doc and \
            old_doc["nproc"] != new_doc["nproc"]:
        print(f"bench_compare: WARNING: nproc mismatch "
              f"(old nproc={old_doc['nproc']}, new nproc={new_doc['nproc']}); "
              "the runs come from machines of a different size",
              file=sys.stderr)

    old_by_key = {bench_schema.record_key(r): r for r in old_doc["records"]}
    new_by_key = {bench_schema.record_key(r): r for r in new_doc["records"]}

    regressions = []
    missing = []
    compared = gated = 0
    print(f"comparing {args.old} ({old_doc['git_describe']}) -> "
          f"{args.new} ({new_doc['git_describe']}), "
          f"threshold {args.threshold:.0%}")
    for key, old_rec in sorted(old_by_key.items()):
        name = bench_schema.format_key(key)
        new_rec = new_by_key.get(key)
        if new_rec is None:
            missing.append(name)
            print(f"  MISSING  {name} (was {old_rec['value']:g} "
                  f"{old_rec['unit']})")
            continue
        compared += 1
        old_v, new_v = old_rec["value"], new_rec["value"]
        direction = bench_schema.GATED_KINDS.get(old_rec["kind"])
        if direction is None:
            continue
        gated += 1
        if old_v == 0:
            # No relative delta exists; report but never gate on it.
            print(f"  SKIP     {name}: old value is 0, cannot gate")
            continue
        delta = (new_v - old_v) / old_v
        regressed = (delta < -args.threshold if direction == "down"
                     else delta > args.threshold)
        status = "REGRESS" if regressed else (
            "ok" if abs(delta) <= args.threshold else "improve")
        print(f"  {status:<8} {name}: {old_v:g} -> {new_v:g} "
              f"{new_rec['unit']} ({delta:+.1%})")
        if regressed:
            regressions.append(name)
    only_new = sorted(new_by_key.keys() - old_by_key.keys())
    for key in only_new:
        print(f"  NEW      {bench_schema.format_key(key)}")

    print(f"summary: {compared} compared ({gated} gated), "
          f"{len(regressions)} regression(s), {len(missing)} missing, "
          f"{len(only_new)} new")
    for name in regressions:
        print(f"bench_compare: REGRESSION: {name}", file=sys.stderr)
    for name in missing:
        print(f"bench_compare: MISSING: {name}", file=sys.stderr)
    sys.exit(1 if regressions or missing else 0)


if __name__ == "__main__":
    main()
