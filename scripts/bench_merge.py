#!/usr/bin/env python3
"""Merge per-bench pam-bench/v1 sections into one trajectory file.

Usage: bench_merge.py SECTION.json [SECTION.json ...] --out MERGED.json

Each input is the JSON one bench binary writes via --bench-json /
PAM_BENCH_JSON.  The merged file keeps the pam-bench/v1 shape: one header
(taken from the first section; provenance fields, `nproc` included, must
agree across sections) plus the concatenation of all records, sorted by identity so
regeneration is byte-stable.  scripts/run_benches.sh is the usual caller.

Exit codes: 0 merged, 2 validation/usage error.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_schema  # noqa: E402


def load_section(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        sys.exit(f"bench_merge: {path}: {exc}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sections", nargs="+", metavar="SECTION.json")
    parser.add_argument("--out", required=True, metavar="MERGED.json")
    args = parser.parse_args()

    errors = []
    sections = []
    for path in args.sections:
        doc = load_section(path)
        errors += bench_schema.validate(doc, source=path)
        sections.append((path, doc))
    if errors:
        for err in errors:
            print(f"bench_merge: {err}", file=sys.stderr)
        sys.exit(2)

    head_path, head = sections[0]
    records = []
    seen = {}
    for path, doc in sections:
        for field in ("git_describe", "build_type", "compiler", "build_flags",
                      "quick", "nproc"):
            if doc.get(field) != head.get(field):
                errors.append(
                    f"{path}: header field {field!r} = {doc.get(field)!r} "
                    f"disagrees with {head_path} ({head.get(field)!r}); "
                    "sections must come from one build + one quick setting "
                    "on one machine")
        for record in doc["records"]:
            key = bench_schema.record_key(record)
            if key in seen:
                errors.append(f"{path}: record "
                              f"{bench_schema.format_key(key)} already "
                              f"emitted by {seen[key]}")
            seen[key] = path
            records.append(record)
    if errors:
        for err in errors:
            print(f"bench_merge: {err}", file=sys.stderr)
        sys.exit(2)

    records.sort(key=bench_schema.record_key)
    merged = {
        "schema": bench_schema.SCHEMA,
        "bench": "pam-bench-suite",
        "git_describe": head["git_describe"],
        "build_type": head["build_type"],
        "compiler": head["compiler"],
        "build_flags": head["build_flags"],
        "quick": head["quick"],
        **({"nproc": head["nproc"]} if "nproc" in head else {}),
        "records": [{k: r[k] for k in bench_schema.RECORD_KEYS}
                    for r in records],
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(merged, fh, indent=2)
        fh.write("\n")
    print(f"bench_merge: wrote {args.out} "
          f"({len(records)} records from {len(sections)} sections, "
          f"quick={'yes' if head['quick'] else 'no'})")


if __name__ == "__main__":
    main()
