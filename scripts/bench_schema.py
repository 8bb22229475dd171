"""Schema validation for pam-bench/v1 trajectory files (stdlib only).

The emitting side is src/benchreport/bench_reporter.cpp; the schema is
documented in docs/BENCHMARKS.md.  Both scripts/bench_merge.py and
scripts/bench_compare.py validate through this module so a malformed file
fails the same way everywhere (including the CI bench-trajectory job).
"""

SCHEMA = "pam-bench/v1"

HEADER_KEYS = ("schema", "git_describe", "build_type", "compiler",
               "build_flags", "quick", "records")

#: Header fields added after the first files were written: optional, so
#: older trajectories still validate, but checked whenever present.
#: `nproc` is the processor count the producing machine reported.
OPTIONAL_HEADER_KEYS = ("nproc",)

RECORD_KEYS = ("bench", "case", "params", "metric", "kind", "value", "unit",
               "repeats")

KINDS = ("throughput", "latency", "count", "ratio", "info")

#: Kinds the regression gate acts on, with the direction that counts as a
#: regression ("down" = lower is worse, "up" = higher is worse).
GATED_KINDS = {"throughput": "down", "latency": "up"}


def record_key(record):
    """The cross-trajectory identity of one record."""
    return (record["bench"], record["case"],
            tuple(sorted(record["params"].items())), record["metric"])


def format_key(key):
    """Human-readable `bench/case{params}/metric` form of a record_key."""
    bench, case, params, metric = key
    param_str = ",".join(f"{k}={v}" for k, v in params)
    return f"{bench}/{case}" + (f"{{{param_str}}}" if param_str else "") + \
        f"/{metric}"


def validate(doc, source="<input>"):
    """Returns a list of error strings; empty means `doc` is a valid
    pam-bench/v1 section or merged trajectory."""
    errors = []
    if not isinstance(doc, dict):
        return [f"{source}: top level must be an object"]
    if doc.get("schema") != SCHEMA:
        errors.append(f"{source}: schema is {doc.get('schema')!r}, "
                      f"expected {SCHEMA!r}")
    for field in HEADER_KEYS:
        if field not in doc:
            errors.append(f"{source}: missing header field {field!r}")
    if not isinstance(doc.get("quick"), bool):
        errors.append(f"{source}: header field 'quick' must be a boolean")
    if "nproc" in doc and (not isinstance(doc["nproc"], int) or
                           isinstance(doc["nproc"], bool) or doc["nproc"] < 0):
        errors.append(f"{source}: header field 'nproc' must be a "
                      "non-negative integer")
    records = doc.get("records")
    if not isinstance(records, list):
        return errors + [f"{source}: 'records' must be an array"]
    seen = set()
    for i, record in enumerate(records):
        where = f"{source}: records[{i}]"
        if not isinstance(record, dict):
            errors.append(f"{where}: must be an object")
            continue
        missing = [k for k in RECORD_KEYS if k not in record]
        if missing:
            errors.append(f"{where}: missing field(s) {', '.join(missing)}")
            continue
        if not isinstance(record["params"], dict) or not all(
                isinstance(k, str) and isinstance(v, str)
                for k, v in record["params"].items()):
            errors.append(f"{where}: 'params' must map strings to strings")
            continue
        if record["kind"] not in KINDS:
            errors.append(f"{where}: unknown kind {record['kind']!r} "
                          f"(expected one of {', '.join(KINDS)})")
        if not isinstance(record["value"], (int, float)) or \
                isinstance(record["value"], bool):
            errors.append(f"{where}: 'value' must be a number")
        if not isinstance(record["repeats"], int) or record["repeats"] < 1:
            errors.append(f"{where}: 'repeats' must be a positive integer")
        key = record_key(record)
        if key in seen:
            errors.append(f"{where}: duplicate record {format_key(key)}")
        seen.add(key)
    return errors
