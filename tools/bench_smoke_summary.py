#!/usr/bin/env python3
"""Fold bench records into one BENCH_smoke.json entry.

Each INPUT is the JSONL a bench_* binary appends with --trace-out=FILE
(fields in docs/OBSERVABILITY.md), or `bulkdel_loadgen --json-out=FILE`'s
summary, turned into one "server" record per op class. Records are grouped
by (bench, series, x, scale); every numeric field of a key's repeated records
folds into [median, min, max] (nested io, pool and extra fields as
"io.reads", "extra.ratio", ...). One JSON line {"date", "commit", "records"}
is appended to --out.

Exits non-zero, appending nothing, when an input is missing or empty, a
record fails a gate in GATES, or --require-file-backend finds no record of a
--backend=file run with wall time; and when --out is left unchanged.
"""

import argparse
import json
import os
import statistics
import sys

INF = float("inf")
# (bench, series or None for every series, field, lo, hi): each record of
# that bench and series must carry the field, within [lo, hi].
GATES = [
    ("ablation_predicate", "range plan", "extra.ratio", 5.0, INF),
    ("ablation_cascade", "shared-sort", "extra.ratio", 1.05, INF),
    ("server", None, "extra.ops", 1, INF),
    ("server", None, "extra.p50_us", 0, INF),
    ("server", None, "extra.p99_us", 0, INF),
    ("server", None, "extra.p999_us", 0, INF),
    ("server", None, "extra.total_ops_per_sec", 0, INF),
    ("server", None, "extra.errors", 0, 0),
]
KEY = ("bench", "series", "x", "scale")


def loadgen_records(run):
    """bulkdel_loadgen's summary as one record per op class."""
    series = run.get("backend", "sim")
    if run.get("protocol") not in (None, "sidefile"):
        series += "|" + run["protocol"]
    shared = {k: run[k] for k in ("total_ops_per_sec", "elapsed_s")
              if k in run}
    shared["errors"] = run.get("errors", 0)
    for counter in ("wal.fsyncs", "disk.syncs", "sidefile.appends",
                    "net.rejected"):
        if counter in run.get("metrics", {}):
            shared[counter.replace(".", "_")] = run["metrics"][counter]
    scale = {"clients": run.get("clients"), "backend": run.get("backend")}
    return [{"bench": "server", "series": series, "x": op, "scale": scale,
             "extra": dict(stats, **shared)}
            for op, stats in sorted(run.get("op_classes", {}).items())]


def read_records(path):
    with open(path) as f:
        text = f.read()
    try:
        run = json.loads(text)
    except ValueError:  # JSONL: one record per line
        run = None
    if isinstance(run, dict) and "op_classes" in run:
        return loadgen_records(run)
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def numbers(record):
    """The record's numeric fields, one level of nesting flattened."""
    out = {}
    for key, value in record.items():
        if key in KEY:
            continue
        items = value.items() if isinstance(value, dict) else [(None, value)]
        for sub, v in items:
            if isinstance(v, (int, float)) and not isinstance(v, bool):
                out[key if sub is None else f"{key}.{sub}"] = v
    return out


def gate_errors(records, require_file_backend):
    errors = []
    for bench, series, field, lo, hi in GATES:
        for r in records:
            if r["bench"] == bench and series in (None, r["series"]):
                value = numbers(r).get(field)
                if value is None or not lo <= value <= hi:
                    errors.append(f"{bench}/{r['series']}/{r['x']}: {field}="
                                  f"{value}, outside [{lo}, {hi}]")
    if require_file_backend and not any(
            r.get("scale", {}).get("backend") == "file" and
            numbers(r).get("wall_micros", 0) > 0 for r in records):
        errors.append("--require-file-backend: no record of a file-backed "
                      "run with wall time (the file-backend leg did not run)")
    return errors


def fold(records):
    groups = {}
    for r in records:
        key = tuple(json.dumps(r.get(k), sort_keys=True) for k in KEY)
        groups.setdefault(key, []).append(numbers(r))
    out = []
    for key, rows in groups.items():
        values = {f: [row[f] for row in rows if f in row]
                  for f in sorted(set().union(*rows))}
        out.append(dict({k: json.loads(v) for k, v in zip(KEY, key)},
                        n=len(rows),
                        stats={f: [statistics.median(v), min(v), max(v)]
                               for f, v in values.items()}))
    return out


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--out", required=True)
    parser.add_argument("--require-file-backend", action="store_true")
    parser.add_argument("--commit", default="unknown")
    parser.add_argument("--date", default="unknown")
    parser.add_argument("inputs", nargs="+")
    args = parser.parse_args(argv)
    records = []
    for path in args.inputs:
        got = read_records(path) if os.path.exists(path) else []
        if not got:
            print(f"missing or empty input {path}", file=sys.stderr)
            return 1
        records += got
    errors = gate_errors(records, args.require_file_backend)
    for error in errors:
        print(f"gate: {error}", file=sys.stderr)
    if errors:
        return 1
    entry = {"date": args.date, "commit": args.commit,
             "records": fold(records)}
    size = os.path.getsize(args.out) if os.path.exists(args.out) else 0
    with open(args.out, "a") as f:
        f.write(json.dumps(entry, sort_keys=True) + "\n")
    if os.path.getsize(args.out) <= size:
        print(f"{args.out} unchanged — refusing to pass", file=sys.stderr)
        return 1
    print(f"appended {len(records)} records as {len(entry['records'])} keys")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
