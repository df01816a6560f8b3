#!/usr/bin/env python3
"""Gate the drift between two JSONL outputs of the same command.

    scripts/golden_drift.py OLD NEW [--rel 1e-10]

Compares OLD and NEW line by line and field by field. Exits nonzero if
any key, string, bool or integer field differs, or if any other number
drifts by more than --rel (relative to the larger magnitude). Numbers are
compared as f64, so an integral float printed without a decimal point
(`"total_bytes":171798691840`) is still a float. Prints each changed line
with its changed fields, then the count of changed lines and the max drift.

Lines of `suite` output stripped of `wall_secs` end in `,}`; that comma is
dropped before parsing.
"""
import argparse
import json
import re
import sys

# Counters and identities: any change here is a changed decision.
EXACT = {
    "bytes", "channel_waits", "completed", "events", "failed", "id", "jobs",
    "max_heap_depth", "node", "nodes", "peak_concurrency", "ranks",
    "restarts", "seed", "staging_capacity_gib", "total_restarts",
}


def parse(line):
    try:
        return json.loads(line)
    except json.JSONDecodeError:
        return json.loads(re.sub(r",\s*}", "}", line))


def diff(old, new, path, field, out):
    """Append (path, old, new, drift) for each difference; drift is None
    for a difference no tolerance forgives."""
    if isinstance(old, dict) and isinstance(new, dict):
        if list(old) != list(new):
            out.append((path, list(old), list(new), None))
            return
        for k in old:
            diff(old[k], new[k], f"{path}.{k}" if path else k, k, out)
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            out.append((path, old, new, None))
            return
        for i, (a, b) in enumerate(zip(old, new)):
            diff(a, b, f"{path}[{i}]", field, out)
    elif number(old) and number(new):
        a, b = float(old), float(new)
        if a == b:
            return
        if field in EXACT:
            out.append((path, old, new, None))
        else:
            out.append((path, old, new, abs(a - b) / max(abs(a), abs(b))))
    elif type(old) is not type(new) or old != new:
        out.append((path, old, new, None))


def number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--rel", type=float, default=1e-10)
    args = ap.parse_args()
    with open(args.old) as f:
        old = f.read().splitlines()
    with open(args.new) as f:
        new = f.read().splitlines()

    failed = False
    if len(old) != len(new):
        print(f"line count: {len(old)} -> {len(new)}")
        failed = True
    changed, max_drift = 0, 0.0
    for n, (a, b) in enumerate(zip(old, new), 1):
        if a == b:
            continue
        changed += 1
        out = []
        diff(parse(a), parse(b), "", None, out)
        fields = []
        for path, x, y, drift in out:
            if drift is None or drift > args.rel:
                failed = True
            if drift is None:
                fields.append(f"{path}: {x!r} -> {y!r} (exact)")
            else:
                max_drift = max(max_drift, drift)
                fields.append(f"{path}: {x!r} -> {y!r} (rel {drift:.2e})")
        print(f"line {n}: " + ("; ".join(fields) or "number formatting only"))
    verdict = "FAIL" if failed else "ok"
    print(
        f"{verdict}: {changed} of {len(old)} lines differ, "
        f"max relative drift {max_drift:.2e} (tolerance {args.rel:g})"
    )
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
