#!/usr/bin/env python3
"""Diff a fresh bench run against its committed JSON baseline.

Usage:
    check_bench.py --bench <binary> --baseline <committed.json> \
        [--tolerance 0] [--tolerance-override metric=pct ...]

Runs `<binary> --json <tmpfile>`, then recursively compares every numeric
field against the committed baseline. Exits 1 if any value drifts by more
than `tolerance` relative to the baseline (or if the document structure
changed). Non-numeric fields must match exactly. Each failure names the
metric that drifted and by how much.

`--tolerance-override metric=pct` (repeatable) widens the bound for
individual metrics: `metric` matches a field's leaf key or a substring
of its dotted path, `pct` is the relative drift fraction (e.g.
`--tolerance-override qps=20.0` lets a wall-clock field drift 20x while
the modeled fields keep the exact default).

The modeled benches are deterministic (fixed seeds, virtual time), so any
drift means a code change altered the cost model or the replayed traffic
— exactly what this check is for. Baselines are regenerated on purpose
with `<binary> --json <baseline>` when a change is intentional.
"""
import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path


def tolerance_for(path, key, default, overrides):
    """Pick the tolerance for one field: an override whose name equals the
    leaf key or appears in the dotted path wins; otherwise the default."""
    for name, tol in overrides.items():
        if name == key or name in path:
            return tol
    return default


def compare(baseline, fresh, tolerance, path, failures, overrides, key=""):
    """Recursively compare `fresh` against `baseline`, appending human-
    readable drift descriptions to `failures`."""
    if isinstance(baseline, dict):
        if not isinstance(fresh, dict):
            failures.append(f"{path}: expected object, got {type(fresh).__name__}")
            return
        for key in baseline:
            if key not in fresh:
                failures.append(f"{path}.{key}: missing from fresh run")
            else:
                compare(baseline[key], fresh[key], tolerance, f"{path}.{key}",
                        failures, overrides, key)
        for key in fresh:
            if key not in baseline:
                failures.append(f"{path}.{key}: not in baseline (regenerate it?)")
    elif isinstance(baseline, list):
        if not isinstance(fresh, list):
            failures.append(f"{path}: expected array, got {type(fresh).__name__}")
            return
        if len(baseline) != len(fresh):
            failures.append(
                f"{path}: length {len(fresh)} != baseline {len(baseline)}")
            return
        for i, (b, f) in enumerate(zip(baseline, fresh)):
            compare(b, f, tolerance, f"{path}[{i}]", failures, overrides, key)
    elif isinstance(baseline, bool) or not isinstance(baseline, (int, float)):
        if baseline != fresh:
            failures.append(f"{path}: '{fresh}' != baseline '{baseline}'")
    else:
        if not isinstance(fresh, (int, float)) or isinstance(fresh, bool):
            failures.append(f"{path}: expected number, got {fresh!r}")
            return
        tolerance = tolerance_for(path, key, tolerance, overrides)
        if baseline == 0:
            # Exact-zero fields (e.g. parity_max_rel_err) have no scale to
            # be relative against; any nonzero value is a failure.
            if fresh != 0:
                failures.append(f"{path}: {fresh} != baseline 0")
            return
        drift = abs(fresh - baseline) / abs(baseline)
        if drift > tolerance:
            failures.append(
                f"{path}: {fresh:g} drifted {drift:.1%} from baseline "
                f"{baseline:g} (tolerance {tolerance:.0%})")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench", required=True,
                        help="bench binary to run with --json")
    parser.add_argument("--baseline", required=True,
                        help="committed JSON baseline to diff against")
    parser.add_argument("--tolerance", type=float, default=0.0,
                        help="max allowed relative drift (default 0: the "
                             "modeled benches must reproduce exactly)")
    parser.add_argument("--tolerance-override", action="append", default=[],
                        metavar="METRIC=PCT",
                        help="per-metric drift bound, e.g. perplexity=0.02; "
                             "METRIC matches a leaf key or path substring "
                             "(repeatable)")
    args = parser.parse_args()

    overrides = {}
    for spec in args.tolerance_override:
        name, sep, pct = spec.partition("=")
        try:
            if not sep or not name:
                raise ValueError
            overrides[name] = float(pct)
        except ValueError:
            print(f"check_bench: bad --tolerance-override '{spec}' "
                  f"(expected METRIC=PCT, e.g. perplexity=0.02)",
                  file=sys.stderr)
            return 2

    baseline_path = Path(args.baseline)
    if not baseline_path.is_file():
        # A missing baseline is a skip, not a failure: new benches land
        # before their first committed baseline, and a fresh checkout
        # must not fail the build for it.
        print(f"check_bench: SKIP {Path(args.bench).name} — baseline "
              f"'{baseline_path}' not committed yet; generate it with "
              f"`{Path(args.bench).name} --json {baseline_path.name}`")
        return 0
    try:
        baseline = json.loads(baseline_path.read_text())
    except json.JSONDecodeError as e:
        print(f"check_bench: baseline '{baseline_path}' is not valid JSON "
              f"(line {e.lineno}, column {e.colno}: {e.msg})",
              file=sys.stderr)
        return 1

    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        fresh_path = Path(tmp.name)
    try:
        result = subprocess.run([args.bench, "--json", str(fresh_path)],
                                stdout=subprocess.DEVNULL)
        if result.returncode != 0:
            print(f"check_bench: '{args.bench}' exited {result.returncode}",
                  file=sys.stderr)
            return 1
        try:
            fresh = json.loads(fresh_path.read_text())
        except json.JSONDecodeError as e:
            print(f"check_bench: '{args.bench}' wrote invalid JSON "
                  f"(line {e.lineno}, column {e.colno}: {e.msg})",
                  file=sys.stderr)
            return 1
    finally:
        fresh_path.unlink(missing_ok=True)

    failures = []
    compare(baseline, fresh, args.tolerance, "$", failures, overrides)
    name = Path(args.bench).name
    if failures:
        print(f"check_bench: {name} drifted from {baseline_path.name}:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(f"check_bench: {name} matches {baseline_path.name} "
          f"(tolerance {args.tolerance:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
