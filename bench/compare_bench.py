#!/usr/bin/env python3
"""Compare two BENCH_engine.json files and fail on perf regressions.

CI runs the engine hot-path and warm-session microbenches on every push and
uploads BENCH_engine.json as an artifact. This comparator pulls the previous
run's artifact and fails the job when any row regressed by more than the
threshold (default 10%) on any gated metric:

  * ns_per_event      (lower is better)  — scheduler hot-path cost
  * sessions_per_sec  (higher is better) — session throughput
  * allocs_per_run    (lower is better)  — warm-path allocation count
  * work_inflation    (lower is better)  — sharded vs unsharded process CPU

so slowdowns (and the warm path growing allocations back) are caught at the
PR that introduces them instead of drifting in silently.

Rows are keyed by (workload, mode, n_variants). Rows present only in the
baseline (a shape the bench no longer measures) or only in the current run
(a newly added shape) are reported but never fail the comparison; likewise a
metric absent from the baseline row (an older artifact predating the metric)
warns and skips — only a measured same-shape regression fails.

  $ bench/compare_bench.py baseline.json current.json
  $ bench/compare_bench.py --threshold 0.10 baseline.json current.json
  $ bench/compare_bench.py --allow-missing-baseline missing.json current.json
  $ bench/compare_bench.py --self-test

stdlib only; exit 0 = no regression, 1 = regression, 2 = usage/IO error.
"""

import argparse
import json
import sys

# (metric key, direction). A row is gated on every metric it carries in both
# files; directions are "lower" (cost) or "higher" (throughput).
METRICS = [
    ("ns_per_event", "lower"),
    ("sessions_per_sec", "higher"),
    ("allocs_per_run", "lower"),
    ("work_inflation", "lower"),
]


def load_rows(path):
    """Return {(workload, mode, n_variants): row_dict} from a bench JSON.

    Rows missing a key field (a renamed schema, a truncated artifact) are
    warned about and skipped — a stale baseline must degrade to "nothing to
    compare", never crash the job with a KeyError.
    """
    with open(path, "r", encoding="utf-8") as fp:
        data = json.load(fp)
    rows = {}
    for i, row in enumerate(data.get("rows", [])):
        try:
            key = (row["workload"], row["mode"], int(row["n_variants"]))
        except (KeyError, TypeError, ValueError) as err:
            print("warning: {} row {}: missing/bad key field ({}); skipped".format(
                path, i, err), file=sys.stderr)
            continue
        rows[key] = row
    return rows


def row_metric(row, metric):
    """The metric as float, or None when absent/non-numeric (renamed key,
    or an older baseline predating the metric)."""
    try:
        return float(row[metric])
    except (KeyError, TypeError, ValueError):
        return None


def regressed(base, cur, direction, threshold):
    """Whether cur regressed past threshold relative to base.

    "lower" metrics regress when cur grows; a zero baseline (the warm path's
    allocs_per_run) cannot use a relative test, so it allows an absolute
    slack of 1.0 — any real allocation creep (>= 1/run sustained) fails.
    "higher" metrics regress when cur shrinks.
    """
    if direction == "lower":
        if base <= 0.0:
            return cur > base * (1.0 + threshold) + 1.0
        return (cur - base) / base > threshold
    return base > 0.0 and (base - cur) / base > threshold


def compare(baseline, current, threshold):
    """Compare row maps; return (regressions, lines) where lines is a report."""
    regressions = []
    lines = []
    for key in sorted(current.keys()):
        label = "{}/{}/n={}".format(*key)
        cur_row = current[key]
        if all(row_metric(cur_row, m) is None for m, _ in METRICS):
            lines.append("  SKIP   {}: current row has no gated metric".format(label))
            continue
        if key not in baseline:
            lines.append("  NEW    {}: no baseline row".format(label))
            continue
        base_row = baseline[key]
        for metric, direction in METRICS:
            cur_val = row_metric(cur_row, metric)
            base_val = row_metric(base_row, metric)
            if cur_val is None or base_val is None:
                if (cur_val is None) != (base_val is None):
                    lines.append("  SKIP   {}: {} only in {} row".format(
                        label, metric, "current" if base_val is None else "baseline"))
                continue
            if direction == "lower" and base_val <= 0.0 and cur_val <= 0.0:
                lines.append("  OK     {}: {} stayed 0".format(label, metric))
                continue
            verdict = "OK"
            if regressed(base_val, cur_val, direction, threshold):
                verdict = "REGRESS"
                regressions.append("{}:{}".format(label, metric))
            delta = (cur_val - base_val) / base_val if base_val > 0.0 else float("inf")
            lines.append("  {:<6} {}: {} {:.2f} -> {:.2f} ({:+.1%})".format(
                verdict, label, metric, base_val, cur_val, delta))
    for key in sorted(set(baseline.keys()) - set(current.keys())):
        lines.append("  GONE   {}/{}/n={}: row dropped from current run".format(*key))
    return regressions, lines


def self_test():
    """Exercise the comparison logic on synthetic row maps."""
    base = {
        ("uniform", "full", 2): {"ns_per_event": 100.0},
        ("uniform", "full", 4): {"ns_per_event": 100.0},
        ("skewed", "selective", 2): {"ns_per_event": 50.0},
        ("gone", "full", 2): {"ns_per_event": 10.0},
    }
    cur = {
        ("uniform", "full", 2): {"ns_per_event": 109.9},   # +9.9%: within threshold
        ("uniform", "full", 4): {"ns_per_event": 111.0},   # +11%: regression
        ("skewed", "selective", 2): {"ns_per_event": 40.0},  # improvement
        ("new", "full", 8): {"ns_per_event": 75.0},        # new shape: never fails
    }
    regressions, _ = compare(base, cur, threshold=0.10)
    assert regressions == ["uniform/full/n=4:ns_per_event"], regressions
    regressions, _ = compare(base, cur, threshold=0.50)
    assert regressions == [], regressions
    # A zero ns baseline row is skipped, not divided by (absolute slack > 1).
    regressions, _ = compare({("z", "full", 1): {"ns_per_event": 0.0}},
                             {("z", "full", 1): {"ns_per_event": 0.5}}, 0.10)
    assert regressions == [], regressions
    # Missing or renamed metric keys warn and skip, never raise.
    regressions, lines = compare(
        {("m", "full", 1): {"ns": 1.0}, ("n", "full", 1): {"ns_per_event": 1.0}},
        {("m", "full", 1): {"ns_per_event": 99.0}, ("n", "full", 1): {"renamed": 99.0}},
        0.10)
    assert regressions == [], regressions
    assert sum("SKIP" in line for line in lines) == 2, lines
    # Throughput regresses downward; improvements never fail.
    regressions, _ = compare(
        {("w", "warm", 8): {"sessions_per_sec": 1000.0},
         ("w", "cold", 8): {"sessions_per_sec": 100.0}},
        {("w", "warm", 8): {"sessions_per_sec": 850.0},    # -15%: regression
         ("w", "cold", 8): {"sessions_per_sec": 140.0}},   # +40%: fine
        0.10)
    assert regressions == ["w/warm/n=8:sessions_per_sec"], regressions
    # The zero-alloc steady state: staying at 0 passes, creeping past the
    # absolute slack of 1 alloc/run fails, and an older baseline without the
    # metric skips rather than fails.
    regressions, lines = compare(
        {("w", "warm", 8): {"sessions_per_sec": 100.0, "allocs_per_run": 0.0}},
        {("w", "warm", 8): {"sessions_per_sec": 100.0, "allocs_per_run": 0.0}}, 0.10)
    assert regressions == [], regressions
    assert any("stayed 0" in line for line in lines), lines
    regressions, _ = compare(
        {("w", "warm", 8): {"allocs_per_run": 0.0}},
        {("w", "warm", 8): {"allocs_per_run": 2.0}}, 0.10)
    assert regressions == ["w/warm/n=8:allocs_per_run"], regressions
    regressions, lines = compare(
        {("w", "warm", 8): {"ns_per_event": 5.0}},
        {("w", "warm", 8): {"ns_per_event": 5.0, "allocs_per_run": 3.0}}, 0.10)
    assert regressions == [], regressions
    assert any("only in current" in line for line in lines), lines
    # Shard work inflation is a cost: growing fails, shrinking passes.
    regressions, _ = compare(
        {("s", "shards4", 8): {"work_inflation": 1.10},
         ("s", "shards2", 8): {"work_inflation": 1.10}},
        {("s", "shards4", 8): {"work_inflation": 1.25},   # +14%: regression
         ("s", "shards2", 8): {"work_inflation": 1.05}},  # improvement
        0.10)
    assert regressions == ["s/shards4/n=8:work_inflation"], regressions
    print("self-test passed")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", nargs="?", help="previous BENCH_engine.json")
    parser.add_argument("current", nargs="?", help="this run's BENCH_engine.json")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="max allowed regression per metric as a fraction (default 0.10)")
    parser.add_argument("--allow-missing-baseline", action="store_true",
                        help="exit 0 if the baseline file is absent (first run / expired artifact)")
    parser.add_argument("--self-test", action="store_true",
                        help="run internal checks of the comparison logic and exit")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()
    if args.baseline is None or args.current is None:
        parser.error("baseline and current are required unless --self-test")

    try:
        baseline = load_rows(args.baseline)
    except FileNotFoundError:
        if args.allow_missing_baseline:
            print("no baseline at {}; skipping comparison".format(args.baseline))
            return 0
        print("error: baseline {} not found (use --allow-missing-baseline for first runs)"
              .format(args.baseline), file=sys.stderr)
        return 2
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as err:
        print("error: cannot parse baseline {}: {}".format(args.baseline, err), file=sys.stderr)
        return 2
    try:
        current = load_rows(args.current)
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as err:
        print("error: cannot parse current {}: {}".format(args.current, err), file=sys.stderr)
        return 2

    regressions, lines = compare(baseline, current, args.threshold)
    print("comparing {} baseline rows vs {} current rows (threshold {:+.0%}):".format(
        len(baseline), len(current), args.threshold))
    for line in lines:
        print(line)
    if regressions:
        print("FAIL: {} metric(s) regressed more than {:.0%}: {}".format(
            len(regressions), args.threshold, ", ".join(regressions)), file=sys.stderr)
        return 1
    print("no regression beyond {:.0%} on {}".format(
        args.threshold, ", ".join(m for m, _ in METRICS)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
