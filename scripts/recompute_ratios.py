#!/usr/bin/env python3
"""Recompute token-consumption ratios from raw sweep CSVs.

Reads ``sweep_report.json`` plus the per-run ``run_*.csv`` files from a
sweep output directory and independently re-derives, for every measured
cell, the tokens at which the trailing-mean val loss first crossed the
target. Each run CSV must hold the whole eval grid: a step-0 row first,
then one row per stride (a divisor of ``total_steps``) with
``tokens_seen == step * batch_size``, so a gapped or shifted CSV cannot
pass for a complete one. A measured run stops at its crossing, so a cell
that crossed must end its CSV on the crossing row and read
``target-reached`` in ``summary.csv``; a cell that never crossed must
not. Ratios are then recomputed per batch size and compared against the
report's values. Exits nonzero on any disagreement beyond 1e-12, so it can
serve as a cross-check that the harness applied no hidden smoothing or
bookkeeping to the published numbers.

Only the standard library is used on purpose: the point is to not share
code with the package under test.
"""

import argparse
import csv
import json
import math
import os
import sys


def mean(values):
    """Mean with the float sum folded left to right, as the harness takes
    it. The built-in ``sum`` compensates its rounding from Python 3.12 on,
    so it would give other bytes there."""
    total = 0.0
    for v in values:
        total += v
    return total / len(values)


def crossing_tokens(rows, target, smooth_window):
    """First tokens_seen whose trailing-mean val loss is <= target.

    The mean runs over the last ``min(smooth_window, rows so far)`` eval
    rows, the current row included; the step-0 snapshot participates like
    any other row.
    """
    vals = []
    for row in rows:
        vals.append(float(row["val_loss"]))
        if mean(vals[-smooth_window:]) <= target:
            return int(row["tokens_seen"])
    return None


def grid_problems(rows, total_steps, batch_size):
    """Breaks in a run's eval grid: the first row must be step 0, ``step``
    must advance by one stride (``rows[1]``'s step) that divides
    ``total_steps``, and every row must have tokens_seen == step * B."""
    if not rows:
        return ["no eval rows"]
    steps = [int(row["step"]) for row in rows]
    problems = []
    if steps[0] != 0:
        problems.append(f"first row is step {steps[0]}, not 0")
    if len(steps) > 1:
        stride = steps[1]
        if stride < 1 or total_steps % stride:
            problems.append(f"stride {stride} does not divide "
                            f"total_steps={total_steps}")
        off = [i for i, step in enumerate(steps) if step != i * stride]
        if off:
            problems.append(f"row {off[0]} is step {steps[off[0]]}, "
                            f"not {off[0] * stride} (stride {stride})")
    bad = [row["step"] for row in rows
           if int(row["tokens_seen"]) != int(row["step"]) * batch_size]
    if bad:
        problems.append(f"tokens_seen != step * {batch_size} at step {bad[0]}")
    return problems


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", help="sweep output directory")
    parser.add_argument("--tolerance", type=float, default=1e-12)
    args = parser.parse_args(argv)

    report_path = os.path.join(args.out_dir, "sweep_report.json")
    with open(report_path) as fh:
        report = json.load(fh)
    target = float(report["target_loss"])
    smooth_window = int(report["provenance"]["smooth_window"])
    total_steps = int(report["provenance"]["total_steps"])
    cells = report["provenance"]["cells"]
    summary = read_rows(os.path.join(args.out_dir, "summary.csv"))
    terminated = {row["run_id"]: row["terminated"] for row in summary}

    tokens = {}
    failures = 0
    for cell in cells:
        run_id = cell["run_id"]
        csv_path = os.path.join(args.out_dir, f"run_{run_id}.csv")
        rows = read_rows(csv_path)
        got = crossing_tokens(rows, target, smooth_window)
        want = cell["tokens_to_target"]
        batch_size = int(cell["batch_size"])
        tokens[(batch_size, cell["optimizer"])] = got
        problems = grid_problems(rows, total_steps, batch_size)
        if got != want:
            problems.append(f"MISMATCH (report says {want})")
        if got is not None and int(rows[-1]["tokens_seen"]) != got:
            problems.append(f"run continues to tokens_seen="
                            f"{rows[-1]['tokens_seen']} past the crossing")
        if (terminated.get(run_id) == "target-reached") != (got is not None):
            problems.append(f"summary says terminated="
                            f"{terminated.get(run_id)}")
        failures += len(problems)
        print(f"{run_id:>16s}: tokens_to_target={got} "
              f"{'; '.join(problems) or 'ok'}")

    reported = {int(b): float(r) for b, r in report["ratios"].items()}
    for b in sorted({bs for bs, _ in tokens}):
        mu = tokens.get((b, "muon"))
        ad = tokens.get((b, "adamw"))
        if mu is None or ad is None or mu <= 0:
            if b in reported:
                print(f"B={b}: ratio undefined here but reported "
                      f"{reported[b]!r}")
                failures += 1
            else:
                print(f"B={b}: ratio undefined (ok)")
            continue
        ratio = ad / mu
        if b not in reported:
            print(f"B={b}: recomputed ratio {ratio!r} missing from report")
            failures += 1
            continue
        err = abs(ratio - reported[b])
        ok = err <= args.tolerance and math.isfinite(ratio)
        print(f"B={b}: ratio={ratio!r} reported={reported[b]!r} "
              f"|diff|={err:.3e} {'ok' if ok else 'MISMATCH'}")
        if not ok:
            failures += 1

    if failures:
        print(f"{failures} disagreement(s)", file=sys.stderr)
        return 1
    print("all ratios confirmed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
