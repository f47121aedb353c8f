#!/usr/bin/env python3
"""Re-derive a telescope search's stage winners from its raw outputs.

Reads ``telescope_report.json`` and ``telescope_stages.csv`` from a
telescope output directory and checks, stage by stage:

- the CSV holds the stage's whole grid, one row per (eta, weight decay)
  cell in (eta, lambda) row-major order, with the report's width, grid
  values and val losses;
- the winner is the first cell of lowest val loss in row-major order, a
  non-finite loss counting as +inf, and it is the report's ``best_eta``,
  ``best_lambda`` and ``best_val_loss``;
- ``is_best`` is true on the winner's row and on no other;
- the first grid spans the provenance's initial extents, and each next
  stage doubles the width, is centred on the previous winner and spans
  half the previous extents.

A grid's centre and extent (in decades) are read back from its end
points: the points are ten to the power of ``np.linspace`` values, so
they hold the centre and extent only up to rounding, and those checks
pass within the relative tolerance ``TOLERANCE``. A grid of one point
has no extent to check. Exits nonzero on any disagreement.

Only the standard library is used on purpose: the point is to not share
code with the package under test.
"""

import argparse
import csv
import json
import math
import os
import sys

# np.linspace and the power of ten each round, so a grid's end points give
# back its centre and extent only to within a few ulps; 1e-9 is far above
# that rounding and far below any real off-centre or mis-halved grid.
TOLERANCE = 1e-9


def as_loss(value):
    """A val loss as the search ranks it: non-finite counts as +inf."""
    value = float(value)
    return value if math.isfinite(value) else math.inf


def winner(losses):
    """Index of the first lowest loss (row-major tie rule)."""
    ranked = [as_loss(v) for v in losses]
    return ranked.index(min(ranked))


def centre_and_extent(points):
    """The log-grid centre and extent (decades) that ``points`` span."""
    lo, hi = math.log10(points[0]), math.log10(points[-1])
    return 10.0 ** ((lo + hi) / 2.0), (hi - lo) / 2.0


def close(got, want):
    return abs(got - want) <= TOLERANCE * abs(want)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def stage_problems(stage, rows):
    """Breaks between one report stage and its CSV rows, plus the winner
    the rows give as (eta, lambda)."""
    etas, lams = stage["etas"], stage["lambdas"]
    cells = [(eta, lam) for eta in etas for lam in lams]
    if len(rows) != len(cells):
        return [f"{len(rows)} CSV rows, the {len(etas)}x{len(lams)} grid "
                f"needs {len(cells)}"], None
    problems = []
    report_losses = [v for row in stage["val_losses"] for v in row]
    for k, (row, (eta, lam), loss) in enumerate(zip(rows, cells, report_losses)):
        got = (int(row["width"]), float(row["eta"]), float(row["weight_decay"]),
               as_loss(row["val_loss"]))
        if got != (stage["width"], eta, lam, as_loss(loss)):
            problems.append(f"CSV row {k} is (width, eta, lambda, val_loss) "
                            f"= {got}, report says "
                            f"{(stage['width'], eta, lam, as_loss(loss))}")
    best = winner([row["val_loss"] for row in rows])
    best_eta, best_lam = cells[best]
    want = (best_eta, best_lam, as_loss(rows[best]["val_loss"]))
    reported = (stage["best_eta"], stage["best_lambda"],
                as_loss(stage["best_val_loss"]))
    if reported != want:
        problems.append(f"winner (eta, lambda, val_loss) is {want}, "
                        f"report says {reported}")
    flagged = [k for k, row in enumerate(rows) if row["is_best"] == "true"]
    if flagged != [best]:
        problems.append(f"is_best is true on rows {flagged}, not [{best}]")
    return problems, (best_eta, best_lam)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", help="telescope output directory")
    args = parser.parse_args(argv)

    with open(os.path.join(args.out_dir, "telescope_report.json")) as fh:
        report = json.load(fh)
    rows = read_rows(os.path.join(args.out_dir, "telescope_stages.csv"))
    stages = report["stages"]
    provenance = report["provenance"]

    failures = 0
    prev = None  # (width, winner or None, [eta extent, lambda extent])
    for index, stage in enumerate(stages):
        stage_rows = [row for row in rows if int(row["stage"]) == index]
        problems, best = stage_problems(stage, stage_rows)
        axes = (stage["etas"], stage["lambdas"])
        if any(len(points) != provenance["points"] for points in axes):
            problems.append(f"grid is {len(axes[0])}x{len(axes[1])}, "
                            f"provenance says {provenance['points']} points")
        spans = [centre_and_extent(points) for points in axes]
        if prev is None:
            want_extents = provenance["initial_extents"]
        else:
            width, prev_best, prev_extents = prev
            if stage["width"] != 2 * width:
                problems.append(f"width {stage['width']} is not 2 x {width}")
            for name, (centre, _), want in zip(("eta", "lambda"), spans,
                                               prev_best or ()):
                if not close(centre, want):
                    problems.append(f"{name} grid centred on {centre!r}, "
                                    f"not on the last winner {want!r}")
            want_extents = [0.5 * e for e in prev_extents]
        if provenance["points"] > 1:
            for name, (_, extent), want in zip(("eta", "lambda"), spans,
                                               want_extents):
                if not close(extent, want):
                    problems.append(f"{name} grid spans {extent!r} decades, "
                                    f"not {want!r}")
        prev = (stage["width"], best, want_extents)
        failures += len(problems)
        shown = "" if best is None else f"eta={best[0]!r} lambda={best[1]!r} "
        print(f"stage {index} width {stage['width']}: {shown}"
              f"{'; '.join(problems) or 'ok'}")

    stray = sorted({row["stage"] for row in rows} - {str(i) for i in range(len(stages))})
    if stray:
        print(f"CSV rows for stages {stray} not in the report")
        failures += 1
    if [s["width"] for s in stages] != provenance["widths"]:
        print(f"stage widths {[s['width'] for s in stages]} are not the "
              f"provenance's {provenance['widths']}")
        failures += 1

    if failures:
        print(f"{failures} disagreement(s)", file=sys.stderr)
        return 1
    print("all stage winners confirmed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
