#!/usr/bin/env python3
"""Time the Newton-Schulz kernel of two source trees at the tasks' shapes.

Usage (from the repository root):

    python3 scripts/time_ns.py PARENT_SRC CHANGE_SRC [--repeats 9] [--number 100]

Each ``*_SRC`` is a ``src/`` directory holding a ``muonlab`` package. Both
are imported into this one process under names of their own, so that their
samples alternate and share every drift of a noisy host. For each stacked
shape of `SHAPES` the script times ``msign._ns_orthogonalize`` of each tree
on one random Frobenius-normalized f64 stack, with the paper's
coefficients and k = 5, using the standard library's ``timeit``: one
warm-up sample, then ``--repeats`` samples of ``--number`` calls per tree,
the trees taking turns sample by sample. It checks that both trees return
the same bytes, and prints one JSON object: per shape, each tree's median
and quartiles of the per-call time in microseconds and the change's median
over the parent's. Importing the first tree pins BLAS to one thread, as the
CLI runs.
"""

import argparse
import importlib.util
import json
import os
import statistics
import sys
import timeit

# (runs, rows, cols) of the Muon matrices of the benchmark's workloads: the
# quadratic sweep's 16x8 tuning stacks, the telescope's 9-run stages at
# widths 64-256 (first layer wide, last layer tall) and the 64-128-128-8
# MLP's layers alone.
SHAPES = [(5, 16, 8), (9, 16, 64), (9, 16, 128), (9, 16, 256), (9, 64, 4),
          (9, 128, 4), (9, 256, 4), (1, 64, 128), (1, 128, 128), (1, 128, 8)]


def load_tree(src: str, name: str):
    """The ``muonlab`` package under ``src``, imported as ``name``."""
    package = os.path.join(os.path.abspath(src), "muonlab")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(package, "__init__.py"),
        submodule_search_locations=[package])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.msign")


def summary(per_call: list) -> dict:
    q1, median, q3 = statistics.quantiles(per_call, n=4, method="inclusive")
    return {"median_us": round(median, 1), "q1_us": round(q1, 1), "q3_us": round(q3, 1)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", help="src/ tree of the parent")
    parser.add_argument("change_src", help="src/ tree of the change")
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--number", type=int, default=100)
    args = parser.parse_args(argv)
    trees = {"parent": load_tree(args.parent_src, "muonlab_parent"),
             "change": load_tree(args.change_src, "muonlab_change")}
    import numpy as np

    out = {}
    for shape in SHAPES:
        x = np.random.default_rng(0).standard_normal(shape)
        x /= np.linalg.norm(x, axis=(-2, -1), keepdims=True)
        calls = {side: (lambda msign=msign: msign._ns_orthogonalize(
                     x, msign.OPTIMIZED_COEFFS, 5))
                 for side, msign in trees.items()}
        if not np.array_equal(calls["parent"](), calls["change"]()):
            print(f"error: the trees differ at {shape}", file=sys.stderr)
            return 1
        timers = {side: timeit.Timer(call) for side, call in calls.items()}
        per_call = {side: [] for side in timers}
        for sample in range(args.repeats + 1):
            for side, timer in timers.items():
                seconds = timer.timeit(args.number)
                if sample:  # the first round warms up
                    per_call[side].append(1e6 * seconds / args.number)
        row = {side: summary(times) for side, times in per_call.items()}
        row["change_vs_parent"] = round(
            row["change"]["median_us"] / row["parent"]["median_us"] - 1, 3)
        out["x".join(map(str, shape))] = row
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
