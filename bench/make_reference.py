"""Rebuild `reference.json`, the expected outputs the benchmark checks against.

Usage (from the repository root): python3 bench/make_reference.py

For every config seed in the pool it computes the sweep target (1.05x the
quadratic optimum), runs each workload once through the same child process
the benchmark uses, and stores the exit code, the extracted cells and the
sha256 of every output file. Rebuild it only when a change is meant to alter
the program's outputs, and say so in the change.
"""

from __future__ import annotations

import json
import os
import sys

import checker
from run import REFERENCE, ROOT, prepare, run_child
from workloads import BASE_SEED, SEED_POOL, WORKLOADS

SWEEP_TARGET_FACTOR = 1.05


def sweep_target(cfg_seed: int) -> float:
    from muonlab.linalg import Rng
    from muonlab.tasks import QuadraticSpec, QuadraticTask

    task = QuadraticTask.generate(QuadraticSpec(), Rng(cfg_seed).child("data"))
    return SWEEP_TARGET_FACTOR * task.optimum_loss()


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    seeds = [BASE_SEED + i for i in range(SEED_POOL)]
    reference = {
        "seeds": seeds,
        "sweep_targets": {str(s): sweep_target(s) for s in seeds},
        "workloads": {name: {} for name in WORKLOADS},
    }
    for name, workload in WORKLOADS.items():
        for s in seeds:
            config_path, out_dir = prepare(name, s,
                                           reference["sweep_targets"][str(s)])
            result = run_child(workload, "run", config_path)
            got = checker.extract(name, out_dir)
            if (name == "sweep-quadratic"
                    and not checker.recompute_ratios_ok(ROOT, out_dir)):
                raise SystemExit(f"seed {s}: the sweep audit fails")
            reference["workloads"][name][str(s)] = {
                "exit_code": result["exit_code"], **got}
            print(f"{name} seed {s}: exit {result['exit_code']}, "
                  f"{len(got['cells'])} cells, {result['run_s']:.2f} s",
                  flush=True)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
