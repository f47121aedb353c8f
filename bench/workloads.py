"""The benchmark's workloads and the muonlab configs they generate.

Each workload is one `muonlab` CLI command run in a fresh child process on a
JSON config made here. The benchmark seed picks one of `SEED_POOL`
consecutive config seeds starting at 42, the seed of the acceptance configs;
the committed reference (`reference.json`, rebuilt by `make_reference.py`)
holds the expected outputs of every config seed in that pool.
"""

from __future__ import annotations

from dataclasses import dataclass

BASE_SEED = 42
SEED_POOL = 8


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # muonlab subcommand


WORKLOADS = {
    w.name: w for w in (
        Workload("sweep-quadratic", "sweep"),
        Workload("mlp-train", "train"),
        Workload("telescope-mlp", "telescope"),
    )
}


def config_seed(seed: int) -> int:
    """The muonlab config seed a benchmark seed selects."""
    return BASE_SEED + seed % SEED_POOL


def make_config(name: str, cfg_seed: int, out_dir: str,
                sweep_target: float | None = None) -> dict:
    """The JSON config document of one workload at one config seed.

    The sweep's target is 1.05x the quadratic's optimum loss at that seed;
    the reference stores it so that making a config needs no muonlab code.
    """
    if name == "sweep-quadratic":
        # The acceptance batch sweep (48 train calls on 16x8 matrices) with a
        # 240-step budget instead of 800, so that a run holds ~10 repetitions.
        return {
            "task": {"kind": "quadratic", "n_rows": 256, "in_dim": 16,
                     "out_dim": 8},
            "optimizer": {"kind": "muon", "eta0": 0.02, "lambda": 0.1},
            "batch_size": 32,
            "total_steps": 240,
            "eval_every": 10,
            "seed": cfg_seed,
            "target_loss": sweep_target,
            "stop_rule": "tokens-to-target",
            "sweep": {"batch_grid": [32, 128, 512, 2048]},
            "out_dir": out_dir,
        }
    if name == "mlp-train":
        # One 400-step run of the 64-128-128-8 MLP: no executor involved.
        return {
            "task": {"kind": "mlp", "n_samples": 2048, "input_dim": 64,
                     "hidden": [128, 128], "classes": 8},
            "optimizer": {"kind": "muon", "eta0": 0.02, "lambda": 0.1},
            "batch_size": 64,
            "total_steps": 400,
            "eval_every": 10,
            "seed": cfg_seed,
            "out_dir": out_dir,
        }
    if name == "telescope-mlp":
        # The README telescope config (3 widths x a 3x3 (eta, lambda) grid)
        # with 100 steps per run instead of 300, for the same reason.
        return {
            "task": {"kind": "mlp", "n_samples": 512, "input_dim": 16,
                     "hidden": [64], "classes": 4, "cluster_spread": 1.0},
            "optimizer": {"kind": "muon", "eta0": 0.05, "lambda": 0.1},
            "total_steps": 100,
            "seed": cfg_seed,
            "telescope": {"start_width": 64, "end_width": 256,
                          "grid": {"eta_center": 0.05, "lambda_center": 0.1}},
            "out_dir": out_dir,
        }
    raise KeyError(f"unknown workload {name!r}")
