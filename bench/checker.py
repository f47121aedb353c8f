"""Output-correctness check of one workload run against the committed reference.

`extract` reads what the CLI wrote into a flat set of cells, one per
experiment cell: ``exact`` fields (termination, tokens to target, row
counts, grid values) must equal the reference, ``close`` fields (logged
losses and norms) must agree within `RTOL`. Byte identity is not required,
because the BLAS thread count moves the last digits of the MLP runs; the
share of files whose bytes match the reference is reported separately.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import subprocess
import sys

RTOL = 1e-9
LOGGED = ("train_loss", "val_loss", "grad_global_norm", "update_rms")


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _opt_int(text: str) -> int | None:
    return None if text == "" else int(text)


def _run_cell(out_dir: str, summary: dict) -> dict:
    rows = _read_csv(os.path.join(out_dir, f"run_{summary['run_id']}.csv"))
    return {
        "exact": {"terminated": summary["terminated"],
                  "tokens_to_target": _opt_int(summary["tokens_to_target"]),
                  "eval_rows": len(rows)},
        "close": {col: [float(r[col]) for r in rows] for col in LOGGED},
    }


def _sweep_cells(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "sweep_report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    summaries = {r["run_id"]: r for r in _read_csv(os.path.join(out_dir, "summary.csv"))}
    cells = {}
    for prov in report["provenance"]["cells"]:
        cell = _run_cell(out_dir, summaries[prov["run_id"]])
        tuning = [prov["eta_tuning"][m] for m in sorted(prov["eta_tuning"], key=float)]
        cell["exact"]["eta0"] = prov["eta0"]
        cell["exact"]["tuning_tokens_to_target"] = [t["tokens_to_target"] for t in tuning]
        cell["close"]["tuning_final_val_loss"] = [t["final_val_loss"] for t in tuning]
        cells[prov["run_id"]] = cell
    return cells


def _train_cells(out_dir: str) -> dict:
    (summary,) = _read_csv(os.path.join(out_dir, "summary.csv"))
    cell = _run_cell(out_dir, summary)
    cell["exact"]["loss_spike_count"] = int(summary["loss_spike_count"])
    cell["exact"]["state_scalar_count"] = int(summary["state_scalar_count"])
    return {summary["run_id"]: cell}


def _telescope_cells(out_dir: str) -> dict:
    # The telescope writes no per-run CSVs: a cell is one grid point's final
    # validation loss, with the grid values and the winner flag exact.
    with open(os.path.join(out_dir, "telescope_report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    cells = {}
    for stage in report["stages"]:
        for i, eta in enumerate(stage["etas"]):
            for j, lam in enumerate(stage["lambdas"]):
                best = eta == stage["best_eta"] and lam == stage["best_lambda"]
                cells[f"w{stage['width']}-eta{i}-lam{j}"] = {
                    "exact": {"eta": eta, "lambda": lam, "is_best": best},
                    "close": {"val_loss": [stage["val_losses"][i][j]]},
                }
    return cells


_CELLS = {"sweep-quadratic": _sweep_cells, "mlp-train": _train_cells,
          "telescope-mlp": _telescope_cells}


def file_digests(out_dir: str) -> dict[str, str]:
    """sha256 of every file the run wrote, by name."""
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def extract(workload: str, out_dir: str) -> dict:
    """The cells and file digests of one workload's output directory."""
    return {"cells": _CELLS[workload](out_dir), "files": file_digests(out_dir)}


def _same(got: float, want: float, rtol: float) -> bool:
    if math.isnan(want):
        return math.isnan(got)
    return math.isclose(got, want, rel_tol=rtol, abs_tol=0.0)


def cell_problem(got: dict | None, want: dict | None, rtol: float = RTOL) -> str | None:
    """Why a cell disagrees with its reference, or None when it agrees."""
    if got is None:
        return "missing"
    if want is None:
        return "not in the reference"
    for key, value in want["exact"].items():
        if got["exact"].get(key) != value:
            return f"{key}: {got['exact'].get(key)!r} != {value!r}"
    for key, values in want["close"].items():
        mine = got["close"].get(key)
        if mine is None or len(mine) != len(values):
            return f"{key}: {mine!r} has another length than {values!r}"
        for idx, (a, b) in enumerate(zip(mine, values)):
            if not _same(a, b, rtol):
                return f"{key}[{idx}]: {a!r} != {b!r}"
    return None


def compare(got: dict, want: dict, rtol: float = RTOL) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) of a run's cells against the reference."""
    problems = []
    ids = sorted(set(got) | set(want))
    for cid in ids:
        problem = cell_problem(got.get(cid), want.get(cid), rtol)
        if problem is not None:
            problems.append(f"{cid}: {problem}")
    return len(ids), len(problems), problems


def identical_share(got: dict[str, str], want: dict[str, str]) -> float:
    """Share of the reference's files whose bytes the run reproduced."""
    same = sum(1 for name, digest in want.items() if got.get(name) == digest)
    return same / len(want)


def recompute_ratios_ok(root: str, out_dir: str) -> bool:
    """Whether the repository's standard-library sweep audit passes."""
    script = os.path.join(root, "scripts", "recompute_ratios.py")
    proc = subprocess.run([sys.executable, script, out_dir], cwd=root,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                          timeout=60)
    return proc.returncode == 0
