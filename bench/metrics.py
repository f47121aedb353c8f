"""Arithmetic behind the benchmark's figures: percentiles, Newton-Schulz
operation counts, and per-layer self times derived from recorded spans."""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile (0 <= q <= 100), interpolating linearly between
    the two nearest ranks (numpy's default method)."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must lie in [0, 100], got {q}")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def ns_cost(rows: int, cols: int, k: int, itemsize: int) -> tuple[int, int]:
    """Computed (flop, bytes) of one k-step Newton-Schulz call on rows x cols.

    The iteration transposes wide inputs, so it works on an m x n matrix with
    m >= n. Each step forms the Gram product X^T X (2*m*n^2 flop), its square
    (2*n^3) and the update X @ P (2*m*n^2). Bytes count the operands and
    results of those three products: (2mn + n^2) + 3n^2 + (2mn + n^2) items.
    Elementwise work and the initial normalization are left out.
    """
    m, n = max(rows, cols), min(rows, cols)
    flop = k * (4 * m * n * n + 2 * n ** 3)
    items = k * (4 * m * n + 5 * n * n)
    return flop, items * itemsize


def self_times(start: Sequence[float], end: Sequence[float],
               parent: Sequence[int]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    ``parent[i]`` is the index of the span open on the same thread when span
    i began, or -1. Children on one thread run one after another inside their
    parent, so the difference is the time spent in the span's own code.
    """
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own


def summarize_trace(spans: dict, notes: dict, run_s: float,
                    workers: int) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    ``spans`` holds parallel lists ``name``, ``start``, ``end`` and
    ``parent``; ``notes`` maps note keys (tuples) to counts; ``run_s`` is the
    run's time from parsed config to exit; ``workers`` is the executor's
    thread count.
    """
    own = self_times(spans["start"], spans["end"], spans["parent"])
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    train_s = []
    for i, name in enumerate(spans["name"]):
        calls[name] += 1
        self_s[name] += own[i]
        if name == "harness.train":
            train_s.append(spans["end"][i] - spans["start"][i])

    flop = nbytes = 0
    ns_notes = clip_calls = clip_fired = 0
    for key, count in notes.items():
        if key[0] == "msign.ns":
            f, b = ns_cost(*key[1:])
            flop += f * count
            nbytes += b * count
            ns_notes += count
        elif key[0] == "optim.clip":
            clip_calls += count
            clip_fired += count if key[1] else 0
    if ns_notes != calls["msign.ns"]:
        raise ValueError("Newton-Schulz notes and spans disagree")

    busy = sum(train_s)
    return {
        "harness.train.calls": len(train_s),
        "harness.train.p50_ms": percentile(train_s, 50) * 1e3,
        "harness.train.p90_ms": percentile(train_s, 90) * 1e3,
        "harness.train.self_s": self_s["harness.train"],
        "harness.executor.busy_share": busy / (workers * run_s),
        "harness.executor.idle_s": workers * run_s - busy,
        "msign.ns.calls": calls["msign.ns"],
        "msign.ns.self_s": self_s["msign.ns"],
        "msign.ns.gflop": flop / 1e9,
        "msign.ns.computed_mb": nbytes / 1e6,
        "optim.step.calls": calls["optim.step"],
        "optim.step.self_s": self_s["optim.step"],
        "optim.clip.self_s": self_s["optim.clip"],
        "optim.clip.fired_share": clip_fired / clip_calls if clip_calls else 0.0,
        "tasks.batch_loss_grad.self_s": self_s["tasks.batch_loss_grad"],
        "tasks.sample_batch.self_s": self_s["tasks.sample_batch"],
        "tasks.eval.calls": calls["tasks.eval"],
        "tasks.eval.self_s": self_s["tasks.eval"],
        "linalg.matrix.calls": calls["linalg.matrix"],
        "linalg.matrix.self_s": self_s["linalg.matrix"],
        "reports.emit.self_s": self_s["reports.emit"],
        "config.parse.self_s": self_s["config.parse"],
    }


def module_self_times(spans: dict) -> dict[str, float]:
    """Self time summed per module (the span name up to its first dot)."""
    own = self_times(spans["start"], spans["end"], spans["parent"])
    out: dict[str, float] = defaultdict(float)
    for name, t in zip(spans["name"], own):
        out[name.split(".", 1)[0]] += t
    return dict(out)
