"""Training loop and the experiment drivers built on top of it.

A `train` call is a pure function of its `TrainConfig` (every random
draw flows from the config seed), which is what makes the higher-level
drivers trustworthy: batch-size sweeps with per-batch learning-rate
re-tuning and token-consumption ratios, the eleven-cell component ablation
grid, the width-telescoping hyperparameter search, and the empirical
convergence-rate fit.

The drivers hand their runs to one executor, `_run_many`, which groups
runs that differ only in eta0, weight decay and run id, and has `train`
train each group in lockstep as one stack, one group after another. A
group's records are byte-identical to its runs trained alone.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import ConfigError, RangeError
from .linalg import F64, Rng, dtype_of
from .optim import (
    OptimizerBank,
    OptimizerSpec,
    SCHEDULE_KINDS,
    Schedule,
    _clip_grad_arrays,
    _global_norm,
    _sum_left,
    schedule_eta,
)
from .tasks import MlpSpec, QuadraticSpec, TaskSpec, build_task

STOP_RULES = ("fixed-steps", "tokens-to-target")

# Five-point learning-rate grid used for per-cell re-tuning in sweeps,
# spanning a factor of 16 around the configured eta0.
ETA_TUNING_MULTIPLIERS = (0.25, 0.5, 1.0, 2.0, 4.0)

_DIVERGENCE_FACTOR = 10.0


@dataclass(frozen=True)
class TrainConfig:
    """Complete, seedable description of one training run.

    "Tokens" means samples: one training sample consumed is one token, and
    every eval row satisfies tokens_seen = step * batch_size (also under
    ``full_batch``, which swaps the sampled rows for the whole training set
    without changing the accounting).

    ``total_steps`` must be a multiple of ``eval_every`` so that the eval
    grid, and therefore the smoothed target-crossing detector, does not
    depend on where the run happens to stop.
    """

    task: TaskSpec
    optimizer: OptimizerSpec
    batch_size: int = 32
    total_steps: int = 200
    seed: int = 0
    precision: str = "f64"
    schedule_kind: str = "cosine-with-linear-warmup"
    warmup_fraction: float = 0.01
    eta_min_fraction: float = 0.0
    target_loss: float | None = None
    stop_rule: str = "fixed-steps"
    eval_every: int = 10
    full_batch: bool = False
    smooth_window: int = 5
    spike_ratio: float = 1.25
    clip_norm: float = 1.0
    record_wall_time: bool = False
    run_id: str = ""

    def __post_init__(self):
        if not isinstance(self.task, (QuadraticSpec, MlpSpec)):
            raise ConfigError(f"unknown task spec {type(self.task).__name__}")
        if not isinstance(self.optimizer, OptimizerSpec):
            raise ConfigError("optimizer must be an OptimizerSpec")
        if self.batch_size < 1:
            raise RangeError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.total_steps < 1:
            raise RangeError(f"total_steps must be >= 1, got {self.total_steps}")
        if self.eval_every < 1:
            raise RangeError(f"eval_every must be >= 1, got {self.eval_every}")
        if self.total_steps % self.eval_every != 0:
            raise RangeError(
                f"total_steps ({self.total_steps}) must be a multiple of "
                f"eval_every ({self.eval_every})"
            )
        dtype_of(self.precision)
        if self.schedule_kind not in SCHEDULE_KINDS:
            raise RangeError(f"unknown schedule kind {self.schedule_kind!r}")
        if self.stop_rule not in STOP_RULES:
            raise RangeError(f"stop_rule must be one of {STOP_RULES}, got {self.stop_rule!r}")
        if self.stop_rule == "tokens-to-target" and self.target_loss is None:
            raise ConfigError("stop_rule 'tokens-to-target' requires target_loss")
        if self.target_loss is not None and not math.isfinite(self.target_loss):
            raise RangeError("target_loss must be finite")
        if self.smooth_window < 1:
            raise RangeError(f"smooth_window must be >= 1, got {self.smooth_window}")
        if self.spike_ratio <= 1.0:
            raise RangeError(f"spike_ratio must exceed 1, got {self.spike_ratio}")
        if self.clip_norm <= 0.0:
            raise RangeError(f"clip_norm must be positive, got {self.clip_norm}")

    @property
    def resolved_run_id(self) -> str:
        if self.run_id:
            return self.run_id
        return (f"{self.task.kind}-{self.optimizer.kind}"
                f"-b{self.batch_size}-s{self.seed}")


@dataclass(frozen=True)
class EvalRow:
    """One evaluation snapshot; mirrors one run-CSV data row.

    ``train_loss`` and ``grad_global_norm`` are None in a val-only
    snapshot (see `train`), which does not measure them.
    """

    step: int
    tokens_seen: int
    train_loss: float | None
    val_loss: float
    grad_global_norm: float | None
    update_rms: float
    eta_t: float
    wall_ms: float


@dataclass(frozen=True)
class RunRecord:
    """Everything one run produced: eval rows plus the derived summary.

    ``terminated`` is one of 'completed' (ran the full step budget),
    'target-reached' (stopped at the smoothed target crossing), or
    'diverged'. ``tokens_to_target`` is the tokens_seen of the first eval
    row whose trailing-mean val loss reached the target, independent of the
    stop rule; None when no crossing happened.
    """

    run_id: str
    optimizer: str
    batch_size: int
    rows: tuple[EvalRow, ...]
    tokens_to_target: int | None
    terminated: str
    loss_spike_count: int
    final_val_loss: float
    state_scalar_count: int
    config: TrainConfig


def _spike_count(vals: Sequence[float], ratio: float) -> int:
    count = 0
    running_min = math.inf
    for v in vals:
        if v > ratio * running_min:
            count += 1
        if v < running_min:
            running_min = v
    return count


def _group_key(config: TrainConfig) -> TrainConfig:
    """What the runs of one lockstep group share: all but eta0, the weight
    decay and the run id."""
    return replace(config, run_id="", optimizer=replace(
        config.optimizer, eta0=1.0, weight_decay=0.0))


def _finite_per_run(stack: np.ndarray) -> np.ndarray:
    """Per run of a stack (R, ...): whether all of its entries are finite."""
    return np.isfinite(stack).reshape(len(stack), -1).all(axis=1)


def train(configs: TrainConfig | Sequence[TrainConfig], *,
          val_only: bool = False) -> RunRecord | list[RunRecord]:
    """Train one run, or a group of runs in lockstep; deterministic given
    the configs.

    One config returns its RunRecord; a sequence returns one record per
    config, in order. The configs of a group may differ only in
    ``optimizer.eta0``, ``optimizer.weight_decay`` and ``run_id``, so they
    share the seed, and with it the data, the init and every batch draw.
    The group trains as one stack: every parameter and optimizer state
    gets a leading run axis, and each step makes one batch draw and
    gather, one stacked matmul per layer and per Newton-Schulz step, and
    one optimizer step with a learning rate and decay per run. Clipping
    and the finiteness checks stay per run, and a run leaves the stack
    when it diverges or stops at its target, so each record is
    byte-identical to its run trained alone.

    Per step: draw a batch (or take the full set), compute the loss and
    gradients, inject task noise if configured, clip the global gradient
    norm, and apply one optimizer step. Every ``eval_every`` steps an eval
    row records the full train/val losses, the exact full-objective
    gradient norm, the realized update RMS, and the learning rate used,
    for all live runs from one `task.evaluate` pass over the stack.
    ``val_only`` takes a `task.val_loss` pass instead and leaves
    ``train_loss`` and ``grad_global_norm`` None; the rows are otherwise
    the bytes of full snapshots. With ``record_wall_time`` the rows of an
    eval step share one ``wall_ms``, the time since the group started.

    Divergence (non-finite loss/gradient/parameter, or an eval val loss
    that is NaN or above 10x the initial one) terminates the run with the
    'diverged' flag instead of raising.
    """
    single = isinstance(configs, TrainConfig)
    group = [configs] if single else list(configs)
    if not group:
        raise RangeError("train needs at least one config")
    first = group[0]
    if any(_group_key(c) != _group_key(first) for c in group[1:]):
        raise ConfigError("a training group may differ only in optimizer.eta0, "
                          "optimizer.weight_decay and run_id")
    dtype = dtype_of(first.precision)
    root = Rng(first.seed)
    task = build_task(first.task, root.child("data"))
    init = task.init_params(root.child("init"), dtype=dtype)
    batch_rng = root.child("batch")
    noise_rng = root.child("noise")
    spec = first.optimizer
    bank = OptimizerBank({name: arr.shape for name, arr in init.items()}, spec.kind,
                         [c.optimizer.weight_decay for c in group],
                         muon=spec.muon_hyper() if spec.kind == "muon" else None,
                         beta1=spec.beta1, beta2=spec.beta2, eps=spec.eps,
                         dtype=dtype)
    scheds = [Schedule(eta0=c.optimizer.eta0, total_steps=first.total_steps,
                       warmup_fraction=first.warmup_fraction,
                       kind=first.schedule_kind,
                       eta_min_fraction=first.eta_min_fraction)
              for c in group]
    params = {name: np.repeat(arr[None], len(group), axis=0)
              for name, arr in init.items()}
    live = list(range(len(group)))  # the group index of each stack slot
    rows: list[list[EvalRow]] = [[] for _ in group]
    tokens_to_target: list[int | None] = [None] * len(group)
    records: list[RunRecord | None] = [None] * len(group)
    t0 = time.perf_counter()

    def snapshot(step: int, stack: dict[str, np.ndarray], update_rms,
                 etas: Sequence[float]) -> list[EvalRow]:
        """The eval rows of a stack's runs, measured in one pass over it."""
        with np.errstate(all="ignore"):
            if val_only:
                measured = [(None, float(v), None) for v in task.val_loss(stack)]
            else:
                train_losses, val_losses, grads = task.evaluate(stack)
                measured = [(float(t), float(v), _global_norm(g[r] for g in grads.values()))
                            for r, (t, v) in enumerate(zip(train_losses, val_losses))]
        wall = (time.perf_counter() - t0) * 1e3 if first.record_wall_time else 0.0
        return [EvalRow(step, step * first.batch_size, *m, update_rms=float(u),
                        eta_t=eta, wall_ms=wall)
                for m, u, eta in zip(measured, update_rms, etas)]

    def leave(ended: dict[int, str]) -> list[int]:
        """Close the runs in the ended stack slots; returns the kept slots."""
        nonlocal params, live
        for slot, terminated in ended.items():
            run = live[slot]
            records[run] = _record(group[run], rows[run], tokens_to_target[run],
                                   terminated, bank.state_scalar_count())
        keep = [slot for slot in range(len(live)) if slot not in ended]
        params = {name: p[keep] for name, p in params.items()}
        bank.select(keep)
        live = [live[slot] for slot in keep]
        return keep

    # Every run starts from the same weights: one snapshot serves them all.
    (row0,) = snapshot(0, {name: arr[None] for name, arr in init.items()},
                       [0.0], [0.0])
    initial_val = row0.val_loss
    for run, sched in enumerate(scheds):
        rows[run].append(replace(row0, eta_t=schedule_eta(sched, 0)))
    if first.target_loss is not None and initial_val <= first.target_loss:
        tokens_to_target = [0] * len(group)
        if first.stop_rule == "tokens-to-target":
            leave(dict.fromkeys(range(len(live)), "target-reached"))

    noise_sigma = float(task.noise_sigma)
    for step in range(1, first.total_steps + 1):
        if not live:
            break
        idx = (None if first.full_batch
               else task.sample_batch(batch_rng, first.batch_size))
        with np.errstate(all="ignore"):
            loss, grads = task.batch_loss_grad(params, idx)
            if noise_sigma > 0.0:
                # Every run draws the same noise: one draw serves the stack.
                for name in grads:
                    g = grads[name]
                    grads[name] = (g + noise_sigma
                                   * noise_rng.normal(g.shape[1:])).astype(g.dtype,
                                                                           copy=False)
            finite = np.isfinite(loss)
            for g in grads.values():
                finite &= _finite_per_run(g)
            if not finite.all():
                keep = leave({int(s): "diverged" for s in np.flatnonzero(~finite)})
                grads = {name: g[keep] for name, g in grads.items()}
            for slot in range(len(live)):
                run_grads = {name: g[slot] for name, g in grads.items()}
                clipped, _ = _clip_grad_arrays(run_grads, first.clip_norm)
                if clipped is not run_grads:
                    for name, g in clipped.items():
                        grads[name][slot] = g
            if live:
                etas = [schedule_eta(scheds[run], step) for run in live]
                params = bank.step(params, grads, etas)
                finite = np.logical_and.reduce(
                    [_finite_per_run(p) for p in params.values()])
                if not finite.all():
                    keep = leave({int(s): "diverged" for s in np.flatnonzero(~finite)})
                    etas = [etas[slot] for slot in keep]
        if step % first.eval_every != 0 or not live:
            continue
        ended: dict[int, str] = {}
        new_rows = snapshot(step, params, bank.last_update_rms, etas)
        for slot, (run, new_row) in enumerate(zip(live, new_rows)):
            rows[run].append(new_row)
            val_loss = new_row.val_loss
            if (not math.isfinite(val_loss)
                    or val_loss > _DIVERGENCE_FACTOR * initial_val):
                ended[slot] = "diverged"
            elif first.target_loss is not None and tokens_to_target[run] is None:
                window = rows[run][-first.smooth_window:]
                smoothed = _sum_left(r.val_loss for r in window) / len(window)
                if smoothed <= first.target_loss:
                    tokens_to_target[run] = step * first.batch_size
                    if first.stop_rule == "tokens-to-target":
                        ended[slot] = "target-reached"
        if ended:
            leave(ended)

    leave(dict.fromkeys(range(len(live)), "completed"))
    return records[0] if single else records


def _record(config: TrainConfig, rows: Sequence[EvalRow],
            tokens_to_target: int | None, terminated: str,
            state_scalar_count: int) -> RunRecord:
    """Assemble a RunRecord; the spike count and final loss derive from rows."""
    vals = [r.val_loss for r in rows]
    spikes = _spike_count(vals, config.spike_ratio) if len(rows) >= 2 else 0
    return RunRecord(
        run_id=config.resolved_run_id,
        optimizer=config.optimizer.kind,
        batch_size=config.batch_size,
        rows=tuple(rows),
        tokens_to_target=tokens_to_target,
        terminated=terminated,
        loss_spike_count=spikes,
        final_val_loss=rows[-1].val_loss,
        state_scalar_count=state_scalar_count,
        config=config,
    )


def loss_spike_count(record: RunRecord, spike_ratio: float = 1.25) -> int:
    """Count eval rows whose val loss exceeds spike_ratio times the running min.

    The first row is never a spike (there is no prior minimum to exceed).
    """
    if spike_ratio <= 1.0:
        raise RangeError(f"spike_ratio must exceed 1, got {spike_ratio}")
    if len(record.rows) < 2:
        raise RangeError("loss_spike_count needs at least 2 eval rows")
    return _spike_count([r.val_loss for r in record.rows], spike_ratio)


def rate_check(record: RunRecord) -> float:
    """Fitted slope of log running-mean squared gradient norm versus log step.

    Uses the exact full-objective gradient norms of the eval rows (step 0
    excluded), so a val-only record, which has none, is a RangeError.
    Requires the inverse-sqrt schedule, because the decay-rate statement
    this checks assumes eta_t = eta0 / sqrt(t); a run under cosine decay
    would measure the schedule, not the optimizer.
    """
    if record.config.schedule_kind != "inverse-sqrt":
        raise RangeError(
            "rate_check requires schedule_kind 'inverse-sqrt', got "
            f"{record.config.schedule_kind!r}"
        )
    rows = [r for r in record.rows if r.step >= 1]
    if len(rows) < 20:
        raise RangeError(f"rate_check needs >= 20 eval rows, got {len(rows)}")
    if any(r.grad_global_norm is None for r in rows):
        raise RangeError("rate_check needs grad_global_norm on every eval row "
                         "past step 0, which a val-only record lacks")
    g2 = np.array([r.grad_global_norm for r in rows], dtype=F64) ** 2
    running_mean = np.cumsum(g2) / np.arange(1, len(rows) + 1, dtype=F64)
    x = np.log(np.array([r.step for r in rows], dtype=F64))
    y = np.log(np.maximum(running_mean, 1e-300))
    slope = float(np.polyfit(x, y, 1)[0])
    return slope


def _run_many(configs: Sequence[TrainConfig], *,
              val_only: bool = False) -> list[RunRecord]:
    """Train configs in lockstep groups; returns records in config order.

    Configs that differ only in eta0, weight decay and run id form one
    group, placed where its first member stands, and the groups train one
    after another. ``val_only`` is passed to each `train` call.
    """
    members: dict[TrainConfig, list[int]] = {}
    for i, config in enumerate(configs):
        members.setdefault(_group_key(config), []).append(i)
    records: list[RunRecord] = [None] * len(configs)
    for idx in members.values():
        group_records = train([configs[i] for i in idx], val_only=val_only)
        for i, record in zip(idx, group_records):
            records[i] = record
    return records


# ---------------------------------------------------------------------------
# Batch-size sweep with token-consumption ratios
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepCell:
    """One (batch size, optimizer) measurement after learning-rate re-tuning."""

    batch_size: int
    optimizer: str
    run_id: str
    seed: int
    eta0: float
    tokens_to_target: int | None
    terminated: str
    final_val_loss: float


@dataclass(frozen=True)
class SweepResult:
    """Token consumptions per (B, optimizer) and the derived per-B ratios.

    ``ratios[B]`` = AdamW tokens-to-target / Muon tokens-to-target, present
    only where both cells reached the target.
    ``ratio_monotone_nondecreasing`` reports whether the ratio sequence is
    nondecreasing over ascending B (None when fewer than two ratios exist).
    """

    batch_grid: tuple[int, ...]
    target_loss: float
    cells: tuple[SweepCell, ...]
    ratios: dict[int, float]
    ratio_monotone_nondecreasing: bool | None
    records: dict[str, RunRecord] = field(repr=False)
    provenance: dict = field(repr=False)


def _search_loss(record: RunRecord) -> float:
    """The final val loss as the searches rank it: +inf for a run that
    diverged, whose last row may predate the blow-up (a run that goes
    non-finite before its first eval keeps only its step-0 row)."""
    return math.inf if record.terminated == "diverged" else record.final_val_loss


def _stopped_at_target(record: RunRecord, run_id: str) -> RunRecord:
    """``train`` of ``record``'s config under the tokens-to-target rule,
    named ``run_id``: the run cut at its crossing row, as stopping changes
    nothing before it (``wall_ms`` aside), or the whole run if none."""
    rows, terminated = record.rows, record.terminated
    if record.tokens_to_target is not None:
        crossing = [r.tokens_seen for r in rows].index(record.tokens_to_target)
        rows, terminated = rows[:crossing + 1], "target-reached"
    config = replace(record.config, stop_rule="tokens-to-target", run_id=run_id)
    return _record(config, rows, record.tokens_to_target, terminated,
                   record.state_scalar_count)


def batch_sweep(base: TrainConfig, batch_grid: Sequence[int]) -> SweepResult:
    """Measure tokens-to-target for both optimizers over a batch-size grid.

    Each (B, optimizer) cell re-tunes the peak learning rate on a five-point
    log grid of fixed-step runs, judged by earliest target crossing, then
    final val loss, +inf for a run that diverged (the first run wins a tie;
    eta0 itself stands if no run scores). The measured run is the winner
    cut at its crossing, not trained again. Cell seeds derive from the base
    seed by cell tag, and all tuning runs go through one `_run_many` call.
    """
    if not batch_grid:
        raise RangeError("batch_grid must be nonempty")
    if any(b < 1 for b in batch_grid):
        raise RangeError(f"batch sizes must be >= 1, got {tuple(batch_grid)}")
    if base.target_loss is None:
        raise ConfigError("batch_sweep requires target_loss in the base config")
    grid = tuple(int(b) for b in batch_grid)
    root = Rng(base.seed)
    cell_keys = [(b, kind, root.child(f"cell-{kind}-b{b}").seed)
                 for b in grid for kind in ("muon", "adamw")]
    configs = [
        replace(base, batch_size=b, seed=seed,
                optimizer=replace(base.optimizer, kind=kind,
                                  eta0=base.optimizer.eta0 * mult),
                stop_rule="fixed-steps", run_id=f"tune-{kind}-b{b}-x{mult}")
        for b, kind, seed in cell_keys for mult in ETA_TUNING_MULTIPLIERS
    ]
    tuned = _run_many(configs)

    n = len(ETA_TUNING_MULTIPLIERS)
    cells, records, cell_prov = [], {}, []
    for i, (b, kind, seed) in enumerate(cell_keys):
        runs = tuned[i * n:(i + 1) * n]
        scores = [(math.inf if r.tokens_to_target is None else float(r.tokens_to_target),
                   _search_loss(r)) for r in runs]
        # The configured eta0 (multiplier 1) stands when no run scores.
        best = (scores.index(min(scores)) if min(scores) < (math.inf, math.inf)
                else ETA_TUNING_MULTIPLIERS.index(1.0))
        eta = runs[best].config.optimizer.eta0
        measured = _stopped_at_target(runs[best], f"{kind}-b{b}")
        cells.append(SweepCell(batch_size=b, optimizer=kind,
                               run_id=measured.run_id, seed=seed, eta0=eta,
                               tokens_to_target=measured.tokens_to_target,
                               terminated=measured.terminated,
                               final_val_loss=measured.final_val_loss))
        records[measured.run_id] = measured
        cell_prov.append({
            "run_id": measured.run_id, "optimizer": kind, "batch_size": b,
            "seed": seed, "eta0": eta,
            "eta_tuning": {repr(mult): {"tokens_to_target": rec.tokens_to_target,
                                        "final_val_loss": rec.final_val_loss}
                           for mult, rec in zip(ETA_TUNING_MULTIPLIERS, runs)},
            "tokens_to_target": measured.tokens_to_target,
            "terminated": measured.terminated,
        })

    by_key = {(c.batch_size, c.optimizer): c for c in cells}
    ratios: dict[int, float] = {}
    for b in grid:
        mu = by_key[(b, "muon")].tokens_to_target
        ad = by_key[(b, "adamw")].tokens_to_target
        if mu is not None and ad is not None and mu > 0:
            ratios[b] = ad / mu
    present = [ratios[b] for b in sorted(ratios)]
    monotone = None
    if len(present) >= 2:
        monotone = all(later >= earlier
                       for earlier, later in zip(present, present[1:]))
    provenance = {
        "base_seed": base.seed,
        "target_loss": base.target_loss,
        "smooth_window": base.smooth_window,
        "batch_grid": list(grid),
        "eta_multipliers": list(ETA_TUNING_MULTIPLIERS),
        "total_steps": base.total_steps,
        "task": base.task.kind,
        "cells": cell_prov,
    }
    return SweepResult(batch_grid=grid, target_loss=base.target_loss,
                       cells=tuple(cells), ratios=ratios,
                       ratio_monotone_nondecreasing=monotone,
                       records=records, provenance=provenance)


# ---------------------------------------------------------------------------
# Component ablation grid
# ---------------------------------------------------------------------------

ABLATION_CELLS = (
    "full",
    "momentum-only",
    "newton-schulz-k3",
    "newton-schulz-k10",
    "taylor-coefficients",
    "no-weight-decay",
    "no-rms-matching",
    "dynamic-rms",
    "batch-quarter",
    "batch-1x",
    "batch-4x",
)


@dataclass(frozen=True)
class AblationCell:
    """Summary line for one ablation cell (one table row)."""

    name: str
    run_id: str
    batch_size: int
    final_val_loss: float
    steps_to_target: int | None
    loss_spike_count: int
    state_scalar_count: int
    terminated: str


@dataclass(frozen=True)
class AblationTable:
    cells: tuple[AblationCell, ...]
    records: dict[str, RunRecord] = field(repr=False)
    provenance: dict = field(repr=False)


def _ablation_config(base: TrainConfig, name: str) -> TrainConfig:
    spec = base.optimizer
    batch = base.batch_size
    if name == "full":
        pass
    elif name == "momentum-only":
        spec = replace(spec, momentum_only=True)
    elif name == "newton-schulz-k3":
        spec = replace(spec, k_iters=3)
    elif name == "newton-schulz-k10":
        spec = replace(spec, k_iters=10)
    elif name == "taylor-coefficients":
        spec = replace(spec, coeffs="taylor")
    elif name == "no-weight-decay":
        spec = replace(spec, weight_decay=0.0)
    elif name == "no-rms-matching":
        spec = replace(spec, rms_matching=False)
    elif name == "dynamic-rms":
        spec = replace(spec, dynamic_rms=True)
    elif name == "batch-quarter":
        batch = max(1, base.batch_size // 4)
    elif name == "batch-1x":
        batch = base.batch_size
    elif name == "batch-4x":
        batch = base.batch_size * 4
    else:
        raise ConfigError(f"unknown ablation cell {name!r}")
    return replace(base, optimizer=spec, batch_size=batch,
                   stop_rule="fixed-steps", run_id=f"ablate-{name}")


def ablate(base: TrainConfig, axes: Sequence[str] | None = None) -> AblationTable:
    """Run the component-ablation grid and summarize one row per cell.

    All cells share the base seed, so they see identical data, identical
    initialization, and identical batch draws (where batch sizes agree);
    only the ablated component differs. The batch-1x cell is deliberately
    identical to the full cell, which doubles as an internal determinism
    cross-check of the grid itself. Cells run the full step budget;
    steps-to-target is derived from the first smoothed target crossing.
    """
    if base.optimizer.kind != "muon":
        raise ConfigError("ablate expects a muon optimizer as the base")
    if base.target_loss is None:
        raise ConfigError("ablate requires target_loss for steps-to-target")
    names = ABLATION_CELLS if axes is None else tuple(axes)
    if not names:
        raise RangeError("ablation axes must be nonempty")
    unknown = [n for n in names if n not in ABLATION_CELLS]
    if unknown:
        raise ConfigError(f"unknown ablation cells {unknown}")
    configs = [_ablation_config(base, name) for name in names]
    results = _run_many(configs)
    cells = []
    records = {}
    for name, rec in zip(names, results):
        steps = (None if rec.tokens_to_target is None
                 else rec.tokens_to_target // rec.batch_size)
        cells.append(AblationCell(
            name=name, run_id=rec.run_id, batch_size=rec.batch_size,
            final_val_loss=rec.final_val_loss, steps_to_target=steps,
            loss_spike_count=rec.loss_spike_count,
            state_scalar_count=rec.state_scalar_count,
            terminated=rec.terminated,
        ))
        records[rec.run_id] = rec
    provenance = {"seed": base.seed, "target_loss": base.target_loss,
                  "base_batch_size": base.batch_size,
                  "total_steps": base.total_steps,
                  "cells": list(names)}
    return AblationTable(cells=tuple(cells), records=records,
                         provenance=provenance)


# ---------------------------------------------------------------------------
# Width-telescoping hyperparameter sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TelescopeGrid:
    """Log-spaced (eta, weight decay) search grid, symmetric around a center.

    ``points`` values per axis span center * 10^[-extent, +extent]; extents
    are measured in decades and halve at each width doubling.
    """

    eta_center: float
    lambda_center: float
    eta_extent: float = 0.5
    lambda_extent: float = 0.5
    points: int = 3

    def __post_init__(self):
        if self.points < 1:
            raise ConfigError(f"grid needs >= 1 point per axis, got {self.points}")
        if self.eta_center <= 0.0 or self.lambda_center <= 0.0:
            raise RangeError("grid centers must be positive")
        if self.eta_extent <= 0.0 or self.lambda_extent <= 0.0:
            raise RangeError("grid extents must be positive")


def _log_grid(center: float, extent: float, points: int) -> tuple[float, ...]:
    if points == 1:
        return (center,)
    lo = math.log10(center) - extent
    hi = math.log10(center) + extent
    return tuple(float(10.0 ** e) for e in np.linspace(lo, hi, points))


@dataclass(frozen=True)
class TelescopeStage:
    """One width's grid search: the grid, the loss surface, and the winner."""

    width: int
    etas: tuple[float, ...]
    lambdas: tuple[float, ...]
    val_losses: tuple[tuple[float, ...], ...]
    best_eta: float
    best_lambda: float
    best_val_loss: float


@dataclass(frozen=True)
class TelescopeResult:
    start_width: int
    end_width: int
    stages: tuple[TelescopeStage, ...]
    provenance: dict = field(repr=False)


def telescope_sweep(base: TrainConfig, start_width: int, end_width: int,
                    grid: TelescopeGrid) -> TelescopeResult:
    """Search (eta, weight decay) while doubling the MLP hidden width.

    Stage one searches the full grid at ``start_width``; each doubling
    recenters the grid on the previous winner and halves both extents
    (two hyperparameters, so the grid area shrinks fourfold per stage).
    Total cost is one constant-size grid per doubling. A run that diverged
    reads +inf on the loss surface, whatever loss its last row logged, so
    it never beats a run that trained. Ties resolve to the first cell in
    (eta, lambda) row-major order.

    The search reads only val losses (the final one, and each eval row's
    for divergence), so its runs train with val-only snapshots: one
    stacked val pass per eval step, no train-set pass.
    """
    if not isinstance(base.task, MlpSpec):
        raise ConfigError("telescope_sweep requires an MLP task")
    if start_width < 2:
        raise RangeError(f"start_width must be >= 2, got {start_width}")
    doublings = end_width / start_width
    j = round(math.log2(doublings)) if doublings > 0 else -1
    if j < 1 or start_width * 2 ** j != end_width:
        raise RangeError(
            f"end_width must be start_width * 2^j with j >= 1, got "
            f"{start_width} -> {end_width}"
        )

    depth = len(base.task.hidden)
    eta_c, lam_c = grid.eta_center, grid.lambda_center
    eta_e, lam_e = grid.eta_extent, grid.lambda_extent
    stages = []
    width = start_width
    while width <= end_width:
        etas = _log_grid(eta_c, eta_e, grid.points)
        lams = _log_grid(lam_c, lam_e, grid.points)
        task = replace(base.task, hidden=(width,) * depth)
        configs = []
        for eta in etas:
            for lam in lams:
                spec = replace(base.optimizer, eta0=eta, weight_decay=lam)
                configs.append(replace(
                    base, task=task, optimizer=spec, stop_rule="fixed-steps",
                    run_id=f"telescope-w{width}-eta{eta:.6g}-lam{lam:.6g}",
                ))
        results = _run_many(configs, val_only=True)
        flat = np.array([_search_loss(r) for r in results], dtype=F64)
        best = int(np.argmin(flat))
        bi, bj = divmod(best, len(lams))
        losses = tuple(
            tuple(float(flat[i * len(lams) + j2]) for j2 in range(len(lams)))
            for i in range(len(etas))
        )
        stages.append(TelescopeStage(
            width=width, etas=etas, lambdas=lams, val_losses=losses,
            best_eta=etas[bi], best_lambda=lams[bj],
            best_val_loss=float(flat[best]),
        ))
        eta_c, lam_c = etas[bi], lams[bj]
        eta_e *= 0.5
        lam_e *= 0.5
        width *= 2

    provenance = {"seed": base.seed, "total_steps": base.total_steps,
                  "batch_size": base.batch_size, "points": grid.points,
                  "initial_extents": [grid.eta_extent, grid.lambda_extent],
                  "widths": [s.width for s in stages]}
    return TelescopeResult(start_width=start_width, end_width=end_width,
                           stages=tuple(stages), provenance=provenance)


__all__ = [
    "ABLATION_CELLS",
    "AblationCell",
    "AblationTable",
    "ETA_TUNING_MULTIPLIERS",
    "EvalRow",
    "RunRecord",
    "STOP_RULES",
    "SweepCell",
    "SweepResult",
    "TelescopeGrid",
    "TelescopeResult",
    "TelescopeStage",
    "TrainConfig",
    "ablate",
    "batch_sweep",
    "loss_spike_count",
    "rate_check",
    "telescope_sweep",
    "train",
]
