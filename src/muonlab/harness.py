"""Training loop and the experiment drivers built on top of it.

A `train` call is a pure function of its `TrainConfig` (every random
draw flows from the config seed), which is what makes the higher-level
drivers trustworthy: batch-size sweeps with per-batch learning-rate
re-tuning and token-consumption ratios, the eleven-cell component ablation
grid, the width-telescoping hyperparameter search, and the empirical
convergence-rate fit.

`train` is the one executor: it trains runs that differ only in seed,
batch size, optimizer and run id as one stack in lockstep, and each
driver calls it directly (once for a sweep or an ablation, once per stage
for a telescope). A `train` call keeps all of its state in one `_Stack`:
the parameter stacks, the data groups (one per seed and batch size) with
their task and draws, the optimizer sub-stacks (one `OptimizerBank` per
optimizer setting), the schedules, and each run's rows and record. A
stack's records are byte-identical to its runs trained alone.
"""

from __future__ import annotations

import math
import os
import threading
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import ConfigError, RangeError, _require
from .linalg import F64, Rng, dtype_of
from .optim import (
    OPTIMIZER_KINDS,
    OptimizerBank,
    OptimizerSpec,
    _clip_grad_arrays,
    _sum_left,
    _sum_squares,
)
from .tasks import MlpSpec, TaskSpec, build_task

STOP_RULES = ("fixed-steps", "tokens-to-target")
SCHEDULE_KINDS = ("cosine-with-linear-warmup", "inverse-sqrt")

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

    The learning rate peaks at ``optimizer.eta0`` and follows
    ``schedule_kind`` (see `schedule_eta`): cosine decay with linear
    warmup, or eta0/sqrt(t). ``warmup_fraction`` accepts [0, 0.02]; 0.005
    to 0.02 is the recommended band, 0 disables warmup. The inverse-sqrt
    kind ignores warmup and exists for the convergence-rate check.
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
        if not isinstance(self.task, TaskSpec):
            raise ConfigError(f"unknown task spec {type(self.task).__name__}")
        if not isinstance(self.optimizer, OptimizerSpec):
            raise ConfigError("optimizer must be an OptimizerSpec")
        _require(self.total_steps >= 1, "total_steps", "be >= 1", self.total_steps)
        _require(0.0 <= self.warmup_fraction <= 0.02, "warmup_fraction",
                 "lie in [0, 0.02]", self.warmup_fraction)
        _require(0.0 <= self.eta_min_fraction <= 0.01, "eta_min_fraction",
                 "lie in [0, 0.01]", self.eta_min_fraction)
        _require(self.schedule_kind in SCHEDULE_KINDS, "schedule_kind",
                 f"be one of {SCHEDULE_KINDS}", self.schedule_kind)
        try:
            dtype_of(self.precision)
        except RangeError as exc:
            exc.key_path = "precision"
            raise
        for key in ("batch_size", "eval_every", "smooth_window"):
            _require(getattr(self, key) >= 1, key, "be >= 1", getattr(self, key))
        _require(self.total_steps % self.eval_every == 0, "eval_every",
                 f"divide total_steps ({self.total_steps})", self.eval_every)
        _require(self.stop_rule in STOP_RULES, "stop_rule", f"be one of {STOP_RULES}",
                 self.stop_rule)
        if self.stop_rule == "tokens-to-target" and self.target_loss is None:
            raise ConfigError("'tokens-to-target' requires target_loss",
                              key_path="stop_rule")
        _require(self.target_loss is None or math.isfinite(self.target_loss),
                 "target_loss", "be finite", self.target_loss)
        _require(self.spike_ratio > 1.0, "spike_ratio", "exceed 1", self.spike_ratio)
        _require(self.clip_norm > 0.0, "clip_norm", "be positive", self.clip_norm)

    @property
    def resolved_run_id(self) -> str:
        if self.run_id:
            return self.run_id
        return (f"{self.task.kind}-{self.optimizer.kind}"
                f"-b{self.batch_size}-s{self.seed}")


def schedule_eta(config: TrainConfig, step: int) -> float:
    """Learning rate of a run at an integer step in [0, total_steps]."""
    total = config.total_steps
    _require(0 <= step <= total, "step", "lie in [0, total_steps]", step)
    eta0 = config.optimizer.eta0
    if config.schedule_kind == "inverse-sqrt":
        return eta0 / math.sqrt(max(step, 1))
    ws = int(round(config.warmup_fraction * total))
    if ws > 0 and step <= ws:
        return eta0 * (step / ws)
    # A warmup fraction of at most 0.02 gives ws <= round(0.02 * total) <
    # total, so the cosine always has steps left to span.
    progress = (step - ws) / (total - ws)
    eta_min = eta0 * config.eta_min_fraction
    return eta_min + (eta0 - eta_min) * 0.5 * (1.0 + math.cos(math.pi * progress))


def _eta_table(configs: Sequence[TrainConfig]) -> np.ndarray:
    """`schedule_eta` of each run (row) at each step 0..total_steps
    (column), bit for bit, for runs that share all of the schedule but
    eta0: its per-step Python floats are taken once, and each run's eta0
    and floor enter in numpy, in the same order of operations."""
    first = configs[0]
    total = first.total_steps
    eta0 = np.array([[c.optimizer.eta0] for c in configs], dtype=F64)
    if first.schedule_kind == "inverse-sqrt":
        return eta0 / np.array([math.sqrt(max(step, 1)) for step in range(total + 1)])
    ws = int(round(first.warmup_fraction * total))
    warm = [step / ws for step in range(ws + 1)] if ws > 0 else []
    cos = [1.0 + math.cos(math.pi * ((step - ws) / (total - ws)))
           for step in range(len(warm), total + 1)]
    eta_min = eta0 * first.eta_min_fraction
    return np.concatenate([eta0 * np.array(warm, dtype=F64),
                           eta_min + (eta0 - eta_min) * 0.5 * np.array(cos)], axis=1)


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


def _stack_key(config: TrainConfig) -> TrainConfig:
    """What the runs of one stack share: all but the seed, the batch size,
    the optimizer and the run id."""
    return replace(config, run_id="", seed=0, batch_size=1, optimizer=OptimizerSpec())


def _data_key(config: TrainConfig) -> tuple[int, int]:
    """What the runs of one data group share: the seed and the batch size."""
    return config.seed, config.batch_size


def _optimizer_key(config: TrainConfig) -> OptimizerSpec:
    """What the runs of one optimizer sub-stack share: the optimizer but
    eta0 and the weight decay."""
    return replace(config.optimizer, eta0=1.0, weight_decay=0.0)


def _finite_per_run(stack: np.ndarray) -> np.ndarray:
    """Per run of a stack (R, ...): whether all of its entries are finite."""
    return np.logical_and.reduce(np.isfinite(stack).reshape(len(stack), -1), axis=1)


# A full snapshot at least this large (train rows x parameters per run, the
# multiply-adds of its forward pass) is measured one run at a time, so that
# one run's train-set activations are alive at once, and on a worker thread
# where a second CPU is usable (see `train`). On a 2-vCPU Xeon the overlap
# gained 2-22% of the run above this size and lost up to 57% below; run by
# run, the quadratic sweep's small snapshots took 13% longer.
_LARGE_SNAPSHOT = 1 << 24


def _cpu_quota(cgroup: str = "/sys/fs/cgroup") -> float | None:
    """The CPUs' worth of time per second that the cgroup mounted at
    ``cgroup`` grants (v2 ``cpu.max``, v1 ``cpu/cpu.cfs_quota_us`` over
    ``cpu.cfs_period_us``), or None where it sets no quota."""
    try:
        with open(os.path.join(cgroup, "cpu.max"), encoding="ascii") as fh:
            quota, period = fh.read().split()
    except (OSError, ValueError):
        v1 = os.path.join(cgroup, "cpu", "cpu.cfs_")
        try:
            with open(v1 + "quota_us", encoding="ascii") as fh:
                quota = fh.read().strip()
            with open(v1 + "period_us", encoding="ascii") as fh:
                period = fh.read().strip()
        except OSError:
            return None
    try:
        return None if quota in ("max", "-1") else int(quota) / int(period)
    except (ValueError, ZeroDivisionError):
        return None


def _usable_cpus() -> float:
    """The CPUs this process can keep busy: its affinity mask, capped by a
    cgroup CPU quota. One where the platform shows no affinity mask."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    cpus = len(os.sched_getaffinity(0))
    quota = _cpu_quota()
    return cpus if quota is None else min(cpus, quota)


class _Snapshot(threading.Thread):
    """An eval snapshot measured on a worker thread; `rows` waits for it."""

    def __init__(self, measure, *args):
        super().__init__(name="muonlab-snapshot", daemon=True)
        self._measure, self._args = measure, args
        self._rows = self._error = None
        self.start()

    def run(self) -> None:
        try:
            self._rows = self._measure(*self._args)
        except BaseException as exc:  # re-raised on the training thread
            self._error = exc

    def rows(self) -> list[EvalRow]:
        self.join()
        if self._error is not None:
            raise self._error
        return self._rows


def _measure(task, stack: dict[str, np.ndarray], by_run: bool,
             val_only: bool) -> list[tuple[float | None, float, float | None]]:
    """Per run of ``stack``: its (train loss, val loss, full-objective
    gradient norm), from one pass over the stack or, if ``by_run``, one
    pass per run. ``val_only`` takes a val pass only, with None for the
    train loss and the norm."""
    runs = len(next(iter(stack.values())))
    parts = ([{name: p[r:r + 1] for name, p in stack.items()}
              for r in range(runs)] if by_run else [stack])
    measured = []
    with np.errstate(all="ignore"):
        for part in parts:
            if val_only:
                measured += [(None, float(v), None) for v in task.val_loss(part)]
            else:
                train_losses, val_losses, grads = task.evaluate(part)
                norms = np.sqrt(_sum_squares(grads.values()))
                measured += [(float(t), float(v), float(n))
                             for t, v, n in zip(train_losses, val_losses, norms)]
    return measured


def _part(arrays: dict[str, np.ndarray], where) -> dict[str, np.ndarray]:
    """The slots ``where`` of each stack in ``arrays``."""
    return {name: a[where] for name, a in arrays.items()}


def _layout(owners: Sequence) -> list[tuple]:
    """(owner, where, slots) of each distinct owner of ``owners``, the
    owner of each slot of a stack, in order of its first slot: ``where``
    is a slice (a view) for contiguous slots, else an index array."""
    slots_of: dict = {}
    for slot, owner in enumerate(owners):
        slots_of.setdefault(owner, []).append(slot)
    return [(owner, slice(slots[0], slots[-1] + 1)
             if slots[-1] - slots[0] + 1 == len(slots) else np.array(slots), slots)
            for owner, slots in slots_of.items()]


class _DataGroup:
    """The runs of a stack that share a seed and a batch size, and with
    them the task, the init and every batch and noise draw."""

    def __init__(self, config: TrainConfig):
        root = Rng(config.seed)
        self.batch_size, self.full_batch = config.batch_size, config.full_batch
        self.noise_sigma = float(config.task.noise_sigma)
        self.task = build_task(config.task, root.child("data"))
        self.init = self.task.init_params(root.child("init"),
                                          dtype=dtype_of(config.precision))
        self.batch_rng, self.noise_rng = root.child("batch"), root.child("noise")

    def loss_grads(self, params: dict[str, np.ndarray]):
        """One step's batch draw (or the full set), then the loss and the
        gradients of the runs stacked in ``params``, plus the task noise."""
        idx = (None if self.full_batch
               else self.task.sample_batch(self.batch_rng, self.batch_size))
        loss, grads = self.task.batch_loss_grad(params, idx)
        if self.noise_sigma > 0.0:
            # Every run draws the same noise: one draw serves the group.
            for name, g in grads.items():
                noise = self.noise_sigma * self.noise_rng.normal(g.shape[1:])
                grads[name] = (g + noise).astype(g.dtype, copy=False)
        return loss, grads


class _Stack:
    """The runs of one `train` call. Slot s of the parameter stacks and of
    ``etas_by_step`` (learning rates by step, worked out once) holds run
    ``live[s]``, an index into ``configs``, until the run leaves and is
    cut from both and from its bank.

    Runs that share a seed and a batch size form a data group
    (`_DataGroup`), and runs that share the optimizer but eta0 and the
    weight decay form a sub-stack with one `OptimizerBank`. The slots are
    ordered by sub-stack, then by data group, each in order of first
    appearance, so a sub-stack is one slice. ``groups`` and ``banks`` are
    their `_layout` over the live slots, redone when runs leave. Each run
    keeps its eval rows, target crossing and record; ``pending`` is a
    worker's snapshot."""

    def __init__(self, configs: list[TrainConfig], val_only: bool):
        first = self.first = configs[0]
        self.configs, self.val_only = configs, val_only
        groups: dict[tuple[int, int], _DataGroup] = {}
        bank_runs: dict[OptimizerSpec, list[int]] = {}
        self.group_of: list[_DataGroup] = []
        for run, config in enumerate(configs):
            if _data_key(config) not in groups:
                groups[_data_key(config)] = _DataGroup(config)
            self.group_of.append(groups[_data_key(config)])
            bank_runs.setdefault(_optimizer_key(config), []).append(run)
        order = list(groups.values())
        init = order[0].init
        self.by_run = (not val_only and order[0].task.n_train
                       * sum(a.size for a in init.values()) >= _LARGE_SNAPSHOT)
        self.live, self.bank_of = [], [None] * len(configs)
        for runs in bank_runs.values():
            runs.sort(key=lambda run: order.index(self.group_of[run]))
            bank = OptimizerBank({name: arr.shape for name, arr in init.items()},
                                 configs[runs[0]].optimizer,
                                 [configs[run].optimizer.weight_decay for run in runs],
                                 dtype_of(first.precision))
            for run in runs:
                self.bank_of[run] = bank
            self.live += runs
        self.etas_by_step = _eta_table([configs[run] for run in self.live])
        self.params = {name: np.stack([self.group_of[run].init[name]
                                       for run in self.live])
                       for name in init}
        self._place()
        self.rows: list[list[EvalRow]] = [[] for _ in configs]
        self.tokens_to_target: list[int | None] = [None] * len(configs)
        self.records: list[RunRecord | None] = [None] * len(configs)
        self.pending = None
        self.t0 = time.perf_counter()

    def _place(self) -> None:
        self.groups = _layout([self.group_of[run] for run in self.live])
        self.banks = _layout([self.bank_of[run] for run in self.live])

    def snapshot(self, step: int, params: dict[str, np.ndarray], update_rms,
                 etas: Sequence[float], groups: list[tuple]) -> list[EvalRow]:
        """The eval rows at ``step`` of the runs stacked in ``params``, laid
        out in data groups as ``groups`` says; reads nothing that training
        changes, so it may run on a worker."""
        measured: list = [None] * len(etas)
        for group, where, slots in groups:
            part = _measure(group.task, _part(params, where), self.by_run,
                            self.val_only)
            for slot, m in zip(slots, part):
                measured[slot] = (step * group.batch_size, *m)
        wall = ((time.perf_counter() - self.t0) * 1e3
                if self.first.record_wall_time else 0.0)
        return [EvalRow(step, *m, update_rms=float(u), eta_t=eta, wall_ms=wall)
                for m, u, eta in zip(measured, update_rms, etas)]

    def start(self) -> None:
        """Give each run its step-0 row, from one snapshot like every eval
        step's. A target met at step 0 ends the run under the stop rule."""
        first, ended = self.first, {}
        rows = self.snapshot(0, self.params, np.zeros(len(self.live)),
                             self.etas_by_step[:, 0].tolist(), self.groups)
        for slot, (run, row0) in enumerate(zip(self.live, rows)):
            self.rows[run].append(row0)
            if first.target_loss is not None and row0.val_loss <= first.target_loss:
                self.tokens_to_target[run] = 0
                if first.stop_rule == "tokens-to-target":
                    ended[slot] = "target-reached"
        if ended:
            self.leave(ended)

    def loss_grads(self):
        """Each data group's step on its slots: the loss and the gradients
        of every live run, in slot order."""
        if len(self.groups) == 1:
            return self.groups[0][0].loss_grads(self.params)
        loss, grads = np.empty(len(self.live)), None
        for group, where, _ in self.groups:
            part_loss, part_grads = group.loss_grads(_part(self.params, where))
            if grads is None:
                # In the task's order of gradients, which the norms fold in.
                grads = {name: np.empty_like(self.params[name]) for name in part_grads}
            loss[where] = part_loss
            for name, g in part_grads.items():
                grads[name][where] = g
        return loss, grads

    def step(self, grads: dict[str, np.ndarray], step: int) -> None:
        """One optimizer step of every sub-stack, each slot at its own
        learning rate of ``step``."""
        etas = self.etas_by_step[:, step]
        if len(self.banks) == 1:
            self.params = self.banks[0][0].step(self.params, grads, etas)
            return
        new = [bank.step(_part(self.params, where), _part(grads, where), etas[where])
               for bank, where, _ in self.banks]
        self.params = {name: np.concatenate([p[name] for p in new])
                       for name in self.params}

    def update_rms(self) -> np.ndarray:
        """Per slot: the RMS of its run's last update."""
        return np.concatenate([bank.last_update_rms for bank, _, _ in self.banks])

    def leave(self, ended: dict[int, str]) -> None:
        """Close the runs of the ``ended`` slots, each with its verdict."""
        for slot, terminated in ended.items():
            run = self.live[slot]
            self.records[run] = _record(self.configs[run], self.rows[run],
                                        self.tokens_to_target[run], terminated,
                                        self.bank_of[run].state_scalar_count())
        keep = [slot for slot in range(len(self.live)) if slot not in ended]
        self.params = {name: p[keep] for name, p in self.params.items()}
        for bank, _, slots in self.banks:
            bank.select([slot - slots[0] for slot in slots if slot not in ended])
        self.etas_by_step = self.etas_by_step[keep]
        self.live = [self.live[slot] for slot in keep]
        self._place()

    def settle(self, new_rows: list[EvalRow]) -> None:
        """Append a snapshot's rows to its runs and close the runs it ends:
        a val loss that diverged, a target crossing that stops."""
        first = self.first
        ended: dict[int, str] = {}
        for slot, (run, new_row) in enumerate(zip(self.live, new_rows)):
            rows = self.rows[run]
            rows.append(new_row)
            val_loss = new_row.val_loss
            if (not math.isfinite(val_loss)
                    or val_loss > _DIVERGENCE_FACTOR * rows[0].val_loss):
                ended[slot] = "diverged"
            elif first.target_loss is not None and self.tokens_to_target[run] is None:
                window = rows[-first.smooth_window:]
                smoothed = _sum_left(r.val_loss for r in window) / len(window)
                if smoothed <= first.target_loss:
                    self.tokens_to_target[run] = new_row.tokens_seen
                    if first.stop_rule == "tokens-to-target":
                        ended[slot] = "target-reached"
        if ended:
            self.leave(ended)

    def collect(self) -> None:
        """Settle the pending snapshot, if any."""
        if self.pending is not None:
            done, self.pending = self.pending, None
            self.settle(done.rows())

    def leave_diverged(self, finite: np.ndarray) -> list[int]:
        """Close the runs whose slots are not ``finite``, after the pending
        snapshot's endings; returns the slots of the runs that stay."""
        slots = {run: slot for slot, run in enumerate(self.live)}
        self.collect()
        self.leave({slot: "diverged" for slot, run in enumerate(self.live)
                    if not finite[slots[run]]})
        return [slots[run] for run in self.live]


def train(configs: TrainConfig | Sequence[TrainConfig], *,
          val_only: bool = False) -> RunRecord | list[RunRecord]:
    """Train one run, or a stack of runs in lockstep; deterministic given
    the configs.

    One config returns its RunRecord; a sequence returns one record per
    config, in order. The configs of a stack may differ only in ``seed``,
    ``batch_size``, ``optimizer`` and ``run_id`` (see `_stack_key`). The
    stack is one `_Stack`, which holds all of the call's state. Its runs
    that share a seed and a batch size form a data group, with the task,
    init and batch and noise draws each of them has alone and one stacked
    matmul per layer; its runs that share the optimizer but eta0 and the
    weight decay form a sub-stack, one `OptimizerBank` with a learning
    rate and decay per run. Clipping and the finiteness checks act per
    run, and a run leaves the stack (its slot of the parameters, its bank
    and the learning-rate table) when it diverges or stops at its target.
    Every op acts per slice, so each record is byte-identical to its run
    trained alone.

    Per step: each data group draws a batch (or takes the full set),
    computes the loss and gradients and injects task noise if configured;
    then one stacked sum of squares of the gradients, close the runs
    whose loss or gradients are not finite, clip each run's global
    gradient norm (the square root of its sum), take one optimizer step
    per sub-stack, and close the runs whose weights are not finite. At
    step 0 and every ``eval_every`` steps a snapshot (`_measure`, once
    per data group) gives each live run an eval row: the full train/val
    losses, the exact full-objective gradient norm, the update RMS (0 at
    step 0) and the learning rate, at ``tokens_seen`` = step * its batch
    size. ``val_only`` measures the val loss alone and leaves
    ``train_loss`` and ``grad_global_norm`` None. With
    ``record_wall_time`` the rows of an eval step, step 0 included, share
    one ``wall_ms``, the time since the stack started at the end of the
    snapshot's pass.

    Where a second CPU is usable (the affinity mask, capped by a cgroup
    CPU quota), a large snapshot (see `_LARGE_SNAPSHOT`) of step k runs on
    a worker thread while the stack trains on. It reads only the weights
    of step k and can only end runs, so it is settled later: before the
    next snapshot, before any run leaves at a step, and after the last
    step. A run it ends leaves then, with its rows cut at step k, so every
    record is the bytes of the inline path. The worker is joined before
    `train` returns or raises, and its exception is raised here.

    Divergence (non-finite loss/gradient/parameter, or an eval val loss
    that is NaN or above 10x the initial one) terminates the run with the
    'diverged' flag instead of raising, under one float-error scope for all
    steps, whatever the caller's (a worker's snapshot sets its own).
    """
    single = isinstance(configs, TrainConfig)
    runs = [configs] if single else list(configs)
    if not runs:
        raise RangeError("train needs at least one config")
    first = runs[0]
    if any(_stack_key(c) != _stack_key(first) for c in runs[1:]):
        raise ConfigError("a training stack may differ only in seed, batch_size, "
                          "optimizer and run_id")
    stack = _Stack(runs, val_only)
    overlap = stack.by_run and _usable_cpus() > 1
    stack.start()
    try:
        with np.errstate(all="ignore"):
            for step in range(1, first.total_steps + 1):
                if not stack.live:
                    break
                loss, grads = stack.loss_grads()
                finite = np.isfinite(loss)
                sq = _sum_squares(grads.values())
                if not np.logical_and.reduce(np.isfinite(sq)):
                    # A finite sum means finite entries, but finite entries
                    # can overflow when squared: check those entry by entry.
                    for g in grads.values():
                        finite &= _finite_per_run(g)
                if not np.logical_and.reduce(finite):
                    keep = stack.leave_diverged(finite)
                    grads = {name: g[keep] for name, g in grads.items()}
                    sq = sq[keep]
                for slot, norm in enumerate(np.sqrt(sq).tolist()):
                    run_grads = {name: g[slot] for name, g in grads.items()}
                    clipped, _ = _clip_grad_arrays(run_grads, first.clip_norm, norm)
                    if clipped is not run_grads:
                        for name, g in clipped.items():
                            grads[name][slot] = g
                if stack.live:
                    stack.step(grads, step)
                    finite = np.logical_and.reduce(
                        [_finite_per_run(p) for p in stack.params.values()])
                    if not np.logical_and.reduce(finite):
                        stack.leave_diverged(finite)
                if step % first.eval_every != 0 or not stack.live:
                    continue
                # The previous snapshot's endings first: the next one
                # measures only the runs that stay.
                stack.collect()
                if not stack.live:
                    continue
                args = (step, stack.params, stack.update_rms(),
                        stack.etas_by_step[:, step].tolist(), stack.groups)
                if overlap:
                    stack.pending = _Snapshot(stack.snapshot, *args)
                else:
                    stack.settle(stack.snapshot(*args))
            stack.collect()
    finally:
        if stack.pending is not None:
            stack.pending.join()

    stack.leave(dict.fromkeys(range(len(stack.live)), "completed"))
    return stack.records[0] if single else stack.records


def _record(config: TrainConfig, rows: Sequence[EvalRow],
            tokens_to_target: int | None, terminated: str,
            state_scalar_count: int) -> RunRecord:
    """Assemble a RunRecord; the spike count (0 for one row) and the final
    loss derive from rows."""
    return RunRecord(
        run_id=config.resolved_run_id, optimizer=config.optimizer.kind,
        batch_size=config.batch_size, rows=tuple(rows),
        tokens_to_target=tokens_to_target, terminated=terminated,
        loss_spike_count=_spike_count([r.val_loss for r in rows], config.spike_ratio),
        final_val_loss=rows[-1].val_loss, state_scalar_count=state_scalar_count,
        config=config)


def loss_spike_count(record: RunRecord, spike_ratio: float = 1.25) -> int:
    """Count eval rows whose val loss exceeds spike_ratio times the running min.

    The first row is never a spike (there is no prior minimum to exceed).
    """
    _require(spike_ratio > 1.0, "spike_ratio", "exceed 1", spike_ratio)
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
    return float(np.polyfit(x, y, 1)[0])


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


def _check_batch_grid(batch_grid: Sequence[int]) -> None:
    """A batch grid is nonempty, with every size >= 1 and none repeated."""
    grid = tuple(batch_grid)
    _require(bool(grid), "batch_grid", "be nonempty", grid)
    _require(min(grid) >= 1, "batch_grid", "hold sizes >= 1", grid)
    _require(len(set(grid)) == len(grid), "batch_grid", "not repeat a size", grid)


def batch_sweep(base: TrainConfig, batch_grid: Sequence[int]) -> SweepResult:
    """Measure tokens-to-target for both optimizers over a batch-size grid.

    Each (B, optimizer) cell re-tunes the peak learning rate on a five-point
    log grid of fixed-step runs, judged by earliest target crossing, then
    final val loss, +inf for a run that diverged (the first run wins a tie;
    eta0 itself stands if no run scores). The measured run is the winner
    cut at its crossing, not trained again. Cell seeds derive from the base
    seed by cell tag, and all tuning runs train as one `train` call.
    """
    _check_batch_grid(batch_grid)
    if base.target_loss is None:
        raise ConfigError("batch_sweep requires target_loss in the base config")
    grid = tuple(int(b) for b in batch_grid)
    root = Rng(base.seed)
    cell_keys = [(b, kind, root.child(f"cell-{kind}-b{b}").seed)
                 for b in grid for kind in OPTIMIZER_KINDS]
    configs = [
        replace(base, batch_size=b, seed=seed,
                optimizer=replace(base.optimizer, kind=kind,
                                  eta0=base.optimizer.eta0 * mult),
                stop_rule="fixed-steps", run_id=f"tune-{kind}-b{b}-x{mult}")
        for b, kind, seed in cell_keys for mult in ETA_TUNING_MULTIPLIERS
    ]
    tuned = train(configs)

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
        prov = asdict(cells[-1])
        del prov["final_val_loss"]
        prov["eta_tuning"] = {repr(mult): {"tokens_to_target": rec.tokens_to_target,
                                           "final_val_loss": rec.final_val_loss}
                              for mult, rec in zip(ETA_TUNING_MULTIPLIERS, runs)}
        cell_prov.append(prov)

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

# The change each ablation cell makes to the base config: optimizer fields
# to set, or a factor on the batch size (rounded down, at least 1).
_ABLATIONS = {
    "full": {},
    "momentum-only": {"momentum_only": True},
    "newton-schulz-k3": {"k_iters": 3},
    "newton-schulz-k10": {"k_iters": 10},
    "taylor-coefficients": {"coeffs": "taylor"},
    "no-weight-decay": {"weight_decay": 0.0},
    "no-rms-matching": {"rms_matching": False},
    "dynamic-rms": {"dynamic_rms": True},
    "batch-quarter": 0.25,
    "batch-1x": 1,
    "batch-4x": 4,
}
ABLATION_CELLS = tuple(_ABLATIONS)


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
    change = _ABLATIONS[name]
    fields, factor = (change, 1) if isinstance(change, dict) else ({}, change)
    return replace(base, optimizer=replace(base.optimizer, **fields),
                   batch_size=max(1, int(base.batch_size * factor)),
                   stop_rule="fixed-steps", run_id=f"ablate-{name}")


def _check_ablation_axes(names: Sequence[str]) -> None:
    """Ablation axes are nonempty known cells, none repeated."""
    _require(bool(names), "axes", "be nonempty", list(names))
    unknown = [n for n in names if n not in ABLATION_CELLS]
    if unknown:
        raise ConfigError(f"unknown ablation cells {unknown}", key_path="axes")
    if len(set(names)) < len(names):
        raise ConfigError(f"cells must not repeat, got {list(names)}",
                          key_path="axes")


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
    _check_ablation_axes(names)
    configs = [_ablation_config(base, name) for name in names]
    results = train(configs)
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
        for key in ("eta_center", "lambda_center", "eta_extent", "lambda_extent"):
            _require(0.0 < getattr(self, key) < math.inf, key, "be positive and finite",
                     getattr(self, key))
        _require(self.points >= 1, "points", "be >= 1", self.points)


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


def _check_widths(start_width: int, end_width: int) -> None:
    """A telescope doubles the width from ``start_width`` >= 2 up to
    ``end_width`` = start_width * 2^j, j >= 1."""
    _require(start_width >= 2, "start_width", "be >= 2", start_width)
    q, r = divmod(end_width, start_width)
    _require(r == 0 and q >= 2 and q & (q - 1) == 0, "end_width",
             f"be start_width ({start_width}) * 2^j with j >= 1", end_width)


def _check_reach(grid: TelescopeGrid, start_width: int,
                 end_width: int) -> tuple[float, float]:
    """Every eta and lambda a telescope from ``start_width`` to ``end_width``
    can search is positive and finite; returns the largest eta and lambda.

    Each stage recenters on the winner, which lies between the bottom and
    the top of the last grid, at half the extents; the check follows the
    lowest and the highest center each stage can have.
    """
    reach = {"eta": [grid.eta_center] * 2, "lambda": [grid.lambda_center] * 2}
    scale, width = 1.0, start_width
    while width <= end_width:
        for axis, ends in reach.items():
            extent = scale * getattr(grid, f"{axis}_extent")
            with np.errstate(all="ignore"):
                ends[:] = (_log_grid(ends[0], extent, grid.points)[0],
                           _log_grid(ends[1], extent, grid.points)[-1])
            if not 0.0 < ends[0] <= ends[1] < math.inf:
                raise RangeError(
                    f"the grid reaches {ends[0]!r} to {ends[1]!r} at width "
                    f"{width}; it must stay positive and finite",
                    key_path=f"{axis}_extent")
        scale, width = 0.5 * scale, 2 * width
    return reach["eta"][1], reach["lambda"][1]


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
    _check_widths(start_width, end_width)
    _check_reach(grid, start_width, end_width)

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
        results = train(configs, val_only=True)
        flat = np.array([_search_loss(r) for r in results], dtype=F64)
        best = int(np.argmin(flat))
        bi, bj = divmod(best, len(lams))
        losses = tuple(tuple(map(float, row))
                       for row in flat.reshape(len(etas), len(lams)))
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
