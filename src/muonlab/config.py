"""Strict JSON run configurations.

Every key is checked: unknown keys are rejected with the full dotted path
of the offender, and type mismatches name the key they occurred at. The
optimizer block spells weight decay as "lambda", matching the usual symbol
for it; the quadratic task's ridge term is "lambda_reg". Under f32, a
learning rate or weight decay that f32 cannot hold is rejected.
"""

from __future__ import annotations

import json
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .harness import (ABLATION_CELLS, ETA_TUNING_MULTIPLIERS, TelescopeGrid,
                      TrainConfig, _log_grid)
from .optim import OptimizerSpec
from .tasks import MlpSpec, QuadraticSpec

_MISSING = object()
_F32_MAX = float(np.finfo(np.float32).max)


class StrictSection:
    """One JSON object being consumed key by key.

    ``take`` reads and marks a key; ``finish`` fails if anything was left
    unread, naming it by dotted path.
    """

    def __init__(self, data: dict, path: str = ""):
        if not isinstance(data, dict):
            raise ConfigError("expected an object", key_path=path or "<root>")
        self._data = data
        self._path = path
        self._seen: set[str] = set()

    def _child_path(self, key: str) -> str:
        return f"{self._path}.{key}" if self._path else key

    def take(self, key: str, default=_MISSING, kind=None):
        if key not in self._data:
            if default is _MISSING:
                raise ConfigError("missing required key",
                                  key_path=self._child_path(key))
            return default
        self._seen.add(key)
        value = self._data[key]
        if kind is not None and value is not None:
            self._check_kind(key, value, kind)
        return value

    def _check_kind(self, key: str, value, kind) -> None:
        path = self._child_path(key)
        if kind is bool:
            if not isinstance(value, bool):
                raise ConfigError(f"expected a boolean, got {value!r}", key_path=path)
        elif kind is int:
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"expected an integer, got {value!r}", key_path=path)
        elif kind is float:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"expected a number, got {value!r}", key_path=path)
        elif kind is str:
            if not isinstance(value, str):
                raise ConfigError(f"expected a string, got {value!r}", key_path=path)
        elif kind is list:
            if not isinstance(value, list):
                raise ConfigError(f"expected a list, got {value!r}", key_path=path)

    def section(self, key: str, required: bool = False) -> "StrictSection | None":
        if key not in self._data:
            if required:
                raise ConfigError("missing required section",
                                  key_path=self._child_path(key))
            return None
        self._seen.add(key)
        return StrictSection(self._data[key], self._child_path(key))

    def finish(self) -> None:
        unknown = sorted(set(self._data) - self._seen)
        if unknown:
            raise ConfigError("unknown key",
                              key_path=self._child_path(unknown[0]))


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc


def _parse_task(sec: StrictSection):
    kind = sec.take("kind", kind=str)
    if kind == "quadratic":
        spec = QuadraticSpec(
            n_rows=int(sec.take("n_rows", 256, kind=int)),
            in_dim=int(sec.take("in_dim", 16, kind=int)),
            out_dim=int(sec.take("out_dim", 8, kind=int)),
            lambda_reg=float(sec.take("lambda_reg", 0.0, kind=float)),
            noise_sigma=float(sec.take("noise_sigma", 0.0, kind=float)),
            reg_in_gradient=bool(sec.take("reg_in_gradient", True, kind=bool)),
            target_noise=float(sec.take("target_noise", 0.5, kind=float)),
            design_scale=float(sec.take("design_scale", 1.0, kind=float)),
            init_scale=float(sec.take("init_scale", 0.0, kind=float)),
        )
    elif kind == "mlp":
        hidden = sec.take("hidden", [128, 128], kind=list)
        if not all(isinstance(h, int) and not isinstance(h, bool) for h in hidden):
            raise ConfigError("hidden widths must be integers",
                              key_path=sec._child_path("hidden"))
        spec = MlpSpec(
            n_samples=int(sec.take("n_samples", 2048, kind=int)),
            input_dim=int(sec.take("input_dim", 64, kind=int)),
            hidden=tuple(hidden),
            classes=int(sec.take("classes", 8, kind=int)),
            activation=str(sec.take("activation", "tanh", kind=str)),
            val_fraction=float(sec.take("val_fraction", 0.1, kind=float)),
            cluster_spread=float(sec.take("cluster_spread", 1.0, kind=float)),
            sample_noise=float(sec.take("sample_noise", 1.0, kind=float)),
            noise_sigma=float(sec.take("noise_sigma", 0.0, kind=float)),
        )
    else:
        raise ConfigError(f"unknown task kind {kind!r}",
                          key_path=sec._child_path("kind"))
    sec.finish()
    return spec


def _parse_optimizer(sec: StrictSection) -> OptimizerSpec:
    spec = OptimizerSpec(
        kind=str(sec.take("kind", "muon", kind=str)),
        eta0=float(sec.take("eta0", 0.02, kind=float)),
        weight_decay=float(sec.take("lambda", 0.1, kind=float)),
        beta=float(sec.take("beta", 0.9, kind=float)),
        k_iters=int(sec.take("k_iters", 5, kind=int)),
        coeffs=str(sec.take("coeffs", "optimized", kind=str)),
        rms_factor=float(sec.take("rms_factor", 0.2, kind=float)),
        rms_matching=bool(sec.take("rms_matching", True, kind=bool)),
        rms_dim=str(sec.take("rms_dim", "fan-out", kind=str)),
        exact_msign=bool(sec.take("exact_msign", False, kind=bool)),
        momentum_only=bool(sec.take("momentum_only", False, kind=bool)),
        dynamic_rms=bool(sec.take("dynamic_rms", False, kind=bool)),
        beta1=float(sec.take("beta1", 0.9, kind=float)),
        beta2=float(sec.take("beta2", 0.999, kind=float)),
        eps=float(sec.take("eps", 1e-8, kind=float)),
    )
    sec.finish()
    return spec


def _parse_base(root: StrictSection, overrides: dict) -> tuple[TrainConfig, str]:
    """Parse the fields shared by every command into a TrainConfig.

    ``overrides`` may carry CLI-level seed/out/precision replacements.
    """
    task = _parse_task(root.section("task", required=True))
    opt_sec = root.section("optimizer")
    optimizer = (_parse_optimizer(opt_sec) if opt_sec is not None
                 else OptimizerSpec())

    schedule_kind = "cosine-with-linear-warmup"
    warmup_fraction = 0.01
    eta_min_fraction = 0.0
    sched_sec = root.section("schedule")
    if sched_sec is not None:
        schedule_kind = str(sched_sec.take("kind", schedule_kind, kind=str))
        warmup_fraction = float(sched_sec.take("warmup_fraction",
                                               warmup_fraction, kind=float))
        eta_min_fraction = float(sched_sec.take("eta_min_fraction",
                                                eta_min_fraction, kind=float))
        sched_sec.finish()

    target = root.take("target_loss", None, kind=float)
    config = TrainConfig(
        task=task,
        optimizer=optimizer,
        batch_size=int(root.take("batch_size", 32, kind=int)),
        total_steps=int(root.take("total_steps", 200, kind=int)),
        seed=int(overrides.get("seed", root.take("seed", 0, kind=int))),
        precision=str(overrides.get("precision",
                                    root.take("precision", "f64", kind=str))),
        schedule_kind=schedule_kind,
        warmup_fraction=warmup_fraction,
        eta_min_fraction=eta_min_fraction,
        target_loss=None if target is None else float(target),
        stop_rule=str(root.take("stop_rule", "fixed-steps", kind=str)),
        eval_every=int(root.take("eval_every", 10, kind=int)),
        full_batch=bool(root.take("full_batch", False, kind=bool)),
        smooth_window=int(root.take("smooth_window", 5, kind=int)),
        spike_ratio=float(root.take("spike_ratio", 1.25, kind=float)),
        clip_norm=float(root.take("clip_norm", 1.0, kind=float)),
        record_wall_time=bool(root.take("record_wall_time", False, kind=bool)),
        run_id=str(root.take("run_id", "", kind=str)),
    )
    out_dir = str(overrides.get("out", root.take("out_dir", "out", kind=str)))
    return config, out_dir


def _check_f32(config: TrainConfig, peaks: dict[str, float]) -> None:
    """Under f32, reject a learning rate or weight decay that a cast to f32
    turns into inf; ``peaks`` maps each source key to the largest value
    the command trains with from it."""
    for key, value in peaks.items():
        if config.precision == "f32" and value > _F32_MAX:
            raise ConfigError(f"trains with {value!r}, above the f32 maximum "
                              f"{_F32_MAX!r}", key_path=key)


def parse_train_config(doc: dict, overrides: dict | None = None,
                       ) -> tuple[TrainConfig, str]:
    root = StrictSection(doc)
    config, out_dir = _parse_base(root, overrides or {})
    root.finish()
    _check_f32(config, {"optimizer.eta0": config.optimizer.eta0,
                        "optimizer.lambda": config.optimizer.weight_decay})
    return config, out_dir


def parse_sweep_config(doc: dict, overrides: dict | None = None,
                       ) -> tuple[TrainConfig, list[int], str]:
    root = StrictSection(doc)
    config, out_dir = _parse_base(root, overrides or {})
    sweep = root.section("sweep", required=True)
    grid = sweep.take("batch_grid", kind=list)
    if not grid:
        raise ConfigError("must be nonempty", key_path="sweep.batch_grid")
    if not all(isinstance(b, int) and not isinstance(b, bool) for b in grid):
        raise ConfigError("batch_grid entries must be integers",
                          key_path="sweep.batch_grid")
    if min(grid) < 1:
        raise ConfigError(f"batch sizes must be >= 1, got {grid}",
                          key_path="sweep.batch_grid")
    if len(set(grid)) < len(grid):
        raise ConfigError(f"batch sizes must not repeat, got {grid}",
                          key_path="sweep.batch_grid")
    sweep.finish()
    root.finish()
    _check_f32(config, {
        "optimizer.eta0": config.optimizer.eta0 * max(ETA_TUNING_MULTIPLIERS),
        "optimizer.lambda": config.optimizer.weight_decay})
    return config, [int(b) for b in grid], out_dir


def parse_ablate_config(doc: dict, overrides: dict | None = None,
                        ) -> tuple[TrainConfig, Sequence[str] | None, str]:
    root = StrictSection(doc)
    config, out_dir = _parse_base(root, overrides or {})
    axes = None
    sec = root.section("ablate")
    if sec is not None:
        axes_val = sec.take("axes", None, kind=list)
        sec.finish()
        if axes_val is not None:
            if not axes_val:
                raise ConfigError("must be nonempty", key_path="ablate.axes")
            bad = [a for a in axes_val if a not in ABLATION_CELLS]
            if bad:
                raise ConfigError(f"unknown ablation cells {bad}",
                                  key_path="ablate.axes")
            if len(set(axes_val)) < len(axes_val):
                raise ConfigError(f"cells must not repeat, got {axes_val}",
                                  key_path="ablate.axes")
            axes = [str(a) for a in axes_val]
    root.finish()
    _check_f32(config, {"optimizer.eta0": config.optimizer.eta0,
                        "optimizer.lambda": config.optimizer.weight_decay})
    return config, axes, out_dir


def parse_telescope_config(doc: dict, overrides: dict | None = None,
                           ) -> tuple[TrainConfig, int, int, TelescopeGrid, str]:
    root = StrictSection(doc)
    config, out_dir = _parse_base(root, overrides or {})
    sec = root.section("telescope", required=True)
    start = int(sec.take("start_width", kind=int))
    end = int(sec.take("end_width", kind=int))
    grid_sec = sec.section("grid", required=True)
    grid = TelescopeGrid(
        eta_center=float(grid_sec.take("eta_center", config.optimizer.eta0,
                                       kind=float)),
        lambda_center=float(grid_sec.take(
            "lambda_center", config.optimizer.weight_decay or 0.1, kind=float)),
        eta_extent=float(grid_sec.take("eta_extent", 0.5, kind=float)),
        lambda_extent=float(grid_sec.take("lambda_extent", 0.5, kind=float)),
        points=int(grid_sec.take("points", 3, kind=int)),
    )
    grid_sec.finish()
    sec.finish()
    root.finish()
    # Each stage recenters on the winner, at most the top, at half the extents.
    eta_top, lam_top, scale, width = grid.eta_center, grid.lambda_center, 1.0, start
    while 0 < width <= end:
        eta_top = _log_grid(eta_top, scale * grid.eta_extent, grid.points)[-1]
        lam_top = _log_grid(lam_top, scale * grid.lambda_extent, grid.points)[-1]
        scale, width = 0.5 * scale, 2 * width
    _check_f32(config, {"telescope.grid.eta_center": eta_top,
                        "telescope.grid.lambda_center": lam_top})
    return config, start, end, grid, out_dir


__all__ = [
    "StrictSection",
    "load_config",
    "parse_ablate_config",
    "parse_sweep_config",
    "parse_telescope_config",
    "parse_train_config",
]
