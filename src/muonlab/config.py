"""Strict JSON run configurations.

The spec dataclasses are the schema. Each field of a task spec (the
"task" section, one spec per kind), `OptimizerSpec` ("optimizer"),
`TrainConfig` (the top level) and `TelescopeGrid` ("telescope.grid") is a
key under its own name, except two: weight decay is "optimizer.lambda",
matching the usual symbol for it, and `TrainConfig.schedule_kind` is
"schedule.kind", read in the "schedule" section beside
"warmup_fraction" and "eta_min_fraction". A key's JSON kind is that of
its field's default (a float field takes an integer too); an absent key
takes the dataclass default. ``null`` is accepted only for
"target_loss", whose default it is.

Every key is checked: an unknown key, a mistyped value, a null or a
value out of its field's range (NaN included) is rejected with the full
dotted path of the offender. Each range rule is written once, in the
dataclass that owns the field, or for a key that is no field in a
`harness._check_*` helper. A telescope extent whose grids reach zero or
infinity is rejected at that extent. Under f32, a learning rate or weight
decay that f32 cannot hold is rejected.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, fields
from typing import Sequence

import numpy as np

from .errors import ConfigError, MuonlabError
from .harness import (ETA_TUNING_MULTIPLIERS, TelescopeGrid, TrainConfig,
                      _check_ablation_axes, _check_batch_grid, _check_reach,
                      _check_widths)
from .optim import OptimizerSpec
from .tasks import _TASK_OF

_F32_MAX = float(np.finfo(np.float32).max)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


_INTS = list[int]
# JSON kind -> (its name in errors, its test).
_KINDS = {
    bool: ("a boolean", lambda v: isinstance(v, bool)),
    int: ("an integer", _is_int),
    float: ("a number", lambda v: _is_int(v) or isinstance(v, float)),
    str: ("a string", lambda v: isinstance(v, str)),
    list: ("a list", lambda v: isinstance(v, list)),
    _INTS: ("a list of integers",
            lambda v: isinstance(v, list) and all(map(_is_int, v))),
}


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

    def take(self, key: str, default=MISSING, kind=None, nullable=False):
        """The value at ``key``, checked against ``kind`` (a key of
        ``_KINDS``); ``null`` only where ``nullable``."""
        if key not in self._data:
            if default is MISSING:
                raise ConfigError("missing required key",
                                  key_path=self._child_path(key))
            return default
        self._seen.add(key)
        value = self._data[key]
        if value is None:
            if not nullable:
                raise ConfigError("must not be null",
                                  key_path=self._child_path(key))
        elif kind is not None and not _KINDS[kind][1](value):
            raise ConfigError(f"expected {_KINDS[kind][0]}, got {value!r}",
                              key_path=self._child_path(key))
        return value

    def section(self, key: str, required: bool = False) -> "StrictSection":
        """The object at ``key``; an empty one if it is absent and not
        ``required``."""
        if key not in self._data:
            if required:
                raise ConfigError("missing required section",
                                  key_path=self._child_path(key))
            return StrictSection({}, self._child_path(key))
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


# Fields read under another key, and the TrainConfig fields read in the
# "schedule" section rather than at the top level.
_KEYS = {"weight_decay": "lambda", "schedule_kind": "kind"}
_SCHEDULE_FIELDS = {"schedule_kind", "warmup_fraction", "eta_min_fraction"}
_TOP_LEVEL_FIELDS = {f.name for f in fields(TrainConfig)} - _SCHEDULE_FIELDS
_TASKS = {spec().kind: spec for spec in _TASK_OF}


def _take_fields(sec: StrictSection, cls, names: set[str] | None = None,
                 **defaults) -> dict:
    """The fields of dataclass ``cls`` (those in ``names``, or all) read
    from ``sec``: field name -> (value, key path).

    Each field's key is its name (or its entry in ``_KEYS``), and its value
    must be of the JSON kind of its default: a float field takes an integer
    too, a tuple field a list of integers, and a field whose default is
    None a number or null. An absent key takes the default. ``defaults``
    gives defaults the dataclass does not hold; a field with neither is not
    read here (a task or optimizer spec has its own section).
    """
    read = {}
    for f in fields(cls):
        default = defaults.get(f.name, f.default)
        if default is MISSING or (names is not None and f.name not in names):
            continue
        key = _KEYS.get(f.name, f.name)
        if default is None or isinstance(default, float):
            value = sec.take(key, default, float, nullable=default is None)
            value = None if value is None else float(value)
        elif isinstance(default, tuple):
            value = tuple(sec.take(key, default, _INTS))
        else:
            value = sec.take(key, default, type(default))
        read[f.name] = (value, sec._child_path(key))
    return read


def _built(cls, read: dict, **given):
    """``cls`` built from ``given`` and the fields ``read`` by
    `_take_fields`; an error that names one of those fields is re-raised as
    a ConfigError at its key path."""
    try:
        return cls(**given, **{name: value for name, (value, _) in read.items()})
    except MuonlabError as exc:
        if exc.key_path not in read:
            raise
        raise ConfigError(exc.args[0], key_path=read[exc.key_path][1]) from None


def _parse_task(sec: StrictSection):
    kind = sec.take("kind", kind=str)
    if kind not in _TASKS:
        raise ConfigError(f"unknown task kind {kind!r}",
                          key_path=sec._child_path("kind"))
    spec = _built(_TASKS[kind], _take_fields(sec, _TASKS[kind]))
    sec.finish()
    return spec


def _parse_base(root: StrictSection, overrides: dict) -> tuple[TrainConfig, str]:
    """Parse the fields shared by every command into a TrainConfig.

    ``overrides`` may carry CLI-level seed/out/precision replacements.
    """
    task = _parse_task(root.section("task", required=True))
    opt_sec = root.section("optimizer")
    optimizer = _built(OptimizerSpec, _take_fields(opt_sec, OptimizerSpec))
    opt_sec.finish()
    read = _take_fields(root, TrainConfig, _TOP_LEVEL_FIELDS)
    sched_sec = root.section("schedule")
    read.update(_take_fields(sched_sec, TrainConfig, _SCHEDULE_FIELDS))
    sched_sec.finish()
    read.update((key, (overrides[key], key)) for key in ("seed", "precision")
                if key in overrides)
    out_dir = root.take("out_dir", "out", kind=str)
    return (_built(TrainConfig, read, task=task, optimizer=optimizer),
            overrides.get("out", out_dir))


def _checked(sec: StrictSection, check, *values):
    """``check(*values)``, its error re-raised as a ConfigError at the key
    in ``sec`` that the error names."""
    try:
        return check(*values)
    except MuonlabError as exc:
        raise ConfigError(exc.args[0],
                          key_path=sec._child_path(exc.key_path)) from None


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
    grid = sweep.take("batch_grid", kind=_INTS)
    _checked(sweep, _check_batch_grid, grid)
    sweep.finish()
    root.finish()
    _check_f32(config, {
        "optimizer.eta0": config.optimizer.eta0 * max(ETA_TUNING_MULTIPLIERS),
        "optimizer.lambda": config.optimizer.weight_decay})
    return config, grid, out_dir


def parse_ablate_config(doc: dict, overrides: dict | None = None,
                        ) -> tuple[TrainConfig, Sequence[str] | None, str]:
    root = StrictSection(doc)
    config, out_dir = _parse_base(root, overrides or {})
    sec = root.section("ablate")
    axes = sec.take("axes", None, kind=list)
    if axes is not None:
        _checked(sec, _check_ablation_axes, axes)
    sec.finish()
    root.finish()
    _check_f32(config, {"optimizer.eta0": config.optimizer.eta0,
                        "optimizer.lambda": config.optimizer.weight_decay})
    return config, axes, out_dir


def parse_telescope_config(doc: dict, overrides: dict | None = None,
                           ) -> tuple[TrainConfig, int, int, TelescopeGrid, str]:
    root = StrictSection(doc)
    config, out_dir = _parse_base(root, overrides or {})
    sec = root.section("telescope", required=True)
    start = sec.take("start_width", kind=int)
    end = sec.take("end_width", kind=int)
    _checked(sec, _check_widths, start, end)
    grid_sec = sec.section("grid", required=True)
    grid = _built(TelescopeGrid, _take_fields(
        grid_sec, TelescopeGrid, eta_center=config.optimizer.eta0,
        lambda_center=config.optimizer.weight_decay or 0.1))
    grid_sec.finish()
    sec.finish()
    root.finish()
    top_eta, top_lambda = _checked(grid_sec, _check_reach, grid, start, end)
    _check_f32(config, {"telescope.grid.eta_center": top_eta,
                        "telescope.grid.lambda_center": top_lambda})
    return config, start, end, grid, out_dir


__all__ = [
    "StrictSection",
    "load_config",
    "parse_ablate_config",
    "parse_sweep_config",
    "parse_telescope_config",
    "parse_train_config",
]
