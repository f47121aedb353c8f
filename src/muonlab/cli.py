"""Command-line entry point.

Subcommands: ``msign-check`` (spectrum-band verification of the iterative
sign computation against the exact one), ``train``, ``sweep``, ``ablate``,
and ``telescope`` (JSON-config experiment drivers).

Exit codes: 0 success, 1 verification failure, 2 usage or config error,
3 divergence. A sweep or an ablation trains all of its runs as one
lockstep stack in this process, and a telescope one stack per stage;
each record is byte-identical to its run trained alone.

Importing this module runs the package ``__init__``, which pins OpenBLAS
to one thread and, on glibc, keeps freed heap pages mapped; its docstring
says how to override either.
"""

from __future__ import annotations

import argparse
import sys

from .config import (
    load_config,
    parse_ablate_config,
    parse_sweep_config,
    parse_telescope_config,
    parse_train_config,
)
from .errors import ConfigError, MuonlabError, RangeError
from .harness import ablate, batch_sweep, telescope_sweep, train
from .linalg import _DTYPES, Matrix, Rng
from .msign import (COEFF_PRESETS, SPECTRUM_BAND, _band_excess, coefficient_preset,
                    msign_newton_schulz)
from .reports import emit_reports


def _parse_shape(text: str) -> tuple[int, int]:
    try:
        rows, cols = map(int, text.lower().split("x"))
    except ValueError:
        raise ConfigError(f"must look like 64x64, got {text!r}",
                          key_path="--shape") from None
    if rows < 1 or cols < 1:
        raise ConfigError(f"dimensions must be positive, got {text!r}",
                          key_path="--shape")
    return rows, cols


def _cmd_msign_check(args) -> int:
    if args.trials < 1:
        raise ConfigError(f"must be >= 1, got {args.trials}", key_path="--trials")
    rows, cols = _parse_shape(args.shape)
    coeffs = coefficient_preset(args.preset)
    root = Rng(args.seed)

    overall_min = float("inf")
    overall_max = 0.0
    worst_dev = 0.0
    violations = 0
    worst_trial = None  # (distance outside band, index, seed, smin, smax)
    for t in range(args.trials):
        child = root.child(t)
        m = Matrix(child.normal((rows, cols)))
        try:
            report = msign_newton_schulz(m, coeffs, args.k, compute_spectrum=True,
                                         compare_oracle=True)
        except RangeError as exc:  # the kernel's "k" is the --k flag here
            if exc.key_path == "k":
                exc.key_path = "--k"
            raise
        smin = report.singular_value_min
        smax = report.singular_value_max
        overall_min = min(overall_min, smin)
        overall_max = max(overall_max, smax)
        worst_dev = max(worst_dev, report.deviation_from_oracle)
        outside = _band_excess(smin, smax)
        if outside is not None:
            violations += 1
            if worst_trial is None or outside > worst_trial[0]:
                worst_trial = (outside, t, child.seed, smin, smax)

    print(f"msign-check shape={rows}x{cols} k={args.k} preset={args.preset} "
          f"trials={args.trials} seed={args.seed}")
    print(f"  singular values across trials: min={overall_min:.6f} "
          f"max={overall_max:.6f}")
    print(f"  max relative deviation from exact msign: {worst_dev:.6e}")
    if violations:
        _, idx, child_seed, smin, smax = worst_trial
        print(f"  band {SPECTRUM_BAND}: {violations} of {args.trials} trials "
              f"violated")
        print(f"  worst trial: index={idx} matrix_seed={child_seed} "
              f"min={smin:.6f} max={smax:.6f}")
        return 1
    print(f"  band {SPECTRUM_BAND}: all {args.trials} trials inside")
    return 0


def _print_paths(paths) -> None:
    for path in paths:
        print(f"wrote {path}")


def _cmd_train(args) -> int:
    config, out_dir = parse_train_config(load_config(args.config),
                                         _overrides(args))
    record = train(config)
    _print_paths(emit_reports(record, out_dir))
    print(f"run {record.run_id}: terminated={record.terminated} "
          f"final_val_loss={record.final_val_loss!r} "
          f"tokens_to_target={record.tokens_to_target}")
    return 3 if record.terminated == "diverged" else 0


def _cmd_sweep(args) -> int:
    config, grid, out_dir = parse_sweep_config(load_config(args.config),
                                               _overrides(args))
    result = batch_sweep(config, grid)
    _print_paths(emit_reports(result, out_dir))
    for cell in result.cells:
        if cell.tokens_to_target is None:
            print(f"warning: cell {cell.run_id} did not reach the target")
    for b in sorted(result.ratios):
        print(f"ratio B={b}: {result.ratios[b]!r}")
    print(f"ratio nondecreasing in B: {result.ratio_monotone_nondecreasing}")
    return 0


def _cmd_ablate(args) -> int:
    config, axes, out_dir = parse_ablate_config(load_config(args.config),
                                                _overrides(args))
    table = ablate(config, axes=axes)
    _print_paths(emit_reports(table, out_dir))
    for cell in table.cells:
        print(f"cell {cell.name}: final_val_loss={cell.final_val_loss!r} "
              f"steps_to_target={cell.steps_to_target} "
              f"spikes={cell.loss_spike_count} "
              f"state_scalars={cell.state_scalar_count} "
              f"terminated={cell.terminated}")
    return 0


def _cmd_telescope(args) -> int:
    config, start, end, grid, out_dir = parse_telescope_config(
        load_config(args.config), _overrides(args))
    result = telescope_sweep(config, start, end, grid)
    _print_paths(emit_reports(result, out_dir))
    for stage in result.stages:
        print(f"width {stage.width}: best_eta={stage.best_eta!r} "
              f"best_lambda={stage.best_lambda!r} "
              f"best_val_loss={stage.best_val_loss!r}")
    return 0


def _overrides(args) -> dict:
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out"] = args.out
    if args.precision is not None:
        overrides["precision"] = args.precision
    return overrides


def _add_config_args(sub) -> None:
    sub.add_argument("--config", required=True, help="JSON config path")
    sub.add_argument("--seed", type=int, default=None,
                     help="override the config seed")
    sub.add_argument("--out", default=None, help="override the output directory")
    sub.add_argument("--precision", choices=tuple(_DTYPES), default=None,
                     help="override the config precision")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="muonlab",
        description="Matrix-sign optimizer library and experiment harness.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    check = commands.add_parser(
        "msign-check",
        help="compare the iterative matrix sign against the exact one",
    )
    check.add_argument("--shape", default="64x64", help="matrix shape, e.g. 32x128")
    check.add_argument("--k", type=int, default=5, help="iteration count")
    check.add_argument("--preset", default="optimized",
                       choices=tuple(COEFF_PRESETS), help="coefficient preset")
    check.add_argument("--trials", type=int, default=200, help="random trials")
    check.add_argument("--seed", type=int, default=0, help="base seed")
    check.set_defaults(handler=_cmd_msign_check)

    for name, handler, blurb in (
        ("train", _cmd_train, "run one training configuration"),
        ("sweep", _cmd_sweep, "batch-size sweep with token-consumption ratios"),
        ("ablate", _cmd_ablate, "component ablation grid"),
        ("telescope", _cmd_telescope, "width-telescoping hyperparameter search"),
    ):
        sub = commands.add_parser(name, help=blurb)
        _add_config_args(sub)
        sub.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except MuonlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
