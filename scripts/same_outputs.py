#!/usr/bin/env python3
"""Check that two muonlab source trees write the same bytes on the benchmark.

Usage (from the repository root):

    python3 scripts/same_outputs.py PARENT_SRC CHANGE_SRC

Each ``*_SRC`` is a ``src/`` directory holding a ``muonlab`` package, say
that of a checkout of the parent commit and that of the working tree. The
script makes the config of every benchmark workload at every config seed of
``bench/reference.json`` (3 workloads x 8 seeds), plus per seed three
``ablate`` configs, since no workload runs that command (the acceptance
quadratic in f64, and the telescope's MLP in f32 and in f64, whose 16x64
matrix runs every Muon variant; in f64 a multi-group stack's gradient
norms keep their last bit), the telescope config at ``"precision": "f32"``,
since every workload runs in f64, an f32 quadratic ``train`` config
that takes the quadratic's paths no other config takes, and a relu MLP
``train`` config under gradient noise, an f32 quadratic ``sweep`` whose
batches take the counted pass, a quadratic ``sweep`` whose diverging
tuning runs leave its stack while the rest train on, plus three
``msign-check`` runs, which take flags and no config (91 configs in all).
It runs each through ``python3 -m muonlab.cli`` once under each tree, the
two processes side by side, and compares the exit code, the standard
output and every file of the output directory byte for byte (an
``msign-check`` run writes none). Both sides
run in directories of the same shape, with a relative output path, so
their standard outputs name the same files. Their standard errors are
written once both have ended, the parent's first, and must be empty: a
warning on either side fails the config.

It prints one line per config and exits 0 when all are identical. At the
first difference it names the config and the first differing item (the
exit code, stdout, stderr, or an output file) and exits 1.

Only the standard library is used, plus read-only use of
``bench/workloads.make_config`` and the sweep targets in
``bench/reference.json``: the comparison shares no code with the package
it compares.
"""

import argparse
import functools
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
sys.path.insert(0, BENCH)
sys.dont_write_bytecode = True  # leave bench/ as it is

from workloads import WORKLOADS, make_config  # noqa: E402

# The ablation grid's check config in the acceptance suite (test_11): a
# wide quadratic whose regularizer is left out of the gradient, started
# from random weights. Its optimum loss is at most ~0.56 over the
# reference seeds, so every cell can cross the target.
ABLATE_TASK = {"kind": "quadratic", "n_rows": 8, "in_dim": 16, "out_dim": 8,
               "lambda_reg": 0.1, "reg_in_gradient": False,
               "target_noise": 0.5, "init_scale": 1.0}
ABLATE_TARGET_LOSS = 0.75


def ablate_config(seed: int, out_dir: str) -> dict:
    return {
        "task": ABLATE_TASK,
        "optimizer": {"kind": "muon", "eta0": 0.05, "lambda": 0.1},
        "batch_size": 32, "total_steps": 1000, "eval_every": 10,
        "seed": seed, "target_loss": ABLATE_TARGET_LOSS, "out_dir": out_dir,
    }


def mlp_ablate_config(seed: int, out_dir: str) -> dict:
    """The ablation grid on the telescope's MLP and optimizer, in f64."""
    telescope = make_config("telescope-mlp", seed, out_dir)
    return {
        "task": telescope["task"], "optimizer": telescope["optimizer"],
        "total_steps": 100, "eval_every": 10, "seed": seed,
        "target_loss": 1.0, "out_dir": out_dir,
    }


def quadratic_f32_config(seed: int, out_dir: str) -> dict:
    """A quadratic trained in f32 on the full batch, under gradient noise
    and the inverse-sqrt schedule, with its regularizer left out of the
    gradient: every eval casts f32 weights to f64, which no f64 config
    can tell from no cast."""
    return {
        "task": {"kind": "quadratic", "n_rows": 64, "in_dim": 16,
                 "out_dim": 8, "lambda_reg": 0.1, "reg_in_gradient": False,
                 "noise_sigma": 0.5, "init_scale": 1.0},
        "optimizer": {"kind": "muon", "eta0": 0.05, "lambda": 0.1},
        "full_batch": True, "total_steps": 200, "eval_every": 10,
        "schedule": {"kind": "inverse-sqrt"},
        "seed": seed, "precision": "f32", "out_dir": out_dir,
    }


def mlp_relu_noise_config(seed: int, out_dir: str) -> dict:
    """An MLP with relu activations trained under gradient noise: the two
    MLP knobs no other config sets."""
    return {
        "task": {"kind": "mlp", "n_samples": 512, "input_dim": 16,
                 "hidden": [32, 32], "classes": 4, "activation": "relu",
                 "noise_sigma": 0.01},
        "optimizer": {"kind": "muon", "eta0": 0.05, "lambda": 0.1},
        "batch_size": 32, "total_steps": 100, "eval_every": 10,
        "seed": seed, "out_dir": out_dir,
    }


def sweep_counted_config(seed: int, out_dir: str) -> dict:
    """A quadratic sweep whose batches of 1024 draws from 64 rows take the
    counted pass, where the benchmark's sweep does not go: in f32, with the
    regularizer in the gradient and gradient noise, and with a Muon tuning
    run (eta0 x4) that diverges."""
    return {
        "task": {"kind": "quadratic", "n_rows": 64, "in_dim": 16,
                 "out_dim": 8, "lambda_reg": 0.1, "noise_sigma": 0.5},
        "optimizer": {"kind": "muon", "eta0": 2.0, "lambda": 0.1},
        "batch_size": 1024, "total_steps": 100, "eval_every": 10,
        "seed": seed, "target_loss": 60.0, "stop_rule": "tokens-to-target",
        "precision": "f32", "sweep": {"batch_grid": [1024]}, "out_dir": out_dir,
    }


def sweep_leave_config(seed: int, out_dir: str) -> dict:
    """A quadratic sweep over three batch sizes, trained as one stack of
    two optimizer sub-stacks, whose x4 tuning runs (and at some seeds the
    x1 and x2 AdamW runs at B = 8) diverge on their first eval row at
    every config seed: runs leave from the middle of both sub-stacks while
    the rest train on."""
    return {
        "task": {"kind": "quadratic", "n_rows": 64, "in_dim": 16,
                 "out_dim": 8, "lambda_reg": 0.1},
        "optimizer": {"kind": "muon", "eta0": 2.0, "lambda": 0.1},
        "batch_size": 32, "total_steps": 100, "eval_every": 10,
        "seed": seed, "target_loss": 60.0, "stop_rule": "tokens-to-target",
        "sweep": {"batch_grid": [8, 64, 512]}, "out_dir": out_dir,
    }


# msign-check at its default flags and at three steps (both exit 1: a
# standard normal input has singular values too small to reach the band),
# and on a wide shape under the other preset (exit 0).
MSIGN_CHECK_FLAGS = ([],
                     ["--shape", "32x128", "--preset", "taylor", "--trials", "30"],
                     ["--k", "3", "--trials", "10"])


def in_f32(make):
    """The config maker ``make`` with ``"precision": "f32"`` set."""
    return lambda seed, out_dir: dict(make(seed, out_dir), precision="f32")


# (label, muonlab command, config maker) of each config checked at every
# config seed, after the benchmark's workloads.
PER_SEED = [
    ("ablate", "ablate", ablate_config),
    ("ablate-mlp f32", "ablate", in_f32(mlp_ablate_config)),
    ("ablate-mlp f64", "ablate", mlp_ablate_config),
    ("telescope-mlp f32", "telescope",
     in_f32(functools.partial(make_config, "telescope-mlp"))),
    ("train-quadratic f32", "train", quadratic_f32_config),
    ("train-mlp relu noise", "train", mlp_relu_noise_config),
    ("sweep-quadratic counted f32", "sweep", sweep_counted_config),
    ("sweep-quadratic leaving", "sweep", sweep_leave_config),
]


def configs(reference: dict):
    """(name, muonlab arguments, config document or None) of every config
    checked; a document is passed as ``--config``."""
    for flags in MSIGN_CHECK_FLAGS:
        args = ["msign-check", *flags]
        yield " ".join(args), args, None
    for name, workload in WORKLOADS.items():
        for seed in reference["seeds"]:
            target = reference["sweep_targets"].get(str(seed))
            yield (f"{name} seed {seed}", [workload.command],
                   make_config(name, seed, "out", target))
    for label, command, make in PER_SEED:
        for seed in reference["seeds"]:
            yield f"{label} seed {seed}", [command], make(seed, "out")


def start_side(src: str, side_dir: str, args: list, doc):
    """Start one config under the package in ``src``; returns the process."""
    os.makedirs(side_dir)
    if doc is not None:
        cfg = os.path.join(side_dir, "config.json")
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        args = args + ["--config", cfg]
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.Popen(
        [sys.executable, "-m", "muonlab.cli", *args],
        cwd=side_dir, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def run_sides(sides, side_dirs, args: list, doc):
    """Run one config under each package at once; returns each side's
    (code, stdout, stderr), after writing their standard errors in side
    order."""
    procs = [start_side(src, d, args, doc) for src, d in zip(sides, side_dirs)]
    outputs = [proc.communicate() for proc in procs]  # a few lines each
    for _stdout, stderr in outputs:
        sys.stderr.write(stderr.decode(errors="replace"))
    return [(proc.returncode, *out) for proc, out in zip(procs, outputs)]


def files_under(directory: str) -> list:
    """Every file below ``directory``, as sorted relative paths."""
    found = []
    for base, _dirs, names in os.walk(directory):
        for name in names:
            found.append(os.path.relpath(os.path.join(base, name), directory))
    return sorted(found)


def first_difference(a_dir: str, b_dir: str, a_run, b_run):
    """The first item that differs between two sides, or None."""
    if a_run[0] != b_run[0]:
        return f"exit code ({a_run[0]} against {b_run[0]})"
    if a_run[1] != b_run[1]:
        return "stdout"
    if a_run[2] or b_run[2]:
        return (f"stderr ({len(a_run[2])} bytes from the parent, "
                f"{len(b_run[2])} from the change)")
    a_out, b_out = os.path.join(a_dir, "out"), os.path.join(b_dir, "out")
    a_files, b_files = files_under(a_out), files_under(b_out)
    one_side = sorted(set(a_files) ^ set(b_files))
    if one_side:
        return f"{one_side[0]} (written on one side only)"
    for name in a_files:
        with open(os.path.join(a_out, name), "rb") as fa, \
                open(os.path.join(b_out, name), "rb") as fb:
            if fa.read() != fb.read():
                return name
    return None


def package_dir(src: str) -> str:
    """Where ``import muonlab`` resolves with ``src`` on the path."""
    out = subprocess.run(
        [sys.executable, "-c", "import muonlab, os; "
         "print(os.path.dirname(os.path.abspath(muonlab.__file__)))"],
        env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE, check=True)
    return out.stdout.decode().strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", help="src/ tree of the parent")
    parser.add_argument("change_src", help="src/ tree of the change")
    args = parser.parse_args(argv)
    sides = [os.path.abspath(p) for p in (args.parent_src, args.change_src)]
    for src in sides:
        want = os.path.join(src, "muonlab")
        if package_dir(src) != want:
            print(f"error: muonlab does not import from {want}", file=sys.stderr)
            return 2
    with open(os.path.join(BENCH, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)

    work = tempfile.mkdtemp(prefix="same_outputs-")  # under $TMPDIR
    try:
        checked = 0
        for name, args, doc in configs(reference):
            config_dir = os.path.join(work, name.replace(" ", "-"))
            a_dir, b_dir = (os.path.join(config_dir, s) for s in ("a", "b"))
            a_run, b_run = run_sides(sides, (a_dir, b_dir), args, doc)
            diff = first_difference(a_dir, b_dir, a_run, b_run)
            if diff is not None:
                print(f"DIFFERS {name}: {diff}")
                return 1
            count = len(files_under(os.path.join(a_dir, "out")))
            print(f"same {name}: exit {a_run[0]}, stdout, {count} files")
            shutil.rmtree(config_dir)
            checked += 1
        print(f"all {checked} configs byte-identical")
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
