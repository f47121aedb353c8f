"""muonlab's benchmark: run one workload through the CLI and report its metrics.

Usage (from the repository root):

    python3 bench/run.py --workload sweep-quadratic --seed 0 --seconds 40 --trace 0

Each repetition runs the workload's `muonlab` command in a fresh child
process (`child.py`) on a config generated from the seed, then checks the
outputs against `reference.json`. Repetitions continue until the next one
would overrun ``--seconds`` (at least three are made, four when traced):
one repetition varies by about 10% on a 2-vCPU Xeon VM with OpenBLAS at its
default thread count, so a run reports medians. Before them, the
package is imported once to warm the caches, and the set-up alone (spawn to
parsed config) is timed a few extra times.

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json
as medians over the repetitions. With ``--trace 1`` it alternates untraced
and traced repetitions and reports the per-layer metrics from the traced
ones, plus the tracing overhead (traced minus untraced run_s). The last line
of standard output is one JSON object: correct, attempted, failed (in
experiment cells) and the metrics. ``--workload all`` runs every workload and
ends with one combined object.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import checker
import metrics
import tracing
from workloads import WORKLOADS, config_seed, make_config

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
CHILD = os.path.join(BENCH_DIR, "child.py")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
WORK_DIR = os.path.join(ROOT, ".bench_work")
REQUIRED = ("BENCHMARK.json", os.path.join("src", "muonlab", "cli.py"),
            os.path.join("scripts", "recompute_ratios.py"))

SETUP_SAMPLES = 8
MIN_REPS = 3
MIN_TRACE_REPS = 4
CHILD_TIMEOUT_S = 120.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def environment() -> dict:
    """What the figures depend on besides the code: machine and settings."""
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    env = child_env()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        **{var: env.get(var) for var in ("OPENBLAS_NUM_THREADS",
                                          "OMP_NUM_THREADS", "MUONLAB_WORKERS")},
    }


def child_env() -> dict:
    # BLAS thread variables pass through untouched, so a pin the program sets
    # for itself shows as a gain. MUONLAB_WORKERS is removed, so cells run
    # at the program's default (sequentially): with 2 worker threads on a
    # 2-vCPU machine, run_s measured GIL hand-offs and the host's scheduler,
    # and its quartiles over 10 runs spread by 27-50% of the median.
    env = dict(os.environ)
    env.pop("MUONLAB_WORKERS", None)
    return env


def _reap(proc: subprocess.Popen, timeout: float):
    # A blocking wait: a polling parent would wake up on the CPUs the child's
    # BLAS threads spin on and perturb the timings.
    timed_out = threading.Event()

    def kill():
        timed_out.set()
        proc.kill()

    killer = threading.Timer(timeout, kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if timed_out.is_set():
        raise BenchError(f"child timed out after {timeout:.0f} s")
    return usage


def run_child(workload, mode: str, config_path: str) -> dict:
    """Run the workload's command once in a child; return its timings.

    Raises BenchError when the child wrote no result (it crashed or never
    got the package imported).
    """
    work = os.path.dirname(config_path)
    result_path = os.path.join(work, f"result-{mode}.json")
    log_path = os.path.join(work, f"child-{mode}.log")
    for stale in (result_path, result_path + ".spans.json"):
        if os.path.exists(stale):
            os.remove(stale)
    spawn = time.monotonic()
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(
            [sys.executable, CHILD, result_path, mode, repr(spawn), "--",
             workload.command, "--config", config_path],
            cwd=ROOT, env=child_env(), stdout=log,
            stderr=subprocess.STDOUT)
        usage = _reap(proc, CHILD_TIMEOUT_S)
    if not os.path.exists(result_path):
        with open(log_path, encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-2000:]
        raise BenchError(f"{workload.name} ({mode}) exited {proc.returncode} "
                         f"without a result:\n{tail}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    result["wall_s"] = time.monotonic() - spawn
    if mode == "trace":
        result["spans"], result["notes"] = tracing.load(result_path + ".spans.json")
    return result


def check_outputs(workload, out_dir: str, result: dict, ref: dict):
    """(attempted, failed, problems, output facts) of one repetition."""
    cells = len(ref["cells"])
    if result["exit_code"] != ref["exit_code"]:
        return cells, cells, [f"exit code {result['exit_code']}, "
                              f"expected {ref['exit_code']}"], None
    try:
        got = checker.extract(workload.name, out_dir)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return cells, cells, [f"unreadable output: {exc!r}"], None
    attempted, failed, problems = checker.compare(got["cells"], ref["cells"])
    if (workload.name == "sweep-quadratic"
            and not checker.recompute_ratios_ok(ROOT, out_dir)):
        failed = attempted
        problems.append("scripts/recompute_ratios.py disagrees with the report")
    facts = {
        "bytes": sum(os.path.getsize(os.path.join(out_dir, n)) for n in got["files"]),
        "identical_share": checker.identical_share(got["files"], ref["files"]),
    }
    return attempted, failed, problems, facts


def prepare(name: str, cfg_seed: int, sweep_target: float | None) -> tuple[str, str]:
    """Write a fresh work directory with the workload's config.

    Returns (config path, output directory).
    """
    work = os.path.join(WORK_DIR, name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    out_dir = os.path.join(work, "out")
    config_path = os.path.join(work, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(make_config(name, cfg_seed, out_dir, sweep_target), fh)
    return config_path, out_dir


def _line(name: str, value: float, unit: str, note: str = "") -> str:
    return f"  {name:<32} {value:>14.6g} {unit:<6} {note}".rstrip()


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 reference: dict, declared: dict) -> dict:
    """Run one workload for about ``seconds``; print it and return the result."""
    workload = WORKLOADS[name]
    cfg_seed = config_seed(seed)
    ref = reference["workloads"][name][str(cfg_seed)]
    config_path, out_dir = prepare(name, cfg_seed,
                                   reference["sweep_targets"].get(str(cfg_seed)))

    start = time.monotonic()
    run_child(workload, "setup", config_path)  # warm-up, not measured
    setups = [] if trace else [run_child(workload, "setup", config_path)["setup_s"]
                               for _ in range(SETUP_SAMPLES)]
    modes = itertools.cycle(("run", "trace") if trace else ("run",))
    min_reps = MIN_TRACE_REPS if trace else MIN_REPS
    reps: dict[str, list[dict]] = {"run": [], "trace": []}
    walls: list[float] = []
    attempted = failed = crashed = 0
    problems: list[str] = []
    while True:
        rep_start = time.monotonic()
        mode = next(modes)
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            result = run_child(workload, mode, config_path)
        except BenchError as exc:
            crashed += 1
            attempted += len(ref["cells"])
            failed += len(ref["cells"])
            problems.append(str(exc))
        else:
            a, f, why, facts = check_outputs(workload, out_dir, result, ref)
            attempted += a
            failed += f
            problems += why
            if facts is not None:
                result.update(facts)
                reps[mode].append(result)
        walls.append(time.monotonic() - rep_start)
        done = len(walls)
        if done >= min_reps and (time.monotonic() - start
                                 + statistics.median(walls) > seconds):
            break

    print(f"workload {name}: seed {seed} -> config seed {cfg_seed}, "
          f"{done} repetitions ({crashed} crashed), {len(ref['cells'])} cells "
          f"each, {time.monotonic() - start:.1f} s")
    for problem in problems[:10]:
        print(f"  MISMATCH {problem}")
    runs = reps["run"]
    if not runs or (trace and not reps["trace"]):
        raise BenchError(f"{name}: no repetition produced timings")
    if trace:
        values = _layer_values(runs, reps["trace"])
        for metric, value in values.items():
            print(_line(metric, value, declared[metric]))
    else:
        samples = {"setup_s": setups + [r["setup_s"] for r in runs]}
        for metric in ("run_s", "cpu_s", "peak_rss_mb"):
            samples[metric] = [r[metric] for r in runs]
        values = {m: statistics.median(xs) for m, xs in samples.items()}
        for metric, xs in samples.items():
            print(_line(metric, values[metric], declared[metric],
                        f"median of {len(xs)}, min {min(xs):.4g}, max {max(xs):.4g}"))
    share = failed / attempted
    print(_line("error_rate", share, "share", f"({failed} of {attempted} cells failed)"))
    print(f"  env {json.dumps(environment(), sort_keys=True)}")
    if set(values) != set(declared):
        raise BenchError(f"{name}: metrics {sorted(set(values) ^ set(declared))} "
                         "do not match BENCHMARK.json")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": declared[m]} for m, v in values.items()},
    }


def _layer_values(runs: list[dict], traced: list[dict]) -> dict:
    per_rep = []
    for rep in traced:
        values = metrics.summarize_trace(rep["spans"], rep["notes"],
                                         rep["run_s"], workers=1)
        values["reports.emit.bytes"] = rep["bytes"]
        values["reports.bytes_identical_share"] = rep["identical_share"]
        per_rep.append(values)
    counts = [m for m in per_rep[0] if m.endswith(".calls") or m in (
        "msign.ns.gflop", "msign.ns.computed_mb", "optim.clip.fired_share",
        "reports.emit.bytes")]
    for m in counts:
        if len({rep[m] for rep in per_rep}) > 1:
            print(f"  WARNING {m} differs between traced repetitions: "
                  f"{[rep[m] for rep in per_rep]}")
    modules = metrics.module_self_times(traced[-1]["spans"])
    print("  self time by module (last traced repetition): " + ", ".join(
        f"{mod} {t:.3f} s" for mod, t in sorted(modules.items(), key=lambda kv: -kv[1])))
    values = {m: per_rep[0][m] if m in counts
              else statistics.median(rep[m] for rep in per_rep)
              for m in per_rep[0]}
    values["trace.overhead_s"] = (statistics.median(r["run_s"] for r in traced)
                                  - statistics.median(r["run_s"] for r in runs))
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print(f"error: not a muonlab checkout, missing {missing}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         bool(args.trace), reference, declared)
            if len(names) > 1:
                print(json.dumps(results[name]))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{m}": v for n, r in results.items()
                        for m, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
