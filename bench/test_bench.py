"""Tests of the benchmark's own code: the correctness checker, the percentile
helper, the Newton-Schulz operation counter and the span arithmetic.

Run from the repository root: python3 -m pytest bench
"""

import csv
import math
import os
import threading

import numpy as np
import pytest

import checker
import metrics
import tracing


# -- percentile ---------------------------------------------------------------

@pytest.mark.parametrize("q", [0, 10, 25, 50, 73.5, 90, 100])
@pytest.mark.parametrize("n", [1, 2, 5, 48])
def test_percentile_matches_numpy_linear(q, n):
    values = list(np.random.default_rng(n).normal(size=n))
    assert metrics.percentile(values, q) == pytest.approx(
        float(np.percentile(values, q)), rel=1e-12, abs=1e-15)


def test_percentile_small_cases():
    assert metrics.percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert metrics.percentile([1.0, 2.0], 50) == 1.5
    assert metrics.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 90) == pytest.approx(4.6)
    assert metrics.percentile([7.0], 90) == 7.0


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        metrics.percentile([], 50)
    with pytest.raises(ValueError):
        metrics.percentile([1.0], 101)


# -- Newton-Schulz operation counts ----------------------------------------------

def _matmul_flop(p, q, r):
    return 2 * p * q * r


@pytest.mark.parametrize("shape", [(16, 8), (8, 16), (128, 128), (64, 128), (128, 8)])
def test_ns_flop_is_the_sum_of_the_three_products(shape):
    m, n = max(shape), min(shape)
    per_step = (_matmul_flop(n, m, n)      # X^T X
                + _matmul_flop(n, n, n)    # (X^T X)^2
                + _matmul_flop(m, n, n))   # X @ P
    flop, nbytes = metrics.ns_cost(shape[0], shape[1], 5, 8)
    assert flop == 5 * per_step
    per_step_items = (m * n + m * n + n * n) + 3 * n * n + (m * n + n * n + m * n)
    assert nbytes == 5 * per_step_items * 8


def test_ns_cost_known_value_and_precision():
    assert metrics.ns_cost(16, 8, 5, 8) == (25600, 5 * (4 * 128 + 320) * 8)
    flop64, bytes64 = metrics.ns_cost(64, 128, 3, 8)
    flop32, bytes32 = metrics.ns_cost(64, 128, 3, 4)
    assert flop64 == flop32 and bytes64 == 2 * bytes32


# -- spans ----------------------------------------------------------------------

def test_self_times_subtract_direct_children_only():
    # 0 [0, 10] > 1 [1, 5] > 2 [2, 3];  0 > 3 [6, 9]
    start = [0.0, 1.0, 2.0, 6.0]
    end = [10.0, 5.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert metrics.self_times(start, end, parent) == [3.0, 3.0, 1.0, 3.0]


def test_tracer_links_parents_per_thread():
    tracer = tracing.Tracer()
    inner = tracer.wrap("tasks.eval", lambda: None)
    outer = tracer.wrap("harness.train", lambda: inner())

    outer()
    thread = threading.Thread(target=outer)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()

    spans = tracer.spans()
    assert spans["name"] == ["harness.train", "tasks.eval"] * 2
    assert spans["parent"] == [-1, 0, -1, 2]
    assert all(e >= s for s, e in zip(spans["start"], spans["end"]))


def test_tracer_dump_round_trips(tmp_path):
    tracer = tracing.Tracer()
    tracer.wrap("optim.clip", lambda g, n: (g, 2.0), tracing._note_clip)({}, 1.0)
    path = str(tmp_path / "spans.json")
    tracer.dump(path)
    spans, notes = tracing.load(path)
    assert spans == tracer.spans()
    assert notes == {("optim.clip", True): 1}


def test_summarize_trace_counts_and_shares():
    spans = {
        "name": ["harness.train", "optim.step", "msign.ns", "optim.clip",
                 "harness.train", "optim.clip"],
        "start": [0.0, 1.0, 1.5, 3.0, 10.0, 11.0],
        "end": [4.0, 2.0, 1.75, 3.5, 12.0, 11.5],
        "parent": [-1, 0, 1, 0, -1, 4],
    }
    notes = {("msign.ns", 16, 8, 5, 8): 1, ("optim.clip", True): 1,
             ("optim.clip", False): 1}
    out = metrics.summarize_trace(spans, notes, run_s=5.0, workers=2)
    assert out["harness.train.calls"] == 2
    assert out["harness.train.p50_ms"] == pytest.approx(3000.0)
    assert out["harness.train.self_s"] == pytest.approx(2.5 + 1.5)
    assert out["harness.executor.busy_share"] == pytest.approx(6.0 / 10.0)
    assert out["harness.executor.idle_s"] == pytest.approx(4.0)
    assert out["optim.step.self_s"] == pytest.approx(0.75)
    assert out["msign.ns.gflop"] == pytest.approx(25600 / 1e9)
    assert out["optim.clip.fired_share"] == 0.5
    with pytest.raises(ValueError):
        metrics.summarize_trace(spans, {}, run_s=5.0, workers=2)


# -- correctness checker ---------------------------------------------------------

def _cell(tokens=40, losses=(2.0, 1.0)):
    return {"exact": {"terminated": "completed", "tokens_to_target": tokens},
            "close": {"val_loss": list(losses)}}


def test_cell_within_tolerance_passes():
    want = _cell(losses=(2.0, 1.0))
    got = _cell(losses=(2.0 * (1 + 5e-10), 1.0))
    assert checker.cell_problem(got, want) is None


@pytest.mark.parametrize("got, reason", [
    (_cell(tokens=50), "tokens_to_target"),
    (_cell(losses=(2.0, 1.0 + 1e-6)), "val_loss[1]"),
    (_cell(losses=(2.0,)), "another length"),
    (_cell(losses=(2.0, math.nan)), "val_loss[1]"),
    (None, "missing"),
])
def test_cell_mismatches_are_named(got, reason):
    assert reason in checker.cell_problem(got, _cell())


def test_nan_matches_nan():
    nan = _cell(losses=(math.nan, 1.0))
    assert checker.cell_problem(_cell(losses=(math.nan, 1.0)), nan) is None


def test_compare_counts_missing_and_extra_cells():
    want = {"a": _cell(), "b": _cell()}
    got = {"a": _cell(), "c": _cell()}
    attempted, failed, problems = checker.compare(got, want)
    assert (attempted, failed) == (3, 2)
    assert problems == ["b: missing", "c: not in the reference"]


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def test_extract_train_output(tmp_path):
    out = str(tmp_path)
    _write_csv(os.path.join(out, "summary.csv"),
               ["run_id", "optimizer", "batch_size", "tokens_to_target",
                "terminated", "loss_spike_count", "final_val_loss",
                "state_scalar_count"],
               [["r1", "muon", 64, "", "completed", 0, 0.5, 100]])
    _write_csv(os.path.join(out, "run_r1.csv"),
               ["run_id", "optimizer", "batch_size", "step", "tokens_seen",
                "train_loss", "val_loss", "grad_global_norm", "update_rms",
                "eta_t", "wall_ms"],
               [["r1", "muon", 64, 0, 0, 2.0, 2.1, 1.0, 0.0, 0.0, 0.0],
                ["r1", "muon", 64, 10, 640, 1.0, 0.5, 0.3, 0.01, 0.02, 0.0]])
    got = checker.extract("mlp-train", out)
    cell = got["cells"]["r1"]
    assert cell["exact"] == {"terminated": "completed", "tokens_to_target": None,
                             "eval_rows": 2, "loss_spike_count": 0,
                             "state_scalar_count": 100}
    assert cell["close"]["val_loss"] == [2.1, 0.5]
    assert sorted(got["files"]) == ["run_r1.csv", "summary.csv"]
    assert checker.identical_share(got["files"], got["files"]) == 1.0
    assert checker.identical_share({}, got["files"]) == 0.0
