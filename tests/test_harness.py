"""Training loop, sweeps, ablation grid, telescope, diagnostics."""

import dataclasses
import math
import struct
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from muonlab import harness, tasks
from muonlab.errors import ConfigError, RangeError
from muonlab.harness import (
    ABLATION_CELLS,
    ETA_TUNING_MULTIPLIERS,
    STOP_RULES,
    EvalRow,
    RunRecord,
    TelescopeGrid,
    TrainConfig,
    _log_grid,
    _stopped_at_target,
    ablate,
    batch_sweep,
    loss_spike_count,
    rate_check,
    schedule_eta,
    telescope_sweep,
    train,
)
from muonlab.linalg import Matrix, spectral_norm_estimate, svd
from muonlab.msign import msign_newton_schulz, quintic_orbit
from muonlab.optim import (AdamWState, MuonState, OptimizerSpec, adamw_step,
                           clip_global_norm, muon_step, shampoo_step_oracle)
from muonlab.tasks import MlpSpec, MlpTask, QuadraticSpec, QuadraticTask


def quad_config(**overrides):
    defaults = dict(
        task=QuadraticSpec(),
        optimizer=OptimizerSpec(kind="muon", eta0=0.02, weight_decay=0.1),
        batch_size=32,
        total_steps=100,
        eval_every=10,
        seed=0,
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


def synthetic_record(vals=None, grad_norms=None, steps=None,
                     schedule_kind="inverse-sqrt"):
    """A RunRecord with hand-chosen eval rows for the diagnostics."""
    if vals is None:
        vals = [1.0] * len(grad_norms)
    if grad_norms is None:
        grad_norms = [1.0] * len(vals)
    if steps is None:
        steps = list(range(len(vals)))
    rows = tuple(
        EvalRow(step=s, tokens_seen=s * 32, train_loss=v, val_loss=v,
                grad_global_norm=g, update_rms=0.0, eta_t=0.0, wall_ms=0.0)
        for s, v, g in zip(steps, vals, grad_norms)
    )
    config = quad_config(schedule_kind=schedule_kind,
                         warmup_fraction=0.0 if schedule_kind != "inverse-sqrt" else 0.01)
    return RunRecord(run_id="synthetic", optimizer="muon", batch_size=32,
                     rows=rows, tokens_to_target=None, terminated="completed",
                     loss_spike_count=0, final_val_loss=vals[-1],
                     state_scalar_count=0, config=config)


class TestTrainConfigValidation:
    def test_eval_grid_must_divide_total_steps(self):
        with pytest.raises(RangeError):
            quad_config(total_steps=105, eval_every=10)

    def test_tokens_to_target_needs_target(self):
        with pytest.raises(ConfigError):
            quad_config(stop_rule="tokens-to-target")

    def test_unknown_stop_rule(self):
        with pytest.raises(RangeError):
            quad_config(stop_rule="wallclock")
        assert STOP_RULES == ("fixed-steps", "tokens-to-target")

    def test_spike_ratio_must_exceed_one(self):
        with pytest.raises(RangeError):
            quad_config(spike_ratio=1.0)

    def test_resolved_run_id(self):
        cfg = quad_config(seed=3, batch_size=64)
        assert cfg.resolved_run_id == "quadratic-muon-b64-s3"
        assert quad_config(run_id="custom").resolved_run_id == "custom"


class TestTrainLoop:
    def test_bitwise_determinism(self):
        r1 = train(quad_config(seed=5))
        r2 = train(quad_config(seed=5))
        assert r1 == r2

    def test_seeds_change_the_run(self):
        r1 = train(quad_config(seed=5))
        r2 = train(quad_config(seed=6))
        assert r1.rows != r2.rows

    def test_eval_grid_and_token_bookkeeping(self):
        rec = train(quad_config(total_steps=60, eval_every=20, batch_size=16))
        assert [r.step for r in rec.rows] == [0, 20, 40, 60]
        assert [r.tokens_seen for r in rec.rows] == [0, 320, 640, 960]
        assert rec.terminated == "completed"
        assert rec.final_val_loss == rec.rows[-1].val_loss

    def test_full_batch_mode(self):
        rec = train(quad_config(full_batch=True, total_steps=40, eval_every=10))
        # full-batch still counts one batch of tokens per step
        assert rec.rows[-1].tokens_seen == 40 * 32

    def test_eta_column_follows_schedule(self):
        rec = train(quad_config(total_steps=100, eval_every=50))
        assert rec.rows[0].eta_t == 0.0  # cosine warmup starts at zero
        assert rec.rows[-1].eta_t == pytest.approx(0.0, abs=1e-12)

    def test_wall_time_zeroed_unless_requested(self):
        rec = train(quad_config())
        assert all(r.wall_ms == 0.0 for r in rec.rows)
        rec_timed = train(quad_config(record_wall_time=True))
        assert any(r.wall_ms != 0.0 for r in rec_timed.rows)

    def test_state_scalar_count_reported(self):
        rec = train(quad_config())
        assert rec.state_scalar_count == 16 * 8
        rec_adamw = train(quad_config(
            optimizer=OptimizerSpec(kind="adamw", eta0=0.01)))
        assert rec_adamw.state_scalar_count == 2 * 16 * 8

    def test_adamw_runs_and_descends(self):
        rec = train(quad_config(optimizer=OptimizerSpec(kind="adamw", eta0=0.02),
                                total_steps=200, eval_every=20))
        assert rec.rows[-1].val_loss < rec.rows[0].val_loss

    def test_target_crossing_stops_under_tokens_rule(self):
        task = QuadraticSpec()
        from muonlab.linalg import Rng
        from muonlab.tasks import QuadraticTask
        obj = QuadraticTask.generate(task, Rng(7).child("data")).optimum_loss()
        cfg = quad_config(seed=7, total_steps=2000, eval_every=10,
                          target_loss=1.1 * obj, stop_rule="tokens-to-target")
        rec = train(cfg)
        assert rec.terminated == "target-reached"
        assert rec.tokens_to_target == rec.rows[-1].tokens_seen
        # fixed-steps with the same target still records the crossing but
        # runs to completion
        rec_fixed = train(dataclasses.replace(cfg, stop_rule="fixed-steps"))
        assert rec_fixed.terminated == "completed"
        assert rec_fixed.tokens_to_target == rec.tokens_to_target
        assert rec_fixed.rows[-1].step == 2000

    def test_smoothing_locality_crossing_is_stop_independent(self):
        task = QuadraticSpec()
        from muonlab.linalg import Rng
        from muonlab.tasks import QuadraticTask
        obj = QuadraticTask.generate(task, Rng(8).child("data")).optimum_loss()
        short = train(quad_config(seed=8, total_steps=400, eval_every=10,
                                  target_loss=1.1 * obj))
        long = train(quad_config(seed=8, total_steps=800, eval_every=10,
                                 target_loss=1.1 * obj))
        assert short.tokens_to_target is not None
        assert short.tokens_to_target == long.tokens_to_target

    def test_divergence_flagged_at_eval_row(self):
        # AdamW with an absurd learning rate walks the weights outward until
        # val loss exceeds ten times its initial value.
        cfg = quad_config(optimizer=OptimizerSpec(kind="adamw", eta0=50.0),
                          total_steps=400, eval_every=10, clip_norm=1e9)
        rec = train(cfg)
        assert rec.terminated == "diverged"
        assert rec.rows[-1].val_loss > 10.0 * rec.rows[0].val_loss

    def test_divergence_nonfinite_breaks_without_row(self):
        cfg = quad_config(optimizer=OptimizerSpec(kind="adamw", eta0=1e150),
                          total_steps=100, eval_every=10, clip_norm=1e300)
        rec = train(cfg)
        assert rec.terminated == "diverged"
        assert all(math.isfinite(r.val_loss) for r in rec.rows)

    @pytest.mark.parametrize("kind, eta0", [("adamw", 1e306), ("adamw", 3e306),
                                            ("muon", 3e306)])
    def test_overflowed_eval_gradient_is_divergence(self, kind, eta0):
        # The first step leaves finite weights whose full-objective gradient
        # overflows; the eval snapshot must report that, not raise.
        cfg = quad_config(optimizer=OptimizerSpec(kind=kind, eta0=eta0),
                          total_steps=20, eval_every=1)
        rec = train(cfg)
        assert rec.terminated == "diverged"
        assert not math.isfinite(rec.rows[-1].grad_global_norm)


def _bits(value):
    """``value`` with every float swapped for its IEEE-754 bytes, so that
    ``==`` also holds between identical NaNs."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    return value


def _assert_records_identical(got, want):
    assert _bits(dataclasses.astuple(got)) == _bits(dataclasses.astuple(want))


LOCKSTEP_TASKS = {
    "quadratic": QuadraticSpec(n_rows=64, in_dim=8, out_dim=4),
    "mlp": MlpSpec(n_samples=128, input_dim=8, hidden=(16, 8), classes=4,
                   val_fraction=0.125),
}


def _target_losses(task: str, seed: int) -> tuple[float, ...]:
    """Targets crossed at step 0, mid-run, late, and never, roughly."""
    if task == "mlp":  # the initial loss is near log(4) ~ 1.39
        return (10.0, 1.3, 1.0, 0.01)
    from muonlab.linalg import Rng
    from muonlab.tasks import QuadraticTask
    obj = QuadraticTask.generate(LOCKSTEP_TASKS["quadratic"],
                                 Rng(seed).child("data")).optimum_loss()
    return (1e6 * obj, 3.0 * obj, 1.5 * obj, 0.5 * obj)


@st.composite
def lockstep_groups(draw, tasks=tuple(sorted(LOCKSTEP_TASKS))):
    """A group of configs differing only in eta0, weight decay and run id;
    some eta0 values diverge on an eval row, some overflow mid-run."""
    task = draw(st.sampled_from(tasks))
    spec = LOCKSTEP_TASKS[task]
    if draw(st.booleans()):
        spec = dataclasses.replace(spec, noise_sigma=0.5)
    seed = draw(st.integers(0, 3))
    stop_rule = draw(st.sampled_from(STOP_RULES))
    target = draw(st.sampled_from(_target_losses(task, seed))
                  if stop_rule == "tokens-to-target"
                  else st.none() | st.sampled_from(_target_losses(task, seed)))
    base = TrainConfig(
        task=spec,
        optimizer=OptimizerSpec(kind=draw(st.sampled_from(["muon", "adamw"]))),
        batch_size=draw(st.sampled_from([8, 32])), total_steps=20,
        eval_every=draw(st.sampled_from([1, 2, 5])), seed=seed,
        precision=draw(st.sampled_from(["f32", "f64"])),
        full_batch=draw(st.booleans()), target_loss=target,
        stop_rule=stop_rule, clip_norm=draw(st.sampled_from([1.0, 1e300])),
        smooth_window=draw(st.sampled_from([1, 3])))
    eta0 = st.floats(0.005, 0.2) | st.sampled_from([5.0, 1e4, 1e150, 1e306])
    runs = draw(st.lists(st.tuples(eta0, st.floats(0.0, 0.3)),
                         min_size=1, max_size=6))
    return [dataclasses.replace(
        base, run_id=f"run{i}",
        optimizer=dataclasses.replace(base.optimizer, eta0=eta, weight_decay=lam))
        for i, (eta, lam) in enumerate(runs)]


class TestLockstep:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(group=lockstep_groups())
    def test_group_records_equal_solo_records(self, group):
        records = train(group)
        assert len(records) == len(group)
        for config, record in zip(group, records):
            _assert_records_identical(record, train(config))

    def test_runs_leave_the_stack_at_different_steps(self):
        # a non-finite step before any eval row, a 10x loss rise on the
        # first eval row, two target crossings and a run that completes
        from muonlab.linalg import Rng
        from muonlab.tasks import QuadraticTask
        obj = QuadraticTask.generate(QuadraticSpec(),
                                     Rng(0).child("data")).optimum_loss()
        base = quad_config(total_steps=100, eval_every=5, target_loss=1.5 * obj,
                           stop_rule="tokens-to-target")
        etas = (1e150, 50.0, 0.2, 0.05, 0.005)
        group = [dataclasses.replace(base, run_id=f"run{i}", optimizer=dataclasses.replace(
            base.optimizer, eta0=eta)) for i, eta in enumerate(etas)]
        records = train(group)
        assert [(r.terminated, len(r.rows)) for r in records] == [
            ("diverged", 1), ("diverged", 2), ("target-reached", 7),
            ("target-reached", 13), ("completed", 21)]
        for config, record in zip(group, records):
            _assert_records_identical(record, train(config))

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    def test_counted_batches_give_each_run_its_solo_bytes(self, precision):
        # batches of 1024 draws from 64 rows take the counted pass, under
        # the regularizer and gradient noise, and one run diverges
        spec = dataclasses.replace(LOCKSTEP_TASKS["quadratic"], lambda_reg=0.3,
                                   noise_sigma=0.5)
        assert tasks._counts_draws(1024, spec.n_rows)
        base = quad_config(task=spec, batch_size=1024, total_steps=20,
                           eval_every=5, precision=precision)
        group = [dataclasses.replace(base, run_id=f"run{i}", optimizer=dataclasses.replace(
            base.optimizer, eta0=eta)) for i, eta in enumerate((1e30, 0.2, 0.05, 0.005))]
        records = train(group)
        assert [r.terminated for r in records] == ["diverged"] + ["completed"] * 3
        for config, record in zip(group, records):
            _assert_records_identical(record, train(config))

    def test_concurrent_trains_match_sequential(self, monkeypatch):
        # all of a train call's state is its own: two groups trained at once
        # on two threads get their sequential records, with the snapshots
        # of both overlapping their steps on workers
        base = quad_config(total_steps=60, eval_every=5)
        quad = [dataclasses.replace(base, run_id=f"quad{i}", optimizer=dataclasses.replace(
            base.optimizer, eta0=eta)) for i, eta in enumerate((50.0, 0.02, 0.005))]
        mlp = TestSnapshotOverlap.group((0.05, 0.005, 20.0), "f64")
        want = [train(quad), train(mlp)]
        assert "diverged" in [r.terminated for r in want[0]]
        monkeypatch.setattr(harness, "_LARGE_SNAPSHOT", 0)
        overlapped = TestSnapshotOverlap.count_overlaps(monkeypatch)
        got = [None, None]

        def run(i, group):
            got[i] = train(group)

        threads = [threading.Thread(target=run, args=(i, group))
                   for i, group in enumerate((quad, mlp))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert overlapped, "no snapshot overlapped"
        for got_group, want_group in zip(got, want):
            assert got_group is not None, "a train call raised"
            for record, solo in zip(got_group, want_group, strict=True):
                _assert_records_identical(record, solo)

    def test_group_of_one_returns_a_list(self):
        config = quad_config(total_steps=20)
        (record,) = train([config])
        assert record == train(config)

    def test_incompatible_group_rejected(self):
        with pytest.raises(ConfigError):
            train([quad_config(seed=1), quad_config(seed=2)])
        with pytest.raises(RangeError):
            train([])


class TestStackedNormPass:
    """One stacked sum of squares per step serves the finiteness check of
    the gradients and every run's pre-clip norm; the bank's update RMS is
    taken when a snapshot reads it."""

    @staticmethod
    def group(base, etas):
        return [dataclasses.replace(base, run_id=f"run{i}", optimizer=dataclasses.replace(
            base.optimizer, eta0=eta)) for i, eta in enumerate(etas)]

    def test_overflowing_squares_clip_to_zero(self, monkeypatch):
        # gradient noise near 1e200: finite entries whose squares overflow
        # the sum, so each run stays and clips to a zero gradient
        base = quad_config(task=QuadraticSpec(noise_sigma=1e200), total_steps=20,
                           eval_every=5)
        group = self.group(base, (0.02, 0.2))
        clip, seen = harness._clip_grad_arrays, []

        def spy(grads, max_norm, total=None):
            clipped, norm = clip(grads, max_norm, total)
            seen.append((norm, not any(g.any() for g in clipped.values())))
            return clipped, norm

        monkeypatch.setattr(harness, "_clip_grad_arrays", spy)
        records = train(group)
        assert len(seen) == 2 * 20
        assert all(norm == math.inf and zeroed for norm, zeroed in seen)
        assert [r.terminated for r in records] == ["completed"] * 2
        monkeypatch.undo()
        for config, record in zip(group, records):
            _assert_records_identical(record, train(config))

    def test_nan_slot_leaves_and_stack_mates_keep_solo_bytes(self, monkeypatch):
        # a NaN gradient entry in the middle slot at step 3, loss finite
        group = self.group(quad_config(total_steps=20, eval_every=5),
                           (0.02, 0.05, 0.1))
        solo = [train(config) for config in group]
        real, calls = QuadraticTask.batch_loss_grad, []

        def poisoned(task, params, idx):
            loss, grads = real(task, params, idx)
            calls.append(len(loss))
            if len(calls) == 3:
                grads["w"][1, 0, 0] = math.nan
            return loss, grads

        monkeypatch.setattr(QuadraticTask, "batch_loss_grad", poisoned)
        records = train(group)
        assert calls[:4] == [3, 3, 3, 2]
        assert [(r.terminated, len(r.rows)) for r in records] == [
            ("completed", 5), ("diverged", 1), ("completed", 5)]
        for slot in (0, 2):
            _assert_records_identical(records[slot], solo[slot])

    def test_update_rms_after_a_run_leaves_equals_solo(self):
        # a design so small that every direction is zero: the weights only
        # decay, and the middle run's weights overflow in the update of
        # step 2, an eval step, so that its snapshot reads the update RMS
        # of the stack that run left
        base = quad_config(task=QuadraticSpec(design_scale=1e-200, init_scale=1.0),
                           total_steps=4, eval_every=2)
        group = self.group(base, (0.02, 1e308, 0.05))
        records = train(group)
        assert [(r.terminated, len(r.rows)) for r in records] == [
            ("completed", 3), ("diverged", 1), ("completed", 3)]
        for slot in (0, 2):
            solo = train(group[slot])
            assert [r.update_rms for r in records[slot].rows] == \
                [r.update_rms for r in solo.rows]
            _assert_records_identical(records[slot], solo)


@st.composite
def mlp_groups(draw):
    """An MLP lockstep group; some eta0 values diverge on the first eval
    rows (eval_every 1 puts them mid-run), some overflow in a step."""
    spec = dataclasses.replace(LOCKSTEP_TASKS["mlp"],
                               activation=draw(st.sampled_from(["tanh", "relu"])))
    stop_rule = draw(st.sampled_from(STOP_RULES))
    target = draw(st.sampled_from(_target_losses("mlp", 0))
                  if stop_rule == "tokens-to-target"
                  else st.none() | st.sampled_from(_target_losses("mlp", 0)))
    base = TrainConfig(
        task=spec,
        optimizer=OptimizerSpec(kind=draw(st.sampled_from(["muon", "adamw"]))),
        batch_size=draw(st.sampled_from([8, 32])), total_steps=20,
        eval_every=draw(st.sampled_from([1, 2, 5])), seed=draw(st.integers(0, 3)),
        precision=draw(st.sampled_from(["f32", "f64"])),
        full_batch=draw(st.booleans()), target_loss=target, stop_rule=stop_rule,
        clip_norm=draw(st.sampled_from([1.0, 1e300])),
        smooth_window=draw(st.sampled_from([1, 3])))
    eta0 = st.floats(0.005, 0.5) | st.sampled_from([5.0, 8.0, 1e4, 1e150, 1e306])
    runs = draw(st.lists(st.tuples(eta0, st.floats(0.0, 0.3)),
                         min_size=1, max_size=6))
    return [dataclasses.replace(
        base, run_id=f"run{i}",
        optimizer=dataclasses.replace(base.optimizer, eta0=eta, weight_decay=lam))
        for i, (eta, lam) in enumerate(runs)]


def _val_only_view(record):
    """``record`` with the values a val-only snapshot does not measure
    blanked out."""
    return dataclasses.replace(record, rows=tuple(
        dataclasses.replace(r, train_loss=None, grad_global_norm=None)
        for r in record.rows))


class TestValOnlySnapshots:
    @settings(max_examples=90, deadline=None, derandomize=True)
    @given(group=mlp_groups() | lockstep_groups(tasks=("quadratic",)))
    def test_val_only_records_equal_full_records(self, group):
        val_only = train(group, val_only=True)
        for got, full in zip(val_only, train(group)):
            assert all(r.train_loss is None and r.grad_global_norm is None
                       for r in got.rows)
            _assert_records_identical(got, _val_only_view(full))

    def test_runs_leave_at_different_steps(self):
        # two runs overflow or blow up early, one crosses the target, one
        # completes; each activation and precision
        for activation in ("tanh", "relu"):
            for precision in ("f32", "f64"):
                base = TrainConfig(
                    task=dataclasses.replace(LOCKSTEP_TASKS["mlp"],
                                             activation=activation),
                    optimizer=OptimizerSpec(kind="adamw"), batch_size=8,
                    total_steps=40, eval_every=1, seed=1, precision=precision,
                    target_loss=1.0, stop_rule="tokens-to-target")
                group = [dataclasses.replace(
                    base, run_id=f"run{i}",
                    optimizer=dataclasses.replace(base.optimizer, eta0=eta))
                    for i, eta in enumerate((1e306, 20.0, 0.05, 0.005))]
                val_only = train(group, val_only=True)
                assert [r.terminated for r in val_only] == [
                    "diverged", "diverged", "target-reached", "completed"]
                for got, full in zip(val_only, train(group)):
                    _assert_records_identical(got, _val_only_view(full))

    def test_only_the_telescope_asks_for_val_only(self, monkeypatch):
        asked = []
        real_train = harness.train

        def recording_train(configs, **kwargs):
            asked.append(kwargs)
            return real_train(configs, **kwargs)

        monkeypatch.setattr(harness, "train", recording_train)
        grid = TelescopeGrid(eta_center=0.05, lambda_center=0.1, points=2)
        telescope_sweep(dataclasses.replace(TestTelescope().base(), total_steps=20),
                        16, 32, grid)
        assert asked == [{"val_only": True}] * 2
        asked.clear()
        ablate(TestAblation().base(total_steps=20), axes=("full", "batch-4x"))
        batch_sweep(dataclasses.replace(TestBatchSweep().small_base(),
                                        total_steps=20), (32,))
        assert asked == [{"val_only": False}] * 4


class TestSnapshotOverlap:
    """Where `train` hands its large full snapshots to a worker thread
    while the stack trains on (2 usable CPUs), every record is the bytes
    of the inline path, which one usable CPU selects, and of the stacked
    pass that small snapshots take. The small groups here count as large
    with `_LARGE_SNAPSHOT` lowered to 0."""

    BIG_ETA = {"f64": 1e150, "f32": 1e20}  # non-finite at step 2 with relu

    @staticmethod
    def group(etas, precision, activation="tanh", **overrides):
        fields = dict(
            task=dataclasses.replace(LOCKSTEP_TASKS["mlp"], activation=activation),
            optimizer=OptimizerSpec(kind="adamw"), batch_size=8, total_steps=40,
            eval_every=2, seed=1, precision=precision, clip_norm=1e300)
        base = TrainConfig(**{**fields, **overrides})
        return [dataclasses.replace(
            base, run_id=f"run{i}",
            optimizer=dataclasses.replace(base.optimizer, eta0=eta))
            for i, eta in enumerate(etas)]

    @staticmethod
    def count_overlaps(monkeypatch, cpus=(0, 1), quota=None) -> list[int]:
        """Present ``cpus`` and a cgroup ``quota`` to the gate; returns the
        list that the steps of overlapped snapshots are appended to."""
        overlapped = []

        class Counted(harness._Snapshot):
            def __init__(self, measure, step, *args):
                overlapped.append(step)
                super().__init__(measure, step, *args)

        monkeypatch.setattr(harness, "_Snapshot", Counted)
        monkeypatch.setattr(harness.os, "sched_getaffinity",
                            lambda pid: set(cpus), raising=False)
        monkeypatch.setattr(harness, "_cpu_quota", lambda: quota)
        return overlapped

    @classmethod
    def train_both(cls, monkeypatch, group):
        """The records of ``group`` trained with its snapshots overlapped,
        after asserting that they equal those of the inline path, run by
        run and stacked. The overlapped run switches threads every 10 us,
        so that a worker reading an array the training thread still
        changes would show."""
        monkeypatch.setattr(harness, "_LARGE_SNAPSHOT", 0)
        overlapped = cls.count_overlaps(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            records = train(group)
        finally:
            sys.setswitchinterval(interval)
        assert overlapped, "no snapshot overlapped"
        count = len(overlapped)
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        inline = train(group)
        monkeypatch.setattr(harness, "_LARGE_SNAPSHOT", math.inf)
        stacked = train(group)
        assert len(overlapped) == count, "one CPU overlapped a snapshot"
        for got, by_run, want in zip(records, inline, stacked):
            _assert_records_identical(got, want)
            _assert_records_identical(by_run, want)
        return records

    @pytest.mark.parametrize("precision", ["f64", "f32"])
    def test_divergence_at_an_eval_and_at_a_pending_step(self, monkeypatch,
                                                         precision):
        # run0's step-1 snapshot ends it, and it goes non-finite at step 2
        # before that snapshot is settled; run1 blows up on its first eval
        # row while the other two train on
        finite_steps = []
        real = MlpTask.batch_loss_grad

        def recording(task, params, idx):
            loss, grads = real(task, params, idx)
            finite_steps.append(bool(np.isfinite(loss).all()))
            return loss, grads

        monkeypatch.setattr(MlpTask, "batch_loss_grad", recording)
        group = self.group((self.BIG_ETA[precision], 20.0, 0.05, 0.005), precision,
                           activation="relu", eval_every=1)
        records = self.train_both(monkeypatch, group)
        assert [(r.terminated, len(r.rows)) for r in records] == [
            ("diverged", 2), ("diverged", 2), ("completed", 41), ("completed", 41)]
        assert records[1].rows[-1].val_loss > 10.0 * records[1].rows[0].val_loss
        assert finite_steps[1] is False  # the overlapped path's step 2

    @pytest.mark.parametrize("precision", ["f64", "f32"])
    def test_target_stop(self, monkeypatch, precision):
        group = self.group((0.05, 0.005, 20.0), precision, target_loss=1.0,
                           stop_rule="tokens-to-target")
        records = self.train_both(monkeypatch, group)
        assert [r.terminated for r in records] == [
            "target-reached", "completed", "diverged"]
        assert records[0].tokens_to_target == records[0].rows[-1].tokens_seen

    @pytest.mark.parametrize("precision", ["f64", "f32"])
    @pytest.mark.parametrize("etas, terminated", [
        ((0.05, 0.05, 0.05), "target-reached"), ((20.0, 50.0), "diverged")])
    def test_every_run_ends_at_one_eval(self, monkeypatch, precision, etas,
                                        terminated):
        group = self.group(etas, precision, target_loss=1.0,
                           stop_rule="tokens-to-target")
        records = self.train_both(monkeypatch, group)
        assert {(r.terminated, r.rows[-1].step) for r in records} == {
            (terminated, records[0].rows[-1].step)}
        assert records[0].rows[-1].step < 40

    def test_no_thread_outlives_train(self, monkeypatch):
        monkeypatch.setattr(harness, "_LARGE_SNAPSHOT", 0)
        overlapped = self.count_overlaps(monkeypatch)
        group = self.group((0.05, 0.005), "f64")
        before = threading.active_count()
        train(group)
        assert overlapped
        assert threading.active_count() == before
        real = MlpTask.evaluate

        def failing(task, params):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("snapshot failed")
            return real(task, params)

        monkeypatch.setattr(MlpTask, "evaluate", failing)
        with pytest.raises(RuntimeError, match="snapshot failed"):
            train(group)
        assert threading.active_count() == before
        # A step that raises while a snapshot is still pending: the worker
        # is joined before the step's error leaves train.
        started = threading.Event()

        def slow(task, params):
            if threading.current_thread() is not threading.main_thread():
                started.set()
                time.sleep(0.3)
            return real(task, params)

        real_step = MlpTask.batch_loss_grad

        def failing_step(task, params, idx):
            if started.is_set():
                raise RuntimeError("step failed")
            return real_step(task, params, idx)

        monkeypatch.setattr(MlpTask, "evaluate", slow)
        monkeypatch.setattr(MlpTask, "batch_loss_grad", failing_step)
        with pytest.raises(RuntimeError, match="step failed"):
            train(group)
        assert threading.active_count() == before

    @pytest.mark.parametrize("config", [
        quad_config(batch_size=8),  # the ablation's batch-quarter cell
        TrainConfig(task=MlpSpec(n_samples=512, input_dim=16, hidden=(32, 32),
                                 classes=4),
                    optimizer=OptimizerSpec(kind="muon"), batch_size=16,
                    total_steps=20, eval_every=10)])
    def test_small_snapshots_stay_inline(self, monkeypatch, config):
        # 230 x 128 and 461 x 1,732 multiply-adds: overlapping such
        # snapshots made their runs slower
        overlapped = self.count_overlaps(monkeypatch)
        train(config)
        assert overlapped == []

    @pytest.mark.parametrize("cpus, quota, overlaps", [
        ((0, 1), None, True), ((0,), None, False), ((0, 1), 1.0, False),
        ((0, 1), 1.5, True), ((0, 1, 2, 3), 0.5, False)])
    def test_gate_reads_affinity_and_cgroup_quota(self, monkeypatch, cpus,
                                                  quota, overlaps):
        monkeypatch.setattr(harness, "_LARGE_SNAPSHOT", 0)
        overlapped = self.count_overlaps(monkeypatch, cpus, quota)
        train(self.group((0.05,), "f64", total_steps=4))
        assert bool(overlapped) is overlaps

    @pytest.mark.parametrize("files, quota", [
        ({"cpu.max": "max 100000\n"}, None),
        ({"cpu.max": "150000 100000\n"}, 1.5),
        ({"cpu/cpu.cfs_quota_us": "-1\n", "cpu/cpu.cfs_period_us": "100000\n"},
         None),
        ({"cpu/cpu.cfs_quota_us": "50000\n", "cpu/cpu.cfs_period_us": "100000\n"},
         0.5),
        ({}, None)])
    def test_cpu_quota_v1_and_v2(self, tmp_path, files, quota):
        for name, text in files.items():
            (tmp_path / name).parent.mkdir(exist_ok=True)
            (tmp_path / name).write_text(text)
        assert harness._cpu_quota(str(tmp_path)) == quota


class TestErrorScope:
    """`train` takes its steps' float errors in one scope of its own, so a
    caller's `np.errstate` changes no record and comes back as it was."""

    @staticmethod
    def train_under_raise(group):
        outside = np.geterr()
        with np.errstate(all="raise"):
            inside = np.geterr()
            records = train(group)
            assert np.geterr() == inside
        assert np.geterr() == outside
        return records

    def test_quadratic_group_with_a_diverging_run(self):
        # in f32 the diverging run's optimizer step overflows
        base = quad_config(task=LOCKSTEP_TASKS["quadratic"], batch_size=8,
                           total_steps=40, eval_every=5, precision="f32")
        group = [dataclasses.replace(base, run_id=f"run{i}", optimizer=dataclasses.replace(
            base.optimizer, eta0=eta)) for i, eta in enumerate((1e30, 0.2, 0.05))]
        records = self.train_under_raise(group)
        assert [r.terminated for r in records] == ["diverged", "completed", "completed"]
        for got, want in zip(records, train(group)):
            _assert_records_identical(got, want)

    @pytest.mark.parametrize("precision", ["f64", "f32"])
    def test_mlp_group_with_overlapped_snapshots(self, monkeypatch, precision):
        monkeypatch.setattr(harness, "_LARGE_SNAPSHOT", 0)
        overlapped = TestSnapshotOverlap.count_overlaps(monkeypatch)
        group = TestSnapshotOverlap.group(
            (TestSnapshotOverlap.BIG_ETA[precision], 20.0, 0.05), precision,
            activation="relu", eval_every=1)
        records = self.train_under_raise(group)
        assert overlapped, "no snapshot overlapped"
        assert [r.terminated for r in records] == ["diverged", "diverged", "completed"]
        for got, want in zip(records, train(group)):
            _assert_records_identical(got, want)


_EYE = Matrix.identity(2)

# (argument, call with NaN for it) for each float argument of the library
# API outside the config specs.
NAN_ARGUMENTS = {
    "loss_spike_count": ("spike_ratio", lambda: loss_spike_count(
        synthetic_record(vals=[1.0, 2.0]), math.nan)),
    "clip_global_norm": ("max_norm", lambda: clip_global_norm([_EYE], math.nan)),
    "muon_step": ("eta_t", lambda: muon_step(
        _EYE, _EYE, MuonState.fresh(2, 2), OptimizerSpec(), math.nan)),
    "adamw_step-eta_t": ("eta_t", lambda: adamw_step(
        _EYE, _EYE, AdamWState.fresh(2, 2), OptimizerSpec(), math.nan)),
    "shampoo_step_oracle": ("eta_t", lambda: shampoo_step_oracle(_EYE, _EYE, math.nan)),
    "svd": ("rank_tol", lambda: svd(_EYE, math.nan)),
}


@pytest.mark.parametrize("call", NAN_ARGUMENTS)
def test_nan_argument_is_named(call):
    """NaN fails every range check of the library API, which names the
    argument, as every config field's does."""
    argument, fn = NAN_ARGUMENTS[call]
    with pytest.raises(RangeError) as exc:
        fn()
    assert exc.value.key_path == argument


# (argument, call with it out of range) for the integer arguments of the
# library API outside the config specs.
RANGE_ARGUMENTS = {
    "msign_newton_schulz": ("k", lambda: msign_newton_schulz(_EYE, k=0)),
    "quintic_orbit": ("k", lambda: quintic_orbit(0.5, k=-1)),
    "spectral_norm_estimate": ("iters", lambda: spectral_norm_estimate(_EYE, 0)),
    "schedule_eta": ("step", lambda: schedule_eta(quad_config(), 101)),
    "AdamWState": ("step_count", lambda: AdamWState(
        m=_EYE, v=_EYE, step_count=-1)),
}


@pytest.mark.parametrize("call", RANGE_ARGUMENTS)
def test_out_of_range_argument_is_named(call):
    argument, fn = RANGE_ARGUMENTS[call]
    with pytest.raises(RangeError) as exc:
        fn()
    assert exc.value.key_path == argument


class TestDiagnostics:
    def test_spike_hand_sequence(self):
        rec = synthetic_record(vals=[3.0, 2.0, 2.6, 1.9])
        assert loss_spike_count(rec, 1.25) == 1

    def test_spike_monotone_and_constant(self):
        assert loss_spike_count(synthetic_record(vals=[5.0, 4.0, 3.0, 2.0])) == 0
        assert loss_spike_count(synthetic_record(vals=[2.0, 2.0, 2.0])) == 0

    def test_spike_ratio_validation(self):
        rec = synthetic_record(vals=[1.0, 2.0])
        with pytest.raises(RangeError):
            loss_spike_count(rec, 1.0)

    def test_spike_counts_match_train_field(self):
        rec = train(quad_config(seed=9, total_steps=200, eval_every=10))
        assert rec.loss_spike_count == loss_spike_count(rec, 1.25)

    def test_rate_check_exact_inverse_law(self):
        # grad norms chosen so the running mean of g^2 is exactly 1/step
        steps = list(range(1, 41))
        grads = [1.0] + [0.0] * 39
        rec = synthetic_record(grad_norms=grads, steps=steps)
        assert rate_check(rec) == pytest.approx(-1.0, abs=1e-9)

    def test_rate_check_flat_on_constant_gradient(self):
        steps = list(range(1, 41))
        rec = synthetic_record(grad_norms=[2.0] * 40, steps=steps)
        assert abs(rate_check(rec)) < 1e-12

    def test_rate_check_requires_inverse_sqrt(self):
        rec = synthetic_record(grad_norms=[1.0] * 40,
                               steps=list(range(1, 41)),
                               schedule_kind="cosine-with-linear-warmup")
        with pytest.raises(RangeError):
            rate_check(rec)

    def test_rate_check_rejects_val_only_rows(self):
        # a 200-step inverse-sqrt MLP run with val-only snapshots has no
        # gradient norms to fit
        config = TrainConfig(
            task=LOCKSTEP_TASKS["mlp"], optimizer=OptimizerSpec(eta0=0.05),
            batch_size=8, total_steps=200, eval_every=5,
            schedule_kind="inverse-sqrt")
        (record,) = train([config], val_only=True)
        with pytest.raises(RangeError, match="grad_global_norm"):
            rate_check(record)
        assert math.isfinite(rate_check(train(config)))

    def test_rate_check_requires_enough_rows(self):
        rec = synthetic_record(grad_norms=[1.0] * 5, steps=list(range(1, 6)))
        with pytest.raises(RangeError):
            rate_check(rec)


def _record_trained(monkeypatch) -> dict:
    """Have `harness.train` file each record it returns under its run id,
    in the dict returned."""
    trained = {}
    real_train = harness.train

    def recording_train(configs, **kwargs):
        records = real_train(configs, **kwargs)
        trained.update((r.run_id, r) for r in records)
        return records

    monkeypatch.setattr(harness, "train", recording_train)
    return trained


class TestBatchSweep:
    def small_base(self):
        from muonlab.linalg import Rng
        from muonlab.tasks import QuadraticTask
        spec = QuadraticSpec()
        obj = QuadraticTask.generate(spec, Rng(42).child("data")).optimum_loss()
        return quad_config(seed=42, total_steps=400, eval_every=10,
                           target_loss=1.1 * obj, stop_rule="tokens-to-target")

    def test_structure_and_ratios(self):
        res = batch_sweep(self.small_base(), (32, 128))
        assert res.batch_grid == (32, 128)
        assert len(res.cells) == 4
        kinds = {(c.batch_size, c.optimizer) for c in res.cells}
        assert kinds == {(32, "muon"), (32, "adamw"), (128, "muon"),
                         (128, "adamw")}
        by_key = {(c.batch_size, c.optimizer): c for c in res.cells}
        for b in (32, 128):
            mu = by_key[(b, "muon")].tokens_to_target
            ad = by_key[(b, "adamw")].tokens_to_target
            if mu is not None and ad is not None:
                assert res.ratios[b] == ad / mu
        assert set(res.records) == {c.run_id for c in res.cells}

    def test_trains_five_runs_per_cell(self, monkeypatch):
        # each cell's measured run is cut from its winning tuning run, and
        # a cell's tuning runs train as one lockstep group
        groups = []
        real_train = harness.train

        def counting_train(configs, **kwargs):
            groups.append([c.run_id for c in configs])
            return real_train(configs, **kwargs)

        monkeypatch.setattr(harness, "train", counting_train)
        res = batch_sweep(self.small_base(), (32, 128))
        calls = [run_id for group in groups for run_id in group]
        assert len(calls) == 4 * len(ETA_TUNING_MULTIPLIERS) == 20
        assert all(run_id.startswith("tune-") for run_id in calls)
        assert [len(group) for group in groups] == [5] * 4
        assert set(res.records) == {"muon-b32", "adamw-b32", "muon-b128",
                                    "adamw-b128"}

    def test_diverged_tuning_run_does_not_win(self, monkeypatch):
        # Gradient noise swamps the signal, so the runs that finish end
        # above their initial loss. At 4x eta0 the decay factor
        # 1 - eta * lambda grows the weights until they overflow before the
        # first eval row, so that run keeps only its step-0 row, whose loss
        # undercuts every finished run. No run crosses the target.
        trained = _record_trained(monkeypatch)
        base = quad_config(task=QuadraticSpec(noise_sigma=1e6),
                           optimizer=OptimizerSpec(kind="muon", eta0=3.0,
                                                   weight_decay=1.0),
                           total_steps=400, eval_every=400, target_loss=1e-9)
        res = batch_sweep(base, (32,))
        for cell in res.cells:
            runs = [trained[f"tune-{cell.optimizer}-b32-x{mult}"]
                    for mult in ETA_TUNING_MULTIPLIERS]
            assert all(r.tokens_to_target is None for r in runs)
            early = [r for r in runs
                     if r.terminated == "diverged" and len(r.rows) == 1]
            finished = [r for r in runs if r.terminated != "diverged"]
            assert early and finished
            best = min(finished, key=lambda r: r.final_val_loss)
            assert early[0].final_val_loss < best.final_val_loss
            assert cell.eta0 == best.config.optimizer.eta0
            assert cell.terminated == "completed"

    def test_tuning_multipliers_span_sixteenfold(self):
        assert ETA_TUNING_MULTIPLIERS == (0.25, 0.5, 1.0, 2.0, 4.0)

    def test_requires_target(self):
        cfg = quad_config(seed=1)
        with pytest.raises(ConfigError):
            batch_sweep(cfg, (32,))

    def test_rejects_empty_or_bad_grid(self):
        with pytest.raises(RangeError):
            batch_sweep(self.small_base(), ())
        with pytest.raises(RangeError):
            batch_sweep(self.small_base(), (0,))
        with pytest.raises(RangeError):
            batch_sweep(self.small_base(), (32, 32))


def _mlp_f32_config(**overrides):
    spec = MlpSpec(n_samples=256, input_dim=8, hidden=(16,), classes=4,
                   val_fraction=0.125)
    defaults = dict(task=spec, batch_size=32, total_steps=100, eval_every=10,
                    seed=42, precision="f32",
                    optimizer=OptimizerSpec(kind="muon", eta0=0.05,
                                            weight_decay=0.1))
    defaults.update(overrides)
    return TrainConfig(**defaults)


def _quad_f64_config(target_factor, **overrides):
    from muonlab.linalg import Rng
    from muonlab.tasks import QuadraticTask
    obj = QuadraticTask.generate(QuadraticSpec(),
                                 Rng(0).child("data")).optimum_loss()
    return quad_config(total_steps=400, target_loss=target_factor * obj,
                       **overrides)


# name: (fixed-step config, where its smoothed val loss crosses the target;
#        "completed" and "diverged" mean it never does)
MEASURED_RUN_CASES = {
    "quadratic-mid-run": (lambda: _quad_f64_config(1.1), "mid-run"),
    "quadratic-step-0": (lambda: _quad_f64_config(1e6), "step-0"),
    "quadratic-never": (lambda: _quad_f64_config(0.5), "completed"),
    "quadratic-diverged": (lambda: _quad_f64_config(
        1.1, optimizer=OptimizerSpec(kind="muon", eta0=100.0)), "diverged"),
    "mlp-mid-run": (lambda: _mlp_f32_config(
        target_loss=0.6, optimizer=OptimizerSpec(kind="adamw", eta0=0.2)),
        "mid-run"),
    "mlp-step-0": (lambda: _mlp_f32_config(target_loss=10.0), "step-0"),
    "mlp-never": (lambda: _mlp_f32_config(target_loss=0.01), "completed"),
    "mlp-diverged": (lambda: _mlp_f32_config(
        target_loss=0.6, optimizer=OptimizerSpec(kind="adamw", eta0=50.0)),
        "diverged"),
}


@pytest.mark.parametrize("case", sorted(MEASURED_RUN_CASES))
def test_measured_run_cut_equals_retrained_run(case):
    build, crossing = MEASURED_RUN_CASES[case]
    tuning = train(build())
    derived = _stopped_at_target(tuning, "measured")
    retrained = train(dataclasses.replace(
        tuning.config, stop_rule="tokens-to-target", run_id="measured"))
    assert derived == retrained
    crossed = tuning.tokens_to_target
    if crossing == "mid-run":
        assert 0 < crossed < tuning.rows[-1].tokens_seen
        assert derived.terminated == "target-reached"
    elif crossing == "step-0":
        assert crossed == 0 and len(derived.rows) == 1
        assert derived.terminated == "target-reached"
    else:
        assert crossed is None
        assert derived.terminated == tuning.terminated == crossing
    if case == "mlp-mid-run":
        # the spikes after the crossing drop out of the cut record
        assert 0 < derived.loss_spike_count < tuning.loss_spike_count


class TestAblation:
    BASE_SPEC = QuadraticSpec(n_rows=8, in_dim=16, out_dim=8, lambda_reg=0.1,
                              reg_in_gradient=False, target_noise=0.5,
                              init_scale=1.0)

    def base(self, total_steps=300):
        from muonlab.linalg import Rng
        from muonlab.tasks import QuadraticTask
        obj = QuadraticTask.generate(self.BASE_SPEC,
                                     Rng(42).child("data")).optimum_loss()
        return TrainConfig(task=self.BASE_SPEC,
                           optimizer=OptimizerSpec(kind="muon", eta0=0.05,
                                                   weight_decay=0.1),
                           batch_size=32, total_steps=total_steps,
                           eval_every=10, seed=42, target_loss=2.0 * obj)

    def test_cell_roster(self):
        assert ABLATION_CELLS == (
            "full", "momentum-only", "newton-schulz-k3", "newton-schulz-k10",
            "taylor-coefficients", "no-weight-decay", "no-rms-matching",
            "dynamic-rms", "batch-quarter", "batch-1x", "batch-4x")

    def test_full_grid_shape(self):
        table = ablate(self.base())
        assert [c.name for c in table.cells] == list(ABLATION_CELLS)
        assert all(c.terminated in ("completed", "target-reached", "diverged")
                   for c in table.cells)
        assert {c.run_id for c in table.cells} == \
            {f"ablate-{name}" for name in ABLATION_CELLS}

    def test_unit_batch_cell_duplicates_full(self):
        # the 1x batch cell is the full configuration re-run under another
        # name; identical rows double as a determinism check
        table = ablate(self.base(), axes=("full", "batch-1x"))
        full = table.records["ablate-full"]
        unit = table.records["ablate-batch-1x"]
        assert full.rows == unit.rows

    def test_batch_cells_scale_batch(self):
        table = ablate(self.base(), axes=("batch-quarter", "batch-4x"))
        by_name = {c.name: c for c in table.cells}
        assert by_name["batch-quarter"].batch_size == 8
        assert by_name["batch-4x"].batch_size == 128

    def test_weight_decay_coupling_orders_finals(self):
        # the objective charges for null-space weight left behind when the
        # decay is switched off, so the no-decay final cannot beat the full
        # configuration
        table = ablate(self.base(total_steps=600),
                       axes=("full", "no-weight-decay"))
        by_name = {c.name: c for c in table.cells}
        assert by_name["no-weight-decay"].final_val_loss >= \
            by_name["full"].final_val_loss

    def test_state_scalars_constant_across_muon_cells(self):
        table = ablate(self.base(), axes=("full", "newton-schulz-k3",
                                          "no-rms-matching"))
        counts = {c.state_scalar_count for c in table.cells}
        assert counts == {16 * 8}

    def test_requires_muon_and_target(self):
        cfg = dataclasses.replace(self.base(),
                                  optimizer=OptimizerSpec(kind="adamw", eta0=0.01))
        with pytest.raises(ConfigError):
            ablate(cfg)
        with pytest.raises(ConfigError):
            ablate(dataclasses.replace(self.base(), target_loss=None))

    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigError):
            ablate(self.base(), axes=("full", "half-precision"))
        with pytest.raises(ConfigError):
            ablate(self.base(), axes=("full", "batch-1x", "full"))


class TestTelescope:
    def base(self):
        spec = MlpSpec(n_samples=256, input_dim=8, hidden=(16,), classes=4,
                       val_fraction=0.125)
        return TrainConfig(task=spec,
                           optimizer=OptimizerSpec(kind="muon", eta0=0.05,
                                                   weight_decay=0.1),
                           batch_size=32, total_steps=60, eval_every=10,
                           seed=42)

    def test_log_grid(self):
        pts = _log_grid(1.0, 0.5, 3)
        np.testing.assert_allclose(pts, [10**-0.5, 1.0, 10**0.5], rtol=1e-12)
        assert _log_grid(2.0, 0.0, 1) == (2.0,)

    def test_stage_structure(self):
        grid = TelescopeGrid(eta_center=0.05, lambda_center=0.1, points=3)
        res = telescope_sweep(self.base(), 16, 64, grid)
        assert [st.width for st in res.stages] == [16, 32, 64]
        # extent halves per stage: the eta span ratio shrinks quadratically
        span0 = res.stages[0].etas[-1] / res.stages[0].etas[0]
        span1 = res.stages[1].etas[-1] / res.stages[1].etas[0]
        assert span1 == pytest.approx(math.sqrt(span0), rel=1e-9)
        for st in res.stages:
            assert st.best_eta in st.etas
            assert st.best_lambda in st.lambdas
            flat = [v for row in st.val_losses for v in row]
            assert st.best_val_loss == min(flat)

    def test_winners_transfer_within_one_grid_cell(self):
        # the telescoping bet: each stage's winner lies at most one grid
        # step (in log space) from the previous stage's winner
        grid = TelescopeGrid(eta_center=0.05, lambda_center=0.1, points=3)
        base = dataclasses.replace(self.base(), total_steps=100)
        res = telescope_sweep(base, 16, 64, grid)
        for idx, (prev, cur) in enumerate(zip(res.stages, res.stages[1:]),
                                          start=1):
            spacing = grid.eta_extent * 0.5 ** idx
            assert abs(math.log10(cur.best_eta / prev.best_eta)) <= \
                spacing + 1e-9
            assert abs(math.log10(cur.best_lambda / prev.best_lambda)) <= \
                spacing + 1e-9

    def test_centers_recenter_on_previous_best(self):
        grid = TelescopeGrid(eta_center=0.05, lambda_center=0.1, points=3)
        res = telescope_sweep(self.base(), 16, 32, grid)
        st0, st1 = res.stages
        assert st1.etas[1] == pytest.approx(st0.best_eta, rel=1e-12)
        assert st1.lambdas[1] == pytest.approx(st0.best_lambda, rel=1e-12)

    def test_diverged_runs_rank_as_inf(self, monkeypatch):
        # In f32, weight decays of 1e5 and up make 1 - eta * lambda so large
        # that the weights overflow before the first eval row: such a run
        # keeps only its step-0 row, whose loss must not stand for it.
        trained = _record_trained(monkeypatch)
        grid = TelescopeGrid(eta_center=0.05, lambda_center=1e10,
                             eta_extent=0.25, lambda_extent=10.0, points=3)
        res = telescope_sweep(dataclasses.replace(self.base(), precision="f32"),
                              16, 32, grid)
        early = 0
        for stage in res.stages:
            finished = []
            for eta, losses in zip(stage.etas, stage.val_losses):
                for lam, loss in zip(stage.lambdas, losses):
                    rec = trained[f"telescope-w{stage.width}-eta{eta:.6g}"
                                  f"-lam{lam:.6g}"]
                    if rec.terminated == "diverged":
                        early += len(rec.rows) == 1
                        assert loss == math.inf
                    else:
                        assert loss == rec.final_val_loss
                        finished.append(loss)
            assert finished and stage.best_val_loss == min(finished)
        assert early == 9  # six cells of stage 0, three of stage 1

    def test_width_validation(self):
        grid = TelescopeGrid(eta_center=0.05, lambda_center=0.1)
        with pytest.raises(RangeError):
            telescope_sweep(self.base(), 16, 16, grid)
        with pytest.raises(RangeError):
            telescope_sweep(self.base(), 16, 48, grid)
        with pytest.raises(RangeError):
            telescope_sweep(self.base(), 1, 2, grid)

    def test_unreachable_grid_rejected_at_its_extent(self):
        # 400 decades: the first grid already reaches 0 and inf; the search
        # rejects the extent before any run, and without a warning
        grid = TelescopeGrid(eta_center=0.05, lambda_center=0.1, eta_extent=400)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RangeError) as exc:
                telescope_sweep(self.base(), 8, 16, grid)
        assert exc.value.key_path == "eta_extent"

    def test_requires_mlp_task(self):
        cfg = quad_config()
        grid = TelescopeGrid(eta_center=0.05, lambda_center=0.1)
        with pytest.raises(ConfigError):
            telescope_sweep(cfg, 16, 32, grid)
