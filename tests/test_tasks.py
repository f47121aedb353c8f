"""Synthetic tasks: closed-form quadratic, MLP classifier, gradient checks."""

import math
import typing

import numpy as np
import pytest

from muonlab import config, tasks
from muonlab.errors import ConfigError, DegenerateInputError, RangeError, ShapeError
from muonlab.linalg import Matrix, Rng
from muonlab.tasks import (
    _TASK_OF,
    GradCheckReport,
    MlpSpec,
    MlpTask,
    QuadraticSpec,
    QuadraticTask,
    TaskSpec,
    _Task,
    build_task,
    grad_check,
)


def make_quadratic(seed=0, **kwargs):
    spec = QuadraticSpec(**kwargs)
    return QuadraticTask.generate(spec, Rng(seed).child("data"))


def make_mlp(seed=0, **kwargs):
    defaults = dict(n_samples=256, input_dim=8, hidden=(16,), classes=4)
    defaults.update(kwargs)
    spec = MlpSpec(**defaults)
    return MlpTask.generate(spec, Rng(seed).child("data"))


class TestQuadraticSpec:
    def test_validation(self):
        with pytest.raises(RangeError):
            QuadraticSpec(n_rows=0)
        with pytest.raises(RangeError):
            QuadraticSpec(lambda_reg=-1.0)
        with pytest.raises(RangeError):
            QuadraticSpec(design_scale=0.0)
        with pytest.raises(RangeError):
            QuadraticSpec(init_scale=-0.1)
        with pytest.raises(ConfigError):
            QuadraticSpec(kind="mlp")


class TestQuadraticClosedForm:
    def test_minimizer_zeroes_the_gradient(self):
        task = make_quadratic(seed=1, lambda_reg=0.3)
        w_star = task.minimizer()
        _, grad = task.loss_grad(w_star)
        assert np.linalg.norm(grad.a) < 1e-8

    def test_identity_design_hand_solution(self):
        # A = I: the ridge solution is B / (1 + lambda).
        b = Rng(2).normal((5, 3))
        task = QuadraticTask(a=Matrix.identity(5), b=Matrix(b),
                             spec=QuadraticSpec(n_rows=5, in_dim=5, out_dim=3,
                                                lambda_reg=0.5))
        np.testing.assert_allclose(task.minimizer().a, b / 1.5, atol=1e-12)
        # optimum by hand: 0.5*||B - B/1.5||^2 + 0.25*||B/1.5||^2
        resid = b - b / 1.5
        want = 0.5 * float(np.sum(resid**2)) + 0.25 * float(np.sum((b / 1.5) ** 2))
        assert task.optimum_loss() == pytest.approx(want, rel=1e-12)

    def test_optimum_dominates_random_points(self):
        task = make_quadratic(seed=3, lambda_reg=0.1)
        best = task.optimum_loss()
        w_star = task.minimizer()
        for seed in range(5):
            w = Matrix(w_star.a + Rng(seed).normal(w_star.shape, scale=0.1))
            loss, _ = task.loss_grad(w)
            assert loss >= best

    def test_unregularized_needs_full_column_rank(self):
        task = make_quadratic(seed=4, n_rows=8, in_dim=16, lambda_reg=0.0)
        with pytest.raises(DegenerateInputError):
            task.minimizer()

    def test_ridge_handles_wide_design(self):
        task = make_quadratic(seed=5, n_rows=8, in_dim=16, lambda_reg=0.1)
        w_star = task.minimizer()
        _, grad = task.loss_grad(w_star)
        assert np.linalg.norm(grad.a) < 1e-8

    def test_loss_grad_shape_check(self):
        task = make_quadratic(seed=6)
        with pytest.raises(ShapeError):
            task.loss_grad(Matrix.zeros(3, 3))

    @pytest.mark.parametrize("a_shape, b_shape", [((4, 5), (5, 3)),
                                                  ((5, 4), (5, 3)),
                                                  ((5, 5), (5, 2))])
    def test_data_must_have_the_spec_shape(self, a_shape, b_shape):
        # The spec a task holds is true of its data: 5 rows, in 5, out 3.
        spec = QuadraticSpec(n_rows=5, in_dim=5, out_dim=3)
        with pytest.raises(ShapeError):
            QuadraticTask(a=Matrix.zeros(*a_shape), b=Matrix.zeros(*b_shape),
                          spec=spec)


class TestQuadraticBatches:
    def test_full_index_matches_objective(self):
        task = make_quadratic(seed=7, lambda_reg=0.2)
        params = {"w": Rng(8).normal((task.a.cols, task.b.cols))}
        loss_full, grads_full = task.batch_loss_grad(params, None)
        loss_obj, grad_obj = task.loss_grad(Matrix(params["w"]))
        assert loss_full == pytest.approx(loss_obj, rel=1e-12)
        np.testing.assert_allclose(grads_full["w"], grad_obj.a, atol=1e-10)

    def test_batch_is_unbiased_over_all_rows(self):
        task = make_quadratic(seed=9)
        params = {"w": Rng(10).normal((task.a.cols, task.b.cols))}
        full_loss, full_grads = task.batch_loss_grad(params, None)
        accum_loss = 0.0
        accum_grad = np.zeros_like(params["w"])
        for i in range(task.n_train):
            loss_i, grads_i = task.batch_loss_grad(params, np.array([i]))
            accum_loss += loss_i
            accum_grad += grads_i["w"]
        assert accum_loss / task.n_train == pytest.approx(full_loss, rel=1e-10)
        np.testing.assert_allclose(accum_grad / task.n_train, full_grads["w"],
                                   atol=1e-10)

    def test_duplicate_rows_are_linear(self):
        task = make_quadratic(seed=11)
        params = {"w": Rng(12).normal((task.a.cols, task.b.cols))}
        loss_one, grads_one = task.batch_loss_grad(params, np.array([5]))
        loss_two, grads_two = task.batch_loss_grad(params, np.array([5, 5]))
        assert loss_two == pytest.approx(loss_one, rel=1e-12)
        np.testing.assert_allclose(grads_two["w"], grads_one["w"], atol=1e-12)

    def test_reg_in_gradient_toggle(self):
        base = dict(seed=13, lambda_reg=0.4)
        task_on = make_quadratic(reg_in_gradient=True, **base)
        task_off = make_quadratic(reg_in_gradient=False, **base)
        params = {"w": Rng(14).normal((task_on.a.cols, task_on.b.cols))}
        loss_on, grads_on = task_on.batch_loss_grad(params, None)
        loss_off, grads_off = task_off.batch_loss_grad(params, None)
        assert loss_on == pytest.approx(loss_off, rel=1e-12)
        diff = grads_on["w"] - grads_off["w"]
        np.testing.assert_allclose(diff, 0.4 * params["w"], atol=1e-12)
        # the objective surface always includes the regularizer
        obj_grads = task_off.objective_grads(params)
        np.testing.assert_allclose(obj_grads["w"], grads_on["w"], atol=1e-12)

    def test_out_of_range_rows_rejected(self):
        task = make_quadratic(seed=15, n_rows=32)
        params = {"w": np.zeros((task.a.cols, task.b.cols))}
        for idx in ([0, 32], [-33]):
            with pytest.raises(IndexError):
                task.batch_loss_grad(params, np.array(idx))

    def test_sample_batch_bounds(self):
        task = make_quadratic(seed=15, n_rows=32)
        idx = task.sample_batch(Rng(16), 500)
        assert idx.shape == (500,)
        assert idx.min() >= 0 and idx.max() < 32

    def test_init_params_zero_by_default(self):
        task = make_quadratic(seed=17)
        params = task.init_params(Rng(18))
        np.testing.assert_array_equal(params["w"], 0.0)

    def test_init_scale_draws_reproducibly(self):
        task = make_quadratic(seed=19, init_scale=0.5)
        p1 = task.init_params(Rng(20))
        p2 = task.init_params(Rng(20))
        np.testing.assert_array_equal(p1["w"], p2["w"])
        assert np.linalg.norm(p1["w"]) > 0
        assert abs(float(np.std(p1["w"])) - 0.5) < 0.15

    def test_generate_is_deterministic(self):
        t1 = make_quadratic(seed=21)
        t2 = make_quadratic(seed=21)
        np.testing.assert_array_equal(t1.a.a, t2.a.a)
        np.testing.assert_array_equal(t1.b.a, t2.b.a)

    def test_design_scale_scales_design(self):
        t1 = make_quadratic(seed=22, design_scale=1.0)
        t2 = make_quadratic(seed=22, design_scale=0.25)
        np.testing.assert_allclose(t2.a.a, 0.25 * t1.a.a, atol=1e-12)


class TestEvaluate:
    """`evaluate` must return what the three separate calls return, bit for bit."""

    @staticmethod
    def assert_matches_separate_calls(task, params):
        train_loss, val_loss, grads = task.evaluate(params)
        assert train_loss == task.train_loss(params)
        assert val_loss == task.val_loss(params)
        expected = task.objective_grads(params)
        assert list(grads) == list(expected)
        for name, grad in expected.items():
            assert grads[name].dtype == grad.dtype, name
            assert np.array_equal(grads[name], grad), name
            assert np.any(grad != 0.0), name

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_quadratic(self, dtype):
        # lambda_reg > 0 with the regularizer kept out of the training
        # gradient: the objective gradient must still include it
        task = make_quadratic(seed=40, lambda_reg=0.3, reg_in_gradient=False)
        params = {"w": Rng(41).normal((task.a.cols, task.b.cols)).astype(dtype)}
        self.assert_matches_separate_calls(task, params)

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_mlp(self, activation, dtype):
        task = make_mlp(seed=42, activation=activation, hidden=(16, 12))
        params = task.init_params(Rng(43).child("init"), dtype=dtype)
        params["b0"] = Rng(44).normal(params["b0"].shape).astype(dtype)
        self.assert_matches_separate_calls(task, params)


class TestStackedBatches:
    """`batch_loss_grad` on a stack of runs (leading run axis) gives each
    run the bits it gets alone."""

    @staticmethod
    def assert_matches_each_run(task, stack, idx):
        losses, grads = task.batch_loss_grad(stack, idx)
        assert losses.shape == (len(stack["w0" if "w0" in stack else "w"]),)
        for r, loss in enumerate(losses):
            solo_loss, solo_grads = task.batch_loss_grad(
                {name: p[r] for name, p in stack.items()}, idx)
            assert isinstance(solo_loss, float)
            assert float(loss) == solo_loss
            assert list(grads) == list(solo_grads)
            for name, grad in solo_grads.items():
                assert grads[name][r].dtype == grad.dtype, name
                assert np.array_equal(grads[name][r], grad), name

    @pytest.mark.parametrize("full", [False, True])
    @pytest.mark.parametrize("reg_in_gradient", [False, True])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_quadratic(self, dtype, reg_in_gradient, full):
        task = make_quadratic(seed=50, lambda_reg=0.3,
                              reg_in_gradient=reg_in_gradient)
        stack = {"w": Rng(51).normal((4, task.a.cols, task.b.cols)).astype(dtype)}
        idx = None if full else task.sample_batch(Rng(52), 37)
        self.assert_matches_each_run(task, stack, idx)
        # the loss as written for one run, every reduction a Python float
        a, b = (task.a.a, task.b.a) if full else (task.a.a[idx], task.b.a[idx])
        scale = task.n_train / len(a)
        losses, _ = task.batch_loss_grad(stack, idx)
        for w, loss in zip(stack["w"], losses):
            resid = a @ w.astype(np.float64) - b
            assert loss == (0.5 * scale * float(np.sum(resid * resid))
                            + 0.5 * 0.3 * float(np.sum(w * w)))

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_mlp(self, activation, dtype):
        task = make_mlp(seed=53, activation=activation, hidden=(16, 12))
        root = Rng(54)
        stack = {name: root.child(name).normal((5, *p.shape)).astype(dtype)
                 for name, p in task.init_params(Rng(55), dtype=dtype).items()}
        self.assert_matches_each_run(task, stack, task.sample_batch(Rng(56), 32))


class TestCountedPass:
    """A batch of many draws per row goes over its distinct rows, each
    weighted by its draw count: the with-replacement estimator of the pass
    over every drawn row, regrouped."""

    N_ROWS, BATCH = 8, 1024  # the smallest batch the rule counts at 8 rows

    @staticmethod
    def force(monkeypatch, counted: bool):
        monkeypatch.setattr(tasks, "_counts_draws", lambda batch, n_rows: counted)

    def task(self, **kwargs):
        return make_quadratic(seed=60, n_rows=self.N_ROWS, **kwargs)

    def test_rule_reads_batch_and_rows(self):
        assert tasks._counts_draws(self.BATCH, self.N_ROWS)
        assert not tasks._counts_draws(self.BATCH - 1, self.N_ROWS)
        # above 256 rows, 4 draws a row
        assert tasks._counts_draws(4096, 1024) and not tasks._counts_draws(4095, 1024)
        # the check-11 ablation (8 rows, batches of 8 to 128) and the
        # sweep's smaller batches stay on the pass over every drawn row
        assert not any(tasks._counts_draws(b, 8) for b in (8, 32, 128))
        assert [tasks._counts_draws(b, 256) for b in (32, 128, 512, 2048)] == [
            False, False, False, True]

    @pytest.mark.parametrize("reg_in_gradient", [False, True])
    @pytest.mark.parametrize("lambda_reg", [0.0, 0.3])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_equals_the_gathered_pass(self, monkeypatch, dtype, lambda_reg,
                                      reg_in_gradient):
        # Compared on the f64 core: the cast to f32 can round the two
        # passes' gradients to neighbouring floats.
        task = self.task(lambda_reg=lambda_reg, reg_in_gradient=reg_in_gradient)
        w = Rng(61).normal((3, task.a.cols, task.b.cols)).astype(dtype)
        idx = task.sample_batch(Rng(62), self.BATCH)
        counted = task._loss_grad(w, idx, reg_in_gradient)
        self.force(monkeypatch, False)
        gathered = task._loss_grad(w, idx, reg_in_gradient)
        np.testing.assert_allclose(counted[0], gathered[0], rtol=1e-12, atol=0.0)
        err = np.abs(counted[1] - gathered[1]).max(axis=(-2, -1))
        assert (err <= 1e-12 * np.abs(gathered[1]).max(axis=(-2, -1))).all()

    @pytest.mark.parametrize("batch", [BATCH - 1, BATCH])
    @pytest.mark.parametrize("runs", [1, 2, 3, 4])
    def test_stack_takes_the_solo_pass(self, monkeypatch, runs, batch):
        # Each run of a stack gets the bytes of its solo pass, whatever the
        # run count; the two passes round this batch differently.
        task = self.task(lambda_reg=0.3)
        stack = {"w": Rng(63).normal((runs, task.a.cols, task.b.cols))}
        idx = task.sample_batch(Rng(64), batch)
        TestStackedBatches.assert_matches_each_run(task, stack, idx)
        got = task.batch_loss_grad(stack, idx)[1]["w"]
        passes = {}
        for counted in (False, True):
            self.force(monkeypatch, counted)
            passes[counted] = task.batch_loss_grad(stack, idx)[1]["w"]
        assert not np.array_equal(passes[False], passes[True])
        assert np.array_equal(got, passes[batch >= self.BATCH])

    def test_index_contract(self):
        task = self.task()
        params = {"w": Rng(65).normal((task.a.cols, task.b.cols))}
        idx = task.sample_batch(Rng(66), self.BATCH)
        loss, grads = task.batch_loss_grad(params, idx)
        # -n <= i < 0 names row i + n, as np.take reads it
        wrapped = np.where(np.arange(self.BATCH) % 3 == 0, idx - self.N_ROWS, idx)
        assert wrapped.min() == -self.N_ROWS
        got_loss, got_grads = task.batch_loss_grad(params, wrapped)
        assert got_loss == loss and np.array_equal(got_grads["w"], grads["w"])
        for bad in (self.N_ROWS, -self.N_ROWS - 1):
            with pytest.raises(IndexError):
                task.batch_loss_grad(params, np.append(idx, bad))

    def test_empty_batch_is_rejected(self, monkeypatch):
        self.force(monkeypatch, True)
        task = self.task()
        with pytest.raises(RangeError):
            task.batch_loss_grad({"w": np.zeros((task.a.cols, task.b.cols))},
                                 np.array([], dtype=np.int64))

    @pytest.mark.parametrize("batch", [32, BATCH])
    def test_an_undrawn_row_never_enters(self, batch):
        # Row 7's residual overflows; a batch that draws it is non-finite,
        # one that does not is finite, on either pass.
        spec = QuadraticSpec(n_rows=self.N_ROWS)
        base = QuadraticTask.generate(spec, Rng(67).child("data"))
        a = base.a.a.copy()
        a[7] = 1e308
        task = QuadraticTask(a=Matrix(a), b=base.b, spec=spec)
        params = {"w": 1.0 + np.abs(Rng(68).normal((spec.in_dim, spec.out_dim)))}
        idx = Rng(69).integers(0, 7, size=batch)
        with np.errstate(over="ignore", invalid="ignore"):
            loss, grads = task.batch_loss_grad(params, idx)
            assert math.isfinite(loss) and np.isfinite(grads["w"]).all()
            drew = task.batch_loss_grad(params, np.append(idx[1:], 7))[0]
        assert not math.isfinite(drew)


class TestStackedEvals:
    """The eval methods on a stack of runs give each run the bits of the
    same call on its slice alone."""

    @staticmethod
    def assert_matches_each_run(task, stack):
        runs = len(next(iter(stack.values())))
        slices = [{name: p[r] for name, p in stack.items()} for r in range(runs)]
        train_losses, val_losses, grads = task.evaluate(stack)
        for got, method in ((train_losses, task.train_loss),
                            (val_losses, task.val_loss),
                            (task.train_loss(stack), task.train_loss),
                            (task.val_loss(stack), task.val_loss)):
            assert got.shape == (runs,)
            assert [float(v) for v in got] == [method(p) for p in slices]
        for stacked in (grads, task.objective_grads(stack)):
            for r, params in enumerate(slices):
                solo = task.objective_grads(params)
                assert list(stacked) == list(solo)
                for name, grad in solo.items():
                    assert stacked[name][r].dtype == grad.dtype, name
                    assert np.array_equal(stacked[name][r], grad), name

    @pytest.mark.parametrize("dtype,lambda_reg,reg_in_gradient", [
        pytest.param(np.float64, 0.0, False, id="float64-0.0"),
        pytest.param(np.float64, 0.3, False, id="float64-0.3"),
        pytest.param(np.float32, 0.0, False, id="float32-0.0"),
        pytest.param(np.float32, 0.3, False, id="float32-0.3"),
        pytest.param(np.float64, 0.0, True, id="float64-0.0-reg_in_gradient"),
        pytest.param(np.float64, 0.3, True, id="float64-0.3-reg_in_gradient"),
    ])
    def test_quadratic(self, dtype, lambda_reg, reg_in_gradient):
        task = make_quadratic(seed=60, lambda_reg=lambda_reg,
                              reg_in_gradient=reg_in_gradient)
        stack = {"w": Rng(61).normal((6, task.a.cols, task.b.cols)).astype(dtype)}
        self.assert_matches_each_run(task, stack)
        if reg_in_gradient:
            # The eval methods run the minibatch core on the full batch with
            # the regularizer in the gradient, so in f64 a full-batch
            # batch_loss_grad is the objective and its exact gradient.
            loss, grads = task.batch_loss_grad(stack, None)
            assert np.array_equal(loss, task.train_loss(stack))
            assert np.array_equal(grads["w"], task.objective_grads(stack)["w"])
            one = {"w": stack["w"][0]}
            loss, grads = task.batch_loss_grad(one, None)
            assert loss == task.train_loss(one)
            assert np.array_equal(grads["w"], task.objective_grads(one)["w"])
        # the objective as written for one run, every reduction a Python float
        a, b = task.a.a, task.b.a
        for w, loss in zip(stack["w"], task.train_loss(stack)):
            w = w.astype(np.float64)
            resid = a @ w - b
            want = 0.5 * float(np.sum(resid * resid))
            if lambda_reg > 0.0:
                want += 0.5 * lambda_reg * float(np.sum(w * w))
            assert loss == want

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_mlp(self, activation, dtype):
        task = make_mlp(seed=62, activation=activation, hidden=(16, 12))
        root = Rng(63)
        stack = {name: root.child(name).normal((5, *p.shape)).astype(dtype)
                 for name, p in task.init_params(Rng(64), dtype=dtype).items()}
        self.assert_matches_each_run(task, stack)


class TestMlpTask:
    def test_split_is_disjoint_and_complete(self):
        task = make_mlp(seed=1)
        train = set(task.train_idx.tolist())
        val = set(task.val_idx.tolist())
        assert not train & val
        assert len(train | val) == 256
        assert len(val) == round(0.1 * 256)

    def test_init_loss_near_uniform_entropy(self):
        # fresh weights give near-uniform class probabilities, so the loss
        # starts near ln(classes)
        task = make_mlp(seed=2, classes=8, n_samples=512, input_dim=32,
                        hidden=(64,))
        params = task.init_params(Rng(3).child("init"))
        loss = task.train_loss(params)
        assert abs(loss - math.log(8)) / math.log(8) < 0.1

    def test_forward_shapes_and_layer_dims(self):
        task = make_mlp(seed=4, hidden=(16, 12))
        dims = task.layer_dims()
        assert dims == [(8, 16), (16, 12), (12, 4)]
        params = task.init_params(Rng(5))
        assert set(params) == {"w0", "b0", "w1", "b1", "w2", "b2"}
        assert params["w1"].shape == (16, 12)
        assert params["b2"].shape == (4,)

    def test_loss_matches_naive_cross_entropy(self):
        task = make_mlp(seed=6)
        params = task.init_params(Rng(7))
        idx = np.arange(16)
        loss, _ = task.batch_loss_grad(params, idx)
        rows = task.train_idx[idx]
        x, y = task.x[rows], task.y[rows]
        h = x
        for i in range(len(task.layer_dims()) - 1):
            h = np.tanh(h @ params[f"w{i}"] + params[f"b{i}"])
        logits = h @ params[f"w{len(task.layer_dims()) - 1}"] + \
            params[f"b{len(task.layer_dims()) - 1}"]
        probs = np.exp(logits) / np.sum(np.exp(logits), axis=1, keepdims=True)
        want = float(np.mean(-np.log(probs[np.arange(len(y)), y])))
        assert loss == pytest.approx(want, rel=1e-10)

    def test_duplicate_rows_are_linear(self):
        task = make_mlp(seed=8)
        params = task.init_params(Rng(9))
        loss_one, grads_one = task.batch_loss_grad(params, np.array([3]))
        loss_two, grads_two = task.batch_loss_grad(params, np.array([3, 3]))
        assert loss_two == pytest.approx(loss_one, rel=1e-12)
        for name in grads_one:
            np.testing.assert_allclose(grads_two[name], grads_one[name],
                                       atol=1e-12)

    def test_empty_batch_rejected(self):
        task = make_mlp(seed=10)
        params = task.init_params(Rng(11))
        with pytest.raises(RangeError):
            task.batch_loss_grad(params, np.array([], dtype=int))

    def test_out_of_range_rows_rejected(self):
        task = make_mlp(seed=10)
        params = task.init_params(Rng(11))
        for idx in ([0, task.n_train], [-task.n_train - 1]):
            with pytest.raises(IndexError):
                task.batch_loss_grad(params, np.array(idx))

    def test_relu_activation_runs(self):
        task = make_mlp(seed=12, activation="relu")
        params = task.init_params(Rng(13))
        loss, grads = task.batch_loss_grad(params, np.arange(8))
        assert math.isfinite(loss)
        assert all(np.all(np.isfinite(g)) for g in grads.values())

    def test_generate_deterministic(self):
        t1 = make_mlp(seed=14)
        t2 = make_mlp(seed=14)
        np.testing.assert_array_equal(t1.x, t2.x)
        np.testing.assert_array_equal(t1.y, t2.y)
        np.testing.assert_array_equal(t1.train_idx, t2.train_idx)


class TestBuildTask:
    def test_dispatch(self):
        quad = build_task(QuadraticSpec(), Rng(0))
        assert isinstance(quad, QuadraticTask)
        mlp = build_task(MlpSpec(n_samples=64, input_dim=4, hidden=(8,),
                                 classes=2), Rng(0))
        assert isinstance(mlp, MlpTask)

    def test_unknown_spec_rejected(self):
        with pytest.raises(ConfigError):
            build_task(object(), Rng(0))


class TestGradCheck:
    def test_quadratic_passes_tight_threshold(self):
        task = make_quadratic(seed=30, lambda_reg=0.1)
        params = {"w": Rng(31).normal((task.a.cols, task.b.cols))}
        reports = grad_check(task, params, probes=20, rng=Rng(32))
        assert all(isinstance(r, GradCheckReport) for r in reports)
        worst = max(r.max_rel_error for r in reports)
        assert worst <= 1e-6

    def test_mlp_passes_loose_threshold(self):
        task = make_mlp(seed=33)
        params = task.init_params(Rng(34).child("init"))
        reports = grad_check(task, params, probes=10, rng=Rng(35))
        assert {r.parameter for r in reports} == set(params)
        worst = max(r.max_rel_error for r in reports)
        assert worst <= 1e-4

    def test_coarse_step_fails_threshold(self):
        # negative control: h = 1e-2 brings truncation error above the MLP
        # tolerance, so a genuinely broken check harness would be visible
        task = make_mlp(seed=33)
        params = task.init_params(Rng(34).child("init"))
        reports = grad_check(task, params, probes=10, h=1e-2, rng=Rng(35))
        worst = max(r.max_rel_error for r in reports)
        assert worst > 1e-4

    def test_probe_count_respected(self):
        task = make_quadratic(seed=36)
        params = {"w": Rng(37).normal((task.a.cols, task.b.cols))}
        reports = grad_check(task, params, probes=7, rng=Rng(38))
        assert all(r.probes == 7 for r in reports)

    @pytest.mark.parametrize("kind", ["quadratic", "mlp"])
    def test_nan_parameter_reads_inf(self, kind):
        # a NaN entry makes every loss and gradient entry it reaches NaN;
        # the report must not read as a pass, nor drop out of a max
        if kind == "quadratic":
            task = make_quadratic(seed=36)
            params = {"w": Rng(37).normal((task.a.cols, task.b.cols))}
            params["w"][2, 3] = math.nan
        else:
            task = make_mlp(seed=33)
            params = task.init_params(Rng(34).child("init"))
            params["b0"][0] = math.nan
        reports = grad_check(task, params, probes=3, rng=Rng(38))
        assert reports[0].max_rel_error == math.inf
        assert max(r.max_rel_error for r in reports) == math.inf

    @pytest.mark.parametrize("h", [math.nan, math.inf, 0.0, -1e-5])
    def test_step_must_be_positive_and_finite(self, h):
        task = make_quadratic(seed=36)
        params = {"w": Rng(37).normal((task.a.cols, task.b.cols))}
        with pytest.raises(RangeError) as exc:
            grad_check(task, params, h=h)
        assert exc.value.key_path == "h"


def _spy_objective(monkeypatch, task) -> list:
    """Record each call of ``task``'s objective core as (rows, want_grads),
    with rows as a list (None: the whole train set)."""
    calls = []
    core = type(task)._objective

    def spy(self, params, rows, want_grads):
        calls.append((None if rows is None else rows.tolist(), want_grads))
        return core(self, params, rows, want_grads)

    monkeypatch.setattr(type(task), "_objective", spy)
    return calls


class TestTaskContract:
    """Both tasks keep one contract: the harness surface is written once,
    over each task's objective core, and the task kinds are listed once."""

    SURFACE = ("sample_batch", "train_loss", "val_loss", "objective_grads",
               "evaluate")

    @staticmethod
    def make(kind):
        if kind == "quadratic":
            task = make_quadratic(seed=70, lambda_reg=0.2, reg_in_gradient=False)
            return task, {"w": Rng(71).normal((task.a.cols, task.b.cols))}, []
        task = make_mlp(seed=72, hidden=(16, 12))
        return (task, task.init_params(Rng(73)),
                [(task.val_idx.tolist(), False)])

    @pytest.mark.parametrize("kind", ["quadratic", "mlp"])
    def test_evaluate_is_one_train_pass(self, kind, monkeypatch):
        task, params, val_pass = self.make(kind)
        calls = _spy_objective(monkeypatch, task)
        task.evaluate(params)
        assert calls == [(None, True)] + val_pass

    @pytest.mark.parametrize("kind", ["quadratic", "mlp"])
    def test_grad_check_probes_the_probe_rows(self, kind, monkeypatch):
        task, params, _ = self.make(kind)
        probe = None if kind == "quadratic" else task.train_idx[:128].tolist()
        calls = _spy_objective(monkeypatch, task)
        grad_check(task, params, probes=2, rng=Rng(74))
        assert calls[0] == (probe, True)
        assert calls[1:] == [(probe, False)] * (len(calls) - 1)
        assert len(calls) == 1 + 2 * 2 * len(params)

    def test_grad_check_rejects_a_non_task(self):
        with pytest.raises(ConfigError):
            grad_check(object(), {"w": np.zeros((2, 2))})

    def test_surface_is_written_once(self):
        for name in self.SURFACE:
            assert name in vars(_Task), name
            for task in _TASK_OF.values():
                assert name not in vars(task), (task.__name__, name)

    def test_task_kinds_are_listed_once(self):
        assert set(typing.get_args(TaskSpec)) == set(_TASK_OF)
        assert config._TASKS == {spec().kind: spec for spec in _TASK_OF}
