"""Synthetic desk-scale training tasks with analytic gradients.

Two tasks: a regularized matrix least-squares problem with a closed-form
minimizer, and a small Gaussian-mixture MLP classifier with hand-written
backpropagation. Throughout the harness, "tokens" means samples consumed;
one sample is one token.

Both keep one contract: each holds its spec and its data and defines one
objective core, and `_Task` writes the harness surface once over that
core. `grad_check` probes the core, and `build_task` finds a spec's task
in ``_TASK_OF``, the one list of task kinds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, DegenerateInputError, RangeError, ShapeError,
                     _require)
from .linalg import F64, Matrix, Rng, svd


@dataclass(frozen=True)
class QuadraticSpec:
    """Generator knobs for the least-squares task L(W) = 0.5||AW - B||_F^2 + reg.

    ``noise_sigma`` adds Gaussian noise to training gradients (the
    stochastic variant used by the convergence-rate check). With
    ``reg_in_gradient`` false, the regularizer stays in the reported loss
    but is left out of the gradient handed to the optimizer, so decoupled
    weight decay is the only mechanism pulling weights toward zero; that is
    the coupling the ablation grid relies on.

    ``init_scale`` > 0 starts training from Gaussian weights instead of
    zeros. With a wide design (n_rows < in_dim) the component of the start
    lying in the null space of A is invisible to the least-squares
    gradient, so only weight decay can remove it while the regularized
    loss keeps charging for it.
    """

    kind: str = "quadratic"
    n_rows: int = 256
    in_dim: int = 16
    out_dim: int = 8
    lambda_reg: float = 0.0
    noise_sigma: float = 0.0
    reg_in_gradient: bool = True
    target_noise: float = 0.5
    design_scale: float = 1.0
    init_scale: float = 0.0

    def __post_init__(self):
        if self.kind != "quadratic":
            raise ConfigError(f"QuadraticSpec kind must be 'quadratic', got {self.kind!r}")
        for key in ("n_rows", "in_dim", "out_dim"):
            _require(getattr(self, key) >= 1, key, "be >= 1", getattr(self, key))
        for key in ("lambda_reg", "noise_sigma", "target_noise", "init_scale"):
            _require(0.0 <= getattr(self, key) < math.inf, key, "be finite and >= 0",
                     getattr(self, key))
        _require(0.0 < self.design_scale < math.inf, "design_scale",
                 "be positive and finite", self.design_scale)


@dataclass(frozen=True)
class MlpSpec:
    """Generator knobs for the Gaussian-mixture MLP classification task."""

    kind: str = "mlp"
    n_samples: int = 2048
    input_dim: int = 64
    hidden: tuple[int, ...] = (128, 128)
    classes: int = 8
    activation: str = "tanh"
    val_fraction: float = 0.1
    cluster_spread: float = 1.0
    sample_noise: float = 1.0
    noise_sigma: float = 0.0

    def __post_init__(self):
        if self.kind != "mlp":
            raise ConfigError(f"MlpSpec kind must be 'mlp', got {self.kind!r}")
        for key, least in (("n_samples", 10), ("input_dim", 1), ("classes", 2)):
            _require(getattr(self, key) >= least, key, f"be >= {least}",
                     getattr(self, key))
        _require(bool(self.hidden) and min(self.hidden) >= 1, "hidden",
                 "be nonempty widths >= 1", self.hidden)
        _require(self.activation in ("tanh", "relu"), "activation",
                 "be 'tanh' or 'relu'", self.activation)
        _require(0.0 < self.val_fraction < 0.5, "val_fraction", "lie in (0, 0.5)",
                 self.val_fraction)
        for key in ("cluster_spread", "sample_noise", "noise_sigma"):
            _require(0.0 <= getattr(self, key) < math.inf, key, "be finite and >= 0",
                     getattr(self, key))


TaskSpec = QuadraticSpec | MlpSpec


class _Task:
    """The harness surface of a task, written once over its objective core.

    A task holds its data and the ``spec`` whose knobs it reads, and it
    defines ``generate``, ``n_train``, ``init_params``, ``batch_loss_grad``
    and ``_objective(params, rows, want_grads)``: the loss on ``rows`` of
    its data (None: the whole train set) and, with ``want_grads``, its
    exact gradient. Two row sets come with it: ``_held_out``, the
    validation rows (None where the objective is its own validation
    metric), and ``_probe_rows``, the rows `grad_check` probes (None: the
    whole objective).

    The parameters may be stacks with a leading run axis: every loss is
    then one value per run, each the bytes of that run alone.
    """

    def sample_batch(self, rng: Rng, batch_size: int) -> np.ndarray:
        return rng.integers(0, self.n_train, size=batch_size)

    def train_loss(self, params: dict[str, np.ndarray]) -> float | np.ndarray:
        return self._objective(params, None, False)[0]

    def val_loss(self, params: dict[str, np.ndarray]) -> float | np.ndarray:
        if self._held_out is None:
            return self.train_loss(params)
        return self._objective(params, self._held_out, False)[0]

    def objective_grads(self, params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Exact gradient of the full training objective."""
        return self._objective(params, None, True)[1]

    def evaluate(self, params: dict[str, np.ndarray],
                 ) -> tuple[float, float, dict[str, np.ndarray]]:
        """(train_loss, val_loss, objective_grads) from one train pass.

        The train loss comes out of the gradient pass, which computes it
        with the same ops as `train_loss`, so the values match the three
        separate calls bit for bit.
        """
        loss, grads = self._objective(params, None, True)
        return (loss, loss if self._held_out is None else self.val_loss(params),
                grads)


@dataclass(frozen=True)
class QuadraticTask(_Task):
    """L(W) = 0.5 ||A W - B||_F^2 + (lambda_reg / 2) ||W||_F^2.

    Rows of (A, B) act as the dataset: a minibatch subsamples rows and
    rescales so its gradient is an unbiased estimate of the full one. The
    spec's shape must be that of (A, B), and its knobs set the objective.

    One array core computes every loss and gradient: on a minibatch for
    `batch_loss_grad`, on the full batch with the regularizer always in the
    gradient for `loss_grad` and the objective core (which casts W to f64).
    """

    a: Matrix
    b: Matrix
    spec: QuadraticSpec

    # No held-out split: the objective is its own validation metric, and
    # grad_check probes all of it.
    _held_out = _probe_rows = None

    def __post_init__(self):
        n = self.spec.n_rows
        for name, m, cols in (("A", self.a, self.spec.in_dim),
                              ("B", self.b, self.spec.out_dim)):
            if m.shape != (n, cols):
                raise ShapeError(f"{name} must be {n}x{cols}, as the spec says, "
                                 f"got {m.rows}x{m.cols}")

    @staticmethod
    def generate(spec: QuadraticSpec, rng: Rng) -> "QuadraticTask":
        a = rng.normal((spec.n_rows, spec.in_dim), scale=spec.design_scale)
        w_true = rng.normal((spec.in_dim, spec.out_dim), scale=1.0 / math.sqrt(spec.in_dim))
        b = a @ w_true
        if spec.target_noise > 0.0:
            b = b + rng.normal(b.shape, scale=spec.target_noise)
        return QuadraticTask(a=Matrix(a), b=Matrix(b), spec=spec)

    # -- contract surface -------------------------------------------------

    def loss_grad(self, w: Matrix) -> tuple[float, Matrix]:
        """Full objective value and gradient A^T(AW - B) + lambda_reg * W."""
        if w.rows != self.a.cols or w.cols != self.b.cols:
            raise ShapeError(
                f"w must be {self.a.cols}x{self.b.cols}, got {w.rows}x{w.cols}"
            )
        loss, grad = self._loss_grad(w.a)
        return loss, Matrix(grad)

    def minimizer(self) -> Matrix:
        """Closed-form argmin via the SVD oracle.

        Solves (A^T A + lambda_reg I) W = A^T B. With lambda_reg = 0 this
        needs full column rank; otherwise the system is degenerate.
        """
        res = svd(self.a)
        if self.spec.lambda_reg == 0.0 and res.rank < self.a.cols:
            raise DegenerateInputError(
                "unregularized minimizer needs a full-column-rank design"
            )
        s = np.asarray(res.singular_values, dtype=F64)
        filt = s / (s * s + self.spec.lambda_reg)
        w_star = (res.v.a * filt) @ (res.u.a.T @ self.b.a)
        return Matrix(w_star)

    def optimum_loss(self) -> float:
        loss, _ = self.loss_grad(self.minimizer())
        return loss

    # -- harness surface (array level) ------------------------------------

    @property
    def n_train(self) -> int:
        return self.a.rows

    def init_params(self, rng: Rng, dtype=F64) -> dict[str, np.ndarray]:
        shape = (self.a.cols, self.b.cols)
        if self.spec.init_scale > 0.0:
            return {"w": rng.normal(shape, scale=self.spec.init_scale).astype(dtype)}
        return {"w": np.zeros(shape, dtype=dtype)}

    def batch_loss_grad(self, params: dict[str, np.ndarray],
                        idx: np.ndarray | None):
        """Unbiased estimate of the full objective and its gradient.

        ``idx`` rows are rescaled by n_rows / batch; ``idx=None`` means the
        exact full batch. The regularizer joins the gradient only when
        ``reg_in_gradient`` is set. ``params["w"]`` may be a stack
        (R, in, out) of runs sharing the batch: the loss is then one value
        per run, each the bytes of that run alone.
        """
        w = params["w"]
        loss, grad = self._loss_grad(w, idx, self.spec.reg_in_gradient)
        return loss, {"w": grad.astype(w.dtype, copy=False)}

    def _objective(self, params: dict[str, np.ndarray], rows: np.ndarray | None,
                   want_grads: bool):
        # W cast to f64 and the regularizer always in the gradient, which
        # comes either way; ``rows`` are rescaled as a minibatch is.
        loss, grad = self._loss_grad(params["w"].astype(F64, copy=False), rows)
        return loss, {"w": grad}

    def _loss_grad(self, w: np.ndarray, idx: np.ndarray | None = None,
                   reg_in_gradient: bool = True):
        # The array core of the objective and its f64 gradient, for one W or
        # a stack of runs; an overflowed gradient returns, not raises.
        a, b = self.a.a, self.b.a
        if idx is None:
            scale = 1.0
        else:
            if len(idx) == 0:
                raise RangeError("batch must be nonempty")
            a, b = np.take(a, idx, axis=0), np.take(b, idx, axis=0)
            scale = self.n_train / len(idx)
        # In place: a stack of residuals is the largest array of a step.
        resid = a @ w.astype(F64, copy=False)
        resid -= b
        grad = scale * (a.T @ resid)
        resid *= resid
        loss = 0.5 * scale * np.sum(resid, axis=(-2, -1))
        lambda_reg = self.spec.lambda_reg
        if lambda_reg > 0.0:
            loss += 0.5 * lambda_reg * np.sum(w * w, axis=(-2, -1)).astype(F64)
            if reg_in_gradient:
                grad = grad + lambda_reg * w
        return _per_run(loss), grad


def _per_run(loss):
    """A float for one run's 0-d loss, the array of losses for a stack."""
    return float(loss) if np.ndim(loss) == 0 else loss


def _activation(name: str, z: np.ndarray) -> np.ndarray:
    return np.tanh(z) if name == "tanh" else np.maximum(z, 0.0)


def _activation_grad(name: str, h: np.ndarray) -> np.ndarray:
    """The activation's derivative, from its output (relu's h > 0 exactly
    where its input z > 0). tanh's is written over ``h``."""
    if name == "tanh":
        h *= h
        return np.subtract(1.0, h, out=h)
    return (h > 0.0).astype(h.dtype)


@dataclass(frozen=True)
class MlpTask(_Task):
    """Gaussian-mixture classification with a small dense network.

    Layers are fan_in x fan_out; weights start at Normal(0, 1/fan_in) with
    zero biases. A seed-stable 10% slice of the generated data is held out
    as the validation split. `grad_check` probes the first 128 train rows.
    """

    x: np.ndarray
    y: np.ndarray
    train_idx: np.ndarray
    val_idx: np.ndarray
    spec: MlpSpec

    @staticmethod
    def generate(spec: MlpSpec, rng: Rng) -> "MlpTask":
        means = rng.normal((spec.classes, spec.input_dim), scale=spec.cluster_spread)
        y = np.asarray(rng.integers(0, spec.classes, size=spec.n_samples), dtype=np.int64)
        x = means[y] + rng.normal((spec.n_samples, spec.input_dim), scale=spec.sample_noise)
        perm = rng.permutation(spec.n_samples)
        n_val = max(1, int(round(spec.val_fraction * spec.n_samples)))
        return MlpTask(x=x, y=y, train_idx=np.sort(perm[n_val:]),
                       val_idx=np.sort(perm[:n_val]), spec=spec)

    @property
    def n_train(self) -> int:
        return len(self.train_idx)

    @property
    def _held_out(self) -> np.ndarray:
        return self.val_idx

    @property
    def _probe_rows(self) -> np.ndarray:
        return self.train_idx[:128]

    def layer_dims(self) -> list[tuple[int, int]]:
        spec = self.spec
        widths = (spec.input_dim, *spec.hidden, spec.classes)
        return [(widths[i], widths[i + 1]) for i in range(len(widths) - 1)]

    def init_params(self, rng: Rng, dtype=F64) -> dict[str, np.ndarray]:
        params: dict[str, np.ndarray] = {}
        for i, (fan_in, fan_out) in enumerate(self.layer_dims()):
            params[f"w{i}"] = rng.normal(
                (fan_in, fan_out), scale=1.0 / math.sqrt(fan_in)
            ).astype(dtype)
            params[f"b{i}"] = np.zeros(fan_out, dtype=dtype)
        return params

    def _forward(self, params: dict[str, np.ndarray], xb: np.ndarray,
                 ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Logits and the inputs of every layer (xb, then each activation)."""
        n_layers = len(self.layer_dims())
        hs = [xb]
        for i in range(n_layers):
            z = hs[-1] @ params[f"w{i}"]
            z += params[f"b{i}"][..., None, :]
            if i < n_layers - 1:
                hs.append(_activation(self.spec.activation, z))
        return z, hs

    def _objective(self, params: dict[str, np.ndarray], rows: np.ndarray | None,
                   want_grads: bool):
        """Mean cross-entropy on ``rows`` of the data (None: the train
        split) and, with ``want_grads``, its gradients.

        The parameters may be stacks with a leading run axis, all fed the
        same rows: the loss is then one value per run. Every op acts per
        slice (matmuls run one GEMM per slice, reductions run along one
        axis), so each run's values are the bytes of that run alone.
        """
        rows = self.train_idx if rows is None else rows
        if len(rows) == 0:
            raise RangeError("batch must be nonempty")
        xb = np.take(self.x, rows, axis=0).astype(params["w0"].dtype, copy=False)
        yb = np.take(self.y, rows, axis=0)
        logits, hs = self._forward(params, xb)
        shifted = logits - logits.max(axis=-1, keepdims=True)
        expz = np.exp(shifted)
        sumexp = expz.sum(axis=-1, keepdims=True)
        n = xb.shape[0]
        at = np.arange(n)
        loss = _per_run(np.mean(np.log(sumexp[..., 0]) - shifted[..., at, yb],
                                axis=-1))
        if not want_grads:
            return loss, {}
        # In place: the softmax over expz, and each activation's derivative
        # over the activation once its weight gradient is taken. Nothing
        # reads them again, and an eval running beside the steps (see
        # `harness.train`) then adds less to the peak memory.
        dz = np.divide(expz, sumexp, out=expz)
        dz[..., at, yb] -= 1.0
        dz /= n
        grads: dict[str, np.ndarray] = {}
        for i in range(len(hs) - 1, -1, -1):
            h = hs.pop()
            grads[f"w{i}"] = h.swapaxes(-1, -2) @ dz
            grads[f"b{i}"] = dz.sum(axis=-2)
            if i > 0:
                dz = dz @ params[f"w{i}"].swapaxes(-1, -2)
                dz *= _activation_grad(self.spec.activation, h)
        return loss, grads

    def batch_loss_grad(self, params: dict[str, np.ndarray], idx: np.ndarray | None):
        """Mean cross-entropy and gradients on a minibatch of train positions.

        The parameters may be stacks (R, ...) of runs sharing the minibatch:
        one gather serves them all, and the loss is one value per run.
        """
        rows = None if idx is None else np.take(self.train_idx, idx, axis=0)
        return self._objective(params, rows, want_grads=True)


# The task each spec builds: the one list of task kinds.
_TASK_OF = {QuadraticSpec: QuadraticTask, MlpSpec: MlpTask}


def build_task(spec: TaskSpec, rng: Rng):
    """Construct the task a spec describes; data is a pure function of rng."""
    task = _TASK_OF.get(type(spec))
    if task is None:
        raise ConfigError(f"unknown task spec {type(spec).__name__}")
    return task.generate(spec, rng)


@dataclass(frozen=True)
class GradCheckReport:
    """Central-difference agreement for one named parameter."""

    parameter: str
    max_rel_error: float
    probes: int


def grad_check(task, params: dict[str, np.ndarray], probes: int = 20,
               h: float = 1e-5, rng: Rng | None = None) -> list[GradCheckReport]:
    """Compare analytic gradients against central differences.

    For each parameter, ``probes`` coordinates are drawn from ``rng`` and
    perturbed by +/- h; the relative error compares (L+ - L-) / 2h with the
    analytic entry, on the task's probe rows. A non-finite error reads
    inf, so no max over the reports can drop it. Meaningful in f64 (f32
    drowns in rounding noise).
    """
    _require(0.0 < h < math.inf, "h", "be positive and finite", h)
    _require(probes >= 1, "probes", "be >= 1", probes)
    if not isinstance(task, _Task):
        raise ConfigError(f"grad_check does not know task {type(task).__name__}")
    if rng is None:
        rng = Rng(0)
    rows = task._probe_rows
    analytic = task._objective(params, rows, True)[1]
    reports = []
    for name, arr in params.items():
        worst = 0.0
        for flat in rng.integers(0, arr.size, size=probes):
            coord = np.unravel_index(int(flat), arr.shape)
            losses = []
            for step in (h, -h):
                bumped = arr.copy()
                bumped[coord] += step
                losses.append(task._objective({**params, name: bumped}, rows,
                                              False)[0])
            fd = (losses[0] - losses[1]) / (2.0 * h)
            an = float(analytic[name][coord])
            rel = abs(fd - an) / max(abs(fd), abs(an), 1e-10)
            worst = max(worst, rel if math.isfinite(rel) else math.inf)
        reports.append(GradCheckReport(parameter=name, max_rel_error=worst,
                                       probes=probes))
    return reports
