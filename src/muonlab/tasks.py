"""Synthetic desk-scale training tasks with analytic gradients.

Two tasks: a regularized matrix least-squares problem with a closed-form
minimizer, and a small Gaussian-mixture MLP classifier with hand-written
backpropagation. Throughout the harness, "tokens" means samples consumed;
one sample is one token.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class QuadraticTask:
    """L(W) = 0.5 ||A W - B||_F^2 + (lambda_reg / 2) ||W||_F^2.

    Rows of (A, B) act as the dataset: a minibatch subsamples rows and
    rescales so its gradient is an unbiased estimate of the full one.

    As in `MlpTask`, the harness methods also take a stack of runs: one
    loss per run, each run's values the bytes of that run alone.

    One array core computes every loss and gradient: on a minibatch for
    `batch_loss_grad`, on the full batch with the regularizer always in the
    gradient for `loss_grad` and the eval methods (which cast W to f64).
    """

    a: Matrix
    b: Matrix
    lambda_reg: float = 0.0
    noise_sigma: float = 0.0
    reg_in_gradient: bool = True
    init_scale: float = 0.0
    name: str = field(default="quadratic", init=False)

    def __post_init__(self):
        if self.a.rows != self.b.rows:
            raise ShapeError(f"A has {self.a.rows} rows but B has {self.b.rows}")
        if self.lambda_reg < 0.0:
            raise RangeError(f"lambda_reg must be >= 0, got {self.lambda_reg}")

    @staticmethod
    def generate(spec: QuadraticSpec, rng: Rng) -> "QuadraticTask":
        a = rng.normal((spec.n_rows, spec.in_dim), scale=spec.design_scale)
        w_true = rng.normal((spec.in_dim, spec.out_dim), scale=1.0 / math.sqrt(spec.in_dim))
        b = a @ w_true
        if spec.target_noise > 0.0:
            b = b + rng.normal(b.shape, scale=spec.target_noise)
        return QuadraticTask(
            a=Matrix(a), b=Matrix(b),
            lambda_reg=spec.lambda_reg,
            noise_sigma=spec.noise_sigma,
            reg_in_gradient=spec.reg_in_gradient,
            init_scale=spec.init_scale,
        )

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
        if self.lambda_reg == 0.0 and res.rank < self.a.cols:
            raise DegenerateInputError(
                "unregularized minimizer needs a full-column-rank design"
            )
        s = np.asarray(res.singular_values, dtype=F64)
        filt = s / (s * s + self.lambda_reg)
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
        if self.init_scale > 0.0:
            return {"w": rng.normal(shape, scale=self.init_scale).astype(dtype)}
        return {"w": np.zeros(shape, dtype=dtype)}

    def sample_batch(self, rng: Rng, batch_size: int) -> np.ndarray:
        return rng.integers(0, self.n_train, size=batch_size)

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
        loss, grad = self._loss_grad(w, idx, self.reg_in_gradient)
        return loss, {"w": grad.astype(w.dtype, copy=False)}

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
        if self.lambda_reg > 0.0:
            loss += 0.5 * self.lambda_reg * np.sum(w * w, axis=(-2, -1)).astype(F64)
            if reg_in_gradient:
                grad = grad + self.lambda_reg * w
        return _per_run(loss), grad

    def train_loss(self, params: dict[str, np.ndarray]) -> float | np.ndarray:
        return self._loss_grad(params["w"].astype(F64, copy=False))[0]

    def val_loss(self, params: dict[str, np.ndarray]) -> float | np.ndarray:
        # No held-out split for the deterministic quadratic: the objective is
        # its own validation metric.
        return self.train_loss(params)

    def objective_grads(self, params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Exact full-objective gradient (regularizer always included)."""
        return {"w": self._loss_grad(params["w"].astype(F64, copy=False))[1]}

    def evaluate(self, params: dict[str, np.ndarray],
                 ) -> tuple[float, float, dict[str, np.ndarray]]:
        """(train_loss, val_loss, objective_grads) from one objective pass.

        The val loss is the train loss, as in `val_loss`.
        """
        loss, grad = self._loss_grad(params["w"].astype(F64, copy=False))
        return loss, loss, {"w": grad}


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
class MlpTask:
    """Gaussian-mixture classification with a small dense network.

    Layers are fan_in x fan_out; weights start at Normal(0, 1/fan_in) with
    zero biases. A seed-stable 10% slice of the generated data is held out
    as the validation split.
    """

    x: np.ndarray
    y: np.ndarray
    hidden: tuple[int, ...]
    classes: int
    activation: str
    train_idx: np.ndarray
    val_idx: np.ndarray
    noise_sigma: float = 0.0
    name: str = field(default="mlp", init=False)

    @staticmethod
    def generate(spec: MlpSpec, rng: Rng) -> "MlpTask":
        means = rng.normal((spec.classes, spec.input_dim), scale=spec.cluster_spread)
        y = np.asarray(rng.integers(0, spec.classes, size=spec.n_samples), dtype=np.int64)
        x = means[y] + rng.normal((spec.n_samples, spec.input_dim), scale=spec.sample_noise)
        perm = rng.permutation(spec.n_samples)
        n_val = max(1, int(round(spec.val_fraction * spec.n_samples)))
        return MlpTask(
            x=x, y=y, hidden=tuple(spec.hidden), classes=spec.classes,
            activation=spec.activation,
            val_idx=np.sort(perm[:n_val]), train_idx=np.sort(perm[n_val:]),
            noise_sigma=spec.noise_sigma,
        )

    @property
    def input_dim(self) -> int:
        return self.x.shape[1]

    @property
    def n_train(self) -> int:
        return len(self.train_idx)

    def layer_dims(self) -> list[tuple[int, int]]:
        widths = (self.input_dim, *self.hidden, self.classes)
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
                hs.append(_activation(self.activation, z))
        return z, hs

    def _ce_loss_grads(self, params: dict[str, np.ndarray], xb: np.ndarray,
                       yb: np.ndarray, want_grads: bool):
        """Mean cross-entropy of (xb, yb) and its gradients.

        The parameters may be stacks with a leading run axis, all fed the
        same rows: the loss is then one value per run. Every op acts per
        slice (matmuls run one GEMM per slice, reductions run along one
        axis), so each run's values are the bytes of that run alone.
        """
        logits, hs = self._forward(params, xb)
        shifted = logits - logits.max(axis=-1, keepdims=True)
        expz = np.exp(shifted)
        sumexp = expz.sum(axis=-1, keepdims=True)
        n = xb.shape[0]
        rows = np.arange(n)
        loss = _per_run(np.mean(np.log(sumexp[..., 0]) - shifted[..., rows, yb],
                                axis=-1))
        if not want_grads:
            return loss, {}
        # In place: the softmax over expz, and each activation's derivative
        # over the activation once its weight gradient is taken. Nothing
        # reads them again, and an eval running beside the steps (see
        # `harness.train`) then adds less to the peak memory.
        dz = np.divide(expz, sumexp, out=expz)
        dz[..., rows, yb] -= 1.0
        dz /= n
        grads: dict[str, np.ndarray] = {}
        for i in range(len(hs) - 1, -1, -1):
            h = hs.pop()
            grads[f"w{i}"] = h.swapaxes(-1, -2) @ dz
            grads[f"b{i}"] = dz.sum(axis=-2)
            if i > 0:
                dz = dz @ params[f"w{i}"].swapaxes(-1, -2)
                dz *= _activation_grad(self.activation, h)
        return loss, grads

    def sample_batch(self, rng: Rng, batch_size: int) -> np.ndarray:
        return rng.integers(0, self.n_train, size=batch_size)

    def _rows(self, params: dict[str, np.ndarray], rows: np.ndarray,
              ) -> tuple[np.ndarray, np.ndarray]:
        dtype = params["w0"].dtype
        return (np.take(self.x, rows, axis=0).astype(dtype, copy=False),
                np.take(self.y, rows, axis=0))

    def batch_loss_grad(self, params: dict[str, np.ndarray], idx: np.ndarray | None):
        """Mean cross-entropy and gradients on a minibatch of train positions.

        The parameters may be stacks (R, ...) of runs sharing the minibatch:
        one gather serves them all, and the loss is one value per run.
        """
        rows = self.train_idx if idx is None else np.take(self.train_idx, idx, axis=0)
        if len(rows) == 0:
            raise RangeError("batch must be nonempty")
        xb, yb = self._rows(params, rows)
        return self._ce_loss_grads(params, xb, yb, want_grads=True)

    def train_loss(self, params: dict[str, np.ndarray]) -> float:
        xb, yb = self._rows(params, self.train_idx)
        return self._ce_loss_grads(params, xb, yb, want_grads=False)[0]

    def val_loss(self, params: dict[str, np.ndarray]) -> float | np.ndarray:
        """Mean cross-entropy on the validation rows; the parameters may be
        stacks (R, ...), and the loss is then one value per run."""
        xb, yb = self._rows(params, self.val_idx)
        return self._ce_loss_grads(params, xb, yb, want_grads=False)[0]

    def objective_grads(self, params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Exact gradient of the full training loss."""
        xb, yb = self._rows(params, self.train_idx)
        return self._ce_loss_grads(params, xb, yb, want_grads=True)[1]

    def evaluate(self, params: dict[str, np.ndarray],
                 ) -> tuple[float, float, dict[str, np.ndarray]]:
        """(train_loss, val_loss, objective_grads) from one train pass.

        The train loss comes out of the backward pass's forward, which
        computes it with the same ops as `train_loss`, so the values match
        the three separate calls bit for bit.
        """
        xb, yb = self._rows(params, self.train_idx)
        train_loss, grads = self._ce_loss_grads(params, xb, yb, want_grads=True)
        return train_loss, self.val_loss(params), grads


def build_task(spec: TaskSpec, rng: Rng):
    """Construct the task a spec describes; data is a pure function of rng."""
    if isinstance(spec, QuadraticSpec):
        return QuadraticTask.generate(spec, rng)
    if isinstance(spec, MlpSpec):
        return MlpTask.generate(spec, rng)
    raise ConfigError(f"unknown task spec {type(spec).__name__}")


@dataclass(frozen=True)
class GradCheckReport:
    """Central-difference agreement for one named parameter."""

    parameter: str
    max_rel_error: float
    probes: int


def _probe_loss_fn(task):
    """A deterministic scalar loss over a fixed probe batch, plus its grads."""
    if isinstance(task, QuadraticTask):
        loss, grads = task.train_loss, task.objective_grads
    elif isinstance(task, MlpTask):
        rows = task.train_idx[: min(128, task.n_train)]
        xb, yb = task.x[rows], task.y[rows]

        def loss(p):
            return task._ce_loss_grads(p, xb.astype(p["w0"].dtype, copy=False),
                                       yb, want_grads=False)[0]

        def grads(p):
            return task._ce_loss_grads(p, xb.astype(p["w0"].dtype, copy=False),
                                       yb, want_grads=True)[1]
    else:
        raise ConfigError(f"grad_check does not know task {type(task).__name__}")
    return loss, grads


def grad_check(task, params: dict[str, np.ndarray], probes: int = 20,
               h: float = 1e-5, rng: Rng | None = None) -> list[GradCheckReport]:
    """Compare analytic gradients against central differences.

    For each parameter, ``probes`` coordinates are drawn from ``rng`` and
    perturbed by +/- h; the relative error compares (L+ - L-) / 2h with the
    analytic entry. Meaningful in f64 (f32 drowns in rounding noise).
    """
    if h <= 0.0:
        raise RangeError(f"h must be positive, got {h}")
    if probes < 1:
        raise RangeError(f"probes must be >= 1, got {probes}")
    if rng is None:
        rng = Rng(0)
    loss_fn, grads_fn = _probe_loss_fn(task)
    analytic = grads_fn(params)
    reports = []
    for name in params:
        arr = params[name]
        flat_ids = rng.integers(0, arr.size, size=probes)
        worst = 0.0
        for flat in flat_ids:
            coord = np.unravel_index(int(flat), arr.shape)
            bumped = dict(params)
            plus = arr.copy()
            plus[coord] += h
            bumped[name] = plus
            l_plus = loss_fn(bumped)
            minus = arr.copy()
            minus[coord] -= h
            bumped[name] = minus
            l_minus = loss_fn(bumped)
            fd = (l_plus - l_minus) / (2.0 * h)
            an = float(analytic[name][coord])
            rel = abs(fd - an) / max(abs(fd), abs(an), 1e-10)
            worst = max(worst, rel)
        reports.append(GradCheckReport(parameter=name, max_rel_error=worst,
                                       probes=probes))
    return reports
