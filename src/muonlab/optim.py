"""Muon and AdamW updates, gradient clipping, and routing.

The Muon step orthogonalizes the momentum buffer (exactly via SVD or
iteratively via Newton-Schulz), rescales it so the update RMS matches what
AdamW would typically produce, and applies decoupled weight decay:

    M_t = beta * M_{t-1} + (1 - beta) * G_t
    U_t = msign(M_t)
    W_{t+1} = W_t - eta_t * (0.2 * sqrt(n) * U_t + lambda * W_t)

AdamW is the standard bias-corrected baseline with decoupled decay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Literal, Sequence

import numpy as np

from .errors import (ConfigError, DegenerateInputError, NumericError, ShapeError,
                     _require)
from .linalg import F64, Matrix, svd
from .msign import COEFF_PRESETS, _ns_orthogonalize, coefficient_preset, msign_exact

_ZERO_MOMENTUM_TOL = 1e-12
_NORM_EPS = 1e-12

# The optimizer kinds, in the order a sweep trains and reports them.
OPTIMIZER_KINDS = ("muon", "adamw")


@dataclass(frozen=True)
class OptimizerSpec:
    """Optimizer description: the one spec that run configurations,
    `muon_step`, `adamw_step` and `OptimizerBank` read.

    ``kind`` selects the optimizer for matrix parameters; vector parameters
    always run AdamW. `muon_step` reads the Muon fields, `adamw_step` the
    AdamW fields (``beta1``, ``beta2``, ``eps``); both ignore ``kind`` and
    take ``weight_decay`` as their decay. AdamW runs ignore the Muon
    fields. `OptimizerBank` reads neither ``weight_decay`` nor ``eta0``.
    ``coeffs`` names a preset of `COEFF_PRESETS`.

    ``rms_dim`` picks which dimension enters the 0.2 * sqrt(n) scale:
    'fan-out' uses the second dimension (parameters are fan_in x fan_out),
    'max' uses max(rows, cols). ``momentum_only`` and ``dynamic_rms`` exist
    for ablation cells: the former skips orthogonalization and uses the
    Frobenius-normalized momentum, the latter rescales each update so its
    realized RMS equals ``rms_factor`` exactly.
    """

    kind: Literal["muon", "adamw"] = "muon"
    eta0: float = 0.02
    weight_decay: float = 0.1
    beta: float = 0.9
    k_iters: int = 5
    coeffs: str = "optimized"
    rms_factor: float = 0.2
    rms_matching: bool = True
    rms_dim: str = "fan-out"
    exact_msign: bool = False
    momentum_only: bool = False
    dynamic_rms: bool = False
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        _require(self.kind in OPTIMIZER_KINDS, "kind", "be 'muon' or 'adamw'",
                 self.kind)
        # Every run has AdamW moments (vectors always take AdamW).
        _require(0.0 <= self.beta1 < 1.0, "beta1", "lie in [0, 1)", self.beta1)
        _require(0.0 <= self.beta2 < 1.0, "beta2", "lie in [0, 1)", self.beta2)
        _require(0.0 < self.eps < math.inf, "eps", "be positive and finite", self.eps)
        # eta0, the weight decay and the Muon fields, whatever the kind.
        try:
            coefficient_preset(self.coeffs)
        except ConfigError as exc:
            exc.key_path = "coeffs"
            raise
        _require(0.0 < self.eta0 < math.inf, "eta0", "be positive and finite",
                 self.eta0)
        _require(0.0 <= self.weight_decay < math.inf, "weight_decay",
                 "be finite and >= 0", self.weight_decay)
        _require(0.0 <= self.beta < 1.0, "beta", "lie in [0, 1)", self.beta)
        _require(self.k_iters >= 1, "k_iters", "be >= 1", self.k_iters)
        _require(0.0 < self.rms_factor < math.inf, "rms_factor",
                 "be positive and finite", self.rms_factor)
        _require(self.rms_dim in ("fan-out", "max"), "rms_dim",
                 "be 'fan-out' or 'max'", self.rms_dim)


@dataclass(frozen=True)
class MuonState:
    """Per-parameter Muon state: the momentum buffer."""

    momentum: Matrix

    @staticmethod
    def fresh(rows: int, cols: int, dtype=F64) -> "MuonState":
        return MuonState(momentum=Matrix.zeros(rows, cols, dtype=dtype))


@dataclass(frozen=True)
class AdamWState:
    """Per-parameter AdamW state: first/second moments and the step count.
    The betas and eps are the `OptimizerSpec`'s."""

    m: Matrix
    v: Matrix
    step_count: int

    def __post_init__(self):
        if self.m.shape != self.v.shape:
            raise ShapeError("moment buffers must share a shape")
        _require(self.step_count >= 0, "step_count", "be >= 0", self.step_count)
        if np.any(self.v.a < 0.0):
            raise NumericError("second moment must be nonnegative")

    @staticmethod
    def fresh(rows: int, cols: int, dtype=F64) -> "AdamWState":
        zero = Matrix.zeros(rows, cols, dtype=dtype)
        return AdamWState(m=zero, v=zero, step_count=0)


def _slice_norms(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of each (m, n) slice of a stack (..., m, n), shaped
    (..., 1, 1) to broadcast: in the stack's dtype, each the square root of
    one BLAS dot of its slice with itself, as `np.linalg.norm` takes it. A
    norm over the whole stack would round differently."""
    rows, cols = stack.shape[-2:]
    flat = stack.reshape(-1, 1, rows * cols)
    return np.sqrt(flat @ flat.swapaxes(-1, -2)).reshape(stack.shape[:-2] + (1, 1))


def _muon_direction(momentum: np.ndarray, spec: OptimizerSpec) -> np.ndarray:
    """Unscaled update direction of each (m, n) slice of a momentum stack
    (..., m, n); one matrix is a stack of one (array core)."""
    # Each slice's norm is also its NS divisor, whose dtype sets the f32
    # rounding.
    norm = _slice_norms(momentum)
    zero = norm.astype(F64) < _ZERO_MOMENTUM_TOL
    zero_count = np.count_nonzero(zero)
    if zero_count == zero.size:
        return np.zeros_like(momentum)
    if spec.exact_msign:
        rows, cols = momentum.shape[-2:]
        u = np.stack([
            np.zeros_like(s) if z
            else msign_exact(Matrix(s.astype(F64))).a.astype(s.dtype, copy=False)
            for s, z in zip(momentum.reshape(-1, rows, cols), zero.flat)
        ]).reshape(momentum.shape)
    elif spec.momentum_only:
        # Zero slices divide by 1 here and are zeroed below.
        u = momentum / np.where(zero, 1, norm)
    else:
        u = _ns_orthogonalize(momentum / (norm + _NORM_EPS),
                              COEFF_PRESETS[spec.coeffs], spec.k_iters)
    if zero_count:
        u[zero.reshape(momentum.shape[:-2])] = 0.0
    return u


def _rms_scale(spec: OptimizerSpec, u: np.ndarray):
    """Scale of the directions ``u`` (..., m, n): a float, or one per slice
    (shaped to broadcast) under ``dynamic_rms``."""
    if not spec.rms_matching:
        return 1.0
    rows, cols = u.shape[-2:]
    if spec.dynamic_rms:
        target = spec.rms_factor * math.sqrt(rows * cols)
        norm = _slice_norms(u).astype(F64)
        with np.errstate(divide="ignore"):
            return np.where(norm == 0, 0, target / norm).astype(u.dtype)
    n = cols if spec.rms_dim == "fan-out" else max(rows, cols)
    return spec.rms_factor * math.sqrt(n)


def _into(op: np.ufunc, a: np.ndarray, b) -> np.ndarray:
    """``op(a, b)``, written over ``a`` (a fresh temporary of the caller's)
    where ``b`` casts safely to ``a``'s dtype: a Python scalar always does
    (NEP 50), a numpy scalar only as its dtype does."""
    return op(a, b, out=a if getattr(b, "dtype", a.dtype) <= a.dtype else None)


def _muon_core(w: np.ndarray, g: np.ndarray, momentum: np.ndarray,
               spec: OptimizerSpec, eta_t, weight_decay,
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One Muon step on raw arrays; returns (new_w, new_momentum, update).

    The arrays are one matrix or a stack (R, m, n) of them; ``eta_t`` and
    ``weight_decay`` are floats or per-run arrays that broadcast. It
    writes only its own temporaries, with the bytes of
    ``eta_t * (scale * u + weight_decay * w)``.
    """
    momentum = _into(np.add, spec.beta * momentum, (1.0 - spec.beta) * g)
    update = _muon_direction(momentum, spec)  # a fresh array
    update = _into(np.multiply, update, _rms_scale(spec, update))
    update = _into(np.add, update, weight_decay * w)
    update = _into(np.multiply, update, eta_t)
    return w - update, momentum, update


def _adamw_core(w: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray,
                step_count: int, spec: OptimizerSpec, eta_t, weight_decay,
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, np.ndarray]:
    """One AdamW step on raw arrays, with the AdamW fields of ``spec``;
    returns (new_w, m, v, t, update).

    Elementwise, so the arrays may be stacks and ``eta_t`` and
    ``weight_decay`` per-run arrays that broadcast.
    """
    beta1, beta2 = spec.beta1, spec.beta2
    t = step_count + 1
    m = beta1 * m + (1.0 - beta1) * g
    v = beta2 * v + (1.0 - beta2) * (g * g)
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    update = eta_t * (m_hat / (np.sqrt(v_hat) + spec.eps) + weight_decay * w)
    return w - update, m, v, t, update


def muon_step(w: Matrix, g: Matrix, state: MuonState, spec: OptimizerSpec,
              eta_t: float) -> tuple[Matrix, MuonState]:
    """One Muon update; returns the new weights and the new state. It reads
    the Muon fields of ``spec``, whatever its ``kind``.

    When the momentum Frobenius norm falls below 1e-12 the update direction
    is the zero matrix (weight decay still applies).
    """
    if w.shape != g.shape or w.shape != state.momentum.shape:
        raise ShapeError(
            f"w {w.shape}, g {g.shape}, momentum {state.momentum.shape} must match"
        )
    _require(0.0 <= eta_t < math.inf, "eta_t", "be finite and >= 0", eta_t)
    new_w, new_mom, _ = _muon_core(w.a, g.a, state.momentum.a, spec, eta_t,
                                   spec.weight_decay)
    return Matrix(new_w), MuonState(momentum=Matrix(new_mom))


def adamw_step(w: Matrix, g: Matrix, state: AdamWState, spec: OptimizerSpec,
               eta_t: float) -> tuple[Matrix, AdamWState]:
    """One bias-corrected AdamW update with decoupled weight decay. It reads
    the AdamW fields and ``weight_decay`` of ``spec``, whatever its
    ``kind``."""
    if w.shape != g.shape or w.shape != state.m.shape:
        raise ShapeError(f"w {w.shape}, g {g.shape}, state {state.m.shape} must match")
    _require(0.0 <= eta_t < math.inf, "eta_t", "be finite and >= 0", eta_t)
    new_w, m, v, t, _ = _adamw_core(
        w.a, g.a, state.m.a, state.v.a, state.step_count, spec, eta_t,
        spec.weight_decay,
    )
    return Matrix(new_w), AdamWState(m=Matrix(m), v=Matrix(v), step_count=t)


def shampoo_direction(g: Matrix) -> np.ndarray:
    """(G G^T)^{-1/4} G (G^T G)^{-1/4} via the SVD oracle (f64).

    Fourth roots are Moore-Penrose on the thin factors; the input must have
    full rank. Exists to cross-check the beta = 0 equivalence with msign.
    """
    res = svd(g)
    if res.rank < min(g.rows, g.cols):
        raise DegenerateInputError(
            f"shampoo oracle requires full rank, got rank {res.rank} for {g.shape}"
        )
    s_inv_quarter = np.asarray(res.singular_values, dtype=F64) ** -0.5
    u, v = res.u.a, res.v.a
    left = (u * s_inv_quarter) @ u.T
    right = (v * s_inv_quarter) @ v.T
    return left @ g.a.astype(F64) @ right


def shampoo_step_oracle(w: Matrix, g: Matrix, eta_t: float) -> Matrix:
    """One Shampoo step with exact inverse fourth roots (no preconditioner state)."""
    if w.shape != g.shape:
        raise ShapeError(f"w {w.shape} and g {g.shape} must match")
    _require(0.0 <= eta_t < math.inf, "eta_t", "be finite and >= 0", eta_t)
    return Matrix(w.a.astype(F64) - eta_t * shampoo_direction(g), dtype=w.dtype)


def _sum_left(values: Iterable[float]) -> float:
    """Float sum folded left to right in f64. The built-in ``sum``
    compensates its rounding from Python 3.12 on; this gives the same
    bytes on every version."""
    total = 0.0
    for v in values:
        total += v
    return total


def _sum_squares(stacks: Iterable[np.ndarray]) -> np.ndarray:
    """Per run of (R, ...) stacks, the f64 sum of squares of its entries:
    each run's sum over a stack (squared into one fresh C-contiguous f64
    array) is its slice's ``np.sum`` bit for bit, and the stacks fold left
    to right. ``np.add.reduce`` is the reduction ``np.sum`` calls, without
    its Python wrapper."""
    total = 0.0
    for g in stacks:
        total = total + np.add.reduce(np.square(g, dtype=F64, order="C"),
                                      axis=tuple(range(1, g.ndim)))
    return total


def _clip_grad_arrays(grads: dict[str, np.ndarray], max_norm: float,
                      total: float | None = None,
                      ) -> tuple[dict[str, np.ndarray], float]:
    """Global clip of one run's gradients; returns (clipped, pre-clip norm).

    ``total`` is the pre-clip norm where the caller has taken it already.
    Unclipped gradients come back as the same dict object.
    """
    if total is None:
        total = math.sqrt(_sum_squares(g[None] for g in grads.values())[0])
    if total <= max_norm or total == 0.0:
        return grads, total
    factor = max_norm / total
    return {k: g * factor for k, g in grads.items()}, total


def clip_global_norm(grads: Sequence[Matrix], max_norm: float) -> list[Matrix]:
    """Jointly rescale gradients so their global L2 norm is at most max_norm."""
    _require(max_norm > 0.0, "max_norm", "be positive", max_norm)
    grads = list(grads)
    arrays = {i: g.a for i, g in enumerate(grads)}
    clipped, _ = _clip_grad_arrays(arrays, max_norm)
    if clipped is arrays:
        return grads
    return [Matrix(a) for a in clipped.values()]


def route_parameter(shape) -> Literal["muon", "adamw"]:
    """Muon for genuinely 2-D parameters, AdamW for vectors and degenerate mats.

    Accepts an int (vector length) or a shape tuple. 1-D parameters and
    1 x n / m x 1 matrices route to AdamW; anything higher-dimensional is
    unsupported at desk scale.
    """
    if isinstance(shape, (int, np.integer)):
        return "adamw"
    shape = tuple(shape)
    if len(shape) == 1:
        return "adamw"
    if len(shape) == 2:
        return "muon" if shape[0] >= 2 and shape[1] >= 2 else "adamw"
    raise ShapeError(f"unsupported parameter shape {shape}")


class OptimizerBank:
    """Per-parameter optimizer states with shape-based routing, for a stack
    of runs that share every hyperparameter but the learning rate and the
    weight decay.

    The matrices `route_parameter` sends to Muon run ``spec.kind`` (Muon
    with the spec's Muon fields); the rest run AdamW with the spec's betas
    and eps. Every parameter, gradient and state carries a leading
    run axis and the bank's dtype, and `step` takes one ``eta_t`` per
    run. Run r's Muon-routable matrices decay by ``run_decays[r]``; the
    rest take no decay. Each run's slices are the bytes of a stack of one.
    """

    def __init__(self, shapes: dict[str, tuple[int, ...]], spec: OptimizerSpec,
                 run_decays: Sequence[float], dtype=F64):
        _require(bool(run_decays) and all(0.0 <= d < math.inf for d in run_decays),
                 "run_decays", "be nonempty, finite and >= 0", run_decays)
        self._spec = spec
        self._dtype = dtype
        self._decay = np.array(run_decays, dtype=dtype)
        self._decayed = {name for name, shape in shapes.items()
                         if route_parameter(shape) == "muon"}
        self._mom: dict[str, np.ndarray] = {}
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._t = 0  # steps taken; every AdamW parameter steps on each one
        self._updates: list[np.ndarray] = []  # the last step's, per parameter
        self._state_scalars = 0
        for name, shape in shapes.items():
            stacked = (len(self._decay), *shape)
            if name in self._decayed and spec.kind == "muon":
                self._mom[name] = np.zeros(stacked, dtype=dtype)
                self._state_scalars += math.prod(shape)
            else:
                self._m[name] = np.zeros(stacked, dtype=dtype)
                self._v[name] = np.zeros(stacked, dtype=dtype)
                self._state_scalars += 2 * math.prod(shape)

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
             eta_t: Sequence[float]) -> dict[str, np.ndarray]:
        """Apply one update to every parameter stack; returns the new dict."""
        eta = np.array(eta_t, dtype=self._dtype)
        t = self._t
        self._t += 1
        new_params: dict[str, np.ndarray] = {}
        updates = []
        for name, w in params.items():
            g = grads[name]
            # Per-run scalars shaped to broadcast against the (R, ...) stack.
            col = (-1,) + (1,) * (w.ndim - 1)
            decay = self._decay.reshape(col) if name in self._decayed else 0.0
            if name in self._mom:
                new_w, self._mom[name], update = _muon_core(
                    w, g, self._mom[name], self._spec, eta.reshape(col), decay)
            else:
                new_w, self._m[name], self._v[name], _, update = _adamw_core(
                    w, g, self._m[name], self._v[name], t, self._spec,
                    eta.reshape(col), decay,
                )
            new_params[name] = new_w
            updates.append(update)
        self._updates = updates
        return new_params

    @property
    def last_update_rms(self) -> np.ndarray:
        """Per run: the RMS of the last step's update over all parameters
        (zeros before the first step), computed when read."""
        count = sum(math.prod(u.shape[1:]) for u in self._updates)
        if not count:
            return np.zeros(len(self._decay))
        with np.errstate(all="ignore"):
            return np.sqrt(_sum_squares(self._updates) / count)

    def select(self, keep: Sequence[int]) -> None:
        """Keep only the runs at stack positions ``keep``, in that order."""
        for bufs in (self._mom, self._m, self._v):
            for name in bufs:
                bufs[name] = bufs[name][keep]
        self._decay = self._decay[keep]
        self._updates = [u[keep] for u in self._updates]

    def state_scalar_count(self) -> int:
        """Auxiliary scalars held per run: momentum entries plus both moments."""
        return self._state_scalars
