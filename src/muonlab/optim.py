"""Muon and AdamW updates, the LR schedule, gradient clipping, and routing.

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

from .errors import (ConfigError, DegenerateInputError, NumericError, RangeError,
                     ShapeError)
from .linalg import F64, Matrix, svd
from .msign import (
    NsCoefficients,
    OPTIMIZED_COEFFS,
    _ns_orthogonalize,
    msign_exact,
)

_ZERO_MOMENTUM_TOL = 1e-12
_NORM_EPS = 1e-12


@dataclass(frozen=True)
class MuonHyper:
    """Muon hyperparameters.

    ``rms_dim`` picks which dimension enters the 0.2 * sqrt(n) scale:
    'fan-out' uses the second dimension (parameters are fan_in x fan_out),
    'max' uses max(rows, cols). ``momentum_only`` and ``dynamic_rms`` exist
    for ablation cells: the former skips orthogonalization and uses the
    Frobenius-normalized momentum, the latter rescales each update so its
    realized RMS equals ``rms_factor`` exactly. ``weight_decay`` is the
    decay of `muon_step`; `OptimizerBank` takes one decay per run instead.
    """

    eta0: float
    weight_decay: float = 0.1
    beta: float = 0.9
    k_iters: int = 5
    coeffs: NsCoefficients = OPTIMIZED_COEFFS
    rms_factor: float = 0.2
    rms_matching: bool = True
    rms_dim: Literal["fan-out", "max"] = "fan-out"
    exact_msign: bool = False
    momentum_only: bool = False
    dynamic_rms: bool = False

    def __post_init__(self):
        if self.eta0 <= 0.0:
            raise RangeError(f"eta0 must be positive, got {self.eta0}")
        if self.weight_decay < 0.0:
            raise RangeError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if not 0.0 <= self.beta < 1.0:
            raise RangeError(f"beta must lie in [0, 1), got {self.beta}")
        if self.k_iters < 1:
            raise RangeError(f"k_iters must be >= 1, got {self.k_iters}")
        if self.rms_factor <= 0.0:
            raise RangeError(f"rms_factor must be positive, got {self.rms_factor}")
        if self.rms_dim not in ("fan-out", "max"):
            raise RangeError(f"rms_dim must be 'fan-out' or 'max', got {self.rms_dim!r}")


@dataclass(frozen=True)
class MuonState:
    """Per-parameter Muon state: the momentum buffer."""

    momentum: Matrix

    @staticmethod
    def fresh(rows: int, cols: int, dtype=F64) -> "MuonState":
        return MuonState(momentum=Matrix.zeros(rows, cols, dtype=dtype))


@dataclass(frozen=True)
class AdamWState:
    """Per-parameter AdamW state: first/second moments and the step count."""

    m: Matrix
    v: Matrix
    step_count: int
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if self.m.shape != self.v.shape:
            raise ShapeError("moment buffers must share a shape")
        if self.step_count < 0:
            raise RangeError(f"step_count must be >= 0, got {self.step_count}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise RangeError("betas must lie in [0, 1)")
        if self.eps <= 0.0:
            raise RangeError(f"eps must be positive, got {self.eps}")
        if np.any(self.v.a < 0.0):
            raise NumericError("second moment must be nonnegative")

    @staticmethod
    def fresh(rows: int, cols: int, dtype=F64, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8) -> "AdamWState":
        zero = Matrix.zeros(rows, cols, dtype=dtype)
        return AdamWState(m=zero, v=zero, step_count=0,
                          beta1=beta1, beta2=beta2, eps=eps)


def _muon_direction(momentum: np.ndarray, hyper: MuonHyper) -> np.ndarray:
    """Unscaled update direction of each (m, n) slice of a momentum stack
    (..., m, n); one matrix is a stack of one (array core)."""
    slices = momentum.reshape(-1, *momentum.shape[-2:])
    # Per-slice BLAS norms, numpy scalars of the momentum's dtype: each is
    # also its slice's NS divisor, whose dtype sets the f32 rounding. A
    # norm over the whole stack would round differently.
    norms = [np.linalg.norm(s) for s in slices]
    zero = [float(n) < _ZERO_MOMENTUM_TOL for n in norms]
    if all(zero):
        return np.zeros_like(momentum)
    if hyper.exact_msign:
        u = np.stack([
            np.zeros_like(s) if z
            else msign_exact(Matrix(s.astype(F64))).a.astype(s.dtype, copy=False)
            for s, z in zip(slices, zero)
        ]).reshape(momentum.shape)
    else:
        norm = np.array(norms, dtype=momentum.dtype).reshape(
            momentum.shape[:-2] + (1, 1))
        if hyper.momentum_only:
            # Zero slices divide by 1 here and are zeroed below.
            u = momentum / np.where(np.reshape(zero, norm.shape), 1, norm)
        else:
            u = _ns_orthogonalize(momentum / (norm + _NORM_EPS), hyper.coeffs,
                                  hyper.k_iters)
    if any(zero):
        u[np.reshape(zero, momentum.shape[:-2])] = 0.0
    return u


def _rms_scale(hyper: MuonHyper, u: np.ndarray):
    """Scale of the directions ``u`` (..., m, n): a float, or one per slice
    (shaped to broadcast) under ``dynamic_rms``."""
    if not hyper.rms_matching:
        return 1.0
    rows, cols = u.shape[-2:]
    if hyper.dynamic_rms:
        target = hyper.rms_factor * math.sqrt(rows * cols)
        unorms = [float(np.linalg.norm(s)) for s in u.reshape(-1, rows, cols)]
        scales = [0.0 if unorm == 0.0 else target / unorm for unorm in unorms]
        return np.array(scales, dtype=u.dtype).reshape(u.shape[:-2] + (1, 1))
    n = cols if hyper.rms_dim == "fan-out" else max(rows, cols)
    return hyper.rms_factor * math.sqrt(n)


def _muon_core(w: np.ndarray, g: np.ndarray, momentum: np.ndarray,
               hyper: MuonHyper, eta_t, weight_decay,
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One Muon step on raw arrays; returns (new_w, new_momentum, update).

    The arrays are one matrix or a stack (R, m, n) of them; ``eta_t`` and
    ``weight_decay`` are floats or per-run arrays that broadcast.
    """
    momentum = hyper.beta * momentum + (1.0 - hyper.beta) * g
    u = _muon_direction(momentum, hyper)
    update = eta_t * (_rms_scale(hyper, u) * u + weight_decay * w)
    return w - update, momentum, update


def _adamw_core(w: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray,
                step_count: int, beta1: float, beta2: float, eps: float,
                eta_t, weight_decay,
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, np.ndarray]:
    """One AdamW step on raw arrays; returns (new_w, m, v, t, update).

    Elementwise, so the arrays may be stacks and ``eta_t`` and
    ``weight_decay`` per-run arrays that broadcast.
    """
    t = step_count + 1
    m = beta1 * m + (1.0 - beta1) * g
    v = beta2 * v + (1.0 - beta2) * (g * g)
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    update = eta_t * (m_hat / (np.sqrt(v_hat) + eps) + weight_decay * w)
    return w - update, m, v, t, update


def muon_step(w: Matrix, g: Matrix, state: MuonState, hyper: MuonHyper,
              eta_t: float) -> tuple[Matrix, MuonState]:
    """One Muon update; returns the new weights and the new state.

    When the momentum Frobenius norm falls below 1e-12 the update direction
    is the zero matrix (weight decay still applies).
    """
    if w.shape != g.shape or w.shape != state.momentum.shape:
        raise ShapeError(
            f"w {w.shape}, g {g.shape}, momentum {state.momentum.shape} must match"
        )
    if eta_t < 0.0:
        raise RangeError(f"eta_t must be >= 0, got {eta_t}")
    new_w, new_mom, _ = _muon_core(w.a, g.a, state.momentum.a, hyper, eta_t,
                                   hyper.weight_decay)
    return Matrix(new_w), MuonState(momentum=Matrix(new_mom))


def adamw_step(w: Matrix, g: Matrix, state: AdamWState, eta_t: float,
               weight_decay: float) -> tuple[Matrix, AdamWState]:
    """One bias-corrected AdamW update with decoupled weight decay."""
    if w.shape != g.shape or w.shape != state.m.shape:
        raise ShapeError(f"w {w.shape}, g {g.shape}, state {state.m.shape} must match")
    if eta_t < 0.0:
        raise RangeError(f"eta_t must be >= 0, got {eta_t}")
    if weight_decay < 0.0:
        raise RangeError(f"weight_decay must be >= 0, got {weight_decay}")
    new_w, m, v, t, _ = _adamw_core(
        w.a, g.a, state.m.a, state.v.a, state.step_count,
        state.beta1, state.beta2, state.eps, eta_t, weight_decay,
    )
    new_state = AdamWState(m=Matrix(m), v=Matrix(v), step_count=t,
                           beta1=state.beta1, beta2=state.beta2, eps=state.eps)
    return Matrix(new_w), new_state


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
    if eta_t < 0.0:
        raise RangeError(f"eta_t must be >= 0, got {eta_t}")
    return Matrix(w.a.astype(F64) - eta_t * shampoo_direction(g), dtype=w.dtype)


SCHEDULE_KINDS = ("cosine-with-linear-warmup", "inverse-sqrt")


@dataclass(frozen=True)
class Schedule:
    """Per-step learning rate: cosine decay with linear warmup, or eta0/sqrt(t).

    ``warmup_fraction`` accepts [0, 0.02]; 0.005 to 0.02 is the recommended
    band, 0 disables warmup. The inverse-sqrt kind ignores warmup and exists
    for the convergence-rate check.
    """

    eta0: float
    total_steps: int
    warmup_fraction: float = 0.01
    kind: str = "cosine-with-linear-warmup"
    eta_min_fraction: float = 0.0

    def __post_init__(self):
        if self.eta0 <= 0.0:
            raise RangeError(f"eta0 must be positive, got {self.eta0}")
        if self.total_steps < 1:
            raise RangeError(f"total_steps must be >= 1, got {self.total_steps}")
        if not 0.0 <= self.warmup_fraction <= 0.02:
            raise RangeError(
                f"warmup_fraction must lie in [0, 0.02], got {self.warmup_fraction}"
            )
        if not 0.0 <= self.eta_min_fraction <= 0.01:
            raise RangeError(
                f"eta_min_fraction must lie in [0, 0.01], got {self.eta_min_fraction}"
            )
        if self.kind not in SCHEDULE_KINDS:
            raise RangeError(f"unknown schedule kind {self.kind!r}")

    @property
    def warmup_steps(self) -> int:
        return int(round(self.warmup_fraction * self.total_steps))


def schedule_eta(sched: Schedule, step: int) -> float:
    """Learning rate at an integer step in [0, total_steps]."""
    if not 0 <= step <= sched.total_steps:
        raise RangeError(
            f"step must lie in [0, {sched.total_steps}], got {step}"
        )
    if sched.kind == "inverse-sqrt":
        return sched.eta0 / math.sqrt(max(step, 1))
    ws = sched.warmup_steps
    if ws > 0 and step <= ws:
        return sched.eta0 * (step / ws)
    if sched.total_steps == ws:
        return sched.eta0
    progress = (step - ws) / (sched.total_steps - ws)
    eta_min = sched.eta0 * sched.eta_min_fraction
    return eta_min + (sched.eta0 - eta_min) * 0.5 * (1.0 + math.cos(math.pi * progress))


def _sum_left(values: Iterable[float]) -> float:
    """Float sum folded left to right in f64. The built-in ``sum``
    compensates its rounding from Python 3.12 on; this gives the same
    bytes on every version."""
    total = 0.0
    for v in values:
        total += v
    return total


def _global_norm(arrays: Iterable[np.ndarray]) -> float:
    """L2 norm of all entries together, accumulated in f64 array by array."""
    return math.sqrt(_sum_left(float(np.sum(g.astype(F64) ** 2)) for g in arrays))


def _clip_grad_arrays(grads: dict[str, np.ndarray], max_norm: float,
                      ) -> tuple[dict[str, np.ndarray], float]:
    """Array-core global clip; returns (clipped grads, pre-clip global norm).

    Unclipped gradients come back as the same dict object.
    """
    total = _global_norm(grads.values())
    if total <= max_norm or total == 0.0:
        return grads, total
    factor = max_norm / total
    return {k: g * factor for k, g in grads.items()}, total


def clip_global_norm(grads: Sequence[Matrix], max_norm: float) -> list[Matrix]:
    """Jointly rescale gradients so their global L2 norm is at most max_norm."""
    if max_norm <= 0.0:
        raise RangeError(f"max_norm must be positive, got {max_norm}")
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

    ``matrix_rule`` picks the optimizer for 2-D parameters ('muon' or
    'adamw'); vectors always run AdamW. Every parameter, gradient and
    state carries a leading run axis and the bank's dtype, and `step`
    takes one ``eta_t`` per run. Run r's matrices decay by
    ``run_decays[r]`` (not by ``muon.weight_decay``); vectors (biases)
    take no decay. Each run's slices are the bytes of a stack of one.
    """

    def __init__(self, shapes: dict[str, tuple[int, ...]],
                 matrix_rule: Literal["muon", "adamw"],
                 run_decays: Sequence[float],
                 muon: MuonHyper | None = None,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8,
                 dtype=F64):
        if matrix_rule not in ("muon", "adamw"):
            raise RangeError(f"matrix_rule must be 'muon' or 'adamw', got {matrix_rule!r}")
        if matrix_rule == "muon" and muon is None:
            raise RangeError("matrix_rule 'muon' requires MuonHyper")
        if not run_decays or min(run_decays) < 0.0:
            raise RangeError(f"run_decays must be nonempty and >= 0, got {run_decays}")
        self.muon = muon
        self._dtype = dtype
        self._betas = (beta1, beta2, eps)
        self._decay = np.array(run_decays, dtype=dtype)
        self._route: dict[str, str] = {}
        self._decayed: set[str] = set()
        self._mom: dict[str, np.ndarray] = {}
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._t: dict[str, int] = {}
        # Per run: the RMS of the last step's update over all parameters.
        self.last_update_rms = np.zeros(len(self._decay))
        self._state_scalars = 0
        for name, shape in shapes.items():
            stacked = (len(self._decay), *shape)
            if len(shape) == 2 and min(shape) >= 2:
                self._decayed.add(name)
            if route_parameter(shape) == "muon" and matrix_rule == "muon":
                self._route[name] = "muon"
                self._mom[name] = np.zeros(stacked, dtype=dtype)
                self._state_scalars += math.prod(shape)
            else:
                self._route[name] = "adamw"
                self._m[name] = np.zeros(stacked, dtype=dtype)
                self._v[name] = np.zeros(stacked, dtype=dtype)
                self._t[name] = 0
                self._state_scalars += 2 * math.prod(shape)

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
             eta_t: Sequence[float]) -> dict[str, np.ndarray]:
        """Apply one update to every parameter stack; returns the new dict."""
        beta1, beta2, eps = self._betas
        eta = np.array(eta_t, dtype=self._dtype)
        new_params: dict[str, np.ndarray] = {}
        update_sq = np.zeros(len(eta))
        count = 0
        for name, w in params.items():
            g = grads[name]
            # Per-run scalars shaped to broadcast against the (R, ...) stack.
            col = (-1,) + (1,) * (w.ndim - 1)
            decay = self._decay.reshape(col) if name in self._decayed else 0.0
            if self._route[name] == "muon":
                new_w, new_mom, update = _muon_core(w, g, self._mom[name], self.muon,
                                                    eta.reshape(col), decay)
                self._mom[name] = new_mom
            else:
                new_w, m, v, t, update = _adamw_core(
                    w, g, self._m[name], self._v[name], self._t[name],
                    beta1, beta2, eps, eta.reshape(col), decay,
                )
                self._m[name], self._v[name], self._t[name] = m, v, t
            new_params[name] = new_w
            # A fresh C-contiguous stack: each run's sum is its slice's
            # np.sum, bit for bit.
            update_sq += np.sum(update.astype(F64) ** 2,
                                axis=tuple(range(1, update.ndim)))
            count += update[0].size
        self.last_update_rms = np.sqrt(update_sq / count) if count else update_sq
        return new_params

    def select(self, keep: Sequence[int]) -> None:
        """Keep only the runs at stack positions ``keep``, in that order."""
        for bufs in (self._mom, self._m, self._v):
            for name in bufs:
                bufs[name] = bufs[name][keep]
        self._decay = self._decay[keep]
        self.last_update_rms = self.last_update_rms[keep]

    def state_scalar_count(self) -> int:
        """Auxiliary scalars held per run: momentum entries plus both moments."""
        return self._state_scalars


@dataclass(frozen=True)
class OptimizerSpec:
    """JSON-friendly optimizer description used by run configurations.

    ``kind`` selects the optimizer for matrix parameters; vector parameters
    always run AdamW. The Muon-specific fields are ignored for AdamW runs
    and vice versa.
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
        if self.kind not in ("muon", "adamw"):
            raise RangeError(f"optimizer kind must be 'muon' or 'adamw', got {self.kind!r}")
        # Every run has AdamW moments (vectors always take AdamW); the keys
        # are named as in the config's optimizer section.
        for key in ("beta1", "beta2"):
            value = getattr(self, key)
            if not 0.0 <= value < 1.0:
                raise ConfigError(f"must lie in [0, 1), got {value!r}",
                                  key_path=f"optimizer.{key}")
        if not self.eps > 0.0:
            raise ConfigError(f"must be positive, got {self.eps!r}",
                              key_path="optimizer.eps")

    def muon_hyper(self) -> MuonHyper:
        from .msign import coefficient_preset

        return MuonHyper(
            eta0=self.eta0,
            weight_decay=self.weight_decay,
            beta=self.beta,
            k_iters=self.k_iters,
            coeffs=coefficient_preset(self.coeffs),
            rms_factor=self.rms_factor,
            rms_matching=self.rms_matching,
            rms_dim=self.rms_dim,
            exact_msign=self.exact_msign,
            momentum_only=self.momentum_only,
            dynamic_rms=self.dynamic_rms,
        )
