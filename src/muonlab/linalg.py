"""Dense matrix type, seeded RNG, and the small linear-algebra kernels.

`Matrix` checks shape and finiteness on construction and carries the
one-matrix API (the public kernels and the reference steps); the training
path runs on raw numpy stacks through the array cores. The SVD here is the
exact-decomposition oracle the rest of the library is validated against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateInputError, NumericError, RangeError, ShapeError,
                     _require)

F32 = np.float32
F64 = np.float64

_DTYPES = {"f32": F32, "f64": F64}
_MASK64 = (1 << 64) - 1


def dtype_of(precision: str) -> np.dtype:
    """Map a precision label ('f32' or 'f64') to a numpy dtype."""
    if precision not in _DTYPES:
        raise RangeError(f"unknown precision {precision!r}, expected 'f32' or 'f64'")
    return np.dtype(_DTYPES[precision])


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _stable_hash(tag: str) -> int:
    # FNV-1a, so string tags derive the same child seed on every platform.
    h = 0xCBF29CE484222325
    for byte in tag.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    return h


class Rng:
    """Deterministic random stream seeded by a 64-bit integer.

    Backed by the counter-based Philox generator, so identical seeds yield
    identical streams regardless of platform or thread count. Streams are
    never shared across threads; derive independent children with `child`.
    """

    __slots__ = ("seed", "_gen")

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._gen = np.random.Generator(np.random.Philox(key=self.seed))

    def child(self, tag: int | str) -> "Rng":
        """Derive an independent stream keyed by an integer or string tag."""
        if isinstance(tag, str):
            tag_int = _stable_hash(tag)
        else:
            tag_int = int(tag) & _MASK64
        return Rng(_splitmix64(self.seed ^ _splitmix64(tag_int)))

    def normal(self, shape, scale: float = 1.0) -> np.ndarray:
        out = self._gen.standard_normal(size=shape)
        if scale != 1.0:
            out *= scale
        return out

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        return self._gen.uniform(low, high, size=size)

    def integers(self, low: int, high: int, size=None):
        return self._gen.integers(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def unit_vector(self, n: int) -> np.ndarray:
        v = self._gen.standard_normal(n)
        norm = float(np.linalg.norm(v))
        while norm == 0.0:  # probability zero, but keep the contract total
            v = self._gen.standard_normal(n)
            norm = float(np.linalg.norm(v))
        return v / norm


class Matrix:
    """Immutable 2-D real matrix, row-major, f32 or f64.

    Entries are verified finite on construction, which means every kernel
    that returns a `Matrix` re-establishes the invariant.
    """

    __slots__ = ("_a",)

    def __init__(self, data, dtype=None):
        a = np.array(data, order="C", copy=True)
        if a.ndim != 2:
            raise ShapeError(f"matrix must be 2-D, got {a.ndim}-D")
        if a.shape[0] < 1 or a.shape[1] < 1:
            raise ShapeError(f"matrix dimensions must be positive, got {a.shape}")
        if dtype is None:
            dtype = a.dtype if a.dtype in (F32, F64) else F64
        elif dtype not in (F32, F64):
            raise ShapeError(f"unsupported dtype {dtype!r}, expected f32 or f64")
        a = a.astype(dtype, copy=False)
        if not np.all(np.isfinite(a)):
            raise NumericError("matrix entries must be finite")
        a.setflags(write=False)
        self._a = a

    @property
    def a(self) -> np.ndarray:
        """The backing (read-only) numpy array."""
        return self._a

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._a.shape

    @property
    def dtype(self):
        return self._a.dtype

    def astype(self, dtype) -> "Matrix":
        return Matrix(self._a, dtype=dtype)

    def transpose(self) -> "Matrix":
        # Explicit copy: no lazy transpose views at this layer.
        return Matrix(np.ascontiguousarray(self._a.T))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        return matmul(self, other)

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other, "add")
        return Matrix(self._a + other._a)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other, "subtract")
        return Matrix(self._a - other._a)

    def __mul__(self, scalar) -> "Matrix":
        if not np.isscalar(scalar):
            return NotImplemented
        return Matrix(self._a * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "Matrix":
        return Matrix(-self._a)

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols}, {self._a.dtype})"

    def _check_same_shape(self, other: "Matrix", verb: str) -> None:
        if not isinstance(other, Matrix):
            raise ShapeError(f"cannot {verb} Matrix and {type(other).__name__}")
        if self.shape != other.shape:
            raise ShapeError(f"cannot {verb} {self.shape} and {other.shape}")

    @staticmethod
    def zeros(rows: int, cols: int, dtype=F64) -> "Matrix":
        return Matrix(np.zeros((rows, cols)), dtype=dtype)

    @staticmethod
    def identity(n: int, dtype=F64) -> "Matrix":
        return Matrix(np.eye(n), dtype=dtype)

    @staticmethod
    def diag(values, dtype=F64) -> "Matrix":
        return Matrix(np.diag(np.asarray(values, dtype=F64)), dtype=dtype)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """Matrix product a @ b."""
    if a.cols != b.rows:
        raise ShapeError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    return Matrix(a.a @ b.a)


def frobenius_norm(a: Matrix) -> float:
    """Square root of the sum of squared entries."""
    return float(np.linalg.norm(a.a))


def trace(a: Matrix) -> float:
    if a.rows != a.cols:
        raise ShapeError(f"trace requires a square matrix, got {a.shape}")
    return float(np.trace(a.a))


def spectral_norm_estimate(a: Matrix, iters: int = 200, rng: Rng | None = None) -> float:
    """Largest singular value, estimated by power iteration on the Gram matrix.

    The start vector comes from `rng` (seed 0 stream if omitted), so the
    estimate is deterministic. The result is clamped to the Frobenius norm,
    which the true spectral norm never exceeds; this keeps the inequality
    exact even at the rank-one equality case where rounding could wobble.
    """
    if iters < 1:
        raise RangeError(f"iters must be >= 1, got {iters}")
    if rng is None:
        rng = Rng(0)
    arr = a.a.astype(F64, copy=False)
    fro = float(np.linalg.norm(arr))
    if fro == 0.0:
        return 0.0
    v = rng.unit_vector(arr.shape[1])
    for _ in range(iters):
        w = arr @ v
        v = arr.T @ w
        norm = float(np.linalg.norm(v))
        if norm == 0.0:
            # Start vector fell in the null space; redraw and continue.
            v = rng.unit_vector(arr.shape[1])
            continue
        v /= norm
    est = float(np.linalg.norm(arr @ v))
    return min(est, fro)


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD truncated at the rank tolerance: a ~= u @ diag(s) @ v.T."""

    u: Matrix
    singular_values: tuple[float, ...]
    v: Matrix
    rank: int

    def __post_init__(self):
        s = self.singular_values
        if len(s) != self.rank or self.rank < 1:
            raise ShapeError("singular value count must equal rank >= 1")
        if any(x <= 0.0 for x in s):
            raise NumericError("singular values must be positive")
        if any(s[i] < s[i + 1] for i in range(len(s) - 1)):
            raise NumericError("singular values must be nonincreasing")
        if self.u.cols != self.rank or self.v.cols != self.rank:
            raise ShapeError("factor column counts must equal rank")


_ORTHO_TOL = 1e-10


def svd(a: Matrix, rank_tol: float | None = None) -> SvdResult:
    """Thin SVD of a nonzero matrix, computed in f64.

    Singular values at or below ``rank_tol * sigma_max`` are truncated;
    the default tolerance is ``max(rows, cols) * machine_eps``. Backed by
    LAPACK (with a transpose retry on the rare non-convergence), which gives
    the oracle role better robustness and speed than an in-house iteration.
    Orthonormality of the returned factors is verified to 1e-10.
    """
    _require(rank_tol is None or rank_tol >= 0.0, "rank_tol", "be >= 0", rank_tol)
    arr = a.a.astype(F64, copy=False)
    if not arr.any():
        raise DegenerateInputError("svd of the zero matrix is undefined")
    try:
        u, s, vt = np.linalg.svd(arr, full_matrices=False)
    except np.linalg.LinAlgError:
        try:
            ut, s, vtt = np.linalg.svd(arr.T, full_matrices=False)
        except np.linalg.LinAlgError as exc:
            raise NumericError("SVD failed to converge (both orientations)") from exc
        u, vt = vtt.T, ut.T
    smax = float(s[0])
    if rank_tol is None:
        rank_tol = max(a.rows, a.cols) * float(np.finfo(F64).eps)
    rank = int(np.sum(s > rank_tol * smax))
    if rank < 1:
        raise DegenerateInputError("rank tolerance truncates every singular value")
    u, s, vt = u[:, :rank], s[:rank], vt[:rank, :]
    for f in (u, vt.T):
        err = float(np.max(np.abs(f.T @ f - np.eye(rank))))
        if err > _ORTHO_TOL:
            raise NumericError(f"SVD factor lost orthonormality ({err:.3e})")
    return SvdResult(
        u=Matrix(u),
        singular_values=tuple(float(x) for x in s),
        v=Matrix(np.ascontiguousarray(vt.T)),
        rank=rank,
    )
