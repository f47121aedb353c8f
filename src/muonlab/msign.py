"""Matrix sign function: exact SVD route and the quintic Newton-Schulz route.

For a matrix M with thin SVD U diag(s) V^T, msign(M) = U V^T. The exact route
computes this from the SVD oracle. The iterative route runs K steps of the
odd quintic map

    X <- a*X + b*X(X^T X) + c*X(X^T X)^2

from X0 = M / ||M||_F, which acts on singular values only, pushing each toward
1 while leaving singular vectors fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, DegenerateInputError, RangeError, ShapeError,
                     _require)
from .linalg import F64, Matrix, svd


@dataclass(frozen=True)
class NsCoefficients:
    """Coefficient triple (a, b, c) of the quintic iteration step."""

    a: float
    b: float
    c: float


# Tuned for speed on small singular values: the slope at zero is a = 3.4445,
# at the price of a fixed point below one (a + b + c = 0.701).
OPTIMIZED_COEFFS = NsCoefficients(3.4445, -4.7750, 2.0315)

# Matched to the Taylor expansion of the inverse square root: monotone on
# [0, 1] with p(1) = 1 exactly, but much slower on small singular values.
TAYLOR_COEFFS = NsCoefficients(15.0 / 8.0, -5.0 / 4.0, 3.0 / 8.0)

COEFF_PRESETS = {
    "optimized": OPTIMIZED_COEFFS,
    "taylor": TAYLOR_COEFFS,
}

# Advertised target band for singular values after five "optimized" steps.
# The upper edge holds unconditionally (the iteration never exceeds ~1.2024);
# the lower edge is aspirational: the steady-state oscillation of the quintic
# map dips to ~0.6818, and inputs whose normalized singular values start
# below 0.7/a^5 ~ 1.44e-3 cannot reach 0.7 in five steps at all (per-step
# growth is capped at a*sigma). The envelope [p(t+), p(t-)] = [0.681831,
# 1.202369] comes in closed form from the critical points t = sqrt(u) of p,
# 5c*u^2 + 3b*u + a = 0; starts at or above 1.6e-3 land inside it
# (acceptance check 1 asserts this on the kernel).
SPECTRUM_BAND = (0.7, 1.3)


def coefficient_preset(label: str) -> NsCoefficients:
    try:
        return COEFF_PRESETS[label]
    except KeyError:
        raise ConfigError(
            f"unknown coefficient preset {label!r}, expected one of "
            f"{sorted(COEFF_PRESETS)}"
        ) from None


@dataclass(frozen=True)
class MsignReport:
    """Result of the iterative route, with optional spectrum diagnostics."""

    result: Matrix
    iterations_used: int
    singular_value_min: float | None = None
    singular_value_max: float | None = None
    deviation_from_oracle: float | None = None

    def __post_init__(self):
        lo, hi = self.singular_value_min, self.singular_value_max
        if lo is not None and hi is not None and lo > hi:
            raise RangeError(f"singular value bounds out of order: {lo} > {hi}")


def msign_exact(m: Matrix, rank_tol: float | None = None) -> Matrix:
    """Exact matrix sign via the SVD oracle: U[:, :r] @ V[:, :r].T.

    Equal to M (M^T M)^{-1/2} whenever M has full column rank. Raises
    DegenerateInputError on the zero matrix. The result matches the input
    precision; the decomposition itself runs in f64.
    """
    res = svd(m, rank_tol)
    out = res.u.a @ res.v.a.T
    return Matrix(out, dtype=m.dtype)


def newton_schulz_step(x: Matrix, coeffs: NsCoefficients) -> Matrix:
    """One quintic step a*X + b*X(X^T X) + c*X(X^T X)^2, exactly as written.

    Cost scales with cols^2 * rows; the iteration driver transposes wide
    inputs so the Gram product lives on the smaller side, but this single
    step applies the formula to the given orientation.
    """
    arr = x.a
    gram = arr.T @ arr
    return Matrix(coeffs.a * arr + arr @ (coeffs.b * gram + coeffs.c * (gram @ gram)))


def _ns_orthogonalize(x0: np.ndarray, coeffs: NsCoefficients,
                      k: int) -> np.ndarray:
    """Run k quintic steps from x0, already Frobenius-normalized by the
    caller (array core).

    ``x0`` is one (m, n) matrix or a stack (..., m, n) of them; a stack
    runs each slice through the same GEMM calls as that slice alone, so
    every slice's result is the bytes of its solo run.

    A wide input (m < n) iterates on its transpose, copied to C order on
    entry and back on exit: elementwise ops keep their operands' layout,
    so a transposed view would run every step strided. The Gram's right
    operand is a copy, because with one buffer on both sides numpy calls
    SYRK, about twice as slow as the copy and a GEMM on tall stacks, with
    the same bytes (``tests/test_msign.py`` pins them). The polynomial is
    evaluated in place on fresh temporaries; ``x0`` is never written.
    """
    transposed = x0.shape[-2] < x0.shape[-1]
    x = np.ascontiguousarray(x0.swapaxes(-1, -2)) if transposed else x0
    a, b, c = coeffs.a, coeffs.b, coeffs.c
    for _ in range(k):
        gram = x.swapaxes(-1, -2) @ x.copy()
        gg = gram @ gram
        gg *= c
        gram *= b
        gram += gg
        y = x @ gram
        x = a * x
        x += y
    return np.ascontiguousarray(x.swapaxes(-1, -2)) if transposed else x


def msign_newton_schulz(
    m: Matrix,
    coeffs: NsCoefficients = OPTIMIZED_COEFFS,
    k: int = 5,
    *,
    compute_spectrum: bool = False,
    compare_oracle: bool = False,
    rank_tol: float | None = None,
) -> MsignReport:
    """Approximate msign(M) with k quintic steps from X0 = M / ||M||_F.

    Scale-invariant in the input: msign_newton_schulz(c*M) equals
    msign_newton_schulz(M) for any c > 0, up to floating-point rescaling.
    With ``compute_spectrum`` the report carries min/max singular values of
    X_k from the SVD oracle; with ``compare_oracle`` it carries the relative
    Frobenius deviation from msign_exact(M).
    """
    _require(k >= 1, "k", "be >= 1", k)
    if not m.a.any():
        raise DegenerateInputError("msign of the zero matrix is undefined")
    x = _ns_orthogonalize(m.a / np.linalg.norm(m.a), coeffs, k)
    result = Matrix(x)
    smin = smax = deviation = None
    if compute_spectrum:
        spectrum = svd(result, rank_tol).singular_values
        smin, smax = spectrum[-1], spectrum[0]
    if compare_oracle:
        oracle = msign_exact(m, rank_tol).a.astype(F64)
        deviation = float(
            np.linalg.norm(x.astype(F64) - oracle) / np.linalg.norm(oracle)
        )
    return MsignReport(
        result=result,
        iterations_used=k,
        singular_value_min=smin,
        singular_value_max=smax,
        deviation_from_oracle=deviation,
    )


def quintic_orbit(t0: float, coeffs: NsCoefficients = OPTIMIZED_COEFFS,
                  k: int = 5) -> float:
    """Scalar orbit of the quintic map; what one singular value does."""
    _require(k >= 0, "k", "be >= 0", k)
    t = float(t0)
    for _ in range(k):
        t = coeffs.a * t + coeffs.b * t**3 + coeffs.c * t**5
    return t


def _band_excess(smin: float, smax: float,
                 band: tuple[float, float] = SPECTRUM_BAND) -> float | None:
    """How far the spectrum [smin, smax] reaches outside the open band (0.0
    when it touches an edge), or None when it lies inside."""
    lo, hi = band
    outside = max(lo - smin, smax - hi)
    return outside if outside >= 0.0 else None


def band_violation(m: Matrix, coeffs: NsCoefficients = OPTIMIZED_COEFFS,
                   k: int = 5, band: tuple[float, float] = SPECTRUM_BAND) -> tuple[bool, float, float]:
    """Check whether all singular values of X_k stay inside the open band.

    Returns (violated, sigma_min, sigma_max) for one input matrix.
    """
    report = msign_newton_schulz(m, coeffs, k, compute_spectrum=True)
    smin = report.singular_value_min
    smax = report.singular_value_max
    return (_band_excess(smin, smax, band) is not None, smin, smax)
