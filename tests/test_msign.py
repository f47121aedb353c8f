"""Matrix sign function: SVD oracle, Newton-Schulz iteration, spectrum facts.

Several tests pin measured behavior of the five-step quintic iteration with
the (3.4445, -4.7750, 2.0315) coefficients on generic inputs. The headline
numbers: the iteration's scalar map sends every normalized singular value
t0 >= 1.6e-3 into [0.6818, 1.2024] after five steps, so the often-quoted
(0.7, 1.3) enclosure fails on the low side for typical random matrices
while the upper edge holds with margin. Acceptance checks 1 and 5b assert
the spectral map, that envelope and the update RMS it implies, and report
the (0.7, 1.3) violations; here we pin the envelope on the scalar orbit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from muonlab.errors import ConfigError, DegenerateInputError, RangeError
from muonlab.linalg import Matrix, Rng, frobenius_norm, svd
from muonlab.msign import (
    OPTIMIZED_COEFFS,
    SPECTRUM_BAND,
    TAYLOR_COEFFS,
    _ns_orthogonalize,
    band_violation,
    coefficient_preset,
    msign_exact,
    msign_newton_schulz,
    newton_schulz_step,
    quintic_orbit,
)

# Frozen scalar-orbit values (five optimized steps from the given start).
T5_FROM_ONE = 0.6964364094697522        # rank-one case: t0 = 1
T5_FROM_EIGHTH = 0.6881398557760554     # orthogonal 64x64 case: t0 = 1/8
T5_FROM_INV_SQRT8 = 1.066967948472361   # orthogonal 8x8 case: t0 = 1/sqrt(8)


def scalar_quintic(t0: float, coeffs, k: int) -> float:
    """Independent reimplementation of the scalar orbit for cross-checking."""
    t = float(t0)
    for _ in range(k):
        t = coeffs.a * t + coeffs.b * t**3 + coeffs.c * t**5
    return t


def gram_inverse_sqrt_sign(m: np.ndarray) -> np.ndarray:
    """Oracle: M (M^T M)^{-1/2} through an eigendecomposition of the Gram."""
    gram = m.T @ m
    vals, vecs = np.linalg.eigh(gram)
    inv_sqrt = vecs @ np.diag(1.0 / np.sqrt(vals)) @ vecs.T
    return m @ inv_sqrt


class TestCoefficients:
    def test_optimized_triple(self):
        assert (OPTIMIZED_COEFFS.a, OPTIMIZED_COEFFS.b, OPTIMIZED_COEFFS.c) == (
            3.4445, -4.7750, 2.0315)

    def test_optimized_sum_is_not_one(self):
        # p(1) = a + b + c; these coefficients trade fixed-point accuracy at
        # 1 for faster small-value growth, so p(1) is well below 1.
        assert OPTIMIZED_COEFFS.a + OPTIMIZED_COEFFS.b + OPTIMIZED_COEFFS.c == \
            0.7009999999999996

    def test_taylor_triple_sums_to_one(self):
        assert (TAYLOR_COEFFS.a, TAYLOR_COEFFS.b, TAYLOR_COEFFS.c) == (
            1.875, -1.25, 0.375)
        assert TAYLOR_COEFFS.a + TAYLOR_COEFFS.b + TAYLOR_COEFFS.c == 1.0

    def test_preset_lookup(self):
        assert coefficient_preset("optimized") == OPTIMIZED_COEFFS
        assert coefficient_preset("taylor") == TAYLOR_COEFFS
        with pytest.raises(ConfigError):
            coefficient_preset("cubic")

    def test_band_constant(self):
        assert SPECTRUM_BAND == (0.7, 1.3)


class TestQuinticOrbit:
    def test_matches_independent_scalar_iteration(self):
        for t0 in (1.0, 0.5, 0.125, 0.01, 1e-3):
            got = quintic_orbit(t0)
            want = scalar_quintic(t0, OPTIMIZED_COEFFS, 5)
            assert got == want

    def test_frozen_values(self):
        assert quintic_orbit(1.0) == T5_FROM_ONE
        assert quintic_orbit(0.125) == T5_FROM_EIGHTH
        assert quintic_orbit(1.0 / math.sqrt(8.0)) == T5_FROM_INV_SQRT8

    def test_taylor_is_monotone_contraction_to_one(self):
        # 1.875 t - 1.25 t^3 + 0.375 t^5 is monotone on [0, 1] with fixed
        # point 1, so long orbits approach 1 from below without overshoot.
        ts = np.linspace(0.0, 1.0, 201)
        image = TAYLOR_COEFFS.a * ts + TAYLOR_COEFFS.b * ts**3 + TAYLOR_COEFFS.c * ts**5
        assert np.all(np.diff(image) > 0.0)
        assert np.all(image <= 1.0 + 1e-12)
        assert quintic_orbit(0.5, TAYLOR_COEFFS, k=30) == 1.0

    def test_k_zero_is_identity(self):
        assert quintic_orbit(0.37, k=0) == 0.37

    def test_negative_k_rejected(self):
        with pytest.raises(RangeError):
            quintic_orbit(0.5, k=-1)


class TestMsignExact:
    @pytest.mark.parametrize("rows,cols", [(6, 6), (10, 4), (4, 10)])
    def test_unit_spectrum(self, rows, cols, make_matrix):
        m = make_matrix(rows, cols, seed=rows * 10 + cols)
        s = np.asarray(svd(msign_exact(m)).singular_values)
        np.testing.assert_allclose(s, 1.0, atol=1e-10)

    def test_matches_gram_oracle(self, make_matrix):
        for seed in range(10):
            m = make_matrix(7, 5, seed=seed)
            got = msign_exact(m).a
            want = gram_inverse_sqrt_sign(m.a)
            rel = np.linalg.norm(got - want) / np.linalg.norm(want)
            assert rel < 1e-8

    def test_odd_symmetry(self, make_matrix):
        m = make_matrix(5, 5, seed=3)
        np.testing.assert_allclose(msign_exact(m * -1.0).a, -msign_exact(m).a,
                                   atol=1e-12)

    def test_positive_scale_invariance(self, make_matrix):
        m = make_matrix(5, 5, seed=4)
        np.testing.assert_allclose(msign_exact(m * 17.0).a, msign_exact(m).a,
                                   atol=1e-12)

    def test_square_output_is_orthogonal(self, make_matrix):
        m = make_matrix(6, 6, seed=5)
        q = msign_exact(m).a
        np.testing.assert_allclose(q.T @ q, np.eye(6), atol=1e-10)

    def test_frobenius_norm_is_sqrt_rank(self, make_matrix):
        m = make_matrix(9, 4, seed=6)
        assert abs(frobenius_norm(msign_exact(m)) - 2.0) < 1e-10

    def test_rank_deficient_input_truncates(self):
        left = Rng(0).normal((8, 2))
        right = Rng(1).normal((2, 6))
        res = msign_exact(Matrix(left @ right))
        s = np.asarray(svd(res).singular_values)
        assert len(s) == 2
        np.testing.assert_allclose(s, 1.0, atol=1e-10)

    def test_nuclear_norm_identity(self, make_matrix):
        m = make_matrix(7, 7, seed=8)
        nuclear = float(np.sum(svd(m).singular_values))
        inner = float(np.trace(m.a.T @ msign_exact(m).a))
        assert abs(inner - nuclear) / nuclear < 1e-10

    def test_idempotent(self, make_matrix):
        m = make_matrix(5, 5, seed=9)
        once = msign_exact(m)
        twice = msign_exact(once)
        np.testing.assert_allclose(twice.a, once.a, atol=1e-10)

    def test_zero_matrix_rejected(self):
        with pytest.raises(DegenerateInputError):
            msign_exact(Matrix.zeros(3, 3))


class TestNewtonSchulz:
    def test_report_shape_and_iterations(self, make_matrix):
        m = make_matrix(8, 5, seed=1)
        rep = msign_newton_schulz(m, k=5)
        assert rep.result.shape == (8, 5)
        assert rep.iterations_used == 5

    def test_k_below_one_rejected(self, make_matrix):
        with pytest.raises(RangeError):
            msign_newton_schulz(make_matrix(4, 4), k=0)

    def test_zero_matrix_rejected(self):
        with pytest.raises(DegenerateInputError):
            msign_newton_schulz(Matrix.zeros(4, 4))

    def test_spectrum_fields_match_svd(self, make_matrix):
        m = make_matrix(6, 6, seed=2)
        rep = msign_newton_schulz(m, k=5, compute_spectrum=True)
        s = np.asarray(svd(rep.result).singular_values)
        assert abs(rep.singular_value_min - float(s[-1])) < 1e-12
        assert abs(rep.singular_value_max - float(s[0])) < 1e-12

    def test_taylor_deviation_shrinks_with_k(self, make_matrix):
        # The Taylor preset contracts toward the exact sign, so more steps
        # help. The optimized preset instead settles on a plateau around 1
        # and extra steps do not reduce its oracle deviation; it must stay
        # bounded rather than improve.
        m = make_matrix(6, 6, seed=3)
        dev5 = msign_newton_schulz(m, coeffs=TAYLOR_COEFFS, k=5,
                                   compare_oracle=True).deviation_from_oracle
        dev20 = msign_newton_schulz(m, coeffs=TAYLOR_COEFFS, k=20,
                                    compare_oracle=True).deviation_from_oracle
        assert dev20 < dev5 < 1.0
        opt5 = msign_newton_schulz(m, k=5, compare_oracle=True).deviation_from_oracle
        opt10 = msign_newton_schulz(m, k=10, compare_oracle=True).deviation_from_oracle
        assert max(opt5, opt10) < 0.5

    def test_wide_and_tall_agree_by_transpose(self, make_matrix):
        m = make_matrix(4, 9, seed=4)
        wide = msign_newton_schulz(m, k=5).result
        tall = msign_newton_schulz(Matrix(m.a.T), k=5).result
        np.testing.assert_allclose(wide.a, tall.a.T, atol=1e-12)

    def test_acts_only_on_singular_values(self, make_matrix):
        # X_k must share singular subspaces with the input: the Gram of the
        # output and the Gram of the input commute.
        m = make_matrix(6, 6, seed=5)
        x5 = msign_newton_schulz(m, k=5).result.a
        g_in = m.a.T @ m.a
        g_out = x5.T @ x5
        comm = g_in @ g_out - g_out @ g_in
        assert np.linalg.norm(comm) / np.linalg.norm(g_in) < 1e-10

    def test_orthogonal_input_follows_scalar_orbit(self):
        # For orthogonal U (n x n), X0 = U / sqrt(n) and every singular value
        # follows the scalar orbit from 1/sqrt(n) exactly.
        for n, t5 in ((8, T5_FROM_INV_SQRT8), (64, None)):
            q = np.linalg.qr(Rng(n).normal((n, n)))[0]
            rep = msign_newton_schulz(Matrix(q), k=5, compute_spectrum=True)
            want = quintic_orbit(1.0 / math.sqrt(n))
            if t5 is not None:
                assert want == t5
            assert abs(rep.singular_value_min - want) < 1e-9
            assert abs(rep.singular_value_max - want) < 1e-9

    def test_rank_one_lands_at_frozen_value(self):
        u = Rng(7).normal((12, 1))
        v = Rng(8).normal((1, 5))
        rep = msign_newton_schulz(Matrix(u @ v), k=5, compute_spectrum=True)
        assert abs(rep.singular_value_max - T5_FROM_ONE) < 1e-9

    def test_newton_schulz_step_is_the_quintic(self, make_matrix):
        x = make_matrix(5, 5, seed=9) * 0.1
        stepped = newton_schulz_step(x, OPTIMIZED_COEFFS).a
        gram = x.a.T @ x.a
        want = (OPTIMIZED_COEFFS.a * x.a
                + OPTIMIZED_COEFFS.b * x.a @ gram
                + OPTIMIZED_COEFFS.c * x.a @ gram @ gram)
        np.testing.assert_allclose(stepped, want, atol=1e-13)


class TestSpectrumEnvelope:
    """Measured facts about the K = 5 optimized spectrum on generic input."""

    def test_scalar_envelope_bounds(self):
        # Over normalized starts t0 in [1.6e-3, 1], five optimized steps map
        # into [0.681831, 1.202369] (and not into (0.7, 1.3)).
        starts = np.concatenate([
            np.logspace(math.log10(1.6e-3), 0.0, 20000),
            np.array([1.6e-3, 1.0]),
        ])
        finals = np.array([quintic_orbit(float(t)) for t in starts])
        assert finals.min() > 0.681831 - 1e-6
        assert finals.max() < 1.202369 + 1e-6
        assert finals.min() < 0.7  # the low side of (0.7, 1.3) fails
        assert finals.max() < 1.3  # the high side holds with margin

    def test_small_start_is_not_recovered(self):
        # Growth per step is at most a factor a = 3.4445, so after five steps
        # a start below ~1/a^5 = 2e-3 cannot reach the plateau.
        assert quintic_orbit(1e-4) < 0.05

    def test_upper_edge_holds_on_random_matrices(self, make_matrix):
        for seed in range(30):
            m = make_matrix(16, 16, seed=seed)
            _, _, smax = band_violation(m)
            assert smax < 1.3

    def test_standard_normal_square_violates_low_edge(self):
        # 64x64 standard normal inputs essentially always have a singular
        # value below 0.7 after five steps; pin that the checker reports it.
        violations = 0
        for seed in range(20):
            m = Matrix(Rng(seed).normal((64, 64)))
            violated, smin, _ = band_violation(m)
            if violated:
                violations += 1
                assert smin < 0.7
        assert violations == 20

    def test_band_violation_honors_custom_band(self, make_matrix):
        m = make_matrix(16, 16, seed=0)
        violated, smin, smax = band_violation(m, band=(0.5, 1.4))
        assert not violated
        assert 0.5 < smin <= smax < 1.4


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 8), st.integers(2, 8), st.integers(0, 10_000),
       st.floats(0.1, 100.0))
def test_exact_sign_scale_invariance_property(rows, cols, seed, scale):
    m = Matrix(Rng(seed).normal((rows, cols)))
    base = msign_exact(m).a
    scaled = msign_exact(m * scale).a
    np.testing.assert_allclose(scaled, base, atol=1e-9)


# Five optimized steps keep every normalized singular value in [0, p(t-)] =
# [0, 1.2024], where the slope |p'(t)| of the quintic is at most
# p'(1.2024) ~ 3.97 (p' = a + 3b t^2 + 5c t^4). A rounding error made in
# one step therefore grows by at most 3.97^5 < 1000 over the rest, and each
# step's products round over at most max(rows, cols) terms, so the iteration
# stays within 1000 * max(rows, cols) * u of exact arithmetic, entry by
# entry, for unit roundoff u. Measured over 3,000 random inputs up to 32x32:
# at most 8 * max(rows, cols) * u for the rotated f64 input and 16 *
# max(rows, cols) * u for f32 against f64.
NS_ERROR_GROWTH = 1000.0


def ns_tolerance(shape, dtype) -> float:
    return NS_ERROR_GROWTH * max(shape) * float(np.finfo(dtype).eps) / 2.0


ns_inputs = (st.integers(1, 24), st.integers(1, 24), st.integers(0, 2**32 - 1),
             st.floats(-3.0, 3.0))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(*ns_inputs)
def test_newton_schulz_orthogonal_equivariance_property(rows, cols, seed,
                                                        log_scale):
    # NS(Q M R) = Q NS(M) R for orthogonal Q and R: every step is a
    # polynomial in M M^T M, and the Frobenius normalization is invariant
    rng = Rng(seed)
    m = rng.normal((rows, cols), scale=10.0 ** log_scale)
    q = np.linalg.qr(rng.normal((rows, rows)))[0]
    r = np.linalg.qr(rng.normal((cols, cols)))[0]

    def ns(a):
        return msign_newton_schulz(Matrix(a)).result.a

    err = np.abs(ns(q @ m @ r) - q @ ns(m) @ r).max()
    assert err <= ns_tolerance((rows, cols), np.float64)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(*ns_inputs)
def test_newton_schulz_f32_tracks_f64_property(rows, cols, seed, log_scale):
    m32 = Matrix(Rng(seed).normal((rows, cols), scale=10.0 ** log_scale),
                 dtype=np.float32)
    x32 = msign_newton_schulz(m32).result.a
    x64 = msign_newton_schulz(Matrix(m32.a, dtype=np.float64)).result.a
    assert x32.dtype == np.float32
    err = np.abs(x32.astype(np.float64) - x64).max()
    assert err <= ns_tolerance((rows, cols), np.float32)


# (runs, rows, cols) of the Muon matrices the tasks stack: the quadratic's
# 16x8, the telescope's first layer 16xW (wide, so the kernel iterates on
# its transpose) and last layer Wx4 at a stage's 9 runs, the 64-128-128-8
# MLP's layers alone, and two odd shapes on either side of square.
NS_STACKS = [(5, 16, 8), (9, 16, 64), (9, 16, 128), (9, 16, 256), (9, 64, 4),
             (9, 128, 4), (9, 256, 4), (1, 64, 128), (1, 128, 128), (1, 128, 8),
             (2, 7, 9), (3, 32, 300)]


@pytest.mark.parametrize("k", [3, 5, 10])
@pytest.mark.parametrize("coeffs", [OPTIMIZED_COEFFS, TAYLOR_COEFFS],
                         ids=["optimized", "taylor"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", NS_STACKS, ids=str)
def test_ns_kernel_is_the_quintic_formula_bit_for_bit(shape, dtype, coeffs, k):
    # The kernel's layout copies, GEMM Gram and in-place polynomial change
    # no byte of the step as written, on the taller orientation.
    x0 = Rng(k * 1_000 + shape[2]).normal(shape).astype(dtype)
    x0 /= np.linalg.norm(x0, axis=(-2, -1), keepdims=True).astype(dtype)
    frozen = x0.copy()
    wide = shape[1] < shape[2]
    x = x0.swapaxes(-1, -2) if wide else x0
    for _ in range(k):
        g = x.swapaxes(-1, -2) @ x
        x = coeffs.a * x + x @ (coeffs.b * g + coeffs.c * (g @ g))
    want = x.swapaxes(-1, -2) if wide else x
    got = _ns_orthogonalize(x0, coeffs, k)
    assert got.dtype == dtype and got.shape == shape
    assert np.array_equal(got, want)
    assert got.flags.c_contiguous
    assert np.array_equal(x0, frozen)
