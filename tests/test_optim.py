"""Optimizer steps: Muon, AdamW, Shampoo oracle, schedule, clipping, routing."""

import math

import numpy as np
import pytest

from muonlab.errors import RangeError, ShapeError
from muonlab.linalg import Matrix, Rng
from muonlab.msign import TAYLOR_COEFFS, msign_exact
from muonlab.optim import (
    SCHEDULE_KINDS,
    AdamWState,
    MuonHyper,
    MuonState,
    OptimizerBank,
    OptimizerSpec,
    Schedule,
    adamw_step,
    clip_global_norm,
    muon_step,
    route_parameter,
    schedule_eta,
    shampoo_direction,
    shampoo_step_oracle,
)
from muonlab.optim import _global_norm, _muon_core, _muon_direction, _sum_left


def rms(arr: np.ndarray) -> float:
    return float(np.sqrt(np.mean(arr**2)))


class TestMuonStep:
    def test_hand_case_identity_direction(self):
        # With beta = 0 the momentum equals the gradient; the sign of a
        # positive diagonal matrix is the identity, so with RMS matching and
        # decay off the update is exactly -eta * I.
        w = Matrix.zeros(2, 2)
        g = Matrix.diag([4.0, 9.0])
        hyper = MuonHyper(eta0=1.0, weight_decay=0.0, beta=0.0,
                          rms_matching=False, exact_msign=True)
        new_w, state = muon_step(w, g, MuonState.fresh(2, 2), hyper, eta_t=0.5)
        np.testing.assert_allclose(new_w.a, -0.5 * np.eye(2), atol=1e-14)
        np.testing.assert_allclose(state.momentum.a, g.a)

    def test_hand_case_rms_matched(self):
        # Same situation with RMS matching on: scale is 0.2 * sqrt(fan-out).
        w = Matrix.zeros(2, 2)
        g = Matrix.diag([4.0, 9.0])
        hyper = MuonHyper(eta0=1.0, weight_decay=0.0, beta=0.0, exact_msign=True)
        new_w, _ = muon_step(w, g, MuonState.fresh(2, 2), hyper, eta_t=1.0)
        s = 0.2 * math.sqrt(2.0)
        np.testing.assert_allclose(new_w.a, -s * np.eye(2), atol=1e-14)

    def test_pure_decay_when_gradient_is_zero(self):
        # Zero gradient leaves a zero momentum; the direction guard returns
        # zero and only the decoupled decay acts: w' = (1 - eta*lambda) w.
        w = Matrix.identity(3)
        g = Matrix.zeros(3, 3)
        hyper = MuonHyper(eta0=1.0, weight_decay=0.1, beta=0.9)
        new_w, _ = muon_step(w, g, MuonState.fresh(3, 3), hyper, eta_t=0.5)
        np.testing.assert_allclose(new_w.a, (1.0 - 0.5 * 0.1) * np.eye(3),
                                   atol=1e-15)

    def test_momentum_recursion(self, make_matrix):
        g1 = make_matrix(3, 3, seed=1)
        g2 = make_matrix(3, 3, seed=2)
        hyper = MuonHyper(eta0=1.0, beta=0.9, weight_decay=0.0)
        w = Matrix.zeros(3, 3)
        w, st = muon_step(w, g1, MuonState.fresh(3, 3), hyper, eta_t=0.1)
        np.testing.assert_allclose(st.momentum.a, 0.1 * g1.a, atol=1e-15)
        _, st2 = muon_step(w, g2, st, hyper, eta_t=0.1)
        np.testing.assert_allclose(st2.momentum.a, 0.9 * 0.1 * g1.a + 0.1 * g2.a,
                                   atol=1e-15)

    def test_momentum_only_uses_frobenius_direction(self, make_matrix):
        g = make_matrix(4, 4, seed=3)
        hyper = MuonHyper(eta0=1.0, beta=0.0, weight_decay=0.0,
                          rms_matching=False, momentum_only=True)
        w = Matrix.zeros(4, 4)
        new_w, _ = muon_step(w, g, MuonState.fresh(4, 4), hyper, eta_t=1.0)
        want = -g.a / np.linalg.norm(g.a)
        np.testing.assert_allclose(new_w.a, want, atol=1e-14)

    def test_exact_and_ns_paths_agree_on_well_conditioned_input(self):
        # Orthogonal-ish input: both paths give nearly the same direction.
        q = np.linalg.qr(Rng(5).normal((6, 6)))[0]
        g = Matrix(q + 0.01 * Rng(6).normal((6, 6)))
        w = Matrix.zeros(6, 6)
        base = MuonHyper(eta0=1.0, beta=0.0, weight_decay=0.0, rms_matching=False)
        w_ns, _ = muon_step(w, g, MuonState.fresh(6, 6), base, eta_t=1.0)
        w_ex, _ = muon_step(w, g, MuonState.fresh(6, 6),
                            MuonHyper(**{**base.__dict__, "exact_msign": True}),
                            eta_t=1.0)
        rel = np.linalg.norm(w_ns.a - w_ex.a) / np.linalg.norm(w_ex.a)
        assert rel < 0.25

    def test_negative_eta_rejected(self, make_matrix):
        g = make_matrix(2, 2)
        hyper = MuonHyper(eta0=1.0)
        with pytest.raises(RangeError):
            muon_step(Matrix.zeros(2, 2), g, MuonState.fresh(2, 2), hyper, -0.1)

    def test_shape_mismatch_rejected(self, make_matrix):
        hyper = MuonHyper(eta0=1.0)
        with pytest.raises(ShapeError):
            muon_step(Matrix.zeros(2, 2), make_matrix(3, 3),
                      MuonState.fresh(2, 2), hyper, 0.1)


class TestRmsMatching:
    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_exact_path_square_rms_is_exactly_factor(self, n):
        g = Matrix(Rng(n).normal((n, n)))
        hyper = MuonHyper(eta0=1.0, beta=0.0, weight_decay=0.0, exact_msign=True)
        w = Matrix.zeros(n, n)
        new_w, _ = muon_step(w, g, MuonState.fresh(n, n), hyper, eta_t=1.0)
        # full-rank square sign has all singular values 1, so RMS of the
        # scaled update is exactly 0.2
        assert abs(rms(new_w.a) - 0.2) < 1e-10

    def test_fan_out_vs_max_dim_on_rectangles(self):
        g = Matrix(Rng(0).normal((4, 16)))
        w = Matrix.zeros(4, 16)
        for dim_rule, expect_n in (("fan-out", 16), ("max", 16)):
            hyper = MuonHyper(eta0=1.0, beta=0.0, weight_decay=0.0,
                              exact_msign=True, rms_dim=dim_rule)
            new_w, _ = muon_step(w, g, MuonState.fresh(4, 16), hyper, 1.0)
            scale = 0.2 * math.sqrt(expect_n)
            got = np.linalg.norm(new_w.a) / math.sqrt(min(4, 16))
            assert abs(got - scale) < 1e-10
        # tall case: fan-out is the column count, max is the row count
        g = Matrix(Rng(1).normal((16, 4)))
        w = Matrix.zeros(16, 4)
        for dim_rule, expect_n in (("fan-out", 4), ("max", 16)):
            hyper = MuonHyper(eta0=1.0, beta=0.0, weight_decay=0.0,
                              exact_msign=True, rms_dim=dim_rule)
            new_w, _ = muon_step(w, g, MuonState.fresh(16, 4), hyper, 1.0)
            scale = 0.2 * math.sqrt(expect_n)
            got = np.linalg.norm(new_w.a) / math.sqrt(min(16, 4))
            assert abs(got - scale) < 1e-10

    def test_dynamic_rms_hits_target_exactly_even_off_band(self):
        # dynamic scaling normalizes by the realized direction norm, so the
        # update RMS equals the factor no matter how distorted the spectrum.
        g = Matrix(Rng(2).normal((8, 8), scale=1e-3))
        hyper = MuonHyper(eta0=1.0, beta=0.0, weight_decay=0.0, dynamic_rms=True)
        w = Matrix.zeros(8, 8)
        new_w, _ = muon_step(w, g, MuonState.fresh(8, 8), hyper, eta_t=1.0)
        assert abs(rms(new_w.a) - 0.2) < 1e-12


class TestAdamWStep:
    def test_scalar_arithmetic_oracle(self):
        # One fully hand-computed bias-corrected step with decoupled decay.
        w0, g0, eta, lam = 2.0, 3.0, 0.1, 0.01
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        m1 = (1 - beta1) * g0
        v1 = (1 - beta2) * g0 * g0
        m_hat = m1 / (1 - beta1)
        v_hat = v1 / (1 - beta2)
        want = w0 - eta * (m_hat / (math.sqrt(v_hat) + eps) + lam * w0)

        state = AdamWState.fresh(1, 1)
        new_w, new_state = adamw_step(Matrix(np.array([[w0]])),
                                      Matrix(np.array([[g0]])),
                                      state, eta_t=eta, weight_decay=lam)
        assert abs(new_w.a[0, 0] - want) < 1e-15
        assert new_state.step_count == 1
        assert abs(new_state.m.a[0, 0] - m1) < 1e-15
        assert abs(new_state.v.a[0, 0] - v1) < 1e-15

    def test_pure_decay_with_zero_gradient(self):
        w = Matrix.identity(2)
        g = Matrix.zeros(2, 2)
        new_w, _ = adamw_step(w, g, AdamWState.fresh(2, 2), eta_t=0.5,
                              weight_decay=0.2)
        np.testing.assert_allclose(new_w.a, (1.0 - 0.5 * 0.2) * np.eye(2),
                                   atol=1e-15)

    def test_bias_correction_makes_first_step_unit_scale(self, make_matrix):
        # With eps tiny, the first update is close to eta * sign(g).
        g = make_matrix(3, 3, seed=4)
        new_w, _ = adamw_step(Matrix.zeros(3, 3), g, AdamWState.fresh(3, 3),
                              eta_t=0.01, weight_decay=0.0)
        np.testing.assert_allclose(new_w.a, -0.01 * np.sign(g.a), atol=1e-6)


class TestShampooEquivalence:
    def test_directions_match_exact_msign(self, make_matrix):
        for seed in range(10):
            g = make_matrix(8, 8, seed=seed)
            dir_shampoo = shampoo_direction(g)
            dir_sign = msign_exact(g).a
            rel = np.linalg.norm(dir_shampoo - dir_sign) / np.linalg.norm(dir_sign)
            assert rel < 1e-6

    def test_oracle_step_equals_momentumless_muon(self, make_matrix):
        g = make_matrix(8, 8, seed=11)
        w = make_matrix(8, 8, seed=12)
        hyper = MuonHyper(eta0=1.0, beta=0.0, weight_decay=0.0,
                          rms_matching=False, exact_msign=True)
        muon_w, _ = muon_step(w, g, MuonState.fresh(8, 8), hyper, eta_t=0.3)
        shampoo_w = shampoo_step_oracle(w, g, eta_t=0.3)
        rel = np.linalg.norm(muon_w.a - shampoo_w.a) / np.linalg.norm(shampoo_w.a)
        assert rel < 1e-6


class TestSchedule:
    def test_kinds_constant(self):
        assert SCHEDULE_KINDS == ("cosine-with-linear-warmup", "inverse-sqrt")

    def test_cosine_endpoints_and_warmup(self):
        sched = Schedule(eta0=0.4, total_steps=200, warmup_fraction=0.01)
        ws = sched.warmup_steps
        assert ws == 2
        assert schedule_eta(sched, 0) == 0.0
        assert schedule_eta(sched, 1) == pytest.approx(0.2)
        assert schedule_eta(sched, ws) == pytest.approx(0.4)
        assert schedule_eta(sched, 200) == pytest.approx(0.0, abs=1e-16)
        mid = ws + (200 - ws) // 2
        assert schedule_eta(sched, mid) == pytest.approx(
            0.4 * 0.5 * (1 + math.cos(math.pi * (mid - ws) / (200 - ws))))

    def test_cosine_floor(self):
        sched = Schedule(eta0=1.0, total_steps=100, warmup_fraction=0.0,
                         eta_min_fraction=0.01)
        assert schedule_eta(sched, 100) == pytest.approx(0.01)

    def test_inverse_sqrt(self):
        sched = Schedule(eta0=0.3, total_steps=100, kind="inverse-sqrt")
        assert schedule_eta(sched, 0) == 0.3
        assert schedule_eta(sched, 1) == 0.3
        assert schedule_eta(sched, 4) == pytest.approx(0.15)
        assert schedule_eta(sched, 100) == pytest.approx(0.03)

    def test_monotone_after_warmup(self):
        sched = Schedule(eta0=1.0, total_steps=500, warmup_fraction=0.02)
        etas = [schedule_eta(sched, t) for t in range(sched.warmup_steps, 501)]
        assert all(b <= a + 1e-15 for a, b in zip(etas, etas[1:]))

    def test_validation(self):
        with pytest.raises(RangeError):
            Schedule(eta0=0.0, total_steps=10)
        with pytest.raises(RangeError):
            Schedule(eta0=0.1, total_steps=10, warmup_fraction=0.5)
        with pytest.raises(RangeError):
            Schedule(eta0=0.1, total_steps=10, eta_min_fraction=0.5)
        with pytest.raises(RangeError):
            Schedule(eta0=0.1, total_steps=10, kind="linear")
        with pytest.raises(RangeError):
            schedule_eta(Schedule(eta0=0.1, total_steps=10), 11)


class TestClip:
    def test_pythagorean_rescale(self):
        a = Matrix(np.array([[3.0, 0.0], [0.0, 0.0]]))
        b = Matrix(np.array([[0.0, 4.0], [0.0, 0.0]]))
        clipped = clip_global_norm([a, b], max_norm=1.0)
        # global norm is 5, so every entry scales by 0.2
        np.testing.assert_allclose(clipped[0].a, 0.2 * a.a, atol=1e-15)
        np.testing.assert_allclose(clipped[1].a, 0.2 * b.a, atol=1e-15)
        total = math.sqrt(sum(float(np.sum(c.a**2)) for c in clipped))
        assert total == pytest.approx(1.0)

    def test_under_limit_is_identity(self, make_matrix):
        g = make_matrix(2, 2, seed=1, scale=1e-3)
        out = clip_global_norm([g], max_norm=10.0)
        assert out[0] is g

    def test_nonpositive_max_norm_rejected(self, make_matrix):
        with pytest.raises(RangeError):
            clip_global_norm([make_matrix(2, 2)], 0.0)

    def test_global_norm_sums_left_to_right(self):
        # 1e16 + 1 + 1 stays 1e16 in a left-to-right f64 fold; the built-in
        # sum compensates from Python 3.12 on and gives 1e16 + 2, whose
        # root rounds to the next float above 1e8
        assert _sum_left([1e16, 1.0, 1.0]) == 1e16
        assert _global_norm([np.array([1e8]), np.array([1.0]),
                             np.array([1.0])]) == 1e8


class TestRouting:
    @pytest.mark.parametrize("shape,expected", [
        ((4, 4), "muon"),
        ((2, 100), "muon"),
        ((100, 2), "muon"),
        ((7,), "adamw"),
        ((1, 5), "adamw"),
        ((5, 1), "adamw"),
        ((1, 1), "adamw"),
    ])
    def test_shapes(self, shape, expected):
        assert route_parameter(shape) == expected

    def test_int_is_vector(self):
        assert route_parameter(8) == "adamw"

    def test_higher_rank_rejected(self):
        with pytest.raises(ShapeError):
            route_parameter((2, 2, 2))


def _step_one(bank, params, grads, eta_t):
    """``bank.step`` on a stack of one run; returns that run's parameters."""
    new = bank.step({n: p[None] for n, p in params.items()},
                    {n: g[None] for n, g in grads.items()}, [eta_t])
    return {n: p[0] for n, p in new.items()}


class TestOptimizerBank:
    SHAPES = {"w0": (4, 8), "b0": (8,), "w1": (8, 3), "b1": (3,)}

    def make_params(self, seed=0):
        root = Rng(seed)
        params = {name: root.child(name).normal(shape)
                  for name, shape in self.SHAPES.items()}
        grads = {name: root.child(name + "-g").normal(shape)
                 for name, shape in self.SHAPES.items()}
        return params, grads

    def test_state_scalar_counts_halve_for_matrices(self):
        muon_bank = OptimizerBank(self.SHAPES, "muon", [0.1],
                                  muon=MuonHyper(eta0=0.1))
        adamw_bank = OptimizerBank(self.SHAPES, "adamw", [0.1])
        matrix_scalars = 4 * 8 + 8 * 3
        vector_scalars = 2 * (8 + 3)
        assert muon_bank.state_scalar_count() == matrix_scalars + vector_scalars
        assert adamw_bank.state_scalar_count() == 2 * matrix_scalars + vector_scalars
        muon_matrix_part = muon_bank.state_scalar_count() - vector_scalars
        adamw_matrix_part = adamw_bank.state_scalar_count() - vector_scalars
        assert 2 * muon_matrix_part == adamw_matrix_part

    def test_step_returns_new_dict_and_preserves_inputs(self):
        params, grads = self.make_params()
        frozen = {k: v.copy() for k, v in params.items()}
        bank = OptimizerBank(self.SHAPES, "muon", [0.1], muon=MuonHyper(eta0=0.1))
        new_params = _step_one(bank, params, grads, eta_t=0.05)
        assert set(new_params) == set(params)
        for name in params:
            np.testing.assert_array_equal(params[name], frozen[name])
            assert not np.array_equal(new_params[name], params[name])

    def test_vector_parameters_never_decay(self):
        # zero gradient: matrix params shrink by decay, vectors stay put
        params = {"w": np.ones((3, 3)), "b": np.ones(3)}
        grads = {"w": np.zeros((3, 3)), "b": np.zeros(3)}
        bank = OptimizerBank({"w": (3, 3), "b": (3,)}, "adamw", [0.5])
        out = _step_one(bank, params, grads, eta_t=0.1)
        np.testing.assert_allclose(out["w"], (1.0 - 0.1 * 0.5) * np.ones((3, 3)),
                                   atol=1e-15)
        np.testing.assert_allclose(out["b"], np.ones(3), atol=1e-15)

    def test_last_update_rms_global(self):
        # pure-decay muon bank: update on w is eta*lambda*w, zero on b
        params = {"w": np.full((2, 2), 2.0), "b": np.ones(2)}
        grads = {"w": np.zeros((2, 2)), "b": np.zeros(2)}
        bank = OptimizerBank({"w": (2, 2), "b": (2,)}, "muon", [0.1],
                             muon=MuonHyper(eta0=1.0))
        _step_one(bank, params, grads, eta_t=0.5)
        per_entry = 0.5 * 0.1 * 2.0
        want = math.sqrt(4 * per_entry**2 / 6)
        assert abs(bank.last_update_rms[0] - want) < 1e-15

    def test_spec_round_trip(self):
        spec = OptimizerSpec(kind="muon", eta0=0.07, weight_decay=0.02,
                             k_iters=3, coeffs="taylor", rms_dim="max")
        hyper = spec.muon_hyper()
        assert hyper.eta0 == 0.07
        assert hyper.weight_decay == 0.02
        assert hyper.k_iters == 3
        assert hyper.coeffs == TAYLOR_COEFFS
        assert hyper.rms_dim == "max"


def _solo_ns_direction(m: np.ndarray, coeffs, k: int) -> np.ndarray:
    """One momentum matrix's Newton-Schulz direction, written out for one
    matrix: BLAS norm, then k quintic steps on the taller orientation."""
    x = m / (np.linalg.norm(m) + 1e-12)
    wide = x.shape[0] < x.shape[1]
    if wide:
        x = x.T
    for _ in range(k):
        gram = x.T @ x
        x = coeffs.a * x + x @ (coeffs.b * gram + coeffs.c * (gram @ gram))
    return x.T if wide else x


class TestStackedCores:
    """A stack of runs (leading run axis) through the array cores gives each
    run the bits it gets alone."""

    SHAPES = [(16, 8), (8, 16), (64, 128), (128, 8), (16, 64), (64, 4)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_ns_direction_matches_one_matrix_at_a_time(self, shape, dtype):
        stack = Rng(len(shape) * shape[0] + shape[1]).normal((4, *shape)).astype(dtype)
        stack[1] *= 1e-6
        stack[2] = 0.0  # zero momentum: zero direction, as for one run
        hyper = MuonHyper(eta0=0.1)
        u = _muon_direction(stack, hyper)
        assert u.dtype == dtype
        for r in range(4):
            want = (np.zeros(shape, dtype) if r == 2
                    else _solo_ns_direction(stack[r], hyper.coeffs, hyper.k_iters))
            assert np.array_equal(u[r], want)

    @pytest.mark.parametrize("variant", [dict(momentum_only=True),
                                         dict(exact_msign=True),
                                         dict(dynamic_rms=True),
                                         dict(rms_matching=False)])
    def test_muon_variants_are_per_slice(self, variant):
        hyper = MuonHyper(eta0=0.1, **variant)
        root = Rng(7)
        w = root.child("w").normal((3, 8, 5)).astype(np.float32)
        g = root.child("g").normal((3, 8, 5)).astype(np.float32)
        g[1] = 0.0
        mom = np.zeros_like(w)
        eta = np.array([0.1, 0.02, 0.3], dtype=np.float32).reshape(-1, 1, 1)
        lam = np.array([0.0, 0.1, 0.2], dtype=np.float32).reshape(-1, 1, 1)
        new_w, new_mom, update = _muon_core(w, g, mom, hyper, eta, lam)
        for r in range(3):
            want = _muon_core(w[r], g[r], mom[r], hyper, float(eta[r, 0, 0]),
                              float(lam[r, 0, 0]))
            for got, solo in zip((new_w[r], new_mom[r], update[r]), want):
                assert got.dtype == solo.dtype and np.array_equal(got, solo)

    @pytest.mark.parametrize("matrix_rule", ["muon", "adamw"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_stacked_bank_matches_one_bank_per_run(self, matrix_rule, dtype):
        shapes = {"w0": (6, 8), "b0": (8,), "w1": (8, 1), "w2": (8, 3)}
        decays, etas = [0.0, 0.1, 0.3], [0.05, 0.01, 0.2]
        hyper = MuonHyper(eta0=1.0, weight_decay=0.7)  # not read by the bank
        stacked = OptimizerBank(shapes, matrix_rule, decays, muon=hyper, dtype=dtype)
        solo = [OptimizerBank(shapes, matrix_rule, [lam], muon=hyper, dtype=dtype)
                for lam in decays]
        root = Rng(3)
        params = {n: root.child(n).normal((3, *s)).astype(dtype)
                  for n, s in shapes.items()}
        solo_params = [{n: p[r] for n, p in params.items()} for r in range(3)]
        for step in range(3):
            grads = {n: root.child(f"{n}-{step}").normal((3, *s)).astype(dtype)
                     for n, s in shapes.items()}
            params = stacked.step(params, grads, etas)
            solo_params = [_step_one(bank, p, {n: g[r] for n, g in grads.items()}, eta)
                           for r, (bank, p, eta)
                           in enumerate(zip(solo, solo_params, etas))]
            for r, bank in enumerate(solo):
                assert stacked.last_update_rms[r] == bank.last_update_rms[0]
                for n in shapes:
                    assert params[n].dtype == dtype
                    assert np.array_equal(params[n][r], solo_params[r][n])
        assert stacked.state_scalar_count() == solo[0].state_scalar_count()
        stacked.select([2, 0])
        assert list(stacked.last_update_rms) == [solo[2].last_update_rms[0],
                                                 solo[0].last_update_rms[0]]

    def test_run_decays_must_be_nonnegative(self):
        with pytest.raises(RangeError):
            OptimizerBank({"w": (2, 2)}, "adamw", run_decays=[0.1, -0.1])
        with pytest.raises(RangeError):
            OptimizerBank({"w": (2, 2)}, "adamw", run_decays=[])
