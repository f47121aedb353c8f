"""Optimizer steps: Muon, AdamW, Shampoo oracle, schedule, clipping, routing."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from muonlab.errors import RangeError, ShapeError
from muonlab.harness import SCHEDULE_KINDS, TrainConfig, _eta_table, schedule_eta
from muonlab.linalg import Matrix, Rng
from muonlab.msign import COEFF_PRESETS, TAYLOR_COEFFS, msign_exact
from muonlab.optim import (
    AdamWState,
    MuonState,
    OptimizerBank,
    OptimizerSpec,
    adamw_step,
    clip_global_norm,
    muon_step,
    route_parameter,
    shampoo_direction,
    shampoo_step_oracle,
)
from muonlab.tasks import QuadraticSpec
from muonlab.optim import (_adamw_core, _clip_grad_arrays, _muon_core, _muon_direction,
                           _rms_scale, _slice_norms, _sum_left, _sum_squares)


def rms(arr: np.ndarray) -> float:
    return float(np.sqrt(np.mean(arr**2)))


class TestMuonStep:
    def test_hand_case_identity_direction(self):
        # With beta = 0 the momentum equals the gradient; the sign of a
        # positive diagonal matrix is the identity, so with RMS matching and
        # decay off the update is exactly -eta * I.
        w = Matrix.zeros(2, 2)
        g = Matrix.diag([4.0, 9.0])
        hyper = OptimizerSpec(eta0=1.0, weight_decay=0.0, beta=0.0,
                              rms_matching=False, exact_msign=True)
        new_w, state = muon_step(w, g, MuonState.fresh(2, 2), hyper, eta_t=0.5)
        np.testing.assert_allclose(new_w.a, -0.5 * np.eye(2), atol=1e-14)
        np.testing.assert_allclose(state.momentum.a, g.a)

    def test_hand_case_rms_matched(self):
        # Same situation with RMS matching on: scale is 0.2 * sqrt(fan-out).
        w = Matrix.zeros(2, 2)
        g = Matrix.diag([4.0, 9.0])
        hyper = OptimizerSpec(eta0=1.0, weight_decay=0.0, beta=0.0, exact_msign=True)
        new_w, _ = muon_step(w, g, MuonState.fresh(2, 2), hyper, eta_t=1.0)
        s = 0.2 * math.sqrt(2.0)
        np.testing.assert_allclose(new_w.a, -s * np.eye(2), atol=1e-14)

    def test_pure_decay_when_gradient_is_zero(self):
        # Zero gradient leaves a zero momentum; the direction guard returns
        # zero and only the decoupled decay acts: w' = (1 - eta*lambda) w.
        w = Matrix.identity(3)
        g = Matrix.zeros(3, 3)
        hyper = OptimizerSpec(eta0=1.0, weight_decay=0.1, beta=0.9)
        new_w, _ = muon_step(w, g, MuonState.fresh(3, 3), hyper, eta_t=0.5)
        np.testing.assert_allclose(new_w.a, (1.0 - 0.5 * 0.1) * np.eye(3),
                                   atol=1e-15)

    def test_momentum_recursion(self, make_matrix):
        g1 = make_matrix(3, 3, seed=1)
        g2 = make_matrix(3, 3, seed=2)
        hyper = OptimizerSpec(eta0=1.0, beta=0.9, weight_decay=0.0)
        w = Matrix.zeros(3, 3)
        w, st = muon_step(w, g1, MuonState.fresh(3, 3), hyper, eta_t=0.1)
        np.testing.assert_allclose(st.momentum.a, 0.1 * g1.a, atol=1e-15)
        _, st2 = muon_step(w, g2, st, hyper, eta_t=0.1)
        np.testing.assert_allclose(st2.momentum.a, 0.9 * 0.1 * g1.a + 0.1 * g2.a,
                                   atol=1e-15)

    def test_momentum_only_uses_frobenius_direction(self, make_matrix):
        g = make_matrix(4, 4, seed=3)
        hyper = OptimizerSpec(eta0=1.0, beta=0.0, weight_decay=0.0,
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
        base = OptimizerSpec(eta0=1.0, beta=0.0, weight_decay=0.0, rms_matching=False)
        w_ns, _ = muon_step(w, g, MuonState.fresh(6, 6), base, eta_t=1.0)
        w_ex, _ = muon_step(w, g, MuonState.fresh(6, 6),
                            OptimizerSpec(**{**base.__dict__, "exact_msign": True}),
                            eta_t=1.0)
        rel = np.linalg.norm(w_ns.a - w_ex.a) / np.linalg.norm(w_ex.a)
        assert rel < 0.25

    def test_negative_eta_rejected(self, make_matrix):
        g = make_matrix(2, 2)
        hyper = OptimizerSpec(eta0=1.0)
        with pytest.raises(RangeError):
            muon_step(Matrix.zeros(2, 2), g, MuonState.fresh(2, 2), hyper, -0.1)

    def test_shape_mismatch_rejected(self, make_matrix):
        hyper = OptimizerSpec(eta0=1.0)
        with pytest.raises(ShapeError):
            muon_step(Matrix.zeros(2, 2), make_matrix(3, 3),
                      MuonState.fresh(2, 2), hyper, 0.1)


class TestRmsMatching:
    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_exact_path_square_rms_is_exactly_factor(self, n):
        g = Matrix(Rng(n).normal((n, n)))
        hyper = OptimizerSpec(eta0=1.0, beta=0.0, weight_decay=0.0, exact_msign=True)
        w = Matrix.zeros(n, n)
        new_w, _ = muon_step(w, g, MuonState.fresh(n, n), hyper, eta_t=1.0)
        # full-rank square sign has all singular values 1, so RMS of the
        # scaled update is exactly 0.2
        assert abs(rms(new_w.a) - 0.2) < 1e-10

    def test_fan_out_vs_max_dim_on_rectangles(self):
        g = Matrix(Rng(0).normal((4, 16)))
        w = Matrix.zeros(4, 16)
        for dim_rule, expect_n in (("fan-out", 16), ("max", 16)):
            hyper = OptimizerSpec(eta0=1.0, beta=0.0, weight_decay=0.0,
                                  exact_msign=True, rms_dim=dim_rule)
            new_w, _ = muon_step(w, g, MuonState.fresh(4, 16), hyper, 1.0)
            scale = 0.2 * math.sqrt(expect_n)
            got = np.linalg.norm(new_w.a) / math.sqrt(min(4, 16))
            assert abs(got - scale) < 1e-10
        # tall case: fan-out is the column count, max is the row count
        g = Matrix(Rng(1).normal((16, 4)))
        w = Matrix.zeros(16, 4)
        for dim_rule, expect_n in (("fan-out", 4), ("max", 16)):
            hyper = OptimizerSpec(eta0=1.0, beta=0.0, weight_decay=0.0,
                                  exact_msign=True, rms_dim=dim_rule)
            new_w, _ = muon_step(w, g, MuonState.fresh(16, 4), hyper, 1.0)
            scale = 0.2 * math.sqrt(expect_n)
            got = np.linalg.norm(new_w.a) / math.sqrt(min(16, 4))
            assert abs(got - scale) < 1e-10

    def test_dynamic_rms_hits_target_exactly_even_off_band(self):
        # dynamic scaling normalizes by the realized direction norm, so the
        # update RMS equals the factor no matter how distorted the spectrum.
        g = Matrix(Rng(2).normal((8, 8), scale=1e-3))
        hyper = OptimizerSpec(eta0=1.0, beta=0.0, weight_decay=0.0, dynamic_rms=True)
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
                                      Matrix(np.array([[g0]])), state,
                                      OptimizerSpec(weight_decay=lam), eta_t=eta)
        assert abs(new_w.a[0, 0] - want) < 1e-15
        assert new_state.step_count == 1
        assert abs(new_state.m.a[0, 0] - m1) < 1e-15
        assert abs(new_state.v.a[0, 0] - v1) < 1e-15

    def test_pure_decay_with_zero_gradient(self):
        w = Matrix.identity(2)
        g = Matrix.zeros(2, 2)
        new_w, _ = adamw_step(w, g, AdamWState.fresh(2, 2),
                              OptimizerSpec(weight_decay=0.2), eta_t=0.5)
        np.testing.assert_allclose(new_w.a, (1.0 - 0.5 * 0.2) * np.eye(2),
                                   atol=1e-15)

    def test_bias_correction_makes_first_step_unit_scale(self, make_matrix):
        # With eps tiny, the first update is close to eta * sign(g).
        g = make_matrix(3, 3, seed=4)
        new_w, _ = adamw_step(Matrix.zeros(3, 3), g, AdamWState.fresh(3, 3),
                              OptimizerSpec(weight_decay=0.0), eta_t=0.01)
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
        hyper = OptimizerSpec(eta0=1.0, beta=0.0, weight_decay=0.0,
                              rms_matching=False, exact_msign=True)
        muon_w, _ = muon_step(w, g, MuonState.fresh(8, 8), hyper, eta_t=0.3)
        shampoo_w = shampoo_step_oracle(w, g, eta_t=0.3)
        rel = np.linalg.norm(muon_w.a - shampoo_w.a) / np.linalg.norm(shampoo_w.a)
        assert rel < 1e-6


def schedule(eta0, total_steps, **fields):
    """A run config that carries only a learning-rate schedule."""
    return TrainConfig(task=QuadraticSpec(), optimizer=OptimizerSpec(eta0=eta0),
                       total_steps=total_steps, eval_every=1, **fields)


# schedule_eta at eta0 = 0.3, at steps (0, 1, ws, ws + 1, total // 3, total)
# where ws = round(warmup_fraction * total), recorded as float literals so
# that a change which moves any bit fails. Keyed (kind, warmup_fraction,
# eta_min_fraction, total_steps); inverse-sqrt reads only total_steps.
_COSINE, _INV_SQRT = SCHEDULE_KINDS
SCHEDULE_PINS = {
    (_COSINE, 0.0, 0.0, 100): (0.3, 0.2999259840548597, 0.3, 0.2999259840548597,
                               0.22635621236255568, 0.0),
    (_COSINE, 0.0, 0.01, 100): (0.3, 0.29992672421431116, 0.3, 0.29992672421431116,
                                0.22709265023893013, 0.003),
    (_COSINE, 0.01, 0.0, 100): (0.0, 0.3, 0.3, 0.2999244813574778,
                                0.22908382014157536, 0.0),
    (_COSINE, 0.01, 0.01, 100): (0.0, 0.3, 0.3, 0.299925236543903,
                                 0.2297929819401596, 0.003),
    (_COSINE, 0.02, 0.0, 100): (0.0, 0.15, 0.3, 0.29992293243010315,
                                0.23183023518158227, 0.0),
    (_COSINE, 0.02, 0.01, 100): (0.0, 0.15, 0.3, 0.29992370310580213,
                                 0.23251193282976645, 0.003),
    (_COSINE, 0.0, 0.0, 2000): (0.3, 0.2999998149449555, 0.3, 0.2999998149449555,
                                0.22513599380410648, 0.0),
    (_COSINE, 0.0, 0.01, 2000): (0.3, 0.29999981679550597, 0.3, 0.29999981679550597,
                                 0.22588463386606542, 0.003),
    (_COSINE, 0.01, 0.0, 2000): (0.0, 0.015, 0.3, 0.29999981118758934,
                                 0.2278668497381718, 0.0),
    (_COSINE, 0.01, 0.01, 2000): (0.0, 0.015, 0.3, 0.29999981307571344,
                                  0.22858818124079008, 0.003),
    (_COSINE, 0.02, 0.0, 2000): (0.0, 0.0075, 0.3, 0.2999998073146159,
                                 0.23061747052112494, 0.0),
    (_COSINE, 0.02, 0.01, 2000): (0.0, 0.0075, 0.3, 0.29999980924146974,
                                  0.2313112958159137, 0.003),
    (_INV_SQRT, 0.01, 0.0, 100): (0.3, 0.3, 0.3, 0.21213203435596423,
                                  0.05222329678670935, 0.03),
    (_INV_SQRT, 0.01, 0.0, 2000): (0.3, 0.3, 0.06708203932499368, 0.06546536707079771,
                                   0.011624763874381928, 0.006708203932499369),
}


class TestSchedule:
    def test_kinds_constant(self):
        assert SCHEDULE_KINDS == ("cosine-with-linear-warmup", "inverse-sqrt")

    @pytest.mark.parametrize("key", SCHEDULE_PINS,
                             ids=lambda key: "-".join(map(str, key)))
    def test_bit_for_bit(self, key):
        # The byte gate trains only the default cosine and inverse-sqrt;
        # these pins cover every branch of the arithmetic, warmup and
        # floor included.
        kind, warmup, floor, total = key
        config = schedule(0.3, total, schedule_kind=kind, warmup_fraction=warmup,
                          eta_min_fraction=floor)
        ws = int(round(warmup * total))
        steps = (0, 1, ws, ws + 1, total // 3, total)
        assert [schedule_eta(config, t) for t in steps] == list(SCHEDULE_PINS[key])

    @pytest.mark.parametrize("kind", SCHEDULE_KINDS)
    @pytest.mark.parametrize("warmup", [0.0, 0.01, 0.02])
    @pytest.mark.parametrize("floor", [0.0, 0.01])
    @pytest.mark.parametrize("total", [1, 7, 50, 100, 150, 2000])
    def test_table_bit_for_bit(self, kind, warmup, floor, total):
        # a stack's learning-rate table takes each step's cosine once;
        # every entry must be `schedule_eta`'s float (round(0.5) = 0 and
        # round(1.5) = 2 warmup steps at 50 and 150 steps)
        configs = [schedule(eta0, total, schedule_kind=kind, warmup_fraction=warmup,
                            eta_min_fraction=floor)
                   for eta0 in (0.3, 0.005, 1.7e-9, 12.5, 1e306)]
        want = np.array([[schedule_eta(c, t) for t in range(total + 1)]
                         for c in configs])
        got = _eta_table(configs)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_cosine_endpoints_and_warmup(self):
        config = schedule(0.4, 200, warmup_fraction=0.01)
        ws = 2
        assert schedule_eta(config, 0) == 0.0
        assert schedule_eta(config, 1) == pytest.approx(0.2)
        assert schedule_eta(config, ws) == pytest.approx(0.4)
        assert schedule_eta(config, 200) == pytest.approx(0.0, abs=1e-16)
        mid = ws + (200 - ws) // 2
        assert schedule_eta(config, mid) == pytest.approx(
            0.4 * 0.5 * (1 + math.cos(math.pi * (mid - ws) / (200 - ws))))

    def test_cosine_floor(self):
        config = schedule(1.0, 100, warmup_fraction=0.0, eta_min_fraction=0.01)
        assert schedule_eta(config, 100) == pytest.approx(0.01)

    def test_inverse_sqrt(self):
        config = schedule(0.3, 100, schedule_kind="inverse-sqrt")
        assert schedule_eta(config, 0) == 0.3
        assert schedule_eta(config, 1) == 0.3
        assert schedule_eta(config, 4) == pytest.approx(0.15)
        assert schedule_eta(config, 100) == pytest.approx(0.03)

    def test_monotone_after_warmup(self):
        config = schedule(1.0, 500, warmup_fraction=0.02)
        etas = [schedule_eta(config, t) for t in range(10, 501)]
        assert all(b <= a + 1e-15 for a, b in zip(etas, etas[1:]))

    def test_validation(self):
        with pytest.raises(RangeError):
            OptimizerSpec(eta0=0.0)
        with pytest.raises(RangeError):
            schedule(0.1, 10, warmup_fraction=0.5)
        with pytest.raises(RangeError):
            schedule(0.1, 10, eta_min_fraction=0.5)
        with pytest.raises(RangeError):
            schedule(0.1, 10, schedule_kind="linear")
        with pytest.raises(RangeError):
            schedule_eta(schedule(0.1, 10), 11)


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
        sums = _sum_squares([np.array([[1e8]]), np.array([[1.0]]),
                             np.array([[1.0]])])
        assert list(sums) == [1e16]
        assert math.sqrt(sums[0]) == 1e8

    QUADRATIC_SHAPES = [(16, 8)]
    MLP_SHAPES = [(64, 128), (128,), (128, 128), (128,), (128, 8), (8,)]

    @pytest.mark.parametrize("runs", [1, 5, 9])
    @pytest.mark.parametrize("shapes", [QUADRATIC_SHAPES, MLP_SHAPES],
                             ids=["quadratic", "mlp"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sum_squares_matches_per_slice_fold(self, dtype, shapes, runs):
        # The stacked core against the fold it replaced: per run, math.sqrt
        # of a left fold of each slice's f64 np.sum of squares.
        root = Rng(runs)
        stacks = [root.child(i).normal((runs, *shape)).astype(dtype)
                  for i, shape in enumerate(shapes)]
        if runs > 1:
            stacks[0][1].flat[3] = np.inf
            stacks[-1][runs - 1].flat[0] = np.nan
        norms = np.sqrt(_sum_squares(stacks))
        assert norms.shape == (runs,)
        for r in range(runs):
            want = math.sqrt(_sum_left(float(np.sum(g[r].astype(np.float64) ** 2))
                                       for g in stacks))
            clip_norm = _clip_grad_arrays({i: g[r] for i, g in enumerate(stacks)},
                                          math.inf)[1]
            for got in (float(norms[r]), clip_norm):
                assert got == want or (math.isnan(got) and math.isnan(want))
        if runs > 1:
            assert norms[1] == np.inf and np.isnan(norms[runs - 1])


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
        muon_bank = OptimizerBank(self.SHAPES, OptimizerSpec(kind="muon", eta0=0.1),
                                  [0.1])
        adamw_bank = OptimizerBank(self.SHAPES, OptimizerSpec(kind="adamw"), [0.1])
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
        bank = OptimizerBank(self.SHAPES, OptimizerSpec(kind="muon", eta0=0.1), [0.1])
        new_params = _step_one(bank, params, grads, eta_t=0.05)
        assert set(new_params) == set(params)
        for name in params:
            np.testing.assert_array_equal(params[name], frozen[name])
            assert not np.array_equal(new_params[name], params[name])

    def test_vector_parameters_never_decay(self):
        # zero gradient: matrix params shrink by decay, vectors stay put
        params = {"w": np.ones((3, 3)), "b": np.ones(3)}
        grads = {"w": np.zeros((3, 3)), "b": np.zeros(3)}
        bank = OptimizerBank({"w": (3, 3), "b": (3,)}, OptimizerSpec(kind="adamw"), [0.5])
        out = _step_one(bank, params, grads, eta_t=0.1)
        np.testing.assert_allclose(out["w"], (1.0 - 0.1 * 0.5) * np.ones((3, 3)),
                                   atol=1e-15)
        np.testing.assert_allclose(out["b"], np.ones(3), atol=1e-15)

    def test_last_update_rms_global(self):
        # pure-decay muon bank: update on w is eta*lambda*w, zero on b
        params = {"w": np.full((2, 2), 2.0), "b": np.ones(2)}
        grads = {"w": np.zeros((2, 2)), "b": np.zeros(2)}
        bank = OptimizerBank({"w": (2, 2), "b": (2,)},
                             OptimizerSpec(kind="muon", eta0=1.0), [0.1])
        _step_one(bank, params, grads, eta_t=0.5)
        per_entry = 0.5 * 0.1 * 2.0
        want = math.sqrt(4 * per_entry**2 / 6)
        assert abs(bank.last_update_rms[0] - want) < 1e-15

    def test_overflowing_update_rms_reads_inf_without_warning(self):
        # AdamW's first update is about eta_t per entry: its squares overflow
        bank = OptimizerBank({"w": (2, 2)}, OptimizerSpec(kind="adamw"), [0.0])
        _step_one(bank, {"w": np.zeros((2, 2))}, {"w": np.ones((2, 2))}, 1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert bank.last_update_rms.tolist() == [math.inf]

    def test_spec_round_trip(self):
        spec = OptimizerSpec(kind="muon", eta0=0.07, weight_decay=0.02,
                             k_iters=3, coeffs="taylor", rms_dim="max")
        assert COEFF_PRESETS[spec.coeffs] == TAYLOR_COEFFS


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
        hyper = OptimizerSpec(eta0=0.1)
        u = _muon_direction(stack, hyper)
        assert u.dtype == dtype
        for r in range(4):
            want = (np.zeros(shape, dtype) if r == 2
                    else _solo_ns_direction(stack[r], COEFF_PRESETS[hyper.coeffs],
                                            hyper.k_iters))
            assert np.array_equal(u[r], want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_dynamic_rms_scale_matches_one_matrix_at_a_time(self, shape, dtype):
        stack = Rng(shape[0] * shape[1]).normal((3, *shape)).astype(dtype)
        stack[1] = 0.0  # a zero direction scales by 0
        hyper = OptimizerSpec(eta0=0.1, dynamic_rms=True)
        scale, norms = _rms_scale(hyper, stack), _slice_norms(stack)
        assert scale.shape == norms.shape == (3, 1, 1) and scale.dtype == dtype
        target = 0.2 * math.sqrt(shape[0] * shape[1])
        for r in range(3):
            assert norms[r, 0, 0] == np.linalg.norm(stack[r])
            want = 0.0 if r == 1 else target / float(np.linalg.norm(stack[r]))
            assert scale[r, 0, 0] == np.array(want, dtype)

    @pytest.mark.parametrize("variant", [dict(momentum_only=True),
                                         dict(exact_msign=True),
                                         dict(dynamic_rms=True),
                                         dict(rms_matching=False)])
    def test_muon_variants_are_per_slice(self, variant):
        hyper = OptimizerSpec(eta0=0.1, **variant)
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

    @pytest.mark.parametrize("shape", [(16, 256), (64, 128)])
    def test_dynamic_rms_is_per_slice_on_wide_stacks(self, shape):
        # the direction's norm sums its slice in one order whatever the
        # stack size (it once followed the NS iterate's layout, which did not)
        hyper = OptimizerSpec(eta0=0.1, dynamic_rms=True)
        root = Rng(11)
        w, g = (root.child(n).normal((9, *shape)) for n in ("w", "g"))
        mom = np.zeros_like(w)
        eta, lam = np.full((9, 1, 1), 0.1), np.full((9, 1, 1), 0.1)
        stacked = _muon_core(w, g, mom, hyper, eta, lam)
        for r in range(9):
            solo = _muon_core(w[r], g[r], mom[r], hyper, 0.1, 0.1)
            for got, want in zip(stacked, solo):
                assert np.array_equal(got[r], want)

    def test_mixed_dtypes_keep_the_formulas_bytes(self):
        # the Muon core updates its own temporaries in place only where
        # those hold the result's dtype: mixed dtypes round as the formula,
        # and so do learning rates that are Python scalars (weak under
        # NEP 50: an int has no dtype) or numpy scalars (an np.float64
        # promotes f32 weights to f64, although it subclasses float)
        dtypes = (np.float32, np.float64)
        etas = (0.3, 3, np.float32(0.3), np.float64(0.3))
        root = Rng(5)
        for dw, dg, ds, eta in itertools.product(dtypes, dtypes, dtypes, etas):
            w, g, state = (root.normal((6, 9)).astype(d) for d in (dw, dg, ds))
            hyper = OptimizerSpec(eta0=0.1)
            new_w, mom = muon_step(Matrix(w), Matrix(g), MuonState(Matrix(state)),
                                   hyper, eta)
            want_mom = hyper.beta * state + (1.0 - hyper.beta) * g
            u = _muon_direction(want_mom, hyper)
            want_w = w - eta * (_rms_scale(hyper, u) * u + hyper.weight_decay * w)
            for got, want in ((new_w.a, want_w), (mom.momentum.a, want_mom)):
                assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("matrix_rule", ["muon", "adamw"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_stacked_bank_matches_one_bank_per_run(self, matrix_rule, dtype):
        shapes = {"w0": (6, 8), "b0": (8,), "w1": (8, 1), "w2": (8, 3)}
        decays, etas = [0.0, 0.1, 0.3], [0.05, 0.01, 0.2]
        # eta0 and weight_decay are not read by the bank
        spec = OptimizerSpec(kind=matrix_rule, eta0=1.0, weight_decay=0.7)
        stacked = OptimizerBank(shapes, spec, decays, dtype)
        solo = [OptimizerBank(shapes, spec, [lam], dtype) for lam in decays]
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
        adamw = OptimizerSpec(kind="adamw")
        with pytest.raises(RangeError):
            OptimizerBank({"w": (2, 2)}, adamw, run_decays=[0.1, -0.1])
        with pytest.raises(RangeError):
            OptimizerBank({"w": (2, 2)}, adamw, run_decays=[])
        for bad in (math.nan, math.inf):
            with pytest.raises(RangeError):
                OptimizerBank({"w": (2, 2)}, adamw, run_decays=[bad])


# The paper's quintic coefficients, written out rather than read from the
# presets, so a change to the kernel's coefficients fails the bound below.
PAPER_ABC = (3.4445, -4.7750, 2.0315)


def quintic_critical_points(a: float, b: float, c: float) -> tuple[float, float]:
    """(t-, t+), the local maximum and minimum of p(t) = a t + b t^3 + c t^5:
    their squares are the roots u of 5c u^2 + 3b u + a = 0, where
    p'(sqrt(u)) = 0."""
    disc = math.sqrt(9.0 * b * b - 20.0 * a * c)
    return (math.sqrt((-3.0 * b - disc) / (10.0 * c)),
            math.sqrt((-3.0 * b + disc) / (10.0 * c)))


def quintic_peak(a: float, b: float, c: float) -> float:
    """p(t-), the local maximum of p. For the paper's (a, b, c), p maps
    [0, p(t-)] into itself, so NS from a start with sigma_max <= 1 never
    exceeds p(t-)."""
    t = quintic_critical_points(a, b, c)[0]
    return a * t + b * t**3 + c * t**5


def quintic_peak_start(a: float, b: float, c: float) -> float:
    """The start whose five steps of p land on the peak p(t-). p rises on
    [0, t-] and stays below a t there, so p^4 rises from below t- at
    t-/a^4 to above it at t-/a^3; bisection finds where it meets t-."""
    t_minus = quintic_critical_points(a, b, c)[0]
    lo, hi = t_minus / a**4, t_minus / a**3
    for _ in range(100):
        mid = x = 0.5 * (lo + hi)
        for _ in range(4):
            x = a * x + b * x**3 + c * x**5
        lo, hi = (mid, hi) if x < t_minus else (lo, mid)
    return lo


@st.composite
def momentum_stacks(draw):
    """An f64 momentum stack (R, m, n), R = 1-4 and m, n = 2-16, at an
    overall scale of 1e-8 to 1e8; each slice is Gaussian, zero, rank one,
    or Gaussian with one column scaled by 1e6."""
    runs, rows, cols = (draw(st.integers(lo, hi))
                        for lo, hi in ((1, 4), (2, 16), (2, 16)))
    stack = Rng(draw(st.integers(0, 2**32 - 1))).normal((runs, rows, cols))
    for s in stack:
        kind = draw(st.sampled_from(("gaussian", "zero", "rank-one", "column")))
        if kind == "zero":
            s[:] = 0.0
        elif kind == "rank-one":
            s[:] = np.outer(s[:, 0], s[0])
        elif kind == "column":
            s[:, draw(st.integers(0, cols - 1))] *= 1e6
    return stack * 10.0 ** draw(st.floats(-8.0, 8.0))


def spectral_norms(stack: np.ndarray) -> np.ndarray:
    return np.linalg.svd(stack, compute_uv=False)[..., 0]


class TestMuonDirectionBound:
    """The spectral norm of the Muon direction is bounded whatever the
    momentum's scale or rank (the paper's claim (ii))."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(stack=momentum_stacks())
    def test_newton_schulz_direction_stays_below_the_quintic_peak(self, stack):
        peak = quintic_peak(*PAPER_ABC)
        assert peak == pytest.approx(1.2023686, abs=1e-7)
        u = _muon_direction(stack, OptimizerSpec(coeffs="optimized", k_iters=5))
        assert spectral_norms(u).max() <= peak + 1e-9

    @pytest.mark.parametrize("spec", [OptimizerSpec(coeffs="taylor"),
                                      OptimizerSpec(momentum_only=True)],
                             ids=["taylor", "momentum-only"])
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(stack=momentum_stacks())
    def test_monotone_directions_stay_at_or_below_one(self, spec, stack):
        assert spectral_norms(_muon_direction(stack, spec)).max() <= 1.0 + 1e-12

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(stack=momentum_stacks(), log_c=st.floats(-3.0, 3.0))
    def test_direction_is_scale_invariant(self, stack, log_c):
        # The 1e-12 added to each slice's norm breaks exact invariance, by
        # a relative 1e-10 at most on slices of norm >= 1e-2 at both scales.
        c = 10.0 ** log_c
        spec = OptimizerSpec()
        base, scaled = _muon_direction(stack, spec), _muon_direction(c * stack, spec)
        kept = np.linalg.norm(stack, axis=(-2, -1)) * min(1.0, c) >= 1e-2
        np.testing.assert_allclose(scaled[kept], base[kept], rtol=0.0, atol=1e-8)


@st.composite
def rotated_stacks(draw):
    """A Gaussian f64 stack (R, m, n), R = 1-4 and m, n = 2-16, at an
    overall scale of 1e-6 to 1e6, with orthogonal Q (R, m, m) and
    P (R, n, n) per slice."""
    runs, rows, cols = (draw(st.integers(lo, hi))
                        for lo, hi in ((1, 4), (2, 16), (2, 16)))
    rng = Rng(draw(st.integers(0, 2**32 - 1)))
    stack = rng.normal((runs, rows, cols)) * 10.0 ** draw(st.floats(-6.0, 6.0))
    q = np.linalg.qr(rng.normal((runs, rows, rows)))[0]
    p = np.linalg.qr(rng.normal((runs, cols, cols)))[0]
    return stack, q, p


class TestMuonDirectionEquivariance:
    """Every path of the stacked Muon direction commutes with orthogonal
    maps of each slice: dir(Q M P) = Q dir(M) P, as the matrix sign and
    every odd matrix polynomial of a Frobenius-normalized M do."""

    @pytest.mark.parametrize("spec", [
        OptimizerSpec(coeffs="optimized"), OptimizerSpec(coeffs="taylor"),
        OptimizerSpec(momentum_only=True), OptimizerSpec(exact_msign=True)],
        ids=["newton-schulz", "taylor", "momentum-only", "exact-msign"])
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(case=rotated_stacks())
    def test_direction_commutes_with_orthogonal_maps(self, spec, case):
        # Measured errors are below 3e-14 on every path.
        stack, q, p = case
        rotated = _muon_direction(q @ stack @ p, spec)
        np.testing.assert_allclose(rotated, q @ _muon_direction(stack, spec) @ p,
                                   rtol=0.0, atol=1e-11)


class TestMuonDirectionOrbit:
    """Check 1's identity on the stacked optimizer path: each slice of the
    Newton-Schulz direction has the singular values p^5(sigma_i / ||M||_F),
    with p(t) = a t + b t^3 + c t^5 built from the paper's coefficients."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(case=rotated_stacks())
    def test_singular_values_follow_the_quintic_orbit(self, case):
        # The kernel adds 1e-12 to each slice's norm. Measured errors are
        # below 3e-14; with the kernel's a moved to 3.46 they reach 0.16.
        stack = case[0]
        a, b, c = PAPER_ABC
        t = np.linalg.svd(stack, compute_uv=False)
        t /= np.linalg.norm(stack, axis=(-2, -1))[..., None] + 1e-12
        for _ in range(5):
            t = a * t + b * t**3 + c * t**5
        u = _muon_direction(stack, OptimizerSpec(coeffs="optimized", k_iters=5))
        np.testing.assert_allclose(np.sort(np.linalg.svd(u, compute_uv=False)),
                                   np.sort(t), rtol=0.0, atol=1e-12)


# The paper's Newton-Schulz peak p(t-) (see `quintic_peak`), rounded up.
NS_PEAK = 1.202369


@st.composite
def bank_trajectories(draw):
    """A Muon bank of R = 1-3 runs on one m x n matrix (m, n = 2-12), each
    with decay lambda in [0.01, 1], learning rates with
    0 < eta_t * lambda <= 1, and W_0 at a scale of 1e-2 to 1e2; then 60
    gradients at one scale of 1e-8 to 1e8. Each is Gaussian or, at odds of
    3 in 10, rank one; or one is held fixed, so that the weights drift to
    their fixed point rather than random-walk: the first, a rank-one one
    (whose ``dynamic_rms`` update has spectral norm equal to its Frobenius
    norm), or one with a normalized singular value at
    `quintic_peak_start`, whose direction reaches the peak. Returns
    (spec, W_0, decays, etas, gradients)."""
    runs, rows, cols = (draw(st.integers(lo, hi))
                        for lo, hi in ((1, 3), (2, 12), (2, 12)))
    rng = Rng(draw(st.integers(0, 2**32 - 1)))
    decays = np.array([draw(st.floats(0.01, 1.0)) for _ in range(runs)])
    reach = draw(st.floats(0.05, 1.0))
    etas = reach * rng.uniform(0.5, 1.0, size=(60, runs)) / decays
    w0 = rng.normal((runs, rows, cols)) * 10.0 ** draw(st.floats(-2.0, 2.0))
    grads = rng.normal((60, runs, rows, cols))
    for g in grads.reshape(-1, rows, cols)[rng.uniform(size=60 * runs) < 0.3]:
        g[:] = np.outer(g[:, 0], g[0])
    held = draw(st.sampled_from(("none", "first", "rank-one", "peak")))
    if held == "first":
        grads[:] = grads[0]
    elif held == "rank-one":
        grads[:] = np.outer(grads[0, 0, :, 0], grads[0, 0, 0])
    elif held == "peak":
        short, start = min(rows, cols), quintic_peak_start(*PAPER_ABC)
        t = np.full(short, math.sqrt((1.0 - start**2) / (short - 1)))
        t[0] = start
        q, p = (np.linalg.qr(rng.normal((n, short)))[0] for n in (rows, cols))
        grads[:] = (q * t) @ p.T
    spec = OptimizerSpec(dynamic_rms=draw(st.booleans()))
    return spec, w0, decays, etas, grads * 10.0 ** draw(st.floats(-8.0, 8.0))


class TestBankSpectralBound:
    """The paper's claim (ii): Muon's weights stay bounded whatever the
    gradient scale. Each update is eta_t (s U + lambda W) with
    ||s U||_2 <= s p(t-), so with eta_t lambda <= 1,
    ||W_{t+1}||_2 <= (1 - eta_t lambda) ||W_t||_2 + eta_t s p(t-), and by
    induction ||W_t||_2 <= max(||W_0||_2, s p(t-) / lambda), with
    s = 0.2 sqrt(fan_out). Under ``dynamic_rms`` each update has
    Frobenius norm 0.2 sqrt(mn) eta_t, so the same induction bounds the
    weights by max(||W_0||_2, 0.2 sqrt(mn) / lambda)."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=bank_trajectories())
    def test_weights_stay_below_the_decay_fixed_point(self, case):
        spec, w, decays, etas, grads = case
        rows, cols = w.shape[1:]
        bank = OptimizerBank({"w": (rows, cols)}, spec, decays.tolist())
        if spec.dynamic_rms:
            step_norm = spec.rms_factor * math.sqrt(rows * cols)
        else:
            step_norm = spec.rms_factor * math.sqrt(cols) * NS_PEAK
        bound = np.maximum(spectral_norms(w), step_norm / decays) * (1.0 + 1e-9)
        for eta, g in zip(etas, grads):
            w = bank.step({"w": w}, {"w": g}, eta)["w"]
            assert (spectral_norms(w) <= bound).all()


class TestStiefel:
    """The paper's claim (iii): msign(G) = G (G^T G)^(-1/2) is the point of
    the Stiefel manifold nearest to G in the Frobenius norm (Higham 1986),
    and the Newton-Schulz direction lands near the manifold."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(2, 12),
           cols=st.integers(2, 12), log_scale=st.floats(-4.0, 4.0),
           step=st.floats(1e-3, 1.0))
    def test_exact_sign_is_the_nearest_orthonormal_matrix(self, seed, rows, cols,
                                                          log_scale, step):
        # Wide matrices go through their transposes: orthonormal rows.
        rng = Rng(seed)
        g = rng.normal((rows, cols)) * 10.0 ** log_scale
        tall = g if rows >= cols else g.T
        polar = msign_exact(Matrix(tall)).a

        def orthonormal(x):  # the Q of x = QR with R's diagonal positive
            q, r = np.linalg.qr(x)
            return q * np.sign(np.diag(r))

        haar = orthonormal(rng.normal(tall.shape))
        z = rng.normal(tall.shape)
        sym = polar.T @ z
        tangent = z - polar @ (sym + sym.T) / 2.0
        retracted = orthonormal(polar + step * tangent)
        nearest = np.linalg.norm(tall - polar)
        slack = 1e-12 * np.linalg.norm(tall)
        assert nearest <= np.linalg.norm(tall - haar) + slack
        assert nearest <= np.linalg.norm(tall - retracted) + slack

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=rotated_stacks(), seed=st.integers(0, 2**32 - 1),
           edge=st.booleans())
    def test_newton_schulz_direction_sits_near_the_manifold(self, case, seed,
                                                             edge):
        # Starts sigma_i / ||M||_F >= 1.6e-3 land in [p(t+), p(t-)] after
        # five steps (check 1), so over the short side ||X^T X - I||_2 is at
        # most max(1 - p(t+)^2, p(t-)^2 - 1) = 0.535. Singular values in
        # [6.4e-3, 1] give such starts on up to 16 of them; ``edge`` puts
        # one at 6.4e-3 and the rest at 1, a start of 1.65e-3 at 16.
        stack, q, p = case
        short = min(stack.shape[1:])
        lowest = 6.4e-3
        sigma = 10.0 ** Rng(seed).uniform(math.log10(lowest), 0.0,
                                          size=(len(stack), short))
        if edge:
            sigma[:, 0], sigma[:, 1:] = lowest, 1.0
        starts = sigma / np.linalg.norm(sigma, axis=-1, keepdims=True)
        assert starts.min() >= 1.6e-3
        scale = np.linalg.norm(stack, axis=(-2, -1), keepdims=True)
        m = (q[..., :short] * sigma[:, None, :]) @ p[:, :short, :] * scale
        x = _muon_direction(m, OptimizerSpec(coeffs="optimized", k_iters=5))
        gram = (x.swapaxes(-1, -2) @ x if m.shape[1] >= m.shape[2]
                else x @ x.swapaxes(-1, -2))
        a, b, c = PAPER_ABC
        t_plus = quintic_critical_points(a, b, c)[1]
        trough = a * t_plus + b * t_plus**3 + c * t_plus**5
        bound = max(1.0 - trough**2, quintic_peak(a, b, c) ** 2 - 1.0)
        assert bound == pytest.approx(0.535, abs=2e-4)
        gap = np.linalg.norm(gram - np.eye(short), ord=2, axis=(-2, -1))
        assert gap.max() <= bound + 1e-9


@st.composite
def adamw_runs(draw):
    """(beta1, beta2, eta, gradients (t, 3, 4)) with beta1^2 < beta2 and
    t = 1-40; the gradients share an overall scale of 1e-4 to 1e4, and
    each step's is Gaussian, zero, or one entry alone."""
    beta1 = draw(st.floats(0.0, 0.99))
    beta2 = draw(st.floats(beta1 * beta1, 0.9999, exclude_min=True))
    steps = draw(st.integers(1, 40))
    grads = Rng(draw(st.integers(0, 2**32 - 1))).normal((steps, 3, 4))
    for g in grads:
        kind = draw(st.sampled_from(("gaussian", "zero", "spike")))
        if kind == "zero":
            g[:] = 0.0
        elif kind == "spike":
            g[:] = 0.0
            g[1, 2] = 1.0
    return (beta1, beta2, draw(st.floats(1e-4, 1.0)),
            grads * 10.0 ** draw(st.floats(-4.0, 4.0)))


class TestAdamWStepBound:
    """Kingma & Ba (arXiv:1412.6980, section 2.1) bound each entry of the
    bias-corrected step. By Cauchy-Schwarz on the moments' sums,
    |m_t| <= (1 - b1) sqrt(v_t / (1 - b2)) sqrt(S_t) with
    S_t = sum_{k<t} (b1^2 / b2)^k, so at decay 0
    |update| <= eta (1 - b1) / sqrt(1 - b2) * sqrt(1 - b2^t) / (1 - b1^t)
    * sqrt(S_t), which is eta at t = 1 and stays finite where b1^2 < b2."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(run=adamw_runs())
    def test_every_entry_obeys_the_bias_corrected_bound(self, run):
        beta1, beta2, eta, grads = run
        spec = OptimizerSpec(kind="adamw", beta1=beta1, beta2=beta2)
        w = m = v = np.zeros(grads.shape[1:])
        step_count = 0
        for g in grads:
            w, m, v, step_count, update = _adamw_core(w, g, m, v, step_count,
                                                      spec, eta, 0.0)
            t = step_count
            ratio = beta1 * beta1 / beta2
            bound = (eta * (1.0 - beta1) / math.sqrt(1.0 - beta2)
                     * math.sqrt(1.0 - beta2**t) / (1.0 - beta1**t)
                     * math.sqrt(sum(ratio**k for k in range(t))))
            assert np.abs(update).max() <= bound * (1.0 + 1e-12)
