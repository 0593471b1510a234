"""Classical weights, smoothness indicators, and the feature maps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wenocad import weights as wt
from wenocad.errors import DimensionError


def random_stencils(n, seed, lo=1e-3, hi=1e3):
    """Stencils whose two smoothness indicators lie in [lo, hi]."""
    rng = np.random.default_rng(seed)
    beta = 10.0 ** rng.uniform(np.log10(lo), np.log10(hi), size=(n, 2))
    sign = rng.choice([-1.0, 1.0], size=(n, 2))
    d = sign * np.sqrt(beta)
    f0 = rng.uniform(-1.0, 1.0, size=n)
    return np.stack([f0, f0 - d[:, 0], f0 - d[:, 0] - d[:, 1]], axis=1)


class TestDeltaLayers:
    def test_modified_constant_stencil(self):
        d = wt.modified_delta_layer((1.0, 1.0, 1.0))
        assert d.as_array().tolist() == [1.0, 1.0, 0.0, 0.0]

    def test_modified_linear_stencil(self):
        d = wt.modified_delta_layer((1.0, 2.0, 3.0))
        assert d.as_array().tolist() == [1.0, 1.0, 2.0, 0.0]

    def test_plain_constant_stencil(self):
        d = wt.delta_layer((1.0, 1.0, 1.0))
        assert d.as_array().tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_shift_invariance(self):
        s = np.array([0.3, -1.2, 0.7])
        a = wt.modified_delta_array(s)
        b = wt.modified_delta_array(s + 10.0)
        np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-12)

    def test_scale_invariance_away_from_clamp(self):
        s = np.array([0.3, -1.2, 0.7])
        a = wt.modified_delta_array(s)
        b = wt.modified_delta_array(1000.0 * s)
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_sign_invariance(self):
        s = np.array([0.3, -1.2, 0.7])
        np.testing.assert_allclose(
            wt.modified_delta_array(s), wt.modified_delta_array(-s), rtol=0.0
        )

    def test_oracle_formula(self):
        s = random_stencils(50, seed=1)
        got = wt.modified_delta_array(s)
        for row, out in zip(s, got):
            r1 = max(abs(row[0] - row[1]), wt.EPS_DELTA_MOD)
            r2 = max(abs(row[1] - row[2]), wt.EPS_DELTA_MOD)
            r3 = abs(row[0] - row[2])
            r4 = abs(row[0] - 2.0 * row[1] + row[2])
            m = max(r1, r2)
            np.testing.assert_allclose(
                out, [r1 / m, r2 / m, r3 / m, r4 / m], rtol=1e-14
            )


class TestBetaIndicators:
    def test_against_definition(self):
        s = random_stencils(20, seed=2)
        b0, b1 = wt.beta3_array(s)
        for row, beta0, beta1 in zip(s, b0, b1):
            assert beta0 == (row[0] - row[1]) ** 2
            assert beta1 == (row[1] - row[2]) ** 2

    def test_beta5_oracle(self):
        rng = np.random.default_rng(3)
        s = rng.uniform(-2, 2, size=(30, 5))
        b0, b1, b2 = wt.beta5_array(s)
        f = [s[:, k] for k in range(5)]
        c = 13.0 / 12.0
        np.testing.assert_allclose(
            b0, c * (f[0] - 2 * f[1] + f[2]) ** 2
            + 0.25 * (f[0] - 4 * f[1] + 3 * f[2]) ** 2, rtol=1e-14)
        np.testing.assert_allclose(
            b1, c * (f[1] - 2 * f[2] + f[3]) ** 2
            + 0.25 * (f[1] - f[3]) ** 2, rtol=1e-14)
        np.testing.assert_allclose(
            b2, c * (f[2] - 2 * f[3] + f[4]) ** 2
            + 0.25 * (3 * f[2] - 4 * f[3] + f[4]) ** 2, rtol=1e-14)


class TestClassicalWeights:
    def test_js_oracle(self):
        s = random_stencils(100, seed=4)
        got = wt.js_weights_array(s)
        b0 = (s[:, 0] - s[:, 1]) ** 2
        b1 = (s[:, 1] - s[:, 2]) ** 2
        a0 = (1.0 / 3.0) / (b0 + wt.EPS_JS) ** 2
        a1 = (2.0 / 3.0) / (b1 + wt.EPS_JS) ** 2
        np.testing.assert_allclose(got[:, 0], a0 / (a0 + a1), rtol=1e-13)
        np.testing.assert_allclose(got[:, 1], a1 / (a0 + a1), rtol=1e-13)

    def test_z_oracle(self):
        s = random_stencils(100, seed=5)
        got = wt.z_weights_array(s)
        b0 = (s[:, 0] - s[:, 1]) ** 2
        b1 = (s[:, 1] - s[:, 2]) ** 2
        tau = np.abs(b0 - b1)
        a0 = (1.0 / 3.0) * (1.0 + (tau / (b0 + wt.EPS_Z)) ** 2)
        a1 = (2.0 / 3.0) * (1.0 + (tau / (b1 + wt.EPS_Z)) ** 2)
        np.testing.assert_allclose(got[:, 0], a0 / (a0 + a1), rtol=1e-13)

    def test_sum_to_one(self):
        s = random_stencils(1000, seed=6)
        for fn in (wt.js_weights_array, wt.z_weights_array):
            w = fn(s)
            np.testing.assert_allclose(w.sum(axis=1), 1.0, rtol=0, atol=1e-12)
            assert np.all(w >= 0.0)

    def test_z_exact_on_zero_curvature(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(-5, 5, 200)
        slope = rng.uniform(-3, 3, 200)
        s = a[:, None] + slope[:, None] * np.arange(3)
        w = wt.z_weights_array(s)
        np.testing.assert_allclose(w[:, 0], 1.0 / 3.0, rtol=0, atol=1e-13)
        np.testing.assert_allclose(w[:, 1], 2.0 / 3.0, rtol=0, atol=1e-13)

    def test_js_equal_indicators_give_linear(self):
        w = wt.js_weights_array(np.array([0.0, 1.0, 2.0]))
        assert abs(w[0] - 1.0 / 3.0) < 1e-13

    def test_one_sided_jump_suppresses_crossing_substencil(self):
        w = wt.z_weights_array(np.array([5.0, 0.0, 0.0]))
        assert w[0] < 1e-6
        w = wt.z_weights_array(np.array([0.0, 0.0, 5.0]))
        assert w[1] < 1e-6


class TestFlipIdentity:
    def test_flip_weights_formula(self):
        w = np.array([0.25, 0.75])
        out = wt.flip_weights_array(w)
        q = 4.0 * 0.25 + 0.75
        assert abs(out[0] - 0.75 / q) < 1e-15
        assert abs(out[1] - 1.0 / q) < 1e-15

    def test_linear_pair_is_fixed_point(self):
        out = wt.flip_weights_array(np.array(wt.LINEAR3))
        assert abs(out[0] - 1.0 / 3.0) < 1e-15

    def test_classical_weights_satisfy_identity(self):
        s = random_stencils(500, seed=8)
        for fn in (wt.js_weights_array, wt.z_weights_array):
            w = fn(s)
            w_rev = fn(s[:, ::-1])
            np.testing.assert_allclose(
                w_rev, wt.flip_weights_array(w), rtol=0, atol=1e-10
            )


class TestGauge:
    def test_equal_differences(self):
        assert abs(wt.gauge_array((0.0, 1.0, 2.0))
                   - np.exp(-wt.GAUGE_RATE)) < 1e-15

    def test_jump_underflows(self):
        assert wt.gauge_array((0.0, 0.0, 1e6)) == 0.0

    def test_ratio_formula(self):
        s = (0.0, 1.0, 3.0)   # differences 1 and 2, ratio 2
        assert abs(wt.gauge_array(s) - np.exp(-2 * wt.GAUGE_RATE)) < 1e-15


class TestWeno5Weights:
    def test_sum_to_one(self):
        rng = np.random.default_rng(9)
        s = rng.uniform(-2, 2, size=(500, 5))
        for fn in (wt.js5_weights_array, wt.m5_weights_array):
            w = fn(s)
            np.testing.assert_allclose(w.sum(axis=1), 1.0, rtol=0, atol=1e-12)
            assert np.all(w >= 0.0)

    def test_mapping_fixed_points(self):
        for k, d in enumerate(wt.LINEAR5):
            assert abs(wt._henrick_map(d, d) - d) < 1e-15

    def test_mapped_closer_to_linear_on_smooth(self):
        x = 0.01 * np.arange(5)
        s = np.sin(1.0 + x)[None, :]
        w_js = wt.js5_weights_array(s)[0]
        w_m = wt.m5_weights_array(s)[0]
        lin = np.array(wt.LINEAR5)
        assert np.abs(w_m - lin).max() <= np.abs(w_js - lin).max() + 1e-12


class TestContainers:
    def test_wrong_width_raises(self):
        with pytest.raises(DimensionError):
            wt.delta_layer(np.array([1.0, 2.0]))


def assert_convex(w, tol=1e-12):
    assert np.all(np.isfinite(w))
    assert np.all(w >= 0.0)
    np.testing.assert_allclose(w.sum(axis=-1), 1.0, rtol=0.0, atol=tol)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
class TestMagnitude:
    """Squared differences that overflow are recomputed after an exact
    power-of-two rescale instead of turning into NaN weights."""

    def test_js_past_squared_overflow(self):
        w = wt.js_weights_array([[0.0, 1e78, 0.0]])
        assert_convex(w)
        np.testing.assert_allclose(w[0], wt.LINEAR3, rtol=1e-12)

    def test_z_past_squared_overflow(self):
        w = wt.z_weights_array([[0.0, 1e155, 0.0]])
        assert_convex(w)
        np.testing.assert_allclose(w[0], wt.LINEAR3, rtol=1e-12)

    def test_js5_past_squared_overflow(self):
        w = wt.js5_weights_array([0.0, 1e78, 0.0, -1e78, 0.0])
        assert_convex(w)
        assert_convex(wt.m5_weights_array([0.0, 1e78, 0.0, -1e78, 0.0]))

    def test_features_of_overflowing_differences(self):
        s = np.array([0.0, 1e308, -1e308])
        d = wt.modified_delta_array(s)
        assert np.all(np.isfinite(d))
        # scale invariance away from the clamps
        np.testing.assert_array_equal(d, wt.modified_delta_array(np.ldexp(s, -1030)))

    def test_only_overflowing_rows_change(self):
        s = np.array([[0.3, -1.2, 0.7], [0.0, 1e200, 0.0], [1.0, 1.0, 2.0]])
        for kernel in (wt.js_weights_array, wt.z_weights_array, wt.modified_delta_array):
            w = kernel(s)
            np.testing.assert_array_equal(w[[0, 2]], kernel(s[[0, 2]]))
            assert np.all(np.isfinite(w[1]))

    @given(s=arrays(np.float64, st.tuples(st.integers(1, 20), st.just(3)),
                    elements=st.floats(allow_nan=False, allow_infinity=False)))
    @settings(max_examples=200, deadline=None)
    def test_three_point_weights_finite_and_convex(self, s):
        assert_convex(wt.js_weights_array(s))
        assert_convex(wt.z_weights_array(s))
        assert np.all(np.isfinite(wt.modified_delta_array(s)))

    @given(s=arrays(np.float64, st.tuples(st.integers(1, 20), st.just(5)),
                    elements=st.floats(allow_nan=False, allow_infinity=False)))
    @settings(max_examples=200, deadline=None)
    def test_five_point_weights_finite_and_convex(self, s):
        assert_convex(wt.js5_weights_array(s))
        assert_convex(wt.m5_weights_array(s))
