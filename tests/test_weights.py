"""Classical weights, smoothness indicators, and the feature maps."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wenocad import cli, network
from wenocad import reconstruction as rec
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
        b0, b1 = (b[0] for b in wt.beta3_rows(wt.stencil_rows(s)))
        for row, beta0, beta1 in zip(s, b0, b1):
            assert beta0 == (row[0] - row[1]) ** 2
            assert beta1 == (row[1] - row[2]) ** 2

    def test_beta5_oracle(self):
        rng = np.random.default_rng(3)
        s = rng.uniform(-2, 2, size=(30, 5))
        b0, b1, b2 = (b[0] for b in wt.beta5_rows(wt.stencil_rows(s)))
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


def straight_flip(w):
    """`flip_weights_array` with one new array per operation: the
    reference for the bits of its in-place form."""
    w = np.asarray(w, dtype=float)
    denom = np.maximum(4.0 * w[..., 0] + w[..., 1], wt.EPS_DELTA_MOD)
    return np.stack((w[..., 1] / denom, 4.0 * w[..., 0] / denom), axis=-1)


def straight_gauge(s):
    """`gauge_array` with one new array per operation."""
    s = np.asarray(s, dtype=float)
    r1 = np.maximum(np.abs(s[..., 0] - s[..., 1]), wt.EPS_DELTA_MOD)
    r2 = np.maximum(np.abs(s[..., 1] - s[..., 2]), wt.EPS_DELTA_MOD)
    r = np.maximum(r1 / r2, r2 / r1)
    with np.errstate(under="ignore"):
        return np.exp(-wt.GAUGE_RATE * r)


def assert_bits_of(fn, straight, a):
    """fn(a) has the shape, type and bits of straight(a)."""
    got, want = fn(a), straight(a)
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestFlipIdentity:
    def test_bits_of_the_straight_form(self):
        rng = np.random.default_rng(5)
        w0 = np.concatenate((rng.uniform(0, 1, 1000), [0.0, 1.0, 1e-310, 1 / 3]))
        w = np.stack((w0, 1.0 - w0), axis=1)
        for pairs in (w, w.reshape(4, -1, 2), w[:, ::-1], w[7], [[0.0, 0.0]]):
            assert_bits_of(wt.flip_weights_array, straight_flip, pairs)

    def test_flip_weights_formula(self):
        w = np.array([0.25, 0.75])
        out = wt.flip_weights_array(w)
        q = 4.0 * 0.25 + 0.75
        assert abs(out[0] - 0.75 / q) < 1e-15
        assert abs(out[1] - 1.0 / q) < 1e-15

    def test_linear_pair_is_fixed_point(self):
        out = wt.flip_weights_array(np.array(wt.LINEAR3))
        assert abs(out[0] - 1.0 / 3.0) < 1e-15

    @given(s=arrays(np.float64, st.tuples(st.integers(1, 30), st.just(3)),
                    elements=st.one_of(
                        st.floats(allow_nan=False, allow_infinity=False),
                        st.sampled_from([0.0, 1.0, -1.0, 0.5, 1e-300, 1e300]))))
    @settings(max_examples=200, deadline=None)
    def test_reversal_identity_over_all_magnitudes(self, s):
        # The reversed stencil's weights equal flip_weights_array of the
        # original's to round-off.  Over 10^6 random stencils scaled from
        # 1e-300 to 1e300 the largest defect was 2.2e-16, one ulp of 1.
        for fn in (wt.js_weights_array, wt.z_weights_array):
            np.testing.assert_allclose(fn(s[:, ::-1]), wt.flip_weights_array(fn(s)),
                                       rtol=0, atol=4.5e-16)

    def test_classical_weights_satisfy_identity(self):
        s = random_stencils(500, seed=8)
        for fn in (wt.js_weights_array, wt.z_weights_array):
            w = fn(s)
            w_rev = fn(s[:, ::-1])
            np.testing.assert_allclose(
                w_rev, wt.flip_weights_array(w), rtol=0, atol=1e-10
            )


class TestGauge:
    def test_bits_of_the_straight_form(self):
        rng = np.random.default_rng(6)
        s = rng.uniform(-1, 1, (1000, 3)) * 10.0 ** rng.uniform(-12, 6, (1000, 1))
        edges = [
            [2.0, 2.0, 2.0],          # constant: both differences zero
            [1.0, 1.0, 3.0],          # one zero difference
            [-1.0, 2.0, 2.0],
            [0.0, 1.0, 1e9],          # a difference ratio of 1e9
            [0.0, 1.0, 1.0 + 1e-3],   # a gauge that underflows to 0
            [0.0, 1.0, 2.0],
            [0.0, 1e-12, 2e-12],      # both differences below the clamp
        ]
        s = np.concatenate((s, edges))
        assert wt.gauge_array(s[-3]) == 0.0
        for stencils in (s, s[:1001].reshape(-1, 7, 3), s[:, ::-1], s[-3], s[0]):
            assert_bits_of(wt.gauge_array, straight_gauge, stencils)

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
        for fn in (wt.js5_weights_array, rec.Weno5M().weights):
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
        w_m = rec.Weno5M().weights(s)[0]
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


@pytest.fixture(scope="module")
def strategies():
    """The strategies of every scheme of a stencil width, by width."""
    loaded = [cli.load_strategy(name) for name in cli.scheme_names()]
    return lambda width: [s for s in loaded if s.stencil_width == width]


class TestMagnitude:
    """Squared differences that overflow are recomputed after an exact
    power-of-two rescale instead of turning into NaN weights.  The
    properties hold for the window form of every scheme's weights."""

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
        assert_convex(rec.Weno5M().weights([0.0, 1e78, 0.0, -1e78, 0.0]))

    def test_features_of_overflowing_differences(self):
        s = np.array([0.0, 1e308, -1e308])
        d = wt.modified_delta_array(s)
        assert np.all(np.isfinite(d))
        # scale invariance away from the clamps
        np.testing.assert_array_equal(d, wt.modified_delta_array(np.ldexp(s, -1030)))

    def test_plain_features_of_overflowing_differences(self):
        s = np.array([0.0, 1e308, -1e308])
        d = wt.delta_array(s)
        assert np.all(np.isfinite(d))
        np.testing.assert_array_equal(d, wt.delta_array(np.ldexp(s, -1030)))
        np.testing.assert_array_equal(wt.delta_layer(s).as_array(), d)

    def test_only_overflowing_rows_change(self):
        s = np.array([[0.3, -1.2, 0.7], [0.0, 1e200, 0.0], [1.0, 1.0, 2.0]])
        for kernel in (wt.js_weights_array, wt.z_weights_array, wt.delta_array,
                       wt.modified_delta_array):
            w = kernel(s)
            np.testing.assert_array_equal(w[[0, 2]], kernel(s[[0, 2]]))
            assert np.all(np.isfinite(w[1]))

    def test_rescued_stencils_warn_nothing(self, cadnn2_params):
        # the first pass overflows on these; the rescue leaves nothing to report
        with warnings.catch_warnings(), np.errstate(all="warn", under="ignore"):
            warnings.simplefilter("error")
            assert_convex(wt.js_weights_array([[0.0, 1e78, 0.0]]))
            assert_convex(wt.z_weights_array([[0.0, 1e155, 0.0]]))
            assert_convex(network.forward_array(cadnn2_params, [[0.0, 1e308, -1e308]]))

    @given(s=arrays(np.float64, st.tuples(st.integers(1, 20), st.just(3)),
                    elements=st.floats(allow_nan=False, allow_infinity=False)))
    @settings(max_examples=200, deadline=None)
    def test_three_point_weights_finite_and_convex(self, strategies, s):
        assert_convex(wt.js_weights_array(s))
        assert_convex(wt.z_weights_array(s))
        for strategy in strategies(3):
            assert_convex(strategy.weights(s))
        assert np.all(np.isfinite(wt.modified_delta_array(s)))

    @given(s=arrays(np.float64, st.tuples(st.integers(1, 20), st.just(5)),
                    elements=st.floats(allow_nan=False, allow_infinity=False)))
    @settings(max_examples=200, deadline=None)
    def test_five_point_weights_finite_and_convex(self, strategies, s):
        assert_convex(wt.js5_weights_array(s))
        for strategy in strategies(5):
            assert_convex(strategy.weights(s))
