"""The dense weighting network: forward, backward, and serialization."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wenocad import network
from wenocad import weights as wt
from wenocad.errors import (
    NetworkEvalError,
    ParamsDimensionError,
    ParamsFormatError,
    ParamsVersionError,
)

from conftest import stencil_trace

# multiples of 2^-10 up to 2^20 in size, exact under sums and differences
DYADIC = st.integers(-2**30, 2**30).map(lambda k: k / 1024.0)


class TestInit:
    def test_shapes(self, random_params):
        p = random_params
        assert p.w1.shape == (16, 4)
        assert p.b1.shape == (16,)
        assert p.w2.shape == (16, 16)
        assert p.w3.shape == (2, 16)
        assert p.b3.shape == (2,)

    def test_uniform_bounds_and_zero_biases(self):
        p = network.init_params(seed=0)
        assert np.all(np.abs(p.w1) <= 1.0 / np.sqrt(4))
        assert np.all(np.abs(p.w2) <= 1.0 / np.sqrt(16))
        assert np.all(np.abs(p.w3) <= 1.0 / np.sqrt(16))
        assert np.all(p.b1 == 0.0)
        assert np.all(p.b2 == 0.0)
        assert np.all(p.b3 == 0.0)

    def test_parameters_are_one_vector(self, random_params):
        p = random_params.copy()
        with pytest.raises(AttributeError):
            p.w2 = np.zeros((16, 16))
        with pytest.raises(ParamsDimensionError):
            network.NetworkParams(np.zeros(network.NetworkParams.SIZE - 1))

    def test_equality_is_identity(self, random_params):
        # comparing two parameter sets must answer, not raise on the
        # truth value of an array
        p = random_params
        assert p == p
        assert (p == p.copy()) is False
        assert p != p.copy()

    def test_deterministic_per_seed(self):
        a = network.init_params(seed=11)
        b = network.init_params(seed=11)
        c = network.init_params(seed=12)
        for x, y in zip(a.arrays(), b.arrays()):
            np.testing.assert_array_equal(x, y)
        assert not np.array_equal(a.w1, c.w1)


class TestActivations:
    def test_gelu_values(self):
        assert network.gelu(0.0) == 0.0
        assert abs(network.gelu(1e3) - 1e3) < 1e-9
        assert abs(network.gelu(-1e3)) < 1e-9

    def test_gelu_prime_matches_difference_quotient(self):
        x = np.linspace(-3, 3, 31)
        h = 1e-6
        fd = (network.gelu(x + h) - network.gelu(x - h)) / (2 * h)
        np.testing.assert_allclose(network.gelu_prime(x), fd, atol=1e-8)

    def test_softmax_rows(self):
        z = np.array([[0.0, 0.0], [100.0, -100.0], [1e300, 1e300]])
        w = network.softmax(z)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, rtol=0, atol=1e-15)
        np.testing.assert_allclose(w[0], [0.5, 0.5])
        assert w[1, 0] > 1.0 - 1e-12


class TestForward:
    def test_shapes(self, random_params):
        out = network.forward_array(random_params, np.zeros((7, 3)))
        assert out.shape == (7, 2)
        out = network.forward_array(random_params, np.zeros((4, 5, 3)))
        assert out.shape == (4, 5, 2)

    def test_convexity(self, random_params):
        rng = np.random.default_rng(0)
        w = network.forward_array(random_params, rng.uniform(-2, 2, (200, 3)))
        np.testing.assert_allclose(w.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert np.all(w > 0.0)

    def test_shift_invariance_exact(self, random_params):
        s = np.array([[0.2, -0.4, 0.9]])
        a = network.forward_array(random_params, s)
        b = network.forward_array(random_params, s + 5.0)
        np.testing.assert_array_equal(a, b)

    @given(s=arrays(np.float64, st.tuples(st.integers(1, 40), st.just(3)),
                    elements=DYADIC),
           shift=DYADIC)
    @settings(max_examples=100, deadline=None)
    def test_shift_invariance_on_dyadic_stencils(self, cadnn2_params, s,
                                                 shift):
        # the shift and every difference are exact, so the feature rows
        # agree bit for bit
        np.testing.assert_array_equal(
            network.forward_array(cadnn2_params, s + shift),
            network.forward_array(cadnn2_params, s))

    @given(s=arrays(np.float64, st.tuples(st.integers(1, 40), st.just(3)),
                    elements=st.floats(-1e6, 1e6)),
           k=st.integers(-60, 60))
    @settings(max_examples=100, deadline=None)
    def test_power_of_two_scale_invariance(self, cadnn2_params, s, k):
        # scaling by 2^k commutes with rounding while nothing under- or
        # overflows; keep the rows whose differences stay clear of the
        # clamp at both scales
        d = np.abs(np.diff(s, axis=1)).min(axis=1)
        s = s[d * min(1.0, 2.0**k) > 10 * wt.EPS_DELTA_MOD]
        np.testing.assert_array_equal(
            network.forward_array(cadnn2_params, np.ldexp(s, k)),
            network.forward_array(cadnn2_params, s))

    def test_scalar_entry_point(self, random_params):
        w = network.forward_array(random_params, np.array([0.1, 0.2, 0.8]))
        assert w.shape == (2,)
        assert abs(w[0] + w[1] - 1.0) < 1e-12

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_overflowing_differences(self, cadnn2_params):
        s = np.array([[0.0, 1e308, -1e308]])
        w = network.forward_array(cadnn2_params, s)
        assert np.all(np.isfinite(w))
        assert abs(w[0, 0] + w[0, 1] - 1.0) < 1e-12
        np.testing.assert_array_equal(
            w, network.forward_array(cadnn2_params, np.ldexp(s, -1030)))

    def test_nan_parameters_raise(self, random_params):
        bad = random_params.copy()
        bad.w2[0, 0] = np.nan
        with pytest.raises(NetworkEvalError):
            network.forward_array(bad, np.zeros((2, 3)))


class TestTraceNonFinite:
    """`forward_trace` names the first layer whose output is non-finite."""

    FEATURES = wt.modified_delta_array(
        np.random.default_rng(5).uniform(-1, 1, (30, 3)))

    # a non-finite bias entry enters at its layer; -inf in an output bias
    # only sends that weight to 0, which is finite
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("layer, value, name", [
        ("b1", np.nan, "hidden layer 1"), ("b1", np.inf, "hidden layer 1"),
        ("b1", -np.inf, "hidden layer 1"),
        ("b2", np.nan, "hidden layer 2"), ("b2", np.inf, "hidden layer 2"),
        ("b2", -np.inf, "hidden layer 2"),
        ("b3", np.nan, "output layer"), ("b3", np.inf, "output layer"),
    ])
    def test_bias_names_its_layer(self, random_params, layer, value, name):
        bad = random_params.copy()
        getattr(bad, layer)[3 % getattr(bad, layer).size] = value
        with pytest.raises(NetworkEvalError,
                           match=f"^{name} produced non-finite values$"):
            network.forward_trace(bad, self.FEATURES)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_weights_name_their_layer(self, random_params):
        bad = random_params.copy()
        bad.w2[...] = 1e308
        with pytest.raises(NetworkEvalError, match="^hidden layer 2 "):
            network.forward_trace(bad, self.FEATURES)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_feature_names_the_first_layer(self, random_params, value):
        x = self.FEATURES.copy()
        x[7, 2] = value
        with pytest.raises(NetworkEvalError, match="^hidden layer 1 "):
            network.forward_trace(random_params, x)

    def test_minus_inf_output_bias_is_finite(self, random_params):
        bad = random_params.copy()
        bad.b3[0] = -np.inf
        tr = network.forward_trace(bad, self.FEATURES)
        assert np.all(tr.omega == [0.0, 1.0])


class TestBackward:
    def test_matches_finite_differences(self, random_params):
        rng = np.random.default_rng(1)
        s = rng.uniform(-1, 1, (40, 3))
        target = network.forward_array(random_params, s) * 0.0 + 0.5

        def objective(p):
            w = network.forward_array(p, s)
            return float(np.sum((w - target) ** 2))

        trace = stencil_trace(random_params, s)
        domega = 2.0 * (trace.omega - target)
        grads = network.backward_trace(random_params, trace, domega)

        arrays = random_params.arrays()
        for ai, (arr, g) in enumerate(zip(arrays, grads)):
            idx = tuple(rng.integers(0, d) for d in arr.shape)
            h = 1e-6
            p_plus = random_params.copy()
            p_plus.arrays()[ai][idx] += h
            p_minus = random_params.copy()
            p_minus.arrays()[ai][idx] -= h
            fd = (objective(p_plus) - objective(p_minus)) / (2 * h)
            assert abs(g[idx] - fd) < 1e-5 * max(1.0, abs(fd))


class TestSerialization:
    def test_round_trip_bits(self, tmp_path, random_params):
        path = tmp_path / "w.json"
        params = random_params.copy()
        params.hyper_c = 5750.0
        params.training_loss = 0.123456789012345678
        network.save_params(params, path)
        back = network.load_params(path)
        for a, b in zip(params.arrays(), back.arrays()):
            np.testing.assert_array_equal(a, b)
        assert back.hyper_c == 5750.0
        assert back.training_loss == params.training_loss
        assert back.rng_seed == params.rng_seed

    def test_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParamsFormatError):
            network.load_params(path)

    def test_wrong_version(self, tmp_path, random_params):
        path = tmp_path / "w.json"
        network.save_params(random_params, path)
        blob = json.loads(path.read_text())
        blob["format_version"] = 99
        path.write_text(json.dumps(blob))
        with pytest.raises(ParamsVersionError):
            network.load_params(path)

    @pytest.mark.parametrize("where, value", [
        (("metadata",), []),
        (("layers", "b1"), ["a"] * 16),
        (("layers", "w1"), [[1, 2], [3]]),
    ], ids=["metadata", "non-numeric", "ragged"])
    def test_malformed_entries(self, tmp_path, random_params, where, value):
        path = tmp_path / "w.json"
        network.save_params(random_params, path)
        blob = json.loads(path.read_text())
        table = blob if len(where) == 1 else blob[where[0]]
        table[where[-1]] = value
        path.write_text(json.dumps(blob))
        with pytest.raises(ParamsFormatError):
            network.load_params(path)

    def test_wrong_shape(self, tmp_path, random_params):
        path = tmp_path / "w.json"
        network.save_params(random_params, path)
        blob = json.loads(path.read_text())
        blob["layers"]["w1"] = [[0.0] * 3] * 16
        path.write_text(json.dumps(blob))
        with pytest.raises(ParamsDimensionError):
            network.load_params(path)
