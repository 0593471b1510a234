"""Bit-identity of the solver's hot path against the plain formulas.

The sweep hands the kernels read-only strided windows, the classical
kernels work in place, and the network's inference pass keeps no layer.
None of that may change a bit: each test here compares the program with a
reference written the plain way (stacked window copies, one expression
per quantity, the full training trace) and requires exact equality.
"""

from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import erf

from wenocad import cli, network
from wenocad import reconstruction as rec
from wenocad import weights as wt

SCHEMES = cli.scheme_names()
PROPERTY = settings(max_examples=60, deadline=None)

# Values on a coarse lattice repeat often, so stencils with equal or zero
# differences (the epsilon guards and the clamps) turn up as well as
# generic ones.
values = st.one_of(
    st.floats(-4.0, 4.0, allow_nan=False, allow_subnormal=False),
    st.sampled_from([0.0, 0.5, 1.0, -1.0, 1e-3, 2.0 ** -30, 7.0]),
)


def stencil_arrays(width, max_rows=40):
    shape = st.tuples(st.integers(1, max_rows), st.just(width))
    return arrays(np.float64, shape, elements=values)


# ---------------------------------------------------------------------------
# references: the formulas as plain expressions


def stacked_windows(a, offsets, m):
    return np.stack([a[k : k + m] for k in offsets], axis=-1)


def reference_sweep(fp, fm, strategy):
    """interface_fluxes with copied windows and a product-then-sum blend."""
    g = rec.ghost_width(strategy)
    r = g - 1
    m = fp.shape[0] - 2 * g + 1
    parts = []
    for f, offsets in ((fp, range(g - 1 - r, g + r)),
                       (fm, range(g + r, g - r - 1, -1))):
        s = stacked_windows(f, offsets, m)
        w, q = strategy.weights(s), strategy.candidates(s)
        parts.append(reduce(np.add, (w[..., k] * qk for k, qk in enumerate(q))))
    return parts[0] + parts[1]


def reference_beta3(s):
    return (s[..., 0] - s[..., 1]) ** 2, (s[..., 1] - s[..., 2]) ** 2


def reference_js(s, eps=wt.EPS_JS):
    b0, b1 = reference_beta3(s)
    a0 = wt.LINEAR3[0] / (b0 + eps) ** 2
    a1 = wt.LINEAR3[1] / (b1 + eps) ** 2
    tot = a0 + a1
    return np.stack((a0 / tot, a1 / tot), axis=-1)


def reference_z(s, eps=wt.EPS_Z):
    b0, b1 = reference_beta3(s)
    tau = np.abs(b0 - b1)
    a0 = wt.LINEAR3[0] * (1.0 + (tau / (b0 + eps)) ** 2)
    a1 = wt.LINEAR3[1] * (1.0 + (tau / (b1 + eps)) ** 2)
    tot = a0 + a1
    return np.stack((a0 / tot, a1 / tot), axis=-1)


def reference_beta5(s):
    f0, f1, f2, f3, f4 = (s[..., k] for k in range(5))
    c = 13.0 / 12.0
    b0 = c * (f0 - 2.0 * f1 + f2) ** 2 + 0.25 * (f0 - 4.0 * f1 + 3.0 * f2) ** 2
    b1 = c * (f1 - 2.0 * f2 + f3) ** 2 + 0.25 * (f1 - f3) ** 2
    b2 = c * (f2 - 2.0 * f3 + f4) ** 2 + 0.25 * (3.0 * f2 - 4.0 * f3 + f4) ** 2
    return b0, b1, b2


def reference_js5(s, eps=wt.EPS_JS):
    b0, b1, b2 = reference_beta5(s)
    a0 = wt.LINEAR5[0] / (eps + b0) ** 2
    a1 = wt.LINEAR5[1] / (eps + b1) ** 2
    a2 = wt.LINEAR5[2] / (eps + b2) ** 2
    tot = a0 + a1 + a2
    return np.stack((a0 / tot, a1 / tot, a2 / tot), axis=-1)


def reference_candidates3(s):
    return -0.5 * s[..., 0] + 1.5 * s[..., 1], 0.5 * s[..., 1] + 0.5 * s[..., 2]


def reference_candidates5(s):
    f0, f1, f2, f3, f4 = (s[..., k] for k in range(5))
    return ((2.0 * f0 - 7.0 * f1 + 11.0 * f2) / 6.0,
            (-f1 + 5.0 * f2 + 2.0 * f3) / 6.0,
            (2.0 * f2 + 5.0 * f3 - f4) / 6.0)


def reference_features(s, eps=wt.EPS_DELTA_MOD):
    r1 = np.maximum(np.abs(s[..., 0] - s[..., 1]), eps)
    r2 = np.maximum(np.abs(s[..., 1] - s[..., 2]), eps)
    r3 = np.abs(s[..., 0] - s[..., 2])
    r4 = np.abs(s[..., 0] - 2.0 * s[..., 1] + s[..., 2])
    denom = np.maximum(r1, r2)
    return np.stack((r1, r2, r3, r4), axis=-1) / denom[..., None]


def reference_softmax(z):
    shifted = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def reference_forward(params, s):
    def gelu(x):
        return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))

    flat = reference_features(np.asarray(s, dtype=float)).reshape(-1, 4)
    a1 = gelu(flat @ params.w1.T + params.b1)
    a2 = gelu(a1 @ params.w2.T + params.b2)
    omega = reference_softmax(a2 @ params.w3.T + params.b3)
    return omega.reshape(np.shape(s)[:-1] + (2,))


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# the sweep


@pytest.fixture(scope="module")
def strategies():
    return {name: cli.load_strategy(name) for name in SCHEMES}


def split_fluxes(rng, n_tot, cross, transposed):
    """fp, fm with the sweep axis first; `transposed` lays them out like
    the y sweep of a 2D grid, whose sweep axis is not outermost in memory."""
    shape = (n_tot,) + cross
    if transposed:
        make = lambda: rng.uniform(-1, 1, (cross[0], n_tot) + cross[1:]).swapaxes(0, 1)
    else:
        make = lambda: rng.uniform(-1, 1, shape)
    fp, fm = make(), make()
    # plateaus, so the weights see zero differences as well
    fp[n_tot // 3 : n_tot // 2] = 0.25
    fm[: n_tot // 4] = -0.5
    return fp, fm


@pytest.mark.parametrize("name", SCHEMES)
@pytest.mark.parametrize("cross, transposed", [((), False), ((3,), False),
                                                ((5, 4), False), ((5, 4), True)])
@given(n=st.integers(2, 30), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_sweep_matches_stacked_windows(strategies, name, cross, transposed, n, seed):
    strategy = strategies[name]
    n_tot = n + 2 * rec.ghost_width(strategy) - 1
    fp, fm = split_fluxes(np.random.default_rng(seed), n_tot, cross, transposed)
    assert_same_bits(rec.interface_fluxes(fp, fm, strategy),
                     reference_sweep(fp, fm, strategy))


def test_windows_are_read_only_views():
    a = np.arange(12.0).reshape(6, 2)
    plus = rec._windows(a, range(0, 3), 4)
    minus = rec._windows(a, range(3, 0, -1), 3)
    assert np.shares_memory(plus, a) and np.shares_memory(minus, a)
    assert not plus.flags.writeable and not minus.flags.writeable
    assert_same_bits(plus, stacked_windows(a, range(0, 3), 4))
    assert_same_bits(minus, stacked_windows(a, range(3, 0, -1), 3))


# ---------------------------------------------------------------------------
# the kernels


@given(s=stencil_arrays(3))
@PROPERTY
def test_three_point_kernels_match_formulas(s):
    for got, want in zip(wt.beta3_array(s), reference_beta3(s)):
        assert_same_bits(got, want)
    assert_same_bits(wt.js_weights_array(s), reference_js(s))
    assert_same_bits(wt.z_weights_array(s), reference_z(s))
    assert_same_bits(wt.modified_delta_array(s), reference_features(s))
    for got, want in zip(rec.candidate_fluxes3(s), reference_candidates3(s)):
        assert_same_bits(got, want)


@given(s=stencil_arrays(5))
@PROPERTY
def test_five_point_kernels_match_formulas(s):
    for got, want in zip(wt.beta5_array(s), reference_beta5(s)):
        assert_same_bits(got, want)
    assert_same_bits(wt.js5_weights_array(s), reference_js5(s))
    for got, want in zip(rec.candidate_fluxes5(s), reference_candidates5(s)):
        assert_same_bits(got, want)


@pytest.mark.parametrize("width", [3, 5])
def test_single_stencil_matches_batch(width):
    rng = np.random.default_rng(width)
    s = rng.uniform(-1, 1, (4, width))
    kernels = ([wt.js_weights_array, wt.z_weights_array, wt.modified_delta_array]
               if width == 3 else [wt.js5_weights_array, wt.m5_weights_array])
    for kernel in kernels:
        for row, batch_row in zip(s, kernel(s)):
            assert_same_bits(kernel(row), batch_row)


# ---------------------------------------------------------------------------
# the network


@pytest.mark.parametrize("n", [1, 2, 603])
def test_inference_matches_trace(cadnn2_params, n):
    s = np.random.default_rng(n).uniform(-1, 1, (n, 3))
    s[: n // 2, 1] = s[: n // 2, 0]  # some clamped differences
    omega = network.forward_array(cadnn2_params, s)
    assert_same_bits(omega, network.forward_trace(cadnn2_params, s).omega)
    assert_same_bits(omega, reference_forward(cadnn2_params, s))


@given(s=stencil_arrays(3, max_rows=700))
@settings(max_examples=30, deadline=None)
def test_inference_matches_trace_any_batch(cadnn1_params, s):
    omega = network.forward_array(cadnn1_params, s)
    assert_same_bits(omega, network.forward_trace(cadnn1_params, s).omega)
    assert_same_bits(omega, reference_forward(cadnn1_params, s))


def test_inference_on_one_stencil_and_reversed_views(cadnn2_params):
    rng = np.random.default_rng(5)
    s = rng.uniform(-1, 1, (9, 3))
    one = s[4]
    assert_same_bits(network.forward_array(cadnn2_params, one),
                     network.forward_trace(cadnn2_params, one).omega)
    flipped = s[::-1, ::-1]
    assert flipped.strides[0] < 0 and flipped.strides[1] < 0
    assert_same_bits(network.forward_array(cadnn2_params, flipped),
                     network.forward_trace(cadnn2_params, flipped).omega)
    assert_same_bits(network.forward_array(cadnn2_params, flipped),
                     reference_forward(cadnn2_params, np.ascontiguousarray(flipped)))


@pytest.mark.parametrize("width", [2, 3])
@given(data=st.data())
@PROPERTY
def test_softmax_matches_rowwise_formula(width, data):
    z = data.draw(arrays(np.float64, st.tuples(st.integers(1, 50), st.just(width)),
                         elements=st.floats(-700, 700)))
    got = network.softmax(z)
    assert got.flags.c_contiguous
    assert_same_bits(got, reference_softmax(z))


def test_trace_keeps_normal_cdf(random_params):
    s = np.random.default_rng(2).uniform(-1, 1, (50, 3))
    tr = network.forward_trace(random_params, s)
    assert_same_bits(tr.a1, network.gelu(tr.z1))
    assert_same_bits(tr.a2, network.gelu(tr.z2))
    assert_same_bits(tr.phi1, 0.5 * (1.0 + erf(tr.z1 / np.sqrt(2.0))))


def test_gelu_matches_erf_form():
    x = np.concatenate([np.linspace(-40, 40, 20001), [5e-324, -5e-324, 1e-310, -3e-320]])
    assert_same_bits(network.gelu(x), 0.5 * x * (1.0 + erf(x / np.sqrt(2.0))))
    want = (0.5 * (1.0 + erf(x / np.sqrt(2.0)))
            + x * (1.0 / np.sqrt(2.0 * np.pi)) * np.exp(-0.5 * x * x))
    assert_same_bits(network.gelu_prime(x), want)


def test_backward_with_stored_cdf_matches_gelu_prime(cadnn2_params):
    s = np.random.default_rng(8).uniform(-1, 1, (200, 3))
    tr = network.forward_trace(cadnn2_params, s)
    domega = np.random.default_rng(9).normal(size=tr.omega.shape)
    got = network.backward_trace(cadnn2_params, tr, domega)

    # the same chain rule with the derivative recomputed from erf
    p = cadnn2_params
    dz3 = tr.omega * (domega - np.sum(domega * tr.omega, axis=-1, keepdims=True))
    dz2 = (dz3 @ p.w3) * network.gelu_prime(tr.z2)
    dz1 = (dz2 @ p.w2) * network.gelu_prime(tr.z1)
    want = [dz1.T @ tr.features, dz1.sum(axis=0), dz2.T @ tr.a1, dz2.sum(axis=0),
            dz3.T @ tr.a2, dz3.sum(axis=0)]
    for g, w in zip(got, want):
        assert_same_bits(g, w)
