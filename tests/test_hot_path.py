"""Bit-identity of the solver's and the trainer's hot paths against the
plain formulas.

The classical sweep works on rows and computes shared stencil quantities
once per point, the neural sweep forms the network's features on the
rows, the rows of a 1D grid reconstruct their plus and minus halves
in one call, 2D right-hand sides are built slab by slab, with the y sweep
on a worker thread, a solver stage converts its state to primitives once
and writes its update in place, and the network's inference pass keeps
no layer and evaluates one of a batch's constant-data stencils.
Training prepares its data once, gathers each mini-batch from it, traces
a batch's substencils and their reversals in one pass, evaluates the
full-dataset loss through the inference pass, and updates all parameters
as one flat vector.  None of that may change a bit: each test here
compares the program with a reference written the plain way (stacked
window copies, one expression per quantity, one sweep over whole rows,
both sweeps inline, the full training trace, one call per half, one
update per layer array) and requires exact equality.
"""

import warnings
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import erf

from wenocad import cli, network, workers
from wenocad import reconstruction as rec
from wenocad import weights as wt
from wenocad.benchmarks import problems
from wenocad.solvers import driver, euler
from wenocad.training import dataset as wdata
from wenocad.training import loss, optim
from wenocad.training.dataset import DX

from conftest import stencil_trace

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

    # the rows twice over, so that no product has a single row: a row's
    # weights are those it gets in any batch
    flat = reference_features(np.asarray(s, dtype=float)).reshape(-1, 4)
    a1 = gelu(np.concatenate((flat, flat)) @ params.w1.T + params.b1)
    a2 = gelu(a1 @ params.w2.T + params.b2)
    omega = reference_softmax(a2 @ params.w3.T + params.b3)[: len(flat)]
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


# Entries whose squared differences overflow: (0, 1e155, 0) overflows the
# three-point indicators, and neighbouring +-1e300 overflow every kind.
HUGE = [0.0, 1e155, 0.0, 1e300, -1e300, 1e300, 0.0]


def split_fluxes(rng, n_tot, cross, transposed, huge):
    """fp, fm with the sweep axis first; `transposed` lays them out like
    the y sweep of a 2D grid, whose sweep axis is not outermost in memory,
    and `huge` writes overflowing stencils into both at random places."""
    shape = (n_tot,) + cross
    if transposed:
        make = lambda: rng.uniform(-1, 1, (cross[0], n_tot) + cross[1:]).swapaxes(0, 1)
    else:
        make = lambda: rng.uniform(-1, 1, shape)
    fp, fm = make(), make()
    # plateaus, so the weights see zero differences as well
    fp[n_tot // 3 : n_tot // 2] = 0.25
    fm[: n_tot // 4] = -0.5
    if huge:
        for f in (fp, fm):
            for col in np.ndindex(cross):
                start = rng.integers(0, n_tot)
                run = HUGE[: n_tot - start]
                f[(slice(start, start + len(run)),) + col] = run
    return fp, fm


@pytest.mark.parametrize("name", SCHEMES)
@pytest.mark.parametrize("cross, transposed", [((), False), ((3,), False),
                                                ((5, 4), False), ((5, 4), True)])
@given(n=st.integers(2, 30), seed=st.integers(0, 2**32 - 1), huge=st.booleans())
@example(n=2, seed=0, huge=True)
@example(n=17, seed=1, huge=True)
@settings(max_examples=12, deadline=None)
def test_sweep_matches_stacked_windows(strategies, name, cross, transposed, n, seed,
                                       huge):
    """The row path against copied windows, the overflow rescue included:
    stencils that overflow are computed again, silently, through the
    window kernels."""
    strategy = strategies[name]
    n_tot = n + 2 * rec.ghost_width(strategy) - 1
    fp, fm = split_fluxes(np.random.default_rng(seed), n_tot, cross, transposed,
                          huge)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = rec.interface_fluxes(fp, fm, strategy)
        want = reference_sweep(fp, fm, strategy)
    assert_same_bits(got, want)
    assert np.isfinite(got).all()


@pytest.mark.parametrize("name", SCHEMES)
@pytest.mark.parametrize("cross", [(), (1,), (3,)])
@given(n=st.integers(2, 30), seed=st.integers(0, 2**32 - 1), huge=st.booleans())
@example(n=2, seed=0, huge=True)
@example(n=17, seed=1, huge=True)
@settings(max_examples=12, deadline=None)
def test_one_call_matches_two_half_sweeps(strategies, name, cross, n, seed, huge):
    """The rows of a 1D grid reconstruct both halves in one call; the
    result has the bits of one call per half, the overflow rescue on the
    joined rows included."""
    strategy = strategies[name]
    n_tot = n + 2 * rec.ghost_width(strategy) - 1
    fp, fm = split_fluxes(np.random.default_rng(seed), n_tot, cross, False, huge)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = rec.interface_fluxes(fp, fm, strategy)
        want = (rec._plus_values(fp[:-1], strategy)
                + rec._plus_values(fm[:0:-1].copy(), strategy)[::-1])
    assert_same_bits(got, want)


@pytest.mark.parametrize("name", ["weno3-z", "weno5-js", "weno3-cadnn2"])
@pytest.mark.parametrize("cross, shapes", [((), [(11, 2)]), ((3,), [(11, 6)]),
                                            ((5, 4), [(11, 5, 4)] * 2)],
                         ids=["scalar-row", "euler-row", "slab"])
def test_row_weight_calls_per_sweep(strategies, monkeypatch, name, cross, shapes):
    """One weight call per interface_fluxes call on 12-point rows of a 1D
    grid, on both halves side by side; one per half on a 2D slab."""
    strategy = strategies[name]
    seen = []
    row_weights = strategy.row_weights

    def counted(f):
        seen.append(f.shape)
        return row_weights(f)

    monkeypatch.setattr(strategy, "row_weights", counted)
    fp, fm = split_fluxes(np.random.default_rng(0), 12, cross, False, False)
    rec.interface_fluxes(fp, fm, strategy)
    assert seen == shapes


class KeepGhosts:
    """A boundary whose fill leaves the ghost cells as they are."""

    def fill(self, grid, t):
        pass


def random_euler_grid(rng, nx, ny, ng):
    u = np.empty((nx + 2 * ng, ny + 2 * ng, 4))
    shape = u.shape[:2]
    u[...] = euler.prim_to_cons_2d(rng.uniform(0.5, 2.0, shape), rng.uniform(-1, 1, shape),
                                   rng.uniform(-1, 1, shape), rng.uniform(0.5, 2.0, shape))
    return driver.Grid2D(u, 1.0 / nx, 1.0 / ny, ng, 0.0, 0.0)


@pytest.mark.parametrize("name", ["weno3-z", "weno5-js", "weno3-cadnn2"])
@pytest.mark.parametrize("beyond", [None, -1, 0, 1, 3],
                         ids=["1", "width-1", "width", "width+1", "width+3"])
def test_slabs_match_one_sweep_per_axis(strategies, name, beyond):
    """compute_rhs reconstructs slab by slab across each sweep axis; the
    result equals one interface_fluxes call per axis over whole rows.  The
    cross axis holds one row, or the slab width plus `beyond` rows."""
    strategy = strategies[name]
    ng = rec.ghost_width(strategy)
    n = 8
    c = 1 if beyond is None else driver.slab_width(n + 2 * ng) + beyond
    rng = np.random.default_rng(c)
    # the x sweep of (n, c) and the y sweep of (c, n) cut c rows into slabs
    for nx, ny in ((n, c), (c, n)):
        grid = random_euler_grid(rng, nx, ny, ng)
        got = driver.compute_rhs(grid, KeepGhosts(), strategy)
        h = []
        for axis, alpha in enumerate(euler.max_wave_speed_2d(grid.u, grid.gamma)):
            u = driver._sweep_rows(grid, grid.u, axis)
            prims = euler.cons_to_prim_2d(u, grid.gamma, check=False)
            fp, fm = rec.lax_friedrichs_split(driver.EULER2D.flux(u, prims, axis),
                                              u, alpha)
            h.append(rec.interface_fluxes(fp, fm, strategy))
        assert_same_bits(got, np.negative(driver._flux_difference(grid, h)))


@pytest.mark.parametrize("name", ["weno3-z", "weno5-js", "weno3-cadnn2"])
@pytest.mark.parametrize("nx, ny, more", [(32, 32, 0), (40, 24, 2)],
                         ids=["32x32", "40x24-extra-ghosts"])
def test_threaded_sweep_matches_inline(strategies, monkeypatch, name, nx, ny, more):
    """With the y sweep on the worker thread, each axis's fluxes have the
    bits of `_axis_fluxes` called inline, also where the grid has more
    ghost cells than the scheme needs."""
    monkeypatch.setattr(workers, "CPUS", 2)
    strategy = strategies[name]
    grid, bc, source = problems.make_grid(problems.get("riemann2d"),
                                          rec.ghost_width(strategy) + more, nx=nx, ny=ny)
    for _ in range(2):
        driver.rk3_step(grid, bc, strategy, 0.2 * min(grid.spacing), 0.0, source)
    system = grid.system
    system.fill(grid, bc, 0.0)
    prims = system.primitives(grid.u, grid.gamma)
    speeds = system.speeds(prims, grid.gamma)
    got = driver._fluxes(grid, strategy, prims, speeds)
    assert len(got) == 2
    for axis, alpha in enumerate(speeds):
        assert_same_bits(got[axis], driver._axis_fluxes(grid, strategy, prims, axis, alpha))


def random_euler_grid_1d(rng, n, ng):
    shape = n + 2 * ng
    u = euler.prim_to_cons_1d(rng.uniform(0.5, 2.0, shape), rng.uniform(-1, 1, shape),
                              rng.uniform(0.5, 2.0, shape))
    return driver.Grid1D(u, 1.0 / n, ng, 0.0)


@pytest.mark.parametrize("dim, source", [(1, None), (2, None), (2, problems.rt_source)],
                         ids=["1d", "2d", "2d-rayleigh-taylor"])
@pytest.mark.parametrize("name", ["weno3-z", "weno5-js"])
@given(seed=st.integers(0, 2**32 - 1), nx=st.integers(1, 12), ny=st.integers(1, 12),
       cfl=st.floats(0.01, 0.2))
@settings(max_examples=20, deadline=None)
def test_stage_matches_rhs_update(strategies, dim, source, name, seed, nx, ny, cfl):
    """A forward-Euler piece is written in place as u - dt (D - S), with
    S = 0 when there is no source; it has the bits of u + dt L(u) with L
    the right-hand side compute_rhs returns."""
    strategy = strategies[name]
    ng = rec.ghost_width(strategy)
    rng = np.random.default_rng(seed)
    if dim == 1:
        grid = random_euler_grid_1d(rng, nx, ng)
        dt = cfl * grid.dx / euler.max_wave_speed_1d(grid.u, grid.gamma)
    else:
        grid = random_euler_grid(rng, nx, ny, ng)
        ax, ay = euler.max_wave_speed_2d(grid.u, grid.gamma)
        dt = cfl / (ax / grid.dx + ay / grid.dy)
    counters = {"stages": 0, "cells": 0}
    got = driver._forward_piece(grid, KeepGhosts(), strategy, dt, 0.0, source, counters)
    assert counters["stages"] == 0
    want = grid.interior + dt * driver.compute_rhs(grid, KeepGhosts(), strategy, 0.0, source)
    assert_same_bits(got, want)


def count_conversions(monkeypatch):
    """A list that grows by one on every call of euler.cons_to_prim_*."""
    calls = []
    for attr in ("cons_to_prim_1d", "cons_to_prim_2d"):
        convert = getattr(euler, attr)

        def counted(*args, convert=convert, **kwargs):
            calls.append(1)
            return convert(*args, **kwargs)

        monkeypatch.setattr(euler, attr, counted)
    return calls


@pytest.mark.parametrize("problem, size", [("riemann2d", {"nx": 32, "ny": 32}),
                                           ("sod", {"nx": 64})])
def test_two_primitive_conversions_per_stage(strategies, monkeypatch, problem, size):
    """A stage converts its padded state to primitives once, for the
    speeds and every slab's flux, and its new state once, for the
    admissibility check."""
    strategy = strategies["weno3-z"]
    grid, bc, source = problems.make_grid(problems.get(problem), rec.ghost_width(strategy),
                                          **size)
    calls = count_conversions(monkeypatch)
    counters = {"stages": 0, "cells": 0}
    driver.rk3_step(grid, bc, strategy, 0.1 * min(grid.spacing), 0.0, source, counters)
    assert counters["stages"] == 0
    assert len(calls) == 2 * 3


def test_one_primitive_conversion_per_step_in_advance(strategies, monkeypatch):
    """Besides its stages, a step converts its result once, for the run
    minima and the next dt; the first dt needs one more."""
    strategy = strategies["weno3-z"]
    grid, bc, source = problems.make_grid(problems.get("sod"), rec.ghost_width(strategy),
                                          nx=64)
    calls = count_conversions(monkeypatch)
    res = driver.advance(grid, bc, strategy, 0.2, source=source)
    assert res.steps > 1 and res.fallback_stages == 0
    assert len(calls) == 1 + res.steps * (2 * 3 + 1)


def test_windows_are_read_only_views(random_params):
    """The rows that the network's `row_weights` receives from the sweep:
    a read-only row is read where it lies and never written, and its
    weights have the bits of `network.forward_array` on its read-only
    window views."""
    seen = []

    class Recording(rec.NeuralWeighting3):
        def row_weights(self, f):
            w = super().row_weights(f)
            seen.append((f, np.stack(w, axis=-1)))
            return w

    rows = [np.arange(12.0).reshape(6, 2),
            # a slab of a 2D sweep along y: sweep axis first, strided
            np.arange(84.0).reshape(4, 7, 3).transpose(1, 0, 2)[:, 1:3]]
    strategy = Recording(random_params)
    for row in rows:
        row.flags.writeable = False
        before = row.copy()
        rec._plus_values(row, strategy)
        f, w = seen.pop()
        assert f is row
        assert_same_bits(row, before)
        assert_same_bits(w, network.forward_array(
            strategy.params, sliding_window_view(row, 3, axis=0)))


# Row entries: a coarse lattice, so that rows hold constant runs; points
# closer than EPS_DELTA_MOD, where the clamps bind; and magnitudes whose
# differences reach 1e300 or overflow, where the window kernel's rescue
# must decide.
row_entries = st.one_of(
    st.floats(-4.0, 4.0, allow_nan=False, allow_subnormal=False),
    st.sampled_from([0.0, 1.0, -1.0, 1.0 + 2.0 ** -40, 1.0 - 2.0 ** -36, 3e-11,
                     1e155, -1e155, 1e300, -1e300, 1e308, -1e308]),
)


@st.composite
def feature_rows(draw):
    """Rows (n, c) with c from 1 to 6, as runs of points drawn once each."""
    c = draw(st.integers(1, 6))
    points = draw(arrays(np.float64, st.tuples(st.integers(1, 10), st.just(c)),
                         elements=row_entries))
    n = draw(st.integers(3, 30))
    runs = draw(arrays(np.intp, n, elements=st.integers(0, len(points) - 1)))
    return points[np.sort(runs)]


@pytest.mark.parametrize("params", ["cadnn1_params", "cadnn2_params", "random_params"])
@given(row=feature_rows())
@example(row=np.array([[1e308], [-1e308], [1e308], [0.0]]))
@example(row=np.ones((5, 6)))
@PROPERTY
def test_row_features_match_window_form(request, params, row):
    """The network's weights of a row, with features formed on the row,
    have the bits of `network.forward_array` on the row's window views,
    the rows whose differences overflow included; the sweep around them
    warns nothing."""
    strategy = rec.NeuralWeighting3(request.getfixturevalue(params))
    row.flags.writeable = False
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rec._plus_values(row, strategy)
    # outside the sweep, an overflowing difference warns before the rescue
    with np.errstate(over="ignore", invalid="ignore"):
        got = np.stack(strategy.row_weights(row), axis=-1)
    assert_same_bits(got, network.forward_array(
        strategy.params, sliding_window_view(row, 3, axis=0)))


def test_finite_stage_builds_no_window_view(cadnn2_params, monkeypatch):
    """A weno3-cadnn2 step of sod forms every feature on the rows; a row
    that overflows is the one that takes window views."""
    views = []

    def counted(*args, **kwargs):
        views.append(1)
        return sliding_window_view(*args, **kwargs)

    monkeypatch.setattr(rec, "sliding_window_view", counted)
    strategy = rec.NeuralWeighting3(cadnn2_params)
    grid, bc, source = problems.make_grid(problems.get("sod"), rec.ghost_width(strategy))
    driver.rk3_step(grid, bc, strategy, 1e-3, 0.0, source)
    assert np.isfinite(grid.u).all() and views == []
    rec.interface_fluxes(*np.array([[[0.0], [1e308], [-1e308], [0.0], [1.0]]] * 2),
                         strategy)
    assert views


# ---------------------------------------------------------------------------
# the kernels


@given(s=stencil_arrays(3))
@PROPERTY
def test_three_point_kernels_match_formulas(s):
    for got, want in zip(wt.beta3_rows(wt.stencil_rows(s)), reference_beta3(s)):
        assert_same_bits(got[0], want)
    for kernel in (wt.js_weights_array, rec.Weno3JS().weights):
        assert_same_bits(kernel(s), reference_js(s))
    for kernel in (wt.z_weights_array, rec.Weno3Z().weights):
        assert_same_bits(kernel(s), reference_z(s))
    assert_same_bits(wt.modified_delta_array(s), reference_features(s))
    for got, want in zip(rec.candidate_fluxes3(s), reference_candidates3(s)):
        assert_same_bits(got, want)


@given(s=stencil_arrays(5))
@PROPERTY
def test_five_point_kernels_match_formulas(s):
    for got, want in zip(wt.beta5_rows(wt.stencil_rows(s)), reference_beta5(s)):
        assert_same_bits(got[0], want)
    for kernel in (wt.js5_weights_array, rec.Weno5JS().weights):
        assert_same_bits(kernel(s), reference_js5(s))
    for got, want in zip(rec.candidate_fluxes5(s), reference_candidates5(s)):
        assert_same_bits(got, want)


@pytest.mark.parametrize("width", [3, 5])
def test_single_stencil_matches_batch(strategies, width):
    rng = np.random.default_rng(width)
    s = rng.uniform(-1, 1, (4, width))
    kernels = ([wt.js_weights_array, wt.z_weights_array, wt.modified_delta_array]
               if width == 3 else [wt.js5_weights_array])
    kernels += [strategy.weights for strategy in strategies.values()
                if strategy.stencil_width == width]
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
    assert_same_bits(omega, stencil_trace(cadnn2_params, s).omega)
    assert_same_bits(omega, reference_forward(cadnn2_params, s))


@given(s=stencil_arrays(3, max_rows=700))
@settings(max_examples=30, deadline=None)
def test_inference_matches_trace_any_batch(cadnn1_params, s):
    omega = network.forward_array(cadnn1_params, s)
    assert_same_bits(omega, stencil_trace(cadnn1_params, s).omega)
    assert_same_bits(omega, reference_forward(cadnn1_params, s))


def test_inference_on_one_stencil_and_reversed_views(cadnn2_params):
    rng = np.random.default_rng(5)
    s = rng.uniform(-1, 1, (9, 3))
    one = s[4]
    assert_same_bits(network.forward_array(cadnn2_params, one),
                     stencil_trace(cadnn2_params, one).omega)
    flipped = s[::-1, ::-1]
    assert flipped.strides[0] < 0 and flipped.strides[1] < 0
    assert_same_bits(network.forward_array(cadnn2_params, flipped),
                     stencil_trace(cadnn2_params, flipped).omega)
    assert_same_bits(network.forward_array(cadnn2_params, flipped),
                     reference_forward(cadnn2_params, np.ascontiguousarray(flipped)))


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_weights_do_not_depend_on_the_batch(cadnn1_params, cadnn2_params, data):
    """A row's weights are the same in every batch: sub-batches of any
    size at any offset, and two batches joined into one, as the 1D sweep
    joins its plus and minus halves.  The constant-row compression relies
    on this too."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    s = rng.uniform(-1, 1, (1500, 3))
    s[::5, 1] = s[::5, 0]  # clamped differences
    s[rng.permutation(1500)[:300]] = 0.25  # constant stencils
    x = wt.modified_delta_array(s)
    for params in (cadnn1_params, cadnn2_params):
        full = network.forward_features(params, x)
        cuts = []
        for _ in range(2):
            lo = data.draw(st.integers(0, 1499))
            hi = data.draw(st.integers(lo + 1, 1500))
            cuts.append(slice(lo, hi))
            assert_same_bits(network.forward_features(params, x[cuts[-1]].copy()),
                             full[cuts[-1]])
        joined = np.concatenate([x[cut] for cut in cuts])
        assert_same_bits(network.forward_features(params, joined),
                         np.concatenate([full[cut] for cut in cuts]))


@pytest.mark.parametrize("params", ["cadnn1_params", "cadnn2_params", "random_params"])
def test_each_row_alone_matches_its_batch(request, params):
    """Every row evaluated as a batch of its own gets the bits it gets in
    the whole batch: its weights from both passes, and every layer that
    the training pass keeps."""
    params = request.getfixturevalue(params)
    s = np.random.default_rng(17).uniform(-1, 1, (120, 3))
    s[::5, 1] = s[::5, 0]  # clamped differences
    s[::7] = 0.25  # constant stencils
    x = wt.modified_delta_array(s)
    full = network.forward_features(params, x)
    trace = network.forward_trace(params, x)
    for i in range(len(x)):
        row = slice(i, i + 1)
        assert_same_bits(network.forward_features(params, x[row]), full[row])
        alone = network.forward_trace(params, x[row])
        for name, layer in vars(trace).items():
            assert_same_bits(getattr(alone, name), layer[row])


# ---------------------------------------------------------------------------
# constant-data stencils: one is evaluated, the rest copy its weights

# Constant stencils at every scale share the feature row (1, 1, 0, 0).
LEVELS = [0.0, 1.0, -2.5, 1e-300, -1e-300, 1e300, -1e300]


def with_constant_rows(s, rows, levels):
    """s with each row in `rows` replaced by a constant stencil."""
    s = np.array(s, dtype=float)
    s[rows] = np.asarray(levels, dtype=float)[:, None]
    return s


def assert_inference_exact(params, s):
    omega = network.forward_array(params, s)
    assert_same_bits(omega, stencil_trace(params, s).omega)
    assert_same_bits(omega, reference_forward(params, np.ascontiguousarray(s)))


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_constant_rows_match_trace(cadnn2_params, data):
    s = data.draw(stencil_arrays(3, max_rows=300))
    rows = data.draw(st.lists(st.integers(0, len(s) - 1), unique=True,
                              max_size=len(s)))
    levels = data.draw(st.lists(st.sampled_from(LEVELS), min_size=len(rows),
                                max_size=len(rows)))
    assert_inference_exact(cadnn2_params, with_constant_rows(s, rows, levels))


@pytest.mark.parametrize("n, count", [(40, 0), (40, 1), (40, 2), (40, 3), (40, 40),
                                      (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)])
def test_constant_row_counts(cadnn2_params, n, count):
    rng = np.random.default_rng(n + count)
    s = rng.uniform(-1, 1, (n, 3))
    rows = rng.permutation(n)[:count]
    assert_inference_exact(cadnn2_params,
                           with_constant_rows(s, rows, rng.choice(LEVELS, count)))


def test_constant_rows_in_batched_and_reversed_views(cadnn2_params):
    rng = np.random.default_rng(11)
    # (m, k, 3), as the 2D sweep passes them, with whole constant columns
    # and linear ramps, whose last feature is zero as well
    s = rng.uniform(-1, 1, (30, 4, 3))
    s[:, 1] = 0.7
    s[5:20, 3] = -1e300
    s[:, 2] = [0.5, 1.5, 2.5]
    assert_inference_exact(cadnn2_params, s)
    flipped = s[::-1, :, ::-1]
    assert flipped.strides[0] < 0 and flipped.strides[2] < 0
    assert_inference_exact(cadnn2_params, flipped)


def test_one_constant_row_is_evaluated(cadnn2_params, monkeypatch):
    rows_seen = []
    normal_cdf = network._normal_cdf

    def counting(x):
        rows_seen.append(len(x))
        return normal_cdf(x)

    monkeypatch.setattr(network, "_normal_cdf", counting)
    rng = np.random.default_rng(4)
    s = rng.uniform(-1, 1, (50, 3))
    for count in (0, 1, 2, 3, 20, 50):
        rows_seen.clear()
        network.forward_array(cadnn2_params,
                              with_constant_rows(s, np.arange(count), [3.0] * count))
        # one call per hidden layer; from three constant rows on, one of
        # them is evaluated
        assert rows_seen == [50 - count + 1 if count > 2 else 50] * 2


def test_solver_run_matches_trace_weights(cadnn2_params):
    """sod at n = 100 reaches the same bits with every stencil evaluated."""

    class TraceWeighting(rec.NeuralWeighting3):
        calls = 0

        def row_weights(self, f):
            self.calls += 1
            omega = stencil_trace(self.params, sliding_window_view(f, 3, axis=0)).omega
            return omega[..., 0], omega[..., 1]

    spec = problems.get("sod")
    states = []
    traced = TraceWeighting(cadnn2_params)
    for strategy in (rec.NeuralWeighting3(cadnn2_params), traced):
        grid, bc, source = problems.make_grid(spec, rec.ghost_width(strategy), nx=100)
        result = driver.advance(grid, bc, strategy, spec.t_final, source=source)
        states.append(np.ascontiguousarray(grid.interior))
    # the override decided every weight: one call per stage and step, the
    # plus and minus halves of the 1D rows sharing one batch
    assert traced.calls == 3 * result.steps
    assert_same_bits(*states)


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
    tr = stencil_trace(random_params, s)
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
    tr = stencil_trace(cadnn2_params, s)
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


@given(data=st.data())
@PROPERTY
def test_backward_column_sums_are_np_sums(data):
    """The bias gradients sum their rows as np.sum(axis=0) does, signed
    zeros included, over the whole batch or its two parts."""
    n = data.draw(st.integers(1, 60), label="rows")
    k = data.draw(st.sampled_from([2, 16]), label="columns")
    elements = st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0])
    dz = data.draw(arrays(np.float64, (n, k), elements=elements), label="dz")
    split = data.draw(st.none() | st.integers(0, n), label="split")
    dw, db = np.empty((k, 1)), np.empty(k)
    network._reduce(dz, np.ones((n, 1)), split, dw, db)
    want = np.sum(dz[:split], axis=0)
    if split is not None:
        want += np.sum(dz[split:], axis=0)
    assert_same_bits(db, want)


# ---------------------------------------------------------------------------
# training: one traced pass per batch, the prepared full set, flat AdamW

HYPER = st.sampled_from([(0.0, 0.0), (5750.0, 0.0), (7000.0, 800.0)])


@pytest.fixture(scope="module")
def train_set():
    return wdata.generate_dataset(seed=5)


def draw_batch(data, train_set, max_rows):
    n = data.draw(st.integers(1, max_rows), label="n")
    lo = data.draw(st.integers(0, len(train_set) - n), label="lo")
    rows = slice(lo, lo + n)
    return loss.Batch(train_set.stencils[rows], train_set.labels[rows])


def draw_params(data, cadnn2_params):
    seed = data.draw(st.none() | st.integers(0, 2**32 - 1), label="param seed")
    return cadnn2_params if seed is None else network.init_params(seed)


def reference_breakdown(params, batch, hyper_c, hyper_d):
    """The loss from one trace of the substencils and one of their
    reversals, as separate calls."""
    stencils, labels = batch
    n = len(labels)
    sub = np.concatenate((stencils[:, 0:3], stencils[:, 1:4]))
    w = stencil_trace(params, sub).omega
    wf = stencil_trace(params, sub[:, ::-1]).omega
    h0, h1 = reference_candidates3(sub)
    h = w[:, 0] * h0 + w[:, 1] * h1
    resid = (h[n:] - h[:n]) / DX - labels
    l_cad = float(np.mean(resid**2))
    g = np.log(wf) - np.log(wt.flip_weights_array(w))
    l_sym = float(np.sum(g * g) / n)
    tln = np.log(2.0 * w[:, 0]) - np.log(w[:, 1])
    l_ln = float(np.sum(wt.gauge_array(sub) * tln * tln) / n)
    return loss.LossBreakdown(l_cad, l_sym, l_ln,
                              l_cad + hyper_c * l_sym + hyper_d * l_ln)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_prepared_loss_matches_traces(cadnn2_params, train_set, data):
    params = draw_params(data, cadnn2_params)
    batch = draw_batch(data, train_set, 3000)
    hyper = data.draw(HYPER, label="c, d")
    want = reference_breakdown(params, batch, *hyper)
    assert loss.total_loss(params, loss.prepare(batch), *hyper) == want
    assert loss.total_loss(params, batch, *hyper) == want


@pytest.fixture(scope="module")
def prepared_set(train_set):
    return loss.prepare(loss.Batch(train_set.stencils, train_set.labels))


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_take_matches_prepare(train_set, prepared_set, data):
    """A mini-batch gathered from the prepared set is the batch prepared
    on its own, field for field."""
    n = data.draw(st.integers(1, 3000), label="n")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    idx = np.random.default_rng(seed).permutation(len(train_set))[:n]
    want = loss.prepare(loss.Batch(train_set.stencils[idx], train_set.labels[idx]))
    got = prepared_set.take(idx)
    assert type(got) is loss.Prepared
    for a, b in zip(got, want):
        assert_same_bits(a, b)


def split_gradient(params, batch, hyper_c, hyper_d, monkeypatch):
    """The fused gradient, and the same d(loss)/d(omega) pushed through one
    trace and one backward call per half, their gradients summed."""
    seen = {}
    backward = network.backward_trace

    def keep(params, trace, domega, split=None):
        seen.update(trace=trace, domega=domega, split=split)
        return backward(params, trace, domega, split)

    monkeypatch.setattr(network, "backward_trace", keep)
    breakdown, fused = loss.total_loss_and_gradient(params, batch, hyper_c, hyper_d)
    monkeypatch.undo()

    stencils = batch.stencils
    sub = np.concatenate((stencils[:, 0:3], stencils[:, 1:4]))
    m = seen["split"]
    assert m == len(sub)
    halves = [stencil_trace(params, sub),
              stencil_trace(params, sub[:, ::-1])]
    assert_same_bits(seen["trace"].omega,
                     np.concatenate([tr.omega for tr in halves]))
    domega = seen["domega"]
    grads = [network.backward_trace(params, tr, d)
             for tr, d in zip(halves, (domega[:m], domega[m:]))]
    return breakdown, fused, [a + b for a, b in zip(*grads)]


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_fused_gradient_matches_two_passes(cadnn2_params, train_set, data):
    params = draw_params(data, cadnn2_params)
    batch = draw_batch(data, train_set, 700)
    hyper = data.draw(HYPER, label="c, d")
    with pytest.MonkeyPatch.context() as mp:
        breakdown, fused, want = split_gradient(params, batch, *hyper, mp)
    assert breakdown == reference_breakdown(params, batch, *hyper)
    for got, ref in zip(fused, want):
        assert_same_bits(got, ref)


@pytest.mark.parametrize("n", [1, 2, 200, 301, 302, 603])
def test_fused_gradient_at_batch_sizes(cadnn2_params, train_set, n, monkeypatch):
    batch = loss.Batch(train_set.stencils[:n], train_set.labels[:n])
    _, fused, want = split_gradient(cadnn2_params, batch, 7000.0, 800.0, monkeypatch)
    for got, ref in zip(fused, want):
        assert_same_bits(got, ref)


def reference_adamw(arrays, grads, m, v, t, lr, weight_decay):
    """One AdamW step, layer array by layer array."""
    bias1 = 1.0 - optim.BETA1**t
    bias2 = 1.0 - optim.BETA2**t
    for a, g, mk, vk in zip(arrays, grads, m, v):
        mk *= optim.BETA1
        mk += (1.0 - optim.BETA1) * g
        vk *= optim.BETA2
        vk += (1.0 - optim.BETA2) * g * g
        mhat = mk / bias1
        vhat = vk / bias2
        a -= lr * mhat / (np.sqrt(vhat) + optim.EPS_OPT)
        a -= lr * weight_decay * a


@given(seed=st.integers(0, 2**32 - 1), lr=st.sampled_from([1e-4, 1e-3, 0.05]),
       weight_decay=st.sampled_from([0.0, 0.01]))
@PROPERTY
def test_flat_adamw_matches_per_array_steps(seed, lr, weight_decay):
    """The step on the flat vector of LayerArrays gradients gives the
    per-array update."""
    rng = np.random.default_rng(seed)
    params = network.init_params(seed)
    state = optim.adamw_init(params)
    arrays = [a.copy() for a in params.arrays()]
    m = [np.zeros_like(a) for a in arrays]
    v = [np.zeros_like(a) for a in arrays]
    for t in range(1, 6):
        grads = [rng.normal(scale=10.0 ** rng.integers(-6, 3), size=a.shape)
                 for a in arrays]
        flat = network.LayerArrays(np.concatenate([g.ravel() for g in grads]))
        optim.adamw_step(params, flat, state, lr, weight_decay)
        reference_adamw(arrays, grads, m, v, t, lr, weight_decay)
    assert state.t == 5
    for got, want in zip(params.arrays(), arrays):
        assert_same_bits(got, want)
    assert_same_bits(state.flat_m, np.concatenate([a.ravel() for a in m]))
    assert_same_bits(state.flat_v, np.concatenate([a.ravel() for a in v]))


def test_layers_are_views_of_one_buffer(random_params):
    p = random_params.copy()
    assert p.flat.shape == (network.NetworkParams.SIZE,)
    for a in p.arrays():
        assert a.base is p.flat

    q = p.copy()
    assert not np.shares_memory(p.flat, q.flat)
    for a, b in zip(p.arrays(), q.arrays()):
        assert not np.shares_memory(a, b)
        assert_same_bits(a, b)
    q.w1[0, 0] += 1.0
    assert p.w1[0, 0] != q.w1[0, 0]

    # backward writes the gradients into views of one flat vector
    tr = stencil_trace(p, np.random.default_rng(3).uniform(-1, 1, (20, 3)))
    grads = network.backward_trace(p, tr, np.ones_like(tr.omega), split=10)
    assert isinstance(grads, network.LayerArrays)
    assert grads.flat.shape == (network.NetworkParams.SIZE,)
    for g, a in zip(grads, p.arrays()):
        assert g.base is grads.flat and g.shape == a.shape
