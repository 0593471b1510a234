"""Finite-difference WENO reconstruction of interface fluxes.

The semi-discrete scheme writes du_i/dt = -(h_{i+1/2} - h_{i-1/2}) / dx
with numerical fluxes h built from a global Lax-Friedrichs splitting
f = f+ + f-, f+- = (f(u) +- alpha u) / 2, alpha = max |f'(u)|.  The
positive part is reconstructed at x_{i+1/2} from the upwind-biased window
ending at i+r; the negative part uses the mirror image of that window, so
a single weighting function serves both characteristic directions.

Third order blends the two candidate interface values

    h0 = -f_{i-1}/2 + 3 f_i / 2,      h1 = f_i/2 + f_{i+1}/2

with convex weights; fifth order blends the three classical candidate
polynomials of Jiang and Shu, JCP 126, 202-228 (1996).  Weighting
strategies are small objects exposing the stencil width w, the candidate
values and the weights, each for rows and for windows (..., w).  One sweep
serves both widths: with r = w // 2 and g = r + 1 ghost cells, the
windows, the ghost layers and the blend all follow from w, so the
classical smoothness-indicator weights and the neural weighting function
plug into the same code.

The sweep works on rows of split fluxes, sweep axis first.  The plus
values at the interfaces are the blends of the windows f[i : i + w] of
f+ without its last point; the minus values are the same computation on
the reversed row of f- without its first point, read backwards.  The
rows of a 1D grid are a few hundred cells long, so a call's fixed numpy
cost dominates there, and both halves run as one call per stage: the two
rows side by side on the component axis, and one network batch.  A 2D
slab keeps one call per half, because both joined measured slower there
(see `interface_fluxes`).  On a row the candidates and the classical
weights compute once per point what overlapping windows share (f/2 for
the three-point candidates, 2 f and 5 f for the five-point ones, and the
shared parts of the smoothness indicators, see `weights`), and each
weight is multiplied straight into its candidate.  A strategy names
only its row function; its window form `weights`, with the overflow
rescue, is derived from it by `weights.window_kernel`, so the two forms
round alike.  The neural strategy forms the network's features on the
rows as well (`weights.modified_delta_rows`, each clamped difference
once per point) and hands them to `network.forward_features`; only a row
whose features come out non-finite takes window views, on which
`weights.modified_delta_array` forms them again with its overflow
rescue.  No row function writes into its rows.  A window whose value
comes out non-finite is computed again from `weights` on that window,
which rescales overflowing stencils.  The solvers call the sweep on slabs of a 2D grid, a few dozen
rows across, so that its temporaries stay in cache.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import network, weights as wt
from .errors import DimensionError


def lax_friedrichs_split(f, u, alpha):
    """Split pointwise fluxes into f+- = (f +- alpha u) / 2."""
    f = np.asarray(f, dtype=float)
    au = alpha * np.asarray(u, dtype=float)
    fp = f + au
    fp *= 0.5
    fm = f - au
    fm *= 0.5
    return fp, fm


def candidate_rows3(f):
    """The two candidate interface values of every window f[i : i + 3] of
    rows f (window axis first).  f/2 is computed once per point: -f/2 is
    its exact negation, so h0 = 3 f_i / 2 - f_{i-1} / 2 rounds like
    -f_{i-1} / 2 + 3 f_i / 2."""
    half = 0.5 * f
    h0 = 1.5 * f[1:-1]
    h0 -= half[:-2]
    h1 = half[1:-1] + half[2:]
    return h0, h1


def candidate_rows5(f):
    """The three candidate interface values of every window f[i : i + 5]
    of rows f, with 2 f and 5 f computed once per point."""
    m = len(f) - 4
    two = 2.0 * f
    five = 5.0 * f
    q0 = two[:m] - 7.0 * f[1 : m + 1]
    q0 += 11.0 * f[2 : m + 2]
    q1 = five[2 : m + 2] - f[1 : m + 1]
    q1 += two[3 : m + 3]
    q2 = two[2 : m + 2] + five[3 : m + 3]
    q2 -= f[4:]
    for q in (q0, q1, q2):
        q /= 6.0
    return q0, q1, q2


def candidate_fluxes3(s):
    """The two candidate interface values of windows (..., 3)."""
    return tuple(q[0] for q in candidate_rows3(wt.stencil_rows(s)))


def candidate_fluxes5(s):
    """The three candidate interface values of windows (..., 5)."""
    return tuple(q[0] for q in candidate_rows5(wt.stencil_rows(s)))


# ---------------------------------------------------------------------------
# weighting strategies


class _Strategy:
    def weights(self, s):
        """The weights of windows s (..., w) as an array (..., k), derived
        from `row_weights` with overflowing stencils rescaled."""
        return wt.window_kernel(self.row_weights)(s)


class _Width3(_Strategy):
    stencil_width = 3
    candidates = staticmethod(candidate_fluxes3)
    row_candidates = staticmethod(candidate_rows3)


class _Width5(_Strategy):
    stencil_width = 5
    candidates = staticmethod(candidate_fluxes5)
    row_candidates = staticmethod(candidate_rows5)


class Weno3JS(_Width3):
    name = "weno3-js"
    row_weights = staticmethod(wt.js_weights_rows)


class Weno3Z(_Width3):
    name = "weno3-z"
    row_weights = staticmethod(wt.z_weights_rows)


class Linear3(_Width3):
    """Fixed optimal weights; third order everywhere, for diagnostics."""

    name = "weno3-linear"

    def row_weights(self, f):
        return wt.LINEAR3


class NeuralWeighting3(_Width3):
    """Weights from a trained network; `label` distinguishes variants."""

    def __init__(self, params, label="weno3-cadnn"):
        self.params = params
        self.name = label

    def row_weights(self, f):
        """The network's weights of every window f[i : i + 3] of rows f,
        from features formed on the rows.  Rows whose features come out
        non-finite have them formed again by the window kernel, whose
        overflow rescue then decides those windows."""
        x = wt.modified_delta_rows(f)
        if not np.isfinite(x).all():
            x = wt.modified_delta_array(sliding_window_view(f, 3, axis=0))
        omega = network.forward_features(self.params, x.reshape(-1, 4))
        omega = omega.reshape(x.shape[:-1] + (2,))
        return omega[..., 0], omega[..., 1]


class Weno5JS(_Width5):
    name = "weno5-js"
    row_weights = staticmethod(wt.js5_weights_rows)


class Weno5M(_Width5):
    name = "weno5-m"
    row_weights = staticmethod(wt.m5_weights_rows)


class Linear5(_Width5):
    name = "weno5-linear"

    def row_weights(self, f):
        return wt.LINEAR5


def ghost_width(strategy):
    return strategy.stencil_width // 2 + 1


# ---------------------------------------------------------------------------
# vectorized sweep


def _blend(w, q):
    """sum_k w_k q_k, chained from the first term, accumulated in q."""
    acc = q[0]
    acc *= w[0]
    for wk, qk in zip(w[1:], q[1:]):
        qk *= wk
        acc += qk
    return acc


def _plus_values(f, strategy):
    """The reconstructed value at every window f[i : i + w] of rows f.

    A window whose value is not finite, because its weights overflowed or
    its candidates did, is computed again from `strategy.weights` on the
    window, whose classical form rescales overflowing stencils; elsewhere
    the two agree bit for bit.  The whole sweep runs with numpy's
    overflow, invalid and divide warnings off: the windows that raise them
    are the ones computed again, and a value that is still not finite is
    the stage check's to report.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        h = _blend(strategy.row_weights(f), strategy.row_candidates(f))
        if not np.isfinite(h).all():
            bad = ~np.isfinite(h)
            s = sliding_window_view(f, strategy.stencil_width, axis=0)[bad]
            w = strategy.weights(s)
            h[bad] = _blend([w[:, k] for k in range(w.shape[-1])],
                            strategy.candidates(s))
    return h


def interface_fluxes(fp, fm, strategy):
    """Reconstruct h_{i+1/2} = h+ + h- at every resolvable interface.

    `fp` and `fm` are split fluxes with the sweep axis first and ghost
    layers included; with g ghost cells per side the result covers the
    n_phys + 1 interfaces bordering physical cells.
    """
    fp = np.asarray(fp, dtype=float)
    fm = np.asarray(fm, dtype=float)
    n_tot = fp.shape[0]
    g = ghost_width(strategy)
    m = n_tot - 2 * g + 1  # number of interfaces
    if m < 2:
        raise DimensionError(
            f"row of {n_tot} values is too short for a width-"
            f"{strategy.stencil_width} reconstruction"
        )

    # plus part at i+1/2 from (f+_{i-r}, ..., f+_{i+r}), the windows of
    # fp[:-1]; the minus part from (f-_{i+1+r}, ..., f-_{i+1-r}), the
    # windows of the reversed row fm[:0:-1], in reverse order.
    if fp.ndim > 2:
        # A 2D slab: one call per half.  The reversed row is copied with
        # positive strides first: numpy cannot merge the axes of a
        # reversed slab into one loop, and the sweep over the view measured
        # up to twice as slow as over the copy.  Both halves in one call
        # ran slower on riemann2d 200^2 (perfbench quadrant2d solve_rel,
        # three runs a side, single-threaded): joined on the component
        # axis 8.46-8.85 -> 9.27-10.79 and +3 MB peak RSS; joined on the
        # cross axis, with half as many cells per slab to keep the cache
        # footprint, 8.16-8.58 -> 9.18-9.31.
        hp = _plus_values(fp[:-1], strategy)
        hp += _plus_values(fm[:0:-1].copy(order="K"), strategy)[::-1]
        return hp
    # The rows of a 1D grid, a few hundred cells long, where a call's fixed
    # cost dominates: both halves side by side on the component axis, a
    # 1-dim row as (n, 1), in one call.  Row functions are elementwise
    # across that axis and the network's weights of a stencil do not
    # depend on its batch (see `network`), so each half keeps its bits.
    c = fp.size // n_tot
    f = np.empty((n_tot - 1, 2 * c))
    f[:, :c] = fp.reshape(n_tot, c)[:-1]
    f[:, c:] = fm.reshape(n_tot, c)[:0:-1]
    h = _plus_values(f, strategy)
    return (h[:, :c] + h[::-1, c:]).reshape((m,) + fp.shape[1:])
