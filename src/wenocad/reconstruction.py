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
values and a vectorized `weights` kernel for windows (..., w), and the
same two for rows.  One sweep serves both widths: with r = w // 2 and
g = r + 1 ghost cells, the windows, the ghost layers and the blend all
follow from w, so the classical smoothness-indicator weights and the
neural weighting function plug into the same code.

The sweep works on rows of split fluxes, sweep axis first.  The plus
values at the interfaces are the blends of the windows f[i : i + w] of
f+ without its last point; the minus values are the same computation on
the reversed row of f- without its first point, read backwards.  On a row
the candidates and the classical weights compute once per point what
overlapping windows share (f/2 for the three-point candidates, 2 f and
5 f for the five-point ones, and the shared parts of the smoothness
indicators, see `weights`), and each weight is multiplied straight into
its candidate.  The neural strategy, and any strategy that defines only
`weights`, is handed read-only strided window views of the row instead:
column k of a window array is the slice f[k : k + m] itself, so kernels
read the fluxes where they lie and must never write into a window.  A
window whose value comes out non-finite is computed again from
`weights` on that window, whose classical kernels rescale overflowing
stencils.  The solvers call the sweep on slabs of a 2D grid, a few dozen
rows across, so that its temporaries stay in cache.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import network, weights as wt
from .errors import DimensionError

GHOST3 = 2
GHOST5 = 3


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


def _linear_weights(s, d):
    s = np.asarray(s, dtype=float)
    out = np.empty(s.shape[:-1] + (len(d),))
    out[...] = d
    return out


# ---------------------------------------------------------------------------
# weighting strategies


class _Strategy:
    def row_weights(self, f):
        """The weights of every window of rows f (window axis first), one
        array or constant per candidate.  Here: the columns of `weights`
        on read-only window views, so `weights` decides; the classical
        strategies compute them from the rows directly."""
        w = self.stencil_width
        s = _windows(f, range(w), len(f) - w + 1)
        omega = self.weights(s)
        return [omega[..., k] for k in range(omega.shape[-1])]


class _Width3(_Strategy):
    stencil_width = 3

    def candidates(self, s):
        return candidate_fluxes3(s)

    def row_candidates(self, f):
        return candidate_rows3(f)


class _Width5(_Strategy):
    stencil_width = 5

    def candidates(self, s):
        return candidate_fluxes5(s)

    def row_candidates(self, f):
        return candidate_rows5(f)


class Weno3JS(_Width3):
    name = "weno3-js"

    def weights(self, s):
        return wt.js_weights_array(s)

    def row_weights(self, f):
        return wt.js_weights_rows(f)


class Weno3Z(_Width3):
    name = "weno3-z"

    def weights(self, s):
        return wt.z_weights_array(s)

    def row_weights(self, f):
        return wt.z_weights_rows(f)


class Linear3(_Width3):
    """Fixed optimal weights; third order everywhere, for diagnostics."""

    name = "weno3-linear"

    def weights(self, s):
        return _linear_weights(s, wt.LINEAR3)

    def row_weights(self, f):
        return wt.LINEAR3


class NeuralWeighting3(_Width3):
    """Weights from a trained network; `label` distinguishes variants."""

    def __init__(self, params, label="weno3-cadnn"):
        self.params = params
        self.name = label

    def weights(self, s):
        return network.forward_array(self.params, s)


class Weno5JS(_Width5):
    name = "weno5-js"

    def weights(self, s):
        return wt.js5_weights_array(s)

    def row_weights(self, f):
        return wt.js5_weights_rows(f)


class Weno5M(_Width5):
    name = "weno5-m"

    def weights(self, s):
        return wt.m5_weights_array(s)

    def row_weights(self, f):
        return wt.m5_weights_rows(f)


class Linear5(_Width5):
    name = "weno5-linear"

    def weights(self, s):
        return _linear_weights(s, wt.LINEAR5)

    def row_weights(self, f):
        return wt.LINEAR5


def ghost_width(strategy):
    return strategy.stencil_width // 2 + 1


# ---------------------------------------------------------------------------
# vectorized sweep


def _windows(a, offsets, m):
    """Read-only view (m, ..., w) of `a` (sweep axis first) whose column k
    is the slice a[offsets[k] : offsets[k] + m]; `offsets` is a range.

    as_strided checks no bounds: every such slice must lie inside `a`.
    """
    return as_strided(a[offsets.start:], shape=(m,) + a.shape[1:] + (len(offsets),),
                      strides=a.strides + (offsets.step * a.strides[0],),
                      writeable=False)


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
    window, whose kernels rescale overflowing stencils; elsewhere the two
    agree bit for bit.
    """
    h = _blend(strategy.row_weights(f), strategy.row_candidates(f))
    if not np.isfinite(h).all():
        bad = ~np.isfinite(h)
        s = _windows(f, range(strategy.stencil_width), len(h))[bad]
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
    # windows of the reversed row fm[:0:-1], in reverse order.  That row
    # is copied with positive strides first: numpy cannot merge the axes
    # of a reversed (n, 3) row into one loop, and the sweep over the view
    # measured up to twice as slow as over the copy.
    hp = _plus_values(fp[:-1], strategy)
    hp += _plus_values(fm[:0:-1].copy(order="K"), strategy)[::-1]
    return hp
