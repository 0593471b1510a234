"""Nonlinear weighting for third- and fifth-order WENO reconstruction.

A three-point reconstruction blends two one-point-offset candidate stencils
with convex weights (w0, w1).  The classical choices are the smoothness-
indicator weights of Jiang and Shu, JCP 126, 202-228 (1996) and the
tau-based Z weights of Borges, Carmona, Costa and Don, JCP 227, 3191-3211
(2008), here in their three-point form (Don and Borges, JCP 250, 347-372
(2013)).  The module also provides the normalized-difference feature maps
that feed the neural weighting function, the weight transformation under
stencil reversal, and a smoothness gauge used to localize a regularization
term during training.

Five-point (WENO5) weights for the classical comparison schemes live here
as well: the original Jiang-Shu weights and the mapped variant of Henrick,
Aslam and Powers, JCP 207, 542-567 (2005).

The classical weights are written once, as functions of rows: a
`*_rows(f)` function takes split fluxes with the sweep axis first and
returns, for every window f[i : i + w], one weight array per candidate.
What overlapping windows share is computed once per point (the squared
first differences of the three-point indicators, the 13/12 p^2 term of
the five-point ones), and each unnormalized alpha_k is divided by the sum
in place, so no (..., k) weights array is built; the solvers' sweep calls
these.  A weighting strategy names only its row function, and
`window_kernel` derives the per-stencil form from it: a kernel on arrays
whose trailing axis is the stencil, which runs the row function on the
stencils laid out as rows of one window each, so both forms round
exactly alike.  The derived kernel recomputes a stencil whose squared
differences overflow after an exact power-of-two rescale, so the weights
stay finite for every finite input; the row functions leave such windows
non-finite for the sweep to recompute through the window form.  The row
functions do not silence numpy's warnings themselves: their callers, the
sweep (`reconstruction._plus_values`) and the derived kernel's first
pass, do.  The network's clamped features have a row function too,
`modified_delta_rows`, which the neural sweep calls; the per-stencil
kernel `modified_delta_array`, which training calls on its whole set,
is derived from it on `stencil_rows` through the same rescue, so the
trainer and the solver form the network's input with the same
operations.  `delta_layer` and `modified_delta_layer` map one stencil to
a frozen DeltaFeatures record, and the feature kernels rescue
overflowing stencils the same way.  Nothing here writes into its input.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError

# Epsilon guards.  The JS and Z values follow the papers cited above; the
# feature-layer guards keep the normalized differences well defined on
# locally constant data.
EPS_JS = 1e-6
EPS_Z = 1e-40
EPS_DELTA = 1e-12
EPS_DELTA_MOD = 1e-10

# Optimal (linear) weights recovering the full-stencil upwind scheme.
LINEAR3 = (1.0 / 3.0, 2.0 / 3.0)
LINEAR5 = (0.1, 0.6, 0.3)

GAUGE_RATE = 6.0


def _require_finite(name, *values):
    for v in values:
        if not np.isfinite(v):
            raise ValueError(f"{name} requires finite entries, got {v!r}")


@dataclass(frozen=True)
class DeltaFeatures:
    """Normalized absolute differences of a three-point stencil."""

    d1: float
    d2: float
    d3: float
    d4: float

    def __post_init__(self):
        _require_finite("DeltaFeatures", self.d1, self.d2, self.d3, self.d4)
        if min(self.d1, self.d2, self.d3, self.d4) < 0.0:
            raise ValueError("normalized differences are nonnegative")

    def as_array(self):
        return np.array([self.d1, self.d2, self.d3, self.d4], dtype=float)


def _stencil3(s):
    a = np.asarray(s, dtype=float)
    if a.shape[-1] != 3:
        raise DimensionError(f"expected 3 point values, got shape {a.shape}")
    return a


def _batched(fn):
    """Wrap fn(a), a function of float arrays whose last axis is one
    stencil or one weight pair, so that a single one (w,) runs as a batch
    of one: the in-place operations inside `fn` always act on arrays."""

    @functools.wraps(fn)
    def batched(a):
        a = np.asarray(a, dtype=float)
        if a.ndim == 1:
            return fn(a[None])[0]
        return fn(a)

    return batched


def _kernel(fn):
    """Wrap fn(s) -> (..., k), a kernel on stencils s (..., w), batched.

    Stencils whose output is not finite, because a difference or its
    square overflowed, are computed again after scaling each by the power
    of two that brings its largest entry into [1/2, 1); the scaling is
    exact, and every finite output keeps its bits.  The first pass runs
    with numpy's overflow, invalid and divide warnings off, since the
    stencils that raise them are the ones computed again; the second pass
    keeps the caller's settings.
    """

    @_batched
    @functools.wraps(fn)
    def kernel(s):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            out = fn(s)
        if not np.isfinite(out).all():
            bad = ~np.isfinite(out).all(axis=-1)
            sb = s[bad]
            _, e = np.frexp(np.max(np.abs(sb), axis=-1, keepdims=True))
            out[bad] = fn(np.ldexp(sb, -e))
        return out

    return kernel


def stencil_rows(s):
    """Stencils (..., w) as rows (w, ...) of one window each, the layout in
    which the row functions serve the per-stencil kernels."""
    return np.moveaxis(np.asarray(s, dtype=float), -1, 0)


def window_kernel(rows):
    """The window form s (..., w) -> (..., k) of the row function `rows`:
    constant weights are broadcast, overflowing stencils rescued."""

    def window(s):
        r = stencil_rows(s)
        w = rows(r)
        out = np.empty(r.shape[1:] + (len(w),))
        for k, wk in enumerate(w):
            out[..., k] = wk
        return out

    return _kernel(window)


def _normalized(a):
    """The weights a_k / sum(a), divided in place; the sum is chained from
    the first term."""
    tot = functools.reduce(np.add, a)
    for ak in a:
        ak /= tot
    return a


# ---------------------------------------------------------------------------
# three-point smoothness indicators and classical weights


def beta3_rows(f):
    """beta_k = (first difference of substencil k)^2 of every window
    f[i : i + 3] of rows f (window axis first).  Each squared difference is
    computed once and serves as beta_1 of one window and beta_0 of the
    next; (a - b)^2 and (b - a)^2 have the same bits."""
    d = f[:-1] - f[1:]
    d *= d
    return d[:-1], d[1:]


def _js_alpha(b, linear):
    """Jiang-Shu alpha_k = d_k / (beta_k + EPS_JS)^2, for widths 3 and 5."""
    a = []
    for bk, dk in zip(b, linear):
        ak = bk + EPS_JS
        ak *= ak
        a.append(np.divide(dk, ak, out=ak))
    return a


def _z_alpha(b):
    """WENO3-Z alpha_k = d_k (1 + (tau3 / (beta_k + EPS_Z))^2)."""
    tau = b[0] - b[1]
    np.abs(tau, out=tau)
    a = []
    for bk, dk in zip(b, LINEAR3):
        ak = bk + EPS_Z
        np.divide(tau, ak, out=ak)
        ak *= ak
        ak += 1.0
        ak *= dk
        a.append(ak)
    return a


def js_weights_rows(f):
    """Jiang-Shu weights of every 3-point window of rows f, per candidate."""
    return _normalized(_js_alpha(beta3_rows(f), LINEAR3))


def z_weights_rows(f):
    """WENO3-Z weights of every 3-point window of rows f, per candidate."""
    return _normalized(_z_alpha(beta3_rows(f)))


js_weights_array = window_kernel(js_weights_rows)
z_weights_array = window_kernel(z_weights_rows)


# ---------------------------------------------------------------------------
# normalized-difference features


@_kernel
def delta_array(s):
    """Plain normalized differences (d1..d4) for arrays (..., 3).

    d_j = D_j / max(D_1, D_2, EPS_DELTA) with D_1 = |f0-f1|, D_2 = |f1-f2|,
    D_3 = |f0-f2|, D_4 = |f0-2f1+f2|.
    """
    r1 = np.abs(s[..., 0] - s[..., 1])
    r2 = np.abs(s[..., 1] - s[..., 2])
    r3 = np.abs(s[..., 0] - s[..., 2])
    r4 = np.abs(s[..., 0] - 2.0 * s[..., 1] + s[..., 2])
    denom = np.maximum(np.maximum(r1, r2), EPS_DELTA)
    return np.stack((r1, r2, r3, r4), axis=-1) / denom[..., None]


def modified_delta_rows(f):
    """Clamped normalized differences used as network input, of every
    window (s0, s1, s2) = f[i : i + 3] of rows f (window axis first), as
    an array (m, ..., 4) of feature rows.

    The first two raw differences are clamped from below by EPS_DELTA_MOD
    before normalization, so a locally constant stencil maps to
    (1, 1, 0, 0) instead of the all-zero vector, and small perturbations
    of constant data cannot flip the feature vector discontinuously.
    Invariant under adding a constant to the stencil, and under scaling
    whenever the clamps are inactive.  Each clamped |f_i - f_{i+1}| is
    computed once and serves as D_1 of one window and D_2 of the one
    before it, as in `beta3_rows`.  Windows whose differences overflow
    come out non-finite; `modified_delta_array` rescues them.
    """
    d = f[:-1] - f[1:]
    np.abs(d, out=d)
    np.maximum(d, EPS_DELTA_MOD, out=d)
    r1, r2 = d[:-1], d[1:]
    denom = np.maximum(r1, r2)
    out = np.empty(denom.shape + (4,))
    np.divide(r1, denom, out=out[..., 0])
    np.divide(r2, denom, out=out[..., 1])
    s0, s1, s2 = f[:-2], f[1:-1], f[2:]
    r = np.subtract(s0, s2, out=r1)
    np.abs(r, out=r)
    np.divide(r, denom, out=out[..., 2])
    # s0 - 2 s1 + s2, as (s0 + (-2 s1)) + s2
    r = np.multiply(s1, -2.0, out=r)
    r += s0
    r += s2
    np.abs(r, out=r)
    np.divide(r, denom, out=out[..., 3])
    return out


@_kernel
def modified_delta_array(s):
    """`modified_delta_rows` of stencils s (..., 3), as (..., 4), with
    overflowing stencils rescaled."""
    return modified_delta_rows(stencil_rows(s))[0]


def delta_layer(s):
    d = delta_array(_stencil3(s))
    return DeltaFeatures(*(float(v) for v in d))


def modified_delta_layer(s):
    d = modified_delta_array(_stencil3(s))
    return DeltaFeatures(*(float(v) for v in d))


# ---------------------------------------------------------------------------
# stencil reversal and the smoothness gauge


@_batched
def flip_weights_array(w):
    """Weights of the reversed stencil implied by weights of the original.

    Reversing (f0, f1, f2) swaps the roles of the candidate stencils and
    the linear weights, giving wf = (w1, 4 w0) / (4 w0 + w1).  The
    denominator is clamped away from zero as a guard; for valid convex
    pairs it equals 1 + 3 w0 >= 1 and the clamp never binds.
    """
    denom = 4.0 * w[..., 0]
    denom += w[..., 1]
    np.maximum(denom, EPS_DELTA_MOD, out=denom)
    out = np.empty(w.shape[:-1] + (2,))
    np.divide(w[..., 1], denom, out=out[..., 0])
    wf1 = np.multiply(w[..., 0], 4.0, out=out[..., 1])
    wf1 /= denom
    return out


@_batched
def gauge_array(s):
    """exp(-6 r) with r = max(D1/D2, D2/D1) of the clamped differences.

    Near one on smooth data (r ~ 1), underflows to zero across a jump.
    """
    r1 = s[..., 0] - s[..., 1]
    r2 = s[..., 1] - s[..., 2]
    for d in (r1, r2):
        np.abs(d, out=d)
        np.maximum(d, EPS_DELTA_MOD, out=d)
    r = r1 / r2
    np.maximum(r, np.divide(r2, r1, out=r1), out=r)
    r *= -GAUGE_RATE
    with np.errstate(under="ignore"):
        return np.exp(r, out=r)


# ---------------------------------------------------------------------------
# five-point (WENO5) weights for the comparison schemes


def beta5_rows(f):
    """Jiang-Shu fifth-order smoothness indicators of every window
    f[i : i + 5] of rows f (window axis first),
    beta_k = 13/12 p_k^2 + 1/4 q_k^2.

    The p_k of the three substencils are one second-difference sequence
    at shifts 0, 1 and 2, so its 13/12 p^2 term is computed once per
    point; so are the 4 f that q_0 and q_2 use at different points.
    x - 2 y is evaluated as (-2 y) + x, and q_0's (-4 y) + x as x - 4 y;
    each pair rounds the same.
    """
    m = len(f) - 4
    t = f[1:-1] * -2.0
    t += f[:-2]
    t += f[2:]
    t *= t
    t *= 13.0 / 12.0
    four = 4.0 * f[1:-1]
    three = 3.0 * f[2:-2]
    q0 = f[:m] - four[:m]
    q0 += three
    q2 = three - four[2:]
    q2 += f[4:]
    b = []
    for k, q in enumerate((q0, f[1 : m + 1] - f[3:-1], q2)):
        q *= q
        q *= 0.25
        q += t[k : k + m]
        b.append(q)
    return b


def _henrick_map(w, d):
    # g(w) = w (d + d^2 - 3 d w + w^2) / (d^2 + w (1 - 2 d)), fixed point at d
    return w * (d + d * d - 3.0 * d * w + w * w) / (d * d + w * (1.0 - 2.0 * d))


def js5_weights_rows(f):
    """Jiang-Shu WENO5 weights of every 5-point window of rows f."""
    return _normalized(_js_alpha(beta5_rows(f), LINEAR5))


def m5_weights_rows(f):
    """Mapped WENO5 weights (Henrick, Aslam and Powers 2005) of every
    5-point window of rows f: the Jiang-Shu weights mapped and normalized
    again."""
    w = js5_weights_rows(f)
    return _normalized([_henrick_map(wk, dk) for wk, dk in zip(w, LINEAR5)])


js5_weights_array = window_kernel(js5_weights_rows)
