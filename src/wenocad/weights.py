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

The `*_array` kernels accept arrays whose trailing axis is the stencil and
are what the solvers call in bulk; `delta_layer` and `modified_delta_layer`
map one stencil to a frozen DeltaFeatures record.  The solvers pass
read-only strided views, so the kernels read the stencil columns where
they lie and never write into their input.  They reuse their own
temporaries through in-place operations, keeping the operation order of
the formulas they implement, so they round exactly as those formulas do.
A stencil whose squared differences overflow is recomputed after an exact
power-of-two rescale, so the weights and the network features stay finite
for every finite input.
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


def _kernel(fn):
    """Wrap fn(s, ...) -> (..., k), a kernel on stencils s (..., w).

    A single stencil (w,) runs as a batch of one, so the in-place
    operations inside `fn` always act on arrays.  Stencils whose output is
    not finite, because a difference or its square overflowed, are
    computed again after scaling each by the power of two that brings its
    largest entry into [1/2, 1); the scaling is exact, and every finite
    output keeps its bits.
    """

    @functools.wraps(fn)
    def kernel(s, *args, **kwargs):
        s = np.asarray(s, dtype=float)
        if s.ndim == 1:
            return kernel(s[None], *args, **kwargs)[0]
        out = fn(s, *args, **kwargs)
        if not np.isfinite(out).all():
            bad = ~np.isfinite(out).all(axis=-1)
            sb = s[bad]
            _, e = np.frexp(np.max(np.abs(sb), axis=-1, keepdims=True))
            out[bad] = fn(np.ldexp(sb, -e), *args, **kwargs)
        return out

    return kernel


def _normalized(a, tot):
    """The columns a_k / tot stacked along a new last axis.

    Each column is laid out in memory like `tot`, which follows the
    caller's stencils, so the divisions here and the blend that reads the
    weights run over contiguous memory.
    """
    outer = sorted(range(tot.ndim), key=tot.strides.__getitem__, reverse=True)
    out = np.empty((len(a),) + tuple(tot.shape[i] for i in outer))
    out = out.transpose([1 + outer.index(i) for i in range(tot.ndim)] + [0])
    for k, ak in enumerate(a):
        np.divide(ak, tot, out=out[..., k])
    return out


# ---------------------------------------------------------------------------
# three-point smoothness indicators and classical weights


def beta3_array(s):
    """beta_k = (first difference of substencil k)^2 for arrays (..., 3)."""
    s = np.asarray(s, dtype=float)
    b0 = s[..., 0] - s[..., 1]
    b0 *= b0
    b1 = s[..., 1] - s[..., 2]
    b1 *= b1
    return b0, b1


@_kernel
def js_weights_array(s, eps=EPS_JS):
    """Jiang-Shu weights, alpha_k = d_k / (beta_k + eps)^2."""
    a = beta3_array(s)
    for ak, dk in zip(a, LINEAR3):
        ak += eps
        ak *= ak
        np.divide(dk, ak, out=ak)
    return _normalized(a, a[0] + a[1])


@_kernel
def z_weights_array(s, eps=EPS_Z):
    """WENO3-Z weights, alpha_k = d_k (1 + (tau3 / (beta_k + eps))^2)."""
    a = beta3_array(s)
    tau = a[0] - a[1]
    np.abs(tau, out=tau)
    for ak, dk in zip(a, LINEAR3):
        ak += eps
        np.divide(tau, ak, out=ak)
        ak *= ak
        ak += 1.0
        ak *= dk
    return _normalized(a, a[0] + a[1])


# ---------------------------------------------------------------------------
# normalized-difference features


def delta_array(s, eps=EPS_DELTA):
    """Plain normalized differences (d1..d4) for arrays (..., 3).

    d_j = D_j / max(D_1, D_2, eps) with D_1 = |f0-f1|, D_2 = |f1-f2|,
    D_3 = |f0-f2|, D_4 = |f0-2f1+f2|.
    """
    s = np.asarray(s, dtype=float)
    r1 = np.abs(s[..., 0] - s[..., 1])
    r2 = np.abs(s[..., 1] - s[..., 2])
    r3 = np.abs(s[..., 0] - s[..., 2])
    r4 = np.abs(s[..., 0] - 2.0 * s[..., 1] + s[..., 2])
    denom = np.maximum(np.maximum(r1, r2), eps)
    return np.stack((r1, r2, r3, r4), axis=-1) / denom[..., None]


@_kernel
def modified_delta_array(s, eps=EPS_DELTA_MOD):
    """Clamped normalized differences used as network input.

    The first two raw differences are clamped from below by eps before
    normalization, so a locally constant stencil maps to (1, 1, 0, 0)
    instead of the all-zero vector, and small perturbations of constant
    data cannot flip the feature vector discontinuously.  Invariant under
    adding a constant to the stencil, and under scaling whenever the
    clamps are inactive.
    """
    s0, s1, s2 = s[..., 0], s[..., 1], s[..., 2]
    r1 = s0 - s1
    r2 = s1 - s2
    for r in (r1, r2):
        np.abs(r, out=r)
        np.maximum(r, eps, out=r)
    denom = np.maximum(r1, r2)
    out = np.empty(denom.shape + (4,))
    np.divide(r1, denom, out=out[..., 0])
    np.divide(r2, denom, out=out[..., 1])
    r = np.subtract(s0, s2, out=r1)
    np.abs(r, out=r)
    np.divide(r, denom, out=out[..., 2])
    # s0 - 2 s1 + s2, as (s0 + (-2 s1)) + s2
    r = np.multiply(s1, -2.0, out=r2)
    r += s0
    r += s2
    np.abs(r, out=r)
    np.divide(r, denom, out=out[..., 3])
    return out


def delta_layer(s, eps=EPS_DELTA):
    d = delta_array(_stencil3(s), eps)
    return DeltaFeatures(*(float(v) for v in d))


def modified_delta_layer(s, eps=EPS_DELTA_MOD):
    d = modified_delta_array(_stencil3(s), eps)
    return DeltaFeatures(*(float(v) for v in d))


# ---------------------------------------------------------------------------
# stencil reversal and the smoothness gauge


def flip_weights_array(w):
    """Weights of the reversed stencil implied by weights of the original.

    Reversing (f0, f1, f2) swaps the roles of the candidate stencils and
    the linear weights, giving wf = (w1, 4 w0) / (4 w0 + w1).  The
    denominator is clamped away from zero as a guard; for valid convex
    pairs it equals 1 + 3 w0 >= 1 and the clamp never binds.
    """
    w = np.asarray(w, dtype=float)
    denom = np.maximum(4.0 * w[..., 0] + w[..., 1], EPS_DELTA_MOD)
    return np.stack((w[..., 1] / denom, 4.0 * w[..., 0] / denom), axis=-1)


def gauge_array(s, eps=EPS_DELTA_MOD):
    """exp(-6 r) with r = max(D1/D2, D2/D1) of the clamped differences.

    Near one on smooth data (r ~ 1), underflows to zero across a jump.
    """
    s = np.asarray(s, dtype=float)
    r1 = np.maximum(np.abs(s[..., 0] - s[..., 1]), eps)
    r2 = np.maximum(np.abs(s[..., 1] - s[..., 2]), eps)
    r = np.maximum(r1 / r2, r2 / r1)
    with np.errstate(under="ignore"):
        return np.exp(-GAUGE_RATE * r)


# ---------------------------------------------------------------------------
# five-point (WENO5) weights for the comparison schemes


def _beta5(p, q):
    """13/12 p^2 + 1/4 q^2, reusing p and q."""
    p *= p
    p *= 13.0 / 12.0
    q *= q
    q *= 0.25
    p += q
    return p


def beta5_array(s):
    """Jiang-Shu fifth-order smoothness indicators for arrays (..., 5)."""
    s = np.asarray(s, dtype=float)
    f0, f1, f2, f3, f4 = (s[..., k] for k in range(5))
    # x - 2 y is evaluated as (-2 y) + x, which rounds the same
    p0 = f1 * -2.0
    p0 += f0
    p0 += f2
    q0 = f1 * -4.0
    q0 += f0
    q0 += 3.0 * f2
    p1 = f2 * -2.0
    p1 += f1
    p1 += f3
    p2 = f3 * -2.0
    p2 += f2
    p2 += f4
    q2 = 3.0 * f2
    q2 -= 4.0 * f3
    q2 += f4
    return _beta5(p0, q0), _beta5(p1, f1 - f3), _beta5(p2, q2)


@_kernel
def js5_weights_array(s, eps=EPS_JS):
    a = beta5_array(s)
    for ak, dk in zip(a, LINEAR5):
        ak += eps
        ak *= ak
        np.divide(dk, ak, out=ak)
    tot = a[0] + a[1]
    tot += a[2]
    return _normalized(a, tot)


def _henrick_map(w, d):
    # g(w) = w (d + d^2 - 3 d w + w^2) / (d^2 + w (1 - 2 d)), fixed point at d
    return w * (d + d * d - 3.0 * d * w + w * w) / (d * d + w * (1.0 - 2.0 * d))


def m5_weights_array(s, eps=EPS_JS):
    """Mapped WENO5 weights (Henrick, Aslam and Powers 2005)."""
    w = js5_weights_array(s, eps)
    g = np.stack(
        [_henrick_map(w[..., k], LINEAR5[k]) for k in range(3)],
        axis=-1,
    )
    return g / np.sum(g, axis=-1, keepdims=True)
