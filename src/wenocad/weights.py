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
map one stencil to a frozen DeltaFeatures record.
"""

from __future__ import annotations

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


# ---------------------------------------------------------------------------
# three-point smoothness indicators and classical weights


def beta3_array(s):
    """beta_k = (first difference of substencil k)^2 for arrays (..., 3)."""
    s = np.asarray(s, dtype=float)
    b0 = (s[..., 0] - s[..., 1]) ** 2
    b1 = (s[..., 1] - s[..., 2]) ** 2
    return b0, b1


def js_weights_array(s, eps=EPS_JS):
    """Jiang-Shu weights, alpha_k = d_k / (beta_k + eps)^2."""
    b0, b1 = beta3_array(s)
    a0 = LINEAR3[0] / (b0 + eps) ** 2
    a1 = LINEAR3[1] / (b1 + eps) ** 2
    tot = a0 + a1
    return np.stack((a0 / tot, a1 / tot), axis=-1)


def z_weights_array(s, eps=EPS_Z):
    """WENO3-Z weights, alpha_k = d_k (1 + (tau3 / (beta_k + eps))^2)."""
    b0, b1 = beta3_array(s)
    tau = np.abs(b0 - b1)
    a0 = LINEAR3[0] * (1.0 + (tau / (b0 + eps)) ** 2)
    a1 = LINEAR3[1] * (1.0 + (tau / (b1 + eps)) ** 2)
    tot = a0 + a1
    return np.stack((a0 / tot, a1 / tot), axis=-1)


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


def modified_delta_array(s, eps=EPS_DELTA_MOD):
    """Clamped normalized differences used as network input.

    The first two raw differences are clamped from below by eps before
    normalization, so a locally constant stencil maps to (1, 1, 0, 0)
    instead of the all-zero vector, and small perturbations of constant
    data cannot flip the feature vector discontinuously.  Invariant under
    adding a constant to the stencil, and under scaling whenever the
    clamps are inactive.
    """
    s = np.asarray(s, dtype=float)
    r1 = np.maximum(np.abs(s[..., 0] - s[..., 1]), eps)
    r2 = np.maximum(np.abs(s[..., 1] - s[..., 2]), eps)
    r3 = np.abs(s[..., 0] - s[..., 2])
    r4 = np.abs(s[..., 0] - 2.0 * s[..., 1] + s[..., 2])
    denom = np.maximum(r1, r2)
    return np.stack((r1, r2, r3, r4), axis=-1) / denom[..., None]


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


def beta5_array(s):
    """Jiang-Shu fifth-order smoothness indicators for arrays (..., 5)."""
    s = np.asarray(s, dtype=float)
    f0, f1, f2, f3, f4 = (s[..., k] for k in range(5))
    c = 13.0 / 12.0
    b0 = c * (f0 - 2.0 * f1 + f2) ** 2 + 0.25 * (f0 - 4.0 * f1 + 3.0 * f2) ** 2
    b1 = c * (f1 - 2.0 * f2 + f3) ** 2 + 0.25 * (f1 - f3) ** 2
    b2 = c * (f2 - 2.0 * f3 + f4) ** 2 + 0.25 * (3.0 * f2 - 4.0 * f3 + f4) ** 2
    return b0, b1, b2


def js5_weights_array(s, eps=EPS_JS):
    b0, b1, b2 = beta5_array(s)
    a0 = LINEAR5[0] / (eps + b0) ** 2
    a1 = LINEAR5[1] / (eps + b1) ** 2
    a2 = LINEAR5[2] / (eps + b2) ** 2
    tot = a0 + a1 + a2
    return np.stack((a0 / tot, a1 / tot, a2 / tot), axis=-1)


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
