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
values of a window and a vectorized `weights` kernel.  One sweep serves
both widths: with r = w // 2 and g = r + 1 ghost cells, the windows, the
ghost layers and the blend all follow from w, so the classical
smoothness-indicator weights and the neural weighting function plug into
the same code.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from . import network, weights as wt
from .errors import DimensionError

GHOST3 = 2
GHOST5 = 3


def lax_friedrichs_split(f, u, alpha):
    """Split pointwise fluxes into f+- = (f +- alpha u) / 2."""
    f = np.asarray(f, dtype=float)
    u = np.asarray(u, dtype=float)
    return 0.5 * (f + alpha * u), 0.5 * (f - alpha * u)


def candidate_fluxes3(s):
    """The two candidate interface values of windows (..., 3)."""
    s = np.asarray(s, dtype=float)
    h0 = -0.5 * s[..., 0] + 1.5 * s[..., 1]
    h1 = 0.5 * s[..., 1] + 0.5 * s[..., 2]
    return h0, h1


def candidate_fluxes5(s):
    """The three candidate interface values of windows (..., 5)."""
    s = np.asarray(s, dtype=float)
    f0, f1, f2, f3, f4 = (s[..., k] for k in range(5))
    q0 = (2.0 * f0 - 7.0 * f1 + 11.0 * f2) / 6.0
    q1 = (-f1 + 5.0 * f2 + 2.0 * f3) / 6.0
    q2 = (2.0 * f2 + 5.0 * f3 - f4) / 6.0
    return q0, q1, q2


def _linear_weights(s, d):
    s = np.asarray(s, dtype=float)
    out = np.empty(s.shape[:-1] + (len(d),))
    out[...] = d
    return out


# ---------------------------------------------------------------------------
# weighting strategies


class _Width3:
    stencil_width = 3

    def candidates(self, s):
        return candidate_fluxes3(s)


class _Width5:
    stencil_width = 5

    def candidates(self, s):
        return candidate_fluxes5(s)


class Weno3JS(_Width3):
    name = "weno3-js"

    def weights(self, s):
        return wt.js_weights_array(s)


class Weno3Z(_Width3):
    name = "weno3-z"

    def weights(self, s):
        return wt.z_weights_array(s)


class Linear3(_Width3):
    """Fixed optimal weights; third order everywhere, for diagnostics."""

    name = "weno3-linear"

    def weights(self, s):
        return _linear_weights(s, wt.LINEAR3)


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


class Weno5M(_Width5):
    name = "weno5-m"

    def weights(self, s):
        return wt.m5_weights_array(s)


class Linear5(_Width5):
    name = "weno5-linear"

    def weights(self, s):
        return _linear_weights(s, wt.LINEAR5)


def ghost_width(strategy):
    return strategy.stencil_width // 2 + 1


# ---------------------------------------------------------------------------
# vectorized sweep


def _windows(a, offsets, m):
    """Stack m-long slices of `a` (sweep axis first) at the given offsets."""
    return np.stack([a[k : k + m] for k in offsets], axis=-1)


def _blend(w, q):
    """sum_k w_k q_k, chained from the first term."""
    return reduce(np.add, (w[..., k] * qk for k, qk in enumerate(q)))


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
    r = g - 1  # cells a window reaches on either side of its center
    m = n_tot - 2 * g + 1  # number of interfaces
    if m < 2:
        raise DimensionError(
            f"row of {n_tot} values is too short for a width-"
            f"{strategy.stencil_width} reconstruction"
        )

    # plus part at i+1/2 from (f+_{i-r}, ..., f+_{i+r});
    # minus part from the reversed window (f-_{i+1+r}, ..., f-_{i+1-r})
    sp = _windows(fp, range(g - 1 - r, g + r), m)
    sm = _windows(fm, range(g + r, g - r - 1, -1), m)
    hp = _blend(strategy.weights(sp), strategy.candidates(sp))
    hm = _blend(strategy.weights(sm), strategy.candidates(sm))
    return hp + hm
