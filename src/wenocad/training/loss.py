"""Training objective for the neural weighting function.

A batch of N four-point stencils decomposes into 2N overlapping
three-point substencils, one per interface of the conservative derivative

    Dv_i = (v_{i+1/2} - v_{i-1/2}) / dx,

each interface value blending the two candidate reconstructions with the
network's weights.  Three terms make up the objective:

    l_cad  mean squared derivative error over the N samples;
    l_sym  softly ties the weights of every reversed substencil to the
           transformation the reversal induces on the original weights,
           measured between logarithms over the 2N substencils;
    l_ln   pulls log(2 w0) - log(w1) to zero (the optimal linear weights)
           with a per-stencil factor that fades to zero near jumps.

    total = l_cad + C * l_sym + D * l_ln

Both sums over substencils are normalized by N, not 2N.  Gradients flow
through both branches of the symmetry term.  All passes are batched
numpy and start from `prepare`, which computes the data-only parts of a
batch: the features of the 2N substencils and their 2N reversals, in the
row layout of `feature_stencils`, the candidate values and the gauge.
Training prepares its whole dataset once, and `Prepared.take` gathers a
mini-batch's rows from it.  A gradient evaluation runs one traced
forward pass over the 4N feature rows and one backward pass over it,
reducing the parameter gradients of the two halves separately and adding
them.  The loss alone needs no trace: `total_loss`
runs the network's inference pass and the loss arithmetic, which is how
training evaluates the full dataset every epoch.  Every evaluation raises
FloatingPointError when a term or the total is non-finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .. import network
from ..reconstruction import candidate_fluxes3
from ..weights import flip_weights_array, gauge_array, modified_delta_array
from .dataset import DX


class Batch(NamedTuple):
    stencils: np.ndarray  # (n, 4)
    labels: np.ndarray    # (n,)


@dataclass(frozen=True)
class LossBreakdown:
    l_cad: float
    l_sym: float
    l_ln: float
    total: float


def feature_stencils(stencils):
    """The stencils of the feature rows of a batch of four-point stencils
    (N, 4): its 2N interface substencils, left interfaces first, then
    their 2N reversals."""
    sub = np.concatenate((stencils[:, 0:3], stencils[:, 1:4]), axis=0)
    return np.concatenate((sub, sub[:, ::-1]), axis=0)


class Prepared(NamedTuple):
    """The data-only parts of the loss of a batch of N samples."""

    features: np.ndarray  # (4n, 4) of the substencils, then their reversals
    h0: np.ndarray        # (2n,) candidate values of the substencils
    h1: np.ndarray
    lam: np.ndarray       # (2n,) smoothness gauge of the substencils
    labels: np.ndarray    # (n,)

    def take(self, idx):
        """The Prepared form of the samples idx of this batch."""
        n = self.labels.shape[0]
        sub = np.concatenate((idx, n + idx))
        return Prepared(self.features[np.concatenate((sub, 2 * n + sub))],
                        self.h0[sub], self.h1[sub], self.lam[sub],
                        self.labels[idx])


def prepare(batch):
    """The Prepared form of a Batch; a Prepared batch is returned as is."""
    if isinstance(batch, Prepared):
        return batch
    stencils, labels = (np.asarray(a, dtype=float) for a in batch)
    both = feature_stencils(stencils)
    sub = both[: 2 * len(labels)]
    h0, h1 = candidate_fluxes3(sub)
    return Prepared(modified_delta_array(both), h0, h1, gauge_array(sub), labels)


def _flux_difference(w, h0, h1):
    """(h_{i+1/2} - h_{i-1/2}) / DX from the weights and candidate values
    of the 2N substencils."""
    h = w[:, 0] * h0 + w[:, 1] * h1
    n = h.shape[0] // 2
    return (h[n:] - h[:n]) / DX


def _terms(w, wf, h0, h1, lam, labels, hyper_c, hyper_d):
    """The three loss terms and their weighted total from the weights w of
    the 2N substencils, the weights wf of their reversals and the
    data-only parts; raises FloatingPointError naming the first of
    l_cad, l_sym, l_ln and total that is non-finite.

    Returns the breakdown and the residuals, reversal targets, symmetry
    log-differences and linear-weight log-ratios the gradient reuses.
    """
    n = labels.shape[0]

    # conservative-derivative term
    resid = _flux_difference(w, h0, h1) - labels
    l_cad = float(np.mean(resid**2))

    # reversal-symmetry term, logs of both weight pairs
    target = flip_weights_array(w)
    g = np.log(wf) - np.log(target)
    l_sym = float(np.sum(g * g) / n)

    # linear-weight term, gauged by local smoothness
    tln = np.log(2.0 * w[:, 0]) - np.log(w[:, 1])
    l_ln = float(np.sum(lam * tln * tln) / n)

    total = l_cad + hyper_c * l_sym + hyper_d * l_ln
    breakdown = LossBreakdown(l_cad, l_sym, l_ln, total)
    for name, val in vars(breakdown).items():
        if not np.isfinite(val):
            raise FloatingPointError(f"{name} is non-finite")
    return breakdown, resid, target, g, tln


def total_loss_and_gradient(params, batch, hyper_c, hyper_d):
    """The loss of a batch and its parameter gradients."""
    features, h0, h1, lam, labels = prepare(batch)
    n, m = labels.shape[0], h0.shape[0]
    tr = network.forward_trace(params, features)
    w = tr.omega[:m]
    wf = tr.omega[m:]
    breakdown, resid, target, g, tln = _terms(w, wf, h0, h1, lam, labels,
                                              hyper_c, hyper_d)

    # d l_cad / d w
    dresid = 2.0 * resid / n
    dh = np.concatenate((-dresid, dresid)) / DX
    dw = np.stack((dh * h0, dh * h1), axis=-1)

    # d l_sym / d w through the transformation branch ...
    dtarget = (-2.0 / n) * g / target
    q = 4.0 * w[:, 0] + w[:, 1]
    q2 = q * q
    dw_sym0 = dtarget[:, 0] * (-4.0 * w[:, 1] / q2) + dtarget[:, 1] * (4.0 * w[:, 1] / q2)
    dw_sym1 = dtarget[:, 0] * (4.0 * w[:, 0] / q2) + dtarget[:, 1] * (-4.0 * w[:, 0] / q2)
    dw_sym = np.stack((dw_sym0, dw_sym1), axis=-1)
    # ... and through the reversed-stencil branch
    dwf = (2.0 / n) * g / wf

    # d l_ln / d w
    coeff = (2.0 / n) * lam * tln
    dw_ln = np.stack((coeff / w[:, 0], -coeff / w[:, 1]), axis=-1)

    for name, val in (("l_cad", dw), ("l_sym", dw_sym), ("l_sym", dwf),
                      ("l_ln", dw_ln)):
        if not np.all(np.isfinite(val)):
            raise FloatingPointError(f"gradient of {name} is non-finite")

    dw_total = dw + hyper_c * dw_sym + hyper_d * dw_ln
    domega = np.concatenate((dw_total, hyper_c * dwf))
    grads = network.backward_trace(params, tr, domega, split=m)
    return breakdown, grads


def total_loss(params, batch, hyper_c, hyper_d):
    """The loss of a batch through the network's inference pass."""
    features, h0, h1, lam, labels = prepare(batch)
    omega = network.forward_features(params, features)
    m = h0.shape[0]
    return _terms(omega[:m], omega[m:], h0, h1, lam, labels,
                  hyper_c, hyper_d)[0]


def gradient(params, batch, hyper_c, hyper_d):
    return total_loss_and_gradient(params, batch, hyper_c, hyper_d)[1]
