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
row layout of `feature_blocks`, the candidate values and the gauge.
Training prepares its whole dataset once, and `Prepared.take` gathers a
mini-batch's rows from it.  A gradient evaluation runs one traced
forward pass over the 4N feature rows and one backward pass over it,
reducing the parameter gradients of the two halves separately and adding
them.  The loss alone needs no trace: `total_loss` runs the network's
inference pass in chunks of CHUNK_ROWS = 4096 feature rows, writing each
chunk's weights into one array, then the loss arithmetic, which is how
training evaluates the full dataset every epoch.  The loss arithmetic
works in place where the operations allow it, so an evaluation of the
full set holds its weights, the arrays the gradient reuses and one more
array of 2N pairs at a time.

Finiteness is checked in three places.  The network's passes check
their weights omega and raise NetworkEvalError.  Every evaluation checks
the three terms and the total, four floats, and raises FloatingPointError
naming the first that is non-finite.  A gradient evaluation makes one more
pass, over d(loss)/d(omega): when it holds a non-finite value, the
gradient of each term is checked in the order l_cad, l_sym, l_ln, and the
first that is non-finite is named in a FloatingPointError.  When all of
them are finite, only the weighted sum overflowed, and the evaluation
returns its non-finite parameter gradients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .. import network
from ..reconstruction import candidate_fluxes3
from ..weights import flip_weights_array, gauge_array, modified_delta_array
from .dataset import DX

# Feature rows per inference call of `total_loss`.  Chunks of this size
# keep each layer's arrays at 0.5 MB, where one call over the full
# training set's 95 200 rows makes 12 MB ones, and an evaluation takes
# less time and memory; 4096 rows timed within noise of 8192, and 16384
# slower.  Each chunk's weights are written into one array for the whole
# set.  A row's weights are the same in every batch, so the chunks keep
# the bits of one call.
CHUNK_ROWS = 4096


class Batch(NamedTuple):
    stencils: np.ndarray  # (n, 4)
    labels: np.ndarray    # (n,)


@dataclass(frozen=True)
class LossBreakdown:
    l_cad: float
    l_sym: float
    l_ln: float
    total: float


def feature_blocks(stencils):
    """The stencils of the feature rows of a batch of four-point stencils
    (N, 4), as four views of N rows each: its left and its right interface
    substencils, then the reversals of both."""
    return (stencils[:, 0:3], stencils[:, 1:4],
            stencils[:, 2::-1], stencils[:, 3:0:-1])


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
    both = np.concatenate(feature_blocks(stencils))
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

    Returns the breakdown and the residuals, symmetry log-differences and
    linear-weight log-ratios the gradient reuses.  The reversal targets
    are not returned: their array takes the symmetry term's logs and
    squares and is freed before the l_ln term, which alone takes one
    full-set evaluation's peak from 3.8 to 3.1 MB, and the gradient
    forms them again, about 10 us for a mini-batch of 200 stencils.
    """
    n = labels.shape[0]

    # conservative-derivative term
    resid = _flux_difference(w, h0, h1) - labels
    l_cad = float(np.mean(resid**2))

    # reversal-symmetry term, logs of both weight pairs, in the array of
    # the reversal targets
    target = flip_weights_array(w)
    g = np.log(wf)
    g -= np.log(target, out=target)
    l_sym = float(np.sum(np.square(g, out=target)) / n)
    del target

    # linear-weight term, gauged by local smoothness
    tln = np.log(2.0 * w[:, 0]) - np.log(w[:, 1])
    l_ln = float(np.sum(lam * tln * tln) / n)

    total = l_cad + hyper_c * l_sym + hyper_d * l_ln
    breakdown = LossBreakdown(l_cad, l_sym, l_ln, total)
    for name, val in vars(breakdown).items():
        if not np.isfinite(val):
            raise FloatingPointError(f"{name} is non-finite")
    return breakdown, resid, g, tln


def total_loss_and_gradient(params, batch, hyper_c, hyper_d):
    """The loss of a batch and its parameter gradients."""
    features, h0, h1, lam, labels = prepare(batch)
    n, m = labels.shape[0], h0.shape[0]
    tr = network.forward_trace(params, features)
    w = tr.omega[:m]
    wf = tr.omega[m:]
    breakdown, resid, g, tln = _terms(w, wf, h0, h1, lam, labels,
                                      hyper_c, hyper_d)
    w0, w1 = w[:, 0], w[:, 1]

    # d l_cad / d w, by column
    dresid = 2.0 * resid / n
    dh = np.concatenate((-dresid, dresid)) / DX
    dw = (dh * h0, dh * h1)

    # d l_sym / d w through the transformation branch ...
    dtarget = (-2.0 / n) * g / flip_weights_array(w)
    q = 4.0 * w0 + w1
    q2 = q * q
    # target's derivatives are -a and a in w0, b and -b in w1, and a
    # product with -a is the negated product with a, bit for bit
    a = 4.0 * w1 / q2
    b = 4.0 * w0 / q2
    dw_sym = (dtarget[:, 1] * a - dtarget[:, 0] * a,
              dtarget[:, 0] * b - dtarget[:, 1] * b)
    # ... and through the reversed-stencil branch
    dwf = (2.0 / n) * g / wf

    # d l_ln / d w: coeff / w0 and the negated coeff / w1
    coeff = (2.0 / n) * lam * tln
    dw_ln = (coeff / w0, coeff / w1)

    # d(loss)/d(omega), the substencils' rows then their reversals':
    # dw + C dw_sym + D dw_ln, then C dwf
    domega = np.empty_like(tr.omega)
    col = np.add(dw[0], hyper_c * dw_sym[0], out=domega[:m, 0])
    col += hyper_d * dw_ln[0]
    col = np.add(dw[1], hyper_c * dw_sym[1], out=domega[:m, 1])
    col -= hyper_d * dw_ln[1]
    np.multiply(dwf, hyper_c, out=domega[m:])
    # a non-finite term makes domega non-finite; with every term finite,
    # only the weighted sum overflowed, and the batch carries on
    if not np.isfinite(domega).all():
        for name, val in (("l_cad", dw), ("l_sym", dw_sym), ("l_sym", dwf),
                          ("l_ln", dw_ln)):
            if not np.all(np.isfinite(val)):
                raise FloatingPointError(f"gradient of {name} is non-finite")
    grads = network.backward_trace(params, tr, domega, split=m)
    return breakdown, grads


def _forward_chunks(params, x):
    """`network.forward_features` of the feature rows x, run on chunks of
    CHUNK_ROWS rows and written into one array."""
    omega = np.empty((len(x), 2))
    for lo in range(0, len(x), CHUNK_ROWS):
        chunk = slice(lo, lo + CHUNK_ROWS)
        omega[chunk] = network.forward_features(params, x[chunk])
    return omega


def total_loss(params, batch, hyper_c, hyper_d):
    """The loss of a batch through the network's inference pass, run in
    chunks of CHUNK_ROWS feature rows."""
    features, h0, h1, lam, labels = prepare(batch)
    omega = _forward_chunks(params, features)
    m = h0.shape[0]
    return _terms(omega[:m], omega[m:], h0, h1, lam, labels,
                  hyper_c, hyper_d)[0]


def gradient(params, batch, hyper_c, hyper_d):
    return total_loss_and_gradient(params, batch, hyper_c, hyper_d)[1]
