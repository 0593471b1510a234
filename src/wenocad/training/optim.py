"""Adam with decoupled weight decay, on the flat parameter vector.

Loshchilov and Hutter, "Decoupled Weight Decay Regularization" (ICLR
2019): the decay term is applied directly to the parameters alongside the
moment-based update instead of being folded into the gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BETA1 = 0.9
BETA2 = 0.999
EPS_OPT = 1e-8


@dataclass
class AdamWState:
    """The moments, flat in the layout of NetworkParams.flat."""

    flat_m: np.ndarray
    flat_v: np.ndarray
    t: int = 0


def adamw_init(params):
    return AdamWState(np.zeros_like(params.flat), np.zeros_like(params.flat))


def adamw_step(params, grads, state, lr, weight_decay):
    """One in-place update of all parameters, as one flat vector.

    `grads` are the LayerArrays that `backward_trace` returns; their flat
    vector is the gradient in the layout of NetworkParams.flat.
    """
    state.t += 1
    bias1 = 1.0 - BETA1**state.t
    bias2 = 1.0 - BETA2**state.t
    a, m, v, g = params.flat, state.flat_m, state.flat_v, grads.flat
    m *= BETA1
    m += (1.0 - BETA1) * g
    v *= BETA2
    v += (1.0 - BETA2) * g * g
    mhat = m / bias1
    vhat = v / bias2
    a -= lr * mhat / (np.sqrt(vhat) + EPS_OPT)
    a -= lr * weight_decay * a
    return params
