"""Adam with decoupled weight decay, specialized to the parameter list.

Loshchilov and Hutter, "Decoupled Weight Decay Regularization" (ICLR
2019): the decay term is applied directly to the parameters alongside the
moment-based update instead of being folded into the gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..network import LayerArrays

BETA1 = 0.9
BETA2 = 0.999
EPS_OPT = 1e-8


@dataclass
class AdamWState:
    """The moments, flat in the layout of NetworkParams.flat; m and v list
    them per layer array, as views."""

    flat_m: np.ndarray
    flat_v: np.ndarray
    t: int = 0
    m: list = field(init=False, repr=False)
    v: list = field(init=False, repr=False)

    def __post_init__(self):
        self.m = LayerArrays(self.flat_m)
        self.v = LayerArrays(self.flat_v)


def adamw_init(params):
    return AdamWState(np.zeros_like(params.flat), np.zeros_like(params.flat))


def adamw_step(params, grads, state, lr, weight_decay):
    """One in-place update of all parameters, as one flat vector.

    `grads` lists one gradient per layer array; when they are LayerArrays,
    as `backward_trace` returns them, their flat vector is used as it is.
    """
    state.t += 1
    bias1 = 1.0 - BETA1**state.t
    bias2 = 1.0 - BETA2**state.t
    a, m, v = params.flat, state.flat_m, state.flat_v
    if isinstance(grads, LayerArrays):
        g = grads.flat
    else:
        g = np.concatenate([np.ravel(x) for x in grads])
    m *= BETA1
    m += (1.0 - BETA1) * g
    v *= BETA2
    v += (1.0 - BETA2) * g * g
    mhat = m / bias1
    vhat = v / bias2
    a -= lr * mhat / (np.sqrt(vhat) + EPS_OPT)
    a -= lr * weight_decay * a
    return params
