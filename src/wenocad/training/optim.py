"""Adam with decoupled weight decay, specialized to the parameter list.

Loshchilov and Hutter, "Decoupled Weight Decay Regularization" (ICLR
2019): the decay term is applied directly to the parameters alongside the
moment-based update instead of being folded into the gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

BETA1 = 0.9
BETA2 = 0.999
EPS_OPT = 1e-8


@dataclass
class AdamWState:
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)
    t: int = 0


def adamw_init(params):
    state = AdamWState()
    for a in params.arrays():
        state.m.append(np.zeros_like(a))
        state.v.append(np.zeros_like(a))
    return state


def adamw_step(params, grads, state, lr, weight_decay):
    """One in-place update of every parameter array."""
    state.t += 1
    bias1 = 1.0 - BETA1**state.t
    bias2 = 1.0 - BETA2**state.t
    for a, g, m, v in zip(params.arrays(), grads, state.m, state.v):
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        mhat = m / bias1
        vhat = v / bias2
        a -= lr * mhat / (np.sqrt(vhat) + EPS_OPT)
        a -= lr * weight_decay * a
    return params
