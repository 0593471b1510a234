"""Adam with decoupled weight decay: hand-computed step oracles."""

import numpy as np

from wenocad import network
from wenocad.training import optim


def make_params(value=1.0):
    p = network.init_params(seed=0)
    for a in p.arrays():
        a[...] = value
    return p


class TestDefaults:
    def test_moment_constants(self):
        assert optim.BETA1 == 0.9
        assert optim.BETA2 == 0.999
        assert optim.EPS_OPT == 1e-8


class TestDecoupledDecay:
    def test_zero_gradient_pure_decay(self):
        """With zero gradients the update reduces to multiplication by
        (1 - lr wd): the decay acts on the parameter, not the gradient."""
        p = make_params(2.0)
        state = optim.adamw_init(p)
        grads = network.LayerArrays(np.zeros_like(p.flat))
        lr, wd = 1e-2, 0.1
        for _ in range(3):
            optim.adamw_step(p, grads, state, lr, wd)
        expected = 2.0 * (1.0 - lr * wd) ** 3
        for a in p.arrays():
            np.testing.assert_allclose(a, expected, rtol=1e-13)

    def test_first_step_is_signed_lr_without_decay(self):
        """After bias correction the first Adam step is lr * g / (|g| +
        eps) regardless of the gradient's magnitude."""
        p = make_params(0.0)
        state = optim.adamw_init(p)
        grads = network.LayerArrays(np.full_like(p.flat, 7.5))
        lr = 1e-3
        optim.adamw_step(p, grads, state, lr, 0.0)
        step = lr * 7.5 / (7.5 + optim.EPS_OPT)
        for a in p.arrays():
            np.testing.assert_allclose(a, -step, rtol=1e-12)

    def test_two_steps_scalar_oracle(self):
        p = make_params(1.0)
        state = optim.adamw_init(p)
        lr, wd = 1e-2, 0.01
        g1, g2 = 0.3, -0.2

        theta, m, v = 1.0, 0.0, 0.0
        for t, g in ((1, g1), (2, g2)):
            m = optim.BETA1 * m + (1 - optim.BETA1) * g
            v = optim.BETA2 * v + (1 - optim.BETA2) * g * g
            mhat = m / (1 - optim.BETA1 ** t)
            vhat = v / (1 - optim.BETA2 ** t)
            theta -= lr * mhat / (np.sqrt(vhat) + optim.EPS_OPT)
            theta -= lr * wd * theta

        for g in (g1, g2):
            grads = network.LayerArrays(np.full_like(p.flat, g))
            optim.adamw_step(p, grads, state, lr, wd)
        for a in p.arrays():
            np.testing.assert_allclose(a, theta, rtol=1e-13)

    def test_state_tracks_time(self):
        p = make_params()
        state = optim.adamw_init(p)
        grads = network.LayerArrays(np.zeros_like(p.flat))
        optim.adamw_step(p, grads, state, 1e-3, 0.0)
        optim.adamw_step(p, grads, state, 1e-3, 0.0)
        assert state.t == 2
        assert state.flat_m.shape == state.flat_v.shape == p.flat.shape
