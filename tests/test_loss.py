"""Training objective: oracle recomputation, decomposition, gradients."""

import numpy as np
import pytest

from wenocad import network
from wenocad.training import loss
from wenocad.training.dataset import DX


def oracle_breakdown(params, stencils, labels, hyper_c, hyper_d):
    """Straight-line scalar recomputation of every loss term."""
    n = len(labels)

    def w_of(s3):
        return network.forward_array(params, np.asarray(s3, dtype=float))

    def blend(w, s3):
        h0 = -0.5 * s3[0] + 1.5 * s3[1]
        h1 = 0.5 * s3[1] + 0.5 * s3[2]
        return w[0] * h0 + w[1] * h1

    l_cad = 0.0
    for s4, label in zip(stencils, labels):
        hl = blend(w_of(s4[0:3]), s4[0:3])
        hr = blend(w_of(s4[1:4]), s4[1:4])
        l_cad += ((hr - hl) / DX - label) ** 2
    l_cad /= n

    # both substencils of every sample, compared against the reversal map
    l_sym = 0.0
    l_ln = 0.0
    for s4 in stencils:
        for s3 in (s4[0:3], s4[1:4]):
            w = w_of(s3)
            w_rev = w_of(s3[::-1])
            q = 4.0 * w[0] + w[1]
            target = np.array([w[1] / q, 4.0 * w[0] / q])
            l_sym += np.sum((np.log(w_rev) - np.log(target)) ** 2)

            d1 = max(abs(s3[0] - s3[1]), 1e-10)
            d2 = max(abs(s3[1] - s3[2]), 1e-10)
            lam = np.exp(-6.0 * max(d1 / d2, d2 / d1))
            l_ln += lam * (np.log(2.0 * w[0]) - np.log(w[1])) ** 2
    l_sym /= n
    l_ln /= n

    return l_cad, l_sym, l_ln, l_cad + hyper_c * l_sym + hyper_d * l_ln


class TestOracle:
    @pytest.mark.parametrize("hyper", [(0.0, 0.0), (5750.0, 0.0),
                                       (7000.0, 800.0)])
    def test_breakdown_matches_oracle(self, small_dataset, random_params,
                                      hyper):
        idx = slice(0, 40)
        stencils = small_dataset.stencils[idx]
        labels = small_dataset.labels[idx]
        batch = loss.Batch(stencils, labels)
        got = loss.total_loss(random_params, batch, *hyper)
        cad, sym, ln, total = oracle_breakdown(random_params, stencils,
                                               labels, *hyper)
        assert got.l_cad == pytest.approx(cad, rel=1e-10)
        assert got.l_sym == pytest.approx(sym, rel=1e-10)
        assert got.l_ln == pytest.approx(ln, rel=1e-10)
        assert got.total == pytest.approx(total, rel=1e-10)

    def test_trained_network_agrees_too(self, small_dataset, cadnn1_params):
        stencils = small_dataset.stencils[:20]
        labels = small_dataset.labels[:20]
        got = loss.total_loss(cadnn1_params, loss.Batch(stencils, labels),
                              5750.0, 0.0)
        cad, sym, ln, total = oracle_breakdown(cadnn1_params, stencils,
                                               labels, 5750.0, 0.0)
        assert got.total == pytest.approx(total, rel=1e-9)


class TestStructure:
    def test_terms_nonnegative(self, small_dataset, random_params):
        batch = loss.Batch(small_dataset.stencils, small_dataset.labels)
        got = loss.total_loss(random_params, batch, 100.0, 10.0)
        assert got.l_cad >= 0.0
        assert got.l_sym >= 0.0
        assert got.l_ln >= 0.0

    def test_decomposition(self, small_dataset, random_params):
        batch = loss.Batch(small_dataset.stencils[:50],
                           small_dataset.labels[:50])
        got = loss.total_loss(random_params, batch, 123.0, 45.0)
        assert got.total == pytest.approx(
            got.l_cad + 123.0 * got.l_sym + 45.0 * got.l_ln, rel=1e-12)


class TestGradient:
    def test_gradient_matches_finite_differences(self, small_dataset,
                                                 random_params):
        batch = loss.Batch(small_dataset.stencils[:60],
                           small_dataset.labels[:60])
        hyper_c, hyper_d = 300.0, 40.0
        _, grads = loss.total_loss_and_gradient(random_params, batch,
                                                hyper_c, hyper_d)
        rng = np.random.default_rng(2)
        checked = 0
        for ai, arr in enumerate(random_params.arrays()):
            for _ in range(2):
                idx = tuple(rng.integers(0, d) for d in arr.shape)
                h = 1e-6
                plus = random_params.copy()
                plus.arrays()[ai][idx] += h
                minus = random_params.copy()
                minus.arrays()[ai][idx] -= h
                f_p = loss.total_loss(plus, batch, hyper_c, hyper_d).total
                f_m = loss.total_loss(minus, batch, hyper_c, hyper_d).total
                fd = (f_p - f_m) / (2 * h)
                scale = max(abs(fd), abs(grads[ai][idx]), 1e-8)
                assert abs(grads[ai][idx] - fd) / scale < 1e-4
                checked += 1
        assert checked == 12

    def test_gradient_and_loss_consistent(self, small_dataset, random_params):
        batch = loss.Batch(small_dataset.stencils[:25],
                           small_dataset.labels[:25])
        bd1 = loss.total_loss(random_params, batch, 5750.0, 0.0)
        bd2, _ = loss.total_loss_and_gradient(random_params, batch,
                                              5750.0, 0.0)
        assert bd1.total == pytest.approx(bd2.total, rel=1e-14)
