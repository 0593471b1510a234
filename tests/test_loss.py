"""Training objective: oracle recomputation, decomposition, gradients."""

import dataclasses

import numpy as np
import pytest

from wenocad import network
from wenocad import weights as wt
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


def straight_terms(w, wf, h0, h1, lam, labels, hyper_c, hyper_d):
    """`loss._terms` with one new array per operation: the reference for
    the bits of its in-place form.  Returns the four loss figures, the
    residuals, the reversal targets, the symmetry log-differences and the
    linear-weight log-ratios."""
    n = labels.shape[0]
    h = w[:, 0] * h0 + w[:, 1] * h1
    resid = (h[n:] - h[:n]) / DX - labels
    l_cad = float(np.mean(resid**2))
    denom = np.maximum(4.0 * w[:, 0] + w[:, 1], wt.EPS_DELTA_MOD)
    target = np.stack((w[:, 1] / denom, 4.0 * w[:, 0] / denom), axis=-1)
    g = np.log(wf) - np.log(target)
    l_sym = float(np.sum(g * g) / n)
    tln = np.log(2.0 * w[:, 0]) - np.log(w[:, 1])
    l_ln = float(np.sum(lam * tln * tln) / n)
    total = l_cad + hyper_c * l_sym + hyper_d * l_ln
    return (l_cad, l_sym, l_ln, total), resid, target, g, tln


class TestStructure:
    @pytest.mark.parametrize("params", ["random_params", "cadnn2_params"])
    def test_terms_have_the_bits_of_the_straight_form(self, small_dataset,
                                                      request, params):
        params = request.getfixturevalue(params)
        prepared = loss.prepare(loss.Batch(small_dataset.stencils,
                                           small_dataset.labels))
        omega = network.forward_features(params, prepared.features)
        m = prepared.h0.shape[0]
        args = (omega[:m], omega[m:], *prepared[1:], 7000.0, 800.0)
        figures, resid, target, g, tln = straight_terms(*args)
        breakdown, *got = loss._terms(*args)
        assert dataclasses.astuple(breakdown) == figures
        for a, b in zip(got, (resid, g, tln), strict=True):
            assert a.tobytes() == b.tobytes()
        # the gradient forms the reversal targets again
        assert wt.flip_weights_array(omega[:m]).tobytes() == target.tobytes()

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

    @pytest.mark.parametrize("evaluate", [loss.total_loss,
                                          loss.total_loss_and_gradient])
    def test_overflowing_total_raises(self, small_dataset, random_params,
                                      evaluate):
        # every term is finite; only C l_sym + D l_ln overflows
        batch = loss.Batch(small_dataset.stencils, small_dataset.labels)
        with pytest.raises(FloatingPointError, match="total is non-finite"):
            evaluate(random_params, batch, 1e308, 1e308)


class TestGradientNonFinite:
    """`total_loss_and_gradient` names the first term, in the order l_cad,
    l_sym (both branches), l_ln, whose gradient is non-finite while every
    loss term is finite.

    Each case sets the network's weights: w on every substencil and, by
    default, the reversal map of w on every reversed one, where the
    symmetry term and its gradient vanish.
    """

    LINEAR = (np.array([[0.0, 1.0, 2.0, 3.0]]), np.array([1.0]))

    @pytest.fixture
    def weights(self, monkeypatch):
        def set_weights(w, wf=None):
            w = np.array([w])
            wf = wt.flip_weights_array(w) if wf is None else np.array([wf])
            forward = network.forward_trace

            def fixed(params, x):
                tr = forward(params, x)
                m = len(x) // 2
                omega = np.concatenate((np.repeat(w, m, axis=0),
                                        np.repeat(wf, m, axis=0)))
                return dataclasses.replace(tr, omega=omega)

            monkeypatch.setattr(network, "forward_trace", fixed)
        return set_weights

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("case, w, wf, term", [
        # constant data at 1e160 and a label of 1e150: l_cad is 1e300,
        # its gradient 1e150 / DX * 1e160
        ("l_cad", [1 / 3, 2 / 3], None, "l_cad"),
        # a denormal reversal target: l_sym is finite, its derivative
        # through the reversal map is not, nor is l_ln's
        ("target", [1e-310, 1.0], [0.5, 0.5], "l_sym"),
        # a denormal reversed weight: only the reversed branch overflows
        ("reversed", [1 / 3, 2 / 3], [1e-310, 1.0], "l_sym"),
        # a denormal w0 with the symmetry term at zero
        ("l_ln", [1e-310, 1.0], None, "l_ln"),
    ])
    def test_first_non_finite_term_is_named(self, random_params, weights,
                                            case, w, wf, term):
        weights(w, wf)
        batch = self.LINEAR
        if case == "l_cad":
            batch = (np.full((1, 4), 1e160), np.array([1e150]))
        with pytest.raises(FloatingPointError,
                           match=f"^gradient of {term} is non-finite$"):
            loss.total_loss_and_gradient(random_params, loss.Batch(*batch),
                                         7000.0, 800.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_weighted_sum_carries_on(self, random_params, weights):
        # every term and its gradient is finite, D l_ln too, but D times
        # l_ln's gradient overflows: the batch returns its loss and the
        # non-finite gradients
        weights([1e-200, 1.0])
        breakdown, grads = loss.total_loss_and_gradient(
            random_params, loss.Batch(*self.LINEAR), 7000.0, 1e150)
        assert np.isfinite(breakdown.total) and breakdown.l_sym == 0.0
        assert not np.all(np.isfinite(grads.flat))


class TestChunks:
    @pytest.fixture
    def chunk_rows(self, monkeypatch):
        """The row count of every network call the loss makes."""
        rows = []
        forward = network.forward_features

        def counted(params, x):
            rows.append(len(x))
            return forward(params, x)

        monkeypatch.setattr(network, "forward_features", counted)
        return rows

    @pytest.mark.parametrize("n", [2, loss.CHUNK_ROWS, loss.CHUNK_ROWS + 1,
                                   2 * loss.CHUNK_ROWS, 2 * loss.CHUNK_ROWS + 1,
                                   4 * loss.CHUNK_ROWS + 1])
    def test_chunks_keep_the_bits_of_one_pass(self, cadnn2_params, chunk_rows, n):
        rng = np.random.default_rng(n)
        s = rng.uniform(-1, 1, (n, 3))
        s[::7] = 0.25  # constant stencils, which the network compresses
        x = wt.modified_delta_array(s)
        whole = network.forward_features(cadnn2_params, x)
        del chunk_rows[:]
        got = loss._forward_chunks(cadnn2_params, x)
        assert got.tobytes() == whole.tobytes()
        assert sum(chunk_rows) == n
        assert set(chunk_rows[:-1]) <= {loss.CHUNK_ROWS}
        assert chunk_rows[-1] <= loss.CHUNK_ROWS

    # 400 samples make 1600 feature rows: four chunks at 533 rows and two
    # at 1599, the last chunk of each a single row, and one at 1600
    @pytest.mark.parametrize("chunk", [533, 1599, 1600])
    def test_total_loss_is_that_of_one_pass(self, small_dataset, cadnn2_params,
                                            chunk_rows, monkeypatch, chunk):
        prepared = loss.prepare(loss.Batch(small_dataset.stencils,
                                           small_dataset.labels))
        whole = network.forward_features(cadnn2_params, prepared.features)
        m = prepared.h0.shape[0]
        want = loss._terms(whole[:m], whole[m:], *prepared[1:], 7000.0, 800.0)[0]
        del chunk_rows[:]
        monkeypatch.setattr(loss, "CHUNK_ROWS", chunk)
        assert loss.total_loss(cadnn2_params, prepared, 7000.0, 800.0) == want
        assert sum(chunk_rows) == 1600


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
