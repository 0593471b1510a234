"""Interface-flux reconstruction sweeps and the strategy objects."""

import warnings

import numpy as np
import pytest

from wenocad import cli, reconstruction as rec
from wenocad.errors import DimensionError
from wenocad.solvers import boundary as bdy
from wenocad.solvers import driver


def upwind3(f0, f1, f2):
    return (-f0 + 5.0 * f1 + 2.0 * f2) / 6.0


def upwind5(f0, f1, f2, f3, f4):
    return (2.0 * f0 - 13.0 * f1 + 47.0 * f2 + 27.0 * f3 - 3.0 * f4) / 60.0


def derivative_row(u, strategy, dx):
    """d u / dx on the interior of a padded row, for the flux f(u) = u."""
    fp, fm = rec.lax_friedrichs_split(u, u, 1.0)
    h = rec.interface_fluxes(fp, fm, strategy)
    return (h[1:] - h[:-1]) / dx


class TestCandidates:
    def test_linear_blend_recovers_third_order_flux(self):
        rng = np.random.default_rng(0)
        s = rng.uniform(-2, 2, (50, 3))
        h0, h1 = rec.candidate_fluxes3(s)
        blended = h0 / 3.0 + 2.0 * h1 / 3.0
        np.testing.assert_allclose(
            blended, upwind3(s[:, 0], s[:, 1], s[:, 2]), rtol=1e-13)

    def test_linear_blend_recovers_fifth_order_flux(self):
        rng = np.random.default_rng(1)
        s = rng.uniform(-2, 2, (50, 5))
        q0, q1, q2 = rec.candidate_fluxes5(s)
        blended = 0.1 * q0 + 0.6 * q1 + 0.3 * q2
        np.testing.assert_allclose(
            blended, upwind5(*(s[:, k] for k in range(5))), rtol=1e-12)

    def test_candidates_exact_on_linear_data(self):
        """Both substencil extrapolants hit the interface value of any
        affine profile, evaluated half a spacing past the center point."""
        s = np.array([1.0, 3.0, 5.0])   # f(x) = 1 + 2k
        h0, h1 = rec.candidate_fluxes3(s)
        assert h0 == pytest.approx(4.0)
        assert h1 == pytest.approx(4.0)


class TestSplit:
    def test_lax_friedrichs_parts(self):
        u = np.array([1.0, -2.0, 0.5])
        f = u ** 2 / 2.0
        fp, fm = rec.lax_friedrichs_split(f, u, alpha=2.0)
        np.testing.assert_allclose(fp + fm, f, rtol=1e-15)
        np.testing.assert_allclose(fp - fm, 2.0 * u, rtol=1e-15)
        # monotone parts: d(fp)/du >= 0 and d(fm)/du <= 0 for alpha >= |f'|
        assert np.all(np.diff(fp[np.argsort(u)]) >= 0.0)


class TestSweep:
    def test_interface_count_and_values_linear3(self):
        g = rec.ghost_width(rec.Linear3())
        n = 10
        rng = np.random.default_rng(2)
        fp = rng.uniform(-1, 1, n + 2 * g)
        fm = np.zeros_like(fp)
        h = rec.interface_fluxes(fp, fm, rec.Linear3())
        assert h.shape == (n + 1,)
        for i in range(n + 1):
            # stencil for interface i+1/2 ends one cell right of it
            w = fp[i : i + 3]
            assert h[i] == pytest.approx(upwind3(*w), rel=1e-12)

    def test_minus_part_uses_reversed_windows(self):
        g = rec.ghost_width(rec.Linear3())
        n = 6
        rng = np.random.default_rng(3)
        fm = rng.uniform(-1, 1, n + 2 * g)
        fp = np.zeros_like(fm)
        h = rec.interface_fluxes(fp, fm, rec.Linear3())
        for i in range(n + 1):
            w = fm[i + 1 : i + 4][::-1]   # (f-_{i+2}, f-_{i+1}, f-_i)
            assert h[i] == pytest.approx(upwind3(*w), rel=1e-12)

    def test_linear5_sweep(self):
        g = rec.ghost_width(rec.Linear5())
        n = 8
        rng = np.random.default_rng(4)
        fp = rng.uniform(-1, 1, n + 2 * g)
        h = rec.interface_fluxes(fp, np.zeros_like(fp), rec.Linear5())
        assert h.shape == (n + 1,)
        for i in range(n + 1):
            assert h[i] == pytest.approx(upwind5(*fp[i : i + 5]), rel=1e-11)

    def test_weighted_sweep_matches_scalar_weights(self):
        g = rec.ghost_width(rec.Linear3())
        n = 5
        rng = np.random.default_rng(5)
        fp = rng.uniform(-1, 1, n + 2 * g)
        fm = rng.uniform(-1, 1, n + 2 * g)
        strategy = rec.Weno3Z()
        h = rec.interface_fluxes(fp, fm, strategy)
        from wenocad import weights as wt
        for i in range(n + 1):
            sp = fp[i : i + 3]
            sm = fm[i + 1 : i + 4][::-1]
            wp = wt.z_weights_array(sp)
            wm = wt.z_weights_array(sm)
            hp = wp[0] * (-0.5 * sp[0] + 1.5 * sp[1]) + wp[1] * (
                0.5 * sp[1] + 0.5 * sp[2])
            hm = wm[0] * (-0.5 * sm[0] + 1.5 * sm[1]) + wm[1] * (
                0.5 * sm[1] + 0.5 * sm[2])
            assert h[i] == pytest.approx(hp + hm, rel=1e-12)

    def test_vector_components_swept_independently(self):
        g = rec.ghost_width(rec.Linear3())
        n = 6
        rng = np.random.default_rng(6)
        fp = rng.uniform(-1, 1, (n + 2 * g, 3))
        fm = rng.uniform(-1, 1, (n + 2 * g, 3))
        strategy = rec.Weno3Z()
        h = rec.interface_fluxes(fp, fm, strategy)
        assert h.shape == (n + 1, 3)
        for c in range(3):
            np.testing.assert_allclose(
                h[:, c],
                rec.interface_fluxes(fp[:, c], fm[:, c], strategy),
                rtol=1e-14)

    @pytest.mark.parametrize("name", cli.scheme_names())
    def test_overflowing_row_is_silent(self, name):
        """A row whose differences and candidates overflow warns nowhere in
        the sweep: the values that stay non-finite are the stage check's
        to report."""
        fp = np.zeros((20, 3))
        fp[8] = 1.7e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec.interface_fluxes(fp, np.zeros_like(fp), cli.load_strategy(name))

    def test_short_row_raises(self):
        with pytest.raises(DimensionError):
            rec.interface_fluxes(np.zeros(3), np.zeros(3), rec.Linear3())

    def test_flux_difference_shape(self):
        """One value per physical cell, also when the grid carries more
        ghost layers than the stencil needs."""
        n, ng = 12, 3
        u = np.zeros((n + 2 * ng, 1))
        u[ng:-ng, 0] = np.linspace(0, 1, n)
        g = driver.Grid1D(u, 0.1, ng, 0.0, kind="scalar")
        bc = bdy.Boundary1D("periodic", "periodic")
        assert driver.compute_rhs(g, bc, rec.Linear3()).shape == (n, 1)


class TestDerivativeRow:
    def test_third_order_convergence_on_sine(self):
        errors = []
        for n in (64, 128):
            g = rec.ghost_width(rec.Linear3())
            dx = 2.0 * np.pi / n
            x = dx * (np.arange(-g, n + g) + 0.5)
            u = np.sin(x)
            d = derivative_row(u, rec.Linear3(), dx)
            errors.append(np.max(np.abs(d - np.cos(x[g:-g]))))
        order = np.log2(errors[0] / errors[1])
        assert order > 2.9

    def test_fifth_order_convergence_on_sine(self):
        errors = []
        for n in (32, 64):
            g = rec.ghost_width(rec.Linear5())
            dx = 2.0 * np.pi / n
            x = dx * (np.arange(-g, n + g) + 0.5)
            u = np.sin(x)
            d = derivative_row(u, rec.Linear5(), dx)
            errors.append(np.max(np.abs(d - np.cos(x[g:-g]))))
        order = np.log2(errors[0] / errors[1])
        assert order > 4.8


class TestStrategies:
    def test_names_and_widths(self):
        assert rec.Weno3JS().stencil_width == 3
        assert rec.Weno5M().stencil_width == 5
        assert rec.ghost_width(rec.Weno3Z()) == 2
        assert rec.ghost_width(rec.Linear5()) == 3
        assert rec.Weno3Z().name == "weno3-z"
        assert rec.Weno5JS().name == "weno5-js"

    def test_neural_strategy_near_linear_on_smooth(self, cadnn1_params):
        strategy = rec.NeuralWeighting3(cadnn1_params, label="weno3-cadnn1")
        assert strategy.name == "weno3-cadnn1"
        x = 0.01 * np.arange(3)
        s = np.sin(1.0 + x)[None, :]
        w = strategy.weights(s)[0]
        assert abs(w[0] - 1.0 / 3.0) < 0.05
        assert abs(w[1] - 2.0 / 3.0) < 0.05

    def test_neural_strategy_suppresses_jump_substencil(self, cadnn1_params):
        strategy = rec.NeuralWeighting3(cadnn1_params, label="weno3-cadnn1")
        w = strategy.weights(np.array([[4.0, 0.0, 0.0]]))[0]
        assert w[0] < 0.05
