"""Grids, boundary fills, Euler state algebra, and the time marcher."""

import math
import multiprocessing
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wenocad import cli, workers
from wenocad import reconstruction as rec
from wenocad.benchmarks import problems
from wenocad.errors import BoundaryError, DimensionError, PositivityError
from wenocad.solvers import boundary as bdy
from wenocad.solvers import driver, euler


def scalar_grid(values, ng=2, xmin=-1.0, dx=0.25):
    values = np.asarray(values, dtype=float)
    u = np.zeros((values.size + 2 * ng, 1))
    u[ng:-ng, 0] = values
    return driver.Grid1D(u, dx, ng, xmin, kind="scalar")


def euler_grid_1d(prim_rows, ng=2, xmin=0.0, dx=0.1, gamma=1.4):
    rows = np.asarray(prim_rows, dtype=float)
    q = euler.prim_to_cons_1d(rows[:, 0], rows[:, 1], rows[:, 2], gamma)
    u = np.zeros((rows.shape[0] + 2 * ng, 3))
    u[ng:-ng] = q
    return driver.Grid1D(u, dx, ng, xmin, gamma=gamma)


class TestGrids:
    def test_cell_centers(self):
        x = driver.cell_centers(0.0, 1.0, 4)
        assert x.tolist() == [0.125, 0.375, 0.625, 0.875]

    def test_cell_centers_spacing(self):
        x = driver.cell_centers(-5.0, 5.0, 200)
        np.testing.assert_allclose(np.diff(x), 0.05, rtol=1e-13)
        assert x[0] == pytest.approx(-5.0 + 0.025)

    def test_grid1d_views(self):
        g = scalar_grid(np.arange(6.0))
        assert g.n == 6
        assert g.interior.shape == (6, 1)
        assert g.x_centers.shape == (6,)
        assert g.x_padded.shape == (10,)
        np.testing.assert_allclose(g.x_padded[2:-2], g.x_centers)
        assert g.x_centers[0] == pytest.approx(g.xmin + 0.5 * g.dx)

    def test_grid1d_interior_is_view(self):
        g = scalar_grid(np.arange(6.0))
        g.interior[0, 0] = 42.0
        assert g.u[g.ng, 0] == 42.0

    @pytest.mark.parametrize("m, system", [(1, driver.ADVECTION),
                                           (3, driver.EULER1D)])
    def test_grid1d_system_follows_components(self, m, system):
        g = driver.Grid1D(np.ones((12, m)), 0.1, 2, 0.0)
        assert g.system is system
        assert len(system.columns) == m

    @pytest.mark.parametrize("m", [2, 4])
    def test_grid1d_other_component_counts_raise(self, m):
        with pytest.raises(DimensionError, match=f"3 components, not {m}"):
            driver.Grid1D(np.ones((12, m)), 0.1, 2, 0.0)

    def test_grid2d_needs_four_components(self):
        assert driver.Grid2D(np.ones((8, 8, 4)), 0.1, 0.1, 2, 0.0,
                             0.0).system is driver.EULER2D
        with pytest.raises(DimensionError, match="4 components, not 3"):
            driver.Grid2D(np.ones((8, 8, 3)), 0.1, 0.1, 2, 0.0, 0.0)

    def test_kind_is_checked_against_the_state(self):
        assert driver.Grid1D(np.ones((12, 1)), 0.1, 2, 0.0,
                             "scalar").system is driver.ADVECTION
        assert driver.Grid1D(np.ones((12, 3)), 0.1, 2, 0.0,
                             kind="euler1d").system is driver.EULER1D
        for m, kind in ((3, "scalar"), (1, "euler1d"), (1, "burgers")):
            with pytest.raises(DimensionError, match=repr(kind)):
                driver.Grid1D(np.ones((12, m)), 0.1, 2, 0.0, kind=kind)

    @pytest.mark.parametrize("system", [driver.EULER1D, driver.EULER2D])
    def test_density_and_pressure_are_first_and_last_primitive(self, system):
        rng = np.random.default_rng(4)
        rho = rng.uniform(0.5, 2.0, (5, 6))
        vel = rng.uniform(-1.0, 1.0, (len(system.columns) - 2, 5, 6))
        p = rng.uniform(0.5, 2.0, (5, 6))
        to_cons = (euler.prim_to_cons_1d if system is driver.EULER1D
                   else euler.prim_to_cons_2d)
        q = to_cons(rho, *vel, p)
        prims = system.primitives(q, 1.4)
        assert len(prims) == len(system.columns)
        got_rho, got_p = system.rho_p(q, 1.4)
        np.testing.assert_array_equal(got_rho, prims[0])
        np.testing.assert_array_equal(got_p, prims[-1])
        np.testing.assert_allclose(got_rho, rho, rtol=1e-14)
        np.testing.assert_allclose(got_p, p, rtol=1e-12)

    def test_grid2d_views(self):
        u = np.zeros((8 + 4, 5 + 4, 4))
        g = driver.Grid2D(u, 0.125, 0.2, 2, 0.0, 0.0)
        assert (g.nx, g.ny) == (8, 5)
        assert g.interior.shape == (8, 5, 4)
        assert g.x_centers[0] == pytest.approx(0.0625)
        assert g.y_centers[-1] == pytest.approx(0.9)
        assert g.x_padded.shape == (12,)
        assert g.y_padded.shape == (9,)


class TestBoundary1D:
    def test_periodic_wraps_both_sides(self):
        g = scalar_grid(np.arange(6.0))
        bdy.fill_ghosts_1d(g, bdy.Boundary1D("periodic", "periodic"))
        assert g.u[:2, 0].tolist() == [4.0, 5.0]
        assert g.u[-2:, 0].tolist() == [0.0, 1.0]

    def test_periodic_must_pair(self):
        g = scalar_grid(np.arange(6.0))
        with pytest.raises(BoundaryError, match="pairs"):
            bdy.fill_ghosts_1d(g, bdy.Boundary1D("periodic", "transmissive"))

    def test_transmissive_copies_edge(self):
        g = scalar_grid([3.0, 1.0, 4.0, 1.0, 5.0, 9.0])
        bdy.fill_ghosts_1d(g, bdy.Boundary1D())
        assert g.u[:2, 0].tolist() == [3.0, 3.0]
        assert g.u[-2:, 0].tolist() == [9.0, 9.0]

    def test_reflective_mirrors_and_flips_momentum(self):
        prim = [(1.0, 0.3, 1.0), (2.0, -0.7, 2.0), (3.0, 0.2, 3.0),
                (4.0, 0.9, 1.5), (5.0, -0.1, 2.5), (6.0, 0.4, 0.5)]
        g = euler_grid_1d(prim)
        bdy.fill_ghosts_1d(g, bdy.Boundary1D("reflective", "reflective"))
        flip = np.array([1.0, -1.0, 1.0])
        np.testing.assert_array_equal(g.u[1], g.u[2] * flip)
        np.testing.assert_array_equal(g.u[0], g.u[3] * flip)
        np.testing.assert_array_equal(g.u[-2], g.u[-3] * flip)
        np.testing.assert_array_equal(g.u[-1], g.u[-4] * flip)

    def test_scalar_reflective_has_no_momentum_component(self):
        g = scalar_grid([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        bdy.fill_ghosts_1d(g, bdy.Boundary1D("reflective", "reflective"))
        assert g.u[:2, 0].tolist() == [2.0, 1.0]
        assert g.u[-2:, 0].tolist() == [6.0, 5.0]

    def test_dirichlet_pins_state(self):
        g = euler_grid_1d([(1.0, 0.0, 1.0)] * 6)
        left = euler.prim_to_cons_1d(8.0, 1.25, 116.5)
        bc = bdy.Boundary1D(("dirichlet", left), "transmissive")
        bdy.fill_ghosts_1d(g, bc)
        np.testing.assert_array_equal(g.u[0], left)
        np.testing.assert_array_equal(g.u[1], left)

    def test_unknown_tag_raises(self):
        g = scalar_grid(np.arange(6.0))
        with pytest.raises(BoundaryError, match="unknown boundary tag"):
            bdy.fill_ghosts_1d(g, bdy.Boundary1D("bogus", "bogus"))
        with pytest.raises(BoundaryError, match="unknown boundary spec"):
            bdy.fill_ghosts_1d(g, bdy.Boundary1D(42, "transmissive"))


class TestBoundary2D:
    def make_grid(self, seed=0):
        rng = np.random.default_rng(seed)
        ng = 2
        u = np.zeros((6 + 2 * ng, 4 + 2 * ng, 4))
        rho = rng.uniform(0.5, 2.0, (6, 4))
        vx = rng.uniform(-1.0, 1.0, (6, 4))
        vy = rng.uniform(-1.0, 1.0, (6, 4))
        p = rng.uniform(0.5, 2.0, (6, 4))
        u[ng:-ng, ng:-ng] = euler.prim_to_cons_2d(rho, vx, vy, p)
        return driver.Grid2D(u, 1.0 / 6.0, 0.25, ng, 0.0, 0.0)

    def test_reflective_x_flips_x_momentum(self):
        g = self.make_grid()
        bc = bdy.Boundary2D("reflective", "reflective", "periodic", "periodic")
        bdy.fill_ghosts_2d(g, bc)
        flip = np.array([1.0, -1.0, 1.0, 1.0])
        np.testing.assert_array_equal(g.u[1, 2:-2], g.u[2, 2:-2] * flip)
        np.testing.assert_array_equal(g.u[-1, 2:-2], g.u[-4, 2:-2] * flip)

    def test_reflective_y_flips_y_momentum(self):
        g = self.make_grid(1)
        bc = bdy.Boundary2D("periodic", "periodic", "reflective", "reflective")
        bdy.fill_ghosts_2d(g, bc)
        flip = np.array([1.0, 1.0, -1.0, 1.0])
        np.testing.assert_array_equal(g.u[2:-2, 1], g.u[2:-2, 2] * flip)
        np.testing.assert_array_equal(g.u[2:-2, -2], g.u[2:-2, -3] * flip)

    def test_periodic_xy(self):
        g = self.make_grid(2)
        bc = bdy.Boundary2D("periodic", "periodic", "periodic", "periodic")
        bdy.fill_ghosts_2d(g, bc)
        np.testing.assert_array_equal(g.u[0, 2:-2], g.u[6, 2:-2])
        np.testing.assert_array_equal(g.u[2:-2, -1], g.u[2:-2, 3])


class TestEuler:
    def test_round_trip_1d(self):
        rng = np.random.default_rng(3)
        rho = rng.uniform(0.1, 5.0, 50)
        u = rng.uniform(-3.0, 3.0, 50)
        p = rng.uniform(0.1, 5.0, 50)
        q = euler.prim_to_cons_1d(rho, u, p)
        r2, u2, p2 = euler.cons_to_prim_1d(q)
        np.testing.assert_allclose(r2, rho, rtol=1e-14)
        np.testing.assert_allclose(u2, u, rtol=1e-13, atol=1e-14)
        np.testing.assert_allclose(p2, p, rtol=1e-12)

    def test_round_trip_2d(self):
        rng = np.random.default_rng(4)
        rho = rng.uniform(0.1, 5.0, (6, 7))
        u = rng.uniform(-3.0, 3.0, (6, 7))
        v = rng.uniform(-3.0, 3.0, (6, 7))
        p = rng.uniform(0.1, 5.0, (6, 7))
        q = euler.prim_to_cons_2d(rho, u, v, p)
        r2, u2, v2, p2 = euler.cons_to_prim_2d(q)
        np.testing.assert_allclose(r2, rho, rtol=1e-14)
        np.testing.assert_allclose(u2, u, rtol=1e-13, atol=1e-14)
        np.testing.assert_allclose(v2, v, rtol=1e-13, atol=1e-14)
        np.testing.assert_allclose(p2, p, rtol=1e-12)

    def test_energy_closure(self):
        q = euler.prim_to_cons_1d(2.0, 0.5, 3.0)
        assert q[0] == 2.0
        assert q[1] == 1.0
        assert q[2] == pytest.approx(3.0 / 0.4 + 0.25, rel=1e-15)

    def test_flux_1d_oracle(self):
        q = euler.prim_to_cons_1d(2.0, 0.5, 3.0)
        f = euler.euler_flux_1d(q, euler.cons_to_prim_1d(q))
        np.testing.assert_allclose(f, [1.0, 3.5, 0.5 * (7.75 + 3.0)],
                                   rtol=1e-14)

    def test_flux_2d_oracle(self):
        q = euler.prim_to_cons_2d(2.0, 0.5, -1.0, 3.0)
        e = 3.0 / 0.4 + 0.5 * 2.0 * (0.25 + 1.0)
        prims = euler.cons_to_prim_2d(q)
        fx = euler.euler_flux_2d_x(q, prims)
        fy = euler.euler_flux_2d_y(q, prims)
        np.testing.assert_allclose(fx, [1.0, 3.5, -1.0, 0.5 * (e + 3.0)],
                                   rtol=1e-14)
        np.testing.assert_allclose(fy, [-2.0, -1.0, 5.0, -1.0 * (e + 3.0)],
                                   rtol=1e-14)

    def test_wave_speed_1d(self):
        q = euler.prim_to_cons_1d(2.0, 0.5, 3.0)
        c = math.sqrt(1.4 * 3.0 / 2.0)
        assert euler.max_wave_speed_1d(q) == pytest.approx(0.5 + c, rel=1e-14)

    def test_wave_speed_2d_directional(self):
        q = euler.prim_to_cons_2d(2.0, 0.5, -1.0, 3.0)
        c = math.sqrt(1.4 * 3.0 / 2.0)
        ax, ay = euler.max_wave_speed_2d(q)
        assert ax == pytest.approx(0.5 + c, rel=1e-14)
        assert ay == pytest.approx(1.0 + c, rel=1e-14)

    def test_wave_speed_takes_global_max(self):
        q = euler.prim_to_cons_1d(np.array([1.0, 1.0]),
                                  np.array([0.0, 2.0]),
                                  np.array([1.0, 1.0]))
        c = math.sqrt(1.4)
        assert euler.max_wave_speed_1d(q) == pytest.approx(2.0 + c, rel=1e-14)

    def test_negative_pressure_raises(self):
        q = np.array([1.0, 0.0, -1.0])
        with pytest.raises(PositivityError) as exc:
            euler.cons_to_prim_1d(q)
        assert exc.value.where == (0,)

    def test_negative_density_raises_in_wave_speed(self):
        q = np.array([[1.0, 0.0, 2.5], [-1.0, 0.0, 2.5]])
        with pytest.raises(PositivityError) as exc:
            euler.max_wave_speed_1d(q)
        assert exc.value.where == (1,)

    def test_check_flag_skips_validation(self):
        q = np.array([1.0, 0.0, -1.0])
        rho, u, p = euler.cons_to_prim_1d(q, check=False)
        assert p < 0.0

    @given(a=arrays(np.float64, st.tuples(st.integers(1, 30), st.just(2)),
                    elements=st.one_of(
                        st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0,
                                         5e-324, -5e-324, 2.2e-308]),
                        st.floats())))
    @settings(max_examples=200, deadline=None)
    def test_physical_is_finite_and_above_zero(self, a):
        """The mask that triggers the positivity fallback."""
        rho, p = a[:, 0], a[:, 1]
        expect = (rho > 0) & (p > 0) & np.isfinite(rho) & np.isfinite(p)
        np.testing.assert_array_equal(euler.physical(rho, p), expect)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_all_physical_is_the_mask_all_true(self, data):
        """The admissibility test of every stage, decided without a mask:
        physical cells with at most a few values of any kind put in."""
        shape = data.draw(st.tuples(st.integers(0, 12), st.integers(1, 3)))
        fields = data.draw(st.lists(arrays(np.float64, shape, elements=st.floats(
            5e-324, 1.7e308)), min_size=1, max_size=3))
        for v in fields:
            for _ in range(data.draw(st.integers(0, 2)) if v.size else 0):
                i = data.draw(st.integers(0, v.size - 1))
                v.flat[i] = data.draw(st.one_of(
                    st.sampled_from([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324,
                                     -5e-324, 2.2e-308, -2.2e-308, -1.0]),
                    st.floats()))
        assert euler.all_physical(*fields) == euler.physical(*fields).all()

    def test_fallback_fires_on_the_same_stages_with_the_mask(self, monkeypatch):
        """A run that falls back at the periodic seam, with the stage test
        decided by the mask instead, gives the same counts and bits."""
        strategy = cli.load_strategy("weno3-linear")
        runs = []
        for decide in (euler.all_physical, lambda *f: euler.physical(*f).all()):
            monkeypatch.setattr(euler, "all_physical", decide)
            grid = jump_state_1d(strategy, shift=100)
            res = driver.advance(grid, PERIODIC_1D, strategy, 0.005)
            runs.append((res.fallback_stages, res.fallback_cells, grid.interior.tobytes()))
        assert runs[0][0] > 0
        assert runs[0] == runs[1]

    def test_sound_speed_clamps_pressure_undershoot(self):
        # a tiny negative pressure must not poison the speed estimate
        q = np.array([[1.0, 2.0, 2.0 - 1e-12]])
        alpha = euler.max_wave_speed_1d(q)
        assert np.isfinite(alpha)
        assert alpha == pytest.approx(2.0, rel=1e-12)


class TestRHS:
    def test_periodic_scalar_rhs_matches_derivative(self):
        n, ng = 128, 2
        x = driver.cell_centers(-1.0, 1.0, n)
        u = np.zeros((n + 2 * ng, 1))
        u[ng:-ng, 0] = np.sin(np.pi * x)
        g = driver.Grid1D(u, 2.0 / n, ng, -1.0, kind="scalar")
        bc = bdy.Boundary1D("periodic", "periodic")
        rhs = driver.compute_rhs(g, bc, rec.Linear3())
        exact = -np.pi * np.cos(np.pi * x)
        assert np.max(np.abs(rhs[:, 0] - exact)) < 2e-4

    def test_periodic_rhs_sums_to_zero(self):
        n, ng = 32, 3
        x = driver.cell_centers(-1.0, 1.0, n)
        rho = 1.0 + 0.2 * np.sin(np.pi * x)
        q = euler.prim_to_cons_1d(rho, np.ones(n), np.ones(n))
        u = np.zeros((n + 2 * ng, 3))
        u[ng:-ng] = q
        g = driver.Grid1D(u, 2.0 / n, ng, -1.0)
        bc = bdy.Boundary1D("periodic", "periodic")
        for strat in (rec.Weno3Z(), rec.Weno5JS()):
            rhs = driver.compute_rhs(g, bc, strat)
            np.testing.assert_allclose(rhs.sum(axis=0), 0.0, atol=1e-12)

        y = driver.cell_centers(-1.0, 1.0, 16)
        rho = 1.0 + 0.2 * np.sin(np.pi * x)[:, None] * np.cos(np.pi * y)
        q = euler.prim_to_cons_2d(rho, np.ones_like(rho), -np.ones_like(rho),
                                  np.ones_like(rho))
        u = np.zeros((n + 2 * ng, 16 + 2 * ng, 4))
        u[ng:-ng, ng:-ng] = q
        g = driver.Grid2D(u, 2.0 / n, 2.0 / 16, ng, -1.0, -1.0)
        bc = bdy.Boundary2D("periodic", "periodic", "periodic", "periodic")
        for strat in (rec.Weno3Z(), rec.Weno5JS()):
            rhs = driver.compute_rhs(g, bc, strat)
            np.testing.assert_allclose(rhs.sum(axis=(0, 1)), 0.0, atol=1e-11)

    def test_source_term_added(self):
        g = scalar_grid(np.full(8, 2.0))
        bc = bdy.Boundary1D("periodic", "periodic")
        rhs = driver.compute_rhs(g, bc, rec.Linear3(),
                                 source=lambda q, gamma: -q)
        np.testing.assert_allclose(rhs, -2.0, atol=1e-14)

    def test_too_few_ghosts_raises(self):
        u = np.zeros((8 + 2, 1))
        g = driver.Grid1D(u, 0.1, 1, 0.0, kind="scalar")
        bc = bdy.Boundary1D("periodic", "periodic")
        with pytest.raises(DimensionError, match="ghost"):
            driver.compute_rhs(g, bc, rec.Linear3())

    def test_weno5_needs_three_ghosts(self):
        g = scalar_grid(np.zeros(8), ng=2)
        bc = bdy.Boundary1D("periodic", "periodic")
        with pytest.raises(DimensionError, match="ghost"):
            driver.compute_rhs(g, bc, rec.Weno5JS())


class TestRK3:
    def ode_error(self, dt):
        """March u' = -u from 1 to t = 1 on a constant-state grid.

        With spatially constant data every flux difference vanishes, so
        the update reduces exactly to the scheme's Runge-Kutta formula
        applied to the source term alone."""
        g = scalar_grid(np.ones(8))
        bc = bdy.Boundary1D("periodic", "periodic")
        src = lambda q, gamma: -q
        steps = round(1.0 / dt)
        t = 0.0
        for _ in range(steps):
            driver.rk3_step(g, bc, rec.Linear3(), dt, t, source=src)
            t += dt
        return abs(g.interior[0, 0] - math.exp(-1.0))

    def test_third_order_in_time(self):
        e1 = self.ode_error(0.1)
        e2 = self.ode_error(0.05)
        order = math.log2(e1 / e2)
        assert e1 < 1e-4
        assert order > 2.9

    def test_convex_stage_combination_preserves_constants(self):
        g = euler_grid_1d([(1.0, 0.5, 2.0)] * 8)
        bc = bdy.Boundary1D("periodic", "periodic")
        before = g.interior.copy()
        driver.rk3_step(g, bc, rec.Weno3Z(), 0.01)
        np.testing.assert_allclose(g.interior, before, rtol=1e-14)

    def test_exhausted_fallback_raises(self):
        """An energy sink no flux choice can offset: even first-order fluxes
        everywhere leave negative pressure, which must not pass silently."""
        n = 50
        g = euler_grid_1d([(1.0, 0.0, 1.0)] * n, dx=1.0 / n)
        bc = bdy.Boundary1D("periodic", "periodic")

        def sink(q, gamma):
            out = np.zeros_like(q)
            out[:, 2] = -100.0
            return out

        with pytest.raises(PositivityError, match="stage time.*P=") as exc:
            driver.rk3_step(g, bc, rec.Weno3Z(), 0.1, source=sink)
        assert exc.value.where == (0,)

    def test_nan_state_raises(self):
        g = scalar_grid(np.ones(8))
        bc = bdy.Boundary1D("periodic", "periodic")
        bad = lambda q, gamma: np.full_like(q, np.nan)
        with pytest.raises(FloatingPointError, match="stage 1"):
            driver.rk3_step(g, bc, rec.Linear3(), 0.01, source=bad)


def advance_times(grid, bc, strategy, t_final, **kw):
    """Run `advance`, returning the result and the t of every step."""
    times = []
    res = driver.advance(grid, bc, strategy, t_final,
                         progress=lambda t, t_final, steps: times.append(t),
                         **kw)
    return res, times


class TestAdvance:
    def test_scalar_advection_translates(self):
        n, ng = 64, 2
        x = driver.cell_centers(-1.0, 1.0, n)
        u = np.zeros((n + 2 * ng, 1))
        u[ng:-ng, 0] = np.sin(np.pi * x)
        g = driver.Grid1D(u, 2.0 / n, ng, -1.0, kind="scalar")
        bc = bdy.Boundary1D("periodic", "periodic")
        res, times = advance_times(g, bc, rec.Linear3(), 0.5)
        assert res.t == pytest.approx(0.5, abs=1e-13)
        assert res.steps == len(times)
        assert times[-1] == res.t
        assert math.isinf(res.min_density)  # scalar runs skip the tracker
        exact = np.sin(np.pi * (x - 0.5))
        assert np.max(np.abs(g.interior[:, 0] - exact)) < 5e-3

    def test_scalar_dt_law(self):
        g = scalar_grid(np.ones(16), dx=0.125)
        bc = bdy.Boundary1D("periodic", "periodic")
        _, times = advance_times(g, bc, rec.Linear3(), 1.0, cfl=0.4)
        assert times[0] == pytest.approx(0.4 * 0.125, rel=1e-14)

    def test_euler_dt_law(self):
        g = euler_grid_1d([(1.0, 0.5, 1.0)] * 16, dx=0.125)
        alpha = euler.max_wave_speed_1d(g.interior)
        bc = bdy.Boundary1D("periodic", "periodic")
        _, times = advance_times(g, bc, rec.Weno3Z(), 1.0, cfl=0.4)
        assert times[0] == pytest.approx(0.4 * 0.125 / alpha, rel=1e-13)

    def test_final_step_lands_exactly(self):
        g = scalar_grid(np.ones(16), dx=0.125)
        bc = bdy.Boundary1D("periodic", "periodic")
        res, times = advance_times(g, bc, rec.Linear3(), 0.12, cfl=0.4)
        # 0.12 is not a multiple of 0.05, so the last step must clip
        assert res.t == pytest.approx(0.12, abs=1e-15)
        assert times[-1] - times[-2] < 0.4 * 0.125

    def test_euler_tracks_minima(self):
        from wenocad.benchmarks import problems

        spec = problems.get("sod")
        g, bc, src = problems.make_grid(spec, rec.GHOST3, nx=64)
        res = driver.advance(g, bc, rec.Weno3Z(), 0.2, source=src)
        assert res.steps > 0
        assert 0.0 < res.min_density < 1.0
        assert 0.0 < res.min_pressure < 1.0

    def test_conservation_on_periodic_euler(self):
        n, ng = 32, 2
        x = driver.cell_centers(-1.0, 1.0, n)
        rho = 1.0 + 0.2 * np.sin(np.pi * x)
        q = euler.prim_to_cons_1d(rho, np.ones(n), np.ones(n))
        u = np.zeros((n + 2 * ng, 3))
        u[ng:-ng] = q
        g = driver.Grid1D(u, 2.0 / n, ng, -1.0)
        bc = bdy.Boundary1D("periodic", "periodic")
        before = g.interior.sum(axis=0)
        driver.advance(g, bc, rec.Weno3Z(), 0.1)
        after = g.interior.sum(axis=0)
        np.testing.assert_allclose(after, before, rtol=1e-12)

    def test_step_cap(self):
        g = scalar_grid(np.ones(16))
        bc = bdy.Boundary1D("periodic", "periodic")
        with pytest.raises(RuntimeError, match="step cap"):
            driver.advance(g, bc, rec.Linear3(), 10.0, max_steps=2)

    def test_progress_callback(self):
        g = scalar_grid(np.ones(16), dx=0.125)
        bc = bdy.Boundary1D("periodic", "periodic")
        seen = []
        driver.advance(g, bc, rec.Linear3(), 0.1,
                       progress=lambda t, tf, s: seen.append((t, tf, s)))
        assert len(seen) > 0
        assert seen[-1][2] == len(seen)

    def test_near_vacuum_run_stays_positive(self):
        from wenocad.benchmarks import problems

        spec = problems.get("123")
        g, bc, src = problems.make_grid(spec, rec.GHOST3, nx=100)
        res = driver.advance(g, bc, rec.Weno3Z(), 0.1, source=src)
        assert res.min_density > 0.0
        assert res.min_pressure > 0.0
        assert np.all(np.isfinite(g.interior))


# x -> -x on a 1D Euler state: the cells reverse and the momentum flips sign
MIRROR = np.array([1.0, -1.0, 1.0])


def sod_and_reflected_sod(scheme):
    """Final interiors of sod at n = 100 and of reflected sod, reflected back."""
    spec = problems.get("sod")
    strategy = cli.load_strategy(scheme)
    finals = []
    for reflect in (False, True):
        g, bc, src = problems.make_grid(spec, rec.ghost_width(strategy), nx=100)
        if reflect:
            g.u[...] = g.u[::-1] * MIRROR
        driver.advance(g, bc, strategy, spec.t_final, source=src)
        finals.append(g.interior[::-1] * MIRROR if reflect else g.interior.copy())
    return finals


class TestMirrorSymmetry:
    """Reflected sod ends as the mirror image of sod, bit for bit.

    The split fluxes of the mirrored state are the negated split fluxes of
    the other direction, the minus sweep reads its windows reversed, and
    rounding to nearest commutes with negation, so each sweep of the
    mirrored run sees the original's windows negated.  The classical
    weights and the network's features depend on absolute differences
    only, so the weights agree to the last bit.  For the network this also
    rests on each row of a matrix product being rounded independently of
    its position in the batch.
    """

    @pytest.mark.parametrize("scheme", [n for n in cli.scheme_names()
                                        if "cadnn" not in n])
    def test_classical_weights(self, scheme):
        run, mirrored = sod_and_reflected_sod(scheme)
        np.testing.assert_array_equal(mirrored, run)

    @pytest.mark.parametrize("scheme", ["weno3-cadnn1", "weno3-cadnn2"])
    def test_neural_weights(self, scheme):
        run, mirrored = sod_and_reflected_sod(scheme)
        np.testing.assert_array_equal(mirrored, run)


def periodic_euler_grid(strategy, dims):
    """A smooth periodic Euler state on [-1, 1]^dims in uniform motion."""
    ng, n = rec.ghost_width(strategy), 16
    x = driver.cell_centers(-1.0, 1.0, n)
    if dims == 1:
        rho = 1.0 + 0.2 * np.sin(np.pi * x)
        u = np.zeros((n + 2 * ng, 3))
        u[ng:-ng] = euler.prim_to_cons_1d(rho, np.ones(n), np.ones(n))
        return (driver.Grid1D(u, 2.0 / n, ng, -1.0),
                bdy.Boundary1D("periodic", "periodic"))
    rho = 1.0 + 0.2 * np.sin(np.pi * x)[:, None] * np.cos(np.pi * x)
    one = np.ones_like(rho)
    u = np.zeros((n + 2 * ng, n + 2 * ng, 4))
    u[ng:-ng, ng:-ng] = euler.prim_to_cons_2d(rho, one, -0.5 * one, one)
    return (driver.Grid2D(u, 2.0 / n, 2.0 / n, ng, -1.0, -1.0),
            bdy.Boundary2D("periodic", "periodic", "periodic", "periodic"))


@pytest.mark.parametrize("dims", [1, 2])
@pytest.mark.parametrize("scheme", cli.scheme_names())
def test_periodic_run_conserves_every_component(scheme, dims):
    # the flux form telescopes: whatever the weights, each component's
    # total changes only by round-off
    strategy = cli.load_strategy(scheme)
    grid, bc = periodic_euler_grid(strategy, dims)
    axes = tuple(range(dims))
    before = grid.interior.sum(axis=axes)
    res = driver.advance(grid, bc, strategy, 0.25)
    assert res.steps >= 10
    after = grid.interior.sum(axis=axes)
    np.testing.assert_allclose(after, before, rtol=1e-13)


# ---------------------------------------------------------------------------
# runs on periodic states with a strong pressure jump

PERIODIC_1D = bdy.Boundary1D("periodic", "periodic")
PERIODIC_2D = bdy.Boundary2D("periodic", "periodic", "periodic", "periodic")


def jump_state_1d(strategy, n=200, shift=0):
    """A periodic 1D Euler state at rest on [0, 1], with the pressures
    1000, 0.01 and 100 on its thirds, rolled by `shift` cells."""
    ng = rec.ghost_width(strategy)
    x = driver.cell_centers(0.0, 1.0, n)
    p = np.where(x < 1 / 3, 1000.0, np.where(x < 2 / 3, 0.01, 100.0))
    u = np.zeros((n + 2 * ng, 3))
    u[ng:-ng] = euler.prim_to_cons_1d(np.ones(n), np.zeros(n), np.roll(p, shift))
    return driver.Grid1D(u, 1.0 / n, ng, 0.0)


def jump_state_2d(strategy, nx, ny, seed):
    """A random periodic 2D Euler state on [0, 1]^2: density and velocity
    drawn per cell, the pressure 1000 on the lower-left quarter and 0.01
    elsewhere."""
    ng = rec.ghost_width(strategy)
    rng = np.random.default_rng(seed)
    rho = rng.uniform(0.5, 2.0, (nx, ny))
    vx, vy = rng.uniform(-1.0, 1.0, (2, nx, ny))
    p = np.full((nx, ny), 0.01)
    p[: nx // 2, : ny // 2] = 1000.0
    u = np.zeros((nx + 2 * ng, ny + 2 * ng, 4))
    u[ng:-ng, ng:-ng] = euler.prim_to_cons_2d(rho, vx, vy, p)
    return driver.Grid2D(u, 1.0 / nx, 1.0 / ny, ng, 0.0, 0.0)


def transposed(grid):
    """The grid with x and y exchanged: cells transposed, momenta swapped."""
    u = grid.u.transpose(1, 0, 2)[..., [0, 2, 1, 3]]
    return driver.Grid2D(u, grid.dy, grid.dx, grid.ng, grid.ymin, grid.xmin)


@pytest.mark.parametrize("scheme", cli.scheme_names())
@given(nx=st.integers(6, 20), ny=st.integers(6, 20),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=4, deadline=None)
def test_transposed_run_is_the_transposed_result(scheme, nx, ny, seed):
    """Exchanging x and y commutes with a run, bit for bit, with the y
    sweep inline and on the worker thread, fallback stages included: each
    direction's sweep sees the other's rows, and the two flux differences
    are added in the other order, which is exact."""
    strategy = cli.load_strategy(scheme)
    finals = []
    for cpus in (1, 2):
        grid = jump_state_2d(strategy, nx, ny, seed)
        flip = transposed(grid)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(workers, "CPUS", cpus)
            for g in (grid, flip):
                driver.advance(g, PERIODIC_2D, strategy, 0.002)
        assert transposed(flip).interior.tobytes() == grid.interior.tobytes()
        finals.append(grid.interior.tobytes())
    assert finals[0] == finals[1]


# The fallback fires on the 1D state for these schemes, in the middle
# third; rolled by half a period, that third lies across the seam.
FALLBACK_1D = ("weno3-linear", "weno5-linear", "weno3-cadnn1", "weno3-cadnn2")


@pytest.mark.parametrize("case, scheme", [
    pytest.param(case, s, id=f"{case}-{s}")
    for case, schemes in (("1", FALLBACK_1D), ("1-seam", FALLBACK_1D),
                          ("2", cli.scheme_names()))
    for s in schemes
])
def test_fallback_conserves_every_component(case, scheme):
    """Where the positivity fallback fires on a periodic state, each
    conserved total changes only by round-off: the fallback swaps whole
    interface fluxes, and the flux form telescopes whatever they are.  On
    a periodic axis the interface at the seam appears twice, first and
    last, and both copies must take the same flux; on the 2D state and on
    the rolled 1D state the fallback rejects cells beside the seam."""
    strategy = cli.load_strategy(scheme)
    if case == "2":
        grid, bc, t_final = jump_state_2d(strategy, 40, 24, 0), PERIODIC_2D, 0.002
    else:
        shift = 100 if case == "1-seam" else 0
        grid, bc, t_final = jump_state_1d(strategy, shift=shift), PERIODIC_1D, 0.01
    axes = tuple(range(grid.u.ndim - 1))
    before = grid.interior.sum(axis=axes)
    res = driver.advance(grid, bc, strategy, t_final)
    assert res.fallback_stages > 0
    drift = np.abs(grid.interior.sum(axis=axes) - before)
    assert np.all(drift <= 1e-13 * np.abs(before).max())


def edge_state_1d(strategy, n=200):
    """A 1D Euler state on [0, 1] whose fallback fires at cells 0 to 2
    only: the pressure 0.01 on the first four cells against 1000, and a
    density ramp moving at 0.5 on the right half at pressure 100."""
    ng = rec.ghost_width(strategy)
    x = driver.cell_centers(0.0, 1.0, n)
    p = np.where(x < 0.02, 0.01, np.where(x < 0.5, 1000.0, 100.0))
    u = np.zeros((n + 2 * ng, 3))
    u[ng:-ng] = euler.prim_to_cons_1d(1.0 + 0.5 * x, np.where(x < 0.5, 0.0, 0.5), p)
    return driver.Grid1D(u, 1.0 / n, ng, 0.0)


@pytest.mark.parametrize("bc", [PERIODIC_1D, bdy.Boundary1D(),
                                bdy.Boundary1D("reflective", "reflective")],
                         ids=["periodic", "transmissive", "reflective"])
def test_fallback_joins_the_two_ends_only_on_a_periodic_axis(monkeypatch, bc):
    """Every update of a run whose fallback replaces the first interface's
    flux: on a periodic axis, where the fallback fires on both sides of
    the seam, the first and the last interface take one flux; on any
    other, where it fires at the left edge only, the last interface keeps
    the stage's WENO flux."""
    strategy = cli.load_strategy("weno3-linear")
    periodic = bc is PERIODIC_1D
    grid = jump_state_1d(strategy, shift=100) if periodic else edge_state_1d(strategy)
    weno, first_replaced = [], []
    stage_fluxes, update = driver._stage_fluxes, driver._update

    def recording_stage(*args):
        out = stage_fluxes(*args)
        weno.append(out[2][0])
        return out

    def checked_update(grid, h, source):
        if periodic:
            assert h[0][0].tobytes() == h[0][-1].tobytes()
        else:
            assert h[0][-1].tobytes() == weno[-1][-1].tobytes()
        first_replaced.append(h[0][0].tobytes() != weno[-1][0].tobytes())
        return update(grid, h, source)

    monkeypatch.setattr(driver, "_stage_fluxes", recording_stage)
    monkeypatch.setattr(driver, "_update", checked_update)
    res = driver.advance(grid, bc, strategy, 0.01 if periodic else 0.005)
    assert res.fallback_stages > 0 and any(first_replaced)


# ---------------------------------------------------------------------------
# the y sweep of a 2D stage on a worker thread

NX, NY = 16, 24


class SweepFault(Exception):
    pass


class RecordingZ(rec.Weno3Z):
    """WENO3-Z that records, per row-weight call, the sweep axis (told by
    the row length of a 16 x 24 grid), numpy's underflow mode and the
    thread, and raises on the axes in `fail`."""

    def __init__(self, fail=(), pause=0.0):
        self.events = []
        self.fail, self.pause = fail, pause

    def row_weights(self, f):
        axis = 0 if len(f) == NX + 2 * rec.ghost_width(self) - 1 else 1
        time.sleep(self.pause * axis)
        self.events.append((axis, np.geterr()["under"], threading.current_thread()))
        if axis in self.fail:
            raise SweepFault(f"axis {axis}")
        return super().row_weights(f)


def riemann2d_step(strategy, nx=NX, ny=NY):
    grid, bc, source = problems.make_grid(problems.get("riemann2d"),
                                          rec.ghost_width(strategy), nx=nx, ny=ny)
    driver.rk3_step(grid, bc, strategy, 0.2 * min(grid.spacing), 0.0, source)


class TestSweepThread:
    @pytest.fixture
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(workers, "CPUS", 2)

    def test_context_reaches_both_sweeps(self, two_cpus):
        strategy = RecordingZ()
        with np.errstate(under="raise"):
            riemann2d_step(strategy)
        axes = {axis for axis, _, _ in strategy.events}
        assert axes == {0, 1}
        assert {mode for _, mode, _ in strategy.events} == {"raise"}
        # the y sweep ran on the worker, the x sweep on the caller
        main = threading.current_thread()
        assert all((thread is main) == (axis == 0)
                   for axis, _, thread in strategy.events)

    def test_y_sweep_error_reaches_the_caller(self, two_cpus):
        with pytest.raises(SweepFault, match="axis 1"):
            riemann2d_step(RecordingZ(fail=(1,)))

    def test_y_sweep_ends_before_an_x_error_returns(self, two_cpus):
        # the y sweep is slowed down, so a stage that did not wait for it
        # would let the error out while it still runs
        strategy = RecordingZ(fail=(0,), pause=0.05)
        with pytest.raises(SweepFault, match="axis 0"):
            riemann2d_step(strategy)
        # one slab per axis on this grid: a plus and a minus call
        assert [axis for axis, _, _ in strategy.events].count(1) == 2

    def test_one_cpu_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(workers, "CPUS", 1)
        monkeypatch.setattr(workers, "_pool", None)
        monkeypatch.setattr(workers, "_pool_pid", None)
        threads = threading.active_count()
        strategy = RecordingZ()
        riemann2d_step(strategy)
        assert threading.active_count() == threads
        assert workers._pool is None
        main = threading.current_thread()
        assert {thread for _, _, thread in strategy.events} == {main}

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="needs the fork start method")
    def test_forked_child_steps_after_the_parent_used_the_pool(self, two_cpus):
        strategy = rec.Weno3Z()
        riemann2d_step(strategy, 16, 16)
        assert workers._pool is not None
        child = multiprocessing.get_context("fork").Process(
            target=riemann2d_step, args=(strategy, 16, 16))
        child.start()
        child.join(30)
        hung = child.is_alive()
        if hung:
            child.kill()
            child.join()
        assert not hung
        assert child.exitcode == 0
