"""Benchmark registry: canonical settings, initial data, grid assembly."""

import math

import numpy as np
import pytest

from wenocad.benchmarks import problems
from wenocad.solvers import boundary as bdy
from wenocad.solvers import driver, euler

ADV, E1, E2 = driver.ADVECTION, driver.EULER1D, driver.EULER2D

# name -> (system, bounds, resolution, t_final, gamma)
CANONICAL = {
    "advection": (ADV, (-1.0, 1.0), (200,), 8.0, 1.4),
    "sod": (E1, (-5.0, 5.0), (200,), 2.0, 1.4),
    "lax": (E1, (-5.0, 5.0), (200,), 1.3, 1.4),
    "123": (E1, (-5.0, 5.0), (200,), 1.0, 1.4),
    "double-rarefaction": (E1, (-1.0, 1.0), (200,), 0.6, 1.4),
    "shock-entropy-k5": (E1, (-5.0, 5.0), (200,), 2.0, 1.4),
    "shock-entropy-k10": (E1, (-5.0, 5.0), (400,), 2.0, 1.4),
    "blast": (E1, (0.0, 1.0), (400,), 0.038, 1.4),
    "riemann2d": (E2, (0.0, 1.0, 0.0, 1.0), (400, 400), 0.8, 1.4),
    "dmr": (E2, (0.0, 4.0, 0.0, 1.0), (800, 200), 0.2, 1.4),
    "step": (E2, (0.0, 3.0, 0.0, 1.0), (480, 160), 4.0, 1.4),
    "rayleigh-taylor": (E2, (0.0, 0.25, 0.0, 1.0), (200, 800), 2.95,
                        5.0 / 3.0),
}


class TestRegistry:
    def test_twelve_problems_in_order(self):
        names = [s.name for s in problems.registry()]
        assert names == list(CANONICAL)

    @pytest.mark.parametrize("name", list(CANONICAL))
    def test_canonical_settings(self, name):
        system, bounds, res, t_final, gamma = CANONICAL[name]
        spec = problems.get(name)
        # the initial data names the system
        grid, _, _ = problems.make_grid(spec, 2, nx=8, ny=8)
        assert grid.system is system
        assert spec.bounds == bounds
        assert spec.resolution == res
        assert spec.t_final == t_final
        assert spec.gamma == gamma

    def test_reference_recipes(self):
        assert problems.get("advection").reference == ("closed_form",)
        for name, states in (("sod", problems.SOD), ("lax", problems.LAX),
                             ("123", problems.ONE23),
                             ("double-rarefaction",
                              problems.DOUBLE_RAREFACTION)):
            assert problems.get(name).reference == ("exact_riemann", states)
        assert problems.get("shock-entropy-k5").reference == \
            ("weno5m_fine", 2000)
        assert problems.get("shock-entropy-k10").reference == \
            ("weno5m_fine", 2000)
        assert problems.get("blast").reference == ("weno5m_fine", 4000)
        for name in ("riemann2d", "dmr", "step", "rayleigh-taylor"):
            assert problems.get(name).reference == ()

    def test_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="unknown problem 'nope'"):
            problems.get("nope")
        with pytest.raises(KeyError, match="sod"):
            problems.get("nope")

    def test_tube_states(self):
        s = problems.SOD
        assert (s.rho_l, s.u_l, s.p_l) == (1.0, 0.0, 1.0)
        assert (s.rho_r, s.u_r, s.p_r) == (0.125, 0.0, 0.1)
        s = problems.LAX
        assert (s.rho_l, s.u_l, s.p_l) == (0.445, 0.698, 3.528)
        assert (s.rho_r, s.u_r, s.p_r) == (0.5, 0.0, 0.571)
        s = problems.ONE23
        assert (s.rho_l, s.u_l, s.p_l) == (1.0, -2.0, 0.4)
        assert (s.rho_r, s.u_r, s.p_r) == (1.0, 2.0, 0.4)
        s = problems.DOUBLE_RAREFACTION
        assert (s.rho_l, s.u_l, s.p_l) == (7.0, -1.0, 0.2)
        assert (s.rho_r, s.u_r, s.p_r) == (7.0, 1.0, 0.2)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="positive"):
            problems.ProblemSpec(
                name="bad", bounds=(0.0, 1.0), resolution=(16,), t_final=0.0,
                ic=None, boundary=None)
        with pytest.raises(ValueError, match="too small"):
            problems.ProblemSpec(
                name="bad", bounds=(0.0, 1.0), resolution=(4,), t_final=1.0,
                ic=None, boundary=None)


class TestInitialData:
    def test_advection_profile_zones(self):
        prof = problems.advection_profile
        assert prof(np.array([-0.3]))[0] == 1.0          # square wave
        assert prof(np.array([0.1]))[0] == 1.0           # triangle peak
        assert prof(np.array([0.15]))[0] == pytest.approx(0.5, abs=1e-12)
        assert prof(np.array([-0.7]))[0] > 0.98          # smoothed Gaussian
        assert prof(np.array([0.5]))[0] > 0.99           # smoothed ellipse
        for x in (-0.95, -0.5, 0.3, 0.75):
            assert prof(np.array([x]))[0] == 0.0

    def test_tube_ic_split_at_origin(self):
        spec = problems.get("sod")
        q = spec.ic(np.array([-1.0, 1.0]))
        np.testing.assert_allclose(q[0], euler.prim_to_cons_1d(1.0, 0.0, 1.0),
                                   rtol=1e-15)
        np.testing.assert_allclose(
            q[1], euler.prim_to_cons_1d(0.125, 0.0, 0.1), rtol=1e-15)

    def test_shock_entropy_ic(self):
        spec = problems.get("shock-entropy-k5")
        x = np.array([-4.5, 1.0])
        rho, u, p = euler.cons_to_prim_1d(spec.ic(x))
        assert rho[0] == pytest.approx(3.857143, rel=1e-12)
        assert u[0] == pytest.approx(2.629369, rel=1e-12)
        assert p[0] == pytest.approx(10.333333, rel=1e-12)
        assert rho[1] == pytest.approx(1.0 + 0.2 * math.sin(5.0), rel=1e-12)
        assert (u[1], p[1]) == (0.0, 1.0)

    def test_shock_entropy_k10_wavenumber(self):
        spec = problems.get("shock-entropy-k10")
        x = np.array([1.0])
        rho, _, _ = euler.cons_to_prim_1d(spec.ic(x))
        assert rho[0] == pytest.approx(1.0 + 0.2 * math.sin(10.0), rel=1e-12)

    def test_blast_pressure_zones(self):
        spec = problems.get("blast")
        x = np.array([0.05, 0.5, 0.95])
        rho, u, p = euler.cons_to_prim_1d(spec.ic(x))
        np.testing.assert_array_equal(rho, 1.0)
        np.testing.assert_array_equal(u, 0.0)
        np.testing.assert_array_equal(p, [1000.0, 0.01, 100.0])

    def test_riemann2d_quadrants(self):
        spec = problems.get("riemann2d")
        x = np.array([0.7, 0.9])
        y = np.array([0.7, 0.9])
        rho, u, v, p = euler.cons_to_prim_2d(spec.ic(x, y))
        # (x, y) layout: first axis is x; atol soaks the round trip
        # through conserved variables where a primitive is exactly zero
        def check(i, j, expect):
            np.testing.assert_allclose(
                [rho[i, j], u[i, j], v[i, j], p[i, j]], expect,
                rtol=1e-13, atol=1e-15)

        check(1, 1, [1.5, 0.0, 0.0, 1.5])
        check(0, 1, [0.5323, 1.206, 0.0, 0.3])
        check(0, 0, [0.138, 1.206, 1.206, 0.029])
        check(1, 0, [0.5323, 0.0, 1.206, 0.3])

    def test_dmr_oblique_shock_split(self):
        spec = problems.get("dmr")
        x = np.array([0.05, 3.9])
        y = np.array([0.05])
        q = spec.ic(x, y)
        np.testing.assert_array_equal(q[0, 0], problems.DMR_POST)
        np.testing.assert_array_equal(q[1, 0], problems.DMR_PRE)

    def test_dmr_post_state(self):
        rho, u, v, p = euler.cons_to_prim_2d(problems.DMR_POST)
        assert rho == pytest.approx(8.0, rel=1e-14)
        assert u == pytest.approx(8.25 * math.cos(math.pi / 6.0), rel=1e-14)
        assert v == pytest.approx(-8.25 * math.sin(math.pi / 6.0), rel=1e-14)
        assert p == pytest.approx(116.5, rel=1e-14)

    def test_step_uniform_inflow(self):
        spec = problems.get("step")
        q = spec.ic(np.array([0.1, 2.0]), np.array([0.5]))
        rho, u, v, p = euler.cons_to_prim_2d(q)
        np.testing.assert_allclose(rho, 1.4, rtol=1e-15)
        np.testing.assert_allclose(u, 3.0, rtol=1e-14)
        np.testing.assert_allclose(v, 0.0, atol=1e-15)
        np.testing.assert_allclose(p, 1.0, rtol=1e-13)

    def test_rayleigh_taylor_stratification(self):
        spec = problems.get("rayleigh-taylor")
        x = np.array([0.0625])
        y = np.array([0.25, 0.75])
        rho, u, v, p = euler.cons_to_prim_2d(spec.ic(x, y), spec.gamma)
        assert rho[0, 0] == pytest.approx(2.0, rel=1e-13)
        assert rho[0, 1] == pytest.approx(1.0, rel=1e-13)
        assert p[0, 0] == pytest.approx(2.0 * 0.25 + 1.0, rel=1e-13)
        assert p[0, 1] == pytest.approx(0.75 + 1.5, rel=1e-13)
        np.testing.assert_allclose(u, 0.0, atol=1e-15)
        c = math.sqrt(spec.gamma * 1.5 / 2.0)
        assert v[0, 0] == pytest.approx(
            -0.025 * c * math.cos(8.0 * math.pi * 0.0625), rel=1e-12)

    def test_rt_source_components(self):
        rng = np.random.default_rng(2)
        q = rng.uniform(0.5, 2.0, (5, 4, 4))
        s = problems.rt_source(q, problems.GAMMA_RT)
        np.testing.assert_array_equal(s[..., 0], 0.0)
        np.testing.assert_array_equal(s[..., 1], 0.0)
        np.testing.assert_array_equal(s[..., 2], q[..., 0])
        np.testing.assert_array_equal(s[..., 3], q[..., 2])

    def test_rt_problem_carries_source(self):
        assert problems.get("rayleigh-taylor").source is problems.rt_source
        assert problems.get("sod").source is None


class TestMakeGrid:
    def test_tube_grid(self):
        spec = problems.get("sod")
        grid, bc, source = problems.make_grid(spec, 2)
        assert isinstance(grid, driver.Grid1D)
        assert grid.n == 200
        assert grid.system is driver.EULER1D
        assert grid.dx == pytest.approx(0.05)
        assert source is None
        assert bc is spec.boundary
        np.testing.assert_allclose(grid.interior,
                                   spec.ic(grid.x_centers), rtol=1e-15)

    def test_resolution_override(self):
        grid, _, _ = problems.make_grid(problems.get("sod"), 2, nx=64)
        assert grid.n == 64
        assert grid.dx == pytest.approx(10.0 / 64)

    @pytest.mark.parametrize("name, nx, ny", [
        ("sod", 7, None), ("sod", 0, None), ("sod", -5, None),
        ("riemann2d", 16, 4), ("riemann2d", 0, 16)])
    def test_override_below_a_stencil_raises(self, name, nx, ny):
        # the rule of the spec check; 0 no longer means "canonical"
        with pytest.raises(ValueError, match="too small"):
            problems.make_grid(problems.get(name), 2, nx=nx, ny=ny)

    def test_override_at_the_minimum(self):
        grid, _, _ = problems.make_grid(problems.get("riemann2d"), 2,
                                        nx=problems.MIN_CELLS, ny=12)
        assert (grid.nx, grid.ny) == (problems.MIN_CELLS, 12)

    def test_advection_grid_is_scalar(self):
        grid, _, _ = problems.make_grid(problems.get("advection"), 2, nx=32)
        assert grid.system is driver.ADVECTION
        assert grid.u.shape == (36, 1)

    def test_2d_grid(self):
        grid, bc, _ = problems.make_grid(problems.get("riemann2d"), 3,
                                         nx=16, ny=12)
        assert isinstance(grid, driver.Grid2D)
        assert (grid.nx, grid.ny) == (16, 12)
        assert grid.u.shape == (22, 18, 4)
        assert grid.dx == pytest.approx(1.0 / 16)
        assert grid.dy == pytest.approx(1.0 / 12)
        assert isinstance(bc, bdy.Boundary2D)

    def test_step_solid_mask(self):
        grid, _, _ = problems.make_grid(problems.get("step"), 2,
                                        nx=48, ny=16)
        assert grid.solid is not None
        assert grid.solid.shape == (48, 16)
        x = grid.x_centers
        y = grid.y_centers
        expect = (x[:, None] > 0.6) & (y[None, :] < 0.2)
        np.testing.assert_array_equal(grid.solid, expect)
        assert grid.solid.any() and not grid.solid.all()

    def test_rt_grid_uses_its_gamma(self):
        grid, _, source = problems.make_grid(problems.get("rayleigh-taylor"),
                                             2, nx=16, ny=64)
        assert grid.gamma == pytest.approx(5.0 / 3.0)
        assert source is problems.rt_source


class TestDoubleMachBoundary:
    def test_top_edge_tracks_shock(self):
        spec = problems.get("dmr")
        grid, bc, _ = problems.make_grid(spec, 2, nx=64, ny=16)
        x = grid.x_padded

        bdy.fill_ghosts_2d(grid, bc, 0.0)
        shock_x = 1.0 / 6.0 + 1.0 / math.sqrt(3.0)
        i_post = int(np.argmax(x > shock_x)) - 1
        np.testing.assert_array_equal(grid.u[i_post, -1], problems.DMR_POST)
        np.testing.assert_array_equal(grid.u[i_post + 1, -1],
                                      problems.DMR_PRE)

        bdy.fill_ghosts_2d(grid, bc, 0.15)
        shock_x = 1.0 / 6.0 + (1.0 + 20.0 * 0.15) / math.sqrt(3.0)
        i_post = int(np.argmax(x > shock_x)) - 1
        np.testing.assert_array_equal(grid.u[i_post, -1], problems.DMR_POST)
        np.testing.assert_array_equal(grid.u[i_post + 1, -1],
                                      problems.DMR_PRE)

    def test_left_inflow_and_wall(self):
        spec = problems.get("dmr")
        grid, bc, _ = problems.make_grid(spec, 2, nx=64, ny=16)
        bdy.fill_ghosts_2d(grid, bc, 0.0)
        np.testing.assert_array_equal(
            grid.u[:2], np.broadcast_to(problems.DMR_POST, (2, 20, 4)))
        # ahead of the shock foot the bottom ghosts hold the post state
        ahead = grid.x_padded < 1.0 / 6.0
        i = int(np.argmax(ahead))
        np.testing.assert_array_equal(grid.u[i, 0], problems.DMR_POST)
        # behind the foot they mirror the interior with v flipped
        j = int(np.argmax(~ahead))
        np.testing.assert_allclose(grid.u[j, 1, 2], -grid.u[j, 2, 2],
                                   rtol=1e-14)
