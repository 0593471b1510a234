"""Reference profiles, grid restriction, and error metrics."""

import dataclasses

import numpy as np
import pytest

from conftest import fresh_python
from wenocad.benchmarks import errors as berr
from wenocad.benchmarks import problems, reference, riemann
from wenocad.errors import DimensionError
from wenocad.solvers import driver


class TestExactAdvection:
    def test_zero_time_is_initial_profile(self):
        x = driver.cell_centers(-1.0, 1.0, 200)
        np.testing.assert_array_equal(
            reference.exact_advection(x, 0.0),
            problems.advection_profile(x))

    def test_translation(self):
        x = driver.cell_centers(-1.0, 1.0, 400)
        u = reference.exact_advection(x, 0.3)
        np.testing.assert_allclose(u, problems.advection_profile(x - 0.3),
                                   atol=1e-12)

    def test_periodic_wrap(self):
        x = driver.cell_centers(-1.0, 1.0, 256)
        # one full period of the [-1, 1] domain returns the profile
        np.testing.assert_allclose(reference.exact_advection(x, 2.0),
                                   problems.advection_profile(x), atol=1e-12)
        # the square wave on [-0.4, -0.2] lands on [0.4, 0.6] after t = 0.8
        u = reference.exact_advection(np.array([0.5]), 0.8)
        assert u[0] == 1.0


class TestRestrictToGrid:
    def test_odd_ratio_is_exact_subsampling(self):
        xf = driver.cell_centers(0.0, 1.0, 300)
        xc = driver.cell_centers(0.0, 1.0, 100)
        vf = np.arange(300.0)
        out = reference.restrict_to_grid(xf, vf, xc)
        np.testing.assert_array_equal(out, vf[3 * np.arange(100) + 1])

    def test_odd_ratio_preserves_jumps(self):
        xf = driver.cell_centers(0.0, 1.0, 500)
        xc = driver.cell_centers(0.0, 1.0, 100)
        vf = np.where(xf < 0.5, 1.0, 0.0)
        out = reference.restrict_to_grid(xf, vf, xc)
        assert set(np.unique(out)) == {0.0, 1.0}

    def test_even_ratio_interpolates(self):
        xf = driver.cell_centers(0.0, 1.0, 200)
        xc = driver.cell_centers(0.0, 1.0, 100)
        vf = np.sin(2.0 * np.pi * xf)
        out = reference.restrict_to_grid(xf, vf, xc)
        # monotone cubic drops to second order at the extrema
        np.testing.assert_allclose(out, np.sin(2.0 * np.pi * xc), atol=5e-3)
        assert not np.array_equal(out, vf[::2])

    def test_interpolation_adds_no_overshoot(self):
        xf = driver.cell_centers(0.0, 1.0, 200)
        xc = driver.cell_centers(0.0, 1.0, 150)
        vf = np.where(xf < 0.5, 1.0, 0.0)
        out = reference.restrict_to_grid(xf, vf, xc)
        assert np.all(out >= -1e-12)
        assert np.all(out <= 1.0 + 1e-12)

    def test_even_ratio_loads_pchip_on_first_use(self):
        script = """
            import json, sys
            import numpy as np
            from wenocad.benchmarks import reference
            from wenocad.solvers import driver
            before = "scipy.interpolate" in sys.modules
            xf = driver.cell_centers(0.0, 1.0, 200)
            xc = driver.cell_centers(0.0, 1.0, 100)
            vf = np.where(xf < 0.5, np.sin(2.0 * np.pi * xf), 2.0)
            out = reference.restrict_to_grid(xf, vf, xc)
            after = "scipy.interpolate" in sys.modules
            from scipy.interpolate import PchipInterpolator
            want = PchipInterpolator(xf, vf)(xc)
            print(json.dumps({"before": before, "after": after,
                              "exact": out.tobytes() == want.tobytes()}))
        """
        assert fresh_python(script) == {"before": False, "after": True,
                                        "exact": True}


class TestReferenceSolution:
    def test_closed_form_dispatch(self):
        spec = problems.get("advection")
        x = driver.cell_centers(-1.0, 1.0, 64)
        # one column per primitive, as for the Euler recipes
        (got,) = reference.reference_solution(spec, x, t=0.5)
        np.testing.assert_array_equal(got,
                                      reference.exact_advection(x, 0.5))

    def test_exact_riemann_dispatch(self):
        spec = problems.get("sod")
        x = driver.cell_centers(-5.0, 5.0, 64)
        got = reference.reference_solution(spec, x, t=1.0)
        want = riemann.solution_on_grid(problems.SOD, x, 1.0)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)

    def test_default_time_is_final_time(self):
        spec = problems.get("sod")
        x = driver.cell_centers(-5.0, 5.0, 32)
        got = reference.reference_solution(spec, x)
        want = riemann.solution_on_grid(problems.SOD, x, spec.t_final)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)

    def test_no_reference_returns_none(self):
        spec = problems.get("riemann2d")
        assert reference.reference_solution(spec, np.zeros(4)) is None

    def test_fine_grid_reference_runs(self):
        # a short, coarse surrogate of the fine-grid recipe
        spec = problems.get("shock-entropy-k5")
        x = driver.cell_centers(-5.0, 5.0, 50)
        spec = dataclasses.replace(spec, reference=("weno5m_fine", 150))
        rho, u, p = reference.reference_weno5m(spec, x, t=0.02)
        assert rho.shape == (50,)
        assert np.all(rho > 0.0)
        assert np.all(p > 0.0)
        # far from the shock the field is near the initial sine; the
        # coarse surrogate grid leaves visible split-flux dissipation
        assert rho[-1] == pytest.approx(1.0 + 0.2 * np.sin(5.0 * x[-1]),
                                        abs=0.05)


class TestErrorReport:
    def test_metrics(self):
        num = np.array([1.0, 2.0, 3.0, 4.0])
        ref = np.array([1.5, 2.0, 2.0, 4.25])
        rep = berr.error_report(num, ref, dx=0.5,
                               x=np.array([0.0, 1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(rep.pointwise, [0.5, 0.0, 1.0, 0.25])
        assert rep.l1 == pytest.approx(0.875)
        assert rep.linf == 1.0
        assert rep.x_max == 2.0

    def test_default_dx(self):
        rep = berr.error_report(np.array([1.0, 0.0]), np.array([0.0, 0.0]))
        assert rep.l1 == 1.0
        assert rep.x_max is None

    def test_2d_report(self):
        num = np.zeros((3, 4))
        num[1, 2] = 7.0
        rep = berr.error_report(num, np.zeros((3, 4)), x=np.arange(3.0))
        assert rep.linf == 7.0
        assert rep.l1 == 7.0
        assert rep.x_max is None

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError, match="shape mismatch"):
            berr.error_report(np.zeros(3), np.zeros(4))
