"""Reference solutions: closed-form advection, exact Riemann sampling,
and fine-grid fifth-order runs restricted to the working grid.
"""

from __future__ import annotations

import numpy as np

from .. import reconstruction as rec
from ..solvers import driver
from . import problems, riemann


def exact_advection(x, t, xmin=-1.0, xmax=1.0):
    """Solution of u_t + u_x = 0 on a periodic domain: the composite wave
    translated by t and wrapped."""
    span = xmax - xmin
    x0 = np.mod(np.asarray(x, dtype=float) - t - xmin, span) + xmin
    return problems.advection_profile(x0)


def restrict_to_grid(x_fine, v_fine, x_coarse):
    """Bring a fine-grid profile onto coarse cell centers.

    With an odd refinement ratio the coarse centers are a subset of the
    fine ones and restriction is pure subsampling; otherwise fall back to
    monotone cubic interpolation, which creates no new extrema next to
    shocks the way an ordinary cubic would.  SciPy's interpolate package
    is imported only then: it is most of SciPy's import cost, and no
    other path of the program uses it.
    """
    x_fine = np.asarray(x_fine, dtype=float)
    x_coarse = np.asarray(x_coarse, dtype=float)
    nf, nc = x_fine.size, x_coarse.size
    if nf % nc == 0:
        r = nf // nc
        if r % 2 == 1:
            idx = r * np.arange(nc) + (r - 1) // 2
            if np.allclose(x_fine[idx], x_coarse, rtol=0.0,
                           atol=1e-9 * (x_fine[1] - x_fine[0])):
                return np.asarray(v_fine, dtype=float)[idx]
    from scipy.interpolate import PchipInterpolator

    return PchipInterpolator(x_fine, v_fine)(x_coarse)


def reference_weno5m(spec, x_coarse, t=None):
    """Fine-grid fifth-order mapped-weight run at the resolution of the
    problem's ("weno5m_fine", n) recipe, restricted to x_coarse.

    Returns the system's primitive rows on the coarse centers."""
    if t is None:
        t = spec.t_final
    strategy = rec.Weno5M()
    grid, bc, source = problems.make_grid(spec, rec.ghost_width(strategy),
                                          nx=spec.reference[1])
    driver.advance(grid, bc, strategy, t, driver.CFL_DEFAULT, source)
    prims = grid.system.primitives(grid.interior, grid.gamma)
    return tuple(restrict_to_grid(grid.x_centers, v, x_coarse) for v in prims)


def reference_solution(spec, x, t=None):
    """Reference primitives on cell centers x at time t (the problem's
    registered final time by default), one column per primitive of the
    problem's system; None when the problem has no reference."""
    if not spec.reference:
        return None
    if t is None:
        t = spec.t_final
    recipe = spec.reference[0]
    if recipe == "closed_form":
        return (exact_advection(x, t, *spec.bounds),)
    if recipe == "exact_riemann":
        return riemann.solution_on_grid(spec.reference[1], x, t)
    if recipe == "weno5m_fine":
        return reference_weno5m(spec, x, t=t)
    raise ValueError(f"unknown reference recipe {recipe!r}")
