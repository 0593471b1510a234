"""Grids, semi-discrete right-hand sides, and TVD Runge-Kutta stepping.

Spatial sweeps are dimension-by-dimension with component-wise
reconstruction; each direction uses one global Lax-Friedrichs speed per
evaluation.  A small object per system (scalar advection, Euler in one or
two dimensions) supplies the ghost fill, the primitives, of which the
first and last (density and pressure) must stay positive, and, from the
primitives, the flux along each axis and the speeds; a grid takes it from
its component count.  One sweep, flux difference and forward-Euler piece
loop over the grid's axes for all of them.  Each forward-Euler piece
converts its padded state to primitives once: the speeds, every flux and
the first-order fallback fluxes come from those arrays, and only the
admissibility check converts again, the new state.  On a 2D grid, flux,
splitting and reconstruction run slab by slab across the sweep axis, each
slab small enough for its temporaries to stay in cache; every value is
computed as for the whole grid.  When the process may use two or more
CPUs, a 2D stage sweeps y on the process's one worker thread (see
`wenocad.workers`, which training shares) while the calling thread
sweeps x: both read the same state and primitives, each writes its own
flux array, so the bits are those of one sweep after the other, and the
stage waits for the worker before it goes on or raises.  The pieces and
the Runge-Kutta combinations are written into arrays the stage already
holds, each expression keeping its operation order; a piece is
u - dt (D - S) for the flux difference D and the source S (0 without
one), which has the bits of u + dt L(u) for L = -(D - S), since
negation is exact.  Time integration is the
third-order TVD scheme of Shu and Osher, JCP 77, 439-471 (1988):

    u1 = u + dt L(u)
    u2 = 3/4 u + 1/4 (u1 + dt L(u1))
    u  = 1/3 u + 2/3 (u2 + dt L(u2))

with dt = CFL dx / alpha in one dimension (alpha = 1 for advection) and
CFL / (ax/dx + ay/dy) in two, the final step clipped to land exactly on
the requested time.  `advance` converts each step's result to primitives
once, for the run's minimum density and pressure and the next dt.

Runs that pull a vacuum (or a very strong shock) can push a cell to
negative pressure inside a stage even though the scheme is stable
everywhere else.  Each forward-Euler piece therefore checks its
candidate state and, where it turns non-physical, swaps the interface
fluxes bordering the offending cells for the first-order flux of the
split upwinding, which keeps density and pressure positive under the
CFL bound (Zhang and Shu, JCP 229 (2010); a posteriori fail-safe in the
spirit of Clain, Diot and Loubere, JCP 230 (2011)).  The check decides
from two reductions per field (`euler.all_physical`) and builds the
per-cell mask only when it fails.  The swap is conservative, local, and
inactive on runs that never get near vacuum: on a periodic axis the
first and the last interface are the one interface at the seam, and both
copies are swapped together.  The TVD stages are convex combinations of
the checked pieces, so the guarantee carries to the full step.  The
bound does not cover source terms or every two-dimensional state, so the
last resort, first-order fluxes everywhere, is checked too and raises
PositivityError if it fails.
"""

from __future__ import annotations

import time
from concurrent import futures
from dataclasses import InitVar, dataclass

import numpy as np

from .. import reconstruction as rec
from .. import workers
from ..errors import DimensionError
from . import boundary as bdy
from . import euler

CFL_DEFAULT = 0.4
MAX_STEPS_DEFAULT = 2_000_000
FALLBACK_ROUNDS = 6
# Cells of sweep rows per reconstruction call on a 2D grid.  A slab of a
# sweep is SLAB_CELLS // (row length) rows wide, so that its split fluxes
# and sweep temporaries (64 KB per component) stay in a core's L2 cache
# whatever the grid size; the x and y sweeps of a 2D stage run on two
# cores at once, each keeping its own axis's slab in its own L2.  Chosen
# by timing weno3-z, weno5-js and weno3-cadnn2 steps at 100^2, 200^2 and
# 400^2.
SLAB_CELLS = 8192


class _System1D:
    """Systems on a Grid1D share the one-dimensional ghost fill."""

    def fill(self, grid, bc, t):
        bdy.fill_ghosts_1d(grid, bc, t)


class _Euler:
    """Density and pressure, the first and last primitive, stay positive;
    each axis's speed is the largest |velocity| + c."""

    def rho_p(self, q, gamma):
        prims = self.primitives(q, gamma)
        return prims[0], prims[-1]

    def speeds(self, prims, gamma):
        return euler.max_wave_speeds(prims, gamma)


class _Advection(_System1D):
    """u_t + u_x = 0: unit speed, nothing to keep positive."""

    kind = "scalar"
    columns = ("u",)
    error_names = ("err", "l1", "linf")
    rho_p = None

    def flux(self, u, prims, axis):
        return u

    def speeds(self, prims, gamma):
        return (1.0,)

    def primitives(self, q, gamma):
        return (q[..., 0],)


class _Euler1D(_System1D, _Euler):
    kind = "euler1d"
    columns = ("density", "velocity", "pressure")
    error_names = ("density_err", "l1_density", "linf_density")

    def flux(self, u, prims, axis):
        return euler.euler_flux_1d(u, prims)

    def primitives(self, q, gamma):
        return euler.cons_to_prim_1d(q, gamma, check=False)


class _Euler2D(_Euler):
    columns = ("rho", "velocity_x", "velocity_y", "pressure")

    def fill(self, grid, bc, t):
        bdy.fill_ghosts_2d(grid, bc, t)

    def flux(self, u, prims, axis):
        if axis == 0:
            return euler.euler_flux_2d_x(u, prims)
        return euler.euler_flux_2d_y(u, prims)

    def primitives(self, q, gamma):
        return euler.cons_to_prim_2d(q, gamma, check=False)


ADVECTION = _Advection()
EULER1D = _Euler1D()
EULER2D = _Euler2D()


def cell_centers(lo, hi, n):
    dx = (hi - lo) / n
    return lo + (np.arange(n) + 0.5) * dx


@dataclass
class Grid1D:
    u: np.ndarray          # (n + 2 ng, m) padded conserved state
    dx: float
    ng: int
    xmin: float
    kind: InitVar[str | None] = None  # "scalar" or "euler1d", checked
    gamma: float = euler.GAMMA_DEFAULT

    def __post_init__(self, kind):
        if kind not in (None, self.system.kind):
            raise DimensionError(f"a {kind!r} grid does not hold "
                                 f"{self.u.shape[-1]} components")

    @property
    def system(self):
        m = self.u.shape[-1]
        if m not in (1, 3):
            raise DimensionError(f"a 1D grid holds 1 or 3 components, not {m}")
        return ADVECTION if m == 1 else EULER1D

    @property
    def spacing(self):
        return (self.dx,)

    @property
    def n(self):
        return self.u.shape[0] - 2 * self.ng

    @property
    def interior(self):
        return self.u[self.ng : -self.ng]

    @property
    def x_centers(self):
        return self.xmin + (np.arange(self.n) + 0.5) * self.dx

    @property
    def x_padded(self):
        return self.xmin + (np.arange(-self.ng, self.n + self.ng) + 0.5) * self.dx


@dataclass
class Grid2D:
    u: np.ndarray          # (nx + 2 ng, ny + 2 ng, m)
    dx: float
    dy: float
    ng: int
    xmin: float
    ymin: float
    gamma: float = euler.GAMMA_DEFAULT
    solid: np.ndarray | None = None   # mask over physical cells, True = solid

    system = EULER2D

    def __post_init__(self):
        if self.u.shape[-1] != 4:
            raise DimensionError(f"a 2D grid holds 4 components, not "
                                 f"{self.u.shape[-1]}")

    @property
    def spacing(self):
        return (self.dx, self.dy)

    @property
    def nx(self):
        return self.u.shape[0] - 2 * self.ng

    @property
    def ny(self):
        return self.u.shape[1] - 2 * self.ng

    @property
    def interior(self):
        return self.u[self.ng : -self.ng, self.ng : -self.ng]

    @property
    def x_centers(self):
        return self.xmin + (np.arange(self.nx) + 0.5) * self.dx

    @property
    def y_centers(self):
        return self.ymin + (np.arange(self.ny) + 0.5) * self.dy

    @property
    def x_padded(self):
        return self.xmin + (np.arange(-self.ng, self.nx + self.ng) + 0.5) * self.dx

    @property
    def y_padded(self):
        return self.ymin + (np.arange(-self.ng, self.ny + self.ng) + 0.5) * self.dy


def _require_ghosts(grid, strategy):
    if grid.ng < rec.ghost_width(strategy):
        raise DimensionError(
            f"grid has {grid.ng} ghost cells, reconstruction needs "
            f"{rec.ghost_width(strategy)}"
        )


def _sweep_rows(grid, a, axis):
    """A padded per-cell array of the grid (the state or one of its
    primitives) with `axis` first, cut to physical cells across it: on a
    one-axis grid, the array itself."""
    if len(grid.spacing) == 1:
        return a
    ng = grid.ng
    cut = [slice(ng, -ng)] * len(grid.spacing)
    cut[axis] = slice(None)
    return a[tuple(cut)].swapaxes(0, axis)


def _split(grid, prims, axis, alpha, cut):
    """Lax-Friedrichs split fluxes of the sweep rows [cut] along `axis`;
    prims are the primitives of the padded state."""
    u = _sweep_rows(grid, grid.u, axis)[cut]
    w = [_sweep_rows(grid, a, axis)[cut] for a in prims]
    return rec.lax_friedrichs_split(grid.system.flux(u, w, axis), u, alpha)


def slab_width(row_length):
    """Rows per slab of a 2D sweep whose rows hold `row_length` cells."""
    return max(1, SLAB_CELLS // row_length)


def _slabs(rows):
    """Index of every slab of the sweep rows of a 2D grid: slices of its
    cross axis."""
    width = slab_width(rows.shape[0])
    return [(slice(None), slice(j, j + width)) for j in range(0, rows.shape[1], width)]


def _axis_fluxes(grid, strategy, prims, axis, alpha):
    """The WENO interface fluxes along `axis` bordering physical cells
    (ghosts already filled), sweep axis first; prims and alpha are those
    of the padded state.  On a 2D grid, flux, split and reconstruction run
    slab by slab across the axis, each slab's temporaries small enough to
    stay in cache, and the result is laid out in memory like the grid; the
    rows of a 1D grid are one slab, whose fluxes are returned as the sweep
    made them."""
    ng = grid.ng
    extra = ng - rec.ghost_width(strategy)
    rows = _sweep_rows(grid, grid.u, axis)
    n = rows.shape[0] - 2 * ng
    if rows.ndim < 3:
        fp, fm = _split(grid, prims, axis, alpha, ...)
        return rec.interface_fluxes(fp, fm, strategy)[extra : extra + n + 1]
    shape = [n + 1, *rows.shape[1:]]
    shape[0], shape[axis] = shape[axis], shape[0]
    h = np.empty(shape).swapaxes(0, axis)
    for cut in _slabs(rows):
        fp, fm = _split(grid, prims, axis, alpha, cut)
        h[cut] = rec.interface_fluxes(fp, fm, strategy)[extra : extra + n + 1]
    return h


def _fluxes(grid, strategy, prims, speeds):
    """Per sweep axis, `_axis_fluxes`.  On a 2D grid, when the process may
    use two CPUs, the y sweep runs on the worker thread of `workers`, in
    the caller's context (numpy's error state included), while the caller
    sweeps x; the two write disjoint arrays, and the y sweep ends before
    this returns or raises."""
    if len(speeds) == 1 or workers.CPUS < 2:
        return [_axis_fluxes(grid, strategy, prims, axis, alpha)
                for axis, alpha in enumerate(speeds)]
    hy = workers.submit(_axis_fluxes, grid, strategy, prims, 1, speeds[1])
    try:
        hx = _axis_fluxes(grid, strategy, prims, 0, speeds[0])
    finally:
        futures.wait([hy])
    return [hx, hy.result()]


def _first_order_fluxes(grid, prims, speeds):
    """Per sweep axis, the first-order fluxes f+_i + f-_{i+1} of the split
    upwinding at the interfaces bordering physical cells; prims and speeds
    are those of the padded state."""
    ng = grid.ng
    out = []
    for axis, alpha in enumerate(speeds):
        fp, fm = _split(grid, prims, axis, alpha, ...)
        n = fp.shape[0] - 2 * ng
        out.append(fp[ng - 1 : ng + n] + fm[ng : ng + n + 1])
    return out


def _flux_difference(grid, h):
    """sum over axes of (h_{i+1/2} - h_{i-1/2}) / d, a new array."""
    total = None
    for axis, (hk, d) in enumerate(zip(h, grid.spacing)):
        dk = hk[1:] - hk[:-1]
        dk /= d
        if total is None:
            total = dk
        else:
            total += dk.swapaxes(0, axis)
    return total


def _update(grid, h, source):
    """D - S, the flux difference D of the interface fluxes h less the
    source S on the physical cells (none when source is None), a new
    array."""
    out = _flux_difference(grid, h)
    if source is not None:
        out -= source(grid.interior, grid.gamma)
    return out


def _stage_fluxes(grid, bc, strategy, t):
    """Fill the ghosts, convert the padded state to primitives once, and
    return them with the speeds and the WENO fluxes they give."""
    system = grid.system
    system.fill(grid, bc, t)
    prims = system.primitives(grid.u, grid.gamma)
    speeds = system.speeds(prims, grid.gamma)
    return prims, speeds, _fluxes(grid, strategy, prims, speeds)


def compute_rhs(grid, bc, strategy, t=0.0, source=None):
    """The right-hand side L(u) = -(D - S) on the physical cells, ghosts
    refreshed first."""
    _require_ghosts(grid, strategy)
    out = _update(grid, _stage_fluxes(grid, bc, strategy, t)[2], source)
    return np.negative(out, out=out)


def _forward_piece(grid, bc, strategy, dt, t, source, counters):
    """u + dt L(u), falling back to first-order fluxes around cells the
    candidate update would make non-physical."""
    system = grid.system
    prims, speeds, h = _stage_fluxes(grid, bc, strategy, t)

    def build(hh):
        # u - dt (D - S) has the bits of u + dt L(u), L = -(D - S)
        v = _update(grid, hh, source)
        v *= dt
        return np.subtract(grid.interior, v, out=v)

    v = build(h)
    if system.rho_p is None:
        return v
    rho_p = system.rho_p(v, grid.gamma)
    if euler.all_physical(*rho_p):
        return v

    ok = euler.physical(*rho_p)
    counters["stages"] += 1
    counters["cells"] += int(np.count_nonzero(~ok))
    # the state, ghosts included, is still the one prims came from
    hl = _first_order_fluxes(grid, prims, speeds)
    replaced = [np.zeros(hk.shape[:-1], dtype=bool) for hk in h]
    for _ in range(FALLBACK_ROUNDS):
        bad = ~ok
        for axis, rep in enumerate(replaced):
            rep[:-1] |= bad.swapaxes(0, axis)
            rep[1:] |= bad.swapaxes(0, axis)
            if bc.periodic[axis]:
                # the seam interface is the first and the last one: both
                # copies take the same flux, or the totals drift
                rep[[0, -1]] = rep[0] | rep[-1]
        v = build([np.where(rep[..., None], lo, hi)
                   for rep, lo, hi in zip(replaced, hl, h)])
        rho_p = system.rho_p(v, grid.gamma)
        if euler.all_physical(*rho_p):
            return v
        ok = euler.physical(*rho_p)

    v = build(hl)
    rho, p = system.rho_p(v, grid.gamma)
    euler.check_physical(f"stage time t = {t:.6g}, even with first-order "
                         "fluxes everywhere", rho=rho, P=p)
    return v


def rk3_step(grid, bc, strategy, dt, t=0.0, source=None, counters=None):
    """One TVD-RK3 step; raises if a stage produces non-finite values."""
    _require_ghosts(grid, strategy)
    if counters is None:
        counters = {"stages": 0, "cells": 0}
    inner = grid.interior
    u0 = inner.copy()

    inner[...] = _forward_piece(grid, bc, strategy, dt, t, source, counters)
    _check_finite(inner, "stage 1")

    v = _forward_piece(grid, bc, strategy, dt, t + dt, source, counters)
    np.multiply(u0, 0.75, out=inner)
    v *= 0.25
    inner += v
    _check_finite(inner, "stage 2")

    v = _forward_piece(grid, bc, strategy, dt, t + 0.5 * dt, source, counters)
    np.divide(u0, 3.0, out=inner)
    v *= 2.0 / 3.0
    inner += v
    _check_finite(inner, "stage 3")
    return grid


def _check_finite(a, where):
    if not np.isfinite(a).all():
        raise FloatingPointError(f"non-finite state after {where}")


@dataclass
class RunResult:
    grid: object
    t: float
    steps: int
    wall_time: float
    min_density: float = float("inf")
    min_pressure: float = float("inf")
    fallback_stages: int = 0
    fallback_cells: int = 0


def _stable_dt(grid, speeds, cfl):
    if len(speeds) == 1:
        # cfl dx / alpha rounds differently from cfl / (alpha / dx)
        return cfl * grid.dx / speeds[0]
    return cfl / sum(a / d for a, d in zip(speeds, grid.spacing))


def _min_rho_p(grid, prims):
    """Minimum density and pressure over fluid cells, from the primitives
    of the physical cells."""
    rho, p = prims[0], prims[-1]
    solid = getattr(grid, "solid", None)
    if solid is not None:
        rho = rho[~solid]
        p = p[~solid]
    return float(rho.min()), float(p.min())


def advance(grid, bc, strategy, t_final, cfl=CFL_DEFAULT, source=None,
            max_steps=MAX_STEPS_DEFAULT, progress=None):
    """March the grid to t_final, tracking run diagnostics."""
    t = 0.0
    steps = 0
    start = time.perf_counter()
    result = RunResult(grid=grid, t=t, steps=0, wall_time=0.0)
    counters = {"stages": 0, "cells": 0}
    system = grid.system
    positive = system.rho_p is not None
    # one conversion per step serves the run minima and the next step's dt
    prims = system.primitives(grid.interior, grid.gamma)

    while t < t_final:
        if steps >= max_steps:
            raise RuntimeError(f"step cap {max_steps} reached at t = {t:.6g}")
        dt = min(_stable_dt(grid, system.speeds(prims, grid.gamma), cfl), t_final - t)
        rk3_step(grid, bc, strategy, dt, t, source, counters)
        t += dt
        steps += 1
        prims = system.primitives(grid.interior, grid.gamma)
        if positive:
            rho_min, p_min = _min_rho_p(grid, prims)
            result.min_density = min(result.min_density, rho_min)
            result.min_pressure = min(result.min_pressure, p_min)
        if progress is not None:
            progress(t, t_final, steps)

    result.t = t
    result.steps = steps
    result.wall_time = time.perf_counter() - start
    result.fallback_stages = counters["stages"]
    result.fallback_cells = counters["cells"]
    return result
