"""Benchmark problem registry.

Twelve standard configurations: linear advection of a composite wave
(Jiang and Shu, JCP 126, 202-228 (1996)), four Euler shock tubes, the
shock/entropy-wave interaction of Shu and Osher, the two-blast-wave
problem, a 2D four-quadrant Riemann problem, double Mach reflection and
the forward-facing step of Woodward and Colella, and a single-mode
Rayleigh-Taylor instability.  Every entry records its canonical domain,
resolution, and final time; `make_grid` instantiates a padded grid at
the canonical or an overridden resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..solvers import boundary as bdy
from ..solvers import driver, euler
from .riemann import RiemannStates

# composite-wave parameters
DELTA = 0.005
BETA = math.log(2.0) / (36.0 * DELTA**2)
Z_GAUSS = -0.7
ALPHA_ELL = 10.0
Y_ELL = 0.5


def _gauss(x, c):
    return np.exp(-BETA * (x - c) ** 2)


def _ellipse(x, c):
    return np.sqrt(np.maximum(1.0 - ALPHA_ELL**2 * (x - c) ** 2, 0.0))


def advection_profile(x):
    """Composite wave: smoothed Gaussian, square wave, triangle, and
    smoothed half-ellipse on [-1, 1], zero elsewhere."""
    x = np.asarray(x, dtype=float)
    u = np.zeros_like(x)
    m = (x >= -0.8) & (x <= -0.6)
    u[m] = (_gauss(x[m], Z_GAUSS - DELTA) + 4.0 * _gauss(x[m], Z_GAUSS)
            + _gauss(x[m], Z_GAUSS + DELTA)) / 6.0
    m = (x >= -0.4) & (x <= -0.2)
    u[m] = 1.0
    m = (x >= 0.0) & (x <= 0.2)
    u[m] = 1.0 - np.abs(10.0 * (x[m] - 0.1))
    m = (x >= 0.4) & (x <= 0.6)
    u[m] = (_ellipse(x[m], Y_ELL - DELTA) + 4.0 * _ellipse(x[m], Y_ELL)
            + _ellipse(x[m], Y_ELL + DELTA)) / 6.0
    return u


MIN_CELLS = 8       # per axis, for a stencil to fit


@dataclass(frozen=True)
class ProblemSpec:
    """One benchmark configuration at its canonical settings."""

    name: str
    bounds: tuple                  # (xmin, xmax) or (xmin, xmax, ymin, ymax)
    resolution: tuple              # (n,) or (nx, ny)
    t_final: float
    ic: object = field(repr=False)  # cell centers per axis -> conserved state
    boundary: object = field(repr=False)
    gamma: float = 1.4
    source: object = field(default=None, repr=False)
    solid: object = field(default=None, repr=False)
    # ("closed_form",) | ("exact_riemann", states) | ("weno5m_fine", n_ref)
    reference: tuple = ()

    def __post_init__(self):
        if not self.t_final > 0.0:
            raise ValueError(f"{self.name}: final time must be positive")
        _check_resolution(self.name, self.resolution)


def _check_resolution(name, resolution):
    if min(resolution) < MIN_CELLS:
        raise ValueError(f"{name}: resolution {tuple(resolution)} too small "
                         f"for a stencil, need {MIN_CELLS} cells per axis")


def _tube_ic(states):
    def ic(x):
        left = x <= 0.0
        rho = np.where(left, states.rho_l, states.rho_r)
        u = np.where(left, states.u_l, states.u_r)
        p = np.where(left, states.p_l, states.p_r)
        return euler.prim_to_cons_1d(rho, u, p, states.gamma)
    return ic


def _shock_entropy_ic(k):
    def ic(x):
        left = x < -4.0
        rho = np.where(left, 3.857143, 1.0 + 0.2 * np.sin(k * x))
        u = np.where(left, 2.629369, 0.0)
        p = np.where(left, 10.333333, 1.0)
        return euler.prim_to_cons_1d(rho, u, p)
    return ic


def _blast_ic(x):
    p = np.where(x < 0.1, 1000.0, np.where(x < 0.9, 0.01, 100.0))
    return euler.prim_to_cons_1d(np.ones_like(x), np.zeros_like(x), p)


def _riemann2d_ic(x, y):
    hi_x = x[:, None] > 0.8
    hi_y = y[None, :] > 0.8
    quads = [hi_x & hi_y, ~hi_x & hi_y, ~hi_x & ~hi_y]
    rho = np.select(quads, [1.5, 0.5323, 0.138], 0.5323)
    u = np.select(quads, [0.0, 1.206, 1.206], 0.0)
    v = np.select(quads, [0.0, 0.0, 1.206], 1.206)
    p = np.select(quads, [1.5, 0.3, 0.029], 0.3)
    return euler.prim_to_cons_2d(rho, u, v, p)


DMR_POST = euler.prim_to_cons_2d(
    8.0, 8.25 * math.cos(math.pi / 6.0), -8.25 * math.sin(math.pi / 6.0), 116.5
)
DMR_PRE = euler.prim_to_cons_2d(1.4, 0.0, 0.0, 1.0)


def _dmr_ic(x, y):
    behind = x[:, None] < 1.0 / 6.0 + y[None, :] / bdy.SQRT3
    return np.where(behind[..., None], DMR_POST, DMR_PRE)


STEP_INFLOW = euler.prim_to_cons_2d(1.4, 3.0, 0.0, 1.0)


def _step_ic(x, y):
    return np.broadcast_to(STEP_INFLOW, (x.size, y.size, 4)).copy()


GAMMA_RT = 5.0 / 3.0


def _rayleigh_taylor_ic(x, y):
    yy = y[None, :] + 0.0 * x[:, None]
    lower = yy < 0.5
    rho = np.where(lower, 2.0, 1.0)
    p = np.where(lower, 2.0 * yy + 1.0, yy + 1.5)
    c = np.sqrt(GAMMA_RT * p / rho)
    v = -0.025 * c * np.cos(8.0 * np.pi * x[:, None]) + 0.0 * yy
    return euler.prim_to_cons_2d(rho, np.zeros_like(rho), v, p, GAMMA_RT)


def rt_source(q, gamma):
    """Gravity-like forcing (0, 0, rho, rho v) for the instability run."""
    s = np.zeros_like(q)
    s[..., 2] = q[..., 0]
    s[..., 3] = q[..., 2]
    return s


SOD = RiemannStates(1.0, 0.0, 1.0, 0.125, 0.0, 0.1)
LAX = RiemannStates(0.445, 0.698, 3.528, 0.5, 0.0, 0.571)
ONE23 = RiemannStates(1.0, -2.0, 0.4, 1.0, 2.0, 0.4)
DOUBLE_RAREFACTION = RiemannStates(7.0, -1.0, 0.2, 7.0, 1.0, 0.2)

_TRANSMISSIVE_1D = bdy.Boundary1D("transmissive", "transmissive")


def _tube_spec(name, states, bounds, t_final):
    return ProblemSpec(
        name=name, bounds=bounds, resolution=(200,), t_final=t_final,
        ic=_tube_ic(states), boundary=_TRANSMISSIVE_1D,
        reference=("exact_riemann", states),
    )


def _build_registry():
    step = bdy.ForwardStepBoundary(inflow=STEP_INFLOW)
    specs = [
        ProblemSpec(
            name="advection", bounds=(-1.0, 1.0), resolution=(200,),
            t_final=8.0, ic=lambda x: advection_profile(x)[:, None],
            boundary=bdy.Boundary1D("periodic", "periodic"),
            reference=("closed_form",),
        ),
        _tube_spec("sod", SOD, (-5.0, 5.0), 2.0),
        _tube_spec("lax", LAX, (-5.0, 5.0), 1.3),
        _tube_spec("123", ONE23, (-5.0, 5.0), 1.0),
        _tube_spec("double-rarefaction", DOUBLE_RAREFACTION, (-1.0, 1.0), 0.6),
        ProblemSpec(
            name="shock-entropy-k5", bounds=(-5.0, 5.0), resolution=(200,),
            t_final=2.0, ic=_shock_entropy_ic(5.0), boundary=_TRANSMISSIVE_1D,
            reference=("weno5m_fine", 2000),
        ),
        ProblemSpec(
            name="shock-entropy-k10", bounds=(-5.0, 5.0), resolution=(400,),
            t_final=2.0, ic=_shock_entropy_ic(10.0), boundary=_TRANSMISSIVE_1D,
            reference=("weno5m_fine", 2000),
        ),
        ProblemSpec(
            name="blast", bounds=(0.0, 1.0), resolution=(400,), t_final=0.038,
            ic=_blast_ic,
            boundary=bdy.Boundary1D("reflective", "reflective"),
            reference=("weno5m_fine", 4000),
        ),
        ProblemSpec(
            name="riemann2d", bounds=(0.0, 1.0, 0.0, 1.0),
            resolution=(400, 400), t_final=0.8,
            ic=_riemann2d_ic, boundary=bdy.Boundary2D(),
        ),
        ProblemSpec(
            name="dmr", bounds=(0.0, 4.0, 0.0, 1.0), resolution=(800, 200),
            t_final=0.2, ic=_dmr_ic,
            boundary=bdy.DoubleMachBoundary(post=DMR_POST, pre=DMR_PRE),
        ),
        ProblemSpec(
            name="step", bounds=(0.0, 3.0, 0.0, 1.0), resolution=(480, 160),
            t_final=4.0, ic=_step_ic,
            boundary=step, solid=step.solid,
        ),
        ProblemSpec(
            name="rayleigh-taylor", bounds=(0.0, 0.25, 0.0, 1.0),
            resolution=(200, 800), t_final=2.95, gamma=GAMMA_RT,
            ic=_rayleigh_taylor_ic,
            # reflecting side walls, fixed states below and above
            boundary=bdy.Boundary2D(
                "reflective", "reflective",
                ("dirichlet", euler.prim_to_cons_2d(2.0, 0.0, 0.0, 1.0, GAMMA_RT)),
                ("dirichlet", euler.prim_to_cons_2d(1.0, 0.0, 0.0, 2.5, GAMMA_RT)),
            ),
            source=rt_source,
        ),
    ]
    return specs


_REGISTRY = {spec.name: spec for spec in _build_registry()}


def registry():
    """All benchmark specs, in registration order."""
    return list(_REGISTRY.values())


def get(name):
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown problem {name!r}; known: {known}") from None


def make_grid(spec, ng, nx=None, ny=None):
    """Padded grid with the initial data, plus boundary and source.

    nx/ny override the canonical resolution (reduced-cost runs, reference
    runs, convergence studies); ny is ignored on a line."""
    res = tuple(r if o is None else int(o)
                for o, r in zip((nx, ny), spec.resolution))
    _check_resolution(spec.name, res)
    origin, ends = spec.bounds[0::2], spec.bounds[1::2]
    q0 = np.asarray(spec.ic(*map(driver.cell_centers, origin, ends, res)),
                    dtype=float)
    u = np.zeros(tuple(n + 2 * ng for n in res) + q0.shape[-1:])
    u[(slice(ng, -ng),) * len(res)] = q0
    spacing = ((b - a) / n for a, b, n in zip(origin, ends, res))
    grid_type = driver.Grid1D if len(res) == 1 else driver.Grid2D
    grid = grid_type(u, *spacing, ng, *origin, gamma=spec.gamma)
    if spec.solid is not None:
        grid.solid = spec.solid(grid)
    return grid, spec.boundary, spec.source
