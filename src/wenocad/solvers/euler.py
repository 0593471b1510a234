"""Compressible Euler equations: state conversions, fluxes, wave speeds.

Conserved variables are (rho, rho u, E) in one dimension and
(rho, rho u, rho v, E) in two, with the ideal-gas closure
E = P / (gamma - 1) + rho |velocity|^2 / 2.  All functions are pointwise
and vectorized over leading axes; the component axis comes last.  The
fluxes and the wave speeds take the primitives (rho, velocity..., P) that
`cons_to_prim_*` returns, so a solver stage converts its state once and
slices those arrays for every flux it builds.

Positivity of density and pressure is enforced where primitive variables
are recovered: a non-physical cell raises PositivityError rather than
letting NaNs spread through a run.
"""

from __future__ import annotations

import numpy as np

from ..errors import PositivityError

GAMMA_DEFAULT = 1.4


def physical(*fields):
    """Mask of the cells where every one of `fields` is finite and above 0."""
    ok = True
    for v in fields:
        ok = ok & np.isfinite(v) & (v > 0.0)
    return ok


def all_physical(*fields):
    """Whether `physical(*fields)` holds in every cell, from two reductions
    per field and no mask: NaN propagates through the minimum, which must
    be above 0, and +inf fails maximum < inf."""
    for v in fields:
        if not (np.minimum.reduce(v, axis=None, initial=np.inf) > 0.0
                and np.maximum.reduce(v, axis=None, initial=-np.inf) < np.inf):
            return False
    return True


def check_physical(context, **fields):
    """Raise PositivityError at the first cell where one of `fields` is not
    finite and above 0; the message names the cell, the context and every
    field's value there."""
    if not all_physical(*fields.values()):
        ok = np.atleast_1d(physical(*fields.values()))
        idx = tuple(int(k) for k in np.unravel_index(int(np.argmin(ok)), ok.shape))
        values = ", ".join(f"{name}={float(np.atleast_1d(v)[idx]):.3e}"
                           for name, v in fields.items())
        raise PositivityError(f"non-physical state at cell {idx} ({context}): {values}",
                              where=idx)


def prim_to_cons_1d(rho, u, p, gamma=GAMMA_DEFAULT):
    rho = np.asarray(rho, dtype=float)
    u = np.asarray(u, dtype=float)
    p = np.asarray(p, dtype=float)
    e = p / (gamma - 1.0) + 0.5 * rho * u * u
    return np.stack((rho, rho * u, e), axis=-1)


def cons_to_prim_1d(q, gamma=GAMMA_DEFAULT, check=True):
    q = np.asarray(q, dtype=float)
    rho = q[..., 0]
    u = q[..., 1] / rho
    p = (gamma - 1.0) * (q[..., 2] - 0.5 * rho * u * u)
    if check:
        check_physical("conversion", rho=rho, P=p)
    return rho, u, p


def _flux(q, prims, axis):
    """Flux along `axis` (0 = x, 1 = y) of states q with primitives
    prims = (rho, velocity..., P): (m, m velocity..., w (E + P)), where m
    and w are the momentum and the velocity along the axis, with P added
    to m w."""
    _, *velocity, p = prims
    m = q[..., 1 + axis]
    f = np.empty(np.shape(q))
    f[..., 0] = m
    for k, w in enumerate(velocity, 1):
        np.multiply(m, w, out=f[..., k])
    f[..., 1 + axis] += p
    np.add(q[..., -1], p, out=f[..., -1])
    f[..., -1] *= velocity[axis]
    return f


def euler_flux_1d(q, prims):
    """(rho u, rho u^2 + P, u (E + P)) of states q with primitives prims."""
    return _flux(q, prims, 0)


def _sound_speed(rho, p, gamma):
    """c with a transient pressure undershoot clamped to zero.

    Vacuum-adjacent stage states can dip to slightly negative pressure
    between Runge-Kutta stages; the flux itself stays finite there and
    the Lax-Friedrichs dissipation pulls the state back, so only the
    speed estimate needs guarding.  Non-positive density is a genuine
    breakdown and raises."""
    check_physical("wave speed", rho=rho)
    return np.sqrt(gamma * np.maximum(p, 0.0) / rho)


def max_wave_speeds(prims, gamma=GAMMA_DEFAULT):
    """Per velocity component, the global max |velocity| + c."""
    rho, *velocity, p = prims
    c = _sound_speed(rho, p, gamma)
    return tuple(float((np.abs(w) + c).max()) for w in velocity)


def max_wave_speed_1d(q, gamma=GAMMA_DEFAULT):
    """Global max |u| + c."""
    return max_wave_speeds(cons_to_prim_1d(q, gamma, check=False), gamma)[0]


def prim_to_cons_2d(rho, u, v, p, gamma=GAMMA_DEFAULT):
    rho = np.asarray(rho, dtype=float)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    p = np.asarray(p, dtype=float)
    e = p / (gamma - 1.0) + 0.5 * rho * (u * u + v * v)
    return np.stack((rho, rho * u, rho * v, e), axis=-1)


def cons_to_prim_2d(q, gamma=GAMMA_DEFAULT, check=True):
    q = np.asarray(q, dtype=float)
    rho = q[..., 0]
    u = q[..., 1] / rho
    v = q[..., 2] / rho
    p = (gamma - 1.0) * (q[..., 3] - 0.5 * rho * (u * u + v * v))
    if check:
        check_physical("conversion", rho=rho, P=p)
    return rho, u, v, p


def euler_flux_2d_x(q, prims):
    return _flux(q, prims, 0)


def euler_flux_2d_y(q, prims):
    return _flux(q, prims, 1)


def max_wave_speed_2d(q, gamma=GAMMA_DEFAULT):
    """Directional global speeds (max |u| + c, max |v| + c)."""
    return max_wave_speeds(cons_to_prim_2d(q, gamma, check=False), gamma)
