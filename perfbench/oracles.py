"""Correctness oracles that are written apart from the program.

Nothing here imports `wenocad.benchmarks.riemann`: the exact Riemann
solution is found by plain bisection on the pressure function (Toro,
Riemann Solvers and Numerical Methods for Fluid Dynamics, ch. 4) so that
a fault in the program's Newton solver cannot hide in its own reference.
Every check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import math

import numpy as np

BISECTION_STEPS = 200


def _side_flux(p, rho, pk, gamma):
    """Velocity jump across the left or right wave at star pressure p."""
    c = math.sqrt(gamma * pk / rho)
    if p > pk:
        a = 2.0 / ((gamma + 1.0) * rho)
        b = (gamma - 1.0) / (gamma + 1.0) * pk
        return (p - pk) * math.sqrt(a / (p + b))
    return 2.0 * c / (gamma - 1.0) * ((p / pk) ** ((gamma - 1.0) / (2.0 * gamma)) - 1.0)


def star_state(left, right, gamma):
    """Star pressure and velocity of primitive states (rho, u, p)."""
    (rl, ul, pl), (rr, ur, pr) = left, right

    def f(p):
        return _side_flux(p, rl, pl, gamma) + _side_flux(p, rr, pr, gamma) + ur - ul

    lo, hi = 1e-14, max(pl, pr)
    while f(hi) < 0.0:
        hi *= 2.0
    if f(lo) > 0.0:
        raise ValueError("Riemann data generates a vacuum")
    for _ in range(BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    p = 0.5 * (lo + hi)
    u = 0.5 * (ul + ur) + 0.5 * (_side_flux(p, rr, pr, gamma) - _side_flux(p, rl, pl, gamma))
    return p, u


def exact_density(left, right, gamma, x, t, x0=0.0):
    """Exact density of the Riemann problem sampled at points x, time t."""
    p, u = star_state(left, right, gamma)
    g1 = (gamma - 1.0) / (gamma + 1.0)
    out = np.empty(len(x))
    for i, xi in enumerate(x):
        s = (xi - x0) / t
        # reflect the right-hand problem onto the left: x -> -x, u -> -u
        if s <= u:
            rho, uk, pk, sgn = left[0], left[1], left[2], 1.0
        else:
            rho, uk, pk, sgn = right[0], -right[1], right[2], -1.0
            s = -s
        us = sgn * u
        ck = math.sqrt(gamma * pk / rho)
        if p > pk:  # shock
            shock = uk - ck * math.sqrt((gamma + 1.0) / (2.0 * gamma) * p / pk
                                        + (gamma - 1.0) / (2.0 * gamma))
            out[i] = rho if s <= shock else rho * (p / pk + g1) / (g1 * p / pk + 1.0)
        else:  # rarefaction
            cs = ck * (p / pk) ** ((gamma - 1.0) / (2.0 * gamma))
            if s <= uk - ck:
                out[i] = rho
            elif s >= us - cs:
                out[i] = rho * (p / pk) ** (1.0 / gamma)
            else:
                out[i] = rho * (2.0 / (gamma + 1.0)
                                + g1 / ck * (uk - s)) ** (2.0 / (gamma - 1.0))
    return out


def euler_flux(rho, u, p, gamma):
    e = p / (gamma - 1.0) + 0.5 * rho * u * u
    return np.array([rho * u, rho * u * u + p, u * (e + p)])


def l1(num, ref, dx):
    return float(np.sum(np.abs(num - ref)) * dx)


def tube_conservation(total0, total_t, t, left, right, gamma, tol=1e-11):
    """total(t) = total(0) + t (F(U_L) - F(U_R)) per component, valid
    while no wave has reached either end of the tube."""
    want = total0 + t * (euler_flux(*left, gamma) - euler_flux(*right, gamma))
    scale = np.abs(total0) + t * np.abs(euler_flux(*left, gamma)) + 1.0
    err = np.abs(total_t - want) / scale
    return [f"conservation defect {err.max():.2e} > {tol:g}"] if err.max() > tol else []


def closed_conservation(total0, total_t, components, tol=1e-12):
    """Exact conservation of the named components between reflective walls."""
    out = []
    for k in components:
        err = abs(total_t[k] - total0[k]) / abs(total0[k])
        if err > tol:
            out.append(f"component {k} drifted by {err:.2e} > {tol:g}")
    return out


def mirror_symmetry(q, tol=1e-13):
    """x <-> y mirror of a square 2D state: rho = rho^T, m_x = m_y^T, E = E^T."""
    scale = np.abs(q).max()
    pairs = ((0, 0), (1, 2), (3, 3))
    defect = max(np.abs(q[..., a] - q[..., b].T).max() for a, b in pairs) / scale
    return [f"mirror-symmetry defect {defect:.2e} > {tol:g}"] if defect > tol else []


def positive_and_finite(rho, p):
    if not (np.all(np.isfinite(rho)) and np.all(np.isfinite(p))):
        return ["non-finite density or pressure"]
    if rho.min() <= 0.0 or p.min() <= 0.0:
        return [f"non-positive state: min rho {rho.min():.3e}, min p {p.min():.3e}"]
    return []


def convex_weights(w, label, tol=1e-12):
    """Weights are finite, non-negative and sum to one."""
    if not np.all(np.isfinite(w)):
        return [f"{label}: non-finite weights"]
    if w.min() < 0.0:
        return [f"{label}: negative weight {w.min():.3e}"]
    err = np.abs(w.sum(axis=-1) - 1.0).max()
    return [f"{label}: weights sum off one by {err:.2e}"] if err > tol else []


def gradient_check(value_fn, grads, arrays, rng, coords=12, h=1e-6, tol=1e-4):
    """Analytic gradient against central differences on random coordinates.

    `value_fn(k, idx, delta)` returns the loss with entry idx of parameter
    array k moved by delta."""
    out = []
    gmax = max(float(np.abs(g).max()) for g in grads)
    for c in range(coords):
        k = c % len(arrays)
        idx = tuple(int(rng.integers(0, d)) for d in arrays[k].shape)
        fd = (value_fn(k, idx, h) - value_fn(k, idx, -h)) / (2.0 * h)
        got = float(grads[k][idx])
        scale = max(abs(fd), abs(got), 1e-6 * gmax)
        if abs(got - fd) / scale > tol:
            out.append(f"gradient of array {k} at {idx}: analytic {got:.8e}, "
                       f"central difference {fd:.8e}")
    return out
