"""Ghost-cell filling.

Generic per-side conditions (periodic, transmissive, reflective,
dirichlet) cover the shock tubes and the plain 2D problems; the double
Mach reflection and the forward-facing step carry their own fill objects
because parts of their boundaries are state- and time-dependent
(Woodward and Colella, JCP 54, 115-173 (1984)).

All fills mutate the padded state array in place.  Reflective walls
mirror the ghost layers and flip the sign of the normal momentum
component.  Two-dimensional sweeps are dimension-by-dimension, so corner
ghosts never enter a stencil and are filled only incidentally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import BoundaryError

SQRT3 = np.sqrt(3.0)


def _side_tag(spec):
    if isinstance(spec, str):
        return spec, None
    if isinstance(spec, tuple) and len(spec) == 2 and spec[0] == "dirichlet":
        return "dirichlet", np.asarray(spec[1], dtype=float)
    raise BoundaryError(f"unknown boundary spec {spec!r}")


def _fill_axis(a, ng, lo_spec, hi_spec, flip_comp):
    """Fill both ghost bands of `a` along its first axis."""
    lo, lo_state = _side_tag(lo_spec)
    hi, hi_state = _side_tag(hi_spec)
    if (lo == "periodic") != (hi == "periodic"):
        raise BoundaryError("periodic boundaries come in pairs")
    if lo == "periodic":
        n = a.shape[0] - 2 * ng
        a[:ng] = a[n : n + ng]
        a[-ng:] = a[ng : 2 * ng]
        return
    # the high side is the low side of the reversed axis
    for b, tag, state in ((a, lo, lo_state), (a[::-1], hi, hi_state)):
        if tag == "transmissive":
            b[:ng] = b[ng]
        elif tag == "reflective":
            b[:ng] = b[ng : 2 * ng][::-1]
            if flip_comp is not None:
                b[:ng, ..., flip_comp] *= -1.0
        elif tag == "dirichlet":
            b[:ng] = state
        else:
            raise BoundaryError(f"unknown boundary tag {tag!r}")


@dataclass(frozen=True)
class Boundary1D:
    left: object = "transmissive"
    right: object = "transmissive"


@dataclass(frozen=True)
class Boundary2D:
    x_lo: object = "transmissive"
    x_hi: object = "transmissive"
    y_lo: object = "transmissive"
    y_hi: object = "transmissive"


def fill_ghosts_1d(grid, bc, t=0.0):
    if hasattr(bc, "fill"):
        bc.fill(grid, t)
        return grid
    flip = 1 if grid.u.shape[-1] >= 3 else None
    _fill_axis(grid.u, grid.ng, bc.left, bc.right, flip)
    return grid


def fill_ghosts_2d(grid, bc, t=0.0):
    if hasattr(bc, "fill"):
        bc.fill(grid, t)
        return grid
    _fill_axis(grid.u, grid.ng, bc.x_lo, bc.x_hi, 1)
    _fill_axis(grid.u.swapaxes(0, 1), grid.ng, bc.y_lo, bc.y_hi, 2)
    return grid


@dataclass
class DoubleMachBoundary:
    """An oblique Mach 10 shock crossing a reflecting wall.

    Left inflow and the wall-ahead part of the bottom hold the post-shock
    state; the bottom is a reflecting wall from the shock foot x0 = 1/6
    onward; the top tracks the exact shock position
    x = x0 + (1 + 20 t) / sqrt(3); the right edge is outflow.
    """

    post: np.ndarray
    pre: np.ndarray
    x0: float = 1.0 / 6.0

    def fill(self, grid, t):
        u, ng = grid.u, grid.ng
        u[:ng] = self.post
        u[-ng:] = u[-ng - 1]

        v = u.swapaxes(0, 1)
        v[:ng] = v[ng : 2 * ng][::-1]
        v[:ng, ..., 2] *= -1.0
        ahead = grid.x_padded < self.x0
        u[ahead, :ng] = self.post

        shock_x = self.x0 + (1.0 + 20.0 * t) / SQRT3
        behind = grid.x_padded < shock_x
        u[behind, -ng:] = self.post
        u[~behind, -ng:] = self.pre


@dataclass
class ForwardStepBoundary:
    """Wind tunnel with a step: inflow left, outflow right, walls
    elsewhere, and a reflecting solid block whose upstream corner sits at
    (corner_x, corner_y).

    Solid cells within reach of a stencil are mirrored from the adjacent
    fluid; the remaining block interior holds the inflow state, which
    keeps vectorized sweeps finite there (those values never feed back
    into fluid cells).  The fill order writes the vertical face first and
    the horizontal face second, so the corner overlap takes the
    horizontal-face reflection.
    """

    inflow: np.ndarray
    corner_x: float = 0.6
    corner_y: float = 0.2

    def fill(self, grid, t):
        u, ng = grid.u, grid.ng
        u[:ng] = self.inflow
        u[-ng:] = u[-ng - 1]

        v = u.swapaxes(0, 1)
        _fill_axis(v, ng, "reflective", "reflective", 2)

        iw = int(np.searchsorted(grid.x_padded, self.corner_x))  # first solid column
        jw = int(np.searchsorted(grid.y_padded, self.corner_y))  # first fluid row above
        band = slice(0, jw)

        u[iw:, band] = self.inflow
        for k in range(ng):
            u[iw + k, band] = u[iw - 1 - k, band]
            u[iw + k, band, 1] *= -1.0
        for k in range(ng):
            u[iw:, jw - 1 - k] = u[iw:, jw + k]
            u[iw:, jw - 1 - k, 2] *= -1.0


def solid_step_mask(grid, corner_x=0.6, corner_y=0.2):
    """Boolean mask of physical cells inside the step block."""
    x = grid.x_centers
    y = grid.y_centers
    return (x[:, None] > corner_x) & (y[None, :] < corner_y)
