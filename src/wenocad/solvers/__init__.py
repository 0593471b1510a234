from .euler import (
    cons_to_prim_1d,
    cons_to_prim_2d,
    euler_flux_1d,
    euler_flux_2d_x,
    euler_flux_2d_y,
    max_wave_speed_1d,
    max_wave_speed_2d,
    max_wave_speeds,
    prim_to_cons_1d,
    prim_to_cons_2d,
)
from .boundary import fill_ghosts_1d, fill_ghosts_2d
from .driver import Grid1D, Grid2D, RunResult, advance, compute_rhs, rk3_step

__all__ = [
    "Grid1D",
    "Grid2D",
    "RunResult",
    "advance",
    "compute_rhs",
    "cons_to_prim_1d",
    "cons_to_prim_2d",
    "euler_flux_1d",
    "euler_flux_2d_x",
    "euler_flux_2d_y",
    "fill_ghosts_1d",
    "fill_ghosts_2d",
    "max_wave_speed_1d",
    "max_wave_speed_2d",
    "max_wave_speeds",
    "prim_to_cons_1d",
    "prim_to_cons_2d",
    "rk3_step",
]
