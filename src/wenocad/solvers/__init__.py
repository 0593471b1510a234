"""Grids, ghost-cell boundaries, Euler flux algebra, and the time driver."""
