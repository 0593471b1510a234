"""Finite-difference WENO solvers with a trainable weighting function.

The package bundles classical third- and fifth-order WENO schemes, a small
feedforward network that replaces the nonlinear weighting step of the
third-order scheme, the machinery to train that network on conservative
derivative data, and a benchmark driver covering standard 1D and 2D gas
dynamics test problems.
"""

__version__ = "0.1.0"
