"""Finite-difference WENO solvers with a trainable weighting function.

The package bundles classical third- and fifth-order WENO schemes, a small
feedforward network that replaces the nonlinear weighting step of the
third-order scheme, the machinery to train that network on conservative
derivative data, and a benchmark driver covering standard 1D and 2D gas
dynamics test problems.
"""

from .errors import (
    BoundaryError,
    DimensionError,
    NetworkEvalError,
    ParamsDimensionError,
    ParamsFormatError,
    ParamsVersionError,
    PositivityError,
    RiemannConvergenceError,
    TrainingDivergedError,
)
from .network import (
    NetworkParams,
    forward_array,
    init_params,
    load_params,
    save_params,
)
from .reconstruction import (
    Linear3,
    Linear5,
    NeuralWeighting3,
    Weno3JS,
    Weno3Z,
    Weno5JS,
    Weno5M,
    interface_fluxes,
    lax_friedrichs_split,
)
from .weights import DeltaFeatures, delta_layer, modified_delta_layer

__version__ = "0.1.0"
