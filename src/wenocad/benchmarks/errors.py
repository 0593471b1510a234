"""Error metrics between a numerical profile and its reference."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DimensionError


@dataclass(frozen=True)
class ErrorReport:
    pointwise: np.ndarray
    l1: float
    linf: float
    x_max: float | None = None

    def __post_init__(self):
        assert self.linf == np.max(self.pointwise)


def error_report(numerical, reference, dx=1.0, x=None):
    """Pointwise |difference|, L1 = sum |diff| dx, and the location of the
    largest error."""
    numerical = np.asarray(numerical, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if numerical.shape != reference.shape:
        raise DimensionError(
            f"shape mismatch {numerical.shape} vs {reference.shape}"
        )
    diff = np.abs(numerical - reference)
    x_max = None
    if x is not None and diff.ndim == 1:
        x_max = float(np.asarray(x, dtype=float)[np.argmax(diff)])
    return ErrorReport(
        pointwise=diff,
        l1=float(np.sum(diff) * dx),
        linf=float(np.max(diff)),
        x_max=x_max,
    )
