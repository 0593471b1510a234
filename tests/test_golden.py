"""Golden outputs: short runs of the classical schemes, pinned bit for bit.

Each case pins the sha256 of the final interior state, the step count and
the positivity-fallback counters.  Refactors of the sweep, the forward-Euler
piece or the systems must reproduce them exactly.  Only classical weights
appear: the neural schemes go through BLAS matrix products, whose rounding
depends on the machine.
"""

import hashlib

import numpy as np
import pytest

from wenocad import cli
from wenocad import reconstruction as rec
from wenocad.benchmarks import problems
from wenocad.solvers import driver

# (problem, scheme, nx, ny, t_final or None for the canonical time,
#  steps, fallback stages, fallback cells, sha256 of the interior state)
CASES = [
    ("advection", "weno3-z", 80, None, 0.5, 50, 0, 0,
     "226da6cd0f5ff2cda92cd90f018acd6e9a0399181fef69445a505d95ac8c8d00"),
    ("advection", "weno5-js", 80, None, 0.5, 50, 0, 0,
     "0a9c9eeb046cc1d9ff6fcff3c697cd88f586e77aedc4063cd0bc03ac13b7a5e8"),
    # the 1D fallback fires
    ("123", "weno3-linear", 100, None, None, 69, 129, 272,
     "9dc5f69bc8141342ba5b4dae22c5850b4193bb2f6973ac96ce05503cf935a33f"),
    ("sod", "weno3-js", 100, None, None, 108, 0, 0,
     "b544fe8d2577e9a71be3b96e99a6b93b0edbd1ef40f099a9aaab56a199b435de"),
    ("blast", "weno5-js", 100, None, 0.01, 123, 0, 0,
     "a51ab2a0506e94d8037b7a8e401d8e6f00b958fcad326c9e83e19b1b61534015"),
    # the 2D fallback fires
    ("riemann2d", "weno3-linear", 40, 40, None, 361, 956, 8647,
     "b43054bd7a06ee749cc22663dc8756c2a0d85aac0c2bfc30b51af710eeeb052e"),
    # custom boundary fills; the step adds a solid mask
    ("dmr", "weno5-m", 64, 16, 0.02, 17, 0, 0,
     "d87ddb2e4a53432a711eda2da3af2eee162f950794fdb82a48eb2f514a701b43"),
    ("step", "weno3-z", 48, 16, 0.2, 51, 0, 0,
     "ea0b6c7c5559d30bc9254b03b8bd61b9ec4ab8f79567a2beec76434b71b8d35d"),
    # gravity source term
    ("rayleigh-taylor", "weno3-js", 12, 48, 0.3, 148, 0, 0,
     "85820292eb9b0e9be4b4795a00fdb265347faddf708904d861fea6ccc3ae2e92"),
]


@pytest.mark.parametrize(
    "problem, scheme, nx, ny, t_final, steps, stages, cells, digest", CASES,
    ids=[f"{c[0]}-{c[1]}" for c in CASES])
def test_golden_run(problem, scheme, nx, ny, t_final, steps, stages, cells,
                    digest):
    spec = problems.get(problem)
    strategy = cli.load_strategy(scheme)
    grid, bc, source = problems.make_grid(spec, rec.ghost_width(strategy),
                                          nx=nx, ny=ny)
    result = driver.advance(grid, bc, strategy, t_final or spec.t_final,
                            source=source)
    state = np.ascontiguousarray(grid.interior, dtype=np.float64)
    assert (result.steps, result.fallback_stages, result.fallback_cells) == (
        steps, stages, cells)
    assert hashlib.sha256(state.tobytes()).hexdigest() == digest
