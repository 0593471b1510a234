"""The network on its whole input domain, gridded rather than sampled.

A stencil whose two raw differences are both at least EPS_DELTA_MOD has,
in exact arithmetic, the features (1, rho, 1 + rho, 1 - rho) when its
left difference is the larger and the data are monotone, (1, rho,
1 - rho, 1 + rho) at an extremum, and the same with the first two
swapped when the right difference is the larger, for rho in [0, 1].  So
the unclamped domain is four curves.  The clamps add small patches:

- one difference clamped: (1, a, 1 +- b, 1 -+ b) with 0 <= b < a <= 1,
  and its mirror;
- both clamped: (1, 1, u + v, |u - v|) and (1, 1, |u - v|, u + v) with
  u, v in [0, 1).

`domain_stencils` grids all of it as stencils, and the features are
formed from them by `modified_delta_array`, as in the solvers.  On that
grid every weight pair must be finite and convex; the reversal defect,
max |w(reversed s) - flip(w(s))|, is pinned per bundled network; and the
thresholds of test_06 hold at the line point and at the one-sided limits.
"""

import numpy as np
import pytest

from wenocad import cli, network
from wenocad.weights import EPS_DELTA_MOD, LINEAR3, flip_weights_array

CURVE_NODES = 4097
PATCH_NODES = 129


def domain_stencils():
    """Stencils (m, 3) of the four feature curves, with CURVE_NODES values
    of rho each, and of the clamp patches, with PATCH_NODES values per
    parameter: {"curves": ..., "patches": ...}.  Each region holds every
    stencil's reversal too."""
    rho = np.linspace(0.0, 1.0, CURVE_NODES)
    zero = np.zeros_like(rho)
    # left difference 1, right difference rho of either sign
    curves = np.concatenate([np.stack([1.0 + rho, rho, zero], axis=1),
                             np.stack([1.0 - rho, -rho, zero], axis=1)])

    t = np.linspace(0.0, 1.0, PATCH_NODES)
    above, below = np.tril_indices(PATCH_NODES, -1)
    a, b = t[above], t[below]
    # left difference EPS / a >= EPS, right difference +-b EPS / a < EPS
    scale = EPS_DELTA_MOD / a
    zero = np.zeros_like(a)
    single = [np.stack([scale, zero, sign * b * scale], axis=1)
              for sign in (1.0, -1.0)]
    # both differences below EPS: u EPS on the left, +-v EPS on the right
    u, v = (g.ravel() * EPS_DELTA_MOD for g in np.meshgrid(t[:-1], t[:-1]))
    zero = np.zeros_like(u)
    both = [np.stack([u, zero, sign * v], axis=1) for sign in (1.0, -1.0)]
    patches = np.concatenate(single + both)
    return {name: np.concatenate([s, s[:, ::-1]])
            for name, s in (("curves", curves), ("patches", patches))}


@pytest.fixture(scope="module")
def grid():
    return domain_stencils()


PARAMS = {
    "weno3-cadnn1": lambda: cli.load_strategy("weno3-cadnn1").params,
    "weno3-cadnn2": lambda: cli.load_strategy("weno3-cadnn2").params,
    "init-0": lambda: network.init_params(0),
    "init-1": lambda: network.init_params(1),
    "init-2": lambda: network.init_params(2),
}


@pytest.mark.parametrize("name", PARAMS)
def test_weights_are_finite_and_convex(grid, name):
    params = PARAMS[name]()
    for region, stencils in grid.items():
        w = network.forward_array(params, stencils)
        assert np.all(np.isfinite(w)), region
        assert np.all(w >= 0.0), region
        assert np.max(np.abs(w.sum(axis=1) - 1.0)) <= 2.3e-16, region


# The largest reversal defect of each bundled network on this grid.  The
# curves' maximum lies on the monotone curve at rho = 0.113; 200 000
# standard-normal stencils find the same value.  The patches' lies at a
# one-clamped stencil whose smaller difference is 0, features
# (1, 0.1016, 1, 1), far from the one-sided limit (1, 0, 1, 1) that the
# curves reach.
DEFECTS = {
    "weno3-cadnn1": {"curves": 2.041e-2, "patches": 0.2336},
    "weno3-cadnn2": {"curves": 2.035e-2, "patches": 0.2333},
}


@pytest.mark.parametrize("name", DEFECTS)
def test_reversal_defect_is_pinned(grid, name):
    params = PARAMS[name]()
    got = {}
    for region, stencils in grid.items():
        w = network.forward_array(params, stencils)
        w_reversed = network.forward_array(params, stencils[:, ::-1])
        got[region] = np.max(np.abs(w_reversed - flip_weights_array(w)))
    for region, pinned in DEFECTS[name].items():
        assert got[region] == pytest.approx(pinned, rel=2.5e-4), region


@pytest.mark.parametrize("name", DEFECTS)
def test_design_targets_at_the_line_and_the_one_sided_limits(name):
    # test_06's thresholds: a line, features (1, 1, 2, 0), stays within
    # 0.05 of the linear weights; at rho = 0 the candidate that straddles
    # the jump, on the left and on the right, gets less than 0.05
    params = PARAMS[name]()
    line, left, right = network.forward_array(
        params, np.array([[2.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
    assert np.max(np.abs(line - LINEAR3)) <= 0.05
    assert left[0] < 0.05
    assert right[1] < 0.05
