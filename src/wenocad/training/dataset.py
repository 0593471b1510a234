"""Synthetic four-point stencils with exact conservative-derivative labels.

Functions are sampled on [-1, 1] with spacing 0.01 and cut into four-point
windows (v_{i-2}, v_{i-1}, v_i, v_{i+1}).  A smooth window is labeled with
the analytic derivative at its third point; with probability one half the
window is stored mirrored, which is the same as sampling the reflected
function and labels the reversed traversal with the opposite sign.

Four families make up the set:

    cubic polynomials   sum a_k x^k,  a_k ~ U[-1, 1]          3920 samples
    waves               tanh(b x) and sin(b pi x), b ~ U[2, 20] 7880 samples
    steps               c0 (x <= 0) + c1 (x > 0), c ~ U[-10, 10] 8000 samples
    ramps with a jump   +-x + d (x > 0), d ~ U[0.5, 2.5]        4000 samples

Each discontinuous function contributes exactly one window, the one whose
middle pair straddles the jump; its label is the divided difference
(v_R - v_L) / dx of the two values bordering the jump, which the exact
single-sided reconstruction reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DX = 0.01
DOMAIN = (-1.0, 1.0)

KIND_SMOOTH = 0
KIND_JUMP = 1

FAMILY_NAMES = ("cubic", "wave", "step", "ramp")
FAMILY_COUNTS = (3920, 7880, 8000, 4000)
FAMILY_KINDS = (KIND_SMOOTH, KIND_SMOOTH, KIND_JUMP, KIND_JUMP)
WINDOWS_PER_SMOOTH_FN = 10

# centered so the point x = 0 is exact and the step families split cleanly
_HALF = round(DOMAIN[1] / DX)
_GRID = DX * np.arange(-_HALF, _HALF + 1)
_JUMP_WINDOW = slice(_HALF - 1, _HALF + 3)  # grid points (-0.01, 0, 0.01, 0.02)
_WINDOW_OFFSETS = np.arange(-2, 2)           # a window around its third point


def smooth_label(fprime, x, mirrored=False):
    """Analytic derivative at the labeled point.

    The forward window is labeled at its third point; a mirrored window is
    labeled at the forward window's second point, and because mirroring
    reverses the traversal direction the derivative flips sign.
    """
    d = float(fprime(x))
    return -d if mirrored else d


@dataclass
class Dataset:
    stencils: np.ndarray   # (n, 4)
    labels: np.ndarray     # (n,)
    kinds: np.ndarray      # (n,) KIND_SMOOTH / KIND_JUMP
    families: np.ndarray   # (n,) index into FAMILY_NAMES
    seed: int

    def __len__(self):
        return self.stencils.shape[0]

    def counts(self):
        return tuple(int(np.sum(self.families == k)) for k in range(len(FAMILY_NAMES)))


def _smooth_windows(rng, values, fprime, n_windows, out_sten, out_lab, pos):
    # third-point index ranges over the interior of the sampled grid
    idx = rng.choice(np.arange(2, _GRID.size - 1), size=n_windows, replace=False)
    mirrored = np.array([rng.integers(2) for _ in idx], dtype=bool)
    windows = values[idx[:, None] + _WINDOW_OFFSETS]
    windows[mirrored] = windows[mirrored, ::-1]
    end = pos + n_windows
    out_sten[pos:end] = windows
    # a mirrored window is labeled at its forward window's second point
    out_lab[pos:end] = [smooth_label(fprime, _GRID[i], m)
                        for i, m in zip(idx - mirrored, mirrored)]
    return end


def generate_dataset(seed=0):
    rng = np.random.default_rng(seed)
    n_cubic, n_wave, n_step, n_ramp = FAMILY_COUNTS
    families = np.repeat(np.arange(len(FAMILY_COUNTS), dtype=np.uint8), FAMILY_COUNTS)
    kinds = np.repeat(np.array(FAMILY_KINDS, dtype=np.uint8), FAMILY_COUNTS)
    stencils = np.empty((families.size, 4))
    labels = np.empty(families.size)

    pos = 0
    for _ in range(n_cubic // WINDOWS_PER_SMOOTH_FN):
        a = rng.uniform(-1.0, 1.0, size=4)
        values = a[0] + a[1] * _GRID + a[2] * _GRID**2 + a[3] * _GRID**3
        fprime = lambda x: a[1] + 2.0 * a[2] * x + 3.0 * a[3] * x * x
        pos = _smooth_windows(rng, values, fprime, WINDOWS_PER_SMOOTH_FN,
                              stencils, labels, pos)

    for k in range(n_wave // WINDOWS_PER_SMOOTH_FN):
        b = rng.uniform(2.0, 20.0)
        if k % 2 == 0:
            values = np.tanh(b * _GRID)
            fprime = lambda x: b / np.cosh(b * x) ** 2
        else:
            values = np.sin(b * np.pi * _GRID)
            fprime = lambda x: b * np.pi * np.cos(b * np.pi * x)
        pos = _smooth_windows(rng, values, fprime, WINDOWS_PER_SMOOTH_FN,
                              stencils, labels, pos)

    # one draw call per value, in the order of a loop over the samples: a
    # batched rng.integers serves two values from one 64-bit draw, which
    # would change the stream.  The windows are built from the draws after.
    levels = np.empty((n_step, 2))       # c0, c1
    ramps = np.empty((n_ramp, 2))        # slope, d
    flips = np.empty(n_step + n_ramp, dtype=bool)
    for k in range(n_step):
        levels[k] = rng.uniform(-10.0, 10.0, size=2)
        flips[k] = rng.integers(2)
    for k in range(n_ramp):
        ramps[k, 0] = 1.0 if rng.integers(2) else -1.0
        ramps[k, 1] = rng.uniform(0.5, 2.5)
        flips[n_step + k] = rng.integers(2)
    x = _GRID[_JUMP_WINDOW]
    windows = np.concatenate([
        np.where(x > 0.0, levels[:, 1:], levels[:, :1]),
        ramps[:, :1] * x + ramps[:, 1:] * (x > 0.0),
    ])
    windows[flips] = windows[flips, ::-1]
    stencils[pos:] = windows
    labels[pos:] = (windows[:, 2] - windows[:, 1]) / DX
    pos += windows.shape[0]

    assert pos == families.size
    return Dataset(stencils, labels, kinds, families, seed)
