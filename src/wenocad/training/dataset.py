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

The set is a fixed function of the seed: one PCG64 stream makes the draws in
the order of a loop over the samples, smooth functions first.  A smooth
function's draws (its coefficients, ten window centres from `choice`, ten
mirror flags from one `integers(2, size=10)`, which returns what ten single
calls would) are made one function at a time, because `choice` rejects a
varying number of words; its windows and labels are then formed family by
family, with the operations of the per-sample formulas in the same order.
The jump samples draw in a fixed pattern, so their values are decoded from
one block of raw 64-bit words by the rules numpy follows for PCG64:
`uniform(lo, hi)` takes a whole word w as `lo + (hi - lo) * ((w >> 11) *
2**-53)`; `integers(2)` is the top bit of the next uint32; and a uint32 call
takes a new word's low half and keeps its high half for the next uint32
call, across any calls in between, which take whole words and leave the
kept half alone.  The generator ends in the state the per-sample calls
leave.
"""

from __future__ import annotations

import math
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


# the draw calls of one jump sample, in order: True for integers(2), False
# for a uniform value
_STEP_CALLS = (False, False, True)   # c0, c1, flip
_RAMP_CALLS = (True, False, True)    # slope, d, flip


def _jump_draws(rng, n_step, n_ramp):
    """Decode the jump samples' draws from one block of raw PCG64 words.

    Gives what the per-sample calls would: for each step uniform(-10, 10,
    size=2) and integers(2), then for each ramp integers(2), uniform(0.5,
    2.5) and integers(2), as levels (n_step, 2), ramps (n_ramp, 2) of (slope,
    d) and flips (n_step + n_ramp,), and leaves the generator in the state
    those calls would.
    """
    bitgen = rng.bit_generator
    if not isinstance(bitgen, np.random.PCG64):
        raise TypeError(f"needs a PCG64 bit generator, not {type(bitgen).__name__}")
    start = bitgen.state
    is_bit = np.concatenate([np.tile(_STEP_CALLS, n_step), np.tile(_RAMP_CALLS, n_ramp)])
    n_bits = int(np.count_nonzero(is_bit))
    # the j-th integers(2) takes a new word's low half when j + has_uint32 is
    # even, and otherwise the high half kept from the word before
    fresh = (np.arange(n_bits) + start["has_uint32"]) % 2 == 0
    takes_word = ~is_bit
    takes_word[is_bit] = fresh
    words = bitgen.random_raw(int(np.count_nonzero(takes_word)))
    word_at = np.cumsum(takes_word) - 1
    u = (words[word_at[~is_bit]] >> 11) * 2.0**-53
    # a bit's word is the one the latest fresh bit took; before the first,
    # the half kept before this call stands as the high half of word -1
    src = np.maximum.accumulate(np.where(fresh, word_at[is_bit], -1))
    src_words = np.concatenate([[np.uint64(start["uinteger"] << 32)], words])[src + 1]
    bits = ((src_words >> np.where(fresh, np.uint64(31), np.uint64(63))) & 1).astype(bool)

    end = bitgen.state
    end["has_uint32"] = (start["has_uint32"] + n_bits) % 2
    if n_bits:
        end["uinteger"] = int(src_words[-1] >> 32)
    bitgen.state = end

    # uniform(lo, hi) is lo + (hi - lo) * u
    levels = (-10.0 + 20.0 * u[:2 * n_step]).reshape(n_step, 2)
    ramp_bits = bits[n_step:].reshape(n_ramp, 2)
    ramps = np.stack([np.where(ramp_bits[:, 0], 1.0, -1.0),
                      0.5 + 2.0 * u[2 * n_step:]], axis=1)
    flips = np.concatenate([bits[:n_step], ramp_bits[:, 1]])
    return levels, ramps, flips


def generate_dataset(seed=0):
    rng = np.random.default_rng(seed)
    n_cubic, n_wave, n_step, n_ramp = FAMILY_COUNTS
    families = np.repeat(np.arange(len(FAMILY_COUNTS), dtype=np.uint8), FAMILY_COUNTS)
    kinds = np.repeat(np.array(FAMILY_KINDS, dtype=np.uint8), FAMILY_COUNTS)

    # one loop iteration per smooth function: choice's rejection sampling
    # draws a varying number of words
    n = WINDOWS_PER_SMOOTH_FN
    n_poly, n_fn = n_cubic // n, (n_cubic + n_wave) // n
    a = np.empty((n_poly, 4))
    b = np.empty(n_fn - n_poly)
    idx = np.empty((n_fn, n), dtype=np.intp)     # third point of each window
    mirrored = np.empty((n_fn, n), dtype=bool)
    centers = np.arange(2, _GRID.size - 1)
    for f in range(n_fn):
        if f < n_poly:
            a[f] = rng.uniform(-1.0, 1.0, size=4)
        else:
            b[f - n_poly] = rng.uniform(2.0, 20.0)
        idx[f] = rng.choice(centers, size=n, replace=False)
        mirrored[f] = rng.integers(2, size=n)

    values = np.empty((n_fn, _GRID.size))
    a0, a1, a2, a3 = a.T[:, :, None]
    values[:n_poly] = a0 + a1 * _GRID + a2 * _GRID**2 + a3 * _GRID**3
    b_tanh, b_pi = b[0::2, None], b[1::2, None] * np.pi
    values[n_poly::2] = np.tanh(b_tanh * _GRID)
    values[n_poly + 1::2] = np.sin(b_pi * _GRID)
    windows = np.take_along_axis(
        values, (idx[:, :, None] + _WINDOW_OFFSETS).reshape(n_fn, -1), axis=1)
    smooth = windows.reshape(-1, 4)
    flat_mirrored = mirrored.ravel()
    smooth[flat_mirrored] = smooth[flat_mirrored, ::-1]

    # the analytic derivative at the third point, or for a mirrored window
    # at its forward window's second point with the sign flipped
    x = _GRID[idx - mirrored]
    slopes = np.empty((n_fn, n))
    slopes[:n_poly] = a1 + 2.0 * a2 * x[:n_poly] + 3.0 * a3 * x[:n_poly] * x[:n_poly]
    # the per-sample label squared a numpy scalar, which rounds like libm pow
    # (math.pow); array ** 2 is c * c, which differs in a few labels a seed
    cosh = np.cosh(b_tanh * x[n_poly::2])
    slopes[n_poly::2] = b_tanh / np.reshape(
        [math.pow(c, 2.0) for c in cosh.ravel().tolist()], cosh.shape)
    slopes[n_poly + 1::2] = b_pi * np.cos(b_pi * x[n_poly + 1::2])
    np.negative(slopes, out=slopes, where=mirrored)

    levels, ramps, flips = _jump_draws(rng, n_step, n_ramp)
    x = _GRID[_JUMP_WINDOW]
    jumps = np.concatenate([
        np.where(x > 0.0, levels[:, 1:], levels[:, :1]),
        ramps[:, :1] * x + ramps[:, 1:] * (x > 0.0),
    ])
    jumps[flips] = jumps[flips, ::-1]

    stencils = np.concatenate([smooth, jumps])
    labels = np.concatenate([slopes.ravel(), (jumps[:, 2] - jumps[:, 1]) / DX])
    assert stencils.shape[0] == families.size
    return Dataset(stencils, labels, kinds, families, seed)
