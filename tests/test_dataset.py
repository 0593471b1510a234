"""Training-set construction: family counts, labels, determinism."""

import hashlib

import numpy as np
import pytest

from wenocad import weights as wt
from wenocad.training import dataset as wdata


def jump_label(stencil4):
    """(v_R - v_L) / dx across the jump between the middle pair."""
    return float((stencil4[2] - stencil4[1]) / wdata.DX)


def per_sample_dataset(seed):
    """The training set built one sample at a time, the reference for the
    batched `generate_dataset`: (stencils, labels)."""
    rng = np.random.default_rng(seed)
    grid, n = wdata._GRID, wdata.WINDOWS_PER_SMOOTH_FN
    n_cubic, n_wave, n_step, n_ramp = wdata.FAMILY_COUNTS
    stencils, labels = [], []

    def smooth(values, fprime):
        for i in rng.choice(np.arange(2, grid.size - 1), size=n, replace=False):
            window = values[i - 2 : i + 2]
            if rng.integers(2):
                stencils.append(window[::-1])
                labels.append(wdata.smooth_label(fprime, grid[i - 1], True))
            else:
                stencils.append(window)
                labels.append(wdata.smooth_label(fprime, grid[i], False))

    for _ in range(n_cubic // n):
        a = rng.uniform(-1.0, 1.0, size=4)
        smooth(a[0] + a[1] * grid + a[2] * grid**2 + a[3] * grid**3,
               lambda x: a[1] + 2.0 * a[2] * x + 3.0 * a[3] * x * x)
    for k in range(n_wave // n):
        b = rng.uniform(2.0, 20.0)
        if k % 2 == 0:
            smooth(np.tanh(b * grid), lambda x: b / np.cosh(b * x) ** 2)
        else:
            smooth(np.sin(b * np.pi * grid),
                   lambda x: b * np.pi * np.cos(b * np.pi * x))
    x = grid[wdata._JUMP_WINDOW]
    for k in range(n_step + n_ramp):
        if k < n_step:
            c0, c1 = rng.uniform(-10.0, 10.0, size=2)
            window = np.where(x > 0.0, c1, c0)
        else:
            slope = 1.0 if rng.integers(2) else -1.0
            window = slope * x + rng.uniform(0.5, 2.5) * (x > 0.0)
        if rng.integers(2):
            window = window[::-1]
        stencils.append(window)
        labels.append(jump_label(window))
    return np.array(stencils), np.array(labels)


class TestComposition:
    def test_family_counts(self):
        data = wdata.generate_dataset(seed=0)
        assert wdata.FAMILY_NAMES == ("cubic", "wave", "step", "ramp")
        assert data.counts() == (3920, 7880, 8000, 4000)
        assert data.counts() == wdata.FAMILY_COUNTS
        assert len(data) == 23800

    def test_shapes_and_finiteness(self):
        data = wdata.generate_dataset(seed=0)
        assert data.stencils.shape == (23800, 4)
        assert data.labels.shape == (23800,)
        assert np.all(np.isfinite(data.stencils))
        assert np.all(np.isfinite(data.labels))

    def test_kinds_follow_families(self):
        data = wdata.generate_dataset(seed=0)
        smooth = np.isin(data.families, [0, 1])
        assert np.all(data.kinds[smooth] == wdata.KIND_SMOOTH)
        assert np.all(data.kinds[~smooth] == wdata.KIND_JUMP)

    def test_deterministic(self):
        a = wdata.generate_dataset(seed=5)
        b = wdata.generate_dataset(seed=5)
        np.testing.assert_array_equal(a.stencils, b.stencils)
        np.testing.assert_array_equal(a.labels, b.labels)
        c = wdata.generate_dataset(seed=6)
        assert not np.array_equal(a.stencils, c.stencils)

    @pytest.mark.parametrize("seed, digests", [
        (0, ("3041ef1909c4d5c9829329b1ad6402766d61316398ade180d8209990595c0205",
             "5bc1a09ae938e18e35e4a35138030e5073adabdba080662160b32b28cdbbfe83")),
        (5, ("75e644f26e9209fd0b7529639a2bcb1db7891f37babd4ada43d15d35142b7fbe",
             "8ac4a02a635892a1d7ad046dfec1dbab7c428d143663889e1e0cd8fdee13f00d")),
    ])
    def test_arrays_are_pinned(self, seed, digests):
        # sha256 of the bytes of stencils, labels, kinds and families, taken
        # from the per-sample generator; seed 5 made the bundled weights
        data = wdata.generate_dataset(seed=seed)
        got = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in
                    (data.stencils, data.labels, data.kinds, data.families))
        assert got == digests + (
            "35cfb2b03d1f6299297bedb4254a6a4b24b948626a2e185b3a8a649ca3966bdd",
            "940841c181922671ededcba2712126f2df2b7e8f396fd8c5022344bd5da91568")

    @pytest.mark.parametrize("seed", [1, 7])
    def test_matches_the_per_sample_loop(self, seed):
        data = wdata.generate_dataset(seed=seed)
        stencils, labels = per_sample_dataset(seed)
        assert data.stencils.tobytes() == stencils.tobytes()
        assert data.labels.tobytes() == labels.tobytes()

    def test_kind_by_index(self):
        data = wdata.generate_dataset(seed=0)
        assert data.kinds[10] == wdata.KIND_SMOOTH      # in the cubic block
        assert data.kinds[23799] == wdata.KIND_JUMP     # the last ramp


class TestLabels:
    def test_jump_labels_are_one_sided_differences(self):
        data = wdata.generate_dataset(seed=1)
        jump = data.kinds == wdata.KIND_JUMP
        s = data.stencils[jump]
        expected = (s[:, 2] - s[:, 1]) / wdata.DX
        np.testing.assert_allclose(data.labels[jump], expected, rtol=1e-12)

    def test_cubic_labels_match_linear_weight_derivative(self):
        """The two-candidate blend with the optimal pair is exact through
        cubics, so on the cubic family the conservative difference built
        from linear weights must reproduce the labels to round-off."""
        data = wdata.generate_dataset(seed=1)
        cubic = data.families == 0
        lin = np.array(wt.LINEAR3)
        for s4, label in zip(data.stencils[cubic][:300],
                             data.labels[cubic][:300]):
            hl0, hl1 = -0.5 * s4[0] + 1.5 * s4[1], 0.5 * s4[1] + 0.5 * s4[2]
            hr0, hr1 = -0.5 * s4[1] + 1.5 * s4[2], 0.5 * s4[2] + 0.5 * s4[3]
            deriv = ((lin[0] * hr0 + lin[1] * hr1)
                     - (lin[0] * hl0 + lin[1] * hl1)) / wdata.DX
            assert abs(deriv - label) < 1e-8 * max(1.0, abs(label))


class TestWindows:
    def test_window_spacing_consistent_with_dx(self):
        """Smooth windows sample consecutive grid points: for the wave
        family the second differences stay bounded by (b pi dx)^2 at the
        largest wavenumber b = 20, never jump-scale."""
        data = wdata.generate_dataset(seed=3)
        wave = data.families == 1
        s = data.stencils[wave]
        second = np.abs(s[:, 0] - 2.0 * s[:, 1] + s[:, 2])
        assert second.max() < 2.0 * (20.0 * np.pi * wdata.DX) ** 2

    def test_step_windows_jump_between_middle_pair(self):
        """A step window holds two constants, so the outer differences
        vanish exactly and the middle one carries the whole jump."""
        data = wdata.generate_dataset(seed=3)
        s = data.stencils[data.families == 2]
        d = np.diff(s, axis=1)
        np.testing.assert_array_equal(d[:, 0], 0.0)
        np.testing.assert_array_equal(d[:, 2], 0.0)
        labels = data.labels[data.families == 2]
        np.testing.assert_allclose(d[:, 1], labels * wdata.DX, rtol=1e-12)

    def test_ramp_windows_jump_dominates_slope(self):
        """Ramp windows slope by exactly dx per cell with the offset jump
        in the middle difference, at least 0.5 - dx in magnitude."""
        data = wdata.generate_dataset(seed=3)
        s = data.stencils[data.families == 3]
        d = np.diff(s, axis=1)
        np.testing.assert_allclose(np.abs(d[:, 0]), wdata.DX, rtol=1e-12)
        np.testing.assert_allclose(np.abs(d[:, 2]), wdata.DX, rtol=1e-12)
        assert np.abs(d[:, 1]).min() > 0.5 - wdata.DX - 1e-12
