"""The neural weighting function: a small dense network in plain numpy.

Architecture: the clamped normalized-difference features of a three-point
stencil (4 inputs) pass through two GELU hidden layers of 16 units into a
softmax pair, which is used directly as the convex reconstruction weights
(w0, w1).  Feeding differences rather than raw values makes the weights
invariant under adding a constant to the stencil, and (away from the
clamps) under rescaling it.

`forward_features` is the inference pass, which keeps no layer.  The
solvers' sweep calls it on features formed on its rows of split fluxes
(`reconstruction.NeuralWeighting3.row_weights`); `forward_array` is the
same pass on stencils (..., 3).  `forward_trace` is the training pass; it also
starts from feature rows, which training computes once for its whole
dataset, and keeps every layer, including the normal CDF Phi of each
hidden layer, for `backward_trace`.  The two passes evaluate the same
expressions in the same order, so their weights agree bit for bit.  Both
check only their output for finiteness; on a failure `forward_trace`
then looks for the first non-finite layer to name it.

Every stencil of constant data has the feature row (1, 1, 0, 0), which
is taken from the feature map itself, and uniform states make such rows
a large share of a solver's batch.  When a batch holds more than two rows
with exactly those features, `forward_features` runs the dense and
softmax layers on the other rows plus one of them and copies its weights
to the rest.  With two or fewer such rows the whole batch is evaluated
as it is.

A row gets the same weights, bit for bit, in every batch: the dense
layers' matrix-matrix kernel gives a row a result that does not depend
on the rows beside it (OpenBLAS 0.3.31, batches of 2 to 3333 rows at
several offsets), and `_dense` takes it for a batch of one row too.  The
compression, the 1D sweep's joined halves and training's chunked loss
rely on this.

GELU's erf is SciPy's compiled ufunc.  The module loads it from the
extension that defines it, `scipy.special._special_ufuncs`, found by file
path next to SciPy's package, so a process that needs only erf does not
run the `scipy.special` package, which loads about 300 more modules and
adds 23 MB to the peak memory.  The extension is registered under its
qualified name, so `erf` is the object that `scipy.special.erf` names,
whichever module is imported first.  Where `scipy.special` is already
loaded, or the extension or its ufunc is not found, `erf` comes from
`from scipy.special import erf`.

`NetworkParams` is its parameters' flat vector, which the optimizer
updates in one pass and a checkpoint copies in one; its six layer arrays
are read-only views of it.  Parameters are stored as a versioned JSON
file together with the training metadata, written with shortest
round-trip floats so save/load reproduces every entry bit for bit.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from .errors import (
    NetworkEvalError,
    ParamsDimensionError,
    ParamsFormatError,
    ParamsVersionError,
)
from .weights import modified_delta_array

FORMAT_VERSION = 1

_UFUNCS = "scipy.special._special_ufuncs"


def _compiled_erf():
    """SciPy's erf ufunc from the extension module that defines it, loaded
    by its file path so that the `scipy.special` package does not run, or
    None when `scipy.special` is already loaded or the extension, its
    module or a ufunc `erf` in it is not found.

    The module is registered under its qualified name, so a later
    `import scipy.special` takes it from `sys.modules` and exports the very
    same ufunc.
    """
    if "scipy.special" in sys.modules:
        return None
    module = sys.modules.get(_UFUNCS)
    if module is None:
        package = importlib.util.find_spec("scipy")
        folders = (package and package.submodule_search_locations) or []
        paths = [os.path.join(folder, "special", "_special_ufuncs" + suffix)
                 for folder in folders
                 for suffix in importlib.machinery.EXTENSION_SUFFIXES]
        path = next(filter(os.path.isfile, paths), None)
        if path is None:
            return None
        spec = importlib.util.spec_from_file_location(_UFUNCS, path)
        # an extension that needs what the package's __init__ sets up,
        # such as a wheel's folder of shared libraries, fails to load here
        try:
            module = importlib.util.module_from_spec(spec)
            sys.modules[_UFUNCS] = module
            spec.loader.exec_module(module)
        except ImportError:
            sys.modules.pop(_UFUNCS, None)
            return None
    erf = getattr(module, "erf", None)
    return erf if isinstance(erf, np.ufunc) else None


erf = _compiled_erf()
if erf is None:
    from scipy.special import erf

# The features (1, 1, 0, 0) of constant data, and of every stencil whose
# two differences are at most EPS_DELTA_MOD and whose outer points agree.
_CONSTANT_FEATURES = modified_delta_array(np.zeros(3))
_ALL_EQUAL = np.array([True] * 4).view(np.int32)[0]

_SQRT2 = np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


def _normal_cdf(x):
    """Phi(x) = (1 + erf(x / sqrt 2)) / 2 of a float array, as a new array."""
    phi = np.divide(x, _SQRT2, out=np.empty_like(x))
    erf(phi, out=phi)
    phi += 1.0
    phi *= 0.5
    return phi


def _gelu_prime(x, phi):
    """Phi(x) + x phi(x), given Phi(x), as a new array: the operations of
    phi + x / sqrt(2 pi) * exp(-0.5 x x), in place in one buffer."""
    g = np.multiply(x, -0.5)
    g *= x
    np.exp(g, out=g)
    g *= x * _INV_SQRT2PI
    g += phi
    return g


def gelu(x):
    """Exact Gaussian error linear unit, x * Phi(x) with the erf form.

    Halving 1 + erf is exact, so x * Phi(x) rounds like 0.5 x (1 + erf).
    """
    x = np.asarray(x, dtype=float)
    return x * _normal_cdf(x)


def gelu_prime(x):
    """d/dx gelu(x) = Phi(x) + x phi(x)."""
    x = np.asarray(x, dtype=float)
    return _gelu_prime(x, _normal_cdf(x))


def softmax(z):
    """Softmax along the last axis, with max subtraction.

    Works column by column on contiguous arrays, in the order of the
    row-wise max/exp/sum formula, and returns a C-ordered array.
    """
    z = np.asarray(z, dtype=float)
    cols = [z[..., k] for k in range(z.shape[-1])]
    top = reduce(np.maximum, cols)
    e = [np.exp(c - top) for c in cols]
    tot = reduce(np.add, e)
    out = np.empty(z.shape)
    for k, ek in enumerate(e):
        np.divide(ek, tot, out=out[..., k])
    return out


def _layer(k):
    """A read-only property: the k-th of NetworkParams.arrays()."""
    return property(lambda self: self._layers[k])


@dataclass(eq=False)
class NetworkParams:
    """Dense-layer parameters, as one flat vector, plus provenance metadata.

    The constructor copies `flat`, of shape (SIZE,), into a buffer of its
    own; the layers w1, b1, ..., b3 are read-only properties over views of
    it, laid out in `_SHAPES` order, so an optimizer updates all of them
    at once through `flat`.  Weight matrices map inputs on the right:
    z = x @ w.T + b.  Two parameter sets compare equal only when they are
    the same object; compare their `flat` arrays for their values.
    """

    flat: np.ndarray
    hyper_c: float = 0.0
    hyper_d: float = 0.0
    rng_seed: int | None = None
    training_loss: float | None = None

    _SHAPES = {
        "w1": (16, 4),
        "b1": (16,),
        "w2": (16, 16),
        "b2": (16,),
        "w3": (2, 16),
        "b3": (2,),
    }
    SIZE = sum(math.prod(shape) for shape in _SHAPES.values())

    w1, b1, w2, b2, w3, b3 = map(_layer, range(len(_SHAPES)))

    def __post_init__(self):
        self.flat = np.array(self.flat, dtype=float)
        if self.flat.shape != (self.SIZE,):
            raise ParamsDimensionError(
                f"parameters must have shape ({self.SIZE},), got {self.flat.shape}"
            )
        self._layers = LayerArrays(self.flat)

    def arrays(self):
        return list(self._layers)

    def copy(self):
        """The same parameters and metadata in a buffer of their own."""
        return replace(self)


class LayerArrays(list):
    """The layer arrays w1, b1, ..., b3, listed in the order of
    NetworkParams.arrays(), as views of one flat vector `flat`."""

    def __init__(self, flat):
        views, lo = [], 0
        for shape in NetworkParams._SHAPES.values():
            hi = lo + math.prod(shape)
            views.append(flat[lo:hi].reshape(shape))
            lo = hi
        super().__init__(views)
        self.flat = flat


def init_params(seed, hyper_c=0.0, hyper_d=0.0, rng=None):
    """Uniform [-1/sqrt(fan_in), 1/sqrt(fan_in)] weights, zero biases."""
    if rng is None:
        rng = np.random.default_rng(seed)
    mats = []
    for fan_out, fan_in in ((16, 4), (16, 16), (2, 16)):
        bound = 1.0 / np.sqrt(fan_in)
        mats.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)).ravel())
        mats.append(np.zeros(fan_out))
    return NetworkParams(
        np.concatenate(mats), hyper_c=hyper_c, hyper_d=hyper_d, rng_seed=seed
    )


@dataclass
class ForwardTrace:
    """Intermediate values of a batched forward pass, kept for backprop.

    phi1 and phi2 are the normal CDF of the hidden pre-activations z1 and
    z2, and a1 = z1 * phi1 and a2 = z2 * phi2 their activations, stored
    as the forward pass formed them.
    """

    features: np.ndarray
    z1: np.ndarray
    phi1: np.ndarray
    a1: np.ndarray
    z2: np.ndarray
    phi2: np.ndarray
    a2: np.ndarray
    z3: np.ndarray
    omega: np.ndarray


def _dense(x, w, b):
    """x @ w.T + b as a new array.  A lone row is evaluated as two copies
    of itself: numpy would hand it to BLAS's matrix-vector kernel, which
    can round differently from the matrix-matrix one."""
    if len(x) == 1:
        return _dense(x[[0, 0]], w, b)[:1]
    z = x @ w.T
    z += b
    return z


def _require_finite(name, a):
    if not np.isfinite(a).all():
        raise NetworkEvalError(f"{name} produced non-finite values")


def forward_trace(params, x):
    """Evaluate the network on feature rows x (n, 4), returning all layers.

    Raises NetworkEvalError naming the first layer whose output is not
    finite; with finite parameters that cannot happen, so it signals
    corrupted weights.  Only omega is checked on the way: a non-finite
    entry of a1 or a2 makes every product of its row in the next dense
    layer non-finite, and softmax turns a row of non-finite inputs into
    NaN, so omega is finite only where both hidden layers are.
    """
    z1 = _dense(x, params.w1, params.b1)
    phi1 = _normal_cdf(z1)
    a1 = z1 * phi1
    z2 = _dense(a1, params.w2, params.b2)
    phi2 = _normal_cdf(z2)
    a2 = z2 * phi2
    z3 = _dense(a2, params.w3, params.b3)
    omega = softmax(z3)
    if not np.isfinite(omega).all():
        for name, a in (("hidden layer 1", a1), ("hidden layer 2", a2),
                        ("output layer", omega)):
            _require_finite(name, a)
    return ForwardTrace(features=x, z1=z1, phi1=phi1, a1=a1, z2=z2,
                        phi2=phi2, a2=a2, z3=z3, omega=omega)


def _constant_rows(x):
    """Indices of the rows of x (n, 4) equal to (1, 1, 0, 0)."""
    # Outside constant data a zero last feature takes s0 - 2 s1 + s2 == 0,
    # as on a linear ramp, so that column screens the batch cheaply.
    rows = np.flatnonzero(x[:, 3] == 0.0)
    if len(rows) > 2:
        # the four equality flags of a row, one byte each, read as one
        # int32: a fraction of the cost of eq.all(axis=1)
        eq = x.take(rows, axis=0) == _CONSTANT_FEATURES
        rows = rows[eq.view(np.int32)[:, 0] == _ALL_EQUAL]
    return rows


def forward_array(params, stencils):
    """Network weights for stencils (..., 3) -> (..., 2).

    The inference pass: the features of the stencils through
    `forward_features`.
    """
    feats = modified_delta_array(stencils)
    omega = forward_features(params, feats.reshape(-1, 4))
    return omega.reshape(feats.shape[:-1] + (2,))


def forward_features(params, x):
    """Network weights (n, 2) for feature rows x (n, 4).

    The same arithmetic as `forward_trace`, done in place and keeping no
    layer; x itself is not modified.  Of three or more rows with the
    constant-data features, one is evaluated and the rest get its weights.
    Non-finite weights, which finite parameters cannot produce, raise
    NetworkEvalError.
    """
    same = _constant_rows(x)
    if len(same) > 2:
        keep = np.ones(len(x), dtype=bool)
        keep[same[1:]] = False
        keep = np.flatnonzero(keep)
        # row i of the batch takes the weights of evaluated row index[i];
        # every row before the first constant one is evaluated, so that
        # representative keeps its index
        index = np.full(len(x), same[0])
        index[keep] = np.arange(len(keep))
        x = x.take(keep, axis=0)
    for w, b in ((params.w1, params.b1), (params.w2, params.b2)):
        x = _dense(x, w, b)
        x *= _normal_cdf(x)
    omega = softmax(_dense(x, params.w3, params.b3))
    _require_finite("output layer", omega)
    if len(same) > 2:
        omega = omega.take(index, axis=0)
    return omega


def _reduce(dz, a, split, dw, db):
    """dz.T @ a into dw and the column sums of dz into db, summed over the
    parts [:split] and [split:] of the rows when split is given.

    A column sum is that of np.sum(axis=0), which on a C-ordered array
    adds the rows in order to +0.0; einsum("ij->j") adds them in the
    same order in a third of the time, for two or more columns."""
    lo = slice(None, split)
    np.matmul(dz[lo].T, a[lo], out=dw)
    np.einsum("ij->j", dz[lo], out=db)
    if split is not None:
        hi = slice(split, None)
        dw += dz[hi].T @ a[hi]
        db += np.einsum("ij->j", dz[hi])


def backward_trace(params, trace, domega, split=None):
    """Accumulate parameter gradients from d(loss)/d(omega).

    `trace` is the ForwardTrace of the same batch; `domega` has the shape
    of trace.omega.  The feature layer has no parameters, so backprop
    stops at the first dense layer.  With `split`, the rows before and
    from that index are reduced separately and their gradients added, as
    two calls on the two parts would give them.  Returns the gradients as
    LayerArrays: in the order of NetworkParams.arrays(), written into
    views of one flat vector, which the optimizer updates with directly.
    """
    grads = LayerArrays(np.empty(NetworkParams.SIZE))
    dw1, db1, dw2, db2, dw3, db3 = grads
    omega = trace.omega.reshape(-1, 2)
    dom = np.asarray(domega, dtype=float).reshape(-1, 2)
    # softmax jacobian: dz = w * (dw - <dw, w>), the dot product summed
    # as np.sum sums a row, from +0.0: (0.0 + p0) + p1, which is
    # (p0 + p1) + 0.0, as p0 + p1 is -0.0 only when both are
    dz = dom * omega
    dot = dz[:, 0] + dz[:, 1]
    dot += 0.0
    dz = np.subtract(dom, dot[:, None], out=dz)
    dz *= omega
    _reduce(dz, trace.a2, split, dw3, db3)
    dz = dz @ params.w3
    dz *= _gelu_prime(trace.z2, trace.phi2)
    _reduce(dz, trace.a1, split, dw2, db2)
    dz = dz @ params.w2
    dz *= _gelu_prime(trace.z1, trace.phi1)
    _reduce(dz, trace.features, split, dw1, db1)
    return grads


# ---------------------------------------------------------------------------
# parameter files


def save_params(params, path):
    """Write parameters and metadata as versioned JSON.

    json emits shortest round-trip representations (17 significant digits
    at most), so loading reproduces the arrays exactly.
    """
    payload = {
        "format_version": FORMAT_VERSION,
        "metadata": {
            "hyper_c": params.hyper_c,
            "hyper_d": params.hyper_d,
            "rng_seed": params.rng_seed,
            "training_loss": params.training_loss,
        },
        "layers": {
            name: np.asarray(getattr(params, name)).tolist()
            for name in NetworkParams._SHAPES
        },
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_params(path):
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParamsFormatError(f"{path}: not valid JSON ({exc})") from exc

    if not isinstance(payload, dict) or "format_version" not in payload:
        raise ParamsFormatError(f"{path}: missing format_version")
    version = payload["format_version"]
    if version != FORMAT_VERSION:
        raise ParamsVersionError(
            f"{path}: format version {version!r} not supported "
            f"(expected {FORMAT_VERSION})"
        )
    layers = payload.get("layers")
    if not isinstance(layers, dict):
        raise ParamsFormatError(f"{path}: missing layers table")

    arrays = []
    for name, shape in NetworkParams._SHAPES.items():
        if name not in layers:
            raise ParamsFormatError(f"{path}: missing layer {name}")
        try:
            a = np.array(layers[name])
        except ValueError as exc:
            raise ParamsFormatError(f"{path}: layer {name} is ragged") from exc
        if a.dtype.kind not in "iuf":
            raise ParamsFormatError(f"{path}: layer {name} has non-numeric entries")
        a = a.astype(float)
        if a.shape != shape:
            raise ParamsDimensionError(
                f"{path}: layer {name} has shape {a.shape}, expected {shape}"
            )
        if not np.all(np.isfinite(a)):
            raise ParamsFormatError(f"{path}: layer {name} has non-finite entries")
        arrays.append(a.ravel())

    meta = payload.get("metadata", {})
    if not isinstance(meta, dict):
        raise ParamsFormatError(f"{path}: metadata is not an object")
    return NetworkParams(
        np.concatenate(arrays),
        hyper_c=meta.get("hyper_c", 0.0),
        hyper_d=meta.get("hyper_d", 0.0),
        rng_seed=meta.get("rng_seed"),
        training_loss=meta.get("training_loss"),
    )
