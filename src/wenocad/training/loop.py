"""Mini-batch training loop for the neural weighting function.

Everything downstream of the seed is deterministic: parameter
initialization and the per-epoch shuffles draw from one PCG64 stream, and
batches reduce in a fixed order, so two runs with the same configuration
produce bit-identical parameter trajectories.
"""

from __future__ import annotations

import logging
import math
import time
from concurrent import futures
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from .. import workers
from ..network import backward_trace, forward_trace, init_params
from .dataset import generate_dataset
from .loss import (
    Batch,
    feature_blocks,
    prepare,
    total_loss,
    total_loss_and_gradient,
)
from .optim import adamw_init, adamw_step

log = logging.getLogger(__name__)

# Prior-fit blend window, as a ratio of adjacent-difference magnitudes.
# Below PRIOR_RATIO_LO the prior keeps the linear weights; above
# PRIOR_RATIO_HI it fully selects the smoother substencil; in between it
# interpolates linearly in log ratio.
PRIOR_RATIO_LO = 5.0
PRIOR_RATIO_HI = 40.0


# Configuration-file names of the Hyperparams fields that differ from them.
_CONFIG_NAMES = {"hyper_c": "c", "hyper_d": "d"}
_LEAST = {"batch_size": 1, "epochs": 1, "seed": 0, "pretrain_epochs": 0,
          "pretrain_batch": 1, "hyper_c": 0, "hyper_d": 0, "weight_decay": 0}
_ABOVE = {"lr": 0, "pretrain_lr": 0}


@dataclass
class Hyperparams:
    """Training settings; the fields and defaults of a configuration file."""

    hyper_c: float
    hyper_d: float
    lr: float = 1e-4
    weight_decay: float = 0.01
    batch_size: int = 200
    epochs: int = 500
    seed: int = 0
    pretrain_epochs: int = 100
    pretrain_lr: float = 1e-3
    pretrain_batch: int = 400

    def __post_init__(self):
        for f in fields(self):
            key = _CONFIG_NAMES.get(f.name, f.name)
            value = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value!r}")
            least = _LEAST.get(f.name)
            if least is not None and value < least:
                raise ValueError(f"{key} must be at least {least}, got {value!r}")
            above = _ABOVE.get(f.name)
            if above is not None and value <= above:
                raise ValueError(f"{key} must be above {above}, got {value!r}")


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    l_cad: float
    l_sym: float
    l_ln: float
    total: float


def selection_prior(stencils):
    """Target weight pairs encoding the classical ENO selection principle.

    On resolved data the linear pair (1/3, 2/3) recovers the third-order
    upwind flux, so the prior keeps it wherever the two adjacent
    differences are comparable.  When one difference dominates by more
    than PRIOR_RATIO_HI the window is treated as discontinuous and all
    weight goes to the substencil avoiding the jump, the smoothest-
    substencil selection of Harten et al., J. Comput. Phys. 71 (1987).
    The transition is linear in the log of the difference ratio.  The
    arithmetic runs in place in three arrays of one value per stencil and
    writes the pairs into one (n, 2) array.
    """
    s = np.atleast_2d(np.asarray(stencils, dtype=float))
    d1 = np.abs(s[:, 1] - s[:, 0])
    d2 = np.abs(s[:, 2] - s[:, 1])
    left = d1 > d2
    hi = np.maximum(d1, d2)
    lo = np.minimum(d1, d2, out=d1)
    # the ratio hi / lo, inf where lo is 0 and 1 where hi is 0, then the
    # blend, in the buffer of d2
    ratio = d2
    ratio.fill(np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(hi, lo, out=ratio, where=lo > 0.0)
        ratio[hi == 0.0] = 1.0
        blend = np.log(ratio, out=ratio)
    blend -= np.log(PRIOR_RATIO_LO)
    blend /= np.log(PRIOR_RATIO_HI) - np.log(PRIOR_RATIO_LO)
    np.clip(blend, 0.0, 1.0, out=blend)
    # w0 = (1 - blend) / 3 + blend * w0_eno, w0_eno 0 where d1 > d2, else 1
    out = np.empty((len(s), 2))
    w0 = np.subtract(1.0, blend, out=out[:, 0])
    w0 /= 3.0
    blend *= ~left
    w0 += blend
    np.subtract(1.0, w0, out=out[:, 1])
    return out


def _batches(n, batch_size, rng):
    """One epoch's mini-batches: row indices of a fresh shuffle of n rows,
    cut into n // bs batches of bs = min(batch_size, n)."""
    bs = min(batch_size, n)
    perm = rng.permutation(n)
    for b in range(n // bs):
        yield perm[b * bs : (b + 1) * bs]


def _prior_targets(stencils):
    """The prior's weights for the feature rows that `prepare` forms from
    the stencils (N, 4): one (4N, 2) array, filled one block of
    `loss.feature_blocks` at a time from views of the stencils."""
    targets = np.empty((4 * len(stencils), 2))
    for rows, s in zip(np.split(targets, 4), feature_blocks(stencils)):
        rows[...] = selection_prior(s)
    return targets


def train(hyper, dataset=None, log_every=0):
    """Train from scratch; returns (best parameters, per-epoch history).

    Training has two phases: a prior-fit phase of ``pretrain_epochs``
    epochs that moves the randomly initialized network onto the classical
    selection prior of :func:`selection_prior`, then ``epochs`` epochs of
    mini-batch descent on the full objective.  A cold-started network
    almost always descends into a minimum whose transition from linear to
    one-sided weights sits at difference ratios near one, over-dissipating
    marginally resolved smooth data, because the jump families dominate
    the early gradient; starting from the prior instead lands the main
    phase in the basin where smooth windows keep near-linear weights.

    The dataset is prepared once (`loss.prepare`), and both phases gather
    their mini-batches from that one copy.  The prior's targets are the
    weights of :func:`selection_prior` for the stencils of its feature
    rows.  They are formed after the first evaluation has started, one
    block of `loss.feature_blocks` at a time, from views of the stencils
    and into one array, so that neither a second stencil set nor the
    prior's temporaries for the whole set are alive beside the prepared
    data; the targets are freed when the prior fit ends.

    The history holds one row per epoch of either phase, each evaluated
    on the whole dataset with the full objective, preceded by a row for
    the initial state, so ``history[0]`` is the loss of the untrained
    network.  The returned parameters are the checkpoint with the lowest
    full-dataset total loss during the main phase, the first on ties, with
    the hyperparameters, seed, and that loss recorded in the metadata.  A
    non-finite loss term or total, of a mini-batch or of the whole
    dataset, raises the FloatingPointError of the loss that names it; a
    non-finite network layer raises NetworkEvalError.

    Nothing in an epoch reads the full-dataset loss of the one before, so
    each epoch's loss is a job of `workers`, from a copy of the
    parameters: on its worker thread it runs while the next epoch
    descends, and on one CPU inline.  The results are taken in epoch
    order, each just before the next evaluation is submitted, so the
    history and the checkpoint have the same bits either way, and a
    non-finite evaluation raises at most one epoch later.  Every way out
    of this function waits for the outstanding evaluation first.  With
    ``log_every``, every log_every-th main epoch logs one line when its
    evaluation is taken: the loss terms, the seconds of its descent and
    the gradient norm of its last mini-batch.
    """
    if dataset is None:
        dataset = generate_dataset(hyper.seed)
    rng = np.random.default_rng(hyper.seed)
    params = init_params(hyper.seed, hyper.hyper_c, hyper.hyper_d, rng=rng)

    full = prepare(Batch(dataset.stencils, dataset.labels))
    history = []
    best = None
    best_total = np.inf
    # the one evaluation submitted and not yet taken:
    # (epoch, parameter snapshot, log figures or None, future)
    pending = None

    def take():
        nonlocal pending, best, best_total
        epoch, snapshot, figures, job = pending
        pending = None
        bd = job.result()
        stats = EpochStats(epoch, bd.l_cad, bd.l_sym, bd.l_ln, bd.total)
        history.append(stats)
        if epoch > hyper.pretrain_epochs and stats.total < best_total:
            best_total = stats.total
            best = snapshot
        if figures is not None:
            log.info(
                "epoch %4d  l_cad %.6g  l_sym %.6g  l_ln %.6g  total %.6g"
                "  %.3f s  |grad| %.6g",
                stats.epoch, stats.l_cad, stats.l_sym, stats.l_ln, stats.total,
                *figures,
            )

    def evaluate(epoch, figures=None):
        """Take the outstanding evaluation, then start that of the
        parameters at the end of `epoch`."""
        nonlocal pending
        if pending is not None:
            take()
        snapshot = params.copy()
        job = workers.submit(total_loss, snapshot, full, hyper.hyper_c, hyper.hyper_d)
        pending = (epoch, snapshot, figures, job)

    try:
        evaluate(0)
        if hyper.pretrain_epochs > 0:
            targets = _prior_targets(dataset.stencils)
            state = adamw_init(params)
            for epoch in range(hyper.pretrain_epochs):
                # least squares toward the prior
                for idx in _batches(len(targets), hyper.pretrain_batch, rng):
                    trace = forward_trace(params, full.features[idx])
                    domega = trace.omega - targets[idx]
                    domega *= 2.0
                    domega /= idx.size
                    grads = backward_trace(params, trace, domega)
                    adamw_step(params, grads, state, hyper.pretrain_lr, 0.0)
                # the epoch's 4N-row permutation is not kept under its
                # evaluation, nor the targets under the main phase
                del idx
                evaluate(epoch + 1)
            del targets

        state = adamw_init(params)
        for epoch in range(hyper.epochs):
            start = time.perf_counter()
            for idx in _batches(len(dataset), hyper.batch_size, rng):
                _, grads = total_loss_and_gradient(
                    params, full.take(idx), hyper.hyper_c, hyper.hyper_d
                )
                adamw_step(params, grads, state, hyper.lr, hyper.weight_decay)
            figures = None
            if log_every and (epoch + 1) % log_every == 0:
                figures = (time.perf_counter() - start,
                           math.sqrt(sum(float(np.vdot(g, g)) for g in grads)))
            evaluate(hyper.pretrain_epochs + epoch + 1, figures)
        take()
    finally:
        if pending is not None:
            futures.wait([pending[-1]])

    best.training_loss = float(best_total)
    return best, history


def write_history(history, path):
    """Loss history as CSV with columns epoch,l_cad,l_sym,l_ln,total."""
    with open(path, "w") as fh:
        fh.write("epoch,l_cad,l_sym,l_ln,total\n")
        for s in history:
            fh.write(f"{s.epoch},{s.l_cad!r},{s.l_sym!r},{s.l_ln!r},{s.total!r}\n")


_CASTS = {"float": float, "int": int}


def read_train_config(path):
    """Parse a key = value training configuration file.

    The keys are the Hyperparams fields, with c and d for hyper_c and
    hyper_d, plus out (the weight-file path) and history (the loss CSV
    path).  c, d and out are required; the other fields default as in
    Hyperparams.  '#' starts a comment.  A key without a value, a key
    given twice and a history path naming the out file are errors.
    """
    by_key = {_CONFIG_NAMES.get(f.name, f.name): f for f in fields(Hyperparams)}
    casts = {key: _CASTS[f.type] for key, f in by_key.items()}
    casts.update(out=str, history=str)
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, _, val = line.partition("=")
            key = key.strip().lower()
            val = val.strip()
            if key not in casts:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if key in values:
                raise ValueError(f"{path}:{lineno}: key {key!r} given twice")
            if not val:
                raise ValueError(f"{path}:{lineno}: key {key!r} has no value")
            values[key] = casts[key](val)
    required = [key for key, f in by_key.items() if f.default is MISSING]
    for req in required + ["out"]:
        if req not in values:
            raise ValueError(f"{path}: missing required key {req!r}")
    out, history = values["out"], values.get("history")
    if history and Path(history).resolve() == Path(out).resolve():
        raise ValueError(f"{path}: history names the out file {out!r}")
    hyper = Hyperparams(**{f.name: values[key] for key, f in by_key.items()
                           if key in values})
    return hyper, out, history
