"""Spans around the program's public module functions, kept in memory.

`Tracer.install()` replaces module attributes with wrappers that record
(name, start, end, parent) for every call and count the work each call
does; `uninstall()` puts the originals back.  Only names that callers look
up at call time are replaced, so the program itself is not edited.  The
program must already be importable (`bench.py` puts `src/` on the path).  A
span's self time is its duration minus the durations of its direct
children; calls never overlap because every workload is single-threaded.
"""

from __future__ import annotations

import math
from array import array
from time import perf_counter_ns

import numpy as np

from wenocad import cli, network
from wenocad import reconstruction as rec
from wenocad import weights as wt
from wenocad.benchmarks import reference
from wenocad.solvers import boundary, driver, euler
from wenocad.training import dataset, loop


def _lead(a):
    """Number of stencils in an array whose last axis is the stencil."""
    return math.prod(np.shape(a)[:-1])


def _sweep_work(fp, fm, strategy):
    """Stencils of one `interface_fluxes` call and the bytes of the arrays it
    materializes: stacked plus/minus windows, candidates and the blends."""
    shape = np.shape(fp)
    w = strategy.stencil_width
    n = (shape[0] - 2 * rec.ghost_width(strategy) + 1) * math.prod(shape[1:])
    k = 2 if w == 3 else 3  # candidate stencils
    return {"reconstruction.stencils": 2 * n,
            "reconstruction.bytes_computed": 8 * n * (2 * w + 2 * k + 3)}


def _kernel_work(s, *_):
    n = _lead(s)
    w = np.shape(s)[-1]
    k = 2 if w == 3 else 3
    return {"weights.stencils": n, "weights.bytes_computed": 8 * n * (w + k)}


def _forward_work(params, s):
    return {"network.stencils": _lead(s)}


def targets():
    """(module, attribute, span name, work counter) for every traced call."""
    return [
        (boundary, "fill_ghosts_1d", "boundary.fill", None),
        (boundary, "fill_ghosts_2d", "boundary.fill", None),
        (euler, "euler_flux_1d", "euler.flux", None),
        (euler, "euler_flux_2d_x", "euler.flux", None),
        (euler, "euler_flux_2d_y", "euler.flux", None),
        (euler, "max_wave_speed_1d", "euler.wave_speed", None),
        (euler, "max_wave_speed_2d", "euler.wave_speed", None),
        (euler, "cons_to_prim_1d", "euler.cons_to_prim", None),
        (euler, "cons_to_prim_2d", "euler.cons_to_prim", None),
        (rec, "lax_friedrichs_split", "reconstruction.split", None),
        (rec, "interface_fluxes", "reconstruction.sweep", _sweep_work),
        (rec, "candidate_fluxes3", "reconstruction.candidates", None),
        (rec, "candidate_fluxes5", "reconstruction.candidates", None),
        (wt, "js_weights_array", "weights.kernel", _kernel_work),
        (wt, "z_weights_array", "weights.kernel", _kernel_work),
        (wt, "js5_weights_array", "weights.kernel", _kernel_work),
        (network, "modified_delta_array", "network.features", None),
        (network, "gelu", "network.gelu", None),
        (network, "gelu_prime", "network.gelu_prime", None),
        (network, "softmax", "network.softmax", None),
        (network, "forward_trace", "network.forward", _forward_work),
        (network, "backward_trace", "network.backward", None),
        (loop, "forward_trace", "network.forward", _forward_work),
        (loop, "backward_trace", "network.backward", None),
        (driver, "advance", "driver.advance", None),
        (driver, "rk3_step", "driver.rk3", None),
        (loop, "total_loss_and_gradient", "loss.grad", None),
        (loop, "total_loss", "loss.eval", None),
        (loop, "adamw_step", "optim.adamw", None),
        (loop, "train", "loop.train", None),
        (dataset, "generate_dataset", "dataset.generate", None),
        (reference, "reference_solution", "reference.solution", None),
        (cli, "load_strategy", "cli.load_strategy", None),
    ]


class Tracer:
    def __init__(self):
        self._targets = targets()
        self.names = sorted({t[2] for t in self._targets})
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.counts = {}
        self._stack = []
        self._saved = []

    def _wrap(self, fn, nid, work):
        name, start, end, parent = self.name, self.start, self.end, self.parent
        stack, counts = self._stack, self.counts

        def traced(*args, **kwargs):
            if work is not None:
                for key, v in work(*args, **kwargs).items():
                    counts[key] = counts.get(key, 0) + v
            i = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(i)
            start.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = perf_counter_ns()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for mod, attr, span, work in self._targets:
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, self.names.index(span), work))

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def mark(self):
        """Position in the span record, for summarizing a slice of it."""
        return len(self.start), dict(self.counts)

    def summary(self, since=(0, {})):
        """Per span name: calls, total seconds and self seconds, plus the
        work counters, over the spans recorded after `since`."""
        lo, counts0 = since
        name = np.array(self.name, dtype=np.uint16)[lo:]
        start = np.array(self.start, dtype=np.int64)[lo:]
        end = np.array(self.end, dtype=np.int64)[lo:]
        parent = np.array(self.parent, dtype=np.int64)[lo:] - lo
        dur = (end - start).astype(float) * 1e-9
        inner = parent >= 0
        child = np.bincount(parent[inner], weights=dur[inner], minlength=dur.size)
        own = dur - child
        k = len(self.names)
        out = {
            "calls": dict(zip(self.names, np.bincount(name, minlength=k).tolist())),
            "total_s": dict(zip(self.names, np.bincount(name, weights=dur, minlength=k).tolist())),
            "self_s": dict(zip(self.names, np.bincount(name, weights=own, minlength=k).tolist())),
            "spans": int(dur.size),
        }
        out["counts"] = {key: v - counts0.get(key, 0) for key, v in self.counts.items()}
        return out

    def save(self, path):
        np.savez_compressed(
            path, names=np.array(self.names), name=np.array(self.name, dtype=np.uint16),
            start_ns=np.array(self.start, dtype=np.int64),
            end_ns=np.array(self.end, dtype=np.int64),
            parent=np.array(self.parent, dtype=np.int64))
