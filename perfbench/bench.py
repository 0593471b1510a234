"""One workload of the benchmark, in one single-threaded process.

Run by `run.py`, which pins the BLAS/OpenMP thread variables before this
process imports numpy.  The program is imported from `src/` of the
checkout that holds this file, never from an installed copy.

A run sets the workload up, then repeats whole rounds of its operations
(an operation is one solver run or one training run) until `--seconds`
would be exceeded, checking every round's outputs against the oracles in
`oracles.py`.  A fixed numpy reference kernel runs before every operation,
and each round's solve time is reported relative to the kernel's time in
that round (`solve_rel`), so that the host's speed, which drifts from one
minute to the next on a shared machine, cancels out.  With `--trace 1`
untraced and traced rounds alternate: the per-layer figures come from the
traced rounds, the tracing overhead is the traced over the untraced
relative round time, minus one.  The last line of standard output is one JSON record
that `run.py` turns into the result.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import wenocad  # noqa: E402
from wenocad import cli, network  # noqa: E402
from wenocad import reconstruction as rec  # noqa: E402
from wenocad.benchmarks import problems, reference  # noqa: E402
from wenocad.solvers import driver, euler  # noqa: E402
from wenocad.training import dataset as wdata  # noqa: E402
from wenocad.training import loop, loss  # noqa: E402

import oracles  # noqa: E402
from run import MALLOC_ENV, OUT, THREAD_VARS, WORKLOADS  # noqa: E402
from tracing import Tracer  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

CFL = driver.CFL_DEFAULT
PERTURB = 0.01          # relative size of the seed's change to each initial state
SCHEMES_1D = ("weno3-z", "weno5-js", "weno3-cadnn1", "weno3-cadnn2")
TUBES = ("sod", "lax", "123")
BLAST_SCHEMES = ("weno3-z", "weno3-cadnn2")
BLAST_SPAN = 0.002      # the fallback fires from the first steps of the blast run
N_2D = 200
# steps per scheme chosen so that each scheme takes about a third of a round
STEPS_2D = {"weno3-z": 24, "weno5-js": 8, "weno3-cadnn2": 1}
TRAIN_RECIPE = ROOT / "configs" / "cadnn2.cfg"
PRIOR_EPOCHS, MAIN_EPOCHS = 2, 3
GRAD_BATCH = 64
REFERENCE_SEED = 20250707   # the reference kernel's input never depends on --seed

END_TO_END = {"setup_s": "s", "solve_rel": "1", "peak_rss_mb": "MB"}
CONFIG = {
    **{f"ns_per_cell_step.{s}": "ns" for s in SCHEMES_1D},
    **{f"l1_density.{s}": "1" for s in SCHEMES_1D},
    "epoch_s": "s",
    "train_loss": "1",
}
LAYERS = {
    "boundary.fill_s": "s", "boundary.calls": "count",
    "euler.flux_s": "s", "euler.wave_speed_s": "s", "euler.cons_to_prim_s": "s",
    "euler.calls": "count",
    "reconstruction.split_s": "s", "reconstruction.candidates_s": "s",
    "reconstruction.sweep_self_s": "s", "reconstruction.stencils": "count",
    "reconstruction.ns_per_stencil": "ns", "reconstruction.bytes_computed": "B",
    "weights.kernel_s": "s", "weights.stencils": "count",
    "weights.ns_per_stencil": "ns", "weights.bytes_computed": "B",
    "network.features_s": "s", "network.gelu_s": "s", "network.softmax_s": "s",
    "network.forward_self_s": "s", "network.stencils": "count",
    "network.ns_per_stencil": "ns", "network.backward_s": "s",
    "network.gelu_prime_s": "s",
    "driver.steps": "count", "driver.rk3_self_s": "s", "driver.advance_self_s": "s",
    "driver.fallback_stages": "count", "driver.fallback_cells": "count",
    "driver.clean_stage_share": "1",
    "loss.grad_s": "s", "loss.eval_s": "s", "loss.batches": "count",
    "optim.adamw_s": "s", "optim.steps": "count",
    "loop.self_s": "s",
    "dataset.generate_s": "s", "reference.s": "s", "cli.load_strategy_s": "s",
    "trace.overhead_s": "s", "trace.overhead_share": "1", "trace.spans": "count",
}
PER_LAYER = {**LAYERS, **CONFIG}


def sha256(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def perturbed(rng, values):
    return [v * (1.0 + PERTURB * rng.uniform(-1.0, 1.0)) for v in values]


def windows(a, width):
    """Every `width`-point window along the first axis of a padded array."""
    m = a.shape[0] - width + 1
    return np.stack([a[k : k + m] for k in range(width)], axis=-1)


def fresh(grid0):
    return dataclasses.replace(grid0, u=grid0.u.copy())


def reference_kernel(a, reps):
    """Seconds taken by `reps` passes of a fixed WENO-like numpy computation
    (differences, smoothness, normalised weights, blend) on `a`, an array of
    shape (rows + 1, 3).  It calls nothing of the program, so a change to the
    program never changes its time; it only measures how fast the host runs
    numpy code of this kind at the moment."""
    t0 = time.perf_counter()
    for _ in range(reps):
        d = a[1:] - a[:-1]
        c = np.maximum(np.abs(d), 1e-6)
        w = 1.0 / (c * c)
        w /= w.sum(axis=-1, keepdims=True)
        (w * a[1:]).sum(axis=-1)
    return time.perf_counter() - t0


def kernel_checks(strategy, u, label):
    s = windows(u, strategy.stencil_width)
    return oracles.convex_weights(strategy.weights(s), label)


# ---------------------------------------------------------------------------
# workloads: setup(seed) builds the inputs, prepare(state) builds the oracle
# data, run(state, op) does one timed operation, check(state, op, out) and
# round_checks(outs) compare the outputs with the oracles


class Workload:
    # (rows, passes) of the reference kernel run before each operation.  Of
    # the sizes tried, a one-row array tracked tubes1d's round times best and
    # a whole 2D sweep's worth (200 x 204 rows) tracked quadrant2d's and
    # train's; the passes make the kernel about 4% of a round.
    reference = (205, 900)

    def round_checks(self, outs):
        return []


class Tubes1D(Workload):
    """sod, lax and 123 at n=200 to their final times with four schemes,
    and the reflective blast problem at n=400 over the span where the
    positivity fallback fires."""

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        strategies = {s: cli.load_strategy(s) for s in SCHEMES_1D}
        ops = []
        for name in TUBES:
            spec = problems.get(name)
            st = spec.reference[1]
            st = dataclasses.replace(st, **dict(zip(
                ("rho_l", "u_l", "p_l", "rho_r", "u_r", "p_r"),
                perturbed(rng, (st.rho_l, st.u_l, st.p_l, st.rho_r, st.u_r, st.p_r)))))
            left, right = (st.rho_l, st.u_l, st.p_l), (st.rho_r, st.u_r, st.p_r)

            def ic(x, left=left, right=right, gamma=st.gamma):
                side = x <= 0.0
                prim = [np.where(side, a, b) for a, b in zip(left, right)]
                return euler.prim_to_cons_1d(*prim, gamma)

            spec = dataclasses.replace(spec, ic=ic, reference=("exact_riemann", st))
            x = driver.cell_centers(*spec.bounds, spec.resolution[0])
            ref_rho = reference.reference_solution(spec, x)[0]
            for s in SCHEMES_1D:
                grid, bc, src = problems.make_grid(spec, rec.ghost_width(strategies[s]))
                ops.append(dict(label=f"{name}/{s}", problem=name, scheme=s,
                                strategy=strategies[s], grid0=grid, bc=bc, source=src,
                                t_final=spec.t_final, left=left, right=right,
                                gamma=st.gamma, x=x, program_ref=ref_rho))
        spec = problems.get("blast")
        levels = perturbed(rng, (1000.0, 0.01, 100.0))

        def blast_ic(x):
            p = np.where(x < 0.1, levels[0], np.where(x < 0.9, levels[1], levels[2]))
            return euler.prim_to_cons_1d(np.ones_like(x), np.zeros_like(x), p)

        spec = dataclasses.replace(spec, ic=blast_ic)
        for s in BLAST_SCHEMES:
            grid, bc, src = problems.make_grid(spec, rec.ghost_width(strategies[s]))
            ops.append(dict(label=f"blast/{s}", problem="blast", scheme=s,
                            strategy=strategies[s], grid0=grid, bc=bc, source=src,
                            t_final=BLAST_SPAN))
        return {"ops": ops}

    def prepare(self, state):
        """Oracle data that is not part of the program's set-up."""
        failures = []
        for op in state["ops"]:
            if op["problem"] in TUBES:
                op["exact"] = oracles.exact_density(op["left"], op["right"], op["gamma"],
                                                    op["x"], op["t_final"])
                gap = np.abs(op["exact"] - op["program_ref"]).max()
                if gap > 1e-6:
                    failures.append(f"{op['label']}: program reference differs from "
                                    f"the exact solution by {gap:.2e}")
        return failures

    def run(self, state, op):
        grid = fresh(op["grid0"])
        t0 = time.perf_counter()
        res = driver.advance(grid, op["bc"], op["strategy"], op["t_final"], cfl=CFL,
                             source=op["source"])
        wall = time.perf_counter() - t0
        return dict(wall=wall, steps=res.steps, cell_steps=grid.n * res.steps,
                    fallback_stages=res.fallback_stages, fallback_cells=res.fallback_cells,
                    grid=grid, result=res)

    def check(self, state, op, out):
        grid, res = out["grid"], out["result"]
        rho, _, p = euler.cons_to_prim_1d(grid.interior, grid.gamma, check=False)
        fails = oracles.positive_and_finite(rho, p)
        if not (res.min_density > 0.0 and res.min_pressure > 0.0):
            fails.append(f"run minima rho {res.min_density:.3e}, p {res.min_pressure:.3e}")
        fails += kernel_checks(op["strategy"], grid.u, op["scheme"])
        total0 = op["grid0"].interior.sum(axis=0) * grid.dx
        total = grid.interior.sum(axis=0) * grid.dx
        if op["problem"] == "blast":
            fails += oracles.closed_conservation(total0, total, (0, 2))
        else:
            fails += oracles.tube_conservation(total0, total, res.t, op["left"],
                                               op["right"], op["gamma"])
            out["l1"] = oracles.l1(rho, op["exact"], grid.dx)
        return fails

    def round_checks(self, outs):
        fails = []
        for name in ("sod", "lax"):
            if not all("l1" in outs.get(f"{name}/{s}", {}) for s in SCHEMES_1D):
                continue
            l1 = {s: outs[f"{name}/{s}"]["l1"] for s in SCHEMES_1D}
            if l1["weno5-js"] > l1["weno3-z"]:
                fails.append(f"{name}: weno5-js L1 {l1['weno5-js']:.4e} > weno3-z "
                             f"{l1['weno3-z']:.4e}")
            if l1["weno3-cadnn2"] > 1.05 * l1["weno3-z"]:
                fails.append(f"{name}: weno3-cadnn2 L1 {l1['weno3-cadnn2']:.4e} > 1.05 x "
                             f"weno3-z {l1['weno3-z']:.4e}")
        return fails

    def config(self, outs):
        m = dict.fromkeys(CONFIG, 0.0)
        for s in SCHEMES_1D:
            mine = [o for label, o in outs.items() if label.endswith("/" + s)]
            m[f"ns_per_cell_step.{s}"] = (1e9 * sum(o["wall"] for o in mine)
                                          / sum(o["cell_steps"] for o in mine))
            m[f"l1_density.{s}"] = sum(o["l1"] for o in mine if "l1" in o)
        return m


class Quadrant2D(Workload):
    """riemann2d at 200 x 200 for a fixed number of RK steps per scheme."""

    reference = (40800, 30)

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        spec = problems.get("riemann2d")
        # one change per quadrant, the same for the two quadrants the x <-> y
        # mirror swaps, so the initial data keep the mirror symmetry
        r1, p1, r2, v2, p2, r3, v3, p3 = perturbed(
            rng, (1.5, 1.5, 0.5323, 1.206, 0.3, 0.138, 1.206, 0.029))

        def ic(x, y):
            hi_x = x[:, None] > 0.8
            hi_y = y[None, :] > 0.8
            quads = [hi_x & hi_y, ~hi_x & hi_y, ~hi_x & ~hi_y]
            rho = np.select(quads, [r1, r2, r3], r2)
            u = np.select(quads, [0.0, v2, v3], 0.0)
            v = np.select(quads, [0.0, 0.0, v3], v2)
            p = np.select(quads, [p1, p2, p3], p2)
            return euler.prim_to_cons_2d(rho, u, v, p)

        spec = dataclasses.replace(spec, ic=ic)
        ops = []
        for s, steps in STEPS_2D.items():
            strategy = cli.load_strategy(s)
            grid, bc, src = problems.make_grid(spec, rec.ghost_width(strategy),
                                               nx=N_2D, ny=N_2D)
            ops.append(dict(label=f"riemann2d/{s}", scheme=s, strategy=strategy,
                            grid0=grid, bc=bc, source=src, steps=steps))
        return {"ops": ops}

    def prepare(self, state):
        return oracles.mirror_symmetry(state["ops"][0]["grid0"].interior)

    def run(self, state, op):
        grid = fresh(op["grid0"])
        counters = {"stages": 0, "cells": 0}
        t = 0.0
        t0 = time.perf_counter()
        for _ in range(op["steps"]):
            ax, ay = euler.max_wave_speed_2d(grid.interior, grid.gamma)
            dt = CFL / (ax / grid.dx + ay / grid.dy)
            driver.rk3_step(grid, op["bc"], op["strategy"], dt, t, op["source"], counters)
            t += dt
        wall = time.perf_counter() - t0
        return dict(wall=wall, steps=op["steps"], cell_steps=grid.nx * grid.ny * op["steps"],
                    fallback_stages=counters["stages"], fallback_cells=counters["cells"],
                    grid=grid)

    def check(self, state, op, out):
        grid = out["grid"]
        rho, _, _, p = euler.cons_to_prim_2d(grid.interior, grid.gamma, check=False)
        fails = oracles.positive_and_finite(rho, p)
        fails += oracles.mirror_symmetry(grid.interior)
        ng = grid.ng
        fails += kernel_checks(op["strategy"], grid.u[:, ng:-ng:8], op["scheme"])
        return fails

    def config(self, outs):
        m = dict.fromkeys(CONFIG, 0.0)
        for label, o in outs.items():
            m[f"ns_per_cell_step.{label.split('/')[1]}"] = 1e9 * o["wall"] / o["cell_steps"]
        return m


class Train(Workload):
    """The cadnn2 recipe, shortened to a few prior-fit and main epochs, on
    a training set drawn from the run's seed."""

    reference = (40800, 30)

    def setup(self, seed):
        hyper, _, _ = loop.read_train_config(TRAIN_RECIPE)
        hyper = dataclasses.replace(hyper, pretrain_epochs=PRIOR_EPOCHS, epochs=MAIN_EPOCHS)
        ds = wdata.generate_dataset(seed)
        return {"ops": [dict(label="train/cadnn2-recipe", hyper=hyper)],
                "dataset": ds, "seed": seed}

    def prepare(self, state):
        ds = state["dataset"]
        rows = np.random.default_rng(state["seed"]).choice(len(ds), GRAD_BATCH, replace=False)
        state["grad_batch"] = loss.Batch(ds.stencils[rows], ds.labels[rows])
        return []

    def run(self, state, op):
        t0 = time.perf_counter()
        params, history = loop.train(op["hyper"], dataset=state["dataset"])
        wall = time.perf_counter() - t0
        return dict(wall=wall, params=params, history=history)

    def check(self, state, op, out):
        params, history, hyper = out["params"], out["history"], op["hyper"]
        fails = []
        main = [h.total for h in history[1 + hyper.pretrain_epochs:]]
        if params.training_loss != min(main):
            fails.append(f"checkpoint loss {params.training_loss!r} is not the main-phase "
                         f"minimum {min(main)!r}")
        if not all(np.isfinite(h.total) for h in history):
            fails.append("non-finite loss in the history")
        ds = state["dataset"]
        for cols in (slice(0, 3), slice(1, 4)):
            fails += oracles.convex_weights(network.forward_array(params, ds.stencils[:, cols]),
                                            "trained network")
        batch, c, d = state["grad_batch"], hyper.hyper_c, hyper.hyper_d
        grads = loss.gradient(params, batch, c, d)

        def value(k, idx, delta):
            moved = params.copy()
            moved.arrays()[k][idx] += delta
            return loss.total_loss(moved, batch, c, d).total

        rng = np.random.default_rng(state["seed"])
        fails += oracles.gradient_check(value, grads, params.arrays(), rng)
        return fails

    def config(self, outs):
        m = dict.fromkeys(CONFIG, 0.0)
        o = next(iter(outs.values()))
        m["epoch_s"] = o["wall"] / (PRIOR_EPOCHS + MAIN_EPOCHS)
        m["train_loss"] = o["params"].training_loss
        return m


WORKLOAD_CLASSES = {"tubes1d": Tubes1D, "quadrant2d": Quadrant2D, "train": Train}
assert set(WORKLOAD_CLASSES) == set(WORKLOADS)


def final_hash(out):
    if "params" in out:
        return sha256(*out["params"].arrays())
    return sha256(out["grid"].interior)


# ---------------------------------------------------------------------------
# measurement


def run_round(work, state, tracer):
    """One round of every operation, each after a run of the reference
    kernel; the tracer, if given, is on only while operations run, never
    during the checks."""
    outs, failures, failed, ref_s = {}, [], 0, 0.0
    ref_input, ref_reps = state["reference"]
    mark = None
    if tracer is not None:
        mark = tracer.mark()
        tracer.install()
    try:
        for op in state["ops"]:
            ref_s += reference_kernel(ref_input, ref_reps)
            try:
                outs[op["label"]] = work.run(state, op)
            except Exception:  # an operation that fails is counted, the run goes on
                failed += 1
                print(f"{op['label']} failed:\n{traceback.format_exc()}", file=sys.stderr)
    finally:
        if tracer is not None:
            tracer.uninstall()
    for op in state["ops"]:
        if op["label"] in outs:
            try:
                found = work.check(state, op, outs[op["label"]])
            except Exception as exc:  # a check that cannot run is a failed check
                found = [f"check raised {exc!r}"]
            failures += [f"{op['label']}: {f}" for f in found]
    failures += work.round_checks(outs)
    solve_s = sum(o["wall"] for o in outs.values())
    rnd = {
        "traced": tracer is not None,
        "solve_s": solve_s,
        "reference_s": ref_s,
        "solve_rel": solve_s / ref_s,
        "attempted": len(state["ops"]),
        "failed": failed,
        "failures": failures,
        "ops": {label: {k: v for k, v in o.items() if isinstance(v, (int, float))}
                for label, o in outs.items()},
        "hashes": {label: final_hash(o) for label, o in outs.items()},
        "config": work.config(outs) if not failed else {},
    }
    if tracer is not None:
        rnd["layers"] = tracer.summary(mark)
    return rnd


def measure(work, state, seconds, tracer):
    """Whole rounds until the next one would end after `seconds`; with a
    tracer, untraced and traced rounds alternate and at least one of each
    runs."""
    rounds, walls = [], {False: [], True: []}
    begin = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        t0 = time.perf_counter()
        rounds.append(run_round(work, state, tracer if traced else None))
        walls[traced].append(time.perf_counter() - t0)
        nxt = tracer is not None and len(rounds) % 2 == 1
        if tracer is not None and not walls[True]:
            continue
        elapsed = time.perf_counter() - begin
        if elapsed + statistics.median(walls[nxt]) > seconds:
            return rounds


def layer_metrics(layers, setup_layers, rounds):
    """Per-layer figures of the traced rounds (medians over rounds)."""
    def one(s):
        own, tot, calls, cnt = s["self_s"], s["total_s"], s["calls"], s["counts"]

        def per(n, t):
            return 1e9 * t / n if n else 0.0

        rs = cnt.get("reconstruction.stencils", 0)
        ws = cnt.get("weights.stencils", 0)
        ns = cnt.get("network.stencils", 0)
        return {
            "boundary.fill_s": own["boundary.fill"],
            "boundary.calls": calls["boundary.fill"],
            "euler.flux_s": own["euler.flux"],
            "euler.wave_speed_s": own["euler.wave_speed"],
            "euler.cons_to_prim_s": own["euler.cons_to_prim"],
            "euler.calls": calls["euler.flux"] + calls["euler.wave_speed"]
            + calls["euler.cons_to_prim"],
            "reconstruction.split_s": own["reconstruction.split"],
            "reconstruction.candidates_s": own["reconstruction.candidates"],
            "reconstruction.sweep_self_s": own["reconstruction.sweep"],
            "reconstruction.stencils": rs,
            "reconstruction.ns_per_stencil": per(
                rs, own["reconstruction.sweep"] + own["reconstruction.candidates"]),
            "reconstruction.bytes_computed": cnt.get("reconstruction.bytes_computed", 0),
            "weights.kernel_s": own["weights.kernel"],
            "weights.stencils": ws,
            "weights.ns_per_stencil": per(ws, own["weights.kernel"]),
            "weights.bytes_computed": cnt.get("weights.bytes_computed", 0),
            "network.features_s": own["network.features"],
            "network.gelu_s": own["network.gelu"],
            "network.softmax_s": own["network.softmax"],
            "network.forward_self_s": own["network.forward"],
            "network.stencils": ns,
            "network.ns_per_stencil": per(ns, tot["network.forward"]),
            "network.backward_s": own["network.backward"],
            "network.gelu_prime_s": own["network.gelu_prime"],
            "driver.steps": calls["driver.rk3"],
            "driver.rk3_self_s": own["driver.rk3"],
            "driver.advance_self_s": own["driver.advance"],
            "loss.grad_s": own["loss.grad"],
            "loss.eval_s": own["loss.eval"],
            "loss.batches": calls["loss.grad"],
            "optim.adamw_s": own["optim.adamw"],
            "optim.steps": calls["optim.adamw"],
            "loop.self_s": own["loop.train"],
            "trace.spans": s["spans"],
        }

    per_round = [one(s) for s in layers]
    m = {k: statistics.median(r[k] for r in per_round) for k in per_round[0]}
    traced = [r for r in rounds if r["traced"]]
    fb_stages = sum(o.get("fallback_stages", 0) for o in traced[0]["ops"].values())
    fb_cells = sum(o.get("fallback_cells", 0) for o in traced[0]["ops"].values())
    steps = sum(o.get("steps", 0) for o in traced[0]["ops"].values())
    m["driver.fallback_stages"] = fb_stages
    m["driver.fallback_cells"] = fb_cells
    m["driver.clean_stage_share"] = 1.0 - fb_stages / (3 * steps) if steps else 0.0
    m["dataset.generate_s"] = setup_layers["total_s"]["dataset.generate"]
    m["reference.s"] = setup_layers["total_s"]["reference.solution"]
    m["cli.load_strategy_s"] = setup_layers["total_s"]["cli.load_strategy"]
    plain = [r for r in rounds if not r["traced"]]
    share = (statistics.median(r["solve_rel"] for r in traced)
             / statistics.median(r["solve_rel"] for r in plain) - 1.0)
    m["trace.overhead_s"] = share * statistics.median(r["solve_s"] for r in plain)
    m["trace.overhead_share"] = share
    return m


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest():
    h = hashlib.sha256()
    pkg = ROOT / "src" / "wenocad"
    for f in sorted(p for p in pkg.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(f.relative_to(pkg)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "malloc": {v: os.environ.get(v) for v in MALLOC_ENV},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def timed_setup(work, seed):
    t0 = time.perf_counter()
    state = work.setup(seed)
    return state, time.perf_counter() - t0


def report_lines(config, rounds):
    """Human-readable lines: the median wall time and reference-kernel time
    of a round, the configuration figures that apply to this workload, then
    the first round's operations."""
    lines = [f"{k + ' (round median)':34s} {statistics.median(r[k] for r in rounds):.6g} s"
             for k in ("solve_s", "reference_s")]
    lines += [f"{k:34s} {v:.6g} {CONFIG[k]}" for k, v in config.items() if v]
    first = rounds[0]
    for label, o in first["ops"].items():
        extra = f"  L1 {o['l1']:.4e}" if "l1" in o else ""
        cells = f"  {1e9 * o['wall'] / o['cell_steps']:9.0f} ns/cell/step" if "cell_steps" in o else ""
        lines.append(f"  {label:28s} {o['wall']:8.3f} s{cells}{extra}")
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    if not Path(wenocad.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"wenocad imported from {wenocad.__file__}, not from this checkout",
              file=sys.stderr)
        return 2

    work = WORKLOAD_CLASSES[args.workload]()
    if args.setup_only:
        _, setup = timed_setup(work, args.seed)
        print(json.dumps({"setup_s": IMPORT_S + setup}))
        return 0

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        state, setup = timed_setup(work, args.seed)
    finally:
        if tracer is not None:
            tracer.uninstall()
    setup_layers = tracer.summary() if tracer is not None else None
    failures = work.prepare(state)
    rows, reps = work.reference
    state["reference"] = (np.random.default_rng(REFERENCE_SEED).random((rows + 1, 3)), reps)
    rounds = measure(work, state, args.seconds, tracer)

    for r in rounds:
        failures += r["failures"]
        if r["hashes"] != rounds[0]["hashes"]:
            failures.append("final states differ between rounds of one run")
    plain = [r for r in rounds if not r["traced"] and r["config"]]
    config = ({k: statistics.median(r["config"][k] for r in plain) for k in CONFIG}
              if plain else dict.fromkeys(CONFIG, 0.0))
    if tracer is None:
        metrics = {
            "setup_s": IMPORT_S + setup,
            "solve_rel": statistics.median(r["solve_rel"] for r in rounds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    else:
        metrics = {**layer_metrics([r["layers"] for r in rounds if r["traced"]],
                                   setup_layers, rounds), **config}
        metrics = {k: metrics[k] for k in PER_LAYER}
        units = PER_LAYER
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.save(OUT / f"{args.workload}-seed{args.seed}-spans.npz")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "correct": not failures,
        "failures": failures,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
        "units": units,
        "configurations": config,
        "rounds": [{k: r[k] for k in ("traced", "solve_s", "reference_s", "solve_rel",
                                      "attempted", "failed", "ops")}
                   for r in rounds],
        "hashes": rounds[0]["hashes"],
        "environment": environment(),
        "report": report_lines(config if tracer is None else {}, rounds),
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
