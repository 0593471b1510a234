"""Command-line driver.

Subcommands: `train` fits the weighting network from a key = value
config file; `run` solves one benchmark problem with one scheme and
writes CSV (1D) or per-component field dumps (2D); `convergence` runs a
refinement study on smooth periodic advection; `compare` runs several
schemes on one problem and tabulates errors against the reference.

Exit codes: 0 success; 2 bad usage (an unknown flag, a resolution below
8 cells, --n on a 2D problem or --nx or --ny on a 1D one, --weights with
a classical scheme, a time or CFL number that is not finite and above 0,
a negative --log-every, or an output path that cannot be written);
3 unknown (or unsupported) problem;
4 unknown scheme; 5 weight-file problem; 6 solver or training failure
(a non-finite state, loss or network layer is one); 7 bad training
configuration.  A command raises _Exit to fail, and `main` prints its
message; any other exception is a bug and ends with its traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import logging
import math
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import network
from . import reconstruction as rec
from .benchmarks import errors as berr
from .benchmarks import problems, reference
from .errors import ParamsFormatError
from .solvers import driver
from .training import loop

EXIT_USAGE = 2
EXIT_PROBLEM = 3
EXIT_SCHEME = 4
EXIT_WEIGHTS = 5
EXIT_SOLVER = 6
EXIT_CONFIG = 7

_FIXED_SCHEMES = {cls.name: cls for cls in (rec.Weno3JS, rec.Weno3Z, rec.Linear3,
                                             rec.Weno5JS, rec.Weno5M, rec.Linear5)}
_NEURAL_SCHEMES = ("weno3-cadnn1", "weno3-cadnn2")

COMPARE_DEFAULT = ["weno3-z", "weno3-cadnn1", "weno3-cadnn2", "weno5-js"]


class _Exit(Exception):
    """A failure that ends a command: `main` prints its message and
    returns its exit code."""

    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def scheme_names():
    return list(_FIXED_SCHEMES) + list(_NEURAL_SCHEMES)


def load_strategy(name, weights_path=None):
    """Build the reconstruction strategy for a scheme name; the neural
    schemes resolve bundled parameter files unless a path is given.  An
    unknown name raises the exit-4 failure that `main` reports."""
    if name in _FIXED_SCHEMES:
        return _FIXED_SCHEMES[name]()
    if name in _NEURAL_SCHEMES:
        if weights_path is not None:
            params = network.load_params(weights_path)
        else:
            ref = resources.files("wenocad").joinpath(
                "data/" + name.removeprefix("weno3-") + ".json"
            )
            if not ref.is_file():
                raise FileNotFoundError(
                    f"no bundled weights for {name}; pass --weights PATH"
                )
            with resources.as_file(ref) as p:
                params = network.load_params(p)
        return rec.NeuralWeighting3(params, label=name)
    raise _Exit(f"unknown scheme {name!r}; known: {', '.join(scheme_names())}",
                EXIT_SCHEME)


def _cells(text):
    """A resolution: an integer with room for a stencil."""
    n = int(text)
    if n < problems.MIN_CELLS:
        raise argparse.ArgumentTypeError(
            f"{n} is below the {problems.MIN_CELLS} cells a stencil needs")
    return n


def _epochs(text):
    """An epoch interval: an integer, 0 for never."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"{n} is below 0")
    return n


def _positive(text):
    """A time or CFL number: finite and above 0."""
    v = float(text)
    if not 0.0 < v < math.inf:
        raise argparse.ArgumentTypeError(f"{text} is not finite and above 0")
    return v


def _output_error(path, directory=False):
    """Why no output can be written at `path`, or None.  A file goes into
    an existing directory; a directory is made with its parents, so the
    nearest of them that exists must be a directory."""
    path = Path(path)
    if directory:
        near = next(p for p in (path, *path.parents) if p.exists())
        return None if near.is_dir() else f"{near} is not a directory"
    if not path.parent.is_dir():
        return f"{path.parent} is not a directory"
    return f"{path} is a directory" if path.is_dir() else None


def _writable(path, directory=False):
    """`path` as a Path; exit 2 if no output can be written there."""
    path = Path(path)
    reason = _output_error(path, directory)
    if reason:
        raise _Exit(f"cannot write {path}: {reason}", EXIT_USAGE)
    return path


def _problem(name):
    try:
        return problems.get(name)
    except KeyError as exc:
        raise _Exit(str(exc), EXIT_PROBLEM) from None


def _strategy(name, weights_path=None):
    """load_strategy, its failures mapped to exit 2, 4 or 5."""
    if weights_path is not None and name in _FIXED_SCHEMES:
        raise _Exit(f"--weights does not apply to the classical scheme {name}",
                    EXIT_USAGE)
    try:
        return load_strategy(name, weights_path)
    except (OSError, ParamsFormatError) as exc:
        raise _Exit(f"cannot load weights for {name}: {exc}",
                    EXIT_WEIGHTS) from None


@contextlib.contextmanager
def _solving(label="solver"):
    """Exit 6 on a solver or training failure, a non-finite value being
    one; numpy's warnings of it are off, as the failure reports it."""
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            yield
    except (FloatingPointError, RuntimeError) as exc:
        raise _Exit(f"{label} failed: {exc}", EXIT_SOLVER) from None


def _write_csv(path, names, columns):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(names) + "\n")
        for row in zip(*columns):
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def _write_field(path, field, grid, t):
    nx, ny = field.shape
    xmin, xmax = grid.xmin, grid.xmin + nx * grid.dx
    ymin, ymax = grid.ymin, grid.ymin + ny * grid.dy
    with open(path, "w", newline="") as fh:
        fh.write(f"# {nx} {ny} {xmin:.17g} {xmax:.17g} "
                 f"{ymin:.17g} {ymax:.17g} {t:.17g}\n")
        np.savetxt(fh, field, fmt="%.17g")


def _progress_printer(enabled):
    if not enabled:
        return None

    def tick(t, t_final, steps):
        if steps % 100 == 0:
            print(f"  t = {t:.5f} / {t_final:.5f}  ({steps} steps)",
                  file=sys.stderr)
    return tick


def _dump_run_1d(outdir, spec, grid, result):
    x, system = grid.x_centers, grid.system
    prims = system.primitives(grid.interior, grid.gamma)
    names, cols = ["x", *system.columns], [x, *prims]
    ref = reference.reference_solution(spec, x, result.t)
    meta = {"n": grid.n}
    if ref is not None:
        rep = berr.error_report(prims[0], ref[0], grid.dx, x)
        err, l1, linf = system.error_names
        names += [f"{c}_ref" for c in system.columns] + [err]
        cols += [*ref, rep.pointwise]
        meta.update({l1: rep.l1, linf: rep.linf})
    _write_csv(outdir / "solution.csv", names, cols)
    return meta


def _dump_run_2d(outdir, spec, grid, result):
    system = grid.system
    for name, field in zip(system.columns,
                           system.primitives(grid.interior, grid.gamma)):
        _write_field(outdir / f"{name}.dat", field, grid, result.t)
    return {"nx": grid.nx, "ny": grid.ny}


def cmd_run(args):
    spec = _problem(args.problem)
    strategy = _strategy(args.scheme, args.weights)
    line = len(spec.resolution) == 1
    for flag, value in (("--nx", args.nx), ("--ny", args.ny)):
        if value is not None and line:
            raise _Exit(f"{flag} does not apply to the 1D problem {spec.name}; "
                        "use --n", EXIT_USAGE)
    if args.n is not None and not line:
        raise _Exit(f"--n does not apply to the 2D problem {spec.name}; "
                    "use --nx and --ny", EXIT_USAGE)
    outdir = _writable(args.out or f"{spec.name}_{args.scheme}", directory=True)

    ng = rec.ghost_width(strategy)
    nx = args.nx or args.n
    grid, bc, source = problems.make_grid(spec, ng, nx=nx, ny=args.ny)
    t_final = args.tfinal if args.tfinal is not None else spec.t_final

    with _solving():
        result = driver.advance(grid, bc, strategy, t_final, cfl=args.cfl,
                                source=source,
                                progress=_progress_printer(args.progress))

    outdir.mkdir(parents=True, exist_ok=True)

    meta = {
        "problem": spec.name,
        "scheme": strategy.name,
        "t_final": result.t,
        "cfl": args.cfl,
        "steps": result.steps,
        "wall_time": round(result.wall_time, 3),
        "fallback_stages": result.fallback_stages,
        "fallback_cells": result.fallback_cells,
    }
    dump = _dump_run_1d if len(spec.resolution) == 1 else _dump_run_2d
    meta.update(dump(outdir, spec, grid, result))
    if np.isfinite(result.min_density):
        meta["min_density"] = result.min_density
        meta["min_pressure"] = result.min_pressure
    with open(outdir / "run.json", "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")

    print(f"{spec.name} / {strategy.name}: {result.steps} steps to "
          f"t = {result.t:g} in {result.wall_time:.2f} s -> {outdir}/")
    return 0


def _advect_sine(strategy, n, t_final, cfl):
    """March u_t + u_x = 0, u0 = sin(pi x), on the periodic domain of the
    `advection` problem, with dt matched to the formal spatial order so
    the time error never caps the study."""
    spec = dataclasses.replace(problems.get("advection"),
                               ic=lambda x: np.sin(np.pi * x)[:, None])
    grid, bc, _ = problems.make_grid(spec, rec.ghost_width(strategy), nx=n)
    dt = cfl * grid.dx ** (strategy.stencil_width / 3.0)
    t = 0.0
    while t < t_final:
        step = min(dt, t_final - t)
        driver.rk3_step(grid, bc, strategy, step, t)
        t += step
    x = grid.x_centers
    exact = np.sin(np.pi * (x - t))
    return berr.error_report(grid.interior[:, 0], exact, grid.dx, x)


def cmd_convergence(args):
    strategy = _strategy(args.scheme, args.weights)
    try:
        levels = [_cells(v) for v in args.levels.split(",")]
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise ValueError("the levels must strictly increase")
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise _Exit(f"bad --levels {args.levels!r}: {exc}", EXIT_USAGE) from None
    out = _writable(args.out or f"convergence_{args.scheme}.csv")

    rows = []
    prev = None
    for n in levels:
        with _solving():
            rep = _advect_sine(strategy, n, args.tfinal, args.cfl)
        eoc_linf = eoc_l1 = float("nan")
        if prev is not None:
            ratio = np.log(n / prev[0])
            eoc_linf = float(np.log(prev[1] / rep.linf) / ratio)
            eoc_l1 = float(np.log(prev[2] / rep.l1) / ratio)
        rows.append((n, 2.0 / n, rep.linf, eoc_linf, rep.l1, eoc_l1))
        prev = (n, rep.linf, rep.l1)

    names = ["n", "dx", "linf", "eoc_linf", "l1", "eoc_l1"]
    _write_csv(out, names, list(zip(*rows)))

    print(f"{'n':>6} {'dx':>10} {'Linf':>12} {'EOC':>6} {'L1':>12} {'EOC':>6}")
    for n, dx, linf, eoc_i, l1, eoc_1 in rows:
        print(f"{n:>6} {dx:>10.2e} {linf:>12.4e} {eoc_i:>6.2f} "
              f"{l1:>12.4e} {eoc_1:>6.2f}")
    print(f"table -> {out}")
    return 0


def cmd_compare(args):
    spec = _problem(args.problem)
    if len(spec.resolution) != 1 or not spec.reference:
        raise _Exit(f"compare needs a 1D problem with a reference; "
                    f"{spec.name} has none", EXIT_PROBLEM)
    strategies = [_strategy(name) for name in args.schemes]
    out = _writable(args.out or f"compare_{spec.name}.csv")

    nx = args.n or spec.resolution[0]
    x = driver.cell_centers(spec.bounds[0], spec.bounds[1], nx)
    ref = reference.reference_solution(spec, x)[0]

    rows = []
    for strategy in strategies:
        grid, bc, source = problems.make_grid(
            spec, rec.ghost_width(strategy), nx=nx)
        with _solving(strategy.name):
            result = driver.advance(grid, bc, strategy, spec.t_final,
                                    cfl=args.cfl, source=source)
        num = grid.system.primitives(grid.interior, grid.gamma)[0]
        rep = berr.error_report(num, ref, grid.dx, x)
        rows.append((strategy.name, rep.l1, rep.linf, result.steps,
                     result.wall_time))

    names = ["scheme", "l1", "linf", "steps", "wall_time"]
    with open(out, "w", newline="") as fh:
        fh.write(",".join(names) + "\n")
        for name, l1, linf, steps, wall in rows:
            fh.write(f"{name},{l1:.17g},{linf:.17g},{steps},{wall:.3f}\n")

    print(f"{'scheme':<14} {'L1':>12} {'Linf':>12} {'steps':>7} {'wall':>8}")
    for name, l1, linf, steps, wall in rows:
        print(f"{name:<14} {l1:>12.4e} {linf:>12.4e} {steps:>7} {wall:>7.2f}s")
    print(f"table -> {out}")
    return 0


def cmd_train(args):
    try:
        hyper, out_path, hist_path = loop.read_train_config(args.config)
    except (OSError, ValueError) as exc:
        raise _Exit(f"bad training config: {exc}", EXIT_CONFIG) from None
    # the files are written after training, which a bad path would waste
    for key, path in (("out", out_path), ("history", hist_path)):
        reason = path and _output_error(path)
        if reason:
            raise _Exit(f"bad training config: {key} = {path}: {reason}",
                        EXIT_CONFIG)

    logging.basicConfig(level=logging.INFO, format="%(message)s")
    print(f"training with C = {hyper.hyper_c:g}, D = {hyper.hyper_d:g}, "
          f"lr = {hyper.lr:g}, {hyper.epochs} epochs, seed {hyper.seed}")
    with _solving("training"):
        params, history = loop.train(hyper, log_every=args.log_every)

    network.save_params(params, out_path)
    if hist_path:
        loop.write_history(history, hist_path)
        print(f"loss history -> {hist_path}")
    print(f"best full-dataset loss {params.training_loss:.6g} -> {out_path}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wenocad",
        description="WENO benchmark solvers with a trainable weighting "
                    "function.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train the weighting network")
    p.add_argument("config", help="key = value configuration file")
    p.add_argument("--log-every", type=_epochs, default=10, metavar="E",
                   help="log the loss every E epochs, 0 for never (default 10)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("run", help="run one problem with one scheme")
    p.add_argument("--problem", required=True)
    p.add_argument("--scheme", required=True,
                   help="one of: " + ", ".join(scheme_names()))
    p.add_argument("--weights", help="parameter file for the neural schemes")
    p.add_argument("--n", type=_cells, help="1D resolution override")
    p.add_argument("--nx", type=_cells)
    p.add_argument("--ny", type=_cells)
    p.add_argument("--tfinal", type=_positive)
    p.add_argument("--cfl", type=_positive, default=driver.CFL_DEFAULT)
    p.add_argument("--out", help="output directory (default PROBLEM_SCHEME)")
    p.add_argument("--progress", action="store_true",
                   help="print progress to stderr")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("convergence",
                       help="refinement study on smooth advection")
    p.add_argument("--scheme", required=True)
    p.add_argument("--weights")
    p.add_argument("--levels", default="40,80,160,320",
                   help="comma-separated, strictly increasing resolutions")
    p.add_argument("--tfinal", type=_positive, default=1.0)
    p.add_argument("--cfl", type=_positive, default=driver.CFL_DEFAULT)
    p.add_argument("--out", help="output CSV path")
    p.set_defaults(func=cmd_convergence)

    p = sub.add_parser("compare",
                       help="run several schemes on one problem")
    p.add_argument("--problem", required=True)
    p.add_argument("--schemes", nargs="+", default=COMPARE_DEFAULT)
    p.add_argument("--n", type=_cells)
    p.add_argument("--cfl", type=_positive, default=driver.CFL_DEFAULT)
    p.add_argument("--out", help="output CSV path")
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _Exit as exc:
        print(f"wenocad: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
