"""What the benchmark under perfbench/ takes from the program.

perfbench traces the program by swapping module attributes for wrappers,
copies a prepared grid with `dataclasses.replace` before every operation,
and builds its shock-tube references from the Riemann states in a
problem's reference recipe.  A refactor that renames a traced function,
binds one so that the wrapper is bypassed, loses a grid's system in the
copy or reshapes the recipe breaks the benchmark without failing any
solver test; these checks catch it first.
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

from wenocad import cli, workers
from wenocad import reconstruction as rec
from wenocad.benchmarks import problems, reference
from wenocad.benchmarks.riemann import RiemannStates
from wenocad.solvers import driver
from wenocad.training import loop

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import bench
        import tracing
        yield bench, tracing
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_traced_name_exists(perfbench):
    _, tracing = perfbench
    targets = tracing.targets()
    before = [getattr(module, attr) for module, attr, _, _ in targets]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (module, attr, _, _), fn in zip(targets, before):
            assert getattr(module, attr) is not fn, f"{attr} was not wrapped"
    finally:
        tracer.uninstall()
    assert [getattr(module, attr) for module, attr, _, _ in targets] == before


@pytest.mark.parametrize("name, system", [
    ("advection", driver.ADVECTION),
    ("sod", driver.EULER1D),
    ("riemann2d", driver.EULER2D),
])
def test_fresh_copy_keeps_the_system(perfbench, name, system):
    bench, _ = perfbench
    grid, _, _ = problems.make_grid(problems.get(name), 2, nx=16, ny=16)
    copy = bench.fresh(grid)
    assert type(copy) is type(grid)
    assert copy.system is grid.system is system
    assert copy.gamma == grid.gamma
    assert copy.u is not grid.u
    np.testing.assert_array_equal(copy.u, grid.u)
    same = dataclasses.replace(grid, u=grid.u.copy())
    assert same.system is system


def test_tube_recipe_holds_riemann_states():
    spec = problems.get("sod")
    recipe, states = spec.reference
    assert recipe == "exact_riemann"
    assert isinstance(states, RiemannStates)
    # perfbench rebuilds the recipe around perturbed states
    spec = dataclasses.replace(spec, reference=("exact_riemann", states))
    x = driver.cell_centers(*spec.bounds, 16)
    rho, u, p = reference.reference_solution(spec, x)
    assert rho.shape == u.shape == p.shape == (16,)


def test_training_calls_through_traced_names(perfbench, small_dataset):
    """The train workload's per-layer metrics come from these spans; a loop
    that binds the functions some other way would report zeros."""
    _, tracing = perfbench
    hyper = loop.Hyperparams(hyper_c=100.0, hyper_d=10.0, epochs=1,
                             pretrain_epochs=1, batch_size=100, seed=0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        loop.train(hyper, dataset=small_dataset)
    finally:
        tracer.uninstall()
    calls = tracer.summary()["calls"]
    for span in ("loss.eval", "loss.grad", "network.forward",
                 "network.backward", "optim.adamw", "loop.train"):
        assert calls[span] > 0, f"no {span} span during training"
    # the prior fit's forward passes run straight under loop.train, the main
    # phase's under loss.grad
    names = [tracer.names[k] for k in tracer.name]
    under = [names[p] if p >= 0 else None for p in tracer.parent]
    assert ("network.forward", "loop.train") in zip(names, under), \
        "no network.forward span during the prior fit"


def test_solver_layers_call_through_traced_names(perfbench, monkeypatch):
    """The tubes1d and quadrant2d per-layer metrics come from these spans; a
    solver that binds one of these layers past the wrapper would report
    zeros.  One CPU, so that the 2D stage's y sweep runs inline and one
    span stack serves one thread."""
    _, tracing = perfbench
    monkeypatch.setattr(workers, "CPUS", 1)
    runs = [("sod", scheme, 64, None)
            for scheme in ("weno3-z", "weno5-js", "weno3-cadnn2")]
    runs.append(("riemann2d", "weno3-z", 16, 16))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for name, scheme, nx, ny in runs:
            strategy = cli.load_strategy(scheme)
            grid, bc, source = problems.make_grid(
                problems.get(name), rec.ghost_width(strategy), nx=nx, ny=ny)
            for k in range(2):
                driver.rk3_step(grid, bc, strategy, 1e-3, 1e-3 * k, source)
    finally:
        tracer.uninstall()
    calls = tracer.summary()["calls"]
    for span in ("boundary.fill", "euler.flux", "euler.cons_to_prim",
                 "reconstruction.split", "reconstruction.sweep", "driver.rk3",
                 "network.softmax"):
        assert calls[span] > 0, f"no {span} span in a solver stage"
