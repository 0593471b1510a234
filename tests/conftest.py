"""Shared fixtures: bundled network parameters and small datasets; the
training pass on stencils; and scripts run in a fresh interpreter."""

import dataclasses
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from wenocad import cli, network
from wenocad.training import dataset as wdata
from wenocad.weights import modified_delta_array


def stencil_trace(params, stencils):
    """`network.forward_trace` of stencils (..., 3): the training pass on
    their feature rows, with the weights in the stencils' shape."""
    feats = modified_delta_array(np.asarray(stencils, dtype=float))
    tr = network.forward_trace(params, feats.reshape(-1, 4))
    return dataclasses.replace(tr, omega=tr.omega.reshape(feats.shape[:-1] + (2,)))


def fresh_python(script, *args):
    """Run `script` (dedented) in a new interpreter that imports this
    checkout's wenocad, and return the JSON its last output line prints."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script),
                           *map(str, args)],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="session")
def cadnn1_params():
    strategy = cli.load_strategy("weno3-cadnn1")
    return strategy.params


@pytest.fixture(scope="session")
def cadnn2_params():
    strategy = cli.load_strategy("weno3-cadnn2")
    return strategy.params


@pytest.fixture(scope="session")
def random_params():
    return network.init_params(seed=123)


@pytest.fixture(scope="session")
def small_dataset():
    """A deterministic slice of the full training set, one of each kind."""
    full = wdata.generate_dataset(seed=3)
    rng = np.random.default_rng(7)
    idx = rng.choice(len(full), size=400, replace=False)
    return wdata.Dataset(
        stencils=full.stencils[idx],
        labels=full.labels[idx],
        kinds=full.kinds[idx],
        families=full.families[idx],
        seed=3,
    )
