"""Golden outputs: short runs of the classical and neural schemes, pinned
bit for bit.

Each case pins the sha256 of the final interior state, the step count and
the positivity-fallback counters.  Refactors of the sweep, the network,
the forward-Euler piece or the systems must reproduce them exactly.  The
neural cases go through BLAS matrix products, whose rounding depends on
the BLAS and the machine; the comment above them names the BLAS they were
taken with.  A second set pins the sha256 of the files the CLI writes, so
the output columns, names and formats hold as well.
"""

import hashlib
import json

import numpy as np
import pytest

from wenocad import cli
from wenocad import reconstruction as rec
from wenocad.benchmarks import problems
from wenocad.solvers import driver

# (problem, scheme, nx, ny, t_final or None for the canonical time,
#  steps, fallback stages, fallback cells, sha256 of the interior state)
CASES = [
    ("advection", "weno3-z", 80, None, 0.5, 50, 0, 0,
     "226da6cd0f5ff2cda92cd90f018acd6e9a0399181fef69445a505d95ac8c8d00"),
    ("advection", "weno5-js", 80, None, 0.5, 50, 0, 0,
     "0a9c9eeb046cc1d9ff6fcff3c697cd88f586e77aedc4063cd0bc03ac13b7a5e8"),
    # the 1D fallback fires
    ("123", "weno3-linear", 100, None, None, 69, 129, 272,
     "9dc5f69bc8141342ba5b4dae22c5850b4193bb2f6973ac96ce05503cf935a33f"),
    ("sod", "weno3-js", 100, None, None, 108, 0, 0,
     "b544fe8d2577e9a71be3b96e99a6b93b0edbd1ef40f099a9aaab56a199b435de"),
    ("blast", "weno5-js", 100, None, 0.01, 123, 0, 0,
     "a51ab2a0506e94d8037b7a8e401d8e6f00b958fcad326c9e83e19b1b61534015"),
    # the 2D fallback fires
    ("riemann2d", "weno3-linear", 40, 40, None, 361, 956, 8647,
     "b43054bd7a06ee749cc22663dc8756c2a0d85aac0c2bfc30b51af710eeeb052e"),
    # custom boundary fills; the step adds a solid mask
    ("dmr", "weno5-m", 64, 16, 0.02, 17, 0, 0,
     "d87ddb2e4a53432a711eda2da3af2eee162f950794fdb82a48eb2f514a701b43"),
    ("step", "weno3-z", 48, 16, 0.2, 51, 0, 0,
     "ea0b6c7c5559d30bc9254b03b8bd61b9ec4ab8f79567a2beec76434b71b8d35d"),
    # gravity source term
    ("rayleigh-taylor", "weno3-js", 12, 48, 0.3, 148, 0, 0,
     "85820292eb9b0e9be4b4795a00fdb265347faddf708904d861fea6ccc3ae2e92"),
    # The network's dense layers go through BLAS: these digests were taken
    # with numpy 2.4.6's OpenBLAS 0.3.31 (scipy-openblas, DYNAMIC_ARCH,
    # Haswell kernels), on one thread and on two alike.  Another BLAS may
    # round differently.
    ("sod", "weno3-cadnn1", 100, None, None, 109, 0, 0,
     "cd9ba00144c3b9215359cf7d7bad381ca11e8b24fc1ddfdde338d1974f888c6d"),
    ("sod", "weno3-cadnn2", 100, None, None, 109, 0, 0,
     "8f77e772b654dd3aef73be0a47620104eee39fc5d287d2a8ba75efc16275e051"),
    # the fallback fires under the network's weights
    ("123", "weno3-cadnn2", 100, None, None, 69, 64, 134,
     "e6a9241b56f6f3ecad54bd93d8ed5c528609274a7319d03d21695c5ccdb2973e"),
    # past t = 0 the batches mix constant-data rows with the others
    ("riemann2d", "weno3-cadnn2", 16, 16, 0.05, 9, 0, 0,
     "cc7a2fe5f1ae10c12a662bdc89628eef19589624ca2fb16f5115ccff1b2fcd77"),
]


@pytest.mark.parametrize(
    "problem, scheme, nx, ny, t_final, steps, stages, cells, digest", CASES,
    ids=[f"{c[0]}-{c[1]}" for c in CASES])
def test_golden_run(problem, scheme, nx, ny, t_final, steps, stages, cells,
                    digest):
    spec = problems.get(problem)
    strategy = cli.load_strategy(scheme)
    grid, bc, source = problems.make_grid(spec, rec.ghost_width(strategy),
                                          nx=nx, ny=ny)
    result = driver.advance(grid, bc, strategy, t_final or spec.t_final,
                            source=source)
    state = np.ascontiguousarray(grid.interior, dtype=np.float64)
    assert (result.steps, result.fallback_stages, result.fallback_cells) == (
        steps, stages, cells)
    assert hashlib.sha256(state.tobytes()).hexdigest() == digest


def _output_digest(path):
    """sha256 of a CLI output file, with the wall-clock fields cut out:
    `wall_time` from run.json and the last column of the compare table."""
    if path.name == "run.json":
        meta = json.loads(path.read_text())
        del meta["wall_time"]
        data = json.dumps(meta, indent=2)
    elif path.name.startswith("compare"):
        data = "".join(line.rsplit(",", 1)[0] + "\n"
                       for line in path.read_text().splitlines())
    else:
        data = path.read_text()
    return hashlib.sha256(data.encode()).hexdigest()


# (label, CLI arguments before --out, {output file: sha256}); `run` writes
# into the directory given by --out, `compare` into the file itself
CLI_CASES = [
    ("run-sod", ["run", "--problem", "sod", "--scheme", "weno3-z",
                 "--n", "64", "--tfinal", "0.4"], {
        "solution.csv":
            "a0ca81f7554165ec823deed594e37e7912a42009b2e85bea5198bb3d10a32209",
        "run.json":
            "40de8a355d3774ed0b43ef65eba69be1f64881dc42ce85d99a4230abdf2ada1d",
    }),
    ("run-advection", ["run", "--problem", "advection",
                       "--scheme", "weno3-linear", "--n", "64",
                       "--tfinal", "0.5"], {
        "solution.csv":
            "5a60403c2d4a6ae5a931c8c35294ebe6ed39ae4ea5b97b2ea6b45c909c45db07",
        "run.json":
            "5724669d07990e413cded05e75aa1031294b09e1828aee8c5d478381383b5923",
    }),
    ("run-riemann2d", ["run", "--problem", "riemann2d", "--scheme", "weno3-z",
                       "--nx", "16", "--ny", "16", "--tfinal", "0.05"], {
        "rho.dat":
            "23398f89dc5471ef0305ed6f9893bfef3e599d81417c284ddd38227e161b11d1",
        "velocity_x.dat":
            "c3fe99de676f71caea400dc728681ffb42c3a2c159f5ef399f50092923b75e9f",
        "velocity_y.dat":
            "61488fdbbff4aed675440bff02fec998e1e43b0f3d4c629192c1530fbdf084e2",
        "pressure.dat":
            "8c5dbe8160ec3bce34fa115bb5de467292c3b15656b732161fb92261bbefbe24",
        "run.json":
            "09afcf8252ee093eaf2840c495a553cc79660b264f2743949b76190c1ef96202",
    }),
    ("compare-sod", ["compare", "--problem", "sod",
                     "--schemes", "weno3-z", "weno5-js", "--n", "48"], {
        "compare.csv":
            "8642b86170fc08227edfb4a3a4bcdcf1ee6945c7fbb36d7b06d5cdb05eba45a7",
    }),
    ("compare-advection", ["compare", "--problem", "advection",
                           "--schemes", "weno3-linear", "weno5-js",
                           "--n", "32"], {
        "compare.csv":
            "ee05f8c391589680b3b3cbb5c946894c163e9d0a25f8a54edb3c7598d357d306",
    }),
]


@pytest.mark.parametrize("label, argv, digests", CLI_CASES,
                         ids=[c[0] for c in CLI_CASES])
def test_golden_cli_output(tmp_path, capsys, label, argv, digests):
    out = tmp_path / "compare.csv" if argv[0] == "compare" else tmp_path
    assert cli.main(argv + ["--out", str(out)]) == 0
    got = {name: _output_digest(tmp_path / name) for name in digests}
    assert got == digests
