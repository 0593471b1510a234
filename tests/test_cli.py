"""Command-line interface: subcommands, exit codes, output files."""

import json
import pkgutil

import numpy as np
import pytest

import wenocad
from conftest import fresh_python
from wenocad import cli, network
from wenocad.solvers import driver


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


class TestExitCodes:
    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_unknown_problem(self, capsys):
        code = cli.main(["run", "--problem", "warp-drive",
                         "--scheme", "weno3-z"])
        assert code == cli.EXIT_PROBLEM
        assert "unknown problem" in capsys.readouterr().err

    def test_unknown_scheme_lists_known(self, capsys):
        code = cli.main(["run", "--problem", "sod", "--scheme", "weno9"])
        assert code == cli.EXIT_SCHEME
        err = capsys.readouterr().err
        assert "weno3-cadnn1" in err and "weno5-js" in err

    def test_missing_weights_file(self, tmp_path, capsys):
        code = cli.main(["run", "--problem", "sod",
                         "--scheme", "weno3-cadnn1",
                         "--weights", str(tmp_path / "nope.json")])
        assert code == cli.EXIT_WEIGHTS

    def test_malformed_weights_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = cli.main(["run", "--problem", "sod",
                         "--scheme", "weno3-cadnn2",
                         "--weights", str(bad)])
        assert code == cli.EXIT_WEIGHTS

    def test_weights_file_with_bad_entries(self, tmp_path, capsys,
                                           random_params):
        bad = tmp_path / "bad.json"
        network.save_params(random_params, bad)
        blob = json.loads(bad.read_text())
        blob["layers"]["w1"] = [[1, 2], [3]]
        bad.write_text(json.dumps(blob))
        code = cli.main(["run", "--problem", "sod",
                         "--scheme", "weno3-cadnn2",
                         "--weights", str(bad)])
        assert code == cli.EXIT_WEIGHTS
        assert "layer w1" in capsys.readouterr().err

    def test_solver_failure(self, tmp_path, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise FloatingPointError("synthetic blowup")

        monkeypatch.setattr(cli.driver, "advance", boom)
        code = cli.main(["run", "--problem", "sod", "--scheme", "weno3-z",
                         "--n", "16", "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_SOLVER
        assert "solver failed" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_convergence_solver_failure(self, tmp_path, capsys):
        # CFL 5 blows the state up to a non-finite one within a few steps
        out = tmp_path / "c.csv"
        code = cli.main(["convergence", "--scheme", "weno3-z",
                         "--levels", "16,32", "--cfl", "5", "--tfinal", "200",
                         "--out", str(out)])
        assert code == cli.EXIT_SOLVER
        err = capsys.readouterr().err
        assert "wenocad: solver failed:" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverging_training(self, tmp_path, capsys):
        # a learning rate of 1e6 sends the loss to a non-finite value in
        # the first epoch, with no warning printed on the way
        out = tmp_path / "w.json"
        cfg = tmp_path / "t.cfg"
        cfg.write_text("c = 100\nd = 10\nlr = 1e6\nepochs = 3\n"
                       f"pretrain_epochs = 0\nout = {out}\n")
        assert cli.main(["train", str(cfg)]) == cli.EXIT_SOLVER
        err = capsys.readouterr().err
        assert err.startswith("wenocad: training failed:")
        assert "is non-finite" in err and err.count("\n") == 1
        assert not out.exists()

    def test_training_bug_is_not_a_training_failure(self, tmp_path,
                                                    monkeypatch):
        def bug(*args, **kwargs):
            raise TypeError("synthetic bug")

        monkeypatch.setattr(cli.loop, "train", bug)
        cfg = tmp_path / "t.cfg"
        cfg.write_text(f"c = 1\nd = 0\nout = {tmp_path / 'w.json'}\n")
        with pytest.raises(TypeError, match="synthetic bug"):
            cli.main(["train", str(cfg)])

    def test_bad_training_config(self, tmp_path, capsys):
        cfg = tmp_path / "t.cfg"
        cfg.write_text("c = 1\nd = 0\n")      # no out path
        assert cli.main(["train", str(cfg)]) == cli.EXIT_CONFIG
        assert cli.main(["train", str(tmp_path / "missing.cfg")]) == \
            cli.EXIT_CONFIG

    @pytest.mark.parametrize("key", ["epochs", "batch_size", "pretrain_batch"])
    def test_zero_training_count(self, tmp_path, capsys, key):
        cfg = tmp_path / "t.cfg"
        cfg.write_text(f"c = 1\nd = 0\nout = {tmp_path / 'w.json'}\n{key} = 0\n")
        assert cli.main(["train", str(cfg)]) == cli.EXIT_CONFIG
        assert f"{key} must be at least 1" in capsys.readouterr().err

    def test_negative_learning_rate(self, tmp_path, capsys):
        cfg = tmp_path / "t.cfg"
        cfg.write_text(f"c = 1\nd = 0\nout = {tmp_path / 'w.json'}\nlr = -1e-4\n")
        assert cli.main(["train", str(cfg)]) == cli.EXIT_CONFIG
        assert "lr must be above 0" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["out", "history"])
    def test_training_output_in_missing_directory(self, tmp_path, capsys,
                                                  monkeypatch, key):
        def must_not_train(*args, **kwargs):
            raise AssertionError("trained before checking the output paths")

        monkeypatch.setattr(cli.loop, "train", must_not_train)
        paths = {"out": tmp_path / "w.json", "history": tmp_path / "h.csv"}
        paths[key] = tmp_path / "missing" / paths[key].name
        cfg = tmp_path / "t.cfg"
        cfg.write_text("c = 0\nd = 0\nepochs = 1\npretrain_epochs = 1\n"
                       f"out = {paths['out']}\nhistory = {paths['history']}\n")
        assert cli.main(["train", str(cfg)]) == cli.EXIT_CONFIG
        assert f"{key} = {paths[key]}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["run", "--problem", "sod", "--scheme", "weno3-z", "--n", "4"],
        ["run", "--problem", "sod", "--scheme", "weno3-z", "--n", "0"],
        ["run", "--problem", "sod", "--scheme", "weno3-z", "--n", "-5"],
        ["run", "--problem", "riemann2d", "--scheme", "weno3-z",
         "--nx", "16", "--ny", "7"],
        ["compare", "--problem", "sod", "--n", "-3"],
        ["run", "--problem", "sod", "--scheme", "weno3-z", "--tfinal", "-1"],
        ["run", "--problem", "sod", "--scheme", "weno3-z", "--tfinal", "nan"],
        ["run", "--problem", "sod", "--scheme", "weno3-z", "--cfl", "0"],
        ["convergence", "--scheme", "weno3-z", "--tfinal", "inf"],
        ["compare", "--problem", "sod", "--cfl", "-0.4"],
    ], ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
    def test_out_of_range_number(self, monkeypatch, capsys, argv):
        def must_not_solve(*args, **kwargs):
            raise AssertionError("solved before checking the flags")

        monkeypatch.setattr(cli.driver, "advance", must_not_solve)
        monkeypatch.setattr(cli, "_advect_sine", must_not_solve)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert f"argument {argv[-2]}:" in capsys.readouterr().err

    def test_levels_below_a_stencil(self, tmp_path, capsys):
        code = cli.main(["convergence", "--scheme", "weno3-linear",
                         "--levels", "0,8", "--out", str(tmp_path / "c.csv")])
        assert code == 2
        assert "--levels" in capsys.readouterr().err

    def test_ny_on_a_line_is_rejected(self, tmp_path, capsys):
        code = cli.main(["run", "--problem", "sod", "--scheme", "weno3-z",
                         "--n", "16", "--ny", "16", "--out", str(tmp_path)])
        assert code == 2
        assert "--ny" in capsys.readouterr().err

    def test_n_with_nx_is_rejected(self, tmp_path, monkeypatch, capsys):
        def must_not_solve(*args, **kwargs):
            raise AssertionError("solved a line given both --n and --nx")

        monkeypatch.setattr(cli.driver, "advance", must_not_solve)
        code = cli.main(["run", "--problem", "sod", "--scheme", "weno3-z",
                         "--nx", "16", "--n", "32", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "--n " in err and "--nx" in err

    def test_n_on_a_plane_is_rejected(self, tmp_path, monkeypatch, capsys):
        def must_not_solve(*args, **kwargs):
            raise AssertionError("solved a 2D problem with --n")

        monkeypatch.setattr(cli.driver, "advance", must_not_solve)
        code = cli.main(["run", "--problem", "riemann2d", "--scheme", "weno3-z",
                         "--n", "16", "--out", str(tmp_path)])
        assert code == 2
        assert "--n " in capsys.readouterr().err

    def test_negative_log_interval_is_rejected(self, tmp_path, monkeypatch,
                                               capsys):
        def must_not_train(*args, **kwargs):
            raise AssertionError("trained with a negative --log-every")

        monkeypatch.setattr(cli.loop, "train", must_not_train)
        cfg = tmp_path / "train.cfg"
        cfg.write_text(f"c = 0\nd = 0\nout = {tmp_path / 'w.json'}\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", str(cfg), "--log-every", "-1"])
        assert exc.value.code == 2
        assert "argument --log-every:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, where", [
        (["run", "--problem", "sod", "--scheme", "weno3-z", "--n", "16"],
         "file"),
        (["run", "--problem", "sod", "--scheme", "weno3-z", "--n", "16"],
         "below a file"),
        (["compare", "--problem", "sod", "--n", "16"], "missing/c.csv"),
        (["convergence", "--scheme", "weno3-z", "--levels", "16"],
         "missing/v.csv"),
    ], ids=lambda v: v[0] if isinstance(v, list) else v)
    def test_unwritable_output_stops_before_the_solve(
            self, tmp_path, monkeypatch, capsys, argv, where):
        def must_not_solve(*args, **kwargs):
            raise AssertionError("solved before checking the output path")

        monkeypatch.setattr(cli.driver, "advance", must_not_solve)
        monkeypatch.setattr(cli, "_advect_sine", must_not_solve)
        (tmp_path / "file").write_text("")
        out = {"file": tmp_path / "file",
               "below a file": tmp_path / "file" / "run"}.get(
                   where, tmp_path / where)
        assert cli.main(argv + ["--out", str(out)]) == 2
        assert f"cannot write {out}" in capsys.readouterr().err

    def test_run_rejects_weights_for_a_classical_scheme(
            self, tmp_path, monkeypatch, capsys):
        def must_not_solve(*args, **kwargs):
            raise AssertionError("solved a classical scheme given --weights")

        monkeypatch.setattr(cli.driver, "advance", must_not_solve)
        code = cli.main(["run", "--problem", "sod", "--scheme", "weno3-z",
                         "--weights", str(tmp_path / "x.json"), "--n", "16",
                         "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "--weights" in err and "weno3-z" in err

    def test_convergence_rejects_weights_for_a_classical_scheme(
            self, tmp_path, monkeypatch, capsys):
        def must_not_solve(*args, **kwargs):
            raise AssertionError("solved a classical scheme given --weights")

        monkeypatch.setattr(cli, "_advect_sine", must_not_solve)
        out = tmp_path / "c.csv"
        code = cli.main(["convergence", "--scheme", "weno5-js",
                         "--weights", str(tmp_path / "x.json"),
                         "--levels", "16,32", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "--weights" in err and "weno5-js" in err
        assert not out.exists()

    def test_convergence_rejects_other_problems(self, capsys):
        # the study always runs smooth advection: --problem is no flag of it
        with pytest.raises(SystemExit) as exc:
            cli.main(["convergence", "--problem", "sod", "--scheme", "weno3-z"])
        assert exc.value.code == 2
        assert "--problem" in capsys.readouterr().err

    def test_convergence_bad_levels(self, tmp_path):
        code = cli.main(["convergence", "--scheme", "weno3-linear",
                         "--levels", "16,banana",
                         "--out", str(tmp_path / "c.csv")])
        assert code == 2

    @pytest.mark.parametrize("levels", ["16,16", "32,16", "16,32,32"])
    def test_convergence_levels_must_increase(self, tmp_path, monkeypatch,
                                              capsys, levels):
        def must_not_solve(*args, **kwargs):
            raise AssertionError("solved before checking the levels")

        monkeypatch.setattr(cli, "_advect_sine", must_not_solve)
        out = tmp_path / "c.csv"
        code = cli.main(["convergence", "--scheme", "weno3-z",
                         "--levels", levels, "--out", str(out)])
        assert code == 2
        assert "--levels" in capsys.readouterr().err
        assert not out.exists()

    def test_compare_needs_reference(self, capsys):
        code = cli.main(["compare", "--problem", "riemann2d"])
        assert code == cli.EXIT_PROBLEM
        assert "reference" in capsys.readouterr().err


class TestImports:
    def test_a_run_loads_only_scipy_special(self, tmp_path):
        # scipy.interpolate pulls in optimize, linalg, sparse, spatial and
        # fft; only the PCHIP restriction of a fine-grid reference needs it
        script = """
            import json, sys
            import wenocad
            from wenocad import cli
            code = cli.main(["run", "--problem", "sod", "--scheme", "weno3-z",
                             "--n", "16", "--out", sys.argv[1]])
            print(json.dumps({"code": code, "modules": list(sys.modules)}))
        """
        out = fresh_python(script, tmp_path / "sod")
        assert out["code"] == 0
        loaded = {m.split(".")[1] for m in out["modules"]
                  if m.startswith("scipy.")}
        assert "special" in loaded
        assert loaded.isdisjoint({"interpolate", "optimize", "linalg",
                                  "sparse", "spatial", "fft"})


    # modules that need neither the network nor SciPy, packages included
    LEAVES = {"wenocad", "wenocad.solvers", "wenocad.benchmarks", "wenocad.training",
              "wenocad.errors", "wenocad.weights", "wenocad.solvers.euler",
              "wenocad.solvers.boundary", "wenocad.benchmarks.riemann",
              "wenocad.benchmarks.errors", "wenocad.training.dataset",
              "wenocad.training.optim", "wenocad.workers"}

    def test_every_module_imports_on_its_own(self):
        # each module in a fresh interpreter, so no import order hides a
        # missing import; the leaves must not pull in the network's SciPy
        names = ["wenocad"] + [m.name for m in
                               pkgutil.walk_packages(wenocad.__path__, "wenocad.")]
        assert self.LEAVES <= set(names)
        script = """
            import importlib, json, sys
            importlib.import_module(sys.argv[1])
            print(json.dumps(list(sys.modules)))
        """
        heavy = {}
        for name in names:
            loaded = {"scipy.special", "wenocad.network"} & set(fresh_python(script, name))
            if name in self.LEAVES and loaded:
                heavy[name] = sorted(loaded)
        assert heavy == {}


class TestSchemeResolution:
    def test_scheme_names(self):
        names = cli.scheme_names()
        assert names == ["weno3-js", "weno3-z", "weno3-linear", "weno5-js",
                         "weno5-m", "weno5-linear", "weno3-cadnn1",
                         "weno3-cadnn2"]

    @pytest.mark.parametrize("name", cli.scheme_names())
    def test_bundled_neural_weights_load(self, name):
        strategy = cli.load_strategy(name)
        assert strategy.name == name
        assert strategy.stencil_width in (3, 5)
        assert name.startswith(f"weno{strategy.stencil_width}-")

    def test_explicit_weights_path(self, tmp_path, random_params):
        p = tmp_path / "w.json"
        network.save_params(random_params, p)
        strategy = cli.load_strategy("weno3-cadnn1", p)
        assert strategy.name == "weno3-cadnn1"


class TestRun1D:
    def test_euler_run_outputs(self, tmp_path, capsys):
        out = tmp_path / "sod"
        code = cli.main(["run", "--problem", "sod", "--scheme", "weno3-z",
                         "--n", "64", "--tfinal", "0.4", "--out", str(out)])
        assert code == 0
        assert "sod / weno3-z" in capsys.readouterr().out

        header, data = read_csv(out / "solution.csv")
        assert header == ["x", "density", "velocity", "pressure",
                          "density_ref", "velocity_ref", "pressure_ref",
                          "density_err"]
        assert data.shape == (64, 8)
        np.testing.assert_allclose(data[:, 0],
                                   driver.cell_centers(-5.0, 5.0, 64),
                                   rtol=1e-15)
        assert np.all(data[:, 1] > 0.0)

        meta = json.loads((out / "run.json").read_text())
        assert meta["problem"] == "sod"
        assert meta["scheme"] == "weno3-z"
        assert meta["n"] == 64
        assert meta["steps"] > 0
        assert meta["t_final"] == pytest.approx(0.4, abs=1e-12)
        assert meta["min_density"] > 0.0
        assert meta["min_pressure"] > 0.0
        assert meta["l1_density"] > 0.0
        assert meta["linf_density"] >= meta["l1_density"] / 10.0
        assert (meta["fallback_stages"], meta["fallback_cells"]) == (0, 0)

    def test_fallback_counts_reported(self, tmp_path):
        out = tmp_path / "123"
        code = cli.main(["run", "--problem", "123", "--scheme", "weno3-linear",
                         "--n", "100", "--out", str(out)])
        assert code == 0
        meta = json.loads((out / "run.json").read_text())
        assert meta["fallback_stages"] > 0
        assert meta["fallback_cells"] >= meta["fallback_stages"]

    def test_scalar_run_outputs(self, tmp_path):
        out = tmp_path / "adv"
        code = cli.main(["run", "--problem", "advection",
                         "--scheme", "weno3-linear", "--n", "64",
                         "--tfinal", "0.5", "--out", str(out)])
        assert code == 0
        header, data = read_csv(out / "solution.csv")
        assert header == ["x", "u", "u_ref", "err"]
        assert data.shape == (64, 4)
        np.testing.assert_allclose(data[:, 3],
                                   np.abs(data[:, 1] - data[:, 2]),
                                   atol=1e-15)
        meta = json.loads((out / "run.json").read_text())
        assert "min_density" not in meta
        assert meta["l1"] > 0.0

    def test_neural_scheme_runs(self, tmp_path):
        out = tmp_path / "cad"
        code = cli.main(["run", "--problem", "sod",
                         "--scheme", "weno3-cadnn1", "--n", "48",
                         "--tfinal", "0.3", "--out", str(out)])
        assert code == 0
        meta = json.loads((out / "run.json").read_text())
        assert meta["scheme"] == "weno3-cadnn1"
        assert meta["min_density"] > 0.0

    def test_default_output_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = cli.main(["run", "--problem", "sod", "--scheme", "weno3-z",
                         "--n", "32", "--tfinal", "0.1"])
        assert code == 0
        assert (tmp_path / "sod_weno3-z" / "solution.csv").is_file()

    def test_csv_round_trips_at_full_precision(self, tmp_path):
        path = tmp_path / "t.csv"
        values = np.array([1.0 / 3.0, np.pi, 1e-300, 7.1])
        cli._write_csv(path, ["a", "b"], [values, values * 3.0])
        _, data = read_csv(path)
        np.testing.assert_array_equal(data[:, 0], values)
        np.testing.assert_array_equal(data[:, 1], values * 3.0)


class TestRun2D:
    def test_field_dumps(self, tmp_path):
        out = tmp_path / "r2d"
        code = cli.main(["run", "--problem", "riemann2d",
                         "--scheme", "weno3-z", "--nx", "16", "--ny", "16",
                         "--tfinal", "0.05", "--out", str(out)])
        assert code == 0
        for fname in ("rho.dat", "velocity_x.dat", "velocity_y.dat",
                      "pressure.dat"):
            path = out / fname
            assert path.is_file()
            first = path.read_text().splitlines()[0]
            bits = first.split()
            assert bits[0] == "#"
            assert [int(bits[1]), int(bits[2])] == [16, 16]
            assert [float(v) for v in bits[3:7]] == [0.0, 1.0, 0.0, 1.0]
            assert float(bits[7]) == pytest.approx(0.05, abs=1e-12)
            field = np.loadtxt(path)
            assert field.shape == (16, 16)
        rho = np.loadtxt(out / "rho.dat")
        assert np.all(rho > 0.0)
        meta = json.loads((out / "run.json").read_text())
        assert (meta["nx"], meta["ny"]) == (16, 16)
        assert meta["min_density"] > 0.0


class TestConvergence:
    def test_refinement_table(self, tmp_path, capsys):
        out = tmp_path / "conv.csv"
        code = cli.main(["convergence", "--scheme", "weno3-linear",
                         "--levels", "16,32", "--tfinal", "0.25",
                         "--out", str(out)])
        assert code == 0
        header, data = read_csv(out)
        assert header == ["n", "dx", "linf", "eoc_linf", "l1", "eoc_l1"]
        assert data.shape == (2, 6)
        assert data[0, 0] == 16 and data[1, 0] == 32
        assert np.isnan(data[0, 3])
        assert data[1, 3] > 2.5        # third-order refinement
        assert data[1, 2] < data[0, 2]
        assert "table ->" in capsys.readouterr().out


class TestCompare:
    def test_two_scheme_table(self, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        code = cli.main(["compare", "--problem", "sod",
                         "--schemes", "weno3-z", "weno5-js",
                         "--n", "48", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "scheme,l1,linf,steps,wall_time"
        assert len(lines) == 3
        assert lines[1].startswith("weno3-z,")
        assert lines[2].startswith("weno5-js,")
        l1_z = float(lines[1].split(",")[1])
        l1_js5 = float(lines[2].split(",")[1])
        assert 0.0 < l1_js5 < l1_z     # fifth order resolves the tube better
        assert "scheme" in capsys.readouterr().out

    def test_scalar_problem_compare(self, tmp_path):
        out = tmp_path / "cmp_adv.csv"
        code = cli.main(["compare", "--problem", "advection",
                         "--schemes", "weno3-linear", "--n", "32",
                         "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("weno3-linear,")


class TestTrain:
    def test_tiny_training_run(self, tmp_path, capsys):
        params_path = tmp_path / "params.json"
        hist_path = tmp_path / "hist.csv"
        cfg = tmp_path / "train.cfg"
        cfg.write_text(
            "# smoke configuration\n"
            "c = 0\n"
            "d = 0\n"
            "epochs = 1\n"
            "pretrain_epochs = 1\n"
            "batch_size = 8000\n"
            "pretrain_batch = 24000\n"
            "seed = 1\n"
            f"out = {params_path}\n"
            f"history = {hist_path}\n"
        )
        code = cli.main(["train", str(cfg), "--log-every", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "best full-dataset loss" in out

        params = network.load_params(params_path)
        assert params.hyper_c == 0.0
        assert params.rng_seed == 1
        assert np.isfinite(params.training_loss)

        header, data = read_csv(hist_path)
        assert header == ["epoch", "l_cad", "l_sym", "l_ln", "total"]
        assert data.shape == (3, 5)    # init + 1 pretrain + 1 main
        np.testing.assert_array_equal(data[:, 0], [0.0, 1.0, 2.0])
