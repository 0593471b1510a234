"""Training loop: prior targets, determinism, history, config parsing."""

import hashlib
import multiprocessing
import re
import sys
import time

import numpy as np
import pytest

from wenocad import network, workers
from wenocad import weights as wt
from wenocad.training import loop, loss
from wenocad.training.dataset import Dataset, generate_dataset


def tiny_dataset(n=600, seed=4):
    full = generate_dataset(seed)
    rng = np.random.default_rng(0)
    idx = rng.choice(len(full), size=n, replace=False)
    return Dataset(full.stencils[idx], full.labels[idx],
                   full.kinds[idx], full.families[idx], seed)


class TestSelectionPrior:
    def test_linear_below_lower_ratio(self):
        s = np.array([[0.0, 1.0, 3.0]])   # ratio 2 < PRIOR_RATIO_LO
        w = loop.selection_prior(s)
        np.testing.assert_allclose(w[0], [1.0 / 3.0, 2.0 / 3.0], rtol=1e-14)

    def test_full_selection_above_upper_ratio(self):
        w = loop.selection_prior(np.array([[0.0, 100.0, 101.0]]))
        np.testing.assert_allclose(w[0], [0.0, 1.0], atol=1e-14)
        w = loop.selection_prior(np.array([[0.0, 1.0, 101.0]]))
        np.testing.assert_allclose(w[0], [1.0, 0.0], atol=1e-14)

    def test_blend_is_monotone_in_ratio(self):
        ratios = np.geomspace(loop.PRIOR_RATIO_LO, loop.PRIOR_RATIO_HI, 12)
        s = np.stack([np.zeros(12), np.ones(12), 1.0 + ratios], axis=1)
        w0 = loop.selection_prior(s)[:, 0]
        assert np.all(np.diff(w0) >= -1e-14)
        assert w0[0] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert w0[-1] == pytest.approx(1.0, abs=1e-12)

    def test_rows_are_convex_pairs(self):
        rng = np.random.default_rng(1)
        s = rng.uniform(-3, 3, (200, 3))
        w = loop.selection_prior(s)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, rtol=0, atol=1e-14)
        assert np.all(w >= 0.0)

    def test_constant_stencil_gets_linear_weights(self):
        w = loop.selection_prior(np.array([[2.0, 2.0, 2.0]]))
        np.testing.assert_allclose(w[0], [1.0 / 3.0, 2.0 / 3.0], rtol=1e-14)

    def test_flip_consistent_at_the_extremes(self):
        for s in ([0.0, 1.0, 2.5], [0.0, 50.0, 51.0]):
            s = np.array([s])
            w = loop.selection_prior(s)
            w_rev = loop.selection_prior(s[:, ::-1])
            np.testing.assert_allclose(
                w_rev, wt.flip_weights_array(w), atol=1e-12)


class TestTrainLoop:
    def test_bit_identical_reruns(self):
        data = tiny_dataset()
        hyper = loop.Hyperparams(hyper_c=100.0, hyper_d=0.0, epochs=2,
                                 pretrain_epochs=1, seed=9)
        p1, h1 = loop.train(hyper, dataset=data)
        p2, h2 = loop.train(hyper, dataset=data)
        for a, b in zip(p1.arrays(), p2.arrays()):
            np.testing.assert_array_equal(a, b)
        assert h1 == h2

    def test_history_layout(self):
        data = tiny_dataset()
        hyper = loop.Hyperparams(hyper_c=50.0, hyper_d=0.0, epochs=3,
                                 pretrain_epochs=2, seed=1)
        params, history = loop.train(hyper, dataset=data)
        assert len(history) == 1 + 2 + 3
        assert [s.epoch for s in history] == list(range(6))
        for s in history:
            assert s.total == pytest.approx(
                s.l_cad + 50.0 * s.l_sym + 0.0 * s.l_ln, rel=1e-12)

    def test_best_checkpoint_metadata(self):
        data = tiny_dataset()
        hyper = loop.Hyperparams(hyper_c=50.0, hyper_d=10.0, epochs=3,
                                 pretrain_epochs=1, seed=2)
        params, history = loop.train(hyper, dataset=data)
        main_totals = [s.total for s in history[1 + 1:]]
        assert params.training_loss == pytest.approx(min(main_totals))
        assert params.hyper_c == 50.0
        assert params.hyper_d == 10.0
        assert params.rng_seed == 2

    def test_pretraining_can_be_disabled(self):
        data = tiny_dataset()
        hyper = loop.Hyperparams(hyper_c=50.0, hyper_d=0.0, epochs=2,
                                 pretrain_epochs=0, seed=3)
        params, history = loop.train(hyper, dataset=data)
        assert len(history) == 3

    def test_log_reports_epoch_time_and_gradient_norm(self, tmp_path, caplog,
                                                      monkeypatch):
        data = tiny_dataset()
        hyper = loop.Hyperparams(hyper_c=50.0, hyper_d=10.0, epochs=4,
                                 pretrain_epochs=1, seed=6)
        _, quiet = loop.train(hyper, dataset=data)

        norms = []
        evaluate = loop.total_loss_and_gradient

        def recording(*args):
            breakdown, grads = evaluate(*args)
            norms.append(np.sqrt(sum(np.sum(g * g) for g in grads)))
            return breakdown, grads

        monkeypatch.setattr(loop, "total_loss_and_gradient", recording)
        with caplog.at_level("INFO", logger=loop.log.name):
            _, logged = loop.train(hyper, dataset=data, log_every=2)
        assert logged == quiet
        quiet_csv, logged_csv = tmp_path / "q.csv", tmp_path / "l.csv"
        loop.write_history(quiet, quiet_csv)
        loop.write_history(logged, logged_csv)
        assert quiet_csv.read_bytes() == logged_csv.read_bytes()

        lines = [r.getMessage() for r in caplog.records]
        assert len(lines) == 2
        per_epoch = len(norms) // hyper.epochs
        for k, line in enumerate(lines):
            fields = line.split()
            assert int(fields[1]) == 1 + 2 * (k + 1)
            seconds = float(fields[fields.index("s") - 1])
            assert 0.0 < seconds < 60.0
            norm = float(fields[fields.index("|grad|") + 1])
            last = norms[(2 * (k + 1)) * per_epoch - 1]
            assert norm == pytest.approx(last, rel=1e-5)

    def test_data_is_prepared_once(self, monkeypatch):
        """Both phases take their batches from the set prepared at the
        start, so the data-only kernels run once per training."""
        calls = dict.fromkeys(("modified_delta_array", "candidate_fluxes3",
                               "gauge_array"), 0)
        for module, name in ((network, "modified_delta_array"),
                             (loss, "modified_delta_array"),
                             (loss, "candidate_fluxes3"),
                             (loss, "gauge_array")):
            def counted(*args, fn=getattr(module, name), name=name):
                calls[name] += 1
                return fn(*args)

            monkeypatch.setattr(module, name, counted)
        hyper = loop.Hyperparams(hyper_c=50.0, hyper_d=10.0, epochs=1,
                                 pretrain_epochs=1, batch_size=100,
                                 pretrain_batch=400, seed=2)
        loop.train(hyper, dataset=tiny_dataset())
        assert calls == {"modified_delta_array": 1, "candidate_fluxes3": 1,
                         "gauge_array": 1}

    def test_history_file_round_trip(self, tmp_path):
        data = tiny_dataset()
        hyper = loop.Hyperparams(hyper_c=50.0, hyper_d=0.0, epochs=1,
                                 pretrain_epochs=1, seed=4)
        _, history = loop.train(hyper, dataset=data)
        path = tmp_path / "loss.csv"
        loop.write_history(history, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,l_cad,l_sym,l_ln,total"
        assert len(lines) == 1 + len(history)
        fields = lines[1].split(",")
        assert int(fields[0]) == history[0].epoch
        assert float(fields[1]) == history[0].l_cad
        assert float(fields[4]) == history[0].total


LOG_LINE = re.compile(r"epoch +(\d+)  l_cad (\S+)  l_sym (\S+)  l_ln (\S+)"
                      r"  total (\S+)  (\d+\.\d{3}) s  \|grad\| (\S+)")


class TestEvaluationOnTheWorker:
    """Each epoch's full-dataset loss runs on the worker thread while the
    next epoch descends, with the results of evaluating inline."""

    HYPER = loop.Hyperparams(hyper_c=50.0, hyper_d=10.0, epochs=3,
                             pretrain_epochs=2, seed=6)

    @pytest.fixture
    def slow_evaluations(self, monkeypatch):
        """Every full-dataset loss first sleeps, so that the next epoch's
        descent runs while it is outstanding; the list holds the
        evaluations started and not yet ended."""
        running = []
        evaluate = loop.total_loss

        def slow(*args):
            running.append(args[0])
            try:
                time.sleep(0.05)
                return evaluate(*args)
            finally:
                running.remove(args[0])

        monkeypatch.setattr(loop, "total_loss", slow)
        return running

    def test_worker_matches_inline(self, monkeypatch, slow_evaluations):
        data = tiny_dataset()
        runs = []
        for cpus in (1, 2):
            monkeypatch.setattr(workers, "CPUS", cpus)
            runs.append(loop.train(self.HYPER, dataset=data))
        (inline, h_inline), (overlapped, h_overlapped) = runs
        assert overlapped.flat.tobytes() == inline.flat.tobytes()
        assert overlapped.training_loss == inline.training_loss
        assert h_overlapped == h_inline
        # the checkpoint is the main-phase parameter set with that loss
        full = loss.Batch(data.stencils, data.labels)
        assert overlapped.training_loss == min(s.total for s in h_overlapped[3:])
        assert loss.total_loss(overlapped, full, 50.0, 10.0).total == overlapped.training_loss

    @pytest.mark.parametrize("where, cpus", [
        pytest.param(where, cpus, id=where + ("" if cpus > 1 else "-one-cpu"))
        for cpus in (2, 1) for where in ("evaluation", "descent")
    ])
    def test_a_failure_leaves_no_evaluation_running(self, monkeypatch,
                                                    slow_evaluations, where, cpus):
        monkeypatch.setattr(workers, "CPUS", cpus)
        evaluate, descend = loop.total_loss, loop.total_loss_and_gradient
        evaluations, batches = [], []

        def failing_evaluation(*args):
            evaluations.append(args[0])
            if where == "evaluation" and len(evaluations) == 4:  # epoch 3
                raise FloatingPointError("l_cad is non-finite")
            return evaluate(*args)

        def failing_descent(*args):
            batches.append(args[0])
            if where == "descent" and len(batches) == 4:  # main epoch 2
                raise FloatingPointError("gradient of l_cad is non-finite")
            return descend(*args)

        monkeypatch.setattr(loop, "total_loss", failing_evaluation)
        monkeypatch.setattr(loop, "total_loss_and_gradient", failing_descent)
        with pytest.raises(FloatingPointError, match="non-finite"):
            loop.train(self.HYPER, dataset=tiny_dataset())
        assert slow_evaluations == []
        assert workers.submit(len, slow_evaluations).result(timeout=5) == 0
        # epoch 3, the first main epoch, has 3 batches; its evaluation's
        # failure reaches the caller at most one epoch later
        assert len(batches) <= 6

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_log_has_one_line_per_main_epoch(self, monkeypatch, caplog, cpus):
        monkeypatch.setattr(workers, "CPUS", cpus)
        with caplog.at_level("INFO", logger=loop.log.name):
            _, history = loop.train(self.HYPER, dataset=tiny_dataset(), log_every=1)
        lines = [LOG_LINE.fullmatch(r.getMessage()) for r in caplog.records]
        assert all(lines)
        main = history[1 + self.HYPER.pretrain_epochs:]
        assert [int(m[1]) for m in lines] == [s.epoch for s in main]
        assert [m[5] for m in lines] == [f"{s.total:.6g}" for s in main]

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="needs the fork start method")
    def test_forked_child_trains_after_the_parent_used_the_pool(self, monkeypatch):
        monkeypatch.setattr(workers, "CPUS", 2)
        data = tiny_dataset()
        hyper = loop.Hyperparams(hyper_c=50.0, hyper_d=0.0, epochs=1,
                                 pretrain_epochs=0, seed=3)
        loop.train(hyper, dataset=data)
        assert workers._pool is not None
        child = multiprocessing.get_context("fork").Process(
            target=loop.train, args=(hyper, data))
        child.start()
        child.join(30)
        hung = child.is_alive()
        if hung:
            child.kill()
            child.join()
        assert not hung
        assert child.exitcode == 0


class TestConfig:
    def test_full_parse(self, tmp_path):
        cfg = tmp_path / "t.cfg"
        cfg.write_text(
            "# comment line\n"
            "c = 5750\n"
            "d = 0\n"
            "lr = 2e-4\n"
            "weight_decay = 0.02\n"
            "batch_size = 100\n"
            "epochs = 7\n"
            "seed = 3\n"
            "pretrain_epochs = 11\n"
            "pretrain_lr = 5e-4\n"
            "pretrain_batch = 200\n"
            "out = w.json  # trailing comment\n"
            "history = h.csv\n"
        )
        hyper, out, hist = loop.read_train_config(cfg)
        assert hyper.hyper_c == 5750.0
        assert hyper.hyper_d == 0.0
        assert hyper.lr == 2e-4
        assert hyper.weight_decay == 0.02
        assert hyper.batch_size == 100
        assert hyper.epochs == 7
        assert hyper.seed == 3
        assert hyper.pretrain_epochs == 11
        assert hyper.pretrain_lr == 5e-4
        assert hyper.pretrain_batch == 200
        assert out == "w.json"
        assert hist == "h.csv"

    def test_defaults_applied(self, tmp_path):
        cfg = tmp_path / "t.cfg"
        cfg.write_text("c = 100\nd = 5\nout = w.json\n")
        hyper, out, hist = loop.read_train_config(cfg)
        assert hyper.lr == 1e-4
        assert hyper.weight_decay == 0.01
        assert hyper.batch_size == 200
        assert hyper.epochs == 500
        assert hyper.pretrain_epochs == 100
        assert hist is None

    def test_missing_required_key(self, tmp_path):
        cfg = tmp_path / "t.cfg"
        cfg.write_text("c = 100\nout = w.json\n")
        with pytest.raises(ValueError, match="missing required key"):
            loop.read_train_config(cfg)

    def test_unknown_key(self, tmp_path):
        cfg = tmp_path / "t.cfg"
        cfg.write_text("c = 1\nd = 0\nout = w\nmomentum = 0.9\n")
        with pytest.raises(ValueError, match="unknown key"):
            loop.read_train_config(cfg)

    @pytest.mark.parametrize("field, value, message", [
        ("pretrain_epochs", -1, "pretrain_epochs must be at least 0"),
        ("seed", -1, "seed must be at least 0"),
        ("lr", float("nan"), "lr must be finite"),
        ("pretrain_lr", float("inf"), "pretrain_lr must be finite"),
        ("hyper_c", float("inf"), "c must be finite"),
        ("lr", -1e-4, "lr must be above 0"),
        ("lr", 0.0, "lr must be above 0"),
        ("pretrain_lr", 0.0, "pretrain_lr must be above 0"),
        ("weight_decay", -0.5, "weight_decay must be at least 0"),
        ("hyper_c", -5.0, "c must be at least 0"),
        ("hyper_d", -1.0, "d must be at least 0"),
    ])
    def test_invalid_values_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            loop.Hyperparams(**{"hyper_c": 1.0, "hyper_d": 0.0, field: value})

    def test_malformed_line(self, tmp_path):
        cfg = tmp_path / "t.cfg"
        cfg.write_text("c 100\n")
        with pytest.raises(ValueError, match="expected key = value"):
            loop.read_train_config(cfg)


class TestGolden:
    # sha256 of the save_params file and of the write_history file written
    # after the run below; the dense layers go through BLAS, so another
    # BLAS may round differently.  The history holds every epoch's
    # full-dataset loss, so a change to the descent or to the evaluation
    # that moves any loss bit shows here.
    DIGEST = "7f5d53033e0e47a7d46b1713521e630ddfccc661825e89f680f908aef178eb4a"
    HISTORY = "9533759e9c37014fc3faff9ce875e94be99745a2902ddd8b0eb2d9e942a1f55f"

    def test_short_retrain_is_pinned(self, tmp_path):
        hyper = loop.Hyperparams(hyper_c=7000.0, hyper_d=800.0, seed=5,
                                 pretrain_epochs=1, epochs=2)
        params, history = loop.train(hyper)
        weights, csv = tmp_path / "w.json", tmp_path / "h.csv"
        network.save_params(params, weights)
        loop.write_history(history, csv)
        assert hashlib.sha256(weights.read_bytes()).hexdigest() == self.DIGEST
        assert hashlib.sha256(csv.read_bytes()).hexdigest() == self.HISTORY
