import argparse
import csv
import json
import math
import os
import platform
from collections import Counter
from dataclasses import replace
from operator import attrgetter

import numpy as np
import pytest

import alsal
from alsal.active import ActiveConfig
from alsal.als import AlsConfig, DivergenceError
from alsal.alsdl import AlsdlConfig
from alsal.cli import (FLAG_KEYS, _config_from_json, build_parser, main,
                       resolve_config)
from alsal.metrics import Curve
from alsal.mlp import LossConfig, MlpTrainConfig
from alsal.runner import (MODELS, ConfigError, ExperimentConfig,
                          SyntheticSpec, aggregate_concentrations,
                          run_al_study, run_benchmark, write_report, Report)


def small_config(**overrides):
    cfg = ExperimentConfig(
        synthetic=SyntheticSpec(m=6, n=6, rank=2, noise_sd=0.0),
        seeds=(0,),
        folds=3,
        als=AlsConfig(d=2, epochs=20),
        alsdl=AlsdlConfig(als=AlsConfig(d=2, epochs=15),
                          mlp_train=MlpTrainConfig(epochs=15),
                          hidden_sizes=(6, 3)),
        active=ActiveConfig(n_init=6, n_per_query=6, n_max_query=2,
                            elm_inner_epochs=10))
    for k, v in overrides.items():
        setattr(cfg, k, v)
    return cfg


def read_rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


CSV_NAMES = ("learning_curves.csv", "training_curves.csv", "cv_summary.csv")


def small_dataset(path):
    """A 6 x 5 sensitivity CSV with two fully covered concentrations."""
    from conftest import csv_stream
    rng = np.random.default_rng(5)
    path.write_text(csv_stream(
        f"C{i},M{j},{c},{rng.uniform(0.5, 1.5):.6f},"
        f"{rng.uniform(-0.5, 0.5):.6f}\n"
        for i in range(6) for j in range(5) for c in (0.1, 1.0)).getvalue())
    return path


class TestRunBenchmark:
    def test_summary_and_curves(self):
        report = run_benchmark(small_config())
        assert len(report.cv_summary) == 2  # als + alsdl, one seed
        models = {r["model"] for r in report.cv_summary}
        assert models == {"als", "alsdl"}
        for r in report.cv_summary:
            assert 0.0 <= r["mean_test_accuracy"] <= 1.0
        # 3 folds x (20 als epochs) + 3 folds x (15+15 alsdl epochs)
        als_rows = sum(len(r["epoch_or_round"])
                       for r in report.training_curves if r["model"] == "als")
        assert als_rows == 3 * 20

    def test_noise_free_als_fits_well(self):
        cfg = small_config(models=("als",),
                           als=AlsConfig(d=2, epochs=400))
        report = run_benchmark(cfg)
        assert report.cv_summary[0]["mean_test_loss"] < 0.3

    def test_empty_model_list_rejected(self):
        with pytest.raises(ValueError, match="empty model list"):
            run_benchmark(small_config(models=()))

    def test_no_source_rejected(self):
        cfg = small_config()
        cfg.synthetic = None
        with pytest.raises(ValueError):
            run_benchmark(cfg)


class TestRunAlStudy:
    def test_row_counts(self):
        cfg = small_config(strategies=("random", "orderly"), seeds=(0, 1))
        report = run_al_study(cfg)
        # 3 curve points per (strategy, seed) with n_max_query=2
        assert len(report.learning_curves) == 2 * 2 * 3
        rounds = {r["round"] for r in report.learning_curves}
        assert rounds == {0, 1, 2}

    def test_empty_strategy_list_rejected(self):
        with pytest.raises(ValueError, match="empty strategy list"):
            run_al_study(small_config(strategies=()))

    def test_every_unit_trains_the_alsdl_config(self, monkeypatch):
        import alsal.runner as runner_mod
        real, calls = runner_mod.active_mod.run_active_learning, []

        def spy(matrix, model_cfg, cfg):
            calls.append((model_cfg, cfg.strategy, cfg.seed))
            return real(matrix, model_cfg, cfg)
        monkeypatch.setattr(runner_mod.active_mod, "run_active_learning", spy)
        cfg = small_config(strategies=("random", "orderly"), seeds=(0, 1))
        run_al_study(cfg)
        assert calls == [(cfg.alsdl, strategy, seed)
                         for strategy in ("random", "orderly")
                         for seed in (0, 1)]
        assert not hasattr(cfg.active, "model_cfg")


class TestUnitDivergence:
    @pytest.mark.parametrize("fold", [0, 1])
    def test_rows_before_the_divergence_stay(self, monkeypatch, fold):
        import alsal.runner as runner_mod
        real = runner_mod._train_one

        def train(config, model_name, matrix, split, seed, this_fold, shared):
            if (model_name, seed, this_fold) == ("als", 0, fold):
                raise DivergenceError(7)
            return real(config, model_name, matrix, split, seed, this_fold,
                        shared)
        monkeypatch.setattr(runner_mod, "_train_one", train)
        report = run_benchmark(small_config(seeds=(0, 1)))
        key = {"target": "synthetic", "concentration": "synthetic"}
        assert report.cv_summary[0] == dict(
            key, model="als", seed=0, status="diverged", diverged_epoch=7)
        # the next (model, seed) units still run, each to its summary
        assert [(r["model"], r["seed"], r["status"])
                for r in report.cv_summary[1:]] == [
            ("als", 1, "ok"), ("alsdl", 0, "ok"), ("alsdl", 1, "ok")]
        assert [(r["model"], r["seed"], r["fold"])
                for r in report.training_curves] == [
            ("als", 0, f) for f in range(fold)] + [
            (model, seed, f) for model in ("als", "alsdl")
            for seed in (0, 1) if (model, seed) != ("als", 0)
            for f in range(3)]


def count_als_epochs(monkeypatch):
    """A Counter whose "epochs" counts every als.als_epoch call."""
    import alsal.als as als_mod
    real, calls = als_mod.als_epoch, Counter()

    def counted(*args, **kwargs):
        calls["epochs"] += 1
        return real(*args, **kwargs)
    monkeypatch.setattr(als_mod, "als_epoch", counted)
    return calls


def lines_by_model(report, out):
    """{(CSV name, model): its data lines} of the report written to out."""
    write_report(report, out)
    lines = {}
    for name in ("training_curves.csv", "cv_summary.csv"):
        for line in (out / name).read_text().splitlines()[1:]:
            lines.setdefault((name, line.split(",")[0]), []).append(line)
    return lines


class TestSharedAlsRuns:
    """The als model's run and ALSDL's stage 1 share the epochs both train
    (here 15 of 20), in either model order, and every data line is the one
    each model gives when it is studied alone."""

    def compare(self, monkeypatch, tmp_path, cfg):
        """The ALS epochs of each model order, after checking that its
        lines equal those of the models run alone."""
        alone = {}
        for model in MODELS:
            alone.update(lines_by_model(
                run_benchmark(replace(cfg, models=(model,))),
                tmp_path / f"alone-{model}"))
        calls = count_als_epochs(monkeypatch)
        epochs = {}
        for models in (MODELS, MODELS[::-1]):
            calls.clear()
            report = run_benchmark(replace(cfg, models=models))
            epochs[models] = calls["epochs"]
            assert lines_by_model(report, tmp_path / "-".join(models)) \
                == alone
        return epochs

    def test_either_order_equals_each_model_alone(self, monkeypatch,
                                                  tmp_path):
        epochs = self.compare(monkeypatch, tmp_path, small_config())
        # 3 folds x 20 epochs, where each model alone trains 3 x (20 + 15)
        assert epochs == {MODELS: 60, MODELS[::-1]: 60}

    def test_configs_that_differ_beyond_epochs_share_nothing(
            self, monkeypatch, tmp_path):
        cfg = small_config()
        cfg.alsdl = replace(cfg.alsdl, als=replace(cfg.alsdl.als,
                                                   learning_rate=0.02))
        epochs = self.compare(monkeypatch, tmp_path, cfg)
        assert epochs == {MODELS: 105, MODELS[::-1]: 105}

    @pytest.mark.parametrize("stage1_epochs, epochs", [(15, 48), (5, 54)])
    def test_divergence_before_or_after_the_shared_epochs(
            self, monkeypatch, tmp_path, stage1_epochs, epochs):
        # fold 0's ALS runs diverge at epoch 8 of 40. A diverged run trains
        # to its end, then replays from its start up to epoch 8. Before the
        # 15 epochs both models train, nothing is shared: each model trains
        # 15 and replays 9, 2 x (15 + 9). After 5: fold 0's 5 shared
        # epochs, the als run's other 35 and its replay of epochs 5-8, and
        # alsdl's 5 for each other fold, 5 + 35 + 4 + 2 x 5 (alsdl first:
        # 3 x 5 + 35 + 4)
        cfg = small_config()
        cfg.als = replace(cfg.als, epochs=40, learning_rate=0.6)
        cfg.alsdl = replace(cfg.alsdl, als=replace(
            cfg.als, epochs=stage1_epochs))
        with np.errstate(all="ignore"):
            assert self.compare(monkeypatch, tmp_path, cfg) == {
                MODELS: epochs, MODELS[::-1]: epochs}
            report = run_benchmark(cfg)
        assert report.cv_summary[0] == dict(
            model="als", target="synthetic", concentration="synthetic",
            seed=0, status="diverged", diverged_epoch=8)
        assert report.cv_summary[1]["status"] == (
            "diverged" if stage1_epochs > 8 else "ok")

    def test_default_study_trains_4000_als_epochs(self, monkeypatch):
        cfg = ExperimentConfig(synthetic=SyntheticSpec(8, 7, 2, 0.1))
        calls = count_als_epochs(monkeypatch)
        run_benchmark(cfg)
        # 10 folds x 400, where alone the models train 10 x (400 + 200)
        assert calls["epochs"] == 4000


def forbid_training(monkeypatch):
    """Make any model training in a run fail the test."""
    import alsal.runner as runner_mod

    def trained(*args, **kwargs):
        raise AssertionError("a model was trained")
    monkeypatch.setattr(runner_mod, "_train_one", trained)
    monkeypatch.setattr(runner_mod.active_mod, "run_active_learning", trained)


class TestConfigChecks:
    """Bad names and counts are rejected before any model trains."""

    @pytest.mark.parametrize("run", [run_benchmark, run_al_study])
    @pytest.mark.parametrize("overrides, message", [
        ({"models": ("als", "foo")},
         "unknown model 'foo'; known: als, alsdl"),
        ({"strategies": ("random", "rand")},
         "unknown strategy 'rand'; known: orderly, random, uncertainty, elm"),
        ({"folds": 1}, "folds must be an integer of at least 2, not 1"),
        ({"folds": 2.0}, "folds must be an integer of at least 2, not 2.0"),
        ({"folds": True}, "folds must be an integer of at least 2, not True"),
        ({"models": ("als", "alsdl", "als")},
         "repeated model in ('als', 'alsdl', 'als')"),
        ({"strategies": ("elm", "elm")},
         "repeated strategy in ('elm', 'elm')"),
        ({"seeds": (0, 1, 1)}, "repeated seed in (0, 1, 1)"),
        ({"targets": ("gr", "ifd", "gr")},
         "repeated target in ('gr', 'ifd', 'gr')"),
        # concentrations are compared by float value
        ({"concentrations": (1.0, 0.1, 1)},
         "repeated concentration in (1.0, 0.1, 1.0)"),
        ({"concentrations": (2 ** 53 + 1, 2.0 ** 53)},
         "repeated concentration in (9007199254740992.0, "
         "9007199254740992.0)"),
        ({"column_map": 5}, "column_map must be null or an object mapping "
         "strings to strings, not 5"),
        ({"column_map": {"gr": 5}}, "column_map must be null or an object "
         "mapping strings to strings, not {'gr': 5}"),
        ({"column_map": {5: "gr"}}, "column_map must be null or an object "
         "mapping strings to strings, not {5: 'gr'}"),
        ({"column_map": ["gr"]}, "column_map must be null or an object "
         "mapping strings to strings, not ['gr']"),
        ({"dataset_path": 5}, "dataset_path must be null or a string, not 5"),
        ({"output_dir": None}, "output_dir must be a string, not None"),
        # a misspelt key would leave its column at the default header
        ({"column_map": {"cel_id": "Cell HMS LINCS ID"}}, "unknown "
         "column_map key 'cel_id'; known: cell_id, molecule_id, "
         "concentration, gr, ifd")])
    def test_validate(self, monkeypatch, run, overrides, message):
        forbid_training(monkeypatch)
        with pytest.raises(ValueError) as e:
            run(small_config(**overrides))
        assert str(e.value) == message

    @pytest.mark.parametrize("run, overrides, key, value", [
        (run_benchmark, {"folds": 37}, "folds", 37),
        (run_al_study, {"active": ActiveConfig(n_init=37)}, "active.n_init",
         37)])
    def test_limit_from_matrix(self, monkeypatch, run, overrides, key, value):
        forbid_training(monkeypatch)
        with pytest.raises(ConfigError) as e:
            run(small_config(**overrides))  # 6 x 6, all 36 observed
        assert e.value.key == key
        assert str(e.value) == (
            f"{key.split('.')[-1]} = {value} exceeds the 36 observed "
            "positions of target synthetic, concentration synthetic")

    @pytest.mark.parametrize("run", [run_benchmark, run_al_study])
    def test_limits_reached_exactly(self, run):
        cfg = small_config(folds=36, active=ActiveConfig(
            n_init=36, n_max_query=0), models=("als",),
                           strategies=("random",), als=AlsConfig(epochs=1))
        assert run(cfg)

    @pytest.mark.parametrize("argv, message", [
        (["benchmark", "--folds", "1"],
         "invalid config: folds must be an integer of at least 2, not 1"),
        (["benchmark", "--models", "als,foo", "--folds", "2"],
         "invalid config: unknown model 'foo'; known: als, alsdl"),
        (["benchmark", "--models", ","], "invalid config: empty model list"),
        (["al-study", "--strategy", ","],
         "invalid config: empty strategy list"),
        (["al-study", "--strategy", "rand"],
         "invalid config: unknown strategy 'rand'; known: orderly, random, "
         "uncertainty, elm"),
        (["benchmark", "--folds", "37"],
         "invalid config key 'folds': folds = 37 exceeds the 36 observed "
         "positions of target synthetic, concentration synthetic"),
        # the default n_init, 40
        (["al-study", "--strategy", "random"],
         "invalid config key 'active.n_init': n_init = 40 exceeds the 36 "
         "observed positions of target synthetic, concentration synthetic"),
        (["benchmark", "--models", "als,als"],
         "invalid config: repeated model in ('als', 'als')"),
        (["benchmark", "--concentrations", "0"],
         "invalid config: each concentration must be a finite number > 0, "
         "not 0.0"),
        (["al-study", "--concentrations", "1,inf"],
         "invalid config: each concentration must be a finite number > 0, "
         "not inf"),
        (["benchmark", "--concentrations", "1.0,1"],
         "invalid config: repeated concentration in (1.0, 1.0)")])
    def test_cli_exit(self, monkeypatch, tmp_path, argv, message):
        forbid_training(monkeypatch)
        with pytest.raises(SystemExit) as e:
            main(argv + ["--synthetic", "6,6,2,0.1",
                         "--out", str(tmp_path / "run")])
        assert str(e.value) == message
        assert not (tmp_path / "run").exists()


def curve_row(key, concentration, *columns):
    """A training_curves row: key cells and a Curve's columns as arrays."""
    return dict(key, concentration=concentration,
                **Curve(*map(np.array, columns))._asdict())


class TestAggregateConcentrations:
    def test_single_concentration_gets_no_mean_row(self):
        report = Report(metadata={}, learning_curves=[
            {"strategy": "random", "target": "gr", "concentration": "0.01",
             "seed": 0, "round": 0, "n_labeled": 40,
             "full_rmse": 0.5, "full_accuracy": 0.8, "status": "ok"}])
        out = aggregate_concentrations(report)
        assert out.learning_curves == report.learning_curves

    def test_two_concentrations_averaged(self):
        base = {"strategy": "elm", "target": "gr", "seed": 0, "round": 1,
                "n_labeled": 80}
        report = Report(metadata={}, learning_curves=[
            dict(base, concentration="0.01", full_rmse=0.1, full_accuracy=0.7),
            dict(base, concentration="0.1", full_rmse=0.3, full_accuracy=0.9)])
        out = aggregate_concentrations(report)
        mean = [r for r in out.learning_curves if r["concentration"] == "mean"]
        assert len(mean) == 1
        assert mean[0]["full_rmse"] == pytest.approx(0.2)
        assert mean[0]["full_accuracy"] == pytest.approx(0.8)

    def test_report_text(self, tmp_path):
        # two concentrations; one key only at 0.1, and one diverged run
        al = {"strategy": "random", "target": "gr", "seed": 0, "status": "ok"}
        tc = {"model": "als", "target": "gr", "seed": 0, "fold": 0}
        cv = {"model": "als", "target": "gr", "seed": 0}
        report = Report(metadata={}, learning_curves=[
            dict(al, concentration="0.1", round=0, n_labeled=40,
                 full_rmse=0.25, full_accuracy=0.5),
            dict(al, concentration="0.1", round=1, n_labeled=80,
                 full_rmse=0.125, full_accuracy=0.75),
            dict(al, concentration="1.0", round=0, n_labeled=40,
                 full_rmse=0.75, full_accuracy=1.0),
            dict(al, strategy="elm", concentration="0.1", round=0,
                 n_labeled=40, full_rmse=0.5, full_accuracy=0.5),
            dict(al, strategy="elm", concentration="1.0", status="diverged",
                 diverged_epoch=12),
        ], training_curves=[
            curve_row(tc, "0.1", [0], [1.0], [2.0], [0.5], [0.25]),
            curve_row(tc, "1.0", [0, 1], [3.0, 0.5], [4.0, 0.5], [1.0, 1.0],
                      [0.75, 1.0]),
        ], cv_summary=[
            dict(cv, concentration="0.1", mean_test_loss=0.5,
                 mean_test_accuracy=0.25, status="ok"),
            dict(cv, concentration="1.0", mean_test_loss=1.5,
                 mean_test_accuracy=0.75, status="ok"),
            dict(cv, model="alsdl", concentration="0.1", status="diverged",
                 diverged_epoch=3),
            dict(cv, model="alsdl", concentration="1.0", mean_test_loss=1.0,
                 mean_test_accuracy=1.0, status="ok"),
        ])
        write_report(aggregate_concentrations(report), tmp_path)
        text = {name: (tmp_path / name).read_bytes().decode()
                for name in ("learning_curves.csv", "training_curves.csv",
                             "cv_summary.csv")}
        assert text["learning_curves.csv"] == (
            "strategy,target,concentration,seed,round,n_labeled,full_rmse,"
            "full_accuracy,status,diverged_epoch\r\n"
            "random,gr,0.1,0,0,40,0.25,0.5,ok,\r\n"
            "random,gr,0.1,0,1,80,0.125,0.75,ok,\r\n"
            "random,gr,1.0,0,0,40,0.75,1.0,ok,\r\n"
            "elm,gr,0.1,0,0,40,0.5,0.5,ok,\r\n"
            "elm,gr,1.0,0,,,,,diverged,12\r\n"
            "random,gr,mean,0,0,40,0.5,0.75,ok,\r\n")
        assert text["training_curves.csv"] == (
            "model,target,concentration,seed,fold,epoch_or_round,train_loss,"
            "test_loss,train_accuracy,test_accuracy\r\n"
            "als,gr,0.1,0,0,0,1.0,2.0,0.5,0.25\r\n"
            "als,gr,1.0,0,0,0,3.0,4.0,1.0,0.75\r\n"
            "als,gr,1.0,0,0,1,0.5,0.5,1.0,1.0\r\n"
            "als,gr,mean,0,0,0,2.0,3.0,0.75,0.5\r\n")
        assert text["cv_summary.csv"] == (
            "model,target,concentration,seed,mean_test_loss,"
            "mean_test_accuracy,status,diverged_epoch\r\n"
            "als,gr,0.1,0,0.5,0.25,ok,\r\n"
            "als,gr,1.0,0,1.5,0.75,ok,\r\n"
            "alsdl,gr,0.1,0,,,diverged,3\r\n"
            "alsdl,gr,1.0,0,1.0,1.0,ok,\r\n"
            "als,gr,mean,0,1.0,0.5,ok,\r\n")

    @pytest.mark.parametrize("n_concs", [3, 9])
    def test_curve_means_equal_per_key_means(self, n_concs, rng):
        """Each mean cell is float(np.mean(...)) of its key's cells, as the
        row-by-row averaging computed it; nine concentrations pass numpy's
        eight-way unrolled summation."""
        rows = [curve_row({"model": model, "target": "gr", "seed": 0,
                           "fold": fold}, repr(0.1 * (c + 1)), range(3, 40),
                          *rng.normal(size=(4, 37)))
                for c in range(n_concs) for model in ("als", "alsdl")
                for fold in (0, 1)]
        del rows[1]  # als fold 1 misses a concentration: no mean for it
        out = aggregate_concentrations(Report(metadata={},
                                              training_curves=rows))
        means = out.training_curves[len(rows):]
        assert [(r["model"], r["fold"], r["concentration"]) for r in means] \
            == [("als", 0, "mean"), ("alsdl", 0, "mean"), ("alsdl", 1, "mean")]
        for mean in means:
            members = [r for r in rows if (r["model"], r["fold"])
                       == (mean["model"], mean["fold"])]
            assert len(members) == n_concs
            assert mean["epoch_or_round"].tolist() == list(range(3, 40))
            for col in Curve._fields[1:]:
                for e in range(37):
                    want = float(np.mean([m[col][e] for m in members]))
                    assert mean[col][e] == want, (mean, col, e)


class TestManifestEnvironment:
    ARGS = ["benchmark", "--synthetic", "6,6,2,0.1", "--models", "als,alsdl",
            "--folds", "2", "--als-epochs", "5", "--mlp-epochs", "5",
            "--embedding-dim", "2"]

    def test_recorded_in_the_manifest_only(self, tmp_path, monkeypatch):
        for var in [k for k in os.environ if k.startswith("OPENBLAS_")] + [
                "OMP_NUM_THREADS", "MKL_NUM_THREADS"]:
            monkeypatch.delenv(var, raising=False)
        main(self.ARGS + ["--out", str(tmp_path / "plain")])
        # BLAS read these when it loaded: now they are only recorded
        monkeypatch.setenv("OPENBLAS_CORETYPE", "Haswell")
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        monkeypatch.setenv("ALSAL_UNRELATED", "x")
        main(self.ARGS + ["--out", str(tmp_path / "env")])
        versions = {"alsal": alsal.__version__,
                    "python": platform.python_version(),
                    "numpy": np.__version__}
        manifests = [json.loads((tmp_path / d / "manifest.json").read_text())
                     for d in ("plain", "env")]
        assert manifests[0]["environment"] == versions
        assert manifests[1]["environment"] == dict(
            versions, OMP_NUM_THREADS="1", OPENBLAS_CORETYPE="Haswell")
        for name in ("learning_curves.csv", "training_curves.csv",
                     "cv_summary.csv"):
            raw = (tmp_path / "env" / name).read_bytes()
            assert raw == (tmp_path / "plain" / name).read_bytes()
            assert b"Haswell" not in raw and b"numpy" not in raw


class TestCli:
    def test_al_study_end_to_end(self, tmp_path):
        out = tmp_path / "run1"
        rc = main(["al-study", "--synthetic", "6,6,2,0", "--strategy",
                   "random", "--seeds", "0", "--out", str(out),
                   "--als-epochs", "10", "--mlp-epochs", "10",
                   "--embedding-dim", "2", "--n-init", "6",
                   "--n-per-query", "6", "--n-max-query", "2"])
        assert rc == 0
        rows = read_rows(out / "learning_curves.csv")
        data_rows = [r for r in rows if r["concentration"] != "mean"]
        assert len(data_rows) == 3
        assert [r["n_labeled"] for r in data_rows] == ["6", "12", "18"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert "config_hash" in manifest

    def test_benchmark_end_to_end(self, tmp_path):
        out = tmp_path / "bench"
        rc = main(["benchmark", "--synthetic", "6,6,2,0", "--models", "als",
                   "--folds", "3", "--seeds", "0", "--out", str(out),
                   "--als-epochs", "10", "--embedding-dim", "2"])
        assert rc == 0
        assert len(read_rows(out / "cv_summary.csv")) >= 1
        assert (out / "training_curves.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["schema_version"] == 2

    @pytest.mark.filterwarnings("ignore:overflow encountered",
                                "ignore:invalid value encountered")
    def test_diverged_benchmark_is_a_status_row(self, tmp_path):
        from conftest import dataset_shaped_csv
        csv_path = tmp_path / "data.csv"
        csv_path.write_text(dataset_shaped_csv().getvalue())
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"als": {"learning_rate": 100.0}}))
        out = tmp_path / "run"
        main(["benchmark", "--dataset", str(csv_path), "--target", "gr",
              "--concentrations", "0.01,0.1", "--models", "als",
              "--folds", "2", "--config", str(cfg_path), "--out", str(out),
              "--als-epochs", "20", "--embedding-dim", "2"])
        rows = read_rows(out / "cv_summary.csv")
        # every concentration diverged, so no mean row averages them
        assert [r["concentration"] for r in rows] == ["0.01", "0.1"]
        for row in rows:
            assert row["status"] == "diverged"
            assert row["diverged_epoch"].isdigit()
            assert row["mean_test_loss"] == row["mean_test_accuracy"] == ""
        assert read_rows(out / "training_curves.csv") == []

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_network_predictions_are_a_divergence(self, tmp_path):
        """At rmsprop learning rate 1e250 the network's first step leaves
        finite parameters whose predictions' RMSE overflows: ALSDL's row
        says diverged at epoch 0, rather than a mean test loss of inf, and
        numpy prints no RuntimeWarning on the way."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"alsdl": {"mlp_train": {"rmsprop_learning_rate": 1e250}}}))
        out = tmp_path / "run"
        main(["benchmark", "--synthetic", "8,7,2,0.1", "--folds", "3",
              "--als-epochs", "20", "--mlp-epochs", "20",
              "--config", str(cfg_path), "--out", str(out)])
        rows = {r["model"]: r for r in read_rows(out / "cv_summary.csv")}
        assert rows["als"]["status"] == "ok"
        assert (rows["alsdl"]["status"], rows["alsdl"]["diverged_epoch"],
                rows["alsdl"]["mean_test_loss"]) == ("diverged", "0", "")

    def test_repeat_runs_byte_identical_csvs(self, tmp_path):
        args = ["al-study", "--synthetic", "5,5,2,0.1", "--strategy",
                "random,orderly", "--seeds", "0,1", "--als-epochs", "10",
                "--mlp-epochs", "10", "--embedding-dim", "2",
                "--n-init", "5", "--n-per-query", "5", "--n-max-query", "1"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(args + ["--out", str(out1)])
        main(args + ["--out", str(out2)])
        for name in ("learning_curves.csv", "training_curves.csv",
                     "cv_summary.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_dataset_csv_path(self, tmp_path):
        from conftest import dataset_shaped_csv
        csv_path = tmp_path / "data.csv"
        csv_path.write_text(dataset_shaped_csv().getvalue())
        out = tmp_path / "dsrun"
        rc = main(["al-study", "--dataset", str(csv_path), "--target", "gr",
                   "--concentrations", "0.01", "--strategy", "random",
                   "--seeds", "0", "--out", str(out),
                   "--als-epochs", "5", "--mlp-epochs", "5",
                   "--embedding-dim", "2"])
        assert rc == 0
        rows = [r for r in read_rows(out / "learning_curves.csv")
                if r["concentration"] != "mean"]
        assert len(rows) == 9
        assert rows[-1]["n_labeled"] == "360"

    def test_config_file(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "synthetic": {"m": 5, "n": 5, "rank": 2, "noise_sd": 0.0},
            "alsdl": {"als": {"d": 2, "epochs": 10},
                      "mlp_train": {"epochs": 10},
                      "hidden_sizes": [6, 3]},
            "active": {"n_init": 5, "n_per_query": 5, "n_max_query": 1}}))
        out = tmp_path / "cfgrun"
        rc = main(["al-study", "--config", str(cfg_path), "--strategy",
                   "orderly", "--seeds", "3", "--out", str(out)])
        assert rc == 0
        rows = read_rows(out / "learning_curves.csv")
        assert any(r["seed"] == "3" for r in rows)

    def test_config_file_alsdl_fields(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"alsdl": {"molecule_first": True,
                                                  "hidden_sizes": [3]}}))
        cfg = _config_from_json(cfg_path)
        assert cfg.alsdl.molecule_first is True
        assert cfg.alsdl.hidden_sizes == (3,)
        # fields the file leaves out keep AlsdlConfig's defaults
        assert cfg.alsdl.als == AlsdlConfig().als

    @pytest.mark.parametrize("alsdl, name", [
        ({"molecule_first": True, "hiden_sizes": [3]}, "alsdl.hiden_sizes"),
        ({"loss": {"beta": 0.2, "bta": 0.1}}, "alsdl.loss.bta"),
        # a key that was removed: beta = 0 trains without the penalty
        ({"loss": {"use_smooth_surrogate": False}},
         "alsdl.loss.use_smooth_surrogate")])
    def test_config_file_unknown_alsdl_key(self, tmp_path, alsdl, name):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"alsdl": alsdl}))
        with pytest.raises(SystemExit) as e:
            _config_from_json(cfg_path)
        assert str(e.value) == f"unknown config key {name!r}"

    def test_config_file_nested_model_cfg(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "active": {"n_init": 5},
            "alsdl": {"hidden_sizes": [4],
                      "loss": {"boundaries": [-0.5, 0.5]}}}))
        cfg = _config_from_json(cfg_path)
        assert cfg.active == ActiveConfig(n_init=5)
        assert cfg.alsdl == AlsdlConfig(
            hidden_sizes=(4,), loss=LossConfig(boundaries=(-0.5, 0.5)))

    @pytest.mark.parametrize("raw, message", [
        ([1], "config must be a JSON object"),
        ({"als": 5}, "config key 'als' must be an object"),
        ({"als": None}, "config key 'als' must be an object"),
        ({"alsdl": {"loss": [0.1]}},
         "config key 'alsdl.loss' must be an object"),
        ({"alsdl": {"als": "d=2"}},
         "config key 'alsdl.als' must be an object")])
    def test_config_file_non_object(self, tmp_path, raw, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        with pytest.raises(SystemExit) as e:
            _config_from_json(cfg_path)
        assert str(e.value) == message

    def test_config_file_empty_boundaries(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"alsdl": {"loss": {"boundaries": []}}}))
        with pytest.raises(SystemExit) as e:
            _config_from_json(cfg_path)
        assert str(e.value) == (
            "invalid config key 'alsdl.loss': boundaries must be a non-empty, "
            "strictly increasing tuple, not ()")

    @pytest.mark.parametrize("raw, message", [
        ({"active": {"elm_candidate_subsample": 0}},
         "invalid config key 'active': elm_candidate_subsample must be a "
         "positive integer, not 0"),
        ({"active": {"n_per_query": -3}},
         "invalid config key 'active': n_per_query must be a positive "
         "integer, not -3"),
        ({"alsdl": {"loss": {"boundaries": ["a", 1]}}},
         "invalid config key 'alsdl.loss': '>=' not supported between "
         "instances of 'str' and 'int'"),
        # an empty curve, a TypeError in train_als, and a failure in numpy
        ({"active": {"n_max_query": -1}},
         "invalid config key 'active': n_max_query must be a non-negative "
         "integer, not -1"),
        ({"alsdl": {"als": {"epochs": 10.5}}},
         "invalid config key 'alsdl.als': epochs must be a positive integer, "
         "not 10.5"),
        ({"active": {"n_per_query": True}},
         "invalid config key 'active': n_per_query must be a positive "
         "integer, not True"),
        ({"als": {"d": 0}},
         "invalid config key 'als': d must be a positive integer, not 0"),
        ({"alsdl": {"mlp_train": {"epochs": -1}}},
         "invalid config key 'alsdl.mlp_train': epochs must be a "
         "non-negative integer, not -1"),
        # the field's own name: the runner overrides it per --strategy
        # entry, so only ActiveConfig's check sees it
        ({"active": {"strategy": "rand"}},
         "invalid config key 'active.strategy': unknown strategy 'rand'; "
         "known: orderly, random, uncertainty, elm")])
    def test_config_file_value_rejected(self, tmp_path, raw, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        with pytest.raises(SystemExit) as e:
            main(["al-study", "--config", str(cfg_path), "--synthetic",
                  "5,5,2,0", "--out", str(tmp_path / "run")])
        assert str(e.value) == message
        assert not (tmp_path / "run").exists()

    def test_config_file_model_cfg_rejected_by_cli(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"active": {"model_cfg": {"hidden_sizes": [3]}}}))
        with pytest.raises(SystemExit) as e:
            main(["benchmark", "--config", str(cfg_path), "--synthetic",
                  "5,5,2,0", "--out", str(tmp_path / "run")])
        # the AL study trains alsdl; ActiveConfig has no model config
        assert str(e.value) == "unknown config key 'active.model_cfg'"
        assert not (tmp_path / "run").exists()

    def test_no_source_rejected_by_cli(self, tmp_path):
        with pytest.raises(SystemExit) as e:
            main(["benchmark", "--out", str(tmp_path / "run")])
        assert str(e.value) == ("invalid config: either dataset_path or "
                                "synthetic must be given")

    @pytest.mark.parametrize("flag, value", [
        ("--n-per-query", "0"), ("--elm-candidate-subsample", "-3"),
        ("--als-epochs", "-1"), ("--mlp-epochs", "-1"),
        ("--embedding-dim", "0"), ("--n-init", "0"), ("--n-max-query", "-1"),
        ("--elm-inner-epochs", "0")])
    def test_flag_value_rejected(self, tmp_path, flag, value):
        with pytest.raises(SystemExit) as e:
            main(["al-study", "--synthetic", "5,5,2,0", flag, value,
                  "--out", str(tmp_path / "run")])
        name = {"--als-epochs": "epochs", "--mlp-epochs": "epochs",
                "--embedding-dim": "d"}.get(flag, flag[2:].replace("-", "_"))
        kind = ("non-negative" if flag in ("--mlp-epochs", "--n-max-query")
                else "positive")
        assert str(e.value) == (f"invalid option: {name} must be a {kind} "
                                f"integer, not {value}")
        assert not (tmp_path / "run").exists()

    def test_elm_candidate_subsample_flag_matches_config_key(self, tmp_path):
        common = ["al-study", "--synthetic", "6,6,2,0.1", "--strategy", "elm",
                  "--seeds", "0,1", "--n-init", "6", "--n-per-query", "2",
                  "--n-max-query", "2", "--als-epochs", "10",
                  "--mlp-epochs", "10", "--elm-inner-epochs", "10",
                  "--embedding-dim", "2"]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"active": {"elm_candidate_subsample": 4}}))
        runs = {"flag": ["--elm-candidate-subsample", "4"],
                "json": ["--config", str(cfg_path)], "full": []}
        for name, extra in runs.items():
            main(common + extra + ["--out", str(tmp_path / name)])
        for csv_name in ("learning_curves.csv", "training_curves.csv",
                         "cv_summary.csv"):
            flag = (tmp_path / "flag" / csv_name).read_bytes()
            assert flag == (tmp_path / "json" / csv_name).read_bytes()
        config = json.loads((tmp_path / "flag" / "manifest.json").read_text())
        assert config["config"]["active"]["elm_candidate_subsample"] == 4
        # the subsample changes the picks of a full-pool query
        assert ((tmp_path / "flag" / "learning_curves.csv").read_bytes()
                != (tmp_path / "full" / "learning_curves.csv").read_bytes())

    def test_manifest_records_trained_model_cfg(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"alsdl": {
            "als": {"d": 2, "epochs": 5}, "hidden_sizes": [3],
            "mlp_train": {"epochs": 5}}}))
        out = tmp_path / "run"
        main(["al-study", "--config", str(cfg_path), "--synthetic",
              "5,5,2,0.1", "--strategy", "random", "--n-init", "5",
              "--n-per-query", "5", "--n-max-query", "1", "--out", str(out)])
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert "model_cfg" not in config["active"]
        assert config["alsdl"]["hidden_sizes"] == [3]
        assert config["alsdl"]["mlp_train"]["epochs"] == 5

    @pytest.mark.parametrize("command", ["benchmark", "al-study"])
    def test_defaults_are_experiment_config(self, command):
        args = build_parser().parse_args([command, "--synthetic", "5,5,2,0"])
        assert resolve_config(args) == ExperimentConfig(
            synthetic=SyntheticSpec(5, 5, 2, 0.0))

    def test_config_file_kept_where_no_flag_is_given(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "dataset_path": str(small_dataset(tmp_path / "data.csv")),
            "concentrations": [0.1], "seeds": [3], "folds": 3,
            "models": ["als"], "targets": ["gr"], "strategies": ["random"],
            "als": {"d": 2, "epochs": 5},
            "alsdl": {"als": {"d": 2, "epochs": 5},
                      "mlp_train": {"epochs": 5}, "hidden_sizes": [3]},
            "output_dir": str(tmp_path / "from-config")}))
        main(["benchmark", "--config", str(cfg_path)])
        out = tmp_path / "from-config"
        assert [(r["model"], r["target"], r["seed"])
                for r in read_rows(out / "cv_summary.csv")] == [
            ("als", "gr", "3")]
        assert {r["fold"] for r in read_rows(out / "training_curves.csv")} \
            == {"0", "1", "2"}
        # a flag given still wins
        out = tmp_path / "from-flags"
        main(["benchmark", "--config", str(cfg_path), "--seeds", "1",
              "--folds", "2", "--models", "alsdl", "--target", "ifd",
              "--out", str(out)])
        assert [(r["model"], r["target"], r["seed"])
                for r in read_rows(out / "cv_summary.csv")] == [
            ("alsdl", "ifd", "1")]
        assert {r["fold"] for r in read_rows(out / "training_curves.csv")} \
            == {"0", "1"}
        args = build_parser().parse_args(["al-study", "--config",
                                          str(cfg_path)])
        assert resolve_config(args).strategies == ("random",)
        args = build_parser().parse_args(["al-study", "--config",
                                          str(cfg_path), "--strategy", "elm"])
        assert resolve_config(args).strategies == ("elm",)

    @pytest.mark.parametrize("argv", [
        ["benchmark", "--models", "alsdl,als", "--folds", "3", "--seeds",
         "2,5", "--als-epochs", "7", "--mlp-epochs", "4"],
        ["al-study", "--strategy", "elm,uncertainty,orderly", "--seeds",
         "4,1", "--n-init", "6", "--n-per-query", "4", "--n-max-query", "2",
         "--als-epochs", "6", "--mlp-epochs", "5", "--elm-inner-epochs", "3",
         "--elm-candidate-subsample", "5"]])
    def test_manifest_config_reproduces_the_run(self, tmp_path, argv):
        first, again = tmp_path / "first", tmp_path / "again"
        main(argv + ["--dataset", str(small_dataset(tmp_path / "data.csv")),
                     "--target", "ifd", "--embedding-dim", "2",
                     "--out", str(first)])
        config = json.loads((first / "manifest.json").read_text())["config"]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        main([argv[0], "--config", str(cfg_path), "--out", str(again)])
        for name in CSV_NAMES:
            assert (again / name).read_bytes() == (first / name).read_bytes()
        rows = read_rows(first / ("cv_summary.csv" if argv[0] == "benchmark"
                                  else "learning_curves.csv"))
        assert {r["concentration"] for r in rows} == {"0.1", "1.0", "mean"}
        assert json.loads((again / "manifest.json").read_text())["config"] \
            == dict(config, output_dir=str(again))

    @pytest.mark.parametrize("raw", [
        {"alsdl": {"als": {"d": 5}}}, {"alsdl": {"als": {"seed": 0}}},
        {"alsdl": {"loss": {"beta": 0.1}, "als": {}}}, {"als": {"d": 5}}])
    def test_config_file_keeps_the_enclosing_defaults(self, tmp_path, raw):
        # alsdl.als.epochs stays AlsdlConfig's 200, not AlsConfig's 400
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert _config_from_json(cfg_path) == ExperimentConfig()

    def test_config_file_null_where_default_is_none(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"synthetic": None, "folds": 3}))
        cfg = _config_from_json(cfg_path)
        assert cfg.synthetic is None
        assert cfg.folds == 3


def subparsers():
    """{command: parser} of the CLI's subcommands."""
    action, = [a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)]
    return action.choices


class TestFlagKeys:
    """FLAG_KEYS and the parser name the same flags."""

    def test_every_option_has_keys(self):
        for command, parser in subparsers().items():
            for action in parser._actions:
                if action.option_strings and action.dest not in ("help",
                                                                 "config"):
                    assert action.dest in FLAG_KEYS, (command, action.dest)

    @pytest.mark.parametrize("dest", sorted(FLAG_KEYS))
    def test_keys_resolve_on_the_config(self, dest):
        for key in FLAG_KEYS[dest]:
            attrgetter(key)(ExperimentConfig())

    @pytest.mark.parametrize("dest", sorted(FLAG_KEYS))
    def test_each_entry_is_a_flag(self, dest):
        assert any(dest in {a.dest for a in parser._actions}
                   for parser in subparsers().values())

    @pytest.mark.parametrize("flag, keys", [
        ("--als-epochs", ("als.epochs", "alsdl.als.epochs")),
        ("--embedding-dim", ("als.d", "alsdl.als.d"))])
    def test_two_key_flags_set_both(self, tmp_path, flag, keys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"als": {"d": 3, "epochs": 9},
                                        "alsdl": {"als": {"d": 4}}}))
        args = build_parser().parse_args(["benchmark", "--synthetic",
                                          "5,5,2,0", "--config",
                                          str(cfg_path), flag, "2"])
        cfg = resolve_config(args)
        assert [attrgetter(key)(cfg) for key in keys] == [2, 2]
        # the file's other values stay
        assert cfg.als.epochs + cfg.als.d + cfg.alsdl.als.d == (
            {"--als-epochs": 2 + 3 + 4, "--embedding-dim": 9 + 2 + 2}[flag])

    def test_source_flag_replaces_the_files_source(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"synthetic": {"m": 5}}))
        args = build_parser().parse_args(["benchmark", "--config",
                                          str(cfg_path), "--dataset", "d.csv"])
        cfg = resolve_config(args)
        assert (cfg.dataset_path, cfg.synthetic) == ("d.csv", None)


class TestRejectedInput:
    """Malformed flags, seeds and keys the run would ignore exit before any
    data loads, without a traceback, and write nothing."""

    @pytest.mark.parametrize("argv, message", [
        (["--synthetic", "6,6,2,0", "--seeds", "a"],
         "argument --seeds: invalid comma-separated int value: 'a'"),
        (["--synthetic", "6,6,2,0", "--seeds", "0,1.5"],
         "argument --seeds: invalid comma-separated int value: '0,1.5'"),
        (["--synthetic", "6,6,2,0", "--concentrations", "x"],
         "argument --concentrations: invalid comma-separated float value: "
         "'x'"),
        (["--synthetic", "6,6"], "argument --synthetic: '6,6': not enough "
         "values to unpack (expected 4, got 2)"),
        (["--synthetic", "6,6,9,0"],
         "argument --synthetic: '6,6,9,0': rank 9 exceeds min(m, n) = 6"),
        (["--synthetic", "6,6,2,-0.5"], "argument --synthetic: '6,6,2,-0.5': "
         "noise_sd must be >= 0, not -0.5"),
        (["--synthetic", "0,6,1,0"], "argument --synthetic: '0,6,1,0': m "
         "must be a positive integer, not 0")])
    def test_usage_error(self, monkeypatch, capsys, tmp_path, argv, message):
        forbid_training(monkeypatch)
        with pytest.raises(SystemExit) as e:
            main(["benchmark", *argv, "--out", str(tmp_path / "run")])
        assert e.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == f"alsal benchmark: error: {message}"
        assert "Traceback" not in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("raw, message", [
        ({"seeds": [1.5]},
         "invalid config: each seed must be a non-negative integer, not 1.5"),
        ({"seeds": [-1]},
         "invalid config: each seed must be a non-negative integer, not -1"),
        ({"seeds": [0, True]},
         "invalid config: each seed must be a non-negative integer, not True"),
        ({"seeds": ["a"]},
         "invalid config: each seed must be a non-negative integer, not 'a'"),
        ({"seeds": 3},
         "invalid config: seeds must be a tuple of integers, not 3"),
        ({"als": {"seed": 5}}, "invalid config: als.seed = 5 would be "
         "ignored: each unit sets it from seeds; set seeds instead"),
        ({"alsdl": {"als": {"seed": 5}}}, "invalid config: alsdl.als.seed = "
         "5 would be ignored: each unit sets it from seeds; set seeds "
         "instead"),
        ({"alsdl": {"mlp_train": {"seed": 1}}}, "invalid config: "
         "alsdl.mlp_train.seed = 1 would be ignored: each unit sets it from "
         "seeds; set seeds instead"),
        ({"active": {"seed": 2}}, "invalid config: active.seed = 2 would be "
         "ignored: each unit sets it from seeds; set seeds instead"),
        ({"active": {"strategy": "random"}}, "invalid config: "
         "active.strategy = 'random' would be ignored: each unit sets it "
         "from strategies; set strategies instead"),
        ({"synthetic": {"m": 6, "n": 6, "rank": 9}},
         "invalid config key 'synthetic': rank 9 exceeds min(m, n) = 6"),
        ({"synthetic": {"noise_sd": -1}},
         "invalid config key 'synthetic': noise_sd must be >= 0, not -1"),
        ({"synthetic": {"rank": 2.0}}, "invalid config key 'synthetic': "
         "rank must be a positive integer, not 2.0"),
        ({"concentrations": ["x"]}, "invalid config: each concentration must "
         "be a finite number > 0, not 'x'"),
        ({"concentrations": [True]}, "invalid config: each concentration "
         "must be a finite number > 0, not True"),
        ({"concentrations": [1.0, -1]}, "invalid config: each concentration "
         "must be a finite number > 0, not -1"),
        ({"concentrations": [math.nan]}, "invalid config: each concentration "
         "must be a finite number > 0, not nan"),
        ({"concentrations": 5}, "invalid config: concentrations must be a "
         "tuple of numbers, not 5"),
        ({"targets": ["gr", "x"]},
         "invalid config: unknown target 'x'; known: gr, ifd"),
        ({"targets": []}, "invalid config: empty target list"),
        ({"targets": ["gr", "gr"]},
         "invalid config: repeated target in ('gr', 'gr')"),
        ({"concentrations": [0.1, 1, 1.0]},
         "invalid config: repeated concentration in (0.1, 1.0, 1.0)"),
        ({"column_map": 5}, "invalid config: column_map must be null or an "
         "object mapping strings to strings, not 5"),
        ({"column_map": {"gr": None}}, "invalid config: column_map must be "
         "null or an object mapping strings to strings, not {'gr': None}"),
        ({"dataset_path": 5},
         "invalid config: dataset_path must be null or a string, not 5"),
        ({"concentrations": [10 ** 400]}, "invalid config: each "
         f"concentration must be a finite number > 0, not {10 ** 400}"),
        ({"concentrations": [-10 ** 400]}, "invalid config: each "
         f"concentration must be a finite number > 0, not {-10 ** 400}"),
        ({"targets": "gr"},
         "invalid config: targets must be a tuple of names, not 'gr'"),
        ({"models": "als"},
         "invalid config: models must be a tuple of names, not 'als'"),
        ({"strategies": "elm"},
         "invalid config: strategies must be a tuple of names, not 'elm'"),
        ({"column_map": {"gr": "Mean GR", "IFD": "Dead"}}, "invalid config: "
         "unknown column_map key 'IFD'; known: cell_id, molecule_id, "
         "concentration, gr, ifd")])
    @pytest.mark.parametrize("command", ["benchmark", "al-study"])
    def test_config_error(self, monkeypatch, tmp_path, command, raw, message):
        forbid_training(monkeypatch)
        import alsal.runner as runner_mod

        def loaded(config):
            raise AssertionError("data was loaded")
        monkeypatch.setattr(runner_mod, "load_matrices", loaded)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict({"synthetic": {}}, **raw)))
        with pytest.raises(SystemExit) as e:
            main([command, "--config", str(cfg_path),
                  "--out", str(tmp_path / "run")])
        assert str(e.value) == message
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["benchmark", "al-study"])
    def test_output_dir_not_a_string(self, monkeypatch, tmp_path, command):
        """Checked before any data loads, not when the report is written
        after the whole study; without --out, which would replace it."""
        forbid_training(monkeypatch)
        import alsal.runner as runner_mod

        def loaded(config):
            raise AssertionError("data was loaded")
        monkeypatch.setattr(runner_mod, "load_matrices", loaded)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"synthetic": {}, "output_dir": 5}))
        with pytest.raises(SystemExit) as e:
            main([command, "--config", str(cfg_path)])
        assert str(e.value) == ("invalid config: output_dir must be a "
                                "string, not 5")

    @pytest.mark.parametrize("name", ["missing.csv", ""])
    def test_unreadable_dataset(self, monkeypatch, tmp_path, name):
        forbid_training(monkeypatch)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as e:
            main(["benchmark", "--dataset", name, "--out", "run"])
        assert str(e.value) == ("invalid config key 'dataset_path': [Errno 2] "
                                f"No such file or directory: {name!r}")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("raw, argv, message", [
        ({}, ["--concentrations", "5.0"],
         "invalid config key 'concentrations': concentration 5.0 is absent "
         "or not fully covered; fully covered: [0.1, 1.0]"),
        ({}, ["--concentrations", "0.1,3.16"],
         "invalid config key 'concentrations': concentration 3.16 is absent "
         "or not fully covered; fully covered: [0.1, 1.0]"),
        ({"column_map": {"gr": "nope"}}, [],
         "invalid config key 'dataset_path': missing required columns: "
         "['nope']")])
    @pytest.mark.parametrize("command", ["benchmark", "al-study"])
    def test_dataset_config_error(self, monkeypatch, tmp_path, command, raw,
                                  argv, message):
        """A dataset the run cannot use, or a concentration it does not
        cover, exits naming the config key, before any model trains."""
        forbid_training(monkeypatch)
        csv_path = small_dataset(tmp_path / "data.csv")
        with open(csv_path, "a") as f:  # 3.16 measured for one pair only
            f.write("C0,M0,3.16,0.9,0.1\n")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        with pytest.raises(SystemExit) as e:
            main([command, "--dataset", str(csv_path), "--config",
                  str(cfg_path), *argv, "--out", str(tmp_path / "run")])
        assert str(e.value) == message
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("row, message", [
        ("C0,M1,1.0,0.8\n", "row 62: 4 fields, but the header has 5"),
        ("C0,M1,1e400,0.8,0.1\n",
         "row 62: concentration must be finite, got inf")])
    @pytest.mark.parametrize("command", ["benchmark", "al-study"])
    def test_bad_dataset_row(self, monkeypatch, tmp_path, command, row,
                             message):
        """A data row the run cannot read exits naming the config key and
        the row (the header is row 1), before any model trains."""
        forbid_training(monkeypatch)
        csv_path = small_dataset(tmp_path / "data.csv")
        with open(csv_path, "a") as f:
            f.write(row)
        with pytest.raises(SystemExit) as e:
            main([command, "--dataset", str(csv_path),
                  "--out", str(tmp_path / "run")])
        assert str(e.value) == f"invalid config key 'dataset_path': {message}"
        assert not (tmp_path / "run").exists()

    def test_per_unit_defaults_accepted(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "synthetic": {}, "als": {"seed": 0},
            "alsdl": {"als": {"seed": 0, "epochs": 200},
                      "mlp_train": {"seed": 0}},
            "active": {"seed": 0, "strategy": "elm"}}))
        args = build_parser().parse_args(["al-study", "--config",
                                          str(cfg_path)])
        assert resolve_config(args) == ExperimentConfig(
            synthetic=SyntheticSpec())


class TestSyntheticSpec:
    def test_accepts_full_rank(self):
        assert SyntheticSpec(3, 4, 3, 0.5).rank == 3

    @pytest.mark.parametrize("kwargs, message", [
        ({"m": 0}, "m must be a positive integer, not 0"),
        ({"n": 2.0}, "n must be a positive integer, not 2.0"),
        ({"rank": True}, "rank must be a positive integer, not True"),
        ({"m": 4, "rank": 5}, "rank 5 exceeds min(m, n) = 4"),
        ({"noise_sd": -0.1}, "noise_sd must be >= 0, not -0.1"),
        ({"noise_sd": math.nan}, "noise_sd must be >= 0, not nan")])
    def test_rejects(self, kwargs, message):
        with pytest.raises(ValueError) as e:
            SyntheticSpec(**kwargs)
        assert str(e.value) == message
