import argparse
import codecs
import contextlib
import csv
import io
import json
import math
import os
import platform
import re
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import (FrozenInstanceError, asdict, dataclass, fields,
                         is_dataclass, replace)
from operator import attrgetter
from pathlib import Path
from typing import get_args, get_origin
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import alsal
from alsal.active import ActiveConfig
from alsal.als import AlsConfig, Config, DivergenceError, _rule
from alsal.alsdl import AlsdlConfig
from alsal.cli import FLAG_KEYS, build_parser, main, resolve_config
from alsal.metrics import Curve
from alsal.mlp import LossConfig, MlpTrainConfig
from alsal.runner import (MODELS, ConfigError, ExperimentConfig,
                          SyntheticSpec, aggregate_concentrations,
                          run_al_study, run_benchmark, write_report, Report)


COLUMN_MAP_KIND = "null or a dict, each key a string and each value a string"
CONCENTRATIONS_KIND = "null or a tuple, each a finite number > 0"
CONCENTRATIONS_ERROR = ("invalid config key 'concentrations': concentrations "
                        f"must be {CONCENTRATIONS_KIND}")
SEEDS_ERROR = ("invalid config key 'seeds': seeds must be a tuple, each an "
               "integer >= 0")


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
    return replace(cfg, **overrides)


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


def load_file(path):
    """The config `alsal benchmark --config path` resolves to."""
    return resolve_config(build_parser().parse_args(
        ["benchmark", "--config", str(path)]))


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
        cfg = replace(small_config(), synthetic=None)
        with pytest.raises(ConfigError) as e:
            run_benchmark(cfg)
        assert e.value.key == "dataset_path"

    def test_both_sources_rejected(self, tmp_path):
        cfg = replace(small_config(), dataset_path=str(tmp_path / "d.csv"))
        with pytest.raises(ConfigError) as e:
            run_benchmark(cfg)
        assert e.value.key == "dataset_path"


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

        def spy(matrix, model_cfg, cfg, strategy, seed):
            calls.append((model_cfg, cfg, strategy, seed))
            return real(matrix, model_cfg, cfg, strategy, seed)
        monkeypatch.setattr(runner_mod.active_mod, "run_active_learning", spy)
        cfg = small_config(strategies=("random", "orderly"), seeds=(0, 1))
        run_al_study(cfg)
        assert calls == [(cfg.alsdl, cfg.active, strategy, seed)
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
        cfg = replace(cfg, alsdl=replace(cfg.alsdl, als=replace(
            cfg.alsdl.als, learning_rate=0.02)))
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
        als = replace(cfg.als, epochs=40, learning_rate=0.6)
        cfg = replace(cfg, als=als, alsdl=replace(cfg.alsdl, als=replace(
            als, epochs=stage1_epochs)))
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
        ({"folds": 1}, "folds must be an integer >= 2, not 1"),
        ({"folds": 2.0}, "folds must be an integer >= 2, not 2.0"),
        ({"folds": True}, "folds must be an integer >= 2, not True"),
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
        ({"column_map": 5}, f"column_map must be {COLUMN_MAP_KIND}, not 5"),
        ({"column_map": {"gr": 5}},
         f"column_map must be {COLUMN_MAP_KIND}, not {{'gr': 5}}"),
        ({"column_map": {5: "gr"}},
         f"column_map must be {COLUMN_MAP_KIND}, not {{5: 'gr'}}"),
        ({"column_map": ["gr"]},
         f"column_map must be {COLUMN_MAP_KIND}, not ['gr']"),
        ({"dataset_path": 5}, "dataset_path must be null or a string, not 5"),
        ({"output_dir": None}, "output_dir must be a string, not None"),
        # a misspelt key would leave its column at the default header
        ({"column_map": {"cel_id": "Cell HMS LINCS ID"}}, "unknown "
         "column_map key 'cel_id'; known: cell_id, molecule_id, "
         "concentration, gr, ifd"),
        ({"concentrations": ()}, "empty concentration list")])
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

    # a case with an explicit id keeps the name it had when its exit read
    # "invalid config: <rule>", before every rule named its key
    @pytest.mark.parametrize("argv, message", [
        (["benchmark", "--folds", "1"],
         "invalid config key 'folds' (set by --folds): folds must be an "
         "integer >= 2, not 1"),
        pytest.param(
            ["benchmark", "--models", "als,foo", "--folds", "2"],
            "invalid config key 'models' (set by --models): unknown model "
            "'foo'; known: als, alsdl",
            id="argv1-invalid config: unknown model 'foo'; known: als, alsdl"),
        pytest.param(
            ["benchmark", "--models", ","],
            "invalid config key 'models' (set by --models): empty model list",
            id="argv2-invalid config: empty model list"),
        pytest.param(
            ["al-study", "--strategy", ","],
            "invalid config key 'strategies' (set by --strategy): empty "
            "strategy list", id="argv3-invalid config: empty strategy list"),
        pytest.param(
            ["al-study", "--strategy", "rand"],
            "invalid config key 'strategies' (set by --strategy): unknown "
            "strategy 'rand'; known: orderly, random, uncertainty, elm",
            id="argv4-invalid config: unknown strategy 'rand'; known: "
            "orderly, random, uncertainty, elm"),
        (["benchmark", "--folds", "37"],
         "invalid config key 'folds': folds = 37 exceeds the 36 observed "
         "positions of target synthetic, concentration synthetic"),
        # the default n_init, 40
        (["al-study", "--strategy", "random"],
         "invalid config key 'active.n_init': n_init = 40 exceeds the 36 "
         "observed positions of target synthetic, concentration synthetic"),
        pytest.param(
            ["benchmark", "--models", "als,als"],
            "invalid config key 'models' (set by --models): repeated model "
            "in ('als', 'als')",
            id="argv7-invalid config: repeated model in ('als', 'als')"),
        (["benchmark", "--concentrations", "0"],
         "invalid config key 'concentrations' (set by --concentrations): "
         f"concentrations must be {CONCENTRATIONS_KIND}, not (0.0,)"),
        (["al-study", "--concentrations", "1,inf"],
         "invalid config key 'concentrations' (set by --concentrations): "
         f"concentrations must be {CONCENTRATIONS_KIND}, not (1.0, inf)"),
        pytest.param(
            ["benchmark", "--concentrations", "1.0,1"],
            "invalid config key 'concentrations' (set by --concentrations): "
            "repeated concentration in (1.0, 1.0)",
            id="argv10-invalid config: repeated concentration in (1.0, 1.0)")])
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
            curve_row(tc, "0.1", [0, 1], [1.0, 1.5], [2.0, 0.5], [0.5, 1.0],
                      [0.25, 0.5]),
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
            "als,gr,0.1,0,0,1,1.5,0.5,1.0,0.5\r\n"
            "als,gr,1.0,0,0,0,3.0,4.0,1.0,0.75\r\n"
            "als,gr,1.0,0,0,1,0.5,0.5,1.0,1.0\r\n"
            "als,gr,mean,0,0,0,2.0,3.0,0.75,0.5\r\n"
            "als,gr,mean,0,0,1,1.0,0.5,1.0,0.75\r\n")
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


class TestModulesLoaded:
    def test_no_run_imports_numpy_ma(self, tmp_path):
        """numpy.ma is about 1 MB of modules that no run needs, yet some
        numpy calls import it (np.unique without return arrays, in numpy
        2.4): a benchmark and an al-study with every strategy, on a dataset
        of two concentrations, so that selection, matrix building and the
        mean rows all run, in a fresh interpreter, leave it unloaded."""
        data = str(small_dataset(tmp_path / "data.csv"))
        short = ["--als-epochs", "3", "--mlp-epochs", "3", "--embedding-dim",
                 "2"]
        runs = [["benchmark", "--dataset", data, "--folds", "2", *short,
                 "--out", str(tmp_path / "benchmark")],
                ["al-study", "--dataset", data, "--n-init", "6",
                 "--n-per-query", "3", "--n-max-query", "1",
                 "--elm-inner-epochs", "3", "--elm-candidate-subsample", "4",
                 *short, "--out", str(tmp_path / "al-study")]]
        script = ("import sys\nfrom alsal.cli import main\n"
                  f"for argv in {runs!r}:\n    main(argv)\n"
                  "print(sorted(m for m in sys.modules if m == 'numpy.ma' "
                  "or m.startswith('numpy.ma.')))")
        src = str(Path(alsal.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout.splitlines()[-1] == "[]"
        rows = read_rows(tmp_path / "al-study" / "learning_curves.csv")
        assert {r["strategy"] for r in rows} == {
            "orderly", "random", "uncertainty", "elm"}
        assert {r["concentration"] for r in rows} == {"0.1", "1.0", "mean"}


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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
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
        says diverged at epoch 20, the network's first after 20 ALS
        epochs, rather than a mean test loss of inf, and numpy prints no
        RuntimeWarning on the way."""
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
                rows["alsdl"]["mean_test_loss"]) == ("diverged", "20", "")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv, raw, name, row", [
        pytest.param(
            ["benchmark", "--synthetic", "8,7,2,0.1", "--folds", "3",
             "--models", "als", "--als-epochs", "20"],
            {"als": {"learning_rate": 100.0}}, "cv_summary.csv",
            "als,synthetic,synthetic,0,,,diverged,3", id="als"),
        # the network's first step leaves finite parameters whose
        # predictions overflow: epoch 20, after the 20 ALS epochs
        pytest.param(
            ["benchmark", "--synthetic", "8,7,2,0.1", "--folds", "3",
             "--models", "alsdl", "--als-epochs", "20", "--mlp-epochs", "20"],
            {"alsdl": {"mlp_train": {"rmsprop_learning_rate": 1e250}}},
            "cv_summary.csv", "alsdl,synthetic,synthetic,0,,,diverged,20",
            id="mlp"),
        # ELM's retrains, 200 epochs at learning rate 100, diverge in the
        # first query, after the model's own 2 ALS epochs
        pytest.param(
            ["al-study", "--synthetic", "6,6,2,0", "--strategy", "elm"],
            {"alsdl": {"als": {"d": 2, "epochs": 2, "learning_rate": 100.0},
                       "mlp_train": {"epochs": 10}, "hidden_sizes": [6, 3]},
             "active": {"n_init": 10, "n_per_query": 3, "n_max_query": 2,
                        "elm_inner_epochs": 200}},
            "learning_curves.csv",
            "elm,synthetic,synthetic,0,,,,,diverged,3", id="elm")])
    def test_diverged_row_in_full(self, tmp_path, argv, raw, name, row):
        """A diverging run's table holds its one diverged row, every cell
        as written, and the run gives no warning: numpy's overflow is
        already recorded in the row."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        out = tmp_path / "run"
        main([*argv, "--config", str(cfg_path), "--out", str(out)])
        assert (out / name).read_text().splitlines()[1:] == [row]

    def test_history_rows_where_epochs_end_mid_block(self, tmp_path):
        """History is scored 32 epochs at a time; at 37 ALS and 5 network
        epochs every epoch of each fold still has its row, with a finite
        number in every metric cell, and so does each model's summary."""
        out = tmp_path / "run"
        main(["benchmark", "--synthetic", "6,6,2,0.1", "--folds", "2",
              "--als-epochs", "37", "--mlp-epochs", "5", "--out", str(out)])
        curves = read_rows(out / "training_curves.csv")
        summary = read_rows(out / "cv_summary.csv")
        # ALSDL's rows: 37 ALS epochs, then 5 network epochs numbered on
        for model, n_epochs in (("als", 37), ("alsdl", 37 + 5)):
            for fold in ("0", "1"):
                assert [r["epoch_or_round"] for r in curves
                        if (r["model"], r["fold"]) == (model, fold)] == [
                    str(e) for e in range(n_epochs)]
        assert len(curves) == 2 * (37 + 37 + 5)
        assert [(r["model"], r["status"]) for r in summary] == [
            ("als", "ok"), ("alsdl", "ok")]
        metrics = {"train_loss", "test_loss", "train_accuracy",
                   "test_accuracy", "mean_test_loss", "mean_test_accuracy"}
        for row in curves + summary:
            assert all(math.isfinite(float(row[c]))
                       for c in metrics & row.keys()), row

    def test_diverged_epoch_names_the_alsdl_stage(self, tmp_path):
        """A network divergence counts epochs from the run's start, so
        ALSDL's row tells it from a stage-1 one: the ALS stage at learning
        rate 1e300 diverges at epoch 0, and its network never trains."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"alsdl": {"als": {"learning_rate": 1e300}}}))
        out = tmp_path / "run"
        main(["benchmark", "--synthetic", "8,7,2,0.1", "--folds", "3",
              "--als-epochs", "20", "--mlp-epochs", "20", "--models",
              "alsdl", "--config", str(cfg_path), "--out", str(out)])
        rows = read_rows(out / "cv_summary.csv")
        assert [(r["model"], r["status"], r["diverged_epoch"])
                for r in rows] == [("alsdl", "diverged", "0")]

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

    def test_config_file_byte_order_mark(self, tmp_path):
        """A file saved with a UTF-8 byte-order mark, as some editors save
        JSON, builds the config the same file builds without one."""
        text = json.dumps({"folds": 2, "alsdl": {"hidden_sizes": [3]}})
        plain, marked = tmp_path / "plain.json", tmp_path / "marked.json"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(codecs.BOM_UTF8)
        cfg = load_file(marked)
        assert cfg == load_file(plain)
        assert cfg.folds == 2 and cfg.alsdl.hidden_sizes == (3,)

    def test_config_file_alsdl_fields(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"alsdl": {"hidden_sizes": [3]}}))
        cfg = load_file(cfg_path)
        assert cfg.alsdl.hidden_sizes == (3,)
        # fields the file leaves out keep AlsdlConfig's defaults
        assert cfg.alsdl.als == AlsdlConfig().als

    @pytest.mark.parametrize("alsdl, name", [
        ({"hidden_sizes": [3], "hiden_sizes": [3]}, "alsdl.hiden_sizes"),
        ({"loss": {"beta": 0.2, "bta": 0.1}}, "alsdl.loss.bta"),
        # keys that were removed: beta = 0 trains without the penalty, and
        # the network's inputs are always [cell, molecule]
        ({"loss": {"use_smooth_surrogate": False}},
         "alsdl.loss.use_smooth_surrogate"),
        ({"molecule_first": True}, "alsdl.molecule_first"),
        # epochs always alternate, as the key's default did
        ({"als": {"simultaneous_updates": False}},
         "alsdl.als.simultaneous_updates"),
        # the optimizer's and initializer's internals are constants
        ({"als": {"init_scale": 0.1}}, "alsdl.als.init_scale"),
        ({"mlp_train": {"rmsprop_decay": 0.9}},
         "alsdl.mlp_train.rmsprop_decay"),
        ({"mlp_train": {"rmsprop_epsilon": 1e-8}},
         "alsdl.mlp_train.rmsprop_epsilon"),
        ({"loss": {"surrogate_sharpness": 10.0}},
         "alsdl.loss.surrogate_sharpness")])
    def test_config_file_unknown_alsdl_key(self, tmp_path, alsdl, name):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"alsdl": alsdl}))
        with pytest.raises(SystemExit) as e:
            load_file(cfg_path)
        assert str(e.value) == f"invalid config key {name!r}: unknown key"

    def test_config_file_nested_model_cfg(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "active": {"n_init": 5},
            "alsdl": {"hidden_sizes": [4], "loss": {"beta": 0.3}}}))
        cfg = load_file(cfg_path)
        assert cfg.active == ActiveConfig(n_init=5)
        assert cfg.alsdl == AlsdlConfig(hidden_sizes=(4,),
                                        loss=LossConfig(beta=0.3))

    # the ids are the ones these cases had before each message began
    # "invalid config", as every config error's does
    @pytest.mark.parametrize("raw, message", [
        pytest.param([1], "invalid config: must be a JSON object",
                     id="raw0-config must be a JSON object"),
        pytest.param({"als": 5}, "invalid config key 'als': must be an object",
                     id="raw1-config key 'als' must be an object"),
        pytest.param({"als": None},
                     "invalid config key 'als': must be an object",
                     id="raw2-config key 'als' must be an object"),
        pytest.param({"alsdl": {"loss": [0.1]}},
                     "invalid config key 'alsdl.loss': must be an object",
                     id="raw3-config key 'alsdl.loss' must be an object"),
        pytest.param({"alsdl": {"als": "d=2"}},
                     "invalid config key 'alsdl.als': must be an object",
                     id="raw4-config key 'alsdl.als' must be an object")])
    def test_config_file_non_object(self, tmp_path, raw, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        with pytest.raises(SystemExit) as e:
            load_file(cfg_path)
        assert str(e.value) == message

    def test_config_file_empty_boundaries(self, tmp_path):
        """The network's penalty classifies at 0 only, so boundaries, empty
        or at the [0.0] an old manifest holds, is an unknown key."""
        cfg_path = tmp_path / "cfg.json"
        for boundaries in ([], [0.0]):
            cfg_path.write_text(json.dumps(
                {"alsdl": {"loss": {"boundaries": boundaries}}}))
            with pytest.raises(SystemExit) as e:
                load_file(cfg_path)
            assert str(e.value) == (
                "invalid config key 'alsdl.loss.boundaries': unknown key")

    @pytest.mark.parametrize("raw, message", [
        ({"active": {"elm_candidate_subsample": 0}},
         "invalid config key 'active.elm_candidate_subsample': "
         "elm_candidate_subsample must be null or an integer >= 1, not 0"),
        ({"active": {"n_per_query": -3}},
         "invalid config key 'active.n_per_query': n_per_query must be an "
         "integer >= 1, not -3"),
        ({"alsdl": {"loss": {"boundaries": ["a", 1]}}},
         "invalid config key 'alsdl.loss.boundaries': unknown key"),
        # an empty curve, a TypeError in train_als, and a failure in numpy
        ({"active": {"n_max_query": -1}},
         "invalid config key 'active.n_max_query': n_max_query must be an "
         "integer >= 0, not -1"),
        ({"alsdl": {"als": {"epochs": 10.5}}},
         "invalid config key 'alsdl.als.epochs': epochs must be an integer "
         ">= 1, not 10.5"),
        ({"active": {"n_per_query": True}},
         "invalid config key 'active.n_per_query': n_per_query must be an "
         "integer >= 1, not True"),
        ({"als": {"d": 0}},
         "invalid config key 'als.d': d must be an integer >= 1, not 0"),
        ({"alsdl": {"mlp_train": {"epochs": -1}}},
         "invalid config key 'alsdl.mlp_train.epochs': epochs must be an "
         "integer >= 0, not -1"),
        # a removed key: each unit's strategy is a run_active_learning
        # argument, from the strategies entry
        ({"active": {"strategy": "rand"}},
         "invalid config key 'active.strategy': unknown key")])
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
        assert str(e.value) == ("invalid config key 'active.model_cfg': "
                                "unknown key")
        assert not (tmp_path / "run").exists()

    def test_no_source_rejected_by_cli(self, tmp_path):
        with pytest.raises(SystemExit) as e:
            main(["benchmark", "--out", str(tmp_path / "run")])
        assert str(e.value) == ("invalid config key 'dataset_path': exactly "
                                "one of dataset_path and synthetic must be "
                                "given")

    @pytest.mark.parametrize("flag, value", [
        ("--n-per-query", "0"), ("--elm-candidate-subsample", "-3"),
        ("--als-epochs", "-1"), ("--mlp-epochs", "-1"),
        ("--embedding-dim", "0"), ("--n-init", "0"), ("--n-max-query", "-1"),
        ("--elm-inner-epochs", "0")])
    def test_flag_value_rejected(self, tmp_path, flag, value):
        with pytest.raises(SystemExit) as e:
            main(["al-study", "--synthetic", "5,5,2,0", flag, value,
                  "--out", str(tmp_path / "run")])
        key = FLAG_KEYS[flag[2:].replace("-", "_")][0]
        name = key.rsplit(".", 1)[-1]
        kind = {"--mlp-epochs": "an integer >= 0",
                "--n-max-query": "an integer >= 0",
                "--elm-candidate-subsample": "null or an integer >= 1"}.get(
                    flag, "an integer >= 1")
        assert str(e.value) == (f"invalid config key {key!r} (set by {flag}): "
                                f"{name} must be {kind}, not {value}")
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
        argv = argv + ["--dataset", str(small_dataset(tmp_path / "data.csv")),
                       "--target", "ifd", "--embedding-dim", "2",
                       "--out", str(first)]
        main(argv)
        config = json.loads((first / "manifest.json").read_text())["config"]
        # loaded in process, the manifest's config is the run's
        assert ExperimentConfig().updated(config) == resolve_config(
            build_parser().parse_args(argv))
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
        {"alsdl": {"als": {"d": 5}}}, {"alsdl": {"als": {"learning_rate": 0.01}}},
        {"alsdl": {"loss": {"beta": 0.1}, "als": {}}}, {"als": {"d": 5}}])
    def test_config_file_keeps_the_enclosing_defaults(self, tmp_path, raw):
        # alsdl.als.epochs stays AlsdlConfig's 200, not AlsConfig's 400
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert load_file(cfg_path) == ExperimentConfig()

    def test_config_file_null_where_default_is_none(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"synthetic": None, "folds": 3}))
        cfg = load_file(cfg_path)
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
         "noise_sd must be a finite number >= 0, not -0.5"),
        (["--synthetic", "0,6,1,0"], "argument --synthetic: '0,6,1,0': m "
         "must be an integer >= 1, not 0")])
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
        ({"seeds": [1.5]}, f"{SEEDS_ERROR}, not (1.5,)"),
        ({"seeds": [-1]}, f"{SEEDS_ERROR}, not (-1,)"),
        ({"seeds": [0, True]}, f"{SEEDS_ERROR}, not (0, True)"),
        ({"seeds": ["a"]}, f"{SEEDS_ERROR}, not ('a',)"),
        ({"seeds": 3}, f"{SEEDS_ERROR}, not 3"),
        # a case with an explicit id keeps the name it had when its exit
        # read "invalid config: <rule>", before every rule named its key
        pytest.param({"seeds": []},
                     "invalid config key 'seeds': empty seed list",
                     id="raw5-invalid config: empty seed list"),
        # keys that were removed: each unit's seed and strategy are call
        # arguments, from the seeds and strategies entries. The ids are the
        # ones these cases had when the keys were fields no run could set
        pytest.param(
            {"als": {"seed": 5}}, "invalid config key 'als.seed': unknown "
            "key", id="raw6-invalid config: als.seed = 5 would be ignored: "
            "each unit sets it from seeds; set seeds instead"),
        pytest.param(
            {"alsdl": {"als": {"seed": 5}}}, "invalid config key "
            "'alsdl.als.seed': unknown key", id="raw7-invalid config: "
            "alsdl.als.seed = 5 would be ignored: each unit sets it from "
            "seeds; set seeds instead"),
        pytest.param(
            {"alsdl": {"mlp_train": {"seed": 1}}}, "invalid config key "
            "'alsdl.mlp_train.seed': unknown key", id="raw8-invalid "
            "config: alsdl.mlp_train.seed = 1 would be ignored: each unit "
            "sets it from seeds; set seeds instead"),
        pytest.param(
            {"active": {"seed": 2}}, "invalid config key 'active.seed': "
            "unknown key", id="raw9-invalid config: active.seed = 2 would "
            "be ignored: each unit sets it from seeds; set seeds instead"),
        pytest.param(
            {"active": {"strategy": "random"}}, "invalid config key "
            "'active.strategy': unknown key", id="raw10-invalid config: "
            "active.strategy = 'random' would be ignored: each unit sets it "
            "from strategies; set strategies instead"),
        ({"synthetic": {"m": 6, "n": 6, "rank": 9}},
         "invalid config key 'synthetic.rank': rank 9 exceeds min(m, n) = 6"),
        ({"synthetic": {"noise_sd": -1}},
         "invalid config key 'synthetic.noise_sd': noise_sd must be a finite "
         "number >= 0, not -1"),
        ({"synthetic": {"rank": 2.0}}, "invalid config key 'synthetic.rank': "
         "rank must be an integer >= 1, not 2.0"),
        ({"concentrations": ["x"]}, f"{CONCENTRATIONS_ERROR}, not ('x',)"),
        ({"concentrations": [True]}, f"{CONCENTRATIONS_ERROR}, not (True,)"),
        ({"concentrations": [1.0, -1]},
         f"{CONCENTRATIONS_ERROR}, not (1.0, -1)"),
        ({"concentrations": [math.nan]}, f"{CONCENTRATIONS_ERROR}, not (nan,)"),
        ({"concentrations": 5}, f"{CONCENTRATIONS_ERROR}, not 5"),
        pytest.param(
            {"targets": ["gr", "x"]},
            "invalid config key 'targets': unknown target 'x'; known: gr, "
            "ifd", id="raw19-invalid config: unknown target 'x'; known: gr, "
            "ifd"),
        pytest.param(
            {"targets": []}, "invalid config key 'targets': empty target "
            "list", id="raw20-invalid config: empty target list"),
        pytest.param(
            {"targets": ["gr", "gr"]},
            "invalid config key 'targets': repeated target in ('gr', 'gr')",
            id="raw21-invalid config: repeated target in ('gr', 'gr')"),
        pytest.param(
            {"concentrations": [0.1, 1, 1.0]},
            "invalid config key 'concentrations': repeated concentration in "
            "(0.1, 1.0, 1.0)", id="raw22-invalid config: repeated "
            "concentration in (0.1, 1.0, 1.0)"),
        ({"column_map": 5}, "invalid config key 'column_map': column_map "
         f"must be {COLUMN_MAP_KIND}, not 5"),
        ({"column_map": {"gr": None}}, "invalid config key 'column_map': "
         f"column_map must be {COLUMN_MAP_KIND}, not {{'gr': None}}"),
        ({"dataset_path": 5}, "invalid config key 'dataset_path': "
         "dataset_path must be null or a string, not 5"),
        ({"concentrations": [10 ** 400]},
         f"{CONCENTRATIONS_ERROR}, not ({10 ** 400},)"),
        ({"concentrations": [-10 ** 400]},
         f"{CONCENTRATIONS_ERROR}, not ({-10 ** 400},)"),
        ({"targets": "gr"}, "invalid config key 'targets': targets must be "
         "a tuple, each a string, not 'gr'"),
        ({"models": "als"}, "invalid config key 'models': models must be "
         "a tuple, each a string, not 'als'"),
        ({"strategies": "elm"}, "invalid config key 'strategies': strategies "
         "must be a tuple, each a string, not 'elm'"),
        pytest.param(
            {"column_map": {"gr": "Mean GR", "IFD": "Dead"}}, "invalid "
            "config key 'column_map': unknown column_map key 'IFD'; known: "
            "cell_id, molecule_id, concentration, gr, ifd", id="raw31-invalid "
            "config: unknown column_map key 'IFD'; known: cell_id, "
            "molecule_id, concentration, gr, ifd"),
        # float and bool fields: each ran on, to a traceback or a report
        ({"als": {"learning_rate": "x"}}, "invalid config key "
         "'als.learning_rate': learning_rate must be a finite number > 0, "
         "not 'x'"),
        ({"als": {"learning_rate": math.nan}}, "invalid config key "
         "'als.learning_rate': learning_rate must be a finite number > 0, "
         "not nan"),
        # keys that became constants; the ids are the ones these cases had
        # when the keys held values
        pytest.param(
            {"als": {"init_scale": None}},
            "invalid config key 'als.init_scale': unknown key",
            id="raw34-invalid config key 'als.init_scale': init_scale must "
            "be a finite number >= 0, not None"),
        ({"alsdl": {"loss": {"beta": "a"}}}, "invalid config key "
         "'alsdl.loss.beta': beta must be a finite number >= 0, not 'a'"),
        ({"alsdl": {"hidden_sizes": [20, "a"]}}, "invalid config key "
         "'alsdl.hidden_sizes': hidden_sizes must be a tuple, each an "
         "integer >= 1, not (20, 'a')"),
        ({"alsdl": {"mlp_train": {"rmsprop_learning_rate": -1}}},
         "invalid config key 'alsdl.mlp_train.rmsprop_learning_rate': "
         "rmsprop_learning_rate must be a finite number > 0, not -1"),
        pytest.param(
            {"alsdl": {"mlp_train": {"rmsprop_decay": 1.5}}},
            "invalid config key 'alsdl.mlp_train.rmsprop_decay': unknown key",
            id="raw38-invalid config key 'alsdl.mlp_train.rmsprop_decay': "
            "rmsprop_decay must be a finite number >= 0 and < 1, not 1.5"),
        ({"synthetic": {"noise_sd": "x"}}, "invalid config key "
         "'synthetic.noise_sd': noise_sd must be a finite number >= 0, "
         "not 'x'"),
        # keys that were removed: ALS epochs always alternate, and orderly
        # queries are always row-major. The ids are the ones these cases
        # had when an unknown key's exit named no rule
        pytest.param(
            {"als": {"simultaneous_updates": False}},
            "invalid config key 'als.simultaneous_updates': unknown key",
            id="raw40-unknown config key 'als.simultaneous_updates'"),
        pytest.param(
            {"active": {"orderly_column_major": "yes"}},
            "invalid config key 'active.orderly_column_major': unknown key",
            id="raw41-unknown config key 'active.orderly_column_major'"),
        # only null asks for every fully covered concentration
        ({"concentrations": []},
         "invalid config key 'concentrations': empty concentration list")])
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
        assert str(e.value) == ("invalid config key 'output_dir': output_dir "
                                "must be a string, not 5")

    @pytest.mark.parametrize("command", ["benchmark", "al-study"])
    def test_both_sources_rejected(self, monkeypatch, tmp_path, command):
        """Exits before either source is read, rather than study the
        synthetic matrix and record a dataset_path never read."""
        forbid_training(monkeypatch)
        import alsal.runner as runner_mod

        def read(*args, **kwargs):
            raise AssertionError("a source was read")
        monkeypatch.setattr(runner_mod.data_mod, "generate_synthetic", read)
        monkeypatch.setattr(runner_mod.data_mod, "parse_dataset", read)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "dataset_path": "/nonexistent.csv",
            "synthetic": {"m": 6, "n": 6, "rank": 2}}))
        with pytest.raises(SystemExit) as e:
            main([command, "--config", str(cfg_path),
                  "--out", str(tmp_path / "run")])
        assert str(e.value) == ("invalid config key 'dataset_path': exactly "
                                "one of dataset_path and synthetic must be "
                                "given")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("m, reason", [
        pytest.param(10**400, "Maximum allowed dimension exceeded",
                     id="no-dimension"),
        pytest.param(2**62, "array is too big", id="no-size")])
    def test_synthetic_matrix_too_large(self, monkeypatch, tmp_path, m,
                                        reason):
        """A synthetic m x 6 matrix that numpy cannot represent exits as a
        config error, with no traceback and no output directory."""
        forbid_training(monkeypatch)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"synthetic": {"m": m, "n": 6,
                                                      "rank": 2}}))
        with pytest.raises(SystemExit) as e:
            main(["benchmark", "--folds", "2", "--models", "als", "--config",
                  str(cfg_path), "--out", str(tmp_path / "run")])
        assert str(e.value).startswith(
            f"invalid config key 'synthetic': {reason}")
        assert not (tmp_path / "run").exists()

    def test_synthetic_matrix_that_cannot_be_allocated(self, monkeypatch,
                                                       tmp_path):
        forbid_training(monkeypatch)
        import alsal.runner as runner_mod

        def generate(*args, **kwargs):
            raise MemoryError("Unable to allocate 14.9 GiB")
        monkeypatch.setattr(runner_mod.data_mod, "generate_synthetic",
                            generate)
        with pytest.raises(SystemExit) as e:
            main(["benchmark", "--synthetic", "10,6,2,0", "--out",
                  str(tmp_path / "run")])
        assert str(e.value) == ("invalid config key 'synthetic': Unable to "
                                "allocate 14.9 GiB")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("name", ["missing.csv", ""])
    def test_unreadable_dataset(self, monkeypatch, tmp_path, name):
        forbid_training(monkeypatch)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as e:
            main(["benchmark", "--dataset", name, "--out", "run"])
        assert str(e.value) == ("invalid config key 'dataset_path': [Errno 2] "
                                f"No such file or directory: {name!r}")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("content, reason", [
        pytest.param(None, "No such file or directory", id="missing"),
        pytest.param(b'{"als": ', "Expecting value: line 1 column 9 (char 8)",
                     id="not-json"),
        pytest.param(b"\xff{}", "'utf-8' codec can't decode byte 0xff in "
                     "position 0: invalid start byte", id="not-utf-8"),
        pytest.param("directory", "Is a directory", id="a-directory"),
        # the rest of this message is the json module's
        pytest.param(b"[" * 100_000, "maximum recursion depth exceeded",
                     id="nested-too-deep")])
    def test_unreadable_config_file(self, monkeypatch, tmp_path, content,
                                    reason):
        """A --config file that cannot be read or parsed exits naming its
        path, as a config error: no traceback, no data loaded."""
        forbid_training(monkeypatch)
        path = tmp_path / "cfg.json"
        if content == "directory":
            path.mkdir()
        elif content is not None:
            path.write_bytes(content)
        with pytest.raises(SystemExit) as e:
            main(["benchmark", "--synthetic", "6,6,2,0.1", "--config",
                  str(path), "--out", str(tmp_path / "run")])
        assert str(e.value).startswith(
            f"invalid config file {str(path)!r}: {reason}")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("out, reason", [
        ("taken", "[Errno 17] File exists"),
        ("taken/run", "[Errno 20] Not a directory")])
    @pytest.mark.parametrize("command", ["benchmark", "al-study"])
    def test_out_that_cannot_be_made(self, monkeypatch, tmp_path, command,
                                     out, reason):
        """An --out that names a file, or a path under one, exits naming
        output_dir once the data has loaded, before any unit trains, not
        when the report is written after the whole study."""
        forbid_training(monkeypatch)
        (tmp_path / "taken").write_text("kept")
        path = str(tmp_path / out)
        with pytest.raises(SystemExit) as e:
            main([command, "--synthetic", "8,8,2,0.1", "--out", path])
        assert str(e.value) == (f"invalid config key 'output_dir': {reason}: "
                                f"{path!r}")
        assert (tmp_path / "taken").read_text() == "kept"

    @pytest.mark.parametrize("command", ["benchmark", "al-study"])
    def test_out_is_made_before_any_unit_trains(self, monkeypatch, tmp_path,
                                                command):
        import alsal.runner as runner_mod
        out, made = tmp_path / "new" / "run", []

        def trained(*args, **kwargs):
            made.append(out.is_dir())
            raise DivergenceError(0)
        monkeypatch.setattr(runner_mod, "_train_one", trained)
        monkeypatch.setattr(runner_mod.active_mod, "run_active_learning",
                            trained)
        assert main([command, "--synthetic", "8,8,2,0.1",
                     "--out", str(out)]) == 0
        assert made == [True] * (2 if command == "benchmark" else 4)

    @pytest.mark.parametrize("raw, argv, message", [
        ({}, ["--concentrations", "5.0"],
         "invalid config key 'concentrations': concentration 5.0 is absent "
         "or not fully covered; fully covered: [0.1, 1.0]"),
        ({}, ["--concentrations", "0.1,3.16"],
         "invalid config key 'concentrations': concentration 3.16 is absent "
         "or not fully covered; fully covered: [0.1, 1.0]"),
        ({"column_map": {"gr": "nope"}}, [],
         "invalid config key 'dataset_path': missing required columns: "
         "['nope']"),
        ({}, ["--concentrations", ""],
         "invalid config key 'concentrations' (set by --concentrations): "
         "empty concentration list")])
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
         "row 62: concentration must be finite, got inf"),
        ("C0,M1,-1.0,0.8,0.1\n",
         "row 62: concentration must be > 0, got -1.0"),
        ("C0,M1,1.0,nan,0.1\n", "row 62: gr must be finite, got nan")])
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

    def test_byte_order_mark_ignored(self, monkeypatch, tmp_path):
        """A CSV saved with a UTF-8 byte-order mark reads as the same
        Dataset and matrices as the file without it."""
        import alsal.runner as runner_mod
        parse = runner_mod.data_mod.parse_dataset
        tables = []

        def parse_and_keep(*args, **kwargs):
            tables.append(parse(*args, **kwargs))
            return tables[-1]
        monkeypatch.setattr(runner_mod.data_mod, "parse_dataset",
                            parse_and_keep)
        plain = small_dataset(tmp_path / "plain.csv")
        marked = tmp_path / "marked.csv"
        marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
        loaded = [runner_mod.load_matrices(ExperimentConfig(
            dataset_path=str(path))) for path in (plain, marked)]
        a, b = tables
        assert (a.cell_ids, a.molecule_ids) == (b.cell_ids, b.molecule_ids)
        for name in ("cell", "molecule", "concentration", "gr", "ifd"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        for (*key, x), (*same_key, y) in zip(*loaded, strict=True):
            assert key == same_key
            assert np.array_equal(x.values, y.values)
            assert np.array_equal(x.mask, y.mask)

    def test_old_manifest_names_a_removed_key(self, tmp_path):
        """A manifest written when seeds and the strategy were config
        fields holds them at their defaults; fed back as --config, it exits
        naming the first."""
        config = asdict(ExperimentConfig(synthetic=SyntheticSpec()))
        config["als"]["seed"] = config["alsdl"]["als"]["seed"] = 0
        config["alsdl"]["mlp_train"]["seed"] = config["active"]["seed"] = 0
        config["active"]["strategy"] = "elm"
        cfg_path = tmp_path / "manifest-config.json"
        cfg_path.write_text(json.dumps(config))
        with pytest.raises(SystemExit) as e:
            main(["al-study", "--config", str(cfg_path),
                  "--out", str(tmp_path / "run")])
        assert str(e.value) == "invalid config key 'als.seed': unknown key"
        assert not (tmp_path / "run").exists()


class TestSyntheticSpec:
    def test_accepts_full_rank(self):
        assert SyntheticSpec(3, 4, 3, 0.5).rank == 3

    @pytest.mark.parametrize("kwargs, message", [
        ({"m": 0}, "m must be an integer >= 1, not 0"),
        ({"n": 2.0}, "n must be an integer >= 1, not 2.0"),
        ({"rank": True}, "rank must be an integer >= 1, not True"),
        ({"m": 4, "rank": 5}, "rank 5 exceeds min(m, n) = 4"),
        ({"noise_sd": -0.1},
         "noise_sd must be a finite number >= 0, not -0.1"),
        ({"noise_sd": math.nan},
         "noise_sd must be a finite number >= 0, not nan")])
    def test_rejects(self, kwargs, message):
        with pytest.raises(ValueError) as e:
            SyntheticSpec(**kwargs)
        assert str(e.value) == message


class TestUpdated:
    """Config.updated loads a JSON object in process: every fault is a
    ConfigError keyed by its dotted name, never an exit."""

    @pytest.mark.parametrize("raw, key, message", [
        ([1], None, "must be a JSON object"),
        ({"alsdl": {"loss": {"beta": 0.2, "bta": 0.1}}}, "alsdl.loss.bta",
         "unknown key"),
        ({"bogus": 1}, "bogus", "unknown key"),
        ({"alsdl": {"als": "d=2"}}, "alsdl.als", "must be an object"),
        ({"als": None}, "als", "must be an object"),
        ({"active": {"n_per_query": -3}}, "active.n_per_query",
         "n_per_query must be an integer >= 1, not -3"),
        ({"synthetic": {"m": 6, "n": 6, "rank": 9}}, "synthetic.rank",
         "rank 9 exceeds min(m, n) = 6"),
        ({"seeds": [0, 0]}, "seeds", "repeated seed in (0, 0)")])
    def test_rejects_naming_the_key(self, raw, key, message):
        with pytest.raises(ConfigError) as e:
            ExperimentConfig().updated(raw)
        assert (e.value.key, str(e.value)) == (key, message)

    def test_updates_from_the_configs_own_values(self):
        cfg = small_config()
        new = cfg.updated({"alsdl": {"als": {"epochs": 3}}, "seeds": [2, 1],
                           "synthetic": None})
        assert new == replace(cfg, alsdl=replace(
            cfg.alsdl, als=replace(cfg.alsdl.als, epochs=3)), seeds=(2, 1),
            synthetic=None)
        # a null config is updated from its class defaults
        assert new.updated({"synthetic": {"m": 40}}).synthetic == \
            SyntheticSpec(m=40)


def schema_leaves(config, prefix=""):
    """(dotted key, field, value) for every field reachable from the config
    that does not hold a config dataclass; a config that is None by default
    (synthetic) is walked from its class defaults."""
    for f in fields(config):
        value = getattr(config, f.name)
        sub = [t for t in (f.type, *get_args(f.type)) if is_dataclass(t)]
        if sub:
            yield from schema_leaves(sub[0]() if value is None else value,
                                     f"{prefix}{f.name}.")
        else:
            yield prefix + f.name, f, value


def annotation_types(tp):
    """tp and every type its arguments name, recursively."""
    yield tp
    for arg in get_args(tp):
        if arg is not Ellipsis:
            yield from annotation_types(arg)


def config_classes(cls):
    """cls and every config class its fields' annotations reach."""
    yield cls
    for f in fields(cls):
        for t in annotation_types(f.type):
            if is_dataclass(t):
                yield from config_classes(t)


class TestSchema:
    """Every config field is declared once, with the type and range that
    Config enforces and that the README's table lists."""

    def test_every_field_checked(self):
        """Each config class reachable from ExperimentConfig has a schema,
        so Config handles each annotation, and each number is
        declared with a range."""
        reached = set(config_classes(ExperimentConfig))
        assert reached == {ExperimentConfig, SyntheticSpec, AlsConfig,
                           AlsdlConfig, MlpTrainConfig, LossConfig,
                           ActiveConfig}
        for cls in reached:
            for f in fields(cls):
                _rule(f.type, f.metadata.get("range"))  # TypeError if not
        for key, f, _ in schema_leaves(ExperimentConfig()):
            if {int, float} & set(annotation_types(f.type)):
                assert "range" in f.metadata, key

    def test_every_config_is_a_config(self):
        """Each config class inherits the field check, so none can be
        added that skips it."""
        for cls in config_classes(ExperimentConfig):
            assert issubclass(cls, Config), cls.__name__

    def test_every_bound_is_enforced(self):
        """Each numeric leaf, replaced in its own config with a value just
        past its declared bound (one tuple entry for a tuple), raises a
        ConfigError naming that field: a config class that never checks,
        or an override that skips super().__post_init__(), fails here."""
        cfg = ExperimentConfig(synthetic=SyntheticSpec())
        checked = set()
        for key, f, _ in schema_leaves(cfg):
            types = set(annotation_types(f.type))
            if not {int, float} & types:
                continue
            op, limit = f.metadata["range"].split()
            if int in types:
                past = int(limit) - (op == ">=")
            else:
                past = (math.nextafter(float(limit), -math.inf)
                        if op == ">=" else float(limit))
            path, _, name = key.rpartition(".")
            owner = attrgetter(path)(cfg) if path else cfg
            with pytest.raises(ConfigError) as e:
                replace(owner, **{name: (past,) if tuple in map(
                    get_origin, types) else past})
            assert e.value.key == name and name in str(e.value), key
            checked.add(type(owner))
        assert checked == set(config_classes(ExperimentConfig))

    @pytest.mark.parametrize("annotation, default", [
        (int, 0), (float, 0.0), (tuple[int, ...], ()), (int | None, None),
        (list, None), (tuple, ()), (bool, False)])
    def test_undeclared_field_cannot_be_built(self, annotation, default):
        """A number without a range, or an annotation the checker does not
        know, fails when its dataclass is first built."""
        @dataclass(frozen=True)
        class Bad(Config):
            x: annotation = default
        with pytest.raises(TypeError):
            Bad()

    def test_als_alternation_is_not_a_field(self):
        """AlsConfig keeps simultaneous_updates as a plain class attribute,
        always False, for the bench tracer that reads it: no config key,
        no manifest entry, no replace argument."""
        assert "simultaneous_updates" not in {f.name for f in
                                              fields(AlsConfig)}
        assert AlsConfig().simultaneous_updates is False

    def test_every_config_frozen(self):
        """A config is checked once, when built, so no field of any config
        class, nested ones included, can be assigned afterwards."""
        for cls in config_classes(ExperimentConfig):
            assert cls.__dataclass_params__.frozen, cls.__name__
        cfg = ExperimentConfig(synthetic=SyntheticSpec(6, 6, 2, 0.1), folds=2)
        with pytest.raises(FrozenInstanceError):
            cfg.synthetic.rank = 9

    def test_no_key_is_fixed_at_its_default(self):
        """Each key builds, from a config file, with a value other than its
        default: the next integer, half a float (0.5 for 0), another string,
        a list cut to its first entry or, with one, that entry changed, and
        a set value for each key that is null by default."""
        for_null = {"dataset_path": "d.csv", "concentrations": [0.5],
                    "column_map": {"gr": "x"},
                    "active.elm_candidate_subsample": 3}

        def other(value):
            if isinstance(value, tuple):
                return (list(value[:1]) if len(value) > 1
                        else [other(value[0])])
            if isinstance(value, str):
                return value + "2"
            return value + 1 if isinstance(value, int) else value / 2 or 0.5
        fixed = []
        for key, default in SCHEMA:
            value = for_null[key] if default is None else other(default)
            try:
                cfg = ExperimentConfig().updated(json_object([(key, value)]))
            except ConfigError as e:
                fixed.append(f"{e.key}: {e}")
                continue
            got = attrgetter(key)(cfg)
            assert got == (tuple(value) if isinstance(value, list)
                           else value), key
        assert fixed == []

    def test_readme_table(self):
        """The README's config table lists each key once, with the type,
        range and default that the schema declares."""
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        lines = readme[readme.index("| key | type | range | default |"):]
        rows = []
        for line in lines.splitlines()[2:]:
            if not line.startswith("|"):
                break
            cells = re.split(r"(?<!\\)\|", line)[1:-1]
            rows.append(tuple(c.strip().replace("\\|", "|").strip("`")
                              for c in cells))
        want = [(key, f.type.__name__ if get_origin(f.type) is None
                 else str(f.type), f.metadata.get("range", ""),
                 json.dumps(value))
                for key, f, value in schema_leaves(ExperimentConfig())]
        assert sorted(rows) == sorted(want)
        assert len(rows) == len(set(rows))


def json_object(leaves):
    """The JSON object that sets each (dotted key, value) of leaves."""
    raw = {}
    for key, value in leaves:
        *path, name = key.split(".")
        node = raw
        for part in path:
            node = node.setdefault(part, {})
        node[name] = value
    return raw


SCHEMA = [(key, value) for key, _, value in schema_leaves(ExperimentConfig())]
OBJECT_KEYS = sorted({key.rsplit(".", 1)[0] for key, _ in SCHEMA
                      if "." in key})
# each list of names, and a value to add to it: an unknown name, or for
# seeds and concentrations, which take any number in range, a new one
NAME_LISTS = {"targets": "x", "models": "foo", "strategies": "rand",
              "seeds": 3, "concentrations": 0.5}
# JSON values of every type, in and out of range
JSON_VALUES = [None, True, False, 0, -1, 1, 2, 7, 1.5, -0.5, 1e308, 10 ** 400,
               math.nan, math.inf, "", "x", "gr", [], [1, "a"], [0.5, 0.5],
               ["gr"], [2, 1], {}, {"gr": "x"}, {"cel_id": "x"}, {"x": 5}]


def csv_flag(items):
    return st.lists(st.sampled_from(items), max_size=3).map(",".join)


# argv values each flag parses: the property is about resolve_config
FLAG_VALUES = {
    "dataset": st.just("d.csv"),
    "synthetic": st.sampled_from(["6,6,2,0.1", "5,4,4,0"]),
    "target": st.sampled_from(["gr", "ifd", "both"]),
    "concentrations": csv_flag(["0.1", "1", "1.0", "0", "-2", "inf"]),
    "seeds": csv_flag(["0", "1", "-1"]),
    "models": csv_flag(["als", "alsdl", "foo"]),
    "strategy": csv_flag(["orderly", "random", "uncertainty", "elm",
                          "rand"]),
    "out": st.just("out2")}


@st.composite
def changes(draw):
    """One change to the schema's JSON: a leaf set to any JSON value, an
    unknown key, a non-object where a config object belongs, or a list
    with an unknown or repeated name."""
    kind = draw(st.sampled_from(["leaf", "unknown", "non-object", "name"]))
    if kind == "leaf":
        return draw(st.sampled_from(SCHEMA))[0], draw(
            st.sampled_from(JSON_VALUES))
    if kind == "unknown":
        return draw(st.sampled_from(["", *(k + "." for k in OBJECT_KEYS)])
                    ) + "bogus", 1
    if kind == "non-object":
        return draw(st.sampled_from(OBJECT_KEYS)), draw(
            st.sampled_from([5, "x", [], None, True]))
    key = draw(st.sampled_from(sorted(NAME_LISTS)))
    names = list(dict(SCHEMA)[key] or [1.0])
    return key, names + [draw(st.sampled_from(names + [NAME_LISTS[key]]))]


def flag_dests(command):
    """The FLAG_KEYS dests of command's flags, sorted."""
    return sorted({a.dest for a in subparsers()[command]._actions}
                  & FLAG_KEYS.keys())


@st.composite
def cli_cases(draw):
    """(subcommand, JSON config, flags): the schema's leaves at their
    defaults with one or two changes, and some flags of the subcommand."""
    command = draw(st.sampled_from(sorted(subparsers())))
    dests = flag_dests(command)
    leaves = dict(SCHEMA)
    for key, value in draw(st.lists(changes(), min_size=1, max_size=2)):
        # a change above or below a key set before replaces that key
        leaves = {k: v for k, v in leaves.items()
                  if not (k.startswith(key + ".") or key.startswith(k + "."))}
        leaves[key] = value
    given_dests = draw(st.lists(st.sampled_from(dests), unique=True,
                                max_size=3))
    if "dataset" in given_dests and "synthetic" in given_dests:
        given_dests.remove("synthetic")  # the parser allows one source flag
    flags = [f"--{dest.replace('_', '-')}="
             + draw(FLAG_VALUES.get(dest, st.integers(-1, 50).map(str)))
             for dest in given_dests]
    return command, json_object(leaves.items()), flags


# values the schema accepts for what the run checks against its data: the
# sources, the counts that the observed positions limit, and the
# concentrations, seeds and targets that pick the matrices and units
RUN_VALUES = {
    "dataset_path": st.just("d.csv"),
    "synthetic": st.just({"m": 6, "n": 6, "rank": 2, "noise_sd": 0.1}),
    "folds": st.integers(2, 40), "active.n_init": st.integers(1, 40),
    "concentrations": st.sampled_from([None, [0.1], [1.0, 0.1], [0.5]]),
    "seeds": st.sampled_from([[0], [2, 0]]),
    "targets": st.sampled_from([["gr"], ["ifd", "gr"]])}


@st.composite
def run_cases(draw):
    """(subcommand, JSON config, flags) that mostly resolve: the defaults
    with some of RUN_VALUES, and some of the source and count flags."""
    command = draw(st.sampled_from(sorted(subparsers())))
    raw = json_object(draw(st.fixed_dictionaries(
        {}, optional=RUN_VALUES)).items())
    dests = draw(st.lists(st.sampled_from(sorted(
        {"dataset", "synthetic", "folds", "n_init"}
        & set(flag_dests(command)))), unique=True, max_size=2))
    if {"dataset", "synthetic"} <= set(dests):
        dests.remove("synthetic")  # the parser allows one source flag
    return command, raw, [f"--{dest.replace('_', '-')}=" + draw(
        FLAG_VALUES.get(dest, st.integers(1, 40).map(str))) for dest in dests]


# argv values that each flag's type rejects
UNPARSEABLE = {
    **{a.dest: st.sampled_from(["x", "1.5", ""])
       for parser in subparsers().values() for a in parser._actions
       if a.type is int},
    "seeds": st.sampled_from(["1,a", "0,1.5"]),
    "concentrations": st.sampled_from(["x", "0.1,y"]),
    "synthetic": st.sampled_from(["6,6", "6,6,9,0", "a,6,2,0"]),
    "target": st.just("all")}


@st.composite
def unparseable_cases(draw):
    """(subcommand, argv, dest): a cli_cases argv with one flag added, at
    any place, whose value does not parse."""
    command, _, flags = draw(cli_cases())
    dest = draw(st.sampled_from(sorted(UNPARSEABLE.keys()
                                       & set(flag_dests(command)))))
    flags.insert(draw(st.integers(0, len(flags))),
                 f"--{dest.replace('_', '-')}=" + draw(UNPARSEABLE[dest]))
    return command, [command, *flags], dest


def small_sources(config, csv_path):
    """config with each source it sets swapped for a small one: the CSV at
    csv_path for dataset_path, a 6 x 6 matrix for synthetic."""
    return replace(
        config,
        dataset_path=None if config.dataset_path is None else str(csv_path),
        synthetic=None if config.synthetic is None
        else SyntheticSpec(m=6, n=6, rank=2, noise_sd=0.0))


def resolves_and_runs(command, raw, flags):
    """Check TestResolveConfigProperty's property on one case."""
    import alsal.runner as runner_mod
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(raw))
        args = build_parser().parse_args(
            [command, "--config", str(path), *flags])
        try:
            cfg = resolve_config(args)
        except SystemExit as e:
            assert re.match(r".*config key '\w+(\.\w+)*'", str(e)), e
            return
        assert ExperimentConfig().updated(asdict(cfg)) == cfg
        path.write_text(json.dumps(asdict(cfg)))
        again = build_parser().parse_args([command, "--config", str(path)])
        assert resolve_config(again) == cfg

        load = runner_mod.load_matrices
        csv_path = small_dataset(Path(tmp) / "data.csv")
        units = []
        run, limit = ((run_benchmark, "folds") if command == "benchmark"
                      else (run_al_study, "active.n_init"))

        def unit(config, name, matrix, seed, shared):
            # a unit runs only on a matrix with the positions it needs
            assert attrgetter(limit)(config) <= matrix.observed_positions(
                ).size
            units.append((name, seed))
            return ()
        with mock.patch.multiple(
                runner_mod, _cv_unit=unit, _al_unit=unit,
                load_matrices=lambda c: load(small_sources(c, csv_path))):
            try:
                run(cfg)
            except ConfigError as e:
                attrgetter(e.key)(cfg)  # a dotted name of the config
                return
    names = cfg.models if command == "benchmark" else cfg.strategies
    assert set(units) == {(name, seed) for name in names
                          for seed in cfg.seeds}


class TestResolveConfigProperty:
    """Any JSON config built from the schema, with any flags, either exits
    naming a key or resolves to a config whose asdict, fed back as
    --config, resolves to an equal config. Run with small stand-ins for its
    sources and with units that train nothing, the resolved config either
    raises ConfigError keyed by one of its dotted names or reaches every
    unit. A flag value that does not parse is a usage error."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(cli_cases())
    def test_exits_naming_a_key_or_round_trips(self, case):
        resolves_and_runs(*case)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(run_cases())
    def test_run_names_a_key_or_reaches_every_unit(self, case):
        resolves_and_runs(*case)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(unparseable_cases())
    @example(("benchmark", ["benchmark", "--folds=x"], "folds"))
    @example(("benchmark", ["benchmark", "--seeds=1,a"], "seeds"))
    @example(("al-study", ["al-study", "--n-init=1.5"], "n_init"))
    @example(("benchmark", ["benchmark", "--synthetic=6,6"], "synthetic"))
    @example(("al-study", ["al-study", "--concentrations=x"],
              "concentrations"))
    def test_unparseable_flag_is_a_usage_error(self, case):
        command, argv, dest = case
        err = io.StringIO()
        with pytest.raises(SystemExit) as e, contextlib.redirect_stderr(err):
            main(argv)
        assert e.value.code == 2
        last = err.getvalue().splitlines()[-1]
        assert last.startswith(f"alsal {command}: error: argument "
                               f"--{dest.replace('_', '-')}: "), last
        assert "Traceback" not in err.getvalue()
