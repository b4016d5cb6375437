import csv
import json
from dataclasses import replace

import pytest

from alsal.active import ActiveConfig
from alsal.als import AlsConfig
from alsal.alsdl import AlsdlConfig
from alsal.cli import _config_from_json, main
from alsal.mlp import LossConfig, MlpTrainConfig
from alsal.runner import (ConfigError, ExperimentConfig, SyntheticSpec,
                          aggregate_concentrations, run_al_study,
                          run_benchmark, write_report, Report)


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


class TestRunBenchmark:
    def test_summary_and_curves(self):
        report = run_benchmark(small_config())
        assert len(report.cv_summary) == 2  # als + alsdl, one seed
        models = {r["model"] for r in report.cv_summary}
        assert models == {"als", "alsdl"}
        for r in report.cv_summary:
            assert 0.0 <= r["mean_test_accuracy"] <= 1.0
        # 3 folds x (20 als epochs) + 3 folds x (15+15 alsdl epochs)
        als_rows = [r for r in report.training_curves if r["model"] == "als"]
        assert len(als_rows) == 3 * 20

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

    @pytest.mark.parametrize("run", [run_benchmark, run_al_study])
    def test_active_model_cfg_rejected(self, run):
        # the study trains config.alsdl; a separate model_cfg would be unused
        cfg = small_config(active=ActiveConfig(
            n_init=6, model_cfg=AlsdlConfig(hidden_sizes=(3,))))
        with pytest.raises(ValueError, match="set alsdl instead"):
            run(cfg)


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
        ({"folds": True}, "folds must be an integer of at least 2, not True")])
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
         "observed positions of target synthetic, concentration synthetic")])
    def test_cli_exit(self, monkeypatch, tmp_path, argv, message):
        forbid_training(monkeypatch)
        with pytest.raises(SystemExit) as e:
            main(argv + ["--synthetic", "6,6,2,0.1",
                         "--out", str(tmp_path / "run")])
        assert str(e.value) == message
        assert not (tmp_path / "run").exists()


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
            dict(tc, concentration="0.1", epoch_or_round=0, train_loss=1.0,
                 test_loss=2.0, train_accuracy=0.5, test_accuracy=0.25),
            dict(tc, concentration="1.0", epoch_or_round=0, train_loss=3.0,
                 test_loss=4.0, train_accuracy=1.0, test_accuracy=0.75),
            dict(tc, concentration="1.0", epoch_or_round=1, train_loss=0.5,
                 test_loss=0.5, train_accuracy=1.0, test_accuracy=1.0),
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
        ({"loss": {"beta": 0.2, "bta": 0.1}}, "alsdl.loss.bta")])
    def test_config_file_unknown_alsdl_key(self, tmp_path, alsdl, name):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"alsdl": alsdl}))
        with pytest.raises(SystemExit) as e:
            _config_from_json(cfg_path)
        assert str(e.value) == f"unknown config key {name!r}"

    def test_config_file_nested_model_cfg(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"active": {
            "n_init": 5, "model_cfg": {"hidden_sizes": [4],
                                       "loss": {"boundaries": [-0.5, 0.5]}}}}))
        cfg = _config_from_json(cfg_path)
        assert cfg.active == ActiveConfig(n_init=5, model_cfg=AlsdlConfig(
            hidden_sizes=(4,), loss=LossConfig(boundaries=(-0.5, 0.5))))

    @pytest.mark.parametrize("raw, message", [
        ([1], "config must be a JSON object"),
        ({"als": 5}, "config key 'als' must be an object"),
        ({"als": None}, "config key 'als' must be an object"),
        ({"alsdl": {"loss": [0.1]}},
         "config key 'alsdl.loss' must be an object"),
        ({"active": {"model_cfg": {"als": "d=2"}}},
         "config key 'active.model_cfg.als' must be an object")])
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
        assert str(e.value).startswith(
            "invalid config: active.model_cfg is not read")
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
        assert config["active"]["model_cfg"] == config["alsdl"]
        assert config["alsdl"]["hidden_sizes"] == [3]
        assert config["alsdl"]["mlp_train"]["epochs"] == 5

    def test_config_file_null_where_default_is_none(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"synthetic": None, "folds": 3}))
        cfg = _config_from_json(cfg_path)
        assert cfg.synthetic is None
        assert cfg.folds == 3
