"""Experiment runner: cross-validated benchmarks, active-learning studies,
and CSV report emission with concentration averaging.

Report schema 2 (manifest "schema_version"): a cv_summary or learning_curves
row has status ok or diverged; a diverged one holds only its key and
diverged_epoch. For mean rows see aggregate_concentrations."""

import csv
import hashlib
import json
import numbers
import time
from dataclasses import dataclass, field, asdict, replace
from pathlib import Path

import numpy as np

from . import active as active_mod
from . import als as als_mod
from . import alsdl as alsdl_mod
from . import data as data_mod
from .active import ActiveConfig
from .alsdl import AlsdlConfig
from .als import AlsConfig, ConfigError, DivergenceError
from .metrics import kfold_split

SCHEMA_VERSION = 2
MODELS = ("als", "alsdl")
LEARNING_CURVE_COLUMNS = ["strategy", "target", "concentration", "seed",
                          "round", "n_labeled", "full_rmse", "full_accuracy",
                          "status", "diverged_epoch"]
TRAINING_CURVE_COLUMNS = ["model", "target", "concentration", "seed", "fold",
                          "epoch_or_round", "train_loss", "test_loss",
                          "train_accuracy", "test_accuracy"]
CV_SUMMARY_COLUMNS = ["model", "target", "concentration", "seed",
                      "mean_test_loss", "mean_test_accuracy", "status",
                      "diverged_epoch"]
METRIC_COLUMNS = frozenset({
    "full_rmse", "full_accuracy", "train_loss", "test_loss", "train_accuracy",
    "test_accuracy", "mean_test_loss", "mean_test_accuracy"})
# neither metrics nor part of the key that aggregate_concentrations groups by
_UNGROUPED = METRIC_COLUMNS | {"concentration", "status", "diverged_epoch"}


@dataclass
class SyntheticSpec:
    m: int = 35
    n: int = 34
    rank: int = 5
    noise_sd: float = 0.0


@dataclass
class ExperimentConfig:
    dataset_path: str = None
    synthetic: SyntheticSpec = None
    targets: tuple = ("gr", "ifd")
    concentrations: tuple = None  # None = all fully-covered ones
    models: tuple = ("als", "alsdl")
    strategies: tuple = ("orderly", "random", "uncertainty", "elm")
    seeds: tuple = (0,)
    folds: int = 10
    als: AlsConfig = field(default_factory=AlsConfig)
    alsdl: AlsdlConfig = field(default_factory=AlsdlConfig)
    active: ActiveConfig = field(default_factory=ActiveConfig)
    column_map: dict = None
    output_dir: str = "out"

    def validate(self):
        if not self.targets:
            raise ValueError("at least one target required")
        if not self.seeds:
            raise ValueError("at least one seed required")
        if self.dataset_path is None and self.synthetic is None:
            raise ValueError("either dataset_path or synthetic must be given")
        if self.active.model_cfg != AlsdlConfig():
            raise ValueError("active.model_cfg is not read: the AL study "
                             "trains the alsdl config, so set alsdl instead")
        for kind, names, known in (
                ("model", self.models, MODELS),
                ("strategy", self.strategies, active_mod.STRATEGIES)):
            if not names:
                raise ValueError(f"empty {kind} list")
            for name in names:
                if name not in known:
                    raise ValueError(f"unknown {kind} {name!r}; known: "
                                     f"{', '.join(known)}")
        if (isinstance(self.folds, bool)
                or not isinstance(self.folds, numbers.Integral)
                or self.folds < 2):
            raise ValueError("folds must be an integer of at least 2, "
                             f"not {self.folds!r}")


def _check_against_positions(key, value, matrices):
    """Raise ConfigError if value exceeds the observed positions of any of
    the (target, concentration, matrix) triples."""
    for target, conc, matrix in matrices:
        n_obs = matrix.observed_positions().size
        if value > n_obs:
            raise ConfigError(key, f"{key.rsplit('.', 1)[-1]} = {value} "
                              f"exceeds the {n_obs} observed positions of "
                              f"target {target}, concentration {conc}")


@dataclass
class Report:
    metadata: dict
    training_curves: list = field(default_factory=list)
    learning_curves: list = field(default_factory=list)
    cv_summary: list = field(default_factory=list)


def config_digest(config):
    payload = json.dumps(asdict(config), sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _metadata(config):
    return {"schema_version": SCHEMA_VERSION, "config": asdict(config),
            "config_hash": config_digest(config),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S")}


def load_matrices(config):
    """Resolve config into a list of (target, concentration_tag, matrix).

    A synthetic config yields one matrix, generated from seeds[0] and
    tagged "synthetic"; it ignores targets and concentrations.
    """
    if config.synthetic is not None:
        s = config.synthetic
        matrix, _ = data_mod.generate_synthetic(s.m, s.n, s.rank, s.noise_sd,
                                                seed=config.seeds[0])
        tag = data_mod.TARGET_SYNTHETIC
        return [(tag, tag, matrix)]
    with open(config.dataset_path, newline="", encoding="utf-8") as f:
        obs = data_mod.parse_dataset(f, columns=config.column_map)
    if config.concentrations:
        concs = list(config.concentrations)
    else:
        concs = sorted(data_mod.select_common_concentrations(obs))
    out = []
    for target in config.targets:
        for c in concs:
            out.append((target, repr(float(c)),
                        data_mod.build_response_matrix(obs, target, c)))
    return out


def run_benchmark(config):
    """k-fold cross-validation per target x concentration x model."""
    config.validate()
    matrices = load_matrices(config)
    _check_against_positions("folds", config.folds, matrices)
    report = Report(metadata=_metadata(config))
    for target, conc, matrix in matrices:
        n_obs = len(matrix.observed_positions())
        for model_name in config.models:
            for seed in config.seeds:
                key = {"model": model_name, "target": target,
                       "concentration": conc, "seed": seed}
                fold_losses, fold_accs = [], []
                for fold_idx, split in enumerate(
                        kfold_split(n_obs, config.folds, seed)):
                    try:
                        history = _train_one(config, model_name, matrix,
                                             split, seed)
                    except DivergenceError as e:
                        report.cv_summary.append(dict(
                            key, status="diverged", diverged_epoch=e.epoch))
                        break
                    for pt in history:
                        report.training_curves.append(dict(
                            key, fold=fold_idx,
                            epoch_or_round=pt.epoch_or_round,
                            train_loss=pt.train_loss, test_loss=pt.test_loss,
                            train_accuracy=pt.train_accuracy,
                            test_accuracy=pt.test_accuracy))
                    fold_losses.append(history[-1].test_loss)
                    fold_accs.append(history[-1].test_accuracy)
                else:
                    report.cv_summary.append(dict(
                        key, mean_test_loss=float(np.mean(fold_losses)),
                        mean_test_accuracy=float(np.mean(fold_accs)),
                        status="ok"))
    return report


def _train_one(config, model_name, matrix, split, seed):
    if model_name == "als":
        cfg = replace(config.als, seed=seed)
        _, history = als_mod.train_als(matrix, cfg, eval_positions=split)
    else:  # "alsdl", the only other name validate accepts
        cfg = replace(config.alsdl,
                      als=replace(config.alsdl.als, seed=seed),
                      mlp_train=replace(config.alsdl.mlp_train, seed=seed + 1))
        _, history = alsdl_mod.train_alsdl(matrix, cfg, eval_split=split)
    return history


def run_al_study(config):
    """Active-learning curves per target x concentration x strategy x seed."""
    config.validate()
    # the manifest records the model config the study trains
    active = replace(config.active, model_cfg=config.alsdl)
    matrices = load_matrices(config)
    _check_against_positions("active.n_init", active.n_init, matrices)
    report = Report(metadata=_metadata(replace(config, active=active)))
    for target, conc, matrix in matrices:
        for strategy in config.strategies:
            for seed in config.seeds:
                key = {"strategy": strategy, "target": target,
                       "concentration": conc, "seed": seed}
                cfg = replace(active, strategy=strategy, seed=seed)
                try:
                    curve, _ = active_mod.run_active_learning(matrix, cfg)
                except DivergenceError as e:
                    report.learning_curves.append(dict(
                        key, status="diverged", diverged_epoch=e.epoch))
                    continue
                for pt in curve:
                    report.learning_curves.append(dict(
                        key, round=pt.round, n_labeled=pt.n_labeled,
                        full_rmse=pt.full_rmse,
                        full_accuracy=pt.full_accuracy, status="ok"))
    return report


def aggregate_concentrations(report):
    """Append rows tagged concentration="mean": unweighted arithmetic mean
    across concentrations within each otherwise-identical key. A key gets
    one only when the table has two or more concentrations and each has an
    ok row for that key, so no mean leaves out a diverged concentration."""
    out = Report(metadata=report.metadata,
                 training_curves=list(report.training_curves),
                 learning_curves=list(report.learning_curves),
                 cv_summary=list(report.cv_summary))
    for rows, columns in ((out.learning_curves, LEARNING_CURVE_COLUMNS),
                          (out.training_curves, TRAINING_CURVE_COLUMNS),
                          (out.cv_summary, CV_SUMMARY_COLUMNS)):
        n_concs = len({row["concentration"] for row in rows})
        if n_concs < 2:
            continue
        key_cols = [c for c in columns if c not in _UNGROUPED]
        value_cols = [c for c in columns if c in METRIC_COLUMNS]
        groups = {}
        for row in rows:
            if row.get("status", "ok") == "ok":
                key = tuple(row[c] for c in key_cols)
                groups.setdefault(key, []).append(row)
        for key, members in groups.items():
            if len(members) < n_concs:
                continue
            mean_row = dict(zip(key_cols, key), concentration="mean")
            for c in value_cols:
                mean_row[c] = float(np.mean([m[c] for m in members]))
            if "status" in columns:
                mean_row["status"] = "ok"
            rows.append(mean_row)
    return out


def _write_csv(path, columns, rows):
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.DictWriter(f, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)


def write_report(report, out_dir):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "learning_curves.csv", LEARNING_CURVE_COLUMNS,
               report.learning_curves)
    _write_csv(out / "training_curves.csv", TRAINING_CURVE_COLUMNS,
               report.training_curves)
    _write_csv(out / "cv_summary.csv", CV_SUMMARY_COLUMNS, report.cv_summary)
    with open(out / "manifest.json", "w", encoding="utf-8") as f:
        json.dump(report.metadata, f, indent=2, default=str)
    return out
