"""Experiment runner: cross-validated benchmarks, active-learning studies,
and CSV report emission with concentration averaging."""

import csv
import hashlib
import json
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
from .als import AlsConfig, DivergenceError
from .metrics import kfold_split

LEARNING_CURVE_COLUMNS = ["strategy", "target", "concentration", "seed",
                          "round", "n_labeled", "full_rmse", "full_accuracy"]
TRAINING_CURVE_COLUMNS = ["model", "target", "concentration", "seed", "fold",
                          "epoch_or_round", "train_loss", "test_loss",
                          "train_accuracy", "test_accuracy"]
CV_SUMMARY_COLUMNS = ["model", "target", "concentration", "seed",
                      "mean_test_loss", "mean_test_accuracy"]


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
    return {"config": asdict(config),
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
    if not config.models:
        raise ValueError("empty model list")
    report = Report(metadata=_metadata(config))
    for target, conc, matrix in load_matrices(config):
        n_obs = len(matrix.observed_positions())
        for model_name in config.models:
            for seed in config.seeds:
                fold_losses, fold_accs = [], []
                for fold_idx, split in enumerate(
                        kfold_split(n_obs, config.folds, seed)):
                    try:
                        history = _train_one(config, model_name, matrix,
                                             split, seed)
                    except DivergenceError as e:
                        report.cv_summary.append({
                            "model": model_name, "target": target,
                            "concentration": conc, "seed": seed,
                            "mean_test_loss": f"diverged@{e.epoch}",
                            "mean_test_accuracy": ""})
                        break
                    for pt in history:
                        report.training_curves.append({
                            "model": model_name, "target": target,
                            "concentration": conc, "seed": seed,
                            "fold": fold_idx,
                            "epoch_or_round": pt.epoch_or_round,
                            "train_loss": pt.train_loss,
                            "test_loss": pt.test_loss,
                            "train_accuracy": pt.train_accuracy,
                            "test_accuracy": pt.test_accuracy})
                    fold_losses.append(history[-1].test_loss)
                    fold_accs.append(history[-1].test_accuracy)
                else:
                    report.cv_summary.append({
                        "model": model_name, "target": target,
                        "concentration": conc, "seed": seed,
                        "mean_test_loss": float(np.mean(fold_losses)),
                        "mean_test_accuracy": float(np.mean(fold_accs))})
    return report


def _train_one(config, model_name, matrix, split, seed):
    if model_name == "als":
        cfg = replace(config.als, seed=seed)
        _, history = als_mod.train_als(matrix, cfg, eval_positions=split)
    elif model_name == "alsdl":
        cfg = replace(config.alsdl,
                      als=replace(config.alsdl.als, seed=seed),
                      mlp_train=replace(config.alsdl.mlp_train, seed=seed + 1))
        _, history = alsdl_mod.train_alsdl(matrix, cfg, eval_split=split)
    else:
        raise ValueError(f"unknown model {model_name!r}")
    return history


def run_al_study(config):
    """Active-learning curves per target x concentration x strategy x seed."""
    config.validate()
    if not config.strategies:
        raise ValueError("empty strategy list")
    # the manifest records the model config the study trains
    active = replace(config.active, model_cfg=config.alsdl)
    report = Report(metadata=_metadata(replace(config, active=active)))
    for target, conc, matrix in load_matrices(config):
        for strategy in config.strategies:
            for seed in config.seeds:
                cfg = replace(active, strategy=strategy, seed=seed)
                try:
                    curve, _ = active_mod.run_active_learning(matrix, cfg)
                except DivergenceError as e:
                    report.learning_curves.append({
                        "strategy": strategy, "target": target,
                        "concentration": conc, "seed": seed,
                        "round": f"diverged@{e.epoch}", "n_labeled": "",
                        "full_rmse": "", "full_accuracy": ""})
                    continue
                for pt in curve:
                    report.learning_curves.append({
                        "strategy": strategy, "target": target,
                        "concentration": conc, "seed": seed,
                        "round": pt.round, "n_labeled": pt.n_labeled,
                        "full_rmse": pt.full_rmse,
                        "full_accuracy": pt.full_accuracy})
    return report


def aggregate_concentrations(report):
    """Append rows tagged concentration="mean": unweighted arithmetic mean
    across concentrations within each otherwise-identical key."""
    out = Report(metadata=report.metadata,
                 training_curves=list(report.training_curves),
                 learning_curves=list(report.learning_curves),
                 cv_summary=list(report.cv_summary))
    for rows, columns in ((out.learning_curves, LEARNING_CURVE_COLUMNS),
                          (out.training_curves, TRAINING_CURVE_COLUMNS),
                          (out.cv_summary, CV_SUMMARY_COLUMNS)):
        if not rows:
            continue
        value_cols = [c for c in columns if _is_metric(c)]
        key_cols = [c for c in columns
                    if c != "concentration" and c not in value_cols]
        groups = {}
        for row in rows:
            if row["concentration"] == "mean":
                continue
            key = tuple(row[c] for c in key_cols)
            groups.setdefault(key, []).append(row)
        for key, members in groups.items():
            mean_row = dict(zip(key_cols, key))
            mean_row["concentration"] = "mean"
            for c in value_cols:
                vals = [m[c] for m in members if isinstance(m[c], (int, float))]
                mean_row[c] = float(np.mean(vals)) if vals else ""
            rows.append(mean_row)
    return out


def _is_metric(column):
    metric_names = {"full_rmse", "full_accuracy", "train_loss", "test_loss",
                    "train_accuracy", "test_accuracy", "mean_test_loss",
                    "mean_test_accuracy"}
    return column in metric_names


def _write_csv(path, columns, rows):
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.DictWriter(f, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow({c: ("" if row.get(c) is None else row.get(c))
                             for c in columns})


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
