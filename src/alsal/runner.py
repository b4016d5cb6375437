"""Experiment runner: cross-validated benchmarks and active-learning
studies, each one loop over units (target, concentration, model or
strategy, seed), and CSV report emission with concentration averaging.
When a benchmark's als model and ALSDL's stage 1 differ only in epochs,
they train the same ALS run up to the shorter one's end: per fold,
whichever comes first trains that part once, and the other takes it over
(see _train_one).

Report schema 2 (manifest "schema_version"): a cv_summary or learning_curves
row has status ok or diverged; a diverged one holds only its key and
diverged_epoch. For mean rows see aggregate_concentrations. Only the
manifest records the environment; the data CSVs do not depend on it."""

import csv
import hashlib
import json
import numbers
import os
import platform
import sys
import time
from dataclasses import dataclass, field, asdict, replace
from itertools import repeat
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import __version__
from . import active as active_mod
from . import als as als_mod
from . import alsdl as alsdl_mod
from . import data as data_mod
from .active import ActiveConfig
from .alsdl import AlsdlConfig
from .als import AlsConfig, ConfigError, DivergenceError, check_count
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
_UNGROUPED = METRIC_COLUMNS | {"concentration", "status", "diverged_epoch",
                               "epoch_or_round"}
# keys each unit overwrites, and the run-level field it takes them from
_PER_UNIT = {"als.seed": "seeds", "alsdl.als.seed": "seeds",
             "alsdl.mlp_train.seed": "seeds", "active.seed": "seeds",
             "active.strategy": "strategies"}


@dataclass
class SyntheticSpec:
    m: int = 35
    n: int = 34
    rank: int = 5
    noise_sd: float = 0.0

    def __post_init__(self):
        for name in ("m", "n", "rank"):
            check_count(name, getattr(self, name))
        if self.rank > min(self.m, self.n):
            raise ValueError(f"rank {self.rank} exceeds min(m, n) = "
                             f"{min(self.m, self.n)}")
        if not self.noise_sd >= 0:
            raise ValueError(f"noise_sd must be >= 0, not {self.noise_sd!r}")


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
        if not isinstance(self.seeds, tuple):
            raise ValueError(f"seeds must be a tuple of integers, not "
                             f"{self.seeds!r}")
        if not self.seeds:
            raise ValueError("at least one seed required")
        for seed in self.seeds:
            check_count("each seed", seed, minimum=0)
        if self.dataset_path is None and self.synthetic is None:
            raise ValueError("either dataset_path or synthetic must be given")
        cmap = self.column_map
        for key, ok, kind in (
                ("dataset_path", self.dataset_path is None
                 or isinstance(self.dataset_path, str), "null or a string"),
                ("output_dir", isinstance(self.output_dir, str), "a string"),
                ("column_map", cmap is None or isinstance(cmap, dict) and all(
                    isinstance(s, str) for s in (*cmap, *cmap.values())),
                 "null or an object mapping strings to strings")):
            if not ok:
                raise ValueError(f"{key} must be {kind}, not "
                                 f"{getattr(self, key)!r}")
        for key in cmap or ():
            if key not in data_mod.DEFAULT_COLUMNS:
                raise ValueError(f"unknown column_map key {key!r}; known: "
                                 f"{', '.join(data_mod.DEFAULT_COLUMNS)}")
        if self.concentrations is not None:
            if not isinstance(self.concentrations, tuple):
                raise ValueError(f"concentrations must be a tuple of numbers, "
                                 f"not {self.concentrations!r}")
            for c in self.concentrations:
                # finite, and for an int, within a float's range
                if (isinstance(c, bool) or not isinstance(c, numbers.Real)
                        or not 0 < c <= sys.float_info.max):
                    raise ValueError(f"each concentration must be a finite "
                                     f"number > 0, not {c!r}")
        for key, kind, known in (
                ("targets", "target", ("gr", "ifd")),
                ("models", "model", MODELS),
                ("strategies", "strategy", active_mod.STRATEGIES)):
            names = getattr(self, key)
            if not isinstance(names, tuple):
                raise ValueError(f"{key} must be a tuple of names, not "
                                 f"{names!r}")
            if not names:
                raise ValueError(f"empty {kind} list")
            for name in names:
                if name not in known:
                    raise ValueError(f"unknown {kind} {name!r}; known: "
                                     f"{', '.join(known)}")
        concs = tuple(map(float, self.concentrations or ()))
        for kind, names in (("target", self.targets), ("model", self.models),
                            ("strategy", self.strategies),
                            ("seed", self.seeds), ("concentration", concs)):
            if len(set(names)) < len(names):  # units with the same key
                raise ValueError(f"repeated {kind} in {names!r}")
        check_count("folds", self.folds, minimum=2)
        defaults = ExperimentConfig()
        for key, run_field in _PER_UNIT.items():
            value = attrgetter(key)(self)
            if value != attrgetter(key)(defaults):
                raise ValueError(f"{key} = {value!r} would be ignored: each "
                                 f"unit sets it from {run_field}; set "
                                 f"{run_field} instead")


@dataclass
class Report:
    """Tables of row dicts; a training_curves row holds one fold's Curve,
    an array per curve column, and is written as one line per epoch."""

    metadata: dict
    training_curves: list = field(default_factory=list)
    learning_curves: list = field(default_factory=list)
    cv_summary: list = field(default_factory=list)


def config_digest(config):
    payload = json.dumps(asdict(config), sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _metadata(config):
    blas = {k: v for k, v in sorted(os.environ.items())
            if k.startswith("OPENBLAS_")
            or k in ("OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"schema_version": SCHEMA_VERSION, "config": asdict(config),
            "config_hash": config_digest(config),
            "environment": {"alsal": __version__,
                            "python": platform.python_version(),
                            "numpy": np.__version__, **blas},
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S")}


def load_matrices(config):
    """Resolve config into a list of (target, concentration_tag, matrix).

    A synthetic config yields one matrix, generated from seeds[0] and
    tagged "synthetic"; it ignores targets and concentrations. A
    dataset_path that cannot be opened or read as a dataset raises
    ConfigError, and so does a requested concentration at which some
    (cell, molecule) pair has no measurement.
    """
    if config.synthetic is not None:
        s = config.synthetic
        matrix, _ = data_mod.generate_synthetic(s.m, s.n, s.rank, s.noise_sd,
                                                seed=config.seeds[0])
        tag = data_mod.TARGET_SYNTHETIC
        return [(tag, tag, matrix)]
    try:
        f = open(config.dataset_path, newline="", encoding="utf-8")
    except OSError as e:
        raise ConfigError("dataset_path", str(e)) from e
    try:
        with f:
            table = data_mod.parse_dataset(f, columns=config.column_map)
        common = data_mod.select_common_concentrations(table)
        for c in config.concentrations or ():
            if float(c) not in common:
                raise ConfigError("concentrations", f"concentration {c!r} is "
                                  "absent or not fully covered; fully "
                                  f"covered: {sorted(common)}")
        concs = config.concentrations or sorted(common)
        return [(target, repr(float(c)),
                 data_mod.build_response_matrix(table, target, c))
                for target in config.targets for c in concs]
    except data_mod.DataError as e:
        raise ConfigError("dataset_path", str(e)) from e


def run_benchmark(config):
    """k-fold cross-validation per target x concentration x model x seed."""
    return _run_units(config, "model", config.models, "cv_summary", "folds",
                      _cv_unit)


def run_al_study(config):
    """Active-learning curves per target x concentration x strategy x seed;
    every strategy trains config.alsdl."""
    return _run_units(config, "strategy", config.strategies,
                      "learning_curves", "active.n_init", _al_unit)


def _run_units(config, kind, names, status_table, limit, unit):
    """Validate config, load its matrices, raise ConfigError if they
    cannot be loaded (see load_matrices) or the count at the dotted key
    limit exceeds the observed positions of any matrix, then run
    unit(config, name, matrix, seed, shared) per (target, concentration,
    name, seed), in that nesting order. shared is one dict per matrix, in which a unit may leave work
    for a later unit of the same matrix. A unit yields (table, row) pairs,
    which gain the unit's key; when it raises DivergenceError, the rows it
    yielded stay and status_table gains one diverged row."""
    config.validate()
    matrices = load_matrices(config)
    value = attrgetter(limit)(config)
    for target, conc, matrix in matrices:
        n_obs = matrix.observed_positions().size
        if value > n_obs:
            raise ConfigError(limit, f"{limit.rsplit('.', 1)[-1]} = {value} "
                              f"exceeds the {n_obs} observed positions of "
                              f"target {target}, concentration {conc}")
    report = Report(metadata=_metadata(config))
    for target, conc, matrix in matrices:
        shared = {}
        for name in names:
            for seed in config.seeds:
                key = {kind: name, "target": target, "concentration": conc,
                       "seed": seed}
                try:
                    for table, row in unit(config, name, matrix, seed,
                                           shared):
                        getattr(report, table).append(dict(key, **row))
                except DivergenceError as e:
                    getattr(report, status_table).append(dict(
                        key, status="diverged", diverged_epoch=e.epoch))
    return report


def _cv_unit(config, model_name, matrix, seed, shared):
    """One training_curves row per fold, then the cv_summary row."""
    losses, accuracies = [], []
    n_obs = len(matrix.observed_positions())
    for fold, split in enumerate(kfold_split(n_obs, config.folds, seed)):
        curve = _train_one(config, model_name, matrix, split, seed, fold,
                           shared)
        yield "training_curves", dict(fold=fold, **curve._asdict())
        losses.append(curve.test_loss[-1])
        accuracies.append(curve.test_accuracy[-1])
    yield "cv_summary", dict(mean_test_loss=float(np.mean(losses)),
                             mean_test_accuracy=float(np.mean(accuracies)),
                             status="ok")


def _train_one(config, model_name, matrix, split, seed, fold, shared):
    """The fold's curve. When a study trains both models and their
    AlsConfigs differ only in epochs, the als model's run and ALSDL's stage
    1 share their first k epochs, the shorter run's: whichever model comes
    first leaves them in shared, and the other takes them from there."""
    als_cfg = replace(config.als, seed=seed)
    alsdl_cfg = config.alsdl.seeded(seed)
    k = min(als_cfg.epochs, alsdl_cfg.als.epochs)
    if (not set(MODELS) <= set(config.models)
            or replace(als_cfg, epochs=k) != replace(alsdl_cfg.als, epochs=k)):
        k = 0
    if model_name == "als":
        return _train_als(matrix, als_cfg, split, fold, shared, k)[1]
    # "alsdl", the only other name validate accepts
    stage1 = _train_als(matrix, alsdl_cfg.als, split, fold, shared, k)
    return alsdl_mod.train_alsdl(matrix, alsdl_cfg, eval_split=split,
                                 stage1=stage1)[1]


def _train_als(matrix, cfg, split, fold, shared, k):
    """train_als(matrix, cfg, eval_positions=split), split being fold
    `fold` of the seed's k-fold split, its first k epochs taken from shared
    if a run of this seed and fold left them there, else trained and left
    there; k = 0 shares nothing."""
    if not k:
        return als_mod.train_als(matrix, cfg, eval_positions=split)
    key = cfg.seed, fold
    if key in shared:  # the second of the two runs: nothing else needs it
        emb, curve = shared.pop(key)
    else:
        emb, curve = shared[key] = als_mod.train_als(
            matrix, replace(cfg, epochs=k), eval_positions=split)
    if cfg.epochs == k:
        return emb, curve
    emb, rest = als_mod.train_als(matrix, cfg, eval_positions=split,
                                  start_epoch=k, emb=emb)
    return emb, curve.then(rest)


def _al_unit(config, strategy, matrix, seed, shared):
    """One learning_curves row per AL round; shared is not used."""
    cfg = replace(config.active, strategy=strategy, seed=seed)
    curve, _ = active_mod.run_active_learning(matrix, config.alsdl, cfg)
    for point in curve:
        yield "learning_curves", dict(asdict(point), status="ok")


def aggregate_concentrations(report):
    """Append rows tagged concentration="mean": unweighted arithmetic mean
    across concentrations within each otherwise-identical key. A key gets
    one only when the table has two or more concentrations and each has an
    ok row for that key, so no mean leaves out a diverged concentration.
    Curves are averaged entry by entry, over the epochs all of them reach."""
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
                mean_row[c] = _mean([m[c] for m in members])
            if "status" in columns:
                mean_row["status"] = "ok"
            else:  # a curve: its epochs are the first member's
                mean_row["epoch_or_round"] = members[0]["epoch_or_round"][
                    :len(mean_row["train_loss"])]
            rows.append(mean_row)
    return out


def _mean(values):
    """float(np.mean(values)), or for curve cells the same per entry, as
    the row-wise mean of a C-ordered array gives it."""
    if not isinstance(values[0], np.ndarray):
        return float(np.mean(values))
    n = min(map(len, values))
    return np.mean(np.ascontiguousarray(np.transpose([v[:n] for v in values])),
                   axis=1)


def _write_csv(path, columns, rows):
    """Row dicts as CSV lines; a curve row gives one per .tolist() entry."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(columns)
        for row in rows:
            cells = [row.get(c) for c in columns]
            if isinstance(row.get("epoch_or_round"), np.ndarray):
                writer.writerows(zip(*(
                    c.tolist() if isinstance(c, np.ndarray) else repeat(c)
                    for c in cells)))
            else:
                writer.writerow(cells)


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
