"""Experiment runner: cross-validated benchmarks and active-learning
studies, each one loop over units (target, concentration, model or
strategy, seed) that writes the report's CSV rows as each unit yields
them, then the concentration-mean rows, then manifest.json; an out_dir
without a manifest holds an unfinished run. When a benchmark's als model
and ALSDL's stage 1 differ only in epochs, they train the same ALS run up
to the shorter one's end: per fold, whichever comes first trains that part
once, and the other takes it over (see _train_one).

Report schema 2 (manifest "schema_version"): a cv_summary or learning_curves
row has status ok or diverged; a diverged one holds only its key and
diverged_epoch. A mean row averages a key's float and float-array cells
across concentrations; its other cells, but the concentration, are the key
(see _concentration_means). Only the manifest records the environment and
the UTC timestamp; the data CSVs do not depend on them."""

import csv
import hashlib
import json
import os
import platform
from contextlib import ExitStack
from dataclasses import dataclass, field, fields, asdict, replace
from datetime import datetime, timezone
from itertools import repeat
from operator import attrgetter
from pathlib import Path
from typing import Literal

import numpy as np

from . import __version__
from . import active as active_mod
from . import als as als_mod
from . import alsdl as alsdl_mod
from . import data as data_mod
from .active import STRATEGIES, ActiveConfig, LearningCurvePoint
from .alsdl import AlsdlConfig
from .als import AlsConfig, Config, ConfigError, DivergenceError, in_range
from .metrics import Curve, kfold_split

SCHEMA_VERSION = 2
MODELS = ("als", "alsdl")
# {table: its columns}; each table is the CSV file "<table>.csv"
TABLES = {
    "learning_curves": ["strategy", "target", "concentration", "seed",
                        *(f.name for f in fields(LearningCurvePoint)),
                        "status", "diverged_epoch"],
    "training_curves": ["model", "target", "concentration", "seed", "fold",
                        *Curve._fields],
    "cv_summary": ["model", "target", "concentration", "seed",
                   "mean_test_loss", "mean_test_accuracy", "status",
                   "diverged_epoch"]}


@dataclass(frozen=True)
class SyntheticSpec(Config):
    m: int = in_range(35, ">= 1")
    n: int = in_range(34, ">= 1")
    rank: int = in_range(5, ">= 1")
    noise_sd: float = in_range(0.0, ">= 0")

    def __post_init__(self):
        super().__post_init__()
        if self.rank > min(self.m, self.n):
            raise ConfigError("rank", f"rank {self.rank} exceeds min(m, n) = "
                              f"{min(self.m, self.n)}")


@dataclass(frozen=True)
class ExperimentConfig(Config):
    dataset_path: str | None = None
    synthetic: SyntheticSpec | None = None
    targets: tuple[Literal[data_mod.TARGETS], ...] = data_mod.TARGETS
    # None = all fully-covered ones
    concentrations: tuple[float, ...] | None = in_range(None, "> 0")
    models: tuple[Literal[MODELS], ...] = MODELS
    strategies: tuple[Literal[STRATEGIES], ...] = STRATEGIES
    seeds: tuple[int, ...] = in_range((0,), ">= 0")
    folds: int = in_range(10, ">= 2")
    als: AlsConfig = field(default_factory=AlsConfig)
    alsdl: AlsdlConfig = field(default_factory=AlsdlConfig)
    active: ActiveConfig = field(default_factory=ActiveConfig)
    column_map: dict[Literal[tuple(data_mod.DEFAULT_COLUMNS)],
                     str] | None = None
    output_dir: str = "out"

    def __post_init__(self):
        """Check each field, then the rules across fields, each raising
        ConfigError keyed by its dotted field: no list is empty or repeats
        a value, and no two columns read one header under column_map.
        load_matrices checks the source, where it is read."""
        super().__post_init__()
        concs = tuple(map(float, self.concentrations or ()))
        headers = {**data_mod.DEFAULT_COLUMNS, **(self.column_map or {})}
        for key, kind, names in (
                ("targets", "target", self.targets),
                ("models", "model", self.models),
                ("strategies", "strategy", self.strategies),
                ("seeds", "seed", self.seeds),
                ("concentrations", "concentration", concs),
                ("column_map", "column", tuple(headers.values()))):
            if not names and getattr(self, key) is not None:  # null means all
                raise ConfigError(key, f"empty {kind} list")
            if len(set(names)) < len(names):  # units with the same key
                raise ConfigError(key, f"repeated {kind} in {names!r}")


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
            "timestamp": datetime.now(timezone.utc).isoformat("T", "seconds")}


def load_matrices(config):
    """Resolve config into a list of (target, concentration_tag, matrix).

    Exactly one of dataset_path and synthetic must be given; both or
    neither raises ConfigError before anything loads. A synthetic config
    yields one matrix, generated from seeds[0] and tagged "synthetic"; it
    ignores targets and concentrations, and one too large to generate
    raises ConfigError. A dataset_path that cannot be
    opened or read as a dataset raises ConfigError, and so does a
    requested concentration at which some (cell, molecule) pair has no
    measurement.
    """
    if (config.dataset_path is None) == (config.synthetic is None):
        raise ConfigError("dataset_path", "exactly one of dataset_path and "
                          "synthetic must be given")
    if config.synthetic is not None:
        s = config.synthetic
        try:  # numpy's errors for an m x n it cannot represent or allocate
            matrix, _ = data_mod.generate_synthetic(
                s.m, s.n, s.rank, s.noise_sd, seed=config.seeds[0])
        except (ValueError, MemoryError) as e:
            raise ConfigError("synthetic", str(e)) from e
        tag = data_mod.TARGET_SYNTHETIC
        return [(tag, tag, matrix)]
    try:
        # utf-8-sig drops a byte-order mark, which would otherwise prefix
        # the first header name
        f = open(config.dataset_path, newline="", encoding="utf-8-sig")
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
        concs = (sorted(common) if config.concentrations is None
                 else config.concentrations)
        return [(target, repr(float(c)),
                 data_mod.build_response_matrix(table, target, c))
                for target in config.targets for c in concs]
    except data_mod.DataError as e:
        raise ConfigError("dataset_path", str(e)) from e


def run_benchmark(config, out_dir=None):
    """k-fold cross-validation per target x concentration x model x seed.
    A given out_dir gets the report as the run goes (see _run_units)."""
    return _run_units(config, "model", config.models, "cv_summary", "folds",
                      _cv_unit, out_dir)


def run_al_study(config, out_dir=None):
    """Active-learning curves per target x concentration x strategy x seed;
    every strategy trains config.alsdl. A given out_dir gets the report as
    the run goes (see _run_units)."""
    return _run_units(config, "strategy", config.strategies,
                      "learning_curves", "active.n_init", _al_unit, out_dir)


def _run_units(config, kind, names, status_table, limit, unit, out_dir):
    """Load config's matrices, raise ConfigError if they cannot be loaded
    (see load_matrices) or the count at the dotted key limit exceeds the
    observed positions of any matrix, then run unit(config, name, matrix,
    seed, shared) per (target, concentration, name, seed), in that nesting
    order, and return {table: rows}, the mean rows last. shared is one dict
    per matrix, in which a unit may leave work for a later unit of the same
    matrix. A unit yields (table, row) pairs, which gain the unit's key;
    when it raises DivergenceError, the rows it yielded stay and
    status_table gains one diverged row. Unless out_dir is None, it is made,
    its manifest.json removed and each CSV's header written and flushed
    before any unit trains (an OSError raises ConfigError keyed
    output_dir); each row is written as it comes, the CSVs are flushed
    after each unit, and manifest.json is written once they are closed."""
    matrices = load_matrices(config)
    value = attrgetter(limit)(config)
    for target, conc, matrix in matrices:
        n_obs = matrix.observed_positions().size
        if value > n_obs:
            raise ConfigError(limit, f"{limit.rsplit('.', 1)[-1]} = {value} "
                              f"exceeds the {n_obs} observed positions of "
                              f"target {target}, concentration {conc}")
    metadata, tables, files = _metadata(config), {t: [] for t in TABLES}, {}
    with ExitStack() as stack:
        if out_dir is not None:
            out = Path(out_dir)
            try:  # before any unit trains, so an unusable out_dir wastes none
                out.mkdir(parents=True, exist_ok=True)
                (out / "manifest.json").unlink(missing_ok=True)
                for table, columns in TABLES.items():
                    files[table] = stack.enter_context(open(
                        out / f"{table}.csv", "w", newline="",
                        encoding="utf-8"))
                    csv.writer(files[table]).writerow(columns)
                    files[table].flush()
            except OSError as e:
                raise ConfigError("output_dir", str(e)) from e

        def add(table, row):
            tables[table].append(row)
            if files:
                _write_csv(files[table], TABLES[table], row)
        for target, conc, matrix in matrices:
            shared = {}
            for name in names:
                for seed in config.seeds:
                    key = {kind: name, "target": target, "concentration": conc,
                           "seed": seed}
                    try:
                        for table, row in unit(config, name, matrix, seed,
                                               shared):
                            add(table, dict(key, **row))
                    except DivergenceError as e:
                        add(status_table, dict(key, status="diverged",
                                               diverged_epoch=e.epoch))
                    for f in files.values():
                        f.flush()
        for table, row in list(_concentration_means(tables)):
            add(table, row)
    if out_dir is not None:
        with open(out / "manifest.json", "w", encoding="utf-8") as f:
            json.dump(metadata, f, indent=2, default=str)
    return tables


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
    first trains them and leaves them in shared, and the other takes them
    from there. Each run trains its epochs after k itself."""
    cfg, other = config.als, config.alsdl.als
    if model_name != "als":  # "alsdl", the only other name accepted
        cfg, other = other, cfg
    k = min(cfg.epochs, other.epochs)
    if not (set(MODELS) <= set(config.models)
            and replace(cfg, epochs=k) == replace(other, epochs=k)):
        k, shared = cfg.epochs, {}  # nothing to share: the run is its prefix
    if (seed, fold) in shared:  # the second run: none other needs it
        emb, curve = shared.pop((seed, fold))
    else:
        init = als_mod.init_embeddings(*matrix.shape, cfg, seed)
        emb, curve = shared[seed, fold] = als_mod.train_als(
            matrix, replace(cfg, epochs=k), init, split)
    if cfg.epochs > k:
        emb, rest = als_mod.train_als(
            matrix, replace(cfg, epochs=cfg.epochs - k), emb, split,
            start_epoch=k)
        curve = curve.then(rest)
    if model_name == "als":
        return curve
    return alsdl_mod.train_alsdl(matrix, config.alsdl, seed, eval_split=split,
                                 stage1=(emb, curve))[1]


def _al_unit(config, strategy, matrix, seed, shared):
    """One learning_curves row per AL round; shared is not used."""
    curve, _ = active_mod.run_active_learning(matrix, config.alsdl,
                                              config.active, strategy, seed)
    for point in curve:
        yield "learning_curves", dict(asdict(point), status="ok")


def _concentration_means(tables):
    """(table, row) per mean row: its key's first row, tagged
    concentration="mean", with each metric the unweighted arithmetic mean
    across its key's concentrations. A cell's value decides its role: a
    float or an array of floats is a metric; a row's other arrays (a
    curve's epoch numbers) are its first row's; its other cells but the
    concentration are its key. A key gets a mean row only when its table
    has two or more concentrations and each has an ok row for that key, so
    no mean leaves out a diverged concentration. Curves are averaged entry
    by entry: a key's curves are finished fold curves of one config, so
    they have the same length and epochs."""
    for table, rows in tables.items():
        concs, groups = {row["concentration"] for row in rows}, {}
        for row in rows:
            if row.get("status", "ok") == "ok":
                key = frozenset((c, v) for c, v in row.items()
                                if c != "concentration"
                                and not isinstance(v, (float, np.ndarray)))
                groups.setdefault(key, []).append(row)
        for members in groups.values():
            if 1 < len(members) == len(concs):
                yield table, {**members[0], "concentration": "mean", **{
                    c: _mean([m[c] for m in members])
                    for c, v in members[0].items()
                    if np.asarray(v).dtype.kind == "f"}}


def _mean(values):
    """The mean of scalar cells, or of curve cells the same per entry, as
    the row-wise mean of a C-ordered array gives it."""
    return np.mean(np.ascontiguousarray(np.transpose(values)), axis=-1)


def _write_csv(f, columns, row):
    """A row dict as CSV lines: one per .tolist() entry of its array cells,
    if it has any, each line repeating its other cells."""
    writer, cells = csv.writer(f), [row.get(c) for c in columns]
    if any(isinstance(c, np.ndarray) for c in cells):
        writer.writerows(zip(*(
            c.tolist() if isinstance(c, np.ndarray) else repeat(c)
            for c in cells)))
    else:
        writer.writerow(cells)
