"""Checked, allocating references that the package's scoring and ALS
divergence are pinned against.

`rmse` and `boundary_accuracy` check and convert their inputs on every
call and score one set of predictions; `metrics.Scorer` must give their
values with ==. `als_rmse` scores a trained factor model the way an
unsplit run, which returns no curve, would score its training set.
`stepped_als` trains an unsplit ALS run one checked epoch at a time,
sharing no divergence logic with `train_als`. `sign_penalty`,
`penalized_loss` and `surrogate_objective` evaluate the network's
training objective: the exact sign-penalty form and the smooth tanh form
whose gradient `mlp.backward` takes, which the finite-difference
gradient checks difference. `parse_observations`,
`common_concentrations` and `response_matrix` ingest the CSV one Python
object per row; the columnar `data.parse_dataset`,
`select_common_concentrations` and `build_response_matrix` must give
their concentrations, matrices, row and column order and errors.
"""

import csv
from dataclasses import dataclass
import math

import numpy as np

import alsal.als as als_mod
from alsal.als import (DivergenceError, EmbeddingPair, EpochWork,
                       init_embeddings)
from alsal.data import DEFAULT_COLUMNS, DataError, MaskedMatrix
from alsal.metrics import MetricError, residual_rmse


def check_pair(preds, truths):
    preds = np.asarray(preds, dtype=float)
    truths = np.asarray(truths, dtype=float)
    if preds.shape != truths.shape:
        raise MetricError(f"length mismatch: {preds.shape} vs {truths.shape}")
    if preds.size == 0:
        raise MetricError("empty input")
    return preds, truths


def rmse(preds, truths):
    preds, truths = check_pair(preds, truths)
    resid = preds - truths
    return residual_rmse(resid, out=resid)


def als_rmse(matrix, emb):
    """RMSE of the factor model emb over the matrix's observed positions,
    which an unsplit training run trains on: its final train RMSE."""
    positions = matrix.observed_positions()
    return rmse((emb.x @ emb.w).ravel()[positions],
                matrix.values.ravel()[positions])


def boundary_accuracy(preds, truths, boundary=0.0):
    """Fraction of pairs on the same side of the boundary.

    sign(0) = 0: a prediction exactly on the boundary matches only a truth
    exactly on the boundary.
    """
    preds, truths = check_pair(preds, truths)
    same = np.sign(preds - boundary) == np.sign(truths - boundary)
    # equal to np.mean(same): the count is exact, and so is its division
    return float(np.count_nonzero(same) / same.size)


def sign_penalty(pred, truth, boundaries):
    """+1 if pred and truth share an inter-boundary interval, -1 if any
    boundary strictly separates them, 0 on an exact boundary hit;
    elementwise on arrays (float result), an int for scalars."""
    s = sum(np.sign((pred - c) * (truth - c)) for c in boundaries)
    penalty = np.sign(s - len(boundaries) + 1)
    return int(penalty) if penalty.ndim == 0 else penalty


def penalized_loss(preds, truths, cfg):
    """RMSE minus beta times the mean sign penalty (exact, non-smooth form)."""
    preds = np.asarray(preds, dtype=float)
    truths = np.asarray(truths, dtype=float)
    # the mean of +-1/0 values is exact in float64, in any summation order
    return rmse(preds, truths) - cfg.beta * float(
        np.mean(sign_penalty(preds, truths, cfg.boundaries)))


def surrogate_objective(preds, truths, cfg):
    """The differentiable objective optimized when the smooth surrogate is
    on: the sign penalty is replaced per boundary by
    tanh(kappa * (pred - c) * (truth - c)), averaged over boundaries."""
    preds = np.asarray(preds, dtype=float)
    truths = np.asarray(truths, dtype=float)
    loss = rmse(preds, truths)
    if cfg.beta == 0:
        return loss
    kappa = cfg.surrogate_sharpness
    pen = np.mean([np.mean(np.tanh(kappa * (preds - c) * (truths - c)))
                   for c in cfg.boundaries])
    return loss - cfg.beta * float(pen)


def stepped_als(matrix, cfg, start_epoch=0, emb=None):
    """An unsplit ALS run stepped by hand, one `als_epoch` at a time from a
    copy of emb (the config's init when None), with a finiteness check
    after every step: raises DivergenceError at the first epoch that
    leaves x or w non-finite, else returns the embeddings."""
    if emb is None:
        emb = init_embeddings(*matrix.shape, cfg)
    emb = EmbeddingPair(emb.x.copy(), emb.w.copy())
    work = EpochWork.like(emb)
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(start_epoch, cfg.epochs):
            als_mod.als_epoch(matrix, emb, cfg.learning_rate,
                              cfg.simultaneous_updates, work)
            if not (np.isfinite(emb.x).all() and np.isfinite(emb.w).all()):
                raise DivergenceError(epoch)
    return emb


@dataclass(frozen=True)
class Observation:
    cell_id: str
    molecule_id: str
    concentration: float
    gr: float
    ifd: float

    def __post_init__(self):
        if not self.concentration > 0:
            raise DataError(f"concentration must be > 0, got {self.concentration}")
        if not (math.isfinite(self.gr) and math.isfinite(self.ifd)):
            raise DataError("gr and ifd must be finite")


def parse_observations(csv_stream, columns=None):
    """The sensitivity CSV as a list of Observations, one per data row."""
    colmap = dict(DEFAULT_COLUMNS)
    if columns:
        colmap.update(columns)
    reader = csv.DictReader(csv_stream)
    if reader.fieldnames is None:
        raise DataError("empty file: no header row")
    missing = [v for v in colmap.values() if v not in reader.fieldnames]
    if missing:
        raise DataError(f"missing required columns: {missing}")

    out = []
    for rownum, row in enumerate(reader, start=2):
        try:
            conc = float(row[colmap["concentration"]])
            gr = float(row[colmap["gr"]])
            ifd = float(row[colmap["ifd"]])
        except ValueError as e:
            raise DataError(f"row {rownum}: malformed numeric ({e})") from e
        out.append(Observation(
            cell_id=row[colmap["cell_id"]],
            molecule_id=row[colmap["molecule_id"]],
            concentration=conc,
            gr=gr,
            ifd=ifd,
        ))
    return out


def common_concentrations(obs):
    """Concentrations, grouped by float value, at which every (cell,
    molecule) pair of obs has a measurement."""
    if not obs:
        raise DataError("empty observation list")
    pair_ids, ids_at = {}, {}
    for o in obs:
        pair = pair_ids.setdefault((o.cell_id, o.molecule_id), len(pair_ids))
        ids_at.setdefault(float(o.concentration), set()).add(pair)
    return {c for c, ids in ids_at.items() if len(ids) == len(pair_ids)}


def response_matrix(obs, target, concentration):
    """Masked matrix for one target at one concentration, written row by
    row (a duplicate must equal the value already written, and replaces
    it), with its sorted row and column labels: (matrix, cells, mols)."""
    if target not in ("gr", "ifd"):
        raise DataError(f"unknown target {target!r}")
    key = float(concentration)
    subset = [o for o in obs if float(o.concentration) == key]
    if not subset:
        raise DataError(f"no observations at concentration {concentration}")
    all_pairs = {(o.cell_id, o.molecule_id) for o in obs}
    have_pairs = {(o.cell_id, o.molecule_id) for o in subset}
    if have_pairs != all_pairs:
        raise DataError(f"concentration {concentration} is not fully covered")

    cells = sorted({o.cell_id for o in subset})
    mols = sorted({o.molecule_id for o in subset})
    row = {c: i for i, c in enumerate(cells)}
    col = {m: j for j, m in enumerate(mols)}

    values = np.zeros((len(cells), len(mols)))
    mask = np.zeros_like(values)
    for o in subset:
        v = o.gr - 1.0 if target == "gr" else o.ifd
        i, j = row[o.cell_id], col[o.molecule_id]
        if mask[i, j] == 1 and values[i, j] != v:
            raise DataError(
                f"conflicting duplicate for ({o.cell_id}, {o.molecule_id}, {concentration})")
        values[i, j] = v
        mask[i, j] = 1.0
    return MaskedMatrix(values, mask), cells, mols
