"""Dataset ingestion and masked response-matrix construction.

Handles the drug-sensitivity CSV (cell x molecule x concentration triples
with GR and IFD responses), restriction to fully-covered concentrations,
and synthetic low-rank ground truth for property tests.

A position, here and in every module, is a flat row-major index into an
m x n matrix: entry (i, j) is position i * n + j, held as a 1-D np.intp
array. as_positions is the one place that checks this form.
"""

import csv
from dataclasses import dataclass
import math

import numpy as np

DEFAULT_COLUMNS = {
    "cell_id": "Cell HMS LINCS ID",
    "molecule_id": "Small Molecule HMS LINCS ID",
    "concentration": "Small Mol Concentration (uM)",
    "gr": "Mean Normalized Growth Rate Inhibition Value",
    "ifd": "Increased Fraction Dead",
}

# Target tags. GR is stored shifted by 1 at ingestion so the decision
# boundary is 0 for both targets.
TARGET_GR = "gr_shifted"
TARGET_IFD = "ifd"
TARGET_SYNTHETIC = "synthetic"


class DataError(ValueError):
    pass


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


def as_positions(positions, size):
    """Positions as a 1-D intp array of flat indices below `size`.

    Raises IndexError for non-integer dtypes, indices out of [0, size) and
    inputs that are not 1-D; an empty input gives an empty array.
    """
    pos = np.asarray(positions)
    if pos.ndim != 1:
        raise IndexError(f"positions must be 1-D, got shape {pos.shape}")
    if not pos.size:
        return np.empty(0, dtype=np.intp)
    if pos.dtype.kind not in "iu":
        raise IndexError(f"positions must be integers, got {pos.dtype}")
    if pos.min() < 0 or pos.max() >= size:
        raise IndexError(f"position out of range [0, {size})")
    return pos.astype(np.intp, copy=False)


@dataclass
class MaskedMatrix:
    """Response matrix with a 0-1 observation mask."""

    values: np.ndarray  # m x n
    mask: np.ndarray  # m x n, entries in {0, 1}
    cell_index: list
    molecule_index: list
    target: str

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.mask = np.asarray(self.mask, dtype=float)
        m, n = self.values.shape
        if self.mask.shape != (m, n):
            raise DataError("values and mask shapes differ")
        if len(self.cell_index) != m or len(self.molecule_index) != n:
            raise DataError("index lengths do not match matrix shape")
        if not np.all((self.mask == 0) | (self.mask == 1)):
            raise DataError("mask entries must be 0 or 1")
        if not np.all(np.isfinite(self.values[self.mask == 1])):
            raise DataError("non-finite value at an observed position")

    @property
    def shape(self):
        return self.values.shape

    def observed_positions(self):
        """Observed positions, ascending (row-major order)."""
        return np.flatnonzero(self.mask)

    def with_mask(self, positions):
        """Copy of this matrix observed only at the given positions."""
        flat = as_positions(positions, self.mask.size)
        unobserved = np.flatnonzero(self.mask.ravel()[flat] != 1)
        if unobserved.size:
            first = divmod(int(flat[unobserved[0]]), self.shape[1])
            raise DataError(f"position {first} is not observed")
        mask = np.zeros(self.mask.size)
        mask[flat] = 1.0
        return MaskedMatrix(self.values.copy(), mask.reshape(self.shape),
                            list(self.cell_index), list(self.molecule_index),
                            self.target)


def compute_gr(x_c, x_0, x_ctrl):
    """Normalized growth rate from live cell counts (treated, day-0, control)."""
    if x_c <= 0 or x_0 <= 0 or x_ctrl <= 0:
        raise DataError("cell counts must be positive")
    if x_ctrl == x_0:
        raise DataError("control count equals day-0 count (zero denominator)")
    return 2.0 ** (math.log2(x_c / x_0) / math.log2(x_ctrl / x_0))


def compute_ifd(fd_c, fd_ctrl):
    """Increased fraction dead: treated minus control dead fraction."""
    for v in (fd_c, fd_ctrl):
        if not 0.0 <= v <= 1.0:
            raise DataError(f"fraction dead must be in [0, 1], got {v}")
    return fd_c - fd_ctrl


def parse_dataset(csv_stream, columns=None):
    """Parse the sensitivity CSV into a list of Observations.

    `columns` maps the logical names (cell_id, molecule_id, concentration,
    gr, ifd) to actual header names; defaults follow the LINCS export.
    """
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


def select_common_concentrations(obs):
    """Concentrations at which every (cell, molecule) pair has a measurement,
    as floats. Concentrations are grouped by float value, here and in
    build_response_matrix: spellings of one float ("0.1", "0.10") are one
    concentration, and two distinct floats are two, however close."""
    if not obs:
        raise DataError("empty observation list")
    # each pair as a shared int id: sets of those take far less memory
    pair_ids, ids_at = {}, {}
    for o in obs:
        pair = pair_ids.setdefault((o.cell_id, o.molecule_id), len(pair_ids))
        ids_at.setdefault(float(o.concentration), set()).add(pair)
    return {c for c, ids in ids_at.items() if len(ids) == len(pair_ids)}


def build_response_matrix(obs, target, concentration):
    """Masked m x n matrix for one target at one concentration.

    Rows are cells, columns molecules, both sorted by id. GR values are
    stored minus 1 so the classification boundary is 0.
    """
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
    tag = TARGET_GR if target == "gr" else TARGET_IFD
    return MaskedMatrix(values, mask, cells, mols, tag)


def generate_synthetic(m, n, rank, noise_sd, seed):
    """Seeded low-rank ground truth: (fully observed matrix, true factors)."""
    if rank > min(m, n):
        raise DataError(f"rank {rank} exceeds min(m, n) = {min(m, n)}")
    if noise_sd < 0:
        raise DataError("noise_sd must be >= 0")
    from .als import EmbeddingPair  # avoid import cycle at module load

    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(m, rank))
    w = rng.uniform(-1.0, 1.0, size=(rank, n))
    values = x @ w
    if noise_sd > 0:
        values = values + rng.normal(0.0, noise_sd, size=(m, n))
    cells = [f"cell{i:03d}" for i in range(m)]
    mols = [f"mol{j:03d}" for j in range(n)]
    matrix = MaskedMatrix(values, np.ones((m, n)), cells, mols, TARGET_SYNTHETIC)
    return matrix, EmbeddingPair(x=x, w=w)
