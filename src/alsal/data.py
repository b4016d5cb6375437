"""Dataset ingestion and masked response-matrix construction.

Handles the drug-sensitivity CSV (cell x molecule x concentration triples
with GR and IFD responses), read in one streamed pass of row blocks
into a columnar Dataset, restriction to fully-covered concentrations,
and synthetic low-rank ground truth for property tests.

A position, here and in every module, is a flat row-major index into an
m x n matrix: entry (i, j) is position i * n + j, held as a 1-D np.intp
array. as_positions is the one place that checks this form.
"""

import csv
from dataclasses import dataclass
import math
from itertools import islice
from operator import itemgetter

import numpy as np

DEFAULT_COLUMNS = {
    "cell_id": "Cell HMS LINCS ID",
    "molecule_id": "Small Molecule HMS LINCS ID",
    "concentration": "Small Mol Concentration (uM)",
    "gr": "Mean Normalized Growth Rate Inhibition Value",
    "ifd": "Increased Fraction Dead",
}
# the response columns a matrix can be built from
TARGETS = ("gr", "ifd")

# the target and concentration tag of a synthetic matrix's report rows
TARGET_SYNTHETIC = "synthetic"

# data rows parse_dataset holds as Python objects at once
_BLOCK_ROWS = 256


class DataError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class Dataset:
    """The sensitivity CSV as columns, one entry per data row.

    cell and molecule hold each row's index into the sorted cell_ids and
    molecule_ids; concentration, gr and ifd are float64.
    """

    cell_ids: list
    molecule_ids: list
    cell: np.ndarray
    molecule: np.ndarray
    concentration: np.ndarray
    gr: np.ndarray
    ifd: np.ndarray

    def __len__(self):
        return self.concentration.size

    def pairs(self):
        """Each row's (cell, molecule) as a position of the m x n matrix."""
        return self.cell * len(self.molecule_ids) + self.molecule


@dataclass(frozen=True)
class EmbeddingPair:
    x: np.ndarray  # m x d, or stacked: ... x m x d
    w: np.ndarray  # d x n, or stacked: ... x d x n

    @property
    def d(self):
        return self.x.shape[-1]


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


@dataclass(frozen=True, eq=False)
class MaskedMatrix:
    """Response values with a 0-1 observation mask: one m x n problem, or
    a stack of them whose leading axes are batch axes, (..., m, n) each.

    Rows are cells and columns molecules; a matrix built from a Dataset
    has its sorted cell_ids and molecule_ids in that order.
    observed_positions and with_mask take one problem. Frozen, so that
    values and mask are never replaced unchecked. A value must be finite
    where observed; a non-finite one where unobserved is stored as 0.0, in
    a copy, since training reads every value ((x @ w - nan) * 0 is nan).
    """

    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        mask = np.asarray(self.mask, dtype=float)
        if values.ndim < 2 or mask.shape != values.shape:
            raise DataError(f"values {values.shape} and mask {mask.shape} "
                            "must share one shape (..., m, n)")
        if not np.all((mask == 0) | (mask == 1)):
            raise DataError("mask entries must be 0 or 1")
        finite = np.isfinite(values)
        if not finite.all():
            if mask[~finite].any():
                raise DataError("non-finite value at an observed position")
            values = np.where(finite, values, 0.0)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mask", mask)

    @property
    def shape(self):
        """One problem's (m, n)."""
        return self.values.shape[-2:]

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
        return MaskedMatrix(self.values.copy(), mask.reshape(self.shape))


def parse_dataset(csv_stream, columns=None):
    """Parse the sensitivity CSV into a Dataset in one streamed pass.

    `columns` maps the logical names (cell_id, molecule_id, concentration,
    gr, ifd) to actual header names; defaults follow the LINCS export.
    Blank lines are skipped, and errors number the rows that are left,
    the header being row 1. Rows are read _BLOCK_ROWS at a time, so that
    one block of row objects is alive at once beside the columns.
    """
    colmap = dict(DEFAULT_COLUMNS)
    if columns:
        colmap.update(columns)
    reader = csv.reader(csv_stream)
    header = next(reader, None)
    if header is None:
        raise DataError("empty file: no header row")
    missing = [v for v in colmap.values() if v not in header]
    if missing:
        raise DataError(f"missing required columns: {missing}")
    # a repeated header name reads its last column, as csv.DictReader does
    where = {name: k for k, name in enumerate(header)}
    cell_k, mol_k, *number_k = (where[colmap[key]] for key in DEFAULT_COLUMNS)
    rows = filter(None, reader)  # a blank line reads as []

    # ids get codes in first-seen order; one remap sorts them at the end
    cell_codes, mol_codes = {}, {}
    # (cell, molecule, concentration, gr, ifd) per block; the empty first
    # one gives the columns their dtypes when there are no data rows
    blocks = [(np.empty(0, np.intp),) * 2 + (np.empty(0),) * 3]
    done = 0  # data rows in earlier blocks
    while block := list(islice(rows, _BLOCK_ROWS)):
        numbers = _block_numbers(block, len(header), number_k)
        if numbers is None:
            _raise_first_bad_row(block, done + 2, len(header), number_k)
        blocks.append((_first_seen_codes(block, cell_k, cell_codes),
                       _first_seen_codes(block, mol_k, mol_codes), *numbers))
        done += len(block)
    cell_ids, cell_rank = _sorted_ranks(cell_codes)
    molecule_ids, mol_rank = _sorted_ranks(mol_codes)
    cell, molecule, *numbers = map(np.concatenate, zip(*blocks))
    return Dataset(cell_ids, molecule_ids, cell_rank[cell],
                   mol_rank[molecule], *numbers)


def _block_numbers(block, width, number_k):
    """The block's concentration, gr and ifd columns, or None if a row is
    short, malformed or fails a check."""
    if min(map(len, block)) < width:
        return None
    try:
        numbers = [np.fromiter(map(float, map(itemgetter(k), block)), float,
                               len(block)) for k in number_k]
    except ValueError:
        return None
    return numbers if _valid_numbers(*numbers) else None


def _valid_numbers(concentration, gr, ifd):
    return bool((concentration > 0).all() and np.isfinite(concentration).all()
                and np.isfinite(gr).all() and np.isfinite(ifd).all())


def _raise_first_bad_row(rows, first_rownum, width, number_k):
    """Raise the DataError of the first row, in file order, that is short
    or whose concentration, gr or ifd fails a check; rows[0] is row
    first_rownum of the file."""
    for rownum, row in enumerate(rows, start=first_rownum):
        if len(row) < width:
            raise DataError(f"row {rownum}: {len(row)} fields, but the header "
                            f"has {width}")
        try:
            conc, gr, ifd = (float(row[k]) for k in number_k)
        except ValueError as e:
            raise DataError(f"row {rownum}: malformed numeric ({e})") from e
        if not conc > 0:
            raise DataError(f"row {rownum}: concentration must be > 0, "
                            f"got {conc}")
        for name, value in (("concentration", conc), ("gr", gr), ("ifd", ifd)):
            if not math.isfinite(value):
                raise DataError(f"row {rownum}: {name} must be finite, "
                                f"got {value}")


def _first_seen_codes(block, k, codes):
    """Each row's code for its column-k id, as an intp array; an id not in
    `codes` yet gets the next code there."""
    ids = [row[k] for row in block]
    for name in dict.fromkeys(ids):
        codes.setdefault(name, len(codes))
    return np.fromiter(map(codes.__getitem__, ids), np.intp, len(ids))


def _sorted_ranks(codes):
    """(the ids of `codes`, sorted; each code's index into them)."""
    distinct = sorted(codes)
    rank = np.empty(len(codes), dtype=np.intp)
    rank[[codes[name] for name in distinct]] = np.arange(len(distinct))
    return distinct, rank


def select_common_concentrations(table):
    """Concentrations at which every (cell, molecule) pair has a measurement,
    as floats. Concentrations are grouped by float value, here and in
    build_response_matrix: spellings of one float ("0.1", "0.10") are one
    concentration, and two distinct floats are two, however close."""
    if not len(table):
        raise DataError("empty observation list")
    pairs = table.pairs()
    # measured pairs as marks on the m x n positions: the table's, then
    # each concentration's in turn
    measured = np.zeros(len(table.cell_ids) * len(table.molecule_ids), bool)
    measured[pairs] = True
    n_pairs = np.count_nonzero(measured)
    # a sorted copy, not np.unique: without return arrays that imports
    # numpy.ma, about 1 MB
    concs = np.sort(table.concentration)
    covered = set()
    for conc in concs[np.diff(concs, prepend=np.nan) != 0].tolist():
        measured[:] = False
        measured[pairs[table.concentration == conc]] = True
        if np.count_nonzero(measured) == n_pairs:
            covered.add(conc)
    return covered


def build_response_matrix(table, target, concentration):
    """Masked m x n matrix for one target at one concentration.

    Rows are cells, columns molecules, both sorted by id. GR values are
    stored minus 1 so the classification boundary is 0. Duplicate rows
    must agree (==); the matrix holds the last of them.
    """
    if target not in TARGETS:
        raise DataError(f"unknown target {target!r}")
    rows = np.flatnonzero(table.concentration == float(concentration))
    if not rows.size:
        raise DataError(f"no observations at concentration {concentration}")
    m, n = len(table.cell_ids), len(table.molecule_ids)
    pairs = table.pairs()
    at = pairs[rows]
    mask = np.zeros(m * n)
    mask[at] = 1.0
    if not mask[pairs].all():
        raise DataError(f"concentration {concentration} is not fully covered")

    v = table.gr[rows] - 1.0 if target == "gr" else table.ifd[rows]
    _, first, group = np.unique(at, return_index=True, return_inverse=True)
    conflict = np.flatnonzero(v != v[first[group]])
    if conflict.size:
        i, j = divmod(int(at[conflict[0]]), n)
        raise DataError(f"conflicting duplicate for ({table.cell_ids[i]}, "
                        f"{table.molecule_ids[j]}, {concentration})")
    _, last = np.unique(at[::-1], return_index=True)
    last = at.size - 1 - last
    values = np.zeros(m * n)
    values[at[last]] = v[last]
    return MaskedMatrix(values.reshape(m, n), mask.reshape(m, n))


def generate_synthetic(m, n, rank, noise_sd, seed):
    """Seeded low-rank ground truth: (fully observed matrix, true factors)."""
    if rank < 1:
        raise DataError(f"rank must be >= 1, got {rank}")
    if rank > min(m, n):
        raise DataError(f"rank {rank} exceeds min(m, n) = {min(m, n)}")
    if not noise_sd >= 0:  # NaN too
        raise DataError(f"noise_sd must be >= 0, got {noise_sd}")
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(m, rank))
    w = rng.uniform(-1.0, 1.0, size=(rank, n))
    values = x @ w
    if noise_sd > 0:
        values = values + rng.normal(0.0, noise_sd, size=(m, n))
    return MaskedMatrix(values, np.ones((m, n))), EmbeddingPair(x=x, w=w)
