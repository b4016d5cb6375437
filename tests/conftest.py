import io

import numpy as np
import pytest

from alsal.data import parse_dataset

CSV_HEADER = ("Cell HMS LINCS ID,Small Molecule HMS LINCS ID,"
              "Small Mol Concentration (uM),"
              "Mean Normalized Growth Rate Inhibition Value,"
              "Increased Fraction Dead\n")


def csv_stream(rows):
    return io.StringIO(CSV_HEADER + "".join(rows))


def parse_rows(rows):
    """The Dataset of CSV data rows under the default header."""
    return parse_dataset(csv_stream(rows))


def grid_rows(cells, molecules, concentrations, value_fn=None):
    """CSV data rows of a fully-covered grid: gr = value_fn(i, j, c) and
    ifd = gr / 10, written so that they parse back to the same floats."""
    if value_fn is None:
        value_fn = lambda i, j, c: 1.0 + 0.1 * i - 0.05 * j + 0.01 * c
    out = []
    for i, cell in enumerate(cells):
        for j, mol in enumerate(molecules):
            for c in concentrations:
                gr = value_fn(i, j, c)
                out.append(f"{cell},{mol},{c!r},{gr!r},{gr / 10.0!r}\n")
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def dataset_shaped_csv():
    """CSV shaped like the real corpus: 35 cells x 34 molecules, 9 doses per
    pair of which exactly 4 are shared by every pair (10710 rows total)."""
    common = [0.01, 0.1, 1.0, 10.0]
    rows = []
    rng = np.random.default_rng(7)
    for i in range(35):
        for j in range(34):
            extras = [round(0.02 + 0.001 * ((i * 34 + j) % 50) + k, 6)
                      for k in range(5)]
            for c in common + extras:
                gr = round(float(rng.uniform(0.2, 1.8)), 6)
                ifd = round(float(rng.uniform(-0.2, 0.6)), 6)
                rows.append(f"C{i:03d},M{j:03d},{c},{gr},{ifd}\n")
    return csv_stream(rows)
