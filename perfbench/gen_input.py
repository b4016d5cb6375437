"""Seeded LINCS-layout drug-sensitivity CSV for the benchmark workloads.

The file has the real corpus's shape: cells x molecules x concentrations,
one row per measured triple. Responses come from a low-rank model plus
Gaussian noise and straddle each target's decision boundary (GR = 1, which
alsal stores as 0 after its shift, and IFD = 0). A fixed number of pairs is
left unmeasured at a few concentrations, so that concentration selection
has to drop them; which pairs are missing depends on the seed, the amount
of work does not.
"""

import csv

import numpy as np

HEADER = ["Cell HMS LINCS ID", "Small Molecule HMS LINCS ID",
          "Small Mol Concentration (uM)",
          "Mean Normalized Growth Rate Inhibition Value",
          "Increased Fraction Dead"]

# LINCS-style half-log dose ladder (uM).
CONCENTRATIONS = (0.00316, 0.01, 0.0316, 0.1, 0.316, 1.0, 3.16, 10.0, 31.6)
# Doses at which `missing_per_conc` pairs go unmeasured.
PARTIAL = (0.00316, 3.16, 31.6)
# The fully covered dose every workload studies.
STUDY_CONCENTRATION = 1.0


def _low_rank(rng, m, n, rank, rms):
    """Random rank-`rank` matrix with a fixed singular spectrum.

    Only the singular vectors depend on the seed, so every seed gives a
    problem of the same difficulty and the quality metrics stay comparable
    across seeds.
    """
    u, _ = np.linalg.qr(rng.normal(size=(m, rank)))
    v, _ = np.linalg.qr(rng.normal(size=(n, rank)))
    s = np.linspace(2.0, 1.0, rank)
    s *= rms * np.sqrt(m * n) / np.linalg.norm(s)
    return (u * s) @ v.T


def generate(path, seed, n_cells=35, n_molecules=34, rank=5, noise_sd=0.1,
             concentrations=CONCENTRATIONS, partial=PARTIAL,
             missing_per_conc=12):
    """Write the CSV to `path`; return what ingestion should find in it."""
    rng = np.random.default_rng(seed)
    base_gr = _low_rank(rng, n_cells, n_molecules, rank, 0.3)
    base_ifd = _low_rank(rng, n_cells, n_molecules, rank, 0.3)
    cells = [f"C{i:03d}" for i in range(n_cells)]
    mols = [f"M{j:03d}" for j in range(n_molecules)]
    n_pairs = n_cells * n_molecules
    rows = 0
    with open(path, "w", newline="", encoding="utf-8") as f:
        out = csv.writer(f, lineterminator="\n")
        out.writerow(HEADER)
        for k, c in enumerate(concentrations):
            # higher doses lower growth and raise death; the centring keeps
            # both classes present at every dose
            shift = 0.15 * (len(concentrations) // 2 - k) / len(concentrations)
            gr = (1.0 + shift + base_gr
                  + rng.normal(0.0, noise_sd, size=base_gr.shape))
            ifd = np.clip(-shift + base_ifd
                          + rng.normal(0.0, noise_sd, size=base_ifd.shape),
                          -1.0, 1.0)
            skip = set()
            if c in partial:
                skip = set(rng.choice(n_pairs, size=missing_per_conc,
                                      replace=False).tolist())
            for p in range(n_pairs):
                if p in skip:
                    continue
                i, j = divmod(p, n_molecules)
                out.writerow([cells[i], mols[j], repr(c),
                              f"{gr[i, j]:.6f}", f"{ifd[i, j]:.6f}"])
                rows += 1
    full = sorted(c for c in concentrations
                  if c not in partial or not missing_per_conc)
    return {"rows": rows, "pairs": n_pairs, "fully_covered": full}
