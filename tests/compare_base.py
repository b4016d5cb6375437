"""Run the same studies on another commit and on this tree, and compare
their data CSVs.

    python tests/compare_base.py REV

Data CSVs stay byte-identical for the same config and seeds, so a change
that moves one must say so. This script extracts REV's `src/` with
`git archive` into a temporary directory, builds two inputs once with this
tree's `perfbench/gen_input.py` (a 1,498-row LINCS-layout CSV and the
benchmark's seed-7 CSV), and runs 14 studies on each tree, each in a fresh
interpreter as `PYTHONPATH=<tree>/src python -m alsal.cli ...`: 12 that
cover every kind of row, concentration means included, and the
benchmark's two workloads with the argv of `perfbench/run.py`. It prints one line per data CSV,

    study/file base <sha256|missing> head <sha256|missing>

and a GitHub Actions `::warning::` line for each CSV that differs and each
study that fails. It exits 0 only when every CSV matches. The digests hold
for one machine and one BLAS kernel, so compare on one host.
"""

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

HEAD = Path(__file__).resolve().parent.parent
# the benchmark's input, config and argv, imported rather than copied so
# that the workloads compared here stay the ones the benchmark runs
sys.path.insert(0, str(HEAD / "perfbench"))
import gen_input  # noqa: E402
import run as bench  # noqa: E402

CSV_NAMES = ("cv_summary.csv", "training_curves.csv", "learning_curves.csv")
CONFIGS = {
    # ALSDL first, and its stage 1 shorter than the als model's run, so the
    # als model resumes from ALSDL's 20 epochs
    "resume": {"als": {"epochs": 30}, "alsdl": {"als": {"epochs": 20}}},
    # one diverged row each: the als model at epoch 3, ALSDL's network at
    # its first epoch (20, after 20 ALS epochs), and an AL study's ELM
    # retrains
    "als-diverges": {"als": {"learning_rate": 100.0}},
    "mlp-diverges": {"alsdl": {"mlp_train": {"rmsprop_learning_rate": 1e308}}},
    "elm-diverges": {
        "alsdl": {"als": {"d": 2, "epochs": 2, "learning_rate": 100.0},
                  "mlp_train": {"epochs": 10}, "hidden_sizes": [6, 3]},
        "active": {"n_init": 10, "n_per_query": 3, "n_max_query": 2,
                   "elm_inner_epochs": 200}},
}
SMALL = ("--synthetic", "8,7,2,0.1", "--folds", "3")
EPOCHS = ("--als-epochs", "20", "--mlp-epochs", "20")
AL_SMALL = ("--strategy", "orderly,random,uncertainty,elm", "--n-init", "6",
            "--n-per-query", "3", "--n-max-query", "2", "--als-epochs", "10",
            "--mlp-epochs", "10", "--elm-inner-epochs", "10",
            "--elm-candidate-subsample", "4")


def studies(work, out):
    """{study: alsal argv} of every study compared, with inputs and configs
    under work and each study's output under out."""
    config = {name: str(work / f"{name}.json") for name in CONFIGS}
    compare_csv = str(work / "compare.csv")
    argv = {
        "benchmark": ["benchmark", *SMALL, *EPOCHS],
        # 70 epochs fill two 32-epoch history blocks and end mid-block
        "benchmark-blocks": ["benchmark", *SMALL, "--als-epochs", "70",
                             "--mlp-epochs", "70"],
        "benchmark-resume": ["benchmark", *SMALL, "--models", "alsdl,als",
                             "--mlp-epochs", "20", "--config",
                             config["resume"]],
        **{f"benchmark-{kind}-diverges": [
            "benchmark", *SMALL, *EPOCHS, "--config",
            config[f"{kind}-diverges"]] for kind in ("als", "mlp")},
        "al-study": ["al-study", "--synthetic", "6,6,2,0.1", *AL_SMALL],
        # 30 ELM candidates on a 35 x 34 matrix train in chunks of 24 and 6,
        # so the shorter last chunk's views are compared too
        "al-study-elm-chunks": [
            "al-study", "--synthetic", "35,34,5,0.1", "--strategy", "elm",
            "--n-init", "40", "--n-per-query", "10", "--n-max-query", "2",
            "--als-epochs", "10", "--mlp-epochs", "10", "--elm-inner-epochs",
            "10", "--elm-candidate-subsample", "30"],
        "al-study-elm-diverges": ["al-study", "--synthetic", "6,6,2,0",
                                  "--strategy", "elm", "--config",
                                  config["elm-diverges"]],
        "benchmark-dataset": ["benchmark", "--dataset", compare_csv,
                              "--folds", "3", *EPOCHS,
                              "--concentrations", "1.0"],
        "al-study-dataset": ["al-study", "--dataset", compare_csv, *AL_SMALL,
                             "--concentrations", "1.0"],
        # the same two at two doses, so that mean rows are compared too
        "benchmark-means": ["benchmark", "--dataset", compare_csv,
                            "--folds", "3", *EPOCHS,
                            "--concentrations", "1.0,2.0"],
        "al-study-means": ["al-study", "--dataset", compare_csv, *AL_SMALL,
                           "--concentrations", "1.0,2.0"],
    }
    argv = {name: [*args, "--out", str(out / name)]
            for name, args in argv.items()}
    for workload in bench.WORKLOADS:
        argv[workload] = bench.study_argv(workload, work / "bench.csv",
                                          work / "bench.json", out / workload,
                                          smoke=False)
    return argv


def write_inputs(work):
    """The input CSVs and config files that studies(work, ...) reads."""
    # 6 cells x 5 molecules at 50 doses, 0.1 to 5.0, 2 pairs unmeasured at
    # 0.1: ingest and matrix building over several of parse_dataset's
    # 256-row blocks; the studies keep to 1.0, or to 1.0 and 2.0
    gen_input.generate(work / "compare.csv", 0, n_cells=6, n_molecules=5,
                       rank=2, concentrations=tuple(round(0.1 * k, 1)
                                                    for k in range(1, 51)),
                       partial=(0.1,), missing_per_conc=2)
    gen_input.generate(work / "bench.csv", 7)
    for name, raw in {**CONFIGS, "bench": bench.STUDY_CONFIG}.items():
        (work / f"{name}.json").write_text(json.dumps(raw), encoding="utf-8")


def run_side(side, tree, argv):
    """Run each study on tree; returns the number that failed."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    failed = 0
    start = time.perf_counter()
    for name, args in argv.items():
        proc = subprocess.run([sys.executable, "-m", "alsal.cli", *args],
                              cwd=tree, env=env, capture_output=True,
                              text=True)
        if proc.returncode != 0:
            failed += 1
            last = (proc.stderr.strip().splitlines() or ["no output"])[-1]
            print(f"::warning::study {name} failed on the {side} commit: "
                  f"{last}")
    print(f"{side}: {len(argv)} studies in "
          f"{time.perf_counter() - start:.1f} s", file=sys.stderr)
    return failed


def digest(path):
    if not path.is_file():
        return "missing"
    return hashlib.sha256(path.read_bytes()).hexdigest()


def report(base, head, names):
    """Print each study's data CSV digests under the two output directories,
    and a warning per difference; returns 1 if any differs, else 0."""
    total, differ = len(names) * len(CSV_NAMES), 0
    for name in names:
        for csv_name in CSV_NAMES:
            a, b = (digest(side / name / csv_name) for side in (base, head))
            print(f"{name}/{csv_name} base {a} head {b}")
            if a != b:
                differ += 1
                print(f"::warning::{name}/{csv_name} differs from the base "
                      "commit; a change to the data CSVs must be called out")
    print(f"{total - differ} of {total} data CSVs equal")
    return int(differ > 0)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("rev", help="the commit to compare against, such as HEAD "
                   "or a pull request's base")
    rev = p.parse_args(argv).rev
    with tempfile.TemporaryDirectory(prefix="compare-base-") as tmp:
        work = Path(tmp)
        archive = subprocess.run(["git", "-C", str(HEAD), "archive", rev,
                                  "src"], capture_output=True)
        if archive.returncode != 0:
            print(f"compare_base: cannot archive {rev!r}: "
                  f"{archive.stderr.decode().strip()}", file=sys.stderr)
            return 1
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(work / "base", filter="data")
        write_inputs(work)
        outs = {side: work / f"out-{side}" for side in ("base", "head")}
        runs = {side: studies(work, out) for side, out in outs.items()}
        failed = (run_side("base", work / "base", runs["base"])
                  + run_side("head", HEAD, runs["head"]))
        return max(report(outs["base"], outs["head"], runs["head"]),
                   int(failed > 0))


if __name__ == "__main__":
    raise SystemExit(main())
