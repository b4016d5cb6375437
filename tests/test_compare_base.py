"""tests/compare_base.py without git or a study run: report's digest lines,
warnings and exit code on two directories of study outputs, and the
argv of the studies it runs."""

import hashlib

from alsal.cli import build_parser
from alsal.data import build_response_matrix, parse_dataset
from compare_base import (CSV_NAMES, UNMEASURED_PAIR, report, studies,
                          write_inputs)

STUDIES = ("benchmark", "al-study")


def outputs(root):
    """Each study's three data CSVs under root, each with its own text."""
    for study in STUDIES:
        (root / study).mkdir(parents=True)
        for name in CSV_NAMES:
            (root / study / name).write_text(f"{study},{name}\r\n")
    return root


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_equal_directories(tmp_path, capsys):
    base, head = outputs(tmp_path / "base"), outputs(tmp_path / "head")
    assert report(base, head, STUDIES) == 0
    lines = capsys.readouterr().out.splitlines()
    digest = sha256(base / "al-study" / "cv_summary.csv")
    assert lines[3] == f"al-study/cv_summary.csv base {digest} head {digest}"
    assert len(lines) == 7 and lines[-1] == "6 of 6 data CSVs equal"
    assert not any(line.startswith("::warning::") for line in lines)


def test_changed_byte_and_missing_csv(tmp_path, capsys):
    base, head = outputs(tmp_path / "base"), outputs(tmp_path / "head")
    changed = head / "benchmark" / "training_curves.csv"
    changed.write_bytes(changed.read_bytes().replace(b"b", b"c", 1))
    (head / "al-study" / "learning_curves.csv").unlink()
    assert report(base, head, STUDIES) == 1
    lines = capsys.readouterr().out.splitlines()
    assert (f"benchmark/training_curves.csv base "
            f"{sha256(base / 'benchmark' / 'training_curves.csv')} head "
            f"{sha256(changed)}") in lines
    assert (f"al-study/learning_curves.csv base "
            f"{sha256(base / 'al-study' / 'learning_curves.csv')} head "
            "missing") in lines
    assert [line for line in lines if line.startswith("::warning::")] == [
        f"::warning::{name} differs from the base commit; a change to the "
        "data CSVs must be called out"
        for name in ("benchmark/training_curves.csv",
                     "al-study/learning_curves.csv")]
    assert lines[-1] == "4 of 6 data CSVs equal"


def test_every_study_parses_with_its_own_output(tmp_path):
    """The 17 studies, the benchmark's two workloads, three studies of
    concentration means (one of them with a key diverged at both), one on
    an unmeasured pair and one of another network among them, are argv
    that this tree's CLI accepts, each writing its own directory."""
    argv = studies(tmp_path, tmp_path / "out")
    assert len(argv) == 17
    assert {"cv-history", "al-elm", "benchmark-means", "al-study-means",
            "benchmark-means-diverges", "al-study-unmeasured",
            "benchmark-net-variant"} <= argv.keys()
    for name in ("benchmark-means", "al-study-means",
                 "benchmark-means-diverges"):
        assert build_parser().parse_args(argv[name]).concentrations \
            == (1.0, 2.0)
    assert {build_parser().parse_args(args).out for args in argv.values()} \
        == {str(tmp_path / "out" / name) for name in argv}


def test_unmeasured_pair_input(tmp_path):
    """compare-unmeasured.csv is compare.csv without one (cell, molecule)
    pair's rows, so the studied dose leaves exactly that position
    unobserved."""
    write_inputs(tmp_path)
    rows = (tmp_path / "compare.csv").read_text(encoding="utf-8")
    kept = (tmp_path / "compare-unmeasured.csv").read_text(encoding="utf-8")
    assert kept.splitlines() == [row for row in rows.splitlines()
                                 if not row.startswith(UNMEASURED_PAIR)]
    assert len(kept) < len(rows)
    with open(tmp_path / "compare-unmeasured.csv", encoding="utf-8") as f:
        mask = build_response_matrix(parse_dataset(f), "gr", 1.0).mask
    assert mask.shape == (6, 5) and mask.sum() == 29 and mask[2, 3] == 0
