import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from alsal.als import AlsConfig, init_embeddings
from alsal.alsdl import (AlsdlConfig, AlsdlModel, alsdl_predict_positions,
                         build_features)
from alsal.data import (DataError, MaskedMatrix, build_response_matrix,
                        generate_synthetic, parse_dataset,
                        select_common_concentrations)
from alsal.mlp import init_mlp

import alsal.data as data_mod
import oracles
from conftest import (CSV_HEADER, csv_stream, dataset_shaped_csv, grid_rows,
                      parse_rows)


class TestParseDataset:
    def test_header_only(self):
        table = parse_rows([])
        assert len(table) == 0
        assert table.cell_ids == [] and table.molecule_ids == []
        assert table.cell.dtype == np.intp and table.gr.dtype == np.float64

    def test_single_row(self):
        table = parse_rows(["c1,m1,0.01,0.8,0.05\n"])
        assert len(table) == 1
        assert (table.cell_ids, table.molecule_ids) == (["c1"], ["m1"])
        assert table.cell.tolist() == [0] and table.molecule.tolist() == [0]
        assert table.concentration.tolist() == [0.01]
        assert table.gr.tolist() == [0.8] and table.ifd.tolist() == [0.05]

    def test_columns_per_row(self):
        table = parse_rows(["zz,m2,1.0,0.8,0.05\n", "aa,m1,2.0,0.7,0.04\n",
                            "zz,m1,3.0,0.6,0.03\n"])
        assert table.cell_ids == ["aa", "zz"]
        assert table.molecule_ids == ["m1", "m2"]
        assert table.cell.dtype == np.intp and table.molecule.dtype == np.intp
        assert table.cell.tolist() == [1, 0, 1]
        assert table.molecule.tolist() == [1, 0, 0]
        assert table.concentration.tolist() == [1.0, 2.0, 3.0]
        assert table.gr.tolist() == [0.8, 0.7, 0.6]
        assert table.ifd.tolist() == [0.05, 0.04, 0.03]
        assert table.pairs().tolist() == [3, 0, 2]

    def test_missing_column(self):
        import io
        with pytest.raises(DataError, match="missing required columns"):
            parse_dataset(io.StringIO("a,b\n1,2\n"))

    def test_malformed_numeric_reports_row(self):
        stream = csv_stream(["c1,m1,0.01,0.8,0.05\n", "c1,m2,0.01,oops,0.05\n"])
        with pytest.raises(DataError, match="row 3"):
            parse_dataset(stream)

    def test_short_row_reports_row(self):
        stream = csv_stream(["C0,M0,1.0,0.9,0.1\n", "C0,M1,1.0,0.8\n",
                             "C1,M0,1.0,0.7,0.1\n"])
        with pytest.raises(DataError,
                           match="row 3: 4 fields, but the header has 5"):
            parse_dataset(stream)

    def test_short_row_with_every_required_field(self):
        import io
        stream = io.StringIO("cell,mol,conc,g,f,note\nc1,m1,1.0,1.2,0.1\n")
        with pytest.raises(DataError, match="row 2: 5 fields"):
            parse_dataset(stream, columns={
                "cell_id": "cell", "molecule_id": "mol",
                "concentration": "conc", "gr": "g", "ifd": "f"})

    @pytest.mark.parametrize("conc", ["1e400", "inf", "-1e400"])
    def test_nonfinite_concentration_reports_row(self, conc):
        stream = csv_stream(["c1,m1,0.01,0.8,0.05\n",
                             f"c1,m2,{conc},0.8,0.05\n"])
        if conc.startswith("-"):
            message = "row 3: concentration must be > 0, got -inf"
        else:
            message = "row 3: concentration must be finite, got inf"
        with pytest.raises(DataError) as e:
            parse_dataset(stream)
        assert str(e.value) == message

    def test_negative_concentration_reports_row(self):
        rows = grid_rows(["c1", "c2"], ["m1", "m2", "m3"], [1.0])
        rows[5] = "c2,m3,-1.0,0.8,0.05\n"
        with pytest.raises(DataError) as e:
            parse_rows(rows)
        assert str(e.value) == "row 7: concentration must be > 0, got -1.0"

    @pytest.mark.parametrize("row, message", [
        ("c3,m1,1.0,nan,0.05\n", "row 9: gr must be finite, got nan"),
        ("c3,m1,1.0,0.8,-inf\n", "row 9: ifd must be finite, got -inf"),
        ("c3,m1,1.0,1e999,nan\n", "row 9: gr must be finite, got inf")])
    def test_nonfinite_response_reports_row_and_column(self, row, message):
        rows = grid_rows(["c1", "c2"], ["m1", "m2", "m3", "m4"], [1.0])
        rows[7:7] = [row]
        with pytest.raises(DataError) as e:
            parse_rows(rows)
        assert str(e.value) == message

    def test_empty_file(self):
        import io
        with pytest.raises(DataError, match="empty file"):
            parse_dataset(io.StringIO(""))

    def test_custom_column_map(self):
        import io
        stream = io.StringIO("cell,mol,conc,g,f\nc1,m1,1.0,1.2,0.1\n")
        table = parse_dataset(stream, columns={
            "cell_id": "cell", "molecule_id": "mol", "concentration": "conc",
            "gr": "g", "ifd": "f"})
        assert table.gr[0] == 1.2


class TestSelectCommonConcentrations:
    def test_single_common(self):
        table = parse_rows(grid_rows(["c1", "c2"], ["m1"], [1.0]))
        assert select_common_concentrations(table) == {1.0}

    def test_coverage_broken_by_missing_pair(self):
        rows = grid_rows(["c1", "c2"], ["m1", "m2"], [2.0])
        rows = [r for r in rows if not r.startswith("c2,m2,")]
        # (c2, m2) still exists in the dataset at another concentration
        rows += grid_rows(["c2"], ["m2"], [5.0])
        assert select_common_concentrations(parse_rows(rows)) == set()

    def test_duplicate_rows_do_not_stand_in_for_a_missing_pair(self):
        rows = grid_rows(["c1", "c2"], ["m1", "m2"], [2.0])
        rows = [r for r in rows if not r.startswith("c2,m2,")]
        # (c1, m1) twice: 2.0 has a row per pair, but 3 of the 4 pairs
        rows += [rows[0]] + grid_rows(["c2"], ["m2"], [5.0])
        assert sum(",2.0," in r for r in rows) == 4
        assert select_common_concentrations(parse_rows(rows)) == set()

    def test_partial_coverage(self):
        rows = (grid_rows(["c1", "c2"], ["m1", "m2"], [1.0, 2.0])
                + grid_rows(["c1"], ["m1"], [3.0]))
        assert select_common_concentrations(parse_rows(rows)) == {1.0, 2.0}

    def test_subset_of_present_concentrations(self):
        table = parse_rows(grid_rows(["c1"], ["m1", "m2"], [0.1, 0.2, 0.3]))
        got = select_common_concentrations(table)
        assert got <= set(table.concentration.tolist())

    def test_returns_python_floats(self):
        table = parse_rows(grid_rows(["c1"], ["m1"], [0.1, 0.2]))
        assert {type(c) for c in select_common_concentrations(table)} == {float}

    def test_spellings_of_one_float_are_one_concentration(self):
        table = parse_rows(["c1,m1,0.1,0.8,0.05\n", "c2,m1,0.10,0.8,0.05\n",
                            "c1,m1,1e-1,0.8,0.05\n"])
        assert select_common_concentrations(table) == {0.1}

    def test_close_floats_stay_apart(self):
        rows = (grid_rows(["c1", "c2"], ["m1"], [0.1])
                + grid_rows(["c1"], ["m1"], [0.1000000001]))
        assert select_common_concentrations(parse_rows(rows)) == {0.1}

    def test_removing_single_observation_removes_concentration(self):
        rows = grid_rows(["c1", "c2"], ["m1"], [1.0, 2.0])
        assert select_common_concentrations(parse_rows(rows)) == {1.0, 2.0}
        without = [r for r in rows if not r.startswith("c2,m1,2.0,")]
        assert len(without) == len(rows) - 1
        assert select_common_concentrations(parse_rows(without)) == {1.0}

    def test_empty_dataset_rejected(self):
        with pytest.raises(DataError, match="empty observation list"):
            select_common_concentrations(parse_rows([]))


class TestBuildResponseMatrix:
    def test_gr_shift(self):
        table = parse_rows(grid_rows(["cellA"], ["molB"], [1.0],
                                     value_fn=lambda i, j, c: 1.0))
        mat = build_response_matrix(table, "gr", 1.0)
        assert mat.shape == (1, 1)
        assert mat.values[0, 0] == 0.0
        assert mat.mask[0, 0] == 1.0

    def test_ifd_stored_as_is(self):
        table = parse_rows(grid_rows(["cellA"], ["molB"], [1.0],
                                     value_fn=lambda i, j, c: 2.5))  # ifd = 0.25
        mat = build_response_matrix(table, "ifd", 1.0)
        assert mat.values[0, 0] == pytest.approx(0.25)

    def test_roundtrip_full_coverage(self):
        table = parse_rows(grid_rows(["c1", "c2", "c3"], ["m1", "m2"], [0.5]))
        mat = build_response_matrix(table, "gr", 0.5)
        assert np.all(mat.mask == 1.0)
        lookup = {(table.cell_ids[a], table.molecule_ids[b]): gr
                  for a, b, gr in zip(table.cell, table.molecule, table.gr)}
        assert len(lookup) == 6
        for i, cell in enumerate(table.cell_ids):
            for j, mol in enumerate(table.molecule_ids):
                assert mat.values[i, j] == pytest.approx(lookup[(cell, mol)] - 1.0)

    def test_sorted_indices(self):
        """Rows and columns follow the table's sorted cell_ids and
        molecule_ids, not the order of the file."""
        table = parse_rows(grid_rows(["zz", "aa"], ["m2", "m1"], [1.0],
                                     value_fn=lambda i, j, c: 10 * i + j))
        mat = build_response_matrix(table, "gr", 1.0)
        assert table.cell_ids == ["aa", "zz"]
        assert table.molecule_ids == ["m1", "m2"]
        # gr - 1 = 10 i + j - 1 for the i-th cell and j-th molecule written
        assert mat.values.tolist() == [[10.0, 9.0], [0.0, -1.0]]

    def test_matrices_share_no_index_list(self):
        """Two matrices of one table share no array with each other."""
        table = parse_rows(grid_rows(["c1"], ["m1"], [1.0]))
        a = build_response_matrix(table, "gr", 1.0)
        b = build_response_matrix(table, "ifd", 1.0)
        a.values[:] += 5.0
        a.mask[:] = 0.0
        assert b.values.tolist() == [[table.ifd[0]]]
        assert b.mask.tolist() == [[1.0]]

    def test_uncovered_concentration_rejected(self):
        table = parse_rows(grid_rows(["c1", "c2"], ["m1"], [1.0])
                           + grid_rows(["c1"], ["m1"], [9.0]))
        with pytest.raises(DataError, match="not fully covered"):
            build_response_matrix(table, "gr", 9.0)

    def test_absent_concentration_rejected(self):
        table = parse_rows(grid_rows(["c1"], ["m1"], [1.0]))
        with pytest.raises(DataError, match="no observations at concentration 2"):
            build_response_matrix(table, "gr", 2)

    def test_unknown_target_rejected(self):
        table = parse_rows(grid_rows(["c1"], ["m1"], [1.0]))
        with pytest.raises(DataError, match="unknown target 'synthetic'"):
            build_response_matrix(table, "synthetic", 1.0)

    @pytest.mark.parametrize("spelling", [0.1, "0.1", "0.10", "1e-1"])
    def test_spellings_of_one_float_select_one_matrix(self, spelling):
        table = parse_rows(grid_rows(["c1", "c2"], ["m1", "m2"], [0.1, 1.0]))
        mat = build_response_matrix(table, "gr", spelling)
        assert np.array_equal(mat.values,
                              build_response_matrix(table, "gr", 0.1).values)
        assert mat.mask.sum() == 4

    def test_close_floats_stay_apart(self):
        rows = grid_rows(["c1", "c2"], ["m1"], [0.1])
        close = grid_rows(["c1"], ["m1"], [0.1000000001],
                          value_fn=lambda i, j, c: 9.9)
        table = parse_rows(rows + close)
        mat = build_response_matrix(table, "gr", 0.1)
        assert not np.any(mat.values == 9.9 - 1.0)
        with pytest.raises(DataError, match="not fully covered"):
            build_response_matrix(table, "gr", 0.1000000001)

    def test_conflicting_duplicates_rejected(self):
        rows = grid_rows(["c1"], ["m1"], [1.0])
        conflict = grid_rows(["c1"], ["m1"], [1.0],
                             value_fn=lambda i, j, c: 9.9)
        with pytest.raises(DataError, match="conflicting duplicate"):
            build_response_matrix(parse_rows(rows + conflict), "gr", 1.0)

    def test_identical_duplicates_deduplicated(self):
        rows = grid_rows(["c1"], ["m1"], [1.0])
        mat = build_response_matrix(parse_rows(rows + rows), "gr", 1.0)
        assert mat.shape == (1, 1)


def outcome(fn, *args):
    """fn's result, or the message of the DataError it raises."""
    try:
        return fn(*args)
    except DataError as e:
        return f"DataError: {e}"


def assert_same_matrix(got, want, table):
    """got, built from table, against the oracle's (matrix, row labels,
    column labels) or the message of its DataError."""
    if isinstance(want, str):
        assert got == want
        return
    want, cells, mols = want
    assert np.array_equal(got.values, want.values)
    assert np.array_equal(np.signbit(got.values), np.signbit(want.values))
    assert np.array_equal(got.mask, want.mask)
    assert (table.cell_ids, table.molecule_ids) == (cells, mols)


def assert_matches_oracle(text, concentrations=None):
    """Parse, the common set and every target x concentration matrix of
    the CSV text, against the row-wise reference in tests/oracles.py."""
    import io
    table = outcome(parse_dataset, io.StringIO(text))
    obs = outcome(oracles.parse_observations, io.StringIO(text))
    if isinstance(obs, str):
        assert table == obs
        return
    assert len(table) == len(obs)
    assert table.cell_ids == sorted({o.cell_id for o in obs})
    assert table.molecule_ids == sorted({o.molecule_id for o in obs})
    assert [table.cell_ids[k] for k in table.cell] == [o.cell_id for o in obs]
    assert ([table.molecule_ids[k] for k in table.molecule]
            == [o.molecule_id for o in obs])
    for name in ("concentration", "gr", "ifd"):
        want = np.array([getattr(o, name) for o in obs], dtype=float)
        got = getattr(table, name)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
    assert (outcome(select_common_concentrations, table)
            == outcome(oracles.common_concentrations, obs))
    if concentrations is None:
        concentrations = sorted(set(table.concentration.tolist()))
    for c in concentrations:
        for target in ("gr", "ifd"):
            assert_same_matrix(
                outcome(build_response_matrix, table, target, c),
                outcome(oracles.response_matrix, obs, target, c), table)


def filler(count):
    """count distinct data rows: 4 cells x 2 molecules at concentration
    1.0, then the same grid at 2.0, 3.0 and so on."""
    return [f"c{k % 4},m{k // 4 % 2},{1 + k // 8}.0,{0.5 + 0.001 * k:.3f},"
            f"{('0.1', '-0.0', '0.0')[k % 3]}\n" for k in range(count)]


def replaced(rows, at, row):
    rows = list(rows)
    rows[at] = row
    return rows


def with_blank_lines(rows, b):
    """rows with blank lines before rows[b - 1], rows[b] and (two)
    rows[b + 1]: on both sides of the end of the first b-row block."""
    rows = list(rows)
    for at in (b + 1, b + 1, b, b - 1):  # from the back: none moves the next
        rows.insert(at, "\n")
    return rows


# block size -> data rows, each a case at a boundary between blocks
BLOCK_CASES = {
    "one-block": lambda b: filler(b),
    "one-block-and-a-row": lambda b: filler(b + 1),
    "short-last-of-block": lambda b: replaced(filler(b + 2), b - 1,
                                              "c9,m9,1.0,0.5\n"),
    "short-first-of-next": lambda b: replaced(filler(b + 2), b,
                                              "c9,m9,1.0,0.5\n"),
    "malformed-last-of-block": lambda b: replaced(filler(b + 2), b - 1,
                                                  "c9,m9,1.0,oops,0.1\n"),
    "nan-first-of-next": lambda b: replaced(filler(b + 2), b,
                                            "c9,m9,1.0,0.5,nan\n"),
    "negative-first-of-next": lambda b: replaced(filler(b + 2), b,
                                                 "c9,m9,-1.0,0.5,0.1\n"),
    # the row numbers of the next block count data rows only
    "blank-lines-straddle": lambda b: with_blank_lines(replaced(
        filler(b + 3), b + 1, "c9,m9,0,0.5,0.1\n"), b),
    "blank-lines-straddle-clean": lambda b: with_blank_lines(filler(b + 2), b),
    # ids first seen in the next block sort before every earlier one
    "later-id-sorts-first": lambda b: filler(b) + [
        "a0,m1,1.0,0.7,0.2\n", "c0,a1,1.0,0.6,-0.0\n"],
    "conflict-across-blocks": lambda b: filler(b) + [
        "c0,m0,1.0,0.9,0.1\n"],
    "duplicate-across-blocks": lambda b: filler(b) + filler(1),
}


class TestAgainstRowwiseOracle:
    """The columnar ingest gives the row-wise reference's values, row and
    column order, common set and errors."""

    def test_dataset_shaped_corpus(self):
        assert_matches_oracle(dataset_shaped_csv().getvalue())

    @pytest.mark.parametrize("rows", [
        # missing pairs at one concentration, present at another
        ["c1,m1,1.0,0.5,0.1\n", "c2,m1,1.0,0.6,0.2\n", "c1,m1,2.0,0.7,0.3\n"],
        # identical duplicates, in and out of order
        ["c2,m1,1.0,0.5,0.1\n", "c1,m1,1.0,0.6,0.2\n", "c2,m1,1.0,0.5,0.1\n",
         "c1,m1,1.0,0.6,0.2\n", "c1,m1,1.0,0.6,0.2\n"],
        # duplicates that agree as floats but are spelled apart
        ["c1,m1,1.0,0.5,0.1\n", "c1,m1,1,0.50,1e-1\n", "c2,m1,1.0,1.5,0.0\n"],
        # duplicates equal by ==, which keep the last zero's sign
        ["c1,m1,1.0,1.0,0.0\n", "c1,m1,1.0,1.0,-0.0\n",
         "c2,m1,1.0,1.0,-0.0\n", "c2,m1,1.0,1.0,0.0\n"],
        # a conflict for gr only, then a conflict for both
        ["c1,m1,1.0,0.5,0.1\n", "c1,m2,1.0,0.5,0.1\n", "c1,m1,1.0,0.7,0.1\n",
         "c1,m2,1.0,0.6,0.2\n"],
        # the first conflict in file order names its pair, not the first
        # pair that has one
        ["c1,m1,1.0,0.5,0.1\n", "c1,m2,1.0,0.5,0.1\n", "c1,m2,1.0,0.6,0.2\n",
         "c1,m1,1.0,0.7,0.3\n"],
        # spellings of one concentration, and two close ones
        ["c1,m1,0.1,0.8,0.05\n", "c2,m1,0.10,0.9,0.06\n",
         "c1,m1,1e-1,0.8,0.05\n", "c2,m1,0.1000000001,0.9,0.06\n"],
        # a row longer than the header
        ["c1,m1,1.0,0.5,0.1,extra\n", "c2,m1,1.0,0.6,0.2\n"],
        # blank lines, which row numbers skip
        ["c1,m1,1.0,0.5,0.1\n", "\n", "c2,m1,1.0,oops,0.2\n"],
        # the first failing row's first failing check wins
        ["c1,m1,0,0.5,0.1\n", "c2,m1,x,0.6,0.2\n"],
        ["c1,m1,1.0,inf,0.1\n", "c2,m1,-1,0.6,0.2\n"],
        ["c1,m1,1.0,0.5,nan\n"],
        ["c1,m1,nan,0.5,0.1\n"],
        ["c1,m1,-0.0,0.5,0.1\n"],
        ["c1,m1,1.0,0.5,0.1\n", "c1,m2,1.0,0.5,\n"],
    ], ids=["missing-pair", "identical-duplicates", "respelled-duplicates",
            "signed-zero-duplicates", "conflict", "first-conflict-in-order",
            "spellings", "long-row", "blank-lines", "first-row-wins",
            "check-order", "nan-ifd", "nan-concentration", "zero-concentration",
            "empty-field"])
    def test_small_csv(self, rows):
        assert_matches_oracle(CSV_HEADER + "".join(rows),
                              concentrations=[0.1, "0.10", 1.0, 2, 5.0])

    def test_repeated_header_name_reads_last_column(self):
        text = ("cell,mol,conc,g,f,g\n"
                "c1,m1,1.0,9.0,0.1,1.5\n"
                "c2,m1,1.0,9.0,0.2,0.5\n")
        columns = {"cell_id": "cell", "molecule_id": "mol",
                   "concentration": "conc", "gr": "g", "ifd": "f"}
        import io
        table = parse_dataset(io.StringIO(text), columns=columns)
        obs = oracles.parse_observations(io.StringIO(text), columns=columns)
        assert table.gr.tolist() == [o.gr for o in obs] == [1.5, 0.5]

    @pytest.mark.parametrize("block_rows", [3, data_mod._BLOCK_ROWS])
    @pytest.mark.parametrize("case", BLOCK_CASES, ids=BLOCK_CASES.keys())
    def test_block_boundary(self, monkeypatch, case, block_rows):
        """Cases that sit on the boundary between two blocks of rows, at the
        module's block size and at a small one."""
        monkeypatch.setattr(data_mod, "_BLOCK_ROWS", block_rows)
        assert_matches_oracle(CSV_HEADER + "".join(BLOCK_CASES[case](
            block_rows)), concentrations=[1.0, 2.0])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.sampled_from(["c1", "c2", "c10", "C2"]),
                              st.sampled_from(["m1", "m2"]),
                              st.sampled_from(["0.1", "0.10", "1", "1.0",
                                               "2.5"]),
                              st.sampled_from(["0.5", "1.0", "1.5", "0.50"]),
                              st.sampled_from(["0.0", "-0.0", "0.1", "-0.2"])),
                    max_size=14))
    def test_random_csv(self, rows):
        assert_matches_oracle(
            CSV_HEADER + "".join(",".join(r) + "\n" for r in rows),
            concentrations=[0.1, 1.0, 2.5, 3.0])


@pytest.fixture(scope="module")
def table():
    return parse_dataset(dataset_shaped_csv())


class TestDatasetShapedCorpus:
    """Counting checks on a corpus with the real dataset's shape."""

    def test_total_instances(self, table):
        assert len(table) == 10710

    def test_four_common_concentrations(self, table):
        assert select_common_concentrations(table) == {0.01, 0.1, 1.0, 10.0}

    def test_kept_instances(self, table):
        kept = [build_response_matrix(table, "gr", c)
                for c in select_common_concentrations(table)]
        assert {m.shape for m in kept} == {(35, 34)}
        assert sum(int(m.mask.sum()) for m in kept) == 4760

    def test_matrix_shape_and_coverage(self, table):
        mat = build_response_matrix(table, "gr", 0.01)
        assert mat.shape == (35, 34)
        assert int(mat.mask.sum()) == 1190


def traced_peak(stream):
    """(parse_dataset(stream), the most memory it held at once in bytes,
    as tracemalloc counts it)."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        table = parse_dataset(stream)
        return table, tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


class TestIngestMemory:
    """parse_dataset holds one block of rows and about twice its output at
    once, not every row of the file."""

    def test_peak_is_a_small_multiple_of_the_output(self):
        table, peak = traced_peak(dataset_shaped_csv())
        out = sum(getattr(table, name).nbytes for name in (
            "cell", "molecule", "concentration", "gr", "ifd"))
        # the blocks' columns, their concatenation and the remapped codes
        # (2.4 times the output), one block of rows (about 0.3 times here)
        # and slack; holding every row as a list of str is 11 times
        assert peak < 3.5 * out

    def test_peak_grows_no_faster_than_the_rows(self):
        header, body = dataset_shaped_csv().getvalue().split("\n", 1)
        table, peak = traced_peak(io.StringIO(header + "\n" + body))
        twice, twice_peak = traced_peak(io.StringIO(header + "\n" + body * 2))
        assert len(twice) == 2 * len(table)
        assert twice_peak < 2.2 * peak


class TestGenerateSynthetic:
    def test_zero_noise_is_exact_product(self):
        mat, emb = generate_synthetic(2, 2, 1, 0.0, seed=7)
        np.testing.assert_array_equal(mat.values, emb.x @ emb.w)
        assert np.all(mat.mask == 1.0)

    def test_numerical_rank(self):
        # SVD oracle: exactly `rank` nonzero singular values
        mat, _ = generate_synthetic(35, 34, 5, 0.0, seed=3)
        sv = np.linalg.svd(mat.values, compute_uv=False)
        assert sv[4] > 1e-3
        assert sv[5] < 1e-9

    def test_deterministic_in_seed(self):
        a, ea = generate_synthetic(6, 5, 2, 0.3, seed=42)
        b, eb = generate_synthetic(6, 5, 2, 0.3, seed=42)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(ea.x, eb.x)

    def test_rank_too_large(self):
        with pytest.raises(DataError):
            generate_synthetic(3, 4, 5, 0.0, seed=0)

    @pytest.mark.parametrize("rank, noise_sd, message", [
        (0, 0.0, "rank must be >= 1, got 0"),
        (-1, 0.0, "rank must be >= 1, got -1"),
        (1, -0.5, "noise_sd must be >= 0, got -0.5"),
        (1, float("nan"), "noise_sd must be >= 0, got nan")])
    def test_rejects_what_synthetic_spec_rejects(self, rank, noise_sd,
                                                 message):
        """A rank below 1 returned an all-zero matrix, and a NaN noise_sd
        the noiseless one, without an error."""
        with pytest.raises(DataError, match=message):
            generate_synthetic(3, 3, rank, noise_sd, seed=0)


class TestMaskedMatrix:
    """One checked form for one m x n problem and for a stack of them."""

    @pytest.mark.parametrize("lead", [(), (2,), (2, 3)])
    def test_shape_is_one_problems(self, lead):
        mat = MaskedMatrix(np.zeros(lead + (4, 5)), np.ones(lead + (4, 5)))
        assert mat.shape == (4, 5)
        assert mat.values.shape == mat.mask.shape == lead + (4, 5)

    @pytest.mark.parametrize("mask_shape", [(3, 4, 5), (2, 5, 4), (4, 5)])
    def test_stacked_shape_mismatch_rejected(self, mask_shape):
        with pytest.raises(DataError, match="must share one shape"):
            MaskedMatrix(np.zeros((2, 4, 5)), np.ones(mask_shape))

    def test_fewer_than_two_axes_rejected(self):
        with pytest.raises(DataError, match="must share one shape"):
            MaskedMatrix(np.zeros(5), np.ones(5))

    @pytest.mark.parametrize("entry", [0.5, -1.0, 2.0, np.nan])
    def test_stacked_non_binary_mask_rejected(self, entry):
        mask = np.ones((3, 2, 2))
        mask[2, 1, 0] = entry
        with pytest.raises(DataError, match="0 or 1"):
            MaskedMatrix(np.zeros((3, 2, 2)), mask)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_stacked_non_finite_observed_value_rejected(self, value):
        values, mask = np.zeros((3, 2, 2)), np.ones((3, 2, 2))
        values[1, 0, 1] = value
        with pytest.raises(DataError, match="non-finite value"):
            MaskedMatrix(values, mask)
        mask[1, 0, 1] = 0.0
        MaskedMatrix(values, mask)  # an unobserved value is never read


# inputs that are not positions of a 3 x 4 matrix
BAD_POSITIONS = {"negative": [-1], "float": [1.7], "past the end": [12],
                 "(k, 2) pairs": np.array([[1, 0], [2, 3]])}
POSITION_CALLERS = ["with_mask", "build_features", "alsdl_predict_positions"]


def position_caller(name):
    mat, _ = generate_synthetic(3, 4, 1, 0.0, seed=0)
    emb = init_embeddings(3, 4, AlsConfig(d=2), 1)
    model = AlsdlModel(emb, init_mlp([4, 3, 1], seed=2), AlsdlConfig())
    return {"with_mask": lambda pos: mat.with_mask(pos).observed_positions(),
            "build_features": lambda pos: build_features(emb, pos),
            "alsdl_predict_positions":
                lambda pos: alsdl_predict_positions(model, pos)}[name]


class TestBadPositions:
    @pytest.mark.parametrize("bad", BAD_POSITIONS.values(),
                             ids=BAD_POSITIONS.keys())
    @pytest.mark.parametrize("caller", POSITION_CALLERS)
    def test_rejected(self, caller, bad):
        call = position_caller(caller)
        assert len(call([11, 0])) == 2
        with pytest.raises(IndexError):
            call(bad)

    @pytest.mark.parametrize("caller", POSITION_CALLERS)
    def test_empty_gives_empty(self, caller):
        assert len(position_caller(caller)([])) == 0
