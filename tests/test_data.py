import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from alsal.als import AlsConfig, init_embeddings
from alsal.alsdl import (AlsdlConfig, AlsdlModel, alsdl_predict_positions,
                         build_features)
from alsal.data import (DataError, build_response_matrix, compute_gr,
                        compute_ifd, generate_synthetic,
                        parse_dataset, select_common_concentrations)
from alsal.mlp import init_mlp

from conftest import csv_stream, dataset_shaped_csv, make_observations


class TestComputeGr:
    def test_zero_exponent(self):
        assert compute_gr(100, 100, 400) == pytest.approx(1.0)

    def test_unit_exponent(self):
        assert compute_gr(400, 100, 400) == pytest.approx(2.0)

    def test_half_exponent(self):
        assert compute_gr(200, 100, 400) == pytest.approx(math.sqrt(2))

    @pytest.mark.parametrize("args", [(-1, 100, 400), (100, 0, 400),
                                      (100, 100, -5)])
    def test_nonpositive_counts_rejected(self, args):
        with pytest.raises(DataError):
            compute_gr(*args)

    def test_control_equals_day0_rejected(self):
        with pytest.raises(DataError):
            compute_gr(100, 200, 200)

    @given(x0=st.floats(1.0, 1e3), xc=st.floats(1.0, 1e3))
    def test_fixed_points(self, x0, xc):
        # treated == control -> 2; treated == day-0 count -> 1
        xctrl = x0 * 3.0
        assert compute_gr(xctrl, x0, xctrl) == pytest.approx(2.0)
        assert compute_gr(x0, x0, xctrl) == pytest.approx(1.0)


class TestComputeIfd:
    def test_equal_fractions(self):
        assert compute_ifd(0.1, 0.1) == 0.0

    def test_subtraction(self):
        assert compute_ifd(0.3, 0.1) == pytest.approx(0.2)

    def test_extreme_bounds(self):
        assert compute_ifd(0.0, 1.0) == -1.0

    def test_out_of_range_rejected(self):
        with pytest.raises(DataError):
            compute_ifd(1.5, 0.1)
        with pytest.raises(DataError):
            compute_ifd(0.5, -0.1)


class TestParseDataset:
    def test_header_only(self):
        assert parse_dataset(csv_stream([])) == []

    def test_single_row(self):
        obs = parse_dataset(csv_stream(["c1,m1,0.01,0.8,0.05\n"]))
        assert len(obs) == 1
        o = obs[0]
        assert (o.cell_id, o.molecule_id) == ("c1", "m1")
        assert o.concentration == 0.01
        assert o.gr == 0.8 and o.ifd == 0.05

    def test_missing_column(self):
        import io
        with pytest.raises(DataError, match="missing required columns"):
            parse_dataset(io.StringIO("a,b\n1,2\n"))

    def test_malformed_numeric_reports_row(self):
        stream = csv_stream(["c1,m1,0.01,0.8,0.05\n", "c1,m2,0.01,oops,0.05\n"])
        with pytest.raises(DataError, match="row 3"):
            parse_dataset(stream)

    def test_empty_file(self):
        import io
        with pytest.raises(DataError, match="empty file"):
            parse_dataset(io.StringIO(""))

    def test_custom_column_map(self):
        import io
        stream = io.StringIO("cell,mol,conc,g,f\nc1,m1,1.0,1.2,0.1\n")
        obs = parse_dataset(stream, columns={
            "cell_id": "cell", "molecule_id": "mol", "concentration": "conc",
            "gr": "g", "ifd": "f"})
        assert obs[0].gr == 1.2


class TestSelectCommonConcentrations:
    def test_single_common(self):
        obs = make_observations(["c1", "c2"], ["m1"], [1.0])
        assert select_common_concentrations(obs) == {1.0}

    def test_coverage_broken_by_missing_pair(self):
        obs = make_observations(["c1", "c2"], ["m1", "m2"], [2.0])
        obs = [o for o in obs if not (o.cell_id == "c2" and o.molecule_id == "m2")]
        # (c2, m2) still exists in the dataset at another concentration
        obs += make_observations(["c2"], ["m2"], [5.0])
        assert select_common_concentrations(obs) == set()

    def test_partial_coverage(self):
        obs = (make_observations(["c1", "c2"], ["m1", "m2"], [1.0, 2.0])
               + make_observations(["c1"], ["m1"], [3.0]))
        assert select_common_concentrations(obs) == {1.0, 2.0}

    def test_subset_of_present_concentrations(self):
        obs = make_observations(["c1"], ["m1", "m2"], [0.1, 0.2, 0.3])
        got = select_common_concentrations(obs)
        assert got <= {o.concentration for o in obs}

    def test_spellings_of_one_float_are_one_concentration(self):
        obs = parse_dataset(csv_stream(["c1,m1,0.1,0.8,0.05\n",
                                        "c2,m1,0.10,0.8,0.05\n",
                                        "c1,m1,1e-1,0.8,0.05\n"]))
        assert select_common_concentrations(obs) == {0.1}

    def test_close_floats_stay_apart(self):
        obs = (make_observations(["c1", "c2"], ["m1"], [0.1])
               + make_observations(["c1"], ["m1"], [0.1000000001]))
        assert select_common_concentrations(obs) == {0.1}

    def test_removing_single_observation_removes_concentration(self):
        obs = make_observations(["c1", "c2"], ["m1"], [1.0, 2.0])
        full = select_common_concentrations(obs)
        assert full == {1.0, 2.0}
        without = [o for o in obs
                   if not (o.cell_id == "c2" and o.concentration == 2.0)]
        assert select_common_concentrations(without) == {1.0}


class TestBuildResponseMatrix:
    def test_gr_shift(self):
        obs = make_observations(["cellA"], ["molB"], [1.0],
                                value_fn=lambda i, j, c: 1.0)
        mat = build_response_matrix(obs, "gr", 1.0)
        assert mat.shape == (1, 1)
        assert mat.values[0, 0] == 0.0
        assert mat.mask[0, 0] == 1.0

    def test_ifd_stored_as_is(self):
        obs = make_observations(["cellA"], ["molB"], [1.0],
                                value_fn=lambda i, j, c: 2.5)  # ifd = 0.25
        mat = build_response_matrix(obs, "ifd", 1.0)
        assert mat.values[0, 0] == pytest.approx(0.25)

    def test_roundtrip_full_coverage(self):
        obs = make_observations(["c1", "c2", "c3"], ["m1", "m2"], [0.5])
        mat = build_response_matrix(obs, "gr", 0.5)
        assert np.all(mat.mask == 1.0)
        lookup = {(o.cell_id, o.molecule_id): o.gr for o in obs}
        for i, cell in enumerate(mat.cell_index):
            for j, mol in enumerate(mat.molecule_index):
                assert mat.values[i, j] == pytest.approx(lookup[(cell, mol)] - 1.0)

    def test_sorted_indices(self):
        obs = make_observations(["zz", "aa"], ["m2", "m1"], [1.0])
        mat = build_response_matrix(obs, "gr", 1.0)
        assert mat.cell_index == ["aa", "zz"]
        assert mat.molecule_index == ["m1", "m2"]

    def test_uncovered_concentration_rejected(self):
        obs = (make_observations(["c1", "c2"], ["m1"], [1.0])
               + make_observations(["c1"], ["m1"], [9.0]))
        with pytest.raises(DataError, match="not fully covered"):
            build_response_matrix(obs, "gr", 9.0)

    @pytest.mark.parametrize("spelling", [0.1, "0.1", "0.10", "1e-1"])
    def test_spellings_of_one_float_select_one_matrix(self, spelling):
        obs = make_observations(["c1", "c2"], ["m1", "m2"], [0.1, 1.0])
        mat = build_response_matrix(obs, "gr", spelling)
        assert np.array_equal(mat.values,
                              build_response_matrix(obs, "gr", 0.1).values)
        assert mat.mask.sum() == 4

    def test_close_floats_stay_apart(self):
        obs = make_observations(["c1", "c2"], ["m1"], [0.1])
        close = make_observations(["c1"], ["m1"], [0.1000000001],
                                  value_fn=lambda i, j, c: 9.9)
        mat = build_response_matrix(obs + close, "gr", 0.1)
        assert not np.any(mat.values == 9.9 - 1.0)
        with pytest.raises(DataError, match="not fully covered"):
            build_response_matrix(obs + close, "gr", 0.1000000001)

    def test_conflicting_duplicates_rejected(self):
        obs = make_observations(["c1"], ["m1"], [1.0])
        conflict = make_observations(["c1"], ["m1"], [1.0],
                                     value_fn=lambda i, j, c: 9.9)
        with pytest.raises(DataError, match="conflicting duplicate"):
            build_response_matrix(obs + conflict, "gr", 1.0)

    def test_identical_duplicates_deduplicated(self):
        obs = make_observations(["c1"], ["m1"], [1.0])
        mat = build_response_matrix(obs + obs, "gr", 1.0)
        assert mat.shape == (1, 1)


@pytest.fixture(scope="module")
def obs():
    return parse_dataset(dataset_shaped_csv())


class TestDatasetShapedCorpus:
    """Counting checks on a corpus with the real dataset's shape."""

    def test_total_instances(self, obs):
        assert len(obs) == 10710

    def test_four_common_concentrations(self, obs):
        assert select_common_concentrations(obs) == {0.01, 0.1, 1.0, 10.0}

    def test_kept_instances(self, obs):
        kept = [build_response_matrix(obs, "gr", c)
                for c in select_common_concentrations(obs)]
        assert {m.shape for m in kept} == {(35, 34)}
        assert sum(int(m.mask.sum()) for m in kept) == 4760

    def test_matrix_shape_and_coverage(self, obs):
        mat = build_response_matrix(obs, "gr", 0.01)
        assert mat.shape == (35, 34)
        assert int(mat.mask.sum()) == 1190


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


# inputs that are not positions of a 3 x 4 matrix
BAD_POSITIONS = {"negative": [-1], "float": [1.7], "past the end": [12],
                 "(k, 2) pairs": np.array([[1, 0], [2, 3]])}
POSITION_CALLERS = ["with_mask", "build_features", "alsdl_predict_positions"]


def position_caller(name):
    mat, _ = generate_synthetic(3, 4, 1, 0.0, seed=0)
    emb = init_embeddings(3, 4, AlsConfig(d=2, seed=1))
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
