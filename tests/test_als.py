from collections import namedtuple
from dataclasses import replace

import numpy as np
import pytest

from alsal.data import MaskedMatrix, generate_synthetic
from alsal.als import (AlsConfig, DivergenceError, EmbeddingPair, EpochWork,
                       als_epoch, als_gradients, als_loss, check_count,
                       init_embeddings, train_als)
from alsal.metrics import FoldSplit, kfold_split
from oracles import als_rmse


def full_matrix(values):
    values = np.asarray(values, dtype=float)
    m, n = values.shape
    return MaskedMatrix(values, np.ones((m, n)),
                        [f"c{i}" for i in range(m)],
                        [f"m{j}" for j in range(n)], "synthetic")


def finite_difference_gradients(matrix, emb, step=1e-5):
    """Central-difference oracle for the masked squared-error loss."""
    grads = []
    for arr in (emb.x, emb.w):
        g = np.zeros_like(arr)
        for idx in np.ndindex(arr.shape):
            for s, bucket in ((step, 1), (-step, -1)):
                bumped = arr.copy()
                bumped[idx] += s
                e = (EmbeddingPair(bumped, emb.w) if arr is emb.x
                     else EmbeddingPair(emb.x, bumped))
                g[idx] += bucket * als_loss(matrix, e)
            g[idx] /= 2 * step
        grads.append(g)
    return tuple(grads)


def reference_als_epoch(matrix, emb, alpha, simultaneous=False):
    """The allocating epoch: every temporary a new array."""
    def residual(x, w):
        return matrix.mask * (x @ w - matrix.values)

    def t(a):
        return a.swapaxes(-1, -2)

    if simultaneous:
        r = residual(emb.x, emb.w)
        return EmbeddingPair(x=emb.x - alpha * (r @ t(emb.w)),
                             w=emb.w - alpha * (t(emb.x) @ r))
    x_new = emb.x - alpha * (residual(emb.x, emb.w) @ t(emb.w))
    r = residual(x_new, emb.w)
    return EmbeddingPair(x=x_new, w=emb.w - alpha * (t(x_new) @ r))


def epoch_copy(matrix, emb, alpha, simultaneous=False):
    """A copy of emb, stepped in place by als_epoch with fresh work."""
    emb = EmbeddingPair(emb.x.copy(), emb.w.copy())
    return als_epoch(matrix, emb, alpha, simultaneous, EpochWork.like(emb))


# what als_epoch reads of a matrix, for stacks of problems
Stack = namedtuple("Stack", "values mask")


def epoch_problem(stack, seed, m=7, n=6, d=3):
    """A masked problem, as a MaskedMatrix or a (stack, m, n) Stack, and
    embeddings of the same leading shape."""
    rng = np.random.default_rng(seed)
    lead = (stack,) if stack else ()
    values = rng.normal(size=lead + (m, n))
    mask = (rng.uniform(size=lead + (m, n)) < 0.5).astype(float)
    matrix = Stack(values, mask) if stack else MaskedMatrix(
        values, mask, [f"c{i}" for i in range(m)],
        [f"m{j}" for j in range(n)], "synthetic")
    emb = EmbeddingPair(rng.uniform(-1, 1, size=lead + (m, d)),
                        rng.uniform(-1, 1, size=lead + (d, n)))
    return matrix, emb


class TestCheckCount:
    @pytest.mark.parametrize("value, minimum", [
        (0, 0), (1, 1), (2, 2), (np.int64(5), 3), (10**20, 2)])
    def test_accepts(self, value, minimum):
        check_count("k", value, minimum)

    @pytest.mark.parametrize("value, minimum, message", [
        (-1, 0, "k must be a non-negative integer, not -1"),
        (0, 1, "k must be a positive integer, not 0"),
        (1, 2, "k must be an integer of at least 2, not 1"),
        (2, 3, "k must be an integer of at least 3, not 2"),
        (True, 1, "k must be a positive integer, not True"),
        (2.0, 2, "k must be an integer of at least 2, not 2.0"),
        ("3", 0, "k must be a non-negative integer, not '3'")])
    def test_rejects(self, value, minimum, message):
        with pytest.raises(ValueError) as e:
            check_count("k", value, minimum)
        assert str(e.value) == message


class TestInitEmbeddings:
    def test_shapes(self):
        emb = init_embeddings(2, 3, AlsConfig(d=5, seed=0))
        assert emb.x.shape == (2, 5)
        assert emb.w.shape == (5, 3)

    def test_zero_scale(self):
        emb = init_embeddings(3, 3, AlsConfig(d=2, init_scale=0.0, seed=0))
        assert np.all(emb.x == 0) and np.all(emb.w == 0)

    def test_deterministic(self):
        a = init_embeddings(4, 4, AlsConfig(seed=11))
        b = init_embeddings(4, 4, AlsConfig(seed=11))
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.w, b.w)


class TestAlsLoss:
    def test_zero_embeddings(self):
        mat = full_matrix([[1, 2], [3, 4]])
        emb = EmbeddingPair(np.zeros((2, 1)), np.zeros((1, 2)))
        assert als_loss(mat, emb) == pytest.approx(15.0)

    def test_exact_rank1_fit(self):
        mat = full_matrix([[3, 4], [6, 8]])
        emb = EmbeddingPair(np.array([[1.0], [2.0]]), np.array([[3.0, 4.0]]))
        assert als_loss(mat, emb) == 0.0

    def test_single_masked_position(self):
        mat = full_matrix([[1, 2], [3, 4]])
        mat.mask = np.array([[1.0, 0.0], [0.0, 0.0]])
        emb = EmbeddingPair(np.zeros((2, 1)), np.zeros((1, 2)))
        assert als_loss(mat, emb) == pytest.approx(0.5)

    def test_latent_rotation_invariance(self, rng):
        mat = full_matrix(rng.normal(size=(5, 6)))
        emb = EmbeddingPair(rng.normal(size=(5, 3)), rng.normal(size=(3, 6)))
        q = rng.normal(size=(3, 3)) + 3 * np.eye(3)  # well-conditioned
        rotated = EmbeddingPair(emb.x @ q, np.linalg.solve(q, emb.w))
        assert als_loss(mat, rotated) == pytest.approx(als_loss(mat, emb))


class TestAlsGradients:
    def test_zero_at_exact_fit(self):
        mat = full_matrix([[3, 4], [6, 8]])
        emb = EmbeddingPair(np.array([[1.0], [2.0]]), np.array([[3.0, 4.0]]))
        gx, gw = als_gradients(mat, emb)
        assert np.all(gx == 0) and np.all(gw == 0)

    def test_zero_mask(self):
        mat = full_matrix([[1, 2], [3, 4]])
        mat.mask = np.zeros((2, 2))
        emb = EmbeddingPair(np.ones((2, 2)), np.ones((2, 2)))
        gx, gw = als_gradients(mat, emb)
        assert np.all(gx == 0) and np.all(gw == 0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        mat = full_matrix(rng.uniform(-1, 1, size=(6, 5)))
        emb = EmbeddingPair(rng.uniform(-1, 1, size=(6, 3)),
                            rng.uniform(-1, 1, size=(3, 5)))
        gx, gw = als_gradients(mat, emb)
        fx, fw = finite_difference_gradients(mat, emb)
        assert np.linalg.norm(gx - fx) / np.linalg.norm(fx) < 1e-5
        assert np.linalg.norm(gw - fw) / np.linalg.norm(fw) < 1e-5


class TestAlsEpoch:
    def test_exact_fit_unchanged(self):
        mat = full_matrix([[3, 4], [6, 8]])
        emb = EmbeddingPair(np.array([[1.0], [2.0]]), np.array([[3.0, 4.0]]))
        out = epoch_copy(mat, emb, alpha=0.1)
        np.testing.assert_array_equal(out.x, emb.x)
        np.testing.assert_array_equal(out.w, emb.w)

    def test_zero_alpha_unchanged(self, rng):
        mat = full_matrix(rng.normal(size=(3, 3)))
        emb = init_embeddings(3, 3, AlsConfig(d=2, seed=0))
        out = epoch_copy(mat, emb, alpha=0.0)
        np.testing.assert_array_equal(out.x, emb.x)

    def test_zero_init_is_fixed_point(self):
        # grad_x = residual @ w.T = 0 when w = 0, then x stays 0 and so does w
        mat = full_matrix([[1.0]])
        emb = EmbeddingPair(np.zeros((1, 1)), np.zeros((1, 1)))
        out = epoch_copy(mat, emb, alpha=0.01)
        assert out.x[0, 0] == 0.0 and out.w[0, 0] == 0.0

    def test_alternating_recomputes_w_gradient(self, rng):
        mat = full_matrix(rng.normal(size=(4, 4)))
        emb = init_embeddings(4, 4, AlsConfig(d=2, seed=3))
        alt = epoch_copy(mat, emb, alpha=0.05, simultaneous=False)
        sim = epoch_copy(mat, emb, alpha=0.05, simultaneous=True)
        np.testing.assert_array_equal(alt.x, sim.x)
        assert not np.array_equal(alt.w, sim.w)

    def test_loss_non_increasing_small_alpha(self):
        for seed in range(100):
            mat, _ = generate_synthetic(6, 6, 2, 0.0, seed=seed)
            emb = init_embeddings(6, 6, AlsConfig(d=2, seed=seed + 500))
            before = als_loss(mat, emb)
            after = als_loss(mat, epoch_copy(mat, emb, alpha=0.001))
            assert after <= before + 1e-12


class TestAlsEpochWork:
    """als_epoch, in place, against the pure (allocating) reference; every
    comparison is ==."""

    @pytest.mark.parametrize("stack", [0, 1, 4])
    @pytest.mark.parametrize("simultaneous", [False, True])
    def test_in_place_equals_pure_and_reference(self, stack, simultaneous):
        """One pair and one work set stepped 25 times, and a fresh copy
        and fresh work each epoch, both give the reference's values."""
        matrix, emb = epoch_problem(stack, seed=stack + 10 * simultaneous)
        ref = pure = emb
        work_emb = EmbeddingPair(emb.x.copy(), emb.w.copy())
        work = EpochWork.like(work_emb)
        for _ in range(25):
            ref = reference_als_epoch(matrix, ref, 0.05, simultaneous)
            pure = epoch_copy(matrix, pure, 0.05, simultaneous)
            out = als_epoch(matrix, work_emb, 0.05, simultaneous, work)
            assert out is work_emb
        for got in (pure, work_emb):
            assert got.x.tolist() == ref.x.tolist()
            assert got.w.tolist() == ref.w.tolist()

    @pytest.mark.parametrize("simultaneous", [False, True])
    def test_stack_slices_equal_unstacked(self, simultaneous):
        stacked, emb = epoch_problem(3, seed=4)
        got = epoch_copy(stacked, emb, 0.05, simultaneous)
        for b in range(3):
            problem = Stack(stacked.values[b], stacked.mask[b])
            lone = EmbeddingPair(emb.x[b], emb.w[b])
            alone = epoch_copy(problem, lone, 0.05, simultaneous)
            want = reference_als_epoch(problem, lone, 0.05, simultaneous)
            assert got.x[b].tolist() == alone.x.tolist() == want.x.tolist()
            assert got.w[b].tolist() == alone.w.tolist() == want.w.tolist()

    def test_leading_axis_views(self):
        # a shorter chunk trains in [:c] views of larger buffers
        matrix, emb = epoch_problem(2, seed=5)
        x, w = np.empty((5, 7, 3)), np.empty((5, 3, 6))
        x[:2], w[:2] = emb.x, emb.w
        view = EmbeddingPair(x[:2], w[:2])
        work = EpochWork(*(a[:2] for a in EpochWork.like(
            EmbeddingPair(x, w))))
        als_epoch(matrix, view, 0.05, False, work)
        want = reference_als_epoch(matrix, emb, 0.05)
        assert x[:2].tolist() == want.x.tolist()
        assert w[:2].tolist() == want.w.tolist()

    def test_work_shapes(self):
        _, emb = epoch_problem(4, seed=7)
        work = EpochWork.like(emb)
        assert [a.shape for a in work] == [(4, 7, 6), (4, 7, 3), (4, 3, 6)]


class TestTrainAls:
    def test_low_rank_recovery_small(self):
        mat, _ = generate_synthetic(12, 10, 3, 0.0, seed=2)
        emb, hist = train_als(mat, AlsConfig(d=3, epochs=400, seed=9))
        assert hist is None
        assert als_rmse(mat, emb) < 0.05

    def test_all_zero_matrix_zero_init(self):
        mat = full_matrix(np.zeros((3, 3)))
        cfg = AlsConfig(d=2, epochs=5, init_scale=0.0, seed=0)
        emb, hist = train_als(mat, cfg, kfold_split(9, 3, seed=0)[0])
        assert np.all(emb.x == 0) and np.all(emb.w == 0)
        assert hist.train_loss[-1] == hist.test_loss[-1] == 0.0

    def test_deterministic(self):
        mat, _ = generate_synthetic(6, 6, 2, 0.1, seed=4)
        cfg = AlsConfig(d=2, epochs=50, seed=7)
        split = kfold_split(36, 4, seed=0)[1]
        emb1, hist1 = train_als(mat, cfg, split)
        emb2, hist2 = train_als(mat, cfg, split)
        np.testing.assert_array_equal(emb1.x, emb2.x)
        for a, b in zip(hist1, hist2):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("with_split", [True, False])
    def test_divergence_raises_no_numpy_warning(self, with_split):
        """Overflow is reported once, as DivergenceError with its epoch;
        numpy prints no RuntimeWarning on the way."""
        mat, _ = generate_synthetic(8, 7, 2, 0.1, seed=0)
        split = FoldSplit(range(0, 56, 2), range(1, 56, 2))
        cfg = AlsConfig(d=2, epochs=20, learning_rate=100.0)
        with pytest.raises(DivergenceError) as e:
            train_als(mat, cfg, split if with_split else None)
        assert e.value.epoch == 3  # epochs 0-2 stay finite

    def test_eval_split_excludes_test_from_training(self):
        mat, _ = generate_synthetic(5, 5, 2, 0.0, seed=8)
        split = FoldSplit(tuple(range(20)), tuple(range(20, 25)))
        cfg = AlsConfig(d=2, epochs=30, seed=1)
        emb1, hist1 = train_als(mat, cfg, eval_positions=split)
        # flipping values at test positions must not change the trained model
        mat2 = full_matrix(mat.values.copy())
        positions = mat.observed_positions()
        for idx in split.test_indices:
            i, j = divmod(int(positions[idx]), 5)
            mat2.values[i, j] += 100.0
        emb2, _ = train_als(mat2, cfg, eval_positions=split)
        np.testing.assert_array_equal(emb1.x, emb2.x)
        np.testing.assert_array_equal(emb1.w, emb2.w)
        assert hist1.test_loss is not None

    def test_masked_values_never_influence_training(self):
        rng = np.random.default_rng(0)
        mat = full_matrix(rng.normal(size=(4, 4)))
        mat.mask = (rng.uniform(size=(4, 4)) < 0.6).astype(float)
        mat.mask[0, 0] = 1.0
        cfg = AlsConfig(d=2, epochs=20, seed=5)
        emb1, _ = train_als(mat, cfg)
        flipped = MaskedMatrix(mat.values.copy(), mat.mask.copy(),
                               list(mat.cell_index), list(mat.molecule_index),
                               mat.target)
        flipped.values[flipped.mask == 0] = 1e6
        emb2, _ = train_als(flipped, cfg)
        np.testing.assert_array_equal(emb1.x, emb2.x)
        np.testing.assert_array_equal(emb1.w, emb2.w)



class TestResume:
    """A run resumed from its own embeddings gives the uninterrupted run."""

    def legs(self, cfg, k, split):
        mat, _ = generate_synthetic(7, 6, 2, 0.1, seed=3)
        whole = train_als(mat, cfg, eval_positions=split)
        first = emb, _ = train_als(mat, replace(cfg, epochs=k),
                                   eval_positions=split)
        x, w = emb.x.copy(), emb.w.copy()
        resumed = train_als(mat, cfg, eval_positions=split, start_epoch=k,
                            emb=emb)
        # the given embeddings are copied, not trained in place
        assert (emb.x == x).all() and (emb.w == w).all()
        return whole, first, resumed

    @pytest.mark.parametrize("split", [None, FoldSplit(
        tuple(range(0, 42, 2)), tuple(range(1, 42, 2)))])
    def test_equals_uninterrupted_run(self, split):
        # 37 + 20 epochs: the legs meet inside a 32-epoch history block
        cfg = AlsConfig(d=2, epochs=57, seed=4)
        (emb, curve), (_, first), (emb2, rest) = self.legs(cfg, 37, split)
        assert (emb2.x == emb.x).all() and (emb2.w == emb.w).all()
        if split is None:
            assert curve is first is rest is None
            return
        assert (rest.epoch_or_round == np.arange(37, 57)).all()
        for name, column, joined in zip(curve._fields, curve,
                                        first.then(rest)):
            assert (column == joined).all(), name

    def test_resume_at_the_last_epoch_trains_nothing(self):
        cfg = AlsConfig(d=2, epochs=5, seed=4)
        (emb, _), _, (emb2, rest) = self.legs(cfg, 5, FoldSplit(
            tuple(range(0, 42, 2)), tuple(range(1, 42, 2))))
        assert (emb2.x == emb.x).all() and (emb2.w == emb.w).all()
        assert rest.train_loss.size == 0

    @pytest.mark.parametrize("k", [3, 7])
    def test_divergence_epoch_counts_from_the_run_start(self, k):
        mat, _ = generate_synthetic(6, 6, 2, 0.0, seed=4)
        cfg = AlsConfig(d=2, epochs=30, learning_rate=0.6, seed=1)
        with np.errstate(all="ignore"):
            with pytest.raises(DivergenceError) as whole:
                train_als(mat, cfg)
            emb, _ = train_als(mat, replace(cfg, epochs=k))
            with pytest.raises(DivergenceError) as resumed:
                train_als(mat, cfg, start_epoch=k, emb=emb)
        assert k < whole.value.epoch < 30
        assert resumed.value.epoch == whole.value.epoch

    @pytest.mark.parametrize("start_epoch, with_emb", [(2, False), (-1, True),
                                                       (6, True)])
    def test_rejects_a_start_it_cannot_resume(self, start_epoch, with_emb):
        mat, _ = generate_synthetic(4, 4, 2, 0.0, seed=0)
        cfg = AlsConfig(d=2, epochs=5)
        emb = init_embeddings(4, 4, cfg) if with_emb else None
        with pytest.raises(ValueError, match="cannot start at epoch"):
            train_als(mat, cfg, start_epoch=start_epoch, emb=emb)
