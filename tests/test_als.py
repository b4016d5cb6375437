from dataclasses import replace
from typing import Callable, NamedTuple

import numpy as np
import pytest

import alsal.als as als_mod
import alsal.mlp as mlp_mod
from alsal.data import MaskedMatrix, generate_synthetic
from alsal.als import (AlsConfig, ConfigError, DivergenceError, EmbeddingPair,
                       EpochWork, als_epoch, init_embeddings, train_als)
from alsal.metrics import FoldSplit, kfold_split
from alsal.mlp import LossConfig, MlpTrainConfig, init_mlp, train_mlp
from oracles import als_gradients, als_loss, als_rmse, stepped_als


def full_matrix(values):
    values = np.asarray(values, dtype=float)
    return MaskedMatrix(values, np.ones(values.shape))


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


def reference_als_epoch(matrix, emb, alpha):
    """The allocating epoch: every temporary a new array."""
    def residual(x, w):
        return matrix.mask * (x @ w - matrix.values)

    def t(a):
        return a.swapaxes(-1, -2)

    x_new = emb.x - alpha * (residual(emb.x, emb.w) @ t(emb.w))
    r = residual(x_new, emb.w)
    return EmbeddingPair(x=x_new, w=emb.w - alpha * (t(x_new) @ r))


def epoch_copy(matrix, emb, alpha):
    """A copy of emb, stepped in place by als_epoch with fresh work."""
    emb = EmbeddingPair(emb.x.copy(), emb.w.copy())
    return als_epoch(matrix, emb, alpha, EpochWork.like(emb))


def epoch_problem(stack, seed, m=7, n=6, d=3):
    """A masked problem, m x n or a (stack, m, n) stack of them, and
    embeddings of the same leading shape."""
    rng = np.random.default_rng(seed)
    lead = (stack,) if stack else ()
    values = rng.normal(size=lead + (m, n))
    mask = (rng.uniform(size=lead + (m, n)) < 0.5).astype(float)
    matrix = MaskedMatrix(values, mask)
    emb = EmbeddingPair(rng.uniform(-1, 1, size=lead + (m, d)),
                        rng.uniform(-1, 1, size=lead + (d, n)))
    return matrix, emb


class TestCheckFields:
    """A config dataclass checks each field against its annotation and
    declared range when it is built, and stores the value unchanged."""

    @pytest.mark.parametrize("value", [1, np.int64(5), 10**20])
    def test_count_accepted(self, value):
        assert AlsConfig(d=value).d is value

    @pytest.mark.parametrize("value", [0, -1, True, 2.0, "3", None])
    def test_count_rejected(self, value):
        with pytest.raises(ConfigError) as e:
            AlsConfig(d=value)
        assert e.value.key == "d"
        assert str(e.value) == f"d must be an integer >= 1, not {value!r}"

    @pytest.mark.parametrize("value", [1, 1e-300, 1e308, np.float64(0.5)])
    def test_number_accepted(self, value):
        # an int stays an int, so a manifest keeps its bytes
        assert AlsConfig(learning_rate=value).learning_rate is value

    @pytest.mark.parametrize("value", [
        0, 0.0, -1, float("nan"), float("inf"), -float("inf"), 10**400,
        True, "x", None])
    def test_number_rejected(self, value):
        with pytest.raises(ConfigError) as e:
            AlsConfig(learning_rate=value)
        assert e.value.key == "learning_rate"
        assert str(e.value) == ("learning_rate must be a finite number > 0, "
                                f"not {value!r}")

    def test_replace_is_checked(self):
        with pytest.raises(ConfigError) as e:
            replace(AlsConfig(), learning_rate=-0.5)
        assert e.value.key == "learning_rate"


class TestInitEmbeddings:
    def test_shapes(self):
        emb = init_embeddings(2, 3, AlsConfig(d=5), 0)
        assert emb.x.shape == (2, 5)
        assert emb.w.shape == (5, 3)

    def test_zero_scale(self, monkeypatch):
        monkeypatch.setattr(als_mod, "INIT_SCALE", 0.0)
        emb = init_embeddings(3, 3, AlsConfig(d=2), 0)
        assert np.all(emb.x == 0) and np.all(emb.w == 0)

    def test_draws_x_then_w_within_0_1(self):
        rng = np.random.default_rng(4)
        emb = init_embeddings(3, 5, AlsConfig(d=2), 4)
        assert same_bits(emb.x, rng.uniform(-0.1, 0.1, size=(3, 2)))
        assert same_bits(emb.w, rng.uniform(-0.1, 0.1, size=(2, 5)))

    def test_deterministic(self):
        a = init_embeddings(4, 4, AlsConfig(), 11)
        b = init_embeddings(4, 4, AlsConfig(), 11)
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
        mat = MaskedMatrix([[1, 2], [3, 4]], [[1.0, 0.0], [0.0, 0.0]])
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
        mat = MaskedMatrix([[1, 2], [3, 4]], np.zeros((2, 2)))
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

    @pytest.mark.parametrize("stack", [0, 4])
    def test_als_epoch_steps_along_them(self, stack):
        """The gradients that the finite differences check are the ones
        training steps along: one als_epoch gives, with ==,
        x - alpha * gx and then w - alpha * gw, gw taken at the new x."""
        alpha = 0.05
        for seed in range(20):
            matrix, emb = epoch_problem(stack, seed=seed)
            gx, _ = als_gradients(matrix, emb)
            x = emb.x - alpha * gx
            _, gw = als_gradients(matrix, EmbeddingPair(x, emb.w))
            w = emb.w - alpha * gw
            got = epoch_copy(matrix, emb, alpha)
            assert same_bits(got.x, x) and same_bits(got.w, w), seed


class TestAlsEpoch:
    def test_exact_fit_unchanged(self):
        mat = full_matrix([[3, 4], [6, 8]])
        emb = EmbeddingPair(np.array([[1.0], [2.0]]), np.array([[3.0, 4.0]]))
        out = epoch_copy(mat, emb, alpha=0.1)
        np.testing.assert_array_equal(out.x, emb.x)
        np.testing.assert_array_equal(out.w, emb.w)

    def test_zero_alpha_unchanged(self, rng):
        mat = full_matrix(rng.normal(size=(3, 3)))
        emb = init_embeddings(3, 3, AlsConfig(d=2), 0)
        out = epoch_copy(mat, emb, alpha=0.0)
        np.testing.assert_array_equal(out.x, emb.x)

    def test_zero_init_is_fixed_point(self):
        # grad_x = residual @ w.T = 0 when w = 0, then x stays 0 and so does w
        mat = full_matrix([[1.0]])
        emb = EmbeddingPair(np.zeros((1, 1)), np.zeros((1, 1)))
        out = epoch_copy(mat, emb, alpha=0.01)
        assert out.x[0, 0] == 0.0 and out.w[0, 0] == 0.0

    def test_loss_non_increasing_small_alpha(self):
        for seed in range(100):
            mat, _ = generate_synthetic(6, 6, 2, 0.0, seed=seed)
            emb = init_embeddings(6, 6, AlsConfig(d=2), seed + 500)
            before = als_loss(mat, emb)
            after = als_loss(mat, epoch_copy(mat, emb, alpha=0.001))
            assert after <= before + 1e-12


class TestAlsEpochWork:
    """als_epoch, in place, against the pure (allocating) reference; every
    comparison is ==."""

    @pytest.mark.parametrize("stack", [0, 1, 4])
    def test_in_place_equals_pure_and_reference(self, stack):
        """One pair and one work set stepped 25 times, and a fresh copy
        and fresh work each epoch, both give the reference's values."""
        matrix, emb = epoch_problem(stack, seed=stack)
        ref = pure = emb
        work_emb = EmbeddingPair(emb.x.copy(), emb.w.copy())
        work = EpochWork.like(work_emb)
        for _ in range(25):
            ref = reference_als_epoch(matrix, ref, 0.05)
            pure = epoch_copy(matrix, pure, 0.05)
            out = als_epoch(matrix, work_emb, 0.05, work)
            assert out is work_emb
        for got in (pure, work_emb):
            assert got.x.tolist() == ref.x.tolist()
            assert got.w.tolist() == ref.w.tolist()

    def test_stack_slices_equal_unstacked(self):
        stacked, emb = epoch_problem(3, seed=4)
        got = epoch_copy(stacked, emb, 0.05)
        for b in range(3):
            problem = MaskedMatrix(stacked.values[b], stacked.mask[b])
            lone = EmbeddingPair(emb.x[b], emb.w[b])
            alone = epoch_copy(problem, lone, 0.05)
            want = reference_als_epoch(problem, lone, 0.05)
            assert got.x[b].tolist() == alone.x.tolist() == want.x.tolist()
            assert got.w[b].tolist() == alone.w.tolist() == want.w.tolist()

    def test_leading_axis_views(self):
        # [:c] views of larger buffers step as whole arrays do
        matrix, emb = epoch_problem(2, seed=5)
        x, w = np.empty((5, 7, 3)), np.empty((5, 3, 6))
        x[:2], w[:2] = emb.x, emb.w
        view = EmbeddingPair(x[:2], w[:2])
        work = EpochWork(*(a[:2] for a in EpochWork.like(
            EmbeddingPair(x, w))))
        als_epoch(matrix, view, 0.05, work)
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
        cfg = AlsConfig(d=3, epochs=400)
        emb, hist = train_als(mat, cfg, init_embeddings(12, 10, cfg, 9))
        assert hist is None
        assert als_rmse(mat, emb) < 0.05

    def test_all_zero_matrix_zero_init(self):
        mat = full_matrix(np.zeros((3, 3)))
        cfg = AlsConfig(d=2, epochs=5)
        emb, hist = train_als(mat, cfg, EmbeddingPair(np.zeros((3, 2)),
                                                      np.zeros((2, 3))),
                              kfold_split(9, 3, seed=0)[0])
        assert np.all(emb.x == 0) and np.all(emb.w == 0)
        assert hist.train_loss[-1] == hist.test_loss[-1] == 0.0

    def test_deterministic(self):
        mat, _ = generate_synthetic(6, 6, 2, 0.1, seed=4)
        cfg = AlsConfig(d=2, epochs=50)
        split = kfold_split(36, 4, seed=0)[1]
        emb1, hist1 = train_als(mat, cfg, init_embeddings(6, 6, cfg, 7), split)
        emb2, hist2 = train_als(mat, cfg, init_embeddings(6, 6, cfg, 7), split)
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
            train_als(mat, cfg, init_embeddings(8, 7, cfg, 0),
                      split if with_split else None)
        assert e.value.epoch == 3  # epochs 0-2 stay finite

    def test_eval_split_excludes_test_from_training(self):
        mat, _ = generate_synthetic(5, 5, 2, 0.0, seed=8)
        split = FoldSplit(tuple(range(20)), tuple(range(20, 25)))
        cfg = AlsConfig(d=2, epochs=30)
        init = init_embeddings(5, 5, cfg, 1)
        emb1, hist1 = train_als(mat, cfg, init, split)
        # flipping values at test positions must not change the trained model
        mat2 = full_matrix(mat.values.copy())
        positions = mat.observed_positions()
        for idx in split.test_indices:
            i, j = divmod(int(positions[idx]), 5)
            mat2.values[i, j] += 100.0
        emb2, _ = train_als(mat2, cfg, init, split)
        np.testing.assert_array_equal(emb1.x, emb2.x)
        np.testing.assert_array_equal(emb1.w, emb2.w)
        assert hist1.test_loss is not None

    def test_masked_values_never_influence_training(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(4, 4))
        mask = (rng.uniform(size=(4, 4)) < 0.6).astype(float)
        mask[0, 0] = 1.0
        mat = MaskedMatrix(values, mask)
        cfg = AlsConfig(d=2, epochs=20)
        init = init_embeddings(4, 4, cfg, 5)
        emb1, _ = train_als(mat, cfg, init)
        flipped = MaskedMatrix(mat.values.copy(), mat.mask.copy())
        flipped.values[flipped.mask == 0] = 1e6
        emb2, _ = train_als(flipped, cfg, init)
        np.testing.assert_array_equal(emb1.x, emb2.x)
        np.testing.assert_array_equal(emb1.w, emb2.w)

    @pytest.mark.parametrize("stack", [0, 3])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_unobserved_values_are_never_read(self, value, stack):
        """Non-finite values at the unobserved positions, alone or in a
        stack, train to the bits that 0.0 there gives."""
        matrix, emb = epoch_problem(stack, seed=2)
        runs = []
        for v in (value, 0.0):
            values = matrix.values.copy()
            values[matrix.mask == 0] = v
            runs.append(train_als(MaskedMatrix(values, matrix.mask),
                                  AlsConfig(d=3, epochs=5), emb)[0])
        assert same_bits(runs[0].x, runs[1].x)
        assert same_bits(runs[0].w, runs[1].w)

    @pytest.mark.parametrize("stack", [0, 3])
    def test_rejects_a_matrix_with_no_observed_position(self, stack,
                                                        monkeypatch):
        """A problem with no observed position, alone or anywhere in a
        stack, raises ValueError before any epoch."""
        matrix, emb = epoch_problem(stack, seed=1)
        matrix.mask[-1 if stack else ...] = 0.0
        epochs = []
        monkeypatch.setattr(als_mod, "als_epoch",
                            lambda *args: epochs.append(args))
        with pytest.raises(ValueError, match="no observed positions"):
            train_als(matrix, AlsConfig(d=3, epochs=5), emb)
        assert not epochs


def als_curve(epochs, start_epoch, diverges=False):
    """train_als's curve on a split 6 x 6 problem; at learning rate 0.8 the
    run diverges, at its epoch 15."""
    mat, _ = generate_synthetic(6, 6, 2, 0.0, seed=4)
    cfg = AlsConfig(d=2, epochs=epochs,
                    learning_rate=0.8 if diverges else 0.01)
    return train_als(mat, cfg, init_embeddings(6, 6, cfg, 1),
                     kfold_split(36, 4, seed=0)[0], start_epoch)[1]


def mlp_curve(epochs, start_epoch, diverges=False):
    """train_mlp's curve on 12 split rows; at rmsprop learning rate 1e153
    the run diverges, at its epoch 1."""
    rng = np.random.default_rng(0)
    x, t = rng.uniform(-1.5, 1.5, size=(12, 2)), rng.uniform(-1, 1, size=12)
    cfg = MlpTrainConfig(epochs=epochs, rmsprop_learning_rate=(
        1e153 if diverges else 0.01))
    return train_mlp(init_mlp([2, 4, 1], seed=0), x, t, cfg, LossConfig(),
                     eval_split=kfold_split(12, 4, seed=0)[0],
                     start_epoch=start_epoch)[1]


class Trainer(NamedTuple):
    curve: Callable  # (epochs, start_epoch, diverges=False) -> Curve
    module: object
    epoch_step: str  # the function of module that each epoch calls


ALS = Trainer(als_curve, als_mod, "als_epoch")
MLP = Trainer(mlp_curve, mlp_mod, "backward")
TRAINERS = [pytest.param(ALS, id="train_als"),
            pytest.param(MLP, id="train_mlp")]


class TestResume:
    """start_epoch numbers a run's epochs, in train_als as in train_mlp,
    and never changes how many run; so a run resumed from its own
    embeddings for the epochs left gives the uninterrupted run."""

    def legs(self, cfg, k, split):
        mat, _ = generate_synthetic(7, 6, 2, 0.1, seed=3)
        init = init_embeddings(7, 6, cfg, 4)
        whole = train_als(mat, cfg, init, split)
        first = emb, _ = train_als(mat, replace(cfg, epochs=k), init, split)
        x, w = emb.x.copy(), emb.w.copy()
        resumed = train_als(mat, replace(cfg, epochs=cfg.epochs - k), emb,
                            split, start_epoch=k)
        # the given embeddings are copied, not trained in place
        assert (emb.x == x).all() and (emb.w == w).all()
        assert (init.x == init_embeddings(7, 6, cfg, 4).x).all()
        return whole, first, resumed

    @pytest.mark.parametrize("split", [None, FoldSplit(
        tuple(range(0, 42, 2)), tuple(range(1, 42, 2)))])
    def test_equals_uninterrupted_run(self, split):
        # 37 + 20 epochs: the legs meet inside a 32-epoch history block
        cfg = AlsConfig(d=2, epochs=57)
        (emb, curve), (_, first), (emb2, rest) = self.legs(cfg, 37, split)
        assert (emb2.x == emb.x).all() and (emb2.w == emb.w).all()
        if split is None:
            assert curve is first is rest is None
            return
        assert (rest.epoch_or_round == np.arange(37, 57)).all()
        for name, column, joined in zip(curve._fields, curve,
                                        first.then(rest)):
            assert (column == joined).all(), name

    @pytest.mark.parametrize("k", [3, 7])
    def test_divergence_epoch_counts_from_the_run_start(self, k):
        mat, _ = generate_synthetic(6, 6, 2, 0.0, seed=4)
        cfg = AlsConfig(d=2, epochs=30, learning_rate=0.6)
        init = init_embeddings(6, 6, cfg, 1)
        with np.errstate(all="ignore"):
            with pytest.raises(DivergenceError) as whole:
                train_als(mat, cfg, init)
            emb, _ = train_als(mat, replace(cfg, epochs=k), init)
            with pytest.raises(DivergenceError) as resumed:
                train_als(mat, replace(cfg, epochs=30 - k), emb,
                          start_epoch=k)
        assert k < whole.value.epoch < 30
        assert resumed.value.epoch == whole.value.epoch

    @pytest.mark.parametrize("trainer", TRAINERS)
    def test_curve_numbers_epochs_from_the_start(self, trainer):
        """A run of 5 epochs from start_epoch 7 trains and scores what one
        from 0 does, numbered 7 to 11."""
        from_0, from_7 = trainer.curve(5, 0), trainer.curve(5, 7)
        assert from_0.epoch_or_round.tolist() == list(range(5))
        assert from_7.epoch_or_round.tolist() == list(range(7, 12))
        for name, a, b in zip(from_0._fields[1:], from_0[1:], from_7[1:]):
            assert a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("trainer", TRAINERS)
    def test_divergence_epoch_counts_from_the_start(self, trainer):
        """A run of 20 epochs diverges 7 epochs later from start_epoch 7
        (for train_als, at epoch 22: all 20 epochs ran)."""
        epochs = []
        for start_epoch in (0, 7):
            with pytest.raises(DivergenceError) as e:
                trainer.curve(20, start_epoch, diverges=True)
            epochs.append(e.value.epoch)
        assert epochs[0] < 20 and epochs[1] == epochs[0] + 7

    # train_als's id is the one this case had when emb could be left out
    @pytest.mark.parametrize("trainer", [pytest.param(ALS, id="-1-True"),
                                         pytest.param(MLP, id="-1-train_mlp")])
    def test_rejects_a_start_it_cannot_resume(self, trainer, monkeypatch):
        """A negative start_epoch raises ValueError before any epoch."""
        epochs = []
        monkeypatch.setattr(trainer.module, trainer.epoch_step,
                            lambda *args: epochs.append(args))
        with pytest.raises(ValueError, match="start_epoch must be >= 0, "
                           "not -1"):
            trainer.curve(5, -1)
        assert not epochs


class TestEmbeddingShapes:
    """train_als checks the embeddings it is given against the matrix and
    cfg.d before any epoch (ELM's stacked inits pass on their last two
    axes)."""

    @pytest.mark.parametrize("shape", [(4, 3, 4), (5, 2, 4), (4, 2, 3)])
    def test_rejects_embeddings_that_do_not_fit(self, shape, monkeypatch):
        """(m, d, n): a d other than cfg.d, which trained a d = 3 model
        under d = 2, and an m or n other than the matrix's, which failed
        mid-epoch on a numpy broadcast."""
        m, d, n = shape
        mat, _ = generate_synthetic(4, 4, 2, 0.0, seed=0)
        emb = init_embeddings(m, n, AlsConfig(d=d), 0)
        epochs = []
        monkeypatch.setattr(als_mod, "als_epoch",
                            lambda *args: epochs.append(args))
        with pytest.raises(ValueError, match="do not fit a 4 x 4 matrix "
                           "at d = 2"):
            train_als(mat, AlsConfig(d=2, epochs=5), emb)
        assert not epochs


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def problem_of(stack, b):
    """Problem b of a stacked MaskedMatrix as its own MaskedMatrix."""
    return MaskedMatrix(stack.values[b], stack.mask[b])


def stacked(problems):
    """A stacked MaskedMatrix and stacked embeddings of (matrix,
    embeddings) pairs."""
    return (MaskedMatrix(*(np.stack([getattr(mat, k) for mat, _ in problems])
                    for k in ("values", "mask"))),
            EmbeddingPair(*(np.stack([getattr(emb, k) for _, emb in problems])
                            for k in ("x", "w"))))


class TestTrainStack:
    """train_als on a stacked MaskedMatrix trains each problem to the bits it has alone,
    and reports the divergence of the first problem, in stack order, that
    diverges."""

    @pytest.mark.parametrize("start_epoch", [0, 7])
    def test_equals_each_problem_alone(self, start_epoch):
        stack, emb = epoch_problem(4, seed=20)
        assert stack.shape == (7, 6)  # one problem's, as for a MaskedMatrix
        cfg = AlsConfig(d=3, epochs=40, learning_rate=0.05)
        got, curve = train_als(stack, cfg, emb, start_epoch=start_epoch)
        assert curve is None and got.x.shape == (4, 7, 3)
        assert np.isfinite(got.x).all() and np.isfinite(got.w).all()
        for b in range(4):
            want, _ = train_als(problem_of(stack, b), cfg,
                                EmbeddingPair(emb.x[b], emb.w[b]),
                                start_epoch=start_epoch)
            assert same_bits(got.x[b], want.x) and same_bits(got.w[b], want.w)

    def test_split_rejected_before_any_epoch(self, monkeypatch):
        stack, emb = epoch_problem(2, seed=3)
        split = kfold_split(int(stack.mask[0].sum()), 2, seed=0)[0]
        epochs = []
        monkeypatch.setattr(als_mod, "als_epoch",
                            lambda *args: epochs.append(args))
        with pytest.raises(ValueError, match="stacked matrix"):
            train_als(stack, AlsConfig(d=3, epochs=5), emb, split)
        assert not epochs

    @staticmethod
    def problems():
        """At learning rate 0.8 and d = 2, by the stepped oracle: a 6 x 6
        problem that does not diverge, one that diverges late and one that
        diverges early."""
        def problem(seed, scale):
            # init_embeddings's draws, from seed 1, at this scale
            mat, _ = generate_synthetic(6, 6, 2, 0.0, seed=seed)
            rng = np.random.default_rng(1)
            x = rng.uniform(-scale, scale, size=(6, 2))
            return mat, EmbeddingPair(x, rng.uniform(-scale, scale,
                                                     size=(2, 6)))
        return {"stays": problem(1, 1.0), "late": problem(1, 0.1),
                "early": problem(0, 1.0)}

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("order", [
        ("stays", "late", "early"), ("early", "late", "stays"),
        ("stays", "early", "late", "stays")])
    def test_first_divergence_in_stack_order(self, order):
        cfg = AlsConfig(d=2, epochs=60, learning_rate=0.8)
        problems, epochs = self.problems(), {}
        for name, (mat, emb) in problems.items():
            try:
                stepped_als(mat, cfg, emb)
            except DivergenceError as e:
                epochs[name] = e.epoch
        assert epochs.keys() == {"late", "early"}
        assert epochs["late"] > epochs["early"] + 10
        stack, emb = stacked([problems[name] for name in order])
        with pytest.raises(DivergenceError) as e:
            train_als(stack, cfg, emb)
        first = next(name for name in order if name in epochs)
        assert e.value.epoch == epochs[first]


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestDivergenceEpoch:
    """train_als, which checks finiteness once, raises DivergenceError at
    the epoch where the stepped oracle, which checks every epoch, does."""

    @pytest.mark.parametrize("seed, learning_rate", [
        (0, 0.6), (1, 0.8), (2, 1.5), (0, 100.0)])
    @pytest.mark.parametrize("leg", ["unsplit", "split", "resumed",
                                     "numbered"])
    def test_matches_stepped_oracle(self, seed, learning_rate, leg):
        mat, _ = generate_synthetic(6, 6, 2, 0.0, seed=seed)
        cfg = AlsConfig(d=2, epochs=60, learning_rate=learning_rate)
        split, trained, start_epoch = None, mat, 0
        emb = init_embeddings(6, 6, cfg, 1)
        if leg == "split":
            split = kfold_split(36, 4, seed=seed)[0]
            trained = mat.with_mask(
                mat.observed_positions()[split.train_indices])
        elif leg == "resumed":  # epochs 2 to 59, from the run's epoch 2
            start_epoch = 2
            emb, _ = train_als(mat, replace(cfg, epochs=start_epoch), emb)
            cfg = replace(cfg, epochs=cfg.epochs - start_epoch)
        elif leg == "numbered":  # all 60 epochs, numbered 50 to 109
            start_epoch = 50
        with pytest.raises(DivergenceError) as want:
            stepped_als(trained, cfg, emb, start_epoch)
        with pytest.raises(DivergenceError) as got:
            train_als(mat, cfg, emb, split, start_epoch)
        assert got.value.epoch == want.value.epoch

    def test_a_replay_that_stays_finite_is_an_error(self, monkeypatch):
        """A NaN put into the first pass only: the replay that looks for
        its epoch finds none, which is a fault, not a divergence."""
        epoch_fn, calls = als_mod.als_epoch, []

        def poisoned_once(matrix, emb, *args):
            epoch_fn(matrix, emb, *args)
            calls.append(None)
            if len(calls) == 5:
                emb.x[0, 0] = np.nan
            return emb
        monkeypatch.setattr(als_mod, "als_epoch", poisoned_once)
        mat, _ = generate_synthetic(6, 6, 2, 0.1, seed=3)
        cfg = AlsConfig(d=2, epochs=10)
        with pytest.raises(RuntimeError, match="replay did not") as e:
            train_als(mat, cfg, init_embeddings(6, 6, cfg, 0))
        assert type(e.value) is RuntimeError
        assert len(calls) == 20  # the run, then its replay
