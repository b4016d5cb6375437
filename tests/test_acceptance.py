"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Dataset-conditional checks run only when ALSAL_DATASET points at the real
sensitivity CSV; otherwise they are skipped with a reason.
"""

import os
import time

import numpy as np
import pytest

from alsal.active import ActiveConfig, init_state, query_elm, run_active_learning
from alsal.als import AlsConfig, EmbeddingPair, init_embeddings, train_als
from alsal.alsdl import AlsdlConfig, train_alsdl
from alsal.data import MaskedMatrix, generate_synthetic
from alsal.mlp import LossConfig, MlpTrainConfig, init_mlp, predict_batch
from alsal.runner import (ExperimentConfig, SyntheticSpec, run_al_study,
                          run_benchmark)

from oracles import als_gradients, als_rmse, sign_penalty
from test_als import finite_difference_gradients
from test_mlp import fd_gradient, gradient, rel_error
from test_active import brute_force_elm, fast_model_cfg

DATASET = os.environ.get("ALSAL_DATASET")
needs_dataset = pytest.mark.skipif(
    not DATASET, reason="set ALSAL_DATASET to the sensitivity CSV path")


def report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {status}: {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_als_gradient_correctness():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        m, n = rng.integers(2, 9, size=2)
        d = int(rng.integers(1, 5))
        values = rng.uniform(-1, 1, size=(m, n))
        mask = (rng.uniform(size=(m, n)) < 0.7).astype(float)
        mask[0, 0] = 1.0
        mat = MaskedMatrix(values, mask)
        emb = EmbeddingPair(rng.uniform(-1, 1, size=(m, d)),
                            rng.uniform(-1, 1, size=(d, n)))
        gx, gw = als_gradients(mat, emb)
        fx, fw = finite_difference_gradients(mat, emb, step=1e-5)
        a = np.concatenate([gx.ravel(), gw.ravel()])
        f = np.concatenate([fx.ravel(), fw.ravel()])
        worst = max(worst, np.linalg.norm(a - f) / max(np.linalg.norm(f), 1e-12))
    elapsed = time.time() - t0
    report("ALS gradient correctness", worst < 1e-5 and elapsed < 10,
           f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_mlp_gradient_correctness():
    t0 = time.time()
    cfg = LossConfig(beta=0.1)
    rng = np.random.default_rng(77)
    worst = 0.0
    for seed in range(20):
        model = init_mlp([4, 5, 3, 1], seed=seed)
        x = rng.uniform(-1, 1, size=(8, 4))
        t = rng.uniform(-1, 1, size=8)
        worst = max(worst, rel_error(gradient(model, x, t, cfg),
                                     fd_gradient(model, x, t, cfg)))
    elapsed = time.time() - t0
    report("MLP gradient correctness", worst < 1e-4 and elapsed < 10,
           f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_penalty_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(5)
    pairs = rng.uniform(-3, 3, size=(10_000, 2))
    # the penalty at the boundary 0 is +1 where pred and truth fall in one
    # class, -1 where they fall in two
    ok = all(sign_penalty(p, t) == int(np.sign(p)) * int(np.sign(t))
             for p, t in pairs)
    elapsed = time.time() - t0
    report("penalty equivalence (k=1)", ok and elapsed < 1.0,
           f"{elapsed:.2f}s")


def test_rank_recovery():
    t0 = time.time()
    mat, _ = generate_synthetic(35, 34, 5, 0.0, seed=101)
    cfg = AlsConfig(d=5, learning_rate=0.01, epochs=400)
    emb, _ = train_als(mat, cfg, init_embeddings(35, 34, cfg, 202))
    elapsed = time.time() - t0
    final = als_rmse(mat, emb)
    report("rank recovery", final < 0.05 and elapsed < 30,
           f"train RMSE {final:.2e}, {elapsed:.1f}s")


def test_elm_oracle_equivalence():
    t0 = time.time()
    mismatches = []
    for seed in range(20):
        mat, _ = generate_synthetic(4, 4, 1, 0.0, seed=seed)
        cfg = ActiveConfig(n_init=8, elm_inner_epochs=50)
        state = init_state(mat, cfg, seed)
        model, _ = train_alsdl(mat.with_mask(state.labeled),
                               fast_model_cfg(), seed + 40)
        got = query_elm(state, model, 1, cfg, inner_seed=seed + 9)
        expected = brute_force_elm(state, model, cfg, inner_seed=seed + 9)
        if got.tolist() != [expected]:
            mismatches.append(seed)
    elapsed = time.time() - t0
    report("ELM oracle equivalence", not mismatches and elapsed < 60,
           f"mismatched seeds {mismatches}, {elapsed:.1f}s")


def test_strategy_ordering_statistical():
    t0 = time.time()
    model_cfg = AlsdlConfig(als=AlsConfig(d=2, epochs=150),
                            mlp_train=MlpTrainConfig(epochs=100),
                            hidden_sizes=(8, 4))
    finals = {"elm": [], "random": []}
    for seed in range(20):
        mat, _ = generate_synthetic(10, 10, 2, 0.1, seed=seed)
        for strategy in finals:
            cfg = ActiveConfig(n_init=10, n_per_query=10, n_max_query=4,
                               elm_inner_epochs=100)
            curve, _ = run_active_learning(mat, model_cfg, cfg, strategy,
                                           seed)
            finals[strategy].append(curve[-1].full_rmse)
    elm, rand = np.mean(finals["elm"]), np.mean(finals["random"])
    elapsed = time.time() - t0
    report("strategy ordering (ELM <= random)", elm <= rand and elapsed < 600,
           f"elm {elm:.4f} vs random {rand:.4f}, {elapsed:.0f}s")


def test_runner_determinism(tmp_path):
    cfg_kwargs = dict(
        synthetic=SyntheticSpec(m=6, n=6, rank=2, noise_sd=0.1),
        seeds=(0, 1), strategies=("random", "elm"),
        alsdl=AlsdlConfig(als=AlsConfig(d=2, epochs=15),
                          mlp_train=MlpTrainConfig(epochs=15),
                          hidden_sizes=(6, 3)),
        active=ActiveConfig(n_init=6, n_per_query=6, n_max_query=1,
                            elm_inner_epochs=10))
    dirs = [tmp_path / "x", tmp_path / "y"]
    for out in dirs:
        run_al_study(ExperimentConfig(**cfg_kwargs), out)
    same = all((dirs[0] / f).read_bytes() == (dirs[1] / f).read_bytes()
               for f in ("learning_curves.csv", "training_curves.csv",
                         "cv_summary.csv"))
    report("runner determinism", same)


@needs_dataset
def test_table1_reproduction(tmp_path):
    t0 = time.time()
    cfg = ExperimentConfig(dataset_path=DATASET, targets=("gr",),
                           seeds=(0,), folds=10)
    rep = run_benchmark(cfg)
    by_model = {}
    for row in rep["cv_summary"]:
        by_model.setdefault(row["model"], []).append(row)
    als_loss = np.mean([r["mean_test_loss"] for r in by_model["als"]])
    als_acc = np.mean([r["mean_test_accuracy"] for r in by_model["als"]])
    dl_loss = np.mean([r["mean_test_loss"] for r in by_model["alsdl"]])
    dl_acc = np.mean([r["mean_test_accuracy"] for r in by_model["alsdl"]])
    elapsed = time.time() - t0
    ok = (dl_acc > als_acc and dl_loss < als_loss
          and abs(dl_loss - 0.1601) <= 0.05 and abs(dl_acc - 0.8725) <= 0.05
          and elapsed < 1800)
    report("Table 1 reproduction (GR)", ok,
           f"als {als_loss:.4f}/{als_acc:.4f}, alsdl {dl_loss:.4f}/{dl_acc:.4f}, "
           f"{elapsed:.0f}s")


@needs_dataset
def test_budget_arithmetic():
    cfg = ExperimentConfig(dataset_path=DATASET, targets=("gr",),
                           seeds=(0,), strategies=("random",))
    rep = run_al_study(cfg)
    runs = {}
    for row in rep["learning_curves"]:
        key = (row["target"], row["concentration"], row["strategy"], row["seed"])
        runs.setdefault(key, []).append(row)
    ok = all(len(rows) == 9 and rows[-1]["n_labeled"] == 360
             for rows in runs.values())
    report("budget arithmetic (9 points, 360 labels)", ok)
