"""Tests of the benchmark harness itself; they keep it from rotting.

    python3 -m pytest perfbench -q

Every workload runs at smoke size (a 6x5 matrix, 3 epochs, one repeat),
untraced and traced, and must emit every metric BENCHMARK.json names.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
LAYERS = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
E2E = {m["name"] for m in SPEC["end_to_end"]}

# Figures printed by name beside the JSON result, per workload.
PRINTED = {
    "cv-history": ("folds_per_s", "failed_frac", "cv_rmse_als",
                   "cv_rmse_alsdl", "cv_accuracy_alsdl"),
    "al-elm": ("rounds_per_s", "elm_candidates_per_s", "failed_frac",
               "al_final_rmse", "al_final_accuracy"),
}


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_metric(workload, trace):
    p = bench("--workload", workload, "--seed", "3", "--seconds", "1",
              "--trace", str(trace), "--smoke")
    assert p.returncode == 0, p.stderr
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 1 + trace

    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
    human = "\n".join(lines[:-1])
    for name in (*E2E, *PRINTED[workload]):
        assert f" {name} " in human


def test_refuses_without_program():
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        p = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert p.returncode != 0
    assert p.stdout.strip() == ""


def test_layer_map_covers_every_layer_metric():
    assert list(LAYERS) == [m["name"] for m in SPEC["per_layer"]]
    for info in LAYERS.values():
        for metric, workload in info["moves"]:
            assert metric in E2E and workload in WORKLOADS


def test_self_time_excludes_children_and_counted_calls(monkeypatch):
    clock = iter(range(100))
    monkeypatch.setattr(tracer, "_perf", lambda: next(clock))
    t = tracer.Tracer()
    leaf = t.counted("als.als_epoch", lambda: None)
    inner = t.span("als.train_als", lambda: [leaf(), leaf()],
                   attrs=lambda a, k, r: dict(m=2, n=3, d=1,
                                              simultaneous=False))
    t.run(t.span("alsdl.train_alsdl", inner))
    got = tracer.layer_metrics(t.spans)
    # clock ticks: root 0, outer 1, inner 2, leaf 3-4, leaf 5-6, inner 7,
    # outer 8, root 9
    assert got["als.epochs"] == 2
    assert got["als.als_epoch_s"] == 2
    assert got["als.train_als_s"] == 5
    assert got["als.history_s"] == 3
    assert got["alsdl.train_alsdl_s"] == 7
    assert got["alsdl.features_s"] == 2
    assert got["als.flop_computed"] == 2 * tracer.als_epoch_flop(2, 3, 1, False)



def test_reference_wall_scales_by_probe_speed():
    import run
    ref = run.PROBE_REFERENCE_S
    # the host ran at full speed for one probe and at half for the other:
    # mean speed 0.75 of the reference, applied to the study less probes
    repeat = {"wall_s": 10.0 + 3 * ref, "probe_in_study_s": 3 * ref,
              "probe_s": [ref, 2 * ref]}
    assert math.isclose(run.reference_wall_s(repeat), 7.5)
