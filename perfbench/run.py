"""alsal benchmark: end-to-end studies, output checks and a traced run.

    python3 perfbench/run.py --workload cv-history --seed 1 --seconds 45
    python3 perfbench/run.py --workload al-elm --seed 1 --seconds 45 --trace 1
    python3 perfbench/run.py --workload al-elm --smoke

Run it from the repository root. One run:

1. writes a seeded LINCS-layout CSV (gen_input.py) into .perfbench_work/;
2. runs the workload's study through `alsal.cli.main`, one fresh
   interpreter per repeat, one repeat at a time (a closed loop with one
   client), until --seconds is used up, and checks every repeat's output;
3. before every repeat, times set-up (`import alsal` plus
   `runner.load_matrices`) three times, each in a fresh interpreter;
4. with --trace 1, alternates untraced and traced repeats and reports the
   per-module figures of the traced ones instead of the end-to-end ones.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics. Metric names, units and bounds come from BENCHMARK.json
at the repository root; what each per-module figure should move is in
layers.json beside this file. Timings are wall-clock on a shared machine
whose cores are not pinned and whose speed changes from second to second,
so untraced study times are scaled to a reference speed measured beside
them (see `reference_wall_s`) and reported as medians. numpy's BLAS
threading is left at its default and recorded.
"""

import argparse
import csv
import hashlib
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen_input

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_PER_REPEAT = 3
# The speed probe's time (worker.SpeedProbe) when the host runs at full
# speed: about its fastest percentile on the 2-vCPU machine the benchmark
# was tuned on. It only sets the scale of the reference time.
PROBE_REFERENCE_S = 0.002
# A run must end within 180 s; no worker is waited for past this.
RUN_LIMIT_S = 170

# Study arguments per workload; the dataset, target, concentration, config
# file and output directory are added by `study_argv`. Everything else is
# alsal's default or STUDY_CONFIG, which PAPER_SETTINGS pins.
WORKLOADS = {
    # Table-1 path: 10-fold ALS vs ALSDL with per-epoch history; no ELM.
    "cv-history": ("benchmark", "--models", "als,alsdl", "--folds", "10",
                   "--seeds", "0"),
    # ELM active learning, default budgets (8 query rounds): each query
    # retrains a no-history ALS model per scored candidate.
    "al-elm": ("al-study", "--strategy", "elm", "--seeds", "0,1"),
}
# Candidates one ELM query scores, a seeded subsample of the ~1,150-position
# pool, so that one run holds dozens of queries and their median is steady.
ELM_CANDIDATES = 96
STUDY_CONFIG = {"active": {"elm_candidate_subsample": ELM_CANDIDATES}}
# What `work_per_s` counts on each workload, and which quality figures
# are reported as `quality_rmse` and `quality_accuracy`.
WORK_UNIT = {"cv-history": "folds", "al-elm": "elm_candidates"}
HEADLINE_QUALITY = {
    "cv-history": ("cv_rmse_alsdl", "cv_accuracy_alsdl"),
    "al-elm": ("al_final_rmse", "al_final_accuracy"),
}
SMOKE_ARGS = ("--als-epochs", "3", "--mlp-epochs", "3", "--embedding-dim", "2")
SMOKE_STUDY_ARGS = {
    "benchmark": ("--folds", "3"),
    "al-study": ("--n-init", "4", "--n-per-query", "2", "--n-max-query", "2",
                 "--elm-inner-epochs", "3"),
}
SMOKE_INPUT = dict(n_cells=6, n_molecules=5, rank=2, concentrations=(0.1, 1.0),
                   partial=(0.1,), missing_per_conc=2)

# The paper's model settings, and the benchmark's ELM subsample, checked
# against each run's manifest so that a change of alsal's defaults cannot
# silently change the work measured.
PAPER_SETTINGS = {
    "als.d": 5, "als.learning_rate": 0.01, "als.epochs": 400,
    "alsdl.als.d": 5, "alsdl.als.epochs": 200, "alsdl.mlp_train.epochs": 200,
    "alsdl.hidden_sizes": [20, 10, 5], "alsdl.loss.beta": 0.1,
    "active.n_init": 40, "active.n_per_query": 40,
    "active.n_max_query": 8, "active.elm_inner_epochs": 200,
    "active.elm_candidate_subsample": ELM_CANDIDATES,
}

CSV_FILES = ("learning_curves.csv", "training_curves.csv", "cv_summary.csv")
NUMERIC = {
    "training_curves.csv": ("train_loss", "test_loss", "train_accuracy",
                            "test_accuracy"),
    "cv_summary.csv": ("mean_test_loss", "mean_test_accuracy"),
    "learning_curves.csv": ("round", "n_labeled", "full_rmse",
                            "full_accuracy"),
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def _get(cfg, dotted):
    for key in dotted.split("."):
        cfg = cfg[key]
    return cfg


# ---------------------------------------------------------------- workers

def _worker(args, deadline):
    """Run worker.py in a fresh interpreter; returns (result dict or None, err).

    The worker is killed at `deadline` (a time.perf_counter() value).
    """
    timeout = max(1.0, deadline - time.perf_counter())
    out = Path(args[1])
    out.unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"worker killed after {timeout:.0f} s"
    if proc.returncode != 0 or not out.exists():
        return None, (proc.stderr or proc.stdout)[-2000:]
    with open(out, encoding="utf-8") as f:
        return json.load(f), ""


def study_argv(workload, csv_path, config_path, out_dir, smoke):
    command, *args = WORKLOADS[workload]
    argv = [command, "--dataset", str(csv_path), "--target", "gr",
            "--concentrations", repr(gen_input.STUDY_CONCENTRATION),
            "--config", str(config_path), *args, "--out", str(out_dir)]
    if smoke:
        argv += [*SMOKE_ARGS, *SMOKE_STUDY_ARGS[command]]
    return argv


# ---------------------------------------------------------- output check

def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def _split_mean(rows):
    own = [r for r in rows if r["concentration"] != "mean"]
    return own, len(rows) - len(own)


def check_outputs(out_dir, workload, n_positions, smoke, reference, bounds):
    """Check one repeat's report; returns (problems, quality, counts, hashes).

    `counts` holds the units of work done: folds (cv-history), AL rounds
    and ELM candidates scored (al-elm).
    """
    problems, quality, counts = [], {}, {}
    out_dir = Path(out_dir)
    hashes = {}
    try:
        with open(out_dir / "manifest.json", encoding="utf-8") as f:
            cfg = json.load(f)["config"]
        tables = {}
        for name in CSV_FILES:
            raw = (out_dir / name).read_bytes()
            hashes[name] = hashlib.sha256(raw).hexdigest()
            tables[name] = _read_csv(out_dir / name)
    except (OSError, ValueError, KeyError) as e:
        return [f"report unreadable: {e}"], quality, counts, hashes

    if not smoke:
        for key, want in PAPER_SETTINGS.items():
            got = _get(cfg, key)
            if got != want:
                problems.append(f"config {key} = {got!r}, want {want!r}")

    for name, rows in tables.items():
        for row in rows:
            for col, value in row.items():
                if "diverged" in (value or ""):
                    problems.append(f"{name}: {col} = {value}")
            for col in NUMERIC[name]:
                try:
                    ok = math.isfinite(float(row[col]))
                except (KeyError, TypeError, ValueError):
                    ok = False
                if not ok:
                    problems.append(f"{name}: {col} = {row.get(col)!r}")
                    break

    def expect_rows(name, want):
        own, n_mean = _split_mean(tables[name])
        if len(own) != want or n_mean not in (0, want):
            problems.append(f"{name}: {len(own)} rows (+{n_mean} mean), "
                            f"want {want} (+0 or {want})")
        return own

    seeds, q = cfg["seeds"], cfg["active"]["n_max_query"]
    if WORKLOADS[workload][0] == "benchmark":
        per_fold = {"als": cfg["als"]["epochs"],
                    "alsdl": (cfg["alsdl"]["als"]["epochs"]
                              + cfg["alsdl"]["mlp_train"]["epochs"])}
        models = cfg["models"]
        counts["folds"] = cfg["folds"] * len(models) * len(seeds)
        expect_rows("training_curves.csv", cfg["folds"] * len(seeds)
                    * sum(per_fold[m] for m in models))
        summary = expect_rows("cv_summary.csv", len(models) * len(seeds))
        expect_rows("learning_curves.csv", 0)
        for m in models:
            rows = [r for r in summary if r["model"] == m]
            if rows and not problems:
                quality[f"cv_rmse_{m}"] = statistics.fmean(
                    float(r["mean_test_loss"]) for r in rows)
                quality[f"cv_accuracy_{m}"] = statistics.fmean(
                    float(r["mean_test_accuracy"]) for r in rows)
    else:
        strategies = cfg["strategies"]
        curve = expect_rows("learning_curves.csv",
                            len(strategies) * len(seeds) * (q + 1))
        expect_rows("training_curves.csv", 0)
        expect_rows("cv_summary.csv", 0)
        if not problems:
            n_init, step = cfg["active"]["n_init"], cfg["active"]["n_per_query"]
            for r in curve:
                if int(r["n_labeled"]) != n_init + step * int(r["round"]):
                    problems.append(f"learning_curves.csv: round {r['round']} "
                                    f"has n_labeled {r['n_labeled']}")
                    break
            last = [r for r in curve if int(r["round"]) == q]
            quality["al_final_rmse"] = statistics.fmean(
                float(r["full_rmse"]) for r in last)
            quality["al_final_accuracy"] = statistics.fmean(
                float(r["full_accuracy"]) for r in last)
            counts["rounds"] = len(curve)
            subsample = cfg["active"]["elm_candidate_subsample"]
            counts["elm_candidates"] = sum(
                min(n_positions - int(r["n_labeled"]), subsample)
                for r in curve
                if r["strategy"] == "elm" and int(r["round"]) < q)

    if not smoke and not problems:
        for name, ref in reference[workload].items():
            kind = "rmse" if "rmse" in name else "accuracy"
            got = quality[name]
            worse = (got - ref if kind == "rmse" else ref - got) / ref
            if worse > bounds[kind]:
                problems.append(f"{name} = {got:.4f} is {worse:.1%} worse than "
                                f"the reference {ref:.4f}")
    return problems, quality, counts, hashes


# ------------------------------------------------------------ environment

def environment(numpy_env):
    env = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                             "MKL_NUM_THREADS")},
        "timing_note": "wall-clock on a shared machine, cores not pinned",
        **numpy_env,
    }
    if (ROOT / ".git").exists():
        def git(*args):
            r = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                               text=True, timeout=30)
            return r.stdout.strip() if r.returncode == 0 else None
        env["git_revision"] = git("rev-parse", "HEAD")
        status = git("status", "--porcelain")
        env["git_dirty"] = None if status is None else bool(status)
    else:
        env["git_revision"] = env["git_dirty"] = None
    return env


# -------------------------------------------------------------------- run

def at_reference_speed(seconds, probes):
    """A measured time scaled to the reference speed, in seconds.

    The host runs the same code up to twice as slow from one second to the
    next (CPU time slows with it). The worker times a fixed probe kernel
    during or right after what it measures; the time is scaled by the mean
    of PROBE_REFERENCE_S over each probe's time: the seconds it would take
    with the host at the reference speed.
    """
    return seconds * statistics.fmean(PROBE_REFERENCE_S / p for p in probes)


def reference_wall_s(repeat):
    """A study's wall time, less the probes' own, at the reference speed."""
    return at_reference_speed(repeat["wall_s"] - repeat["probe_in_study_s"],
                              repeat["probe_s"])


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    with open(HERE / "reference.json", encoding="utf-8") as f:
        reference = json.load(f)
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    bounds = {"rmse": bound["quality_rmse"],
              "accuracy": bound["quality_accuracy"]}
    return spec, reference, bounds


def run(workload, seed, seconds, trace, smoke):
    deadline = time.perf_counter() + RUN_LIMIT_S
    spec, reference, bounds = load_spec()
    work = WORK / workload / f"seed{seed}-trace{trace}{'-smoke' * smoke}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    load_before = os.getloadavg()

    csv_path = work / "input.csv"
    made = gen_input.generate(csv_path, seed, **(SMOKE_INPUT if smoke else {}))
    config_path = work / "config.json"
    config_path.write_text(json.dumps(STUDY_CONFIG), encoding="utf-8")
    conc = repr(gen_input.STUDY_CONCENTRATION)

    # an untimed set-up that warms the caches and checks ingestion
    res = work / "setup.json"
    warm, err = _worker(["setup", str(res), str(csv_path), conc, "--check"],
                        deadline)
    if warm is None:
        raise RuntimeError(f"set-up failed: {err}")
    if not Path(warm["alsal_file"]).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"imported alsal from {warm['alsal_file']}, "
                           f"not from {ROOT / 'src'}")
    ingest_problems = [
        f"ingestion found {key} = {warm[key]}, want {want}"
        for key, want in (("observations", made["rows"]),
                          ("fully_covered", made["fully_covered"]),
                          ("observed", made["pairs"]))
        if warm[key] != want]
    # Studies run until the time is used up, rounding to the nearest whole
    # repeat; with tracing they alternate untraced and traced and end on a
    # traced one. Set-up samples are taken before every repeat, so that
    # they spread over the run as the repeats do.
    setups, repeats, failures, hashes = [], [], [], set()
    t_start = time.perf_counter()
    for i in itertools.count():
        for _ in range(1 if smoke else SETUP_PER_REPEAT):
            r, err = _worker(["setup", str(res), str(csv_path), conc],
                             deadline)
            if r is None:
                raise RuntimeError(f"set-up failed: {err}")
            r["reference_setup_s"] = at_reference_speed(r["setup_s"],
                                                        r["probe_s"])
            setups.append(r)

        out_dir = work / f"study{i}"
        traced = bool(trace) and i % 2 == 1
        trace_path = str(work / f"trace{i}.json") if traced else "-"
        load = os.getloadavg()[0]
        r, err = _worker(["study", str(work / f"study{i}.json"), trace_path,
                          *study_argv(workload, csv_path, config_path, out_dir,
                                     smoke)],
                         deadline)
        if r is None:
            failures.append(f"repeat {i}: {err.strip().splitlines()[-1:]}")
            log(f"repeat {i} failed:\n{err}")
        else:
            try:
                problems, quality, units, h = check_outputs(
                    out_dir, workload, made["pairs"], smoke, reference, bounds)
            except (KeyError, TypeError, ValueError) as e:
                problems = [f"report not understood: {e!r}"]
                quality, units, h = {}, {}, {}
            hashes.add(tuple(sorted(h.items())))
            if problems:
                failures.append(f"repeat {i}: {problems[:3]}")
                log(f"repeat {i} failed the output check: {problems[:10]}")
            else:
                r.update(quality=quality, counts=units, traced=traced,
                         csv_sha256=h, loadavg=[load, os.getloadavg()[0]])
                repeats.append(r)
        shutil.rmtree(out_dir, ignore_errors=True)
        if trace and not traced:
            continue
        elapsed = time.perf_counter() - t_start
        if smoke or elapsed * (1 + 0.5 / (i + 1)) > seconds:
            break
    attempted = i + 1
    failed = len(failures)
    if len(hashes) > 1:
        failures.append("data CSVs differ between repeats of one seed")
        failed = attempted

    untraced = [r for r in repeats if not r["traced"]]
    traced = [r for r in repeats if r["traced"]]
    if not untraced or (trace and not traced):
        raise RuntimeError(f"no successful repeat: {failures}")

    quality = untraced[0]["quality"]
    rmse_name, accuracy_name = HEADLINE_QUALITY[workload]
    for r in untraced:
        r["reference_wall_s"] = reference_wall_s(r)
    wall_s = statistics.median(r["reference_wall_s"] for r in untraced)
    e2e = {
        "wall_s": wall_s,
        "setup_s": statistics.median(r["reference_setup_s"] for r in setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        "work_per_s": untraced[0]["counts"][WORK_UNIT[workload]] / wall_s,
        "quality_rmse": quality[rmse_name],
        "quality_accuracy": quality[accuracy_name],
    }
    if trace:
        values = {k: statistics.median(r["layers"][k] for r in traced)
                  for k in traced[0]["layers"]}
        # both measured, without the untraced repeats' probe time
        values["trace.overhead_frac"] = (
            statistics.median(r["wall_s"] for r in traced)
            / statistics.median(r["wall_s"] - r["probe_in_study_s"]
                                for r in untraced) - 1)
        wanted = spec["per_layer"]
    else:
        values, wanted = e2e, spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    correct = not failures and not ingest_problems
    env = environment({k: warm[k] for k in ("numpy", "blas", "blas_threads")})
    env["loadavg_before"] = load_before
    env["loadavg_after"] = os.getloadavg()
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "smoke": smoke, "input": made, "setups": setups,
        "repeats": repeats, "failures": failures,
        "ingest_problems": ingest_problems, "environment": env,
        "end_to_end": e2e,
        "layers": values if trace else None,
    }
    with open(work / "result.json", "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1)
    csv_path.unlink()

    _print_human(workload, untraced, traced, setups, e2e, quality, spec,
                 values, env, failures + ingest_problems, failed / attempted)
    return {"correct": correct, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def _print_human(workload, untraced, traced, setups, e2e, quality, spec,
                 values, env, problems, failed_frac):
    def spread(runs, key):
        v = [r[key] for r in runs]
        return (f"min {min(v):.3f} median {statistics.median(v):.3f} "
                f"max {max(v):.3f} s")
    probes = [p for r in untraced for p in r["probe_s"]]
    print(f"workload {workload}: {len(untraced)} untraced repeat(s); study "
          f"wall time measured {spread(untraced, 'wall_s')}, at the "
          f"reference speed {spread(untraced, 'reference_wall_s')}; "
          f"{len(setups)} set-up(s) measured {spread(setups, 'setup_s')}, at "
          f"the reference speed {spread(setups, 'reference_setup_s')}; speed "
          f"probe median {1e3 * statistics.median(probes):.3f} ms over "
          f"{len(probes)} in the studies, reference "
          f"{1e3 * PROBE_REFERENCE_S:.3f} ms")
    for m in spec["end_to_end"]:
        print(f"  {m['name']:<24} {e2e[m['name']]:.6g} {m['unit']}")
    for unit, n in untraced[0]["counts"].items():
        if n:
            rate = n / e2e["wall_s"]
            print(f"  {unit + '_per_s':<24} {rate:.6g} 1/s")
    print(f"  {'failed_frac':<24} {failed_frac:.6g} ratio")
    for k, v in quality.items():
        print(f"  {k:<24} {v:.6g}")
    for name, digest in untraced[0]["csv_sha256"].items():
        print(f"  sha256 {name:<22} {digest}")
    if traced:
        for m in spec["per_layer"]:
            print(f"  {m['name']:<32} {values[m['name']]:.6g} {m['unit']}")
    print(f"  env python {env['python']} numpy {env['numpy']} "
          f"blas_threads {env['blas_threads']} cpus {env['cpu_count']} "
          f"affinity {env['affinity']} load {env['loadavg_before'][0]:.2f}"
          f"->{env['loadavg_after'][0]:.2f} "
          f"git {env['git_revision'] or 'unknown (not a git checkout)'}"
          f"{' (dirty)' if env['git_dirty'] else ''}; {env['timing_note']}")
    for p in problems:
        print(f"  FAILED: {p}")
    missing = sorted({name for r in traced for name in r["unpatched"]})
    if missing:
        print(f"  WARNING: not traced, no longer in alsal: {missing}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs and one repeat, to check the harness")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "alsal" / "__init__.py").is_file():
        log(f"error: no alsal sources under {ROOT / 'src'}; run the benchmark "
            "from a full checkout of the repository")
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace,
                     args.smoke)
    except RuntimeError as e:
        log(f"error: {e}")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
