"""One benchmark repeat, run by run.py in a fresh interpreter.

    python3 worker.py setup RESULT.json CSV CONCENTRATION [--check]
    python3 worker.py study RESULT.json TRACE.json|- ARGV...

`setup` times `import alsal` plus `runner.load_matrices` for the workload's
config, the cost a user pays before the first model trains, then times the
speed probe a few times; with --check it also reports what ingestion
kept, and the BLAS build numpy uses.
`study` times `alsal.cli.main(ARGV)`, from the call to the written report,
and samples the host's speed throughout with a fixed probe kernel (see
SpeedProbe); with a trace path it wraps alsal's functions instead (see
tracer.py) and writes the spans and per-module figures there.

Only the standard library is imported before the timed region starts, so
that numpy's import is part of setup_s.
"""

import json
import resource
import sys
import time


# The speed probe: a fixed piece of work with the same mix as alsal's hot
# paths, run every PROBE_INTERVAL_S of a study. How long it takes says how
# fast the host runs at that moment. It has two halves: ALS-like steps of
# small numpy array operations on a 35x34 matrix (as in `als.als_epoch`),
# and a sign penalty on numpy scalars in an interpreter loop (as in
# `mlp.penalized_loss`). The host slows these two kinds of work unequally,
# and the ELM and cross-validation studies lean on one or the other.
PROBE_INTERVAL_S = 0.1
# probes taken right after each set-up sample
SETUP_PROBES = 5
PROBE_ALS_STEPS = 60
PROBE_PENALTY_PASSES = 15


def _probe_kernel(y, m, x0, w0):
    import numpy as np
    x, w = x0, w0
    for _ in range(PROBE_ALS_STEPS):
        r = m * (x @ w - y)
        x = x - 0.01 * (r @ w.T)
        r = m * (x @ w - y)
        w = w - 0.01 * (x.T @ r)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(w))):
        raise RuntimeError("speed probe diverged")
    agree = 0
    for _ in range(PROBE_PENALTY_PASSES):
        for p, t in zip(y[0], y[1]):
            s = sum(np.sign((p - c) * (t - c)) for c in (-0.5, 0.0, 0.5))
            agree += int(np.sign(s - 2))
    return agree


class SpeedProbe:
    """Times the probe kernel on SIGALRM every PROBE_INTERVAL_S seconds.

    The handler runs in the main thread between bytecodes, so the samples
    spread over the whole study. One more sample is taken just before and
    one just after it, outside the timed region, so that even a study
    shorter than the interval has some. `samples` holds every probe's
    duration and `in_study_s` the probe time inside the timed region.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self._args = (rng.normal(size=(35, 34)),
                      (rng.random((35, 34)) < 0.5).astype(float),
                      np.full((35, 5), 0.1), np.full((5, 34), 0.1))
        self.samples = []
        self.in_study_s = 0.0
        self._busy = False
        _probe_kernel(*self._args)  # warm-up, not a sample

    def sample(self):
        t0 = time.perf_counter()
        _probe_kernel(*self._args)
        dur = time.perf_counter() - t0
        self.samples.append(dur)
        return dur

    def _handler(self, signum, frame):
        if not self._busy:
            self._busy = True
            self.in_study_s += self.sample()
            self._busy = False

    def __enter__(self):
        import signal
        self.sample()
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        import signal
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()


def _blas_threads():
    """Threads OpenBLAS will use, read from the loaded library, or None."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _peak_rss_mb(usage):
    """Peak resident memory of this program, in MiB.

    ru_maxrss also counts the parent's resident set at the fork that
    started this process, so the kernel's per-image high-water mark is
    read where it exists.
    """
    try:
        with open("/proc/self/status", encoding="utf-8") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return usage.ru_maxrss / 1024.0


def _numpy_env():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {"numpy": np.__version__,
            "blas": {k: blas.get(k) for k in
                     ("name", "version", "openblas configuration")},
            "blas_threads": _blas_threads()}


def setup(csv_path, concentration, check):
    t0 = time.perf_counter()
    import alsal
    from alsal import runner
    cfg = runner.ExperimentConfig(dataset_path=csv_path, targets=("gr",),
                                  concentrations=(float(concentration),))
    matrices = runner.load_matrices(cfg)
    setup_s = time.perf_counter() - t0

    # the host's speed just after set-up; numpy is loaded only by then
    probe = SpeedProbe()
    for _ in range(SETUP_PROBES):
        probe.sample()
    result = {"setup_s": setup_s, "probe_s": probe.samples,
              "alsal_file": alsal.__file__,
              "alsal_version": alsal.__version__}
    if check:
        from alsal import data
        with open(csv_path, newline="", encoding="utf-8") as f:
            obs = data.parse_dataset(f)
        _, _, matrix = matrices[0]
        result.update(
            observations=len(obs),
            fully_covered=sorted(data.select_common_concentrations(obs)),
            observed=int(matrix.mask.sum()),
            **_numpy_env())
    return result


def study(trace_path, argv):
    from alsal import cli
    main, tracer, probe = cli.main, None, None
    if trace_path == "-":
        probe = SpeedProbe()
    else:
        import tracer as tracer_mod
        tracer = tracer_mod.install(tracer_mod.Tracer())
        main = tracer.span("cli.main", cli.main)

    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    if tracer:
        t0 = time.perf_counter()
        rc = tracer.run(main, argv)
        wall_s = time.perf_counter() - t0
    else:
        with probe:
            t0 = time.perf_counter()
            rc = main(argv)
            wall_s = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    if rc not in (0, None):
        raise SystemExit(f"alsal exited with {rc}")

    result = {"wall_s": wall_s,
              "cpu_s": (ru1.ru_utime + ru1.ru_stime
                        - ru0.ru_utime - ru0.ru_stime),
              "peak_rss_mb": _peak_rss_mb(ru1)}
    if probe:
        result.update(probe_s=probe.samples, probe_in_study_s=probe.in_study_s)
    else:
        tracer.unpatch()
        result["layers"] = tracer_mod.layer_metrics(tracer.spans)
        result["unpatched"] = tracer.unpatched
        with open(trace_path, "w", encoding="utf-8") as f:
            json.dump({"spans": tracer.spans}, f)
    return result


def main(argv):
    mode, out = argv[0], argv[1]
    if mode == "setup":
        result = setup(argv[2], argv[3], "--check" in argv[4:])
    elif mode == "study":
        result = study(argv[2], argv[3:])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    with open(out, "w", encoding="utf-8") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main(sys.argv[1:])
