"""Span tracer for alsal, installed from outside the package.

`install` replaces alsal's public functions at the module attributes where
their callers look them up, so the package itself is never edited. Names
imported by value are wrapped at each importing module (`rmse` and
`boundary_accuracy` live on in `als`, `mlp` and `active`; `kfold_split`
in `runner`; the runner entry points in `cli`), and
`MaskedMatrix.with_mask` is wrapped on the class.

Two kinds of wrapper:

- a *span* records name, start, end and the enclosing span, for the
  coarse calls (training a model, a query, writing the report);
- a *counted* call adds its count, total time and self time into the
  innermost open span. Per-epoch functions use it, because one ELM round
  alone makes about 230k ALS epochs, and a span for each would swamp
  memory and time.

Spans stay in memory until the run ends; `layer_metrics` then derives the
per-module figures, self times included, from the span list alone.
"""

import math
import statistics
import time
from collections import defaultdict

_perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self.unpatched = []
        # [child seconds, span record or None], innermost last
        self._frames = []
        self._open = []  # open span records, innermost last
        self._undo = []

    def span(self, name, fn, attrs=None):
        spans, frames, open_ = self.spans, self._frames, self._open

        def wrapper(*args, **kwargs):
            rec = {"id": len(spans),
                   "parent": open_[-1]["id"] if open_ else None,
                   "name": name, "start": 0.0, "end": 0.0,
                   "inner": {}, "inner_direct_s": 0.0}
            spans.append(rec)
            frames.append([0.0, rec])
            open_.append(rec)
            rec["start"] = t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = t1 = _perf()
                frames.pop()
                open_.pop()
                if frames:
                    frames[-1][0] += t1 - t0
            if attrs is not None:
                rec["attrs"] = attrs(args, kwargs, result)
            return result
        return wrapper

    def counted(self, name, fn):
        frames, open_ = self._frames, self._open

        def wrapper(*args, **kwargs):
            frame = [0.0, None]
            frames.append(frame)
            t0 = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = _perf() - t0
                frames.pop()
                parent = frames[-1]
                parent[0] += dur
                rec = open_[-1]
                st = rec["inner"].get(name)
                if st is None:
                    st = rec["inner"][name] = [0, 0.0, 0.0]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[0]
                if parent[1] is not None:
                    rec["inner_direct_s"] += dur
        return wrapper

    def patch(self, owner, attr, name, per_call=False, attrs=None):
        orig = getattr(owner, attr, None)
        if orig is None:
            self.unpatched.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        wrapped = (self.counted(name, orig) if per_call
                   else self.span(name, orig, attrs))
        self._undo.append((owner, attr, orig))
        setattr(owner, attr, wrapped)

    def unpatch(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def run(self, fn, *args):
        """Call fn under a root span, so counted calls always have a parent."""
        return self.span("trace.root", fn)(*args)


def _train_als_shape(args, kwargs, result):
    matrix, cfg = args[0], args[1]
    m, n = matrix.shape
    return {"m": m, "n": n, "d": cfg.d,
            "simultaneous": cfg.simultaneous_updates}


def _report_rows(args, kwargs, result):
    report = args[0]
    return {"rows": len(report.training_curves) + len(report.learning_curves)
            + len(report.cv_summary)}


def install(tracer):
    """Wrap alsal's public functions; returns the tracer for chaining."""
    from alsal import active, als, alsdl, cli, data, mlp, runner

    p = tracer.patch
    p(cli, "run_benchmark", "runner.run_benchmark")
    p(cli, "run_al_study", "runner.run_al_study")
    p(cli, "aggregate_concentrations", "runner.aggregate_concentrations")
    p(cli, "write_report", "runner.write_report", attrs=_report_rows)
    p(runner, "load_matrices", "runner.load_matrices")
    p(runner, "kfold_split", "metrics.kfold_split")
    p(data, "parse_dataset", "data.parse_dataset")
    p(data, "select_common_concentrations", "data.select_common_concentrations")
    p(data, "build_response_matrix", "data.build_response_matrix")
    p(data.MaskedMatrix, "with_mask", "data.with_mask", per_call=True)
    p(als, "train_als", "als.train_als", attrs=_train_als_shape)
    p(als, "als_epoch", "als.als_epoch", per_call=True)
    p(mlp, "train_mlp", "mlp.train_mlp")
    for fn in ("backward", "rmsprop_step", "penalized_loss", "predict_batch"):
        p(mlp, fn, f"mlp.{fn}", per_call=True)
    p(alsdl, "train_alsdl", "alsdl.train_alsdl")
    p(alsdl, "alsdl_predict_positions", "alsdl.alsdl_predict_positions",
      attrs=lambda a, k, r: {"positions": len(a[1])})
    p(active, "run_active_learning", "active.run_active_learning")
    for fn in ("query_orderly", "query_random", "query_uncertainty"):
        p(active, fn, f"active.{fn}")
    p(active, "query_elm", "active.query_elm",
      attrs=lambda a, k, r: {"picks": len(r)})
    p(active, "expected_losses", "active.expected_losses",
      attrs=lambda a, k, r: {"candidates": len(r[0])})
    for mod in (als, mlp, active):
        p(mod, "rmse", "metrics.rmse", per_call=True)
        p(mod, "boundary_accuracy", "metrics.boundary_accuracy", per_call=True)
    return tracer


def als_epoch_flop(m, n, d, simultaneous):
    """Floating-point operations of one `als_epoch`, counted from the shapes.

    One gradient evaluation is x @ w (2mnd), the masked residual (2mn),
    r @ w.T (2mnd) and x.T @ r (2mnd); the alternating epoch evaluates it
    twice, the simultaneous one once. Each factor update is 2 flop per
    entry.
    """
    grad = 6 * m * n * d + 2 * m * n
    return (1 if simultaneous else 2) * grad + 2 * (m * d + d * n)


def _nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(spans):
    """Per-module figures from a finished span list (see layers.json)."""
    by_name = defaultdict(list)
    children = defaultdict(list)
    inner = defaultdict(lambda: [0, 0.0, 0.0])
    for s in spans:
        by_name[s["name"]].append(s)
        if s["parent"] is not None:
            children[s["parent"]].append(s)
        for k, (c, tot, own) in s["inner"].items():
            acc = inner[k]
            acc[0] += c
            acc[1] += tot
            acc[2] += own

    def dur(s):
        return s["end"] - s["start"]

    def self_time(s):
        return (dur(s) - sum(dur(c) for c in children[s["id"]])
                - s["inner_direct_s"])

    def total(*names):
        return sum(dur(s) for n in names for s in by_name[n])

    def calls(name):
        return len(by_name[name])

    def own(*names):
        return sum(self_time(s) for n in names for s in by_name[n])

    def attr(name, key):
        return sum(s["attrs"][key] for s in by_name[name])

    def ratio(a, b):
        return a / b if b else 0.0

    rmse, accuracy = inner["metrics.rmse"], inner["metrics.boundary_accuracy"]

    epochs, epoch_s = inner["als.als_epoch"][0], inner["als.als_epoch"][1]
    flop = sum(s["inner"].get("als.als_epoch", [0])[0]
               * als_epoch_flop(**s["attrs"]) for s in by_name["als.train_als"])

    rounds = []
    for r in by_name["active.run_active_learning"]:
        starts = sorted(c["start"] for c in children[r["id"]]
                        if c["name"] == "alsdl.train_alsdl")
        rounds += [b - a for a, b in zip(starts, starts[1:] + [r["end"]])]

    elm_ids = {s["id"] for s in by_name["active.expected_losses"]}
    candidates = attr("active.expected_losses", "candidates")

    return {
        "data.parse_dataset_s": total("data.parse_dataset"),
        "runner.load_matrices_s": total("runner.load_matrices"),
        "data.with_mask_calls": inner["data.with_mask"][0],
        "data.with_mask_s": inner["data.with_mask"][1],
        "metrics.calls": rmse[0] + accuracy[0],
        "metrics.s": rmse[1] + accuracy[1],
        "als.train_als_calls": calls("als.train_als"),
        "als.train_als_s": total("als.train_als"),
        "als.epochs": epochs,
        "als.als_epoch_s": epoch_s,
        "als.epoch_us": 1e6 * ratio(epoch_s, epochs),
        "als.flop_computed": flop,
        "als.gflop_per_s": 1e-9 * ratio(flop, epoch_s),
        "als.history_s": own("als.train_als"),
        "mlp.train_mlp_calls": calls("mlp.train_mlp"),
        "mlp.epochs": inner["mlp.rmsprop_step"][0],
        "mlp.backward_s": inner["mlp.backward"][1],
        "mlp.rmsprop_step_s": inner["mlp.rmsprop_step"][1],
        "mlp.penalized_loss_calls": inner["mlp.penalized_loss"][0],
        "mlp.penalized_loss_s": inner["mlp.penalized_loss"][1],
        "mlp.predict_batch_s": inner["mlp.predict_batch"][1],
        "mlp.history_s": own("mlp.train_mlp"),
        "alsdl.train_alsdl_calls": calls("alsdl.train_alsdl"),
        "alsdl.train_alsdl_s": total("alsdl.train_alsdl"),
        "alsdl.features_s": own("alsdl.train_alsdl"),
        "alsdl.predict_positions_calls": calls("alsdl.alsdl_predict_positions"),
        "alsdl.positions_predicted": attr("alsdl.alsdl_predict_positions",
                                          "positions"),
        "alsdl.predict_positions_s": total("alsdl.alsdl_predict_positions"),
        "active.rounds": len(rounds),
        "active.round_s_p50": statistics.median(rounds) if rounds else 0.0,
        "active.round_s_p90": _nearest_rank(rounds, 0.9) if rounds else 0.0,
        "active.query_s": total("active.query_orderly", "active.query_random",
                                "active.query_uncertainty", "active.query_elm"),
        "active.elm_candidates": candidates,
        "active.elm_candidate_ms": 1e3 * ratio(
            total("active.expected_losses"), candidates),
        "active.elm_train_s": sum(dur(s) for s in by_name["als.train_als"]
                                  if s["parent"] in elm_ids),
        "active.elm_score_s": own("active.expected_losses"),
        "active.picks_per_candidate": ratio(attr("active.query_elm", "picks"),
                                            candidates),
        "active.loop_self_s": own("active.run_active_learning"),
        "runner.aggregate_s": total("runner.aggregate_concentrations"),
        "runner.write_report_s": total("runner.write_report"),
        "runner.rows_written": attr("runner.write_report", "rows"),
        "runner.self_s": own("runner.run_benchmark", "runner.run_al_study"),
        "cli.self_s": own("cli.main"),
    }
