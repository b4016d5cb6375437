"""Command-line entry point for the benchmark and AL-study experiments."""

import argparse
import json
from dataclasses import fields, is_dataclass, replace

from .runner import (ConfigError, ExperimentConfig, SyntheticSpec,
                     aggregate_concentrations, run_al_study, run_benchmark,
                     write_report)


def _add_common(p):
    src = p.add_mutually_exclusive_group()
    src.add_argument("--dataset", help="path to the sensitivity CSV")
    src.add_argument("--synthetic", metavar="M,N,RANK,NOISE",
                     help="generate a synthetic low-rank matrix instead")
    p.add_argument("--target", choices=["gr", "ifd", "both"], default="both")
    p.add_argument("--concentrations", help="comma-separated list; default: "
                   "all fully-covered concentrations")
    p.add_argument("--seeds", default="0", help="comma-separated integer seeds")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--config", help="JSON config file (overridden by flags)")
    p.add_argument("--als-epochs", type=int)
    p.add_argument("--mlp-epochs", type=int)
    p.add_argument("--embedding-dim", type=int)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="alsal",
        description="Matrix-completion active-learning experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("benchmark", help="10-fold cross-validated model "
                       "comparison (ALS vs ALSDL)")
    _add_common(b)
    b.add_argument("--models", default="als,alsdl")
    b.add_argument("--folds", type=int, default=10)

    a = sub.add_parser("al-study", help="active-learning strategy comparison")
    _add_common(a)
    a.add_argument("--strategy", default="orderly,random,uncertainty,elm",
                   help="comma-separated subset of "
                   "orderly,random,uncertainty,elm")
    a.add_argument("--n-init", type=int)
    a.add_argument("--n-per-query", type=int)
    a.add_argument("--n-max-query", type=int)
    a.add_argument("--elm-inner-epochs", type=int)
    a.add_argument("--elm-candidate-subsample", type=int,
                   help="ELM scores a seeded random subset of this many "
                   "pool candidates per query")
    return parser


def _from_json(cls, raw, where=""):
    """Dataclass cls from a JSON object. Fields typed as dataclasses are
    built the same way (null only where the default is None) and lists
    become tuples; fields left out keep their defaults. An unknown key, a
    non-object where an object belongs, or a value the dataclass itself
    rejects exits with its dotted name: the field's when the dataclass
    raises a ConfigError, else the dataclass's."""
    if not isinstance(raw, dict):
        raise SystemExit(f"config key {where[:-1]!r} must be an object"
                         if where else "config must be a JSON object")
    known = {f.name: f for f in fields(cls)}
    kwargs = {}
    for key, value in raw.items():
        if key not in known:
            raise SystemExit(f"unknown config key {where + key!r}")
        f = known[key]
        if is_dataclass(f.type) and not (value is None and f.default is None):
            value = _from_json(f.type, value, f"{where}{key}.")
        elif isinstance(value, list):
            value = tuple(value)
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except ConfigError as e:
        raise SystemExit(f"invalid config key {where + e.key!r}: {e}") from e
    except (TypeError, ValueError) as e:
        raise SystemExit(f"invalid config key {where[:-1]!r}: {e}"
                         if where else f"invalid config: {e}") from e


def _config_from_json(path):
    with open(path, encoding="utf-8") as f:
        return _from_json(ExperimentConfig, json.load(f))


def _csv_list(s, conv=str):
    return tuple(conv(x) for x in s.split(",") if x != "")


def _apply_flags(cfg, args):
    """Model and budget flags over the config; a value a config dataclass
    rejects raises its ValueError."""
    if args.als_epochs is not None:
        cfg.als = replace(cfg.als, epochs=args.als_epochs)
        cfg.alsdl = replace(cfg.alsdl,
                            als=replace(cfg.alsdl.als, epochs=args.als_epochs))
    if args.mlp_epochs is not None:
        cfg.alsdl = replace(cfg.alsdl, mlp_train=replace(
            cfg.alsdl.mlp_train, epochs=args.mlp_epochs))
    if args.embedding_dim is not None:
        cfg.als = replace(cfg.als, d=args.embedding_dim)
        cfg.alsdl = replace(cfg.alsdl,
                            als=replace(cfg.alsdl.als, d=args.embedding_dim))
    updates = {}
    for name in ("n_init", "n_per_query", "n_max_query", "elm_inner_epochs",
                 "elm_candidate_subsample"):
        v = getattr(args, name, None)  # benchmark has no budget flags
        if v is not None:
            updates[name] = v
    cfg.active = replace(cfg.active, **updates)


def resolve_config(args):
    cfg = _config_from_json(args.config) if args.config else ExperimentConfig()
    if args.dataset:
        cfg.dataset_path = args.dataset
        cfg.synthetic = None
    if args.synthetic:
        m, n, rank, noise = args.synthetic.split(",")
        cfg.synthetic = SyntheticSpec(int(m), int(n), int(rank), float(noise))
        cfg.dataset_path = None
    cfg.targets = ("gr", "ifd") if args.target == "both" else (args.target,)
    if args.concentrations:
        cfg.concentrations = _csv_list(args.concentrations, float)
    cfg.seeds = _csv_list(args.seeds, int)
    cfg.output_dir = args.out
    try:
        _apply_flags(cfg, args)
    except ValueError as e:
        raise SystemExit(f"invalid option: {e}") from e
    if args.command == "benchmark":
        cfg.models = _csv_list(args.models)
        cfg.folds = args.folds
    else:
        cfg.strategies = _csv_list(args.strategy)
    try:
        cfg.validate()
    except ValueError as e:
        raise SystemExit(f"invalid config: {e}") from e
    return cfg


def main(argv=None):
    args = build_parser().parse_args(argv)
    cfg = resolve_config(args)
    run = run_benchmark if args.command == "benchmark" else run_al_study
    try:
        report = run(cfg)
    except ConfigError as e:  # raised after loading, before any training
        raise SystemExit(f"invalid config key {e.key!r}: {e}") from e
    report = aggregate_concentrations(report)
    out = write_report(report, cfg.output_dir)
    print(f"wrote report to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
