"""Command-line entry point for the benchmark and AL-study experiments."""

import argparse
import json
from dataclasses import fields, is_dataclass, replace

from .runner import (ConfigError, ExperimentConfig, SyntheticSpec,
                     aggregate_concentrations, run_al_study, run_benchmark,
                     write_report)


# The dotted ExperimentConfig keys each flag sets, by argparse dest, in order
FLAG_KEYS = {
    "dataset": ("dataset_path",), "synthetic": ("synthetic",),
    "target": ("targets",), "concentrations": ("concentrations",),
    "seeds": ("seeds",), "models": ("models",), "folds": ("folds",),
    "strategy": ("strategies",), "out": ("output_dir",),
    "als_epochs": ("als.epochs", "alsdl.als.epochs"),
    "mlp_epochs": ("alsdl.mlp_train.epochs",),
    "embedding_dim": ("als.d", "alsdl.als.d"),
    **{dest: ("active." + dest,) for dest in (
        "n_init", "n_per_query", "n_max_query", "elm_inner_epochs",
        "elm_candidate_subsample")}}


def _csv_list(conv):
    """Argparse type: a tuple of conv values; errors name it by __name__."""
    def parse(s):
        return tuple(conv(x) for x in s.split(",") if x != "")
    parse.__name__ = f"comma-separated {conv.__name__}"
    return parse


def _synthetic(s):
    """An argparse type: M,N,RANK,NOISE as a SyntheticSpec, which checks it."""
    try:
        m, n, rank, noise = s.split(",")
        return SyntheticSpec(int(m), int(n), int(rank), float(noise))
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"{s!r}: {e}") from e


class _Targets(argparse.Action):
    """--target's choice as the tuple of targets it studies."""
    def __call__(self, parser, namespace, value, option_string=None):
        setattr(namespace, self.dest,
                ("gr", "ifd") if value == "both" else (value,))


def _add_common(p):
    src = p.add_mutually_exclusive_group()
    src.add_argument("--dataset", help="path to the sensitivity CSV")
    src.add_argument("--synthetic", metavar="M,N,RANK,NOISE", type=_synthetic,
                     help="generate a synthetic low-rank matrix instead")
    p.add_argument("--target", choices=["gr", "ifd", "both"], action=_Targets)
    p.add_argument("--concentrations", type=_csv_list(float), help="comma-"
                   "separated list; default: all fully-covered concentrations")
    p.add_argument("--seeds", type=_csv_list(int),
                   help="comma-separated integer seeds")
    p.add_argument("--out", help="output directory")
    p.add_argument("--config", help="JSON config file (overridden by the "
                   "flags given)")
    for flag in ("--als-epochs", "--mlp-epochs", "--embedding-dim"):
        p.add_argument(flag, type=int)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="alsal",
        description="Matrix-completion active-learning experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("benchmark", help="10-fold cross-validated model "
                       "comparison (ALS vs ALSDL)")
    _add_common(b)
    b.add_argument("--models", type=_csv_list(str))
    b.add_argument("--folds", type=int)

    a = sub.add_parser("al-study", help="active-learning strategy comparison")
    _add_common(a)
    a.add_argument("--strategy", type=_csv_list(str), help="comma-separated "
                   "subset of orderly,random,uncertainty,elm")
    for flag in ("--n-init", "--n-per-query", "--n-max-query",
                 "--elm-inner-epochs"):
        a.add_argument(flag, type=int)
    a.add_argument("--elm-candidate-subsample", type=int,
                   help="ELM scores a seeded random subset of this many "
                   "pool candidates per query")
    return parser


def _from_json(cls, raw, where="", default=None):
    """Dataclass cls from a JSON object: default (cls() if None) with the
    object's fields replaced. Fields typed as dataclasses are built the
    same way on default's value (null only where the default is None), so
    a field left out keeps the value its enclosing default gives it, not
    its class default; lists become tuples. An unknown key, a non-object
    where an object belongs, or a value the dataclass itself rejects exits
    with its dotted name: the field's when the dataclass raises a
    ConfigError, else the dataclass's."""
    if not isinstance(raw, dict):
        raise SystemExit(f"config key {where[:-1]!r} must be an object"
                         if where else "config must be a JSON object")
    known = {f.name: f for f in fields(cls)}
    base = cls() if default is None else default
    kwargs = {}
    for key, value in raw.items():
        if key not in known:
            raise SystemExit(f"unknown config key {where + key!r}")
        f = known[key]
        if is_dataclass(f.type) and not (value is None and f.default is None):
            value = _from_json(f.type, value, f"{where}{key}.",
                               getattr(base, key))
        elif isinstance(value, list):
            value = tuple(value)
        kwargs[key] = value
    try:
        return replace(base, **kwargs)
    except ConfigError as e:
        raise SystemExit(f"invalid config key {where + e.key!r}: {e}") from e
    except (TypeError, ValueError) as e:
        raise SystemExit(f"invalid config key {where[:-1]!r}: {e}"
                         if where else f"invalid config: {e}") from e


def _config_from_json(path):
    with open(path, encoding="utf-8") as f:
        return _from_json(ExperimentConfig, json.load(f))


def _set(obj, key, value):
    """obj with the dotted key set, each dataclass on the path replaced."""
    name, _, rest = key.partition(".")
    return replace(obj, **{name: _set(getattr(obj, name), rest, value)
                           if rest else value})


def resolve_config(args):
    """The --config file, or ExperimentConfig(), with each flag given set at
    its FLAG_KEYS; a source flag replaces the file's source."""
    cfg = _config_from_json(args.config) if args.config else ExperimentConfig()
    if args.dataset is not None or args.synthetic is not None:
        cfg = replace(cfg, dataset_path=None, synthetic=None)
    try:
        for dest, keys in FLAG_KEYS.items():
            value = getattr(args, dest, None)  # a subcommand has a subset
            for key in keys if value is not None else ():
                cfg = _set(cfg, key, value)
    except ValueError as e:
        raise SystemExit(f"invalid option: {e}") from e
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
    except ConfigError as e:  # raised by loading, before any training
        raise SystemExit(f"invalid config key {e.key!r}: {e}") from e
    out = write_report(aggregate_concentrations(report), cfg.output_dir)
    print(f"wrote report to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
