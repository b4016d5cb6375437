"""Command-line entry point for the benchmark and AL-study experiments."""

import argparse
import json
from dataclasses import asdict, replace
from pathlib import Path

from .active import STRATEGIES
from .data import TARGETS
from .runner import (MODELS, ConfigError, ExperimentConfig, SyntheticSpec,
                     run_al_study, run_benchmark)


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
    """An argparse type: M,N,RANK,NOISE as asdict of a SyntheticSpec."""
    try:
        m, n, rank, noise = s.split(",")
        return asdict(SyntheticSpec(int(m), int(n), int(rank), float(noise)))
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"{s!r}: {e}") from e


def _add_common(p):
    src = p.add_mutually_exclusive_group()
    src.add_argument("--dataset", help="path to the sensitivity CSV")
    src.add_argument("--synthetic", metavar="M,N,RANK,NOISE", type=_synthetic,
                     help="generate a synthetic low-rank matrix instead")
    p.add_argument("--target", type=_csv_list(str),
                   help="comma-separated subset of " + ",".join(TARGETS))
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
    b.add_argument("--models", type=_csv_list(str),
                   help="comma-separated subset of " + ",".join(MODELS))
    b.add_argument("--folds", type=int)

    a = sub.add_parser("al-study", help="active-learning strategy comparison")
    _add_common(a)
    a.add_argument("--strategy", type=_csv_list(str),
                   help="comma-separated subset of " + ",".join(STRATEGIES))
    for flag in ("--n-init", "--n-per-query", "--n-max-query",
                 "--elm-inner-epochs"):
        a.add_argument(flag, type=int)
    a.add_argument("--elm-candidate-subsample", type=int,
                   help="ELM scores a random subset of this many pool "
                   "candidates per query, drawn from the query's seed")
    return parser


def _config_from_json(path):
    try:
        with open(path, encoding="utf-8-sig") as f:  # as load_matrices
            return json.load(f)
    # unreadable, not UTF-8, not JSON, or nested deeper than json.load goes
    except (OSError, ValueError, RecursionError) as e:
        raise SystemExit(f"invalid config file {str(path)!r}: "
                         f"{getattr(e, 'strerror', None) or e}") from e


def _exit(e, flag=""):
    """The exit for ConfigError e, naming its key and any flag that set it."""
    key = "" if e.key is None else f" key {e.key!r}"
    return SystemExit(f"invalid config{key}{flag}: {e}")


def resolve_config(args):
    """ExperimentConfig() updated from the --config file, then by each flag
    given, as a one-key nested object per key in FLAG_KEYS; a source flag
    replaces the file's source. The file must pass every rule on its own,
    before any flag applies."""
    cfg = ExperimentConfig()
    if args.config:
        try:
            cfg = cfg.updated(_config_from_json(args.config))
        except ConfigError as e:
            raise _exit(e) from e
    if args.dataset is not None or args.synthetic is not None:
        cfg = replace(cfg, dataset_path=None, synthetic=None)
    for dest, keys in FLAG_KEYS.items():
        value = getattr(args, dest, None)  # a subcommand has a subset
        for key in keys if value is not None else ():
            raw = value
            for name in reversed(key.split(".")):
                raw = {name: raw}
            try:
                cfg = cfg.updated(raw)
            except ConfigError as e:
                raise _exit(e, f" (set by --{dest.replace('_', '-')})") from e
    return cfg


def main(argv=None):
    args = build_parser().parse_args(argv)
    cfg = resolve_config(args)
    run = run_benchmark if args.command == "benchmark" else run_al_study
    try:
        run(cfg, cfg.output_dir)
    except ConfigError as e:  # raised before any training
        raise _exit(e) from e
    print(f"wrote report to {Path(cfg.output_dir)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
