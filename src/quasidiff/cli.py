"""Command-line entry point: run a JSON scenario config and write reports."""
from __future__ import annotations

import argparse
import os
import sys
from importlib import resources

from .scenarios import ConfigError, run_scenarios

DEFAULT_OUT_ENV = "QUASIDIFF_OUT_DIR"


def reference_config_path() -> str:
    """Path of the bundled reference scenario suite."""
    return str(resources.files("quasidiff").joinpath(
        "configs/reference_suite.json"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasidiff",
        description="Nonsmooth differential calculus experiment runner.")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a scenario config")
    run.add_argument("config", help="path to a JSON scenario config, or the "
                     "literal 'reference' for the bundled suite")
    run.add_argument("--out", default=None,
                     help=f"output directory (default: ${DEFAULT_OUT_ENV} "
                     "or ./quasidiff-out)")
    run.add_argument("--parallel", action="store_true",
                     help="run scenarios on a thread pool")
    run.add_argument("--seed-override", type=int, default=None,
                     help="replace every scenario seed")
    run.add_argument("--filter", dest="name_filter", default=None,
                     help="only run scenarios whose name contains this string")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = args.config
    if config == "reference":
        config = reference_config_path()
    out = args.out or os.environ.get(DEFAULT_OUT_ENV, "quasidiff-out")
    try:
        return run_scenarios(config, out, parallel=args.parallel,
                             seed_override=args.seed_override,
                             name_filter=args.name_filter)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
