"""Command-line front end.

Subcommands:

* ``simulate --config <path> [--model ide|ode] [--cells N] [--dt H]
  [--t-final D] [--distribution KIND] [--output-dir PATH]`` — run one
  simulation; each flag is one config key and overrides the file.
* ``compare --a <dir> --b <dir> --out <file>`` — per-state
  relative-difference report between two completed runs.
* ``verify`` — run the independent oracle suite.

Exit codes: 0 success, 1 configuration or usage error, 2 integration
failure, 3 verification failure.
"""

from __future__ import annotations

import argparse
import sys

from . import simulate as sim
from .config import load_config
from .errors import ConfigError, IntegrationFailure
from .oracles import run_all

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INTEGRATION = 2
EXIT_VERIFICATION = 3


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ConfigError instead of exiting 2."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fermsim",
                     description="Population-balance fermentation simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one simulation")
    p_sim.add_argument("--config", help="flat key = value config file")
    p_sim.add_argument("--model", dest="model", metavar="ide|ode", help="model to run")
    p_sim.add_argument("--cells", dest="grid.n_cells", metavar="N",
                       help="number of mass cells")
    p_sim.add_argument("--dt", dest="dt", metavar="H", help="time step in days")
    p_sim.add_argument("--t-final", dest="t_final", metavar="D", help="horizon in days")
    p_sim.add_argument("--distribution", dest="distribution.kind", metavar="KIND",
                       help="initial distribution kind")
    p_sim.add_argument("--output-dir", dest="output_dir", metavar="PATH",
                       help="artifact directory")

    p_cmp = sub.add_parser("compare", help="compare two completed runs")
    p_cmp.add_argument("--a", required=True, help="first run directory")
    p_cmp.add_argument("--b", required=True, help="second run directory")
    p_cmp.add_argument("--out", required=True, help="output CSV path")

    sub.add_parser("verify", help="run the oracle suite")
    return parser


#: Built once per process: parse_args fills a new namespace on every call,
#: so no flag of one call reaches the next.
_PARSER = build_parser()


def _simulate(args) -> int:
    flags = {key: value for key, value in vars(args).items()
             if key not in ("command", "config") and value is not None}
    result = sim.run(load_config(args.config, flags))
    for path in result.files:
        print(path)
    return EXIT_OK


def _compare(args) -> int:
    sim.compare(args.a, args.b, args.out)
    print(args.out)
    return EXIT_OK


def _verify() -> int:
    reports = run_all()
    ok = True
    for report in reports:
        print(report.line())
        ok = ok and report.passed
    return EXIT_OK if ok else EXIT_VERIFICATION


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        if args.command == "simulate":
            return _simulate(args)
        if args.command == "compare":
            return _compare(args)
        return _verify()
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IntegrationFailure as exc:
        print(f"integration failure: {exc}", file=sys.stderr)
        return EXIT_INTEGRATION
    except OSError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
