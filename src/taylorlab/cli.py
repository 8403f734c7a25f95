"""Command line entry point.

    taylorlab run config.json [--out DIR] [--seed N] [--jobs N]
    taylorlab plot REPORT_DIR

Exit codes: 0 all checks passed, 1 a check failed or a numerical guard
tripped, 2 the configuration was rejected, 3 an unexpected error (such as
running out of memory) stopped the command: no verdict on the mathematics.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .checks import emit_plots, execute
from .config import load_config
from .errors import ConfigError, TaylorLabError


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="taylorlab")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute one experiment from a JSON config")
    run.add_argument("config", help="path to the JSON run configuration")
    run.add_argument("--out", help="output directory (overrides the config)")
    run.add_argument("--seed", type=int, help="random seed (overrides the config)")
    run.add_argument(
        "--jobs",
        type=int,
        help="worker threads (overrides the config)",
    )

    plot = sub.add_parser("plot", help="regenerate SVG charts from a report directory")
    plot.add_argument("report_dir", help="directory holding CSV outputs of a previous run")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    if args.command == "plot":
        try:
            made = emit_plots(args.report_dir)
        except TaylorLabError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except Exception as exc:
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 3
        for path in made:
            print(path)
        return 0

    try:
        cfg = load_config(args.config)
        overrides = {}
        if args.out is not None:
            overrides["out_dir"] = args.out
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.jobs is not None:
            overrides["jobs"] = args.jobs
        if overrides:
            cfg = dataclasses.replace(cfg, **overrides)
        report = execute(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TaylorLabError as exc:
        print(f"check aborted: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3

    for outcome in report.outcomes:
        status = "PASS" if outcome.passed else "FAIL"
        print(f"{status} {outcome.name}: measured {outcome.measured:.6e} vs {outcome.tolerance:.6e}")
    print(f"report: {os.path.join(cfg.out_dir, 'report.json')}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
