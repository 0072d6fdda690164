"""Command line entry: ``gapcert <experiment> --config cfg.json [--seed N]
[--out DIR] [--check]``.

Exit codes: 0 success, 2 configuration error (a ``ConfigError``), 3
acceptance-threshold failure when --check is passed.
"""

from __future__ import annotations

import argparse
import json
import sys

from .experiments import EXPERIMENTS, ConfigError, apply_check, \
    read_config, run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gapcert",
        description="Percentile optimization experiments with certified "
                    "optimality-gap bounds")
    parser.add_argument("experiment", choices=EXPERIMENTS,
                        help="pipeline to run")
    parser.add_argument("--config", default=None,
                        help="JSON config file (fields merge with CLI flags)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--out", default=None,
                        help="override the output directory")
    parser.add_argument("--check", action="store_true",
                        help="exit 3 when the config's acceptance thresholds "
                             "fail")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = run(read_config(args.config, experiment=args.experiment,
                                 seed=args.seed, out_dir=args.out))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report.summary, indent=2))
    if args.check:
        failures = apply_check(report)
        if failures:
            for failure in failures:
                print(f"check failed: {failure}", file=sys.stderr)
            return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
