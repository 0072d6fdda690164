"""Command line entry: ``gapcert <experiment> --config cfg.json [--seed N]
[--out DIR] [--check]``.

Exit codes: 0 success, 2 configuration error, 3 acceptance-threshold failure
when --check is passed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .experiments import EXPERIMENTS, ConfigError, apply_check, run
from .percentile import CapacityError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gapcert",
        description="Percentile optimization experiments with certified "
                    "optimality-gap bounds")
    parser.add_argument("experiment", choices=EXPERIMENTS,
                        help="pipeline to run")
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON config file (fields merge with CLI flags)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--out", type=Path, default=None,
                        help="override the output directory")
    parser.add_argument("--check", action="store_true",
                        help="exit 3 when the config's acceptance thresholds "
                             "fail")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        raw = {}
        if args.config is not None:
            raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
            if not isinstance(raw, dict):
                raise ConfigError("the config file must hold a JSON object")
        raw["experiment"] = args.experiment
        if args.seed is not None:
            raw["seed"] = args.seed
        if args.out is not None:
            raw["out_dir"] = str(args.out)
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run(raw)
    except (ConfigError, CapacityError) as exc:
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
