"""Command-line entry point.

    ubmc <experiment> --config config.json [--seed S] [--replicates L]
         [--out DIR] [--parallel P]

The config file carries the experiment parameters; the flags override its
top-level fields.  Exit codes: 0 success, 2 configuration error, 3
runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .harness import ConfigError, EXPERIMENTS, ExperimentConfig, run_experiment

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ubmc",
        description="Unbiased Monte Carlo experiment runner",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS),
        help="experiment to run",
    )
    parser.add_argument("--config", help="JSON config file", default=None)
    parser.add_argument("--seed", type=int, default=None, help="override the seed")
    parser.add_argument(
        "--replicates", type=int, default=None, help="override the replicate count"
    )
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument(
        "--parallel", type=int, default=None, help="worker processes"
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config is not None:
            config = ExperimentConfig.from_json(args.config)
            if config.experiment != args.experiment:
                raise ConfigError(
                    f"config is for {config.experiment!r}, not {args.experiment!r}"
                )
        else:
            config = ExperimentConfig(experiment=args.experiment)
        if args.seed is not None:
            config.seed = args.seed
        if args.replicates is not None:
            config.replicates = args.replicates
        if args.out is not None:
            config.out = args.out
        if args.parallel is not None:
            config.parallel = args.parallel
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"ubmc: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        summary = run_experiment(config)
    except ConfigError as exc:
        print(f"ubmc: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - boundary of the CLI
        print(f"ubmc: runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    json.dump(summary, sys.stdout, indent=2, sort_keys=True, default=str)
    print()
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
