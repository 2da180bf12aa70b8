"""Command-line entry point.

Subcommands: curate, pseudolabel, pretrain, train-meta, probe, evaluate,
pipeline. Every run is driven by one YAML config plus repeatable dotted
overrides; exit codes are 0 (ok), 2 (configuration error), 3 (data error),
4 (numeric failure).
"""

from __future__ import annotations

import argparse
import logging
import sys

from .config import PipelineConfig, load_config
from .errors import ConfigError, DataError, NumericError
from .pipeline import STAGES, run_stage

# reports echoed to stdout, in order, once the stage has written them
_ECHO = {
    "probe": ("fairness_report_txt",),
    "evaluate": ("fairness_report_json",),
    "pipeline": ("fairness_report_txt", "fairness_report_json"),
}

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

# exit code and stderr prefix of each error class a command can fail with
_FAILURES = {
    ConfigError: (EXIT_CONFIG, "configuration error"),
    DataError: (EXIT_DATA, "data error"),
    NumericError: (EXIT_NUMERIC, "numeric failure"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairssl",
        description="Label-free fair representation pipeline over precomputed embeddings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in STAGES:
        p = sub.add_parser(name, help=name)
        p.add_argument("--config", required=True, help="YAML pipeline configuration")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="dotted config override, repeatable (e.g. trainer.batch_size=32)",
        )
        p.add_argument("--out", help="output directory, a string resolved like paths.out_dir (overrides it)")
        p.add_argument("--seed", type=int, help="global seed (overrides the config)")
        p.add_argument("--verbose", action="store_true", help="log progress at INFO level")
    return parser


def _resolve_config(args: argparse.Namespace) -> PipelineConfig:
    overrides = list(args.overrides)
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    return load_config(args.config, overrides, out_dir=args.out)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        artifacts = run_stage(_resolve_config(args), args.command)
        for name in _ECHO.get(args.command, ()):
            print(artifacts[name].read_text(), end="")
    except tuple(_FAILURES) as exc:
        code, prefix = next(v for cls, v in _FAILURES.items() if isinstance(exc, cls))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code
    return EXIT_OK


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
