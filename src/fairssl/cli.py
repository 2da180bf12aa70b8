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
from .pipeline import (
    run_curate,
    run_evaluate,
    run_pipeline,
    run_pretrain,
    run_probe,
    run_pseudolabel,
    run_train_meta,
    write_failure_manifest,
)

_COMMANDS = {
    "curate": run_curate,
    "pseudolabel": run_pseudolabel,
    "pretrain": run_pretrain,
    "train-meta": run_train_meta,
    "probe": run_probe,
    "evaluate": run_evaluate,
    "pipeline": run_pipeline,
}

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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairssl",
        description="Label-free fair representation pipeline over precomputed embeddings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__ or name)
        p.add_argument("--config", required=True, help="YAML pipeline configuration")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="dotted config override, repeatable (e.g. trainer.batch_size=32)",
        )
        p.add_argument("--out", help="output directory (overrides paths.out_dir)")
        p.add_argument("--seed", type=int, help="global seed (overrides the config)")
        p.add_argument("--workers", type=int, help="worker count; never affects results")
        p.add_argument("--verbose", action="store_true", help="log progress at INFO level")
    return parser


def _resolve_config(args: argparse.Namespace) -> PipelineConfig:
    overrides = list(args.overrides)
    if args.out is not None:
        overrides.append(f"paths.out_dir={args.out}")
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    if args.workers is not None:
        overrides.append(f"workers={args.workers}")
    return load_config(args.config, overrides)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    cfg: PipelineConfig | None = None
    try:
        cfg = _resolve_config(args)
        artifacts = _COMMANDS[args.command](cfg)
        for name in _ECHO.get(args.command, ()):
            print(artifacts[name].read_text(), end="")
    except ConfigError as exc:
        if cfg is not None:
            write_failure_manifest(cfg, args.command, exc)
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        if cfg is not None:
            write_failure_manifest(cfg, args.command, exc)
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        if cfg is not None:
            write_failure_manifest(cfg, args.command, exc)
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
