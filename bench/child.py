"""Child process of the benchmark; run.py starts one per task.

    gen    generate the workload's synthetic worlds, configs and Bayes bounds
    setup  time a fresh import of fairssl.cli plus load_config
    run    one pipeline run: one fairssl.cli.main call per stage, optionally traced

Each task writes its result as JSON to the file named by --result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS, plan


def _check_import_root(module) -> None:
    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(module.__file__).resolve().parents:
        raise SystemExit(f"fairssl imported from {module.__file__}, not from {src}")


def gen(args) -> dict:
    import numpy as np
    import yaml

    from fairssl import synthetic

    _check_import_root(synthetic)
    w = WORKLOADS[args.workload]
    sizes = dict(w.world)
    dim = sizes.pop("dim")
    bayes = []
    for k in range(w.worlds):
        seed = args.seed + k
        world_dir = Path(args.dir) / f"w{k}"
        world = synthetic.generate_world(
            seed, world_dir, synthetic.WorldConfig(dim=dim), **sizes
        )
        paths = {name: os.path.relpath(p, world_dir) for name, p in world.files.items()}
        config = {"seed": seed, "paths": paths, **w.config}
        (world_dir / "config.yaml").write_text(yaml.safe_dump(config, sort_keys=True))
        bayes.append(
            synthetic.bayes_accuracy(world.config, world.eval_set.raw, world.eval_set.target)
        )
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "bayes_accuracy": bayes,
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def setup(args) -> dict:
    start = time.perf_counter()
    from fairssl import cli

    cli.load_config(args.config)
    elapsed = time.perf_counter() - start
    _check_import_root(cli)
    return {"setup_s": elapsed}


def run(args) -> dict:
    from fairssl import cli

    _check_import_root(cli)
    tracer = Tracer(args.run_id) if args.trace else None
    if tracer:
        tracer.install()
    world_root, run_dir = Path(args.world_root), Path(args.run_dir)
    ops = []
    for op in plan(WORKLOADS[args.workload]):
        out = run_dir / op.out
        if op.kind == "copy":
            shutil.copytree(run_dir / op.stage, out)
            continue
        argv = [op.stage, "--config", str(world_root / f"w{op.world}" / "config.yaml"),
                "--out", str(out)]
        for item in op.overrides:
            argv += ["--set", item]
        start = time.perf_counter()
        try:
            code = tracer.call(f"stage.{op.stage}", cli.main, argv) if tracer else cli.main(argv)
        except Exception:  # a crash is a failed operation, reported with its traceback
            traceback.print_exc()
            code = 1
        ops.append({"stage": op.stage, "world": op.world, "out": op.out, "scored": op.scored,
                    "exit": code, "wall_s": time.perf_counter() - start})
    result = {
        "ops": ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        result.update(spans=tracer.spans, counts=dict(tracer.counts), bindings=tracer.bindings)
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("task", choices=("gen", "setup", "run"))
    parser.add_argument("--result", required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--dir")
    parser.add_argument("--config")
    parser.add_argument("--world-root")
    parser.add_argument("--run-dir")
    parser.add_argument("--run-id", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    result = {"gen": gen, "setup": setup, "run": run}[args.task](args)
    Path(args.result).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
