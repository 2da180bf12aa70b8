#!/usr/bin/env python3
"""Benchmark of the fairssl command-line pipeline.

    python3 bench/run.py --workload pool-curation --seed 1 --seconds 40 --trace 0

Generates the workload's synthetic inputs from --seed in a child process,
times set-up (fresh import of fairssl.cli plus load_config), then runs the
whole pipeline again and again in fresh child processes, one
fairssl.cli.main call per stage, for --seconds. Each stage call is one
operation; it fails when it exits non-zero or when its outputs fail a check.
With --trace 1 runs alternate between untraced and traced, and the output
holds the per-layer metrics of the traced runs instead of the end-to-end
ones. The last line of standard output is the result as one JSON object.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

from tracer import TARGETS, TraceError, summarize  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

BLAS_THREADS = 1  # BLAS pool size of every child (capped at nproc)
SETUPS_PER_RUN = 3  # timed set-ups before each pipeline run, after one warm-up
MIN_RUNS = 2  # pipeline runs per benchmark run, so repeats can be compared
TIME_CAP_S = 165.0  # no pipeline run starts that would end past this
CHILD_TIMEOUT_S = 150.0
STAGE_METRICS = {"curate": "curate_s", "pretrain": "pretrain_s",
                 "train-meta": "train_meta_s", "probe": "probe_s"}
BAYES_FACTOR = 0.9  # c08(a): probe accuracy at least 0.9 x Bayes-optimal


class BenchError(RuntimeError):
    pass


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Runner:
    """Starts child processes with a pinned BLAS pool, one at a time."""

    def __init__(self, work: Path, blas_threads: int):
        self.work = work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(blas_threads)
        self.calls = 0

    def __call__(self, task: str, **options) -> tuple[dict, str]:
        self.calls += 1
        result = self.work / f"{task}-{self.calls}.json"
        cmd = [sys.executable, str(BENCH / "child.py"), task, "--result", str(result)]
        for key, value in options.items():
            cmd += [f"--{key.replace('_', '-')}", str(value)]
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{task} child timed out after {CHILD_TIMEOUT_S:.0f}s") from exc
        if proc.returncode != 0:
            raise BenchError(f"{task} child exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        data = json.loads(result.read_text())
        result.unlink()
        return data, proc.stderr


def _curation_counts_add_up(out: Path) -> bool:
    c = json.loads((out / "curation_report.json").read_text())
    lines = (out / "augmented_manifest.jsonl").read_text().splitlines()
    return (
        c["pool"] == c["kept_after_dedup"] + c["removed_by_dedup"]
        and c["retrieved"] <= c["kept_after_dedup"]
        and c["augmented_total"] == c["curated"] + c["retrieved"] - c["removed_by_quality"]
        and c["augmented_total"] == len(lines)
    )


def check_op(op: dict, out: Path, bayes: list[float], reference: dict,
             manifests: dict) -> str | None:
    """The first problem with one stage call's outputs, or None."""
    if op["exit"] != 0:
        return f"exit code {op['exit']}"
    manifest = json.loads((out / f"run_manifest_{op['stage'].replace('-', '_')}.json").read_text())
    manifests[op["out"], op["stage"]] = manifest
    artifacts = manifest["artifacts"]
    if manifest["status"] != "ok":
        return f"manifest status {manifest['status']!r}"
    if reference.setdefault((op["out"], op["stage"]), artifacts) != artifacts:
        return "artifact SHA-256s differ from the first run"
    if op["stage"] == "curate" and not _curation_counts_add_up(out):
        return "curation_report.json counts do not add up"
    if op["stage"] == "probe":
        report_path = out / "fairness_report.json"
        if sha256(report_path) != artifacts["fairness_report_json"]:
            return "fairness report was changed after the probe stage"
        avg_acc = json.loads(report_path.read_text())["avg_acc"]
        bound = 100.0 * BAYES_FACTOR * bayes[op["world"]]
        if avg_acc < bound:
            return f"avg_acc {avg_acc:.2f} below {bound:.2f} (0.9 x Bayes)"
    if op["stage"] == "evaluate":
        probe = manifests.get((op["out"], "probe"))
        if probe is None or probe["artifacts"]["fairness_report_json"] != artifacts["fairness_report_json"]:
            return "evaluate does not reproduce the probe's fairness report"
    return None


def check_run(run_dir: Path, ops: list[dict], bayes: list[float],
              reference: dict) -> tuple[list[str], list[dict]]:
    """Check every stage call of one run. Returns one message per failed
    operation, and the scored arm's fairness report per world.

    ``reference`` maps (output dir, stage) to the artifact SHA-256s of the
    first run; later runs must reproduce them exactly.
    """
    failures, reports, manifests = [], [], {}
    for op in ops:
        out = run_dir / op["out"]
        try:
            problem = check_op(op, out, bayes, reference, manifests)
        except (OSError, KeyError, ValueError) as exc:  # missing or malformed output
            problem = f"unreadable output: {exc!r}"
        if problem:
            failures.append(f"{op['stage']} in {op['out']}: {problem}")
        elif op["stage"] == "probe" and op["scored"]:
            reports.append(json.loads((out / "fairness_report.json").read_text()))
    return failures, reports


def stage_seconds(ops: list[dict]) -> dict[str, float]:
    totals = {"pipeline_s": sum(op["wall_s"] for op in ops)}
    for stage, metric in STAGE_METRICS.items():
        totals[metric] = sum(op["wall_s"] for op in ops if op["stage"] == stage)
    return totals


def benchmark(args, w: Workload, work: Path) -> tuple[dict, dict]:
    began = time.perf_counter()
    nproc = len(os.sched_getaffinity(0))
    blas_threads = min(BLAS_THREADS, nproc)
    child = Runner(work, blas_threads)

    world_root = work / "worlds"
    env_info, _ = child("gen", workload=w.name, seed=args.seed, dir=world_root)
    bayes = env_info["bayes_accuracy"]

    config = world_root / "w0" / "config.yaml"
    child("setup", config=config)  # warm-up: compiles bytecode, fills the page cache
    setups: list[float] = []

    reference: dict = {}
    attempted, failures = 0, []
    untraced, traced, reports, durations = [], [], None, []
    deadline = time.perf_counter() + args.seconds
    while True:
        start = time.perf_counter()
        # set-up samples are spread over the whole measurement, not taken in one burst
        setups += [child("setup", config=config)[0]["setup_s"] for _ in range(SETUPS_PER_RUN)]
        tracing = args.trace == 1 and len(traced) < len(untraced)
        run_dir = work / "run"
        result, stderr = child("run", workload=w.name, world_root=world_root, run_dir=run_dir,
                               run_id=len(durations), trace=int(tracing))
        ops = result["ops"]
        run_failures, run_reports = check_run(run_dir, ops, bayes, reference)
        attempted += len(ops)
        failures += run_failures
        if run_failures and stderr:
            print(stderr[-4000:], file=sys.stderr)
        reports = reports or run_reports
        (traced if tracing else untraced).append(result)
        shutil.rmtree(run_dir)
        durations.append(time.perf_counter() - start)
        # stop before a run that would end past the deadline, once enough have run
        next_end = time.perf_counter() + statistics.median(durations)
        enough = len(durations) >= MIN_RUNS and (args.trace == 0 or traced)
        if (enough and next_end > deadline) or next_end - began > TIME_CAP_S:
            break

    def median_of(runs: list[dict], key: str) -> float:
        return statistics.median(stage_seconds(r["ops"])[key] for r in runs)

    def quality(field: str) -> float:
        return statistics.fmean(r[field] for r in reports) if reports else 0.0

    if args.trace:
        metrics = summarize(traced, set(TARGETS) - w.quiet_spans)
        metrics["trace.overhead_s"] = median_of(traced, "pipeline_s") - median_of(untraced, "pipeline_s")
        # stage times and eod spread too widely across seeds for an end-to-end
        # bound (see bench/README.md); they come from the untraced runs
        metrics.update({key: median_of(untraced, key) for key in STAGE_METRICS.values()})
        metrics["eod_pct"] = quality("eod")
    else:
        metrics = {
            "pipeline_s": median_of(untraced, "pipeline_s"),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
            "avg_acc_pct": quality("avg_acc"),
            "min_grp_acc_pct": quality("min_grp_acc"),
        }
    record = {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "untraced_runs": len(untraced),
        "traced_runs": len(traced),
        "setup_samples": len(setups),
        "nproc": nproc,
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "numpy": env_info["numpy"],
        "blas": env_info["blas"],
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
        "bayes_accuracy_pct": [100.0 * b for b in bayes],
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
    }
    if traced:
        record["trace_bindings"] = traced[0]["bindings"]
    return metrics, record


def unit(name: str) -> str:
    if name.endswith("_pct"):
        return "pct"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "fairssl" / "cli.py").is_file():
        print(f"fairssl sources not found under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)  # left by a killed run with the same pid
    work.mkdir(parents=True)
    try:
        metrics, record = benchmark(args, WORKLOADS[args.workload], work)
    except (BenchError, TraceError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another benchmark run still uses it
    print("run record: " + json.dumps(record, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name:45s} {value:14.6f} {unit(name)}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
