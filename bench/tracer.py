"""Span tracing of fairssl layer functions, installed from outside the package.

Each traced function is wrapped once and the wrapper is bound in place of
every module attribute (and class attribute) that refers to it, so calls
through re-imported names such as ``trainer.forward_embed`` are seen too.
A span records name, start, end, parent span and run id; spans stay in
memory until the run ends. Return-value hooks add exact counts (rows kept,
probe iterations, skipped meta steps) next to the timings.

Stdlib only at import time: the benchmark parent aggregates spans without
importing numpy.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from collections import defaultdict

# span name -> (home module, attribute path)
TARGETS = {
    "store.load_embeddings": ("fairssl.store", "load_embeddings"),
    "store.DatasetManifest.load": ("fairssl.store", "DatasetManifest.load"),
    "store.DatasetManifest.save": ("fairssl.store", "DatasetManifest.save"),
    "curation.deduplicate": ("fairssl.curation", "deduplicate"),
    "curation.knn_retrieve": ("fairssl.curation", "knn_retrieve"),
    "curation.build_augmented_curated": ("fairssl.curation", "build_augmented_curated"),
    "pseudolabel.build_pseudolabel_table": ("fairssl.pseudolabel", "build_pseudolabel_table"),
    "pseudolabel.select_validation_subset": ("fairssl.pseudolabel", "select_validation_subset"),
    "network.forward_embed": ("fairssl.network", "forward_embed"),
    "network.backward": ("fairssl.network", "backward"),
    "network.forward_jvp": ("fairssl.network", "forward_jvp"),
    "network.forward_features": ("fairssl.network", "forward_features"),
    "network.save_checkpoint": ("fairssl.network", "save_checkpoint"),
    "network.load_checkpoint": ("fairssl.network", "load_checkpoint"),
    "losses.multi_attribute_anchor_stats": ("fairssl.losses", "multi_attribute_anchor_stats"),
    "losses.weighted_grad_from_stats": ("fairssl.losses", "weighted_grad_from_stats"),
    "losses.validation_topk_loss": ("fairssl.losses", "validation_topk_loss"),
    "losses.contrastive_loss": ("fairssl.losses", "contrastive_loss"),
    "trainer.pretrain_epoch": ("fairssl.trainer", "pretrain_epoch"),
    "trainer.make_views": ("fairssl.trainer", "make_views"),
    "trainer.AdamW.step": ("fairssl.trainer", "AdamW.step"),
    "trainer.meta_step": ("fairssl.trainer", "meta_step"),
    "evaluation.train_probe": ("fairssl.evaluation", "train_probe"),
    "evaluation.build_report": ("fairssl.evaluation", "build_report"),
    "pipeline.write_run_manifest": ("fairssl.pipeline", "write_run_manifest"),
    "config.load_config": ("fairssl.config", "load_config"),
}

# spans whose call count is reported as a per-layer metric
COUNTED = ("network.forward_embed", "network.backward", "trainer.AdamW.step",
           "trainer.meta_step", "evaluation.train_probe")
TAIL_SAMPLES = 10  # a percentile is reported only with this many calls beyond it


def _count_dedup(counts, args, result):
    counts["curation.dedup_pool_rows"] += args["pool"].n
    counts["curation.dedup_kept_rows"] += len(result)


def _count_knn(counts, args, result):
    counts["curation.retrieval_slots"] += args["curated"].n * args["m"]
    counts["curation.retrieved_rows"] += len(result)


def _count_meta(counts, args, result):
    counts["trainer.meta_step.batch_samples"] += len(args["idx"])
    counts["trainer.meta_step.active_samples"] += result["active_samples"]
    counts["trainer.meta_step.skipped"] += int(result["skipped"])


def _count_probe(counts, args, result):
    counts["evaluation.train_probe.iterations"] += result.iterations


HOOKS = {
    "curation.deduplicate": _count_dedup,
    "curation.knn_retrieve": _count_knn,
    "trainer.meta_step": _count_meta,
    "evaluation.train_probe": _count_probe,
}


class TraceError(RuntimeError):
    """A traced function is missing or a span failed to fire."""


class Tracer:
    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index, run id]
        self.counts: dict[str, int] = defaultdict(int)
        self.bindings: dict[str, int] = {}
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        sid = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(sid)

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if hook:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self.counts, bound.arguments, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target and rebind it wherever the package refers to it.
        Raises TraceError when a target no longer exists."""
        importlib.import_module("fairssl.cli")  # imports every pipeline module
        modules = [m for n, m in sys.modules.items() if n == "fairssl" or n.startswith("fairssl.")]
        for name, (module, path) in TARGETS.items():
            home = importlib.import_module(module)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(home, owner_name) if owner_name else home
            raw = inspect.getattr_static(owner, attr, None)
            if raw is None:
                raise TraceError(f"{module}.{path} not found; update bench/tracer.py TARGETS")
            if owner_name:  # method or classmethod: patch on the class
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self._wrap(name, raw.__func__)))
                else:
                    setattr(owner, attr, self._wrap(name, raw))
                self.bindings[name] = 1
                continue
            wrapped = self._wrap(name, raw)
            hits = 0
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, key, wrapped)
                        hits += 1
            self.bindings[name] = hits


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the time its child spans cover. Spans
    nest (one thread), so the children's durations add up without overlap."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _percentile(values: list[float], q: float) -> float:
    return statistics.quantiles(values, n=1000, method="inclusive")[round(q * 10) - 1]


def summarize(runs: list[dict], expected: set[str]) -> dict[str, float]:
    """Per-layer metrics from traced runs, each a median over runs.

    ``runs`` holds each run's spans and counts. Raises TraceError when an
    expected span never fired, or when a stage's layer self times exceed the
    stage's wall time.
    """
    per_run: list[dict[str, float]] = []
    meta_ms: list[float] = []
    for run in runs:
        spans, counts = run["spans"], run["counts"]
        own = self_times(spans)
        totals: dict[str, float] = defaultdict(float)
        stage_layers: dict[int, float] = defaultdict(float)
        for i, (name, start, end, parent, _) in enumerate(spans):
            if name.startswith("stage."):
                continue
            totals[f"{name}.self_s"] += own[i]
            totals[f"{name}.calls"] += 1
            root = i if parent < 0 else parent
            while spans[root][3] >= 0:
                root = spans[root][3]
            stage_layers[root] += own[i]
            if name == "trainer.meta_step":
                meta_ms.append(1e3 * (end - start))
        for root, layer_s in stage_layers.items():
            wall = spans[root][2] - spans[root][1]
            if layer_s > wall + 1e-9:
                raise TraceError(f"{spans[root][0]}: layer self times {layer_s:.6f}s exceed wall {wall:.6f}s")
        silent = sorted(n for n in expected if totals.get(f"{n}.calls", 0) == 0)
        if silent:
            raise TraceError(f"spans recorded zero calls: {silent}")
        totals.update(counts)
        per_run.append(totals)

    def med(key: str) -> float:
        return statistics.median(r.get(key, 0.0) for r in per_run)

    out = {f"{n}.self_s": med(f"{n}.self_s") for n in TARGETS}
    out.update({f"{n}.calls": med(f"{n}.calls") for n in COUNTED})
    out["evaluation.train_probe.iterations"] = med("evaluation.train_probe.iterations")
    out["curation.dedup_kept_rows"] = med("curation.dedup_kept_rows")
    out["curation.retrieved_rows"] = med("curation.retrieved_rows")
    out["curation.dedup_kept_ratio"] = med("curation.dedup_kept_rows") / med("curation.dedup_pool_rows")
    out["curation.retrieved_unique_ratio"] = med("curation.retrieved_rows") / med("curation.retrieval_slots")
    out["trainer.meta_step.skipped"] = med("trainer.meta_step.skipped")
    out["trainer.meta_step.active_samples"] = med("trainer.meta_step.active_samples")
    meta_calls = med("trainer.meta_step.calls")
    out["trainer.meta_step.skipped_ratio"] = med("trainer.meta_step.skipped") / meta_calls
    out["trainer.meta_step.active_ratio"] = (
        med("trainer.meta_step.active_samples") / med("trainer.meta_step.batch_samples")
    )
    # the tail percentile: p99, or lower when fewer than TAIL_SAMPLES calls lie beyond it
    tail = min(99.0, 100.0 * (1.0 - TAIL_SAMPLES / len(meta_ms)))
    tail = max(50.0, int(tail * 10) / 10)
    out["trainer.meta_step.p50_ms"] = statistics.median(meta_ms)
    out["trainer.meta_step.p99_ms"] = _percentile(meta_ms, tail)
    out["trainer.meta_step.tail_pct"] = tail
    out["trainer.meta_step.samples"] = len(meta_ms)
    return out
