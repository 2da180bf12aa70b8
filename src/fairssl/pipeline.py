"""Stage runners binding the library into reproducible file-to-file runs.

Each stage reads its inputs, writes its artifacts into the configured output
directory, and records a run manifest (config hash, seed, package version,
input and artifact checksums). Stages communicate only through files, so a
`pipeline` run is exactly the chain of the individual subcommands. Nothing
here is time- or host-dependent: identical config and seed reproduce every
artifact bit for bit, regardless of the workers setting.

Training-side stages receive manifests with group labels stripped; only the
probe/evaluate stages ever read groups.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .config import PipelineConfig
from .curation import curate
from .errors import ConfigError, DataError, PipelineError
from .evaluation import FairnessReport, build_report, train_probe
from .network import ModelParams, forward_features, load_checkpoint, save_checkpoint
from .pseudolabel import (
    PseudoLabelTable,
    TemplateBank,
    build_pseudolabel_table,
    names_path,
    select_validation_subset,
)
from .seeding import substream
from .store import DatasetManifest, load_embeddings, normalize_rows, read_jsonl, save_embeddings, write_file
from .trainer import meta_stage, pretrain_stage

log = logging.getLogger(__name__)

ARTIFACTS = {
    "augmented_embeddings": "augmented.fssl",
    "augmented_manifest": "augmented_manifest.jsonl",
    "curation_report": "curation_report.json",
    "pseudolabels": "pseudolabels.fspl",
    "pretrain_checkpoint": "pretrain_checkpoint.fsck",
    "pretrain_history": "pretrain_history.csv",
    "final_checkpoint": "final_checkpoint.fsck",
    "meta_history": "meta_history.csv",
    "training_summary": "training_summary.json",
    "predictions": "probe_predictions.jsonl",
    "fairness_report_json": "fairness_report.json",
    "fairness_report_txt": "fairness_report.txt",
}

_HISTORY_COLUMNS = ["epoch", "stage", "loss", "val_topk_loss", "weight_entropy", "lr"]


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_json(path: Path, obj: dict) -> None:
    write_file(path, json.dumps(obj, sort_keys=True, indent=2), "\n")


def _write_history(path: Path, history: list[dict]) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(_HISTORY_COLUMNS)
    for row in history:
        floats = (repr(float(row[k])) if k in row and row[k] == row[k] else "" for k in _HISTORY_COLUMNS[2:])
        writer.writerow([row.get("epoch", ""), row.get("stage", ""), *floats])
    write_file(path, buffer.getvalue())


def _write_report(artifacts: dict[str, Path], report: FairnessReport) -> None:
    write_file(artifacts["fairness_report_json"], report.to_json(), "\n")
    write_file(artifacts["fairness_report_txt"], report.to_text_table(), "\n")


def write_run_manifest(
    cfg: PipelineConfig,
    command: str,
    inputs: dict[str, Path],
    artifacts: dict[str, Path],
    metrics: dict | None = None,
) -> Path:
    """Record a finished stage. ``metrics`` holds deterministic diagnostics
    that are not artifacts (so they are not hashed)."""
    manifest = {
        "command": command,
        "status": "ok",
        "seed": cfg.seed,
        "workers": cfg.workers,
        "config_hash": cfg.config_hash(),
        "package_version": __version__,
        "inputs": {name: _sha256(p) for name, p in sorted(inputs.items())},
        "artifacts": {name: _sha256(p) for name, p in sorted(artifacts.items())},
    }
    if metrics is not None:
        manifest["metrics"] = metrics
    path = cfg.out_dir() / f"run_manifest_{command.replace('-', '_')}.json"
    _write_json(path, manifest)
    return path


def write_failure_manifest(cfg: PipelineConfig, command: str, error: Exception) -> None:
    """Mark a failed run: record the error and whatever files the output
    directory holds, so partial artifacts are never mistaken for a clean run."""
    try:
        out = cfg.out_dir()
        partial = sorted(
            p.name for p in out.iterdir()
            if p.is_file() and not p.name.startswith("run_manifest")
        )
        manifest = {
            "command": command,
            "status": "failed",
            "error": str(error),
            "seed": cfg.seed,
            "config_hash": cfg.config_hash(),
            "package_version": __version__,
            "partial_artifacts": partial,
        }
        _write_json(out / f"run_manifest_{command.replace('-', '_')}.json", manifest)
    except (OSError, PipelineError):
        pass  # reporting the original failure matters more than the marker


def _artifact(cfg: PipelineConfig, name: str) -> Path:
    return cfg.out_dir() / ARTIFACTS[name]


def _artifacts(cfg: PipelineConfig, *names: str) -> dict[str, Path]:
    return {name: _artifact(cfg, name) for name in names}


def _require_artifact(cfg: PipelineConfig, name: str, producer: str) -> Path:
    path = _artifact(cfg, name)
    if not path.exists():
        raise ConfigError(f"missing {path}; run the '{producer}' stage first")
    return path


def run_curate(cfg: PipelineConfig) -> dict[str, Path]:
    inputs = cfg.require_paths(
        "curated_embeddings", "curated_manifest", "uncurated_embeddings", "uncurated_manifest"
    )
    curated = normalize_rows(load_embeddings(inputs["curated_embeddings"]))
    pool = normalize_rows(load_embeddings(inputs["uncurated_embeddings"]))
    curated_manifest = DatasetManifest.load(inputs["curated_manifest"]).strip_group_labels()
    pool_manifest = DatasetManifest.load(inputs["uncurated_manifest"]).strip_group_labels()
    curated_manifest.validate_rows(curated.n)
    pool_manifest.validate_rows(pool.n)

    result, combined = curate(curated, curated_manifest, pool, pool_manifest, cfg.curation)

    artifacts = _artifacts(cfg, "augmented_embeddings", "augmented_manifest", "curation_report")
    save_embeddings(combined, artifacts["augmented_embeddings"])
    result.augmented_manifest.save(artifacts["augmented_manifest"])
    _write_json(artifacts["curation_report"], result.counts)
    write_run_manifest(cfg, "curate", inputs, artifacts)
    return artifacts


def run_pseudolabel(cfg: PipelineConfig) -> dict[str, Path]:
    inputs = dict(cfg.require_paths("template_bank"))
    inputs["augmented_embeddings"] = _require_artifact(cfg, "augmented_embeddings", "curate")
    images = load_embeddings(inputs["augmented_embeddings"])
    if not images.normalized:
        images = normalize_rows(images)
    bank = TemplateBank.load(inputs["template_bank"])
    table = build_pseudolabel_table(images, bank, cfg.pseudolabel.scale)
    table_path = _artifact(cfg, "pseudolabels")
    artifacts = {"pseudolabels": table_path, "pseudolabel_names": names_path(table_path)}
    table.save(table_path)
    write_run_manifest(cfg, "pseudolabel", inputs, artifacts)
    return artifacts


class _TrainingInputs(NamedTuple):
    X: np.ndarray
    table: PseudoLabelTable
    labels: np.ndarray  # int64 pseudo-labels, one column per attribute
    attributes: list[int]
    val_attr: str
    val_col: int
    inputs: dict[str, Path]  # the files they come from, for the run manifest


def _load_training_inputs(cfg: PipelineConfig) -> _TrainingInputs:
    emb_path = _require_artifact(cfg, "augmented_embeddings", "curate")
    table_path = _require_artifact(cfg, "pseudolabels", "pseudolabel")
    images = load_embeddings(emb_path)
    table = PseudoLabelTable.load(table_path)
    if table.n != images.n:
        raise DataError(
            f"pseudo-label table covers {table.n} samples but embeddings have {images.n}"
        )
    val_attr = cfg.val_attribute or table.attribute_names[0]
    return _TrainingInputs(
        images.data, table, table.labels.astype(np.int64), list(range(table.num_attributes)),
        val_attr, table.attribute_index(val_attr),
        {"augmented_embeddings": emb_path, "pseudolabels": table_path, "pseudolabel_names": names_path(table_path)},
    )


def _init_params(cfg: PipelineConfig, input_dim: int) -> ModelParams:
    return ModelParams.create(
        input_dim,
        cfg.model.encoder_dims,
        cfg.model.projection_dims,
        num_classes=cfg.model.num_classes,
        seed=cfg.seed,
    )


def run_pretrain(cfg: PipelineConfig) -> dict[str, Path]:
    data = _load_training_inputs(cfg)
    params = _init_params(cfg, data.X.shape[1])
    history = pretrain_stage(
        params, data.X, data.labels, data.attributes, cfg.loss, cfg.trainer,
        stratify_labels=data.labels[:, data.val_col],
    )
    artifacts = _artifacts(cfg, "pretrain_checkpoint", "pretrain_history")
    save_checkpoint(params, artifacts["pretrain_checkpoint"])
    _write_history(artifacts["pretrain_history"], history)
    write_run_manifest(cfg, "pretrain", data.inputs, artifacts)
    return artifacts


def run_train_meta(cfg: PipelineConfig) -> dict[str, Path]:
    data = _load_training_inputs(cfg)
    tcfg = cfg.trainer
    checkpoint = _require_artifact(cfg, "pretrain_checkpoint", "pretrain")
    params = load_checkpoint(checkpoint)
    history, summary = [], {"meta_epochs": 0}
    if tcfg.meta_epochs > 0:  # with stage_split == 1.0 the pretrained model is final
        val_idx = select_validation_subset(
            data.table, data.val_attr, cfg.pseudolabel.conf_threshold, tcfg.val_subset_size, cfg.seed
        )
        history, summary = meta_stage(
            params, data.X, data.labels, data.attributes, val_idx, data.labels[val_idx, data.val_col],
            cfg.loss, tcfg, stratify_labels=data.labels[:, data.val_col],
        )
    artifacts = _artifacts(cfg, "final_checkpoint", "meta_history", "training_summary")
    save_checkpoint(params, artifacts["final_checkpoint"])
    _write_history(artifacts["meta_history"], history)
    _write_json(artifacts["training_summary"], summary)
    write_run_manifest(cfg, "train-meta", {**data.inputs, "pretrain_checkpoint": checkpoint}, artifacts)
    return artifacts


def run_probe(cfg: PipelineConfig, checkpoint_name: str = "final_checkpoint") -> dict[str, Path]:
    inputs = cfg.require_paths("eval_embeddings", "eval_manifest", "eval_labels")
    checkpoint = _require_artifact(cfg, checkpoint_name, "train-meta")
    inputs["checkpoint"] = checkpoint
    params = load_checkpoint(checkpoint)
    embeddings = load_embeddings(inputs["eval_embeddings"])
    manifest = DatasetManifest.load(inputs["eval_manifest"])
    manifest.validate_rows(embeddings.n)
    label_by_id = dict(read_jsonl(inputs["eval_labels"], {"id": str, "label": int}))

    ids = manifest.ids
    labels = [label_by_id.get(sid) for sid in ids]
    bad = np.flatnonzero(np.equal(np.array(labels, dtype=object), None) | ~manifest.has_group)
    if bad.size:  # name the first sample without a label or a group
        if labels[bad[0]] is None:
            raise DataError(f"no evaluation label for sample {ids[bad[0]]!r}")
        raise DataError(f"sample {ids[bad[0]]!r} has no group label; probing needs groups")
    labels_arr = np.asarray(labels, dtype=np.int64)

    features, _ = forward_features(params, embeddings.data[manifest.rows].astype(np.float64))
    rng = substream(cfg.seed, "probe", "split")
    order = rng.permutation(len(ids))
    n_train = int(cfg.probe.train_fraction * len(ids))
    train_sel, test_sel = order[:n_train], order[n_train:]
    probe = train_probe(features[train_sel], labels_arr[train_sel], l2=cfg.probe.l2)
    preds = probe.predict(features[test_sel])

    artifacts = _artifacts(cfg, "predictions", "fairness_report_json", "fairness_report_txt")
    lines = [
        json.dumps({"id": ids[i], "pred": int(p), "label": int(labels_arr[i])}, sort_keys=True)
        for i, p in zip(test_sel, preds)
    ]
    write_file(artifacts["predictions"], "\n".join(lines), "\n")
    report = build_report(preds, labels_arr[test_sel], manifest.group[test_sel])
    _write_report(artifacts, report)
    metrics = {
        "probe_iterations": probe.iterations,
        "probe_grad_norm": probe.grad_norm,
        "probe_loss": probe.final_loss,
    }
    write_run_manifest(cfg, "probe", inputs, artifacts, metrics)
    return artifacts


def run_evaluate(cfg: PipelineConfig, predictions_path: Path | None = None) -> dict[str, Path]:
    inputs = cfg.require_paths("eval_manifest")
    predictions_path = predictions_path or _require_artifact(cfg, "predictions", "probe")
    inputs["predictions"] = predictions_path
    manifest = DatasetManifest.load(inputs["eval_manifest"])
    position = dict(zip(manifest.ids, range(len(manifest))))

    rows = read_jsonl(predictions_path, {"id": str, "pred": int, "label": int})
    ids, preds, labels = zip(*rows) if rows else ((), (), ())
    at = np.array([position.get(sid, -1) for sid in ids], dtype=np.int64)
    # an unknown id (at -1) picks the appended False: ungrouped, and named as unknown
    bad = np.flatnonzero(~np.append(manifest.has_group, False)[at])
    if bad.size:  # name the first prediction that does not join
        if at[bad[0]] < 0:
            raise DataError(f"prediction names unknown sample id {ids[bad[0]]!r}")
        raise DataError(f"sample {ids[bad[0]]!r} has no group label in the manifest")
    report = build_report(np.asarray(preds), np.asarray(labels), manifest.group[at])
    artifacts = _artifacts(cfg, "fairness_report_json", "fairness_report_txt")
    _write_report(artifacts, report)
    write_run_manifest(cfg, "evaluate", inputs, artifacts)
    return artifacts


def run_pipeline(cfg: PipelineConfig) -> dict[str, Path]:
    artifacts: dict[str, Path] = {}
    for run in (run_curate, run_pseudolabel, run_pretrain, run_train_meta, run_probe, run_evaluate):
        artifacts.update(run(cfg))
    inputs = cfg.require_paths(
        "curated_embeddings", "curated_manifest", "uncurated_embeddings", "uncurated_manifest",
        "template_bank", "eval_embeddings", "eval_manifest", "eval_labels",
    )
    write_run_manifest(cfg, "pipeline", inputs, artifacts)
    return artifacts
