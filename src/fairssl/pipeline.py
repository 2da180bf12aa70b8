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
import json
import logging
from pathlib import Path

import numpy as np

from . import __version__
from .config import PipelineConfig
from .curation import curate
from .errors import ConfigError, DataError
from .evaluation import build_report, train_probe
from .network import ModelParams, forward_features, load_checkpoint, save_checkpoint
from .pseudolabel import PseudoLabelTable, TemplateBank, build_pseudolabel_table, select_validation_subset
from .seeding import substream
from .store import DatasetManifest, load_embeddings, normalize_rows, save_embeddings
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
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _write_history(path: Path, history: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_HISTORY_COLUMNS)
        for row in history:
            writer.writerow(
                [
                    row.get("epoch", ""),
                    row.get("stage", ""),
                    *(
                        repr(float(row[key])) if key in row and row[key] == row[key] else ""
                        for key in ("loss", "val_topk_loss", "weight_entropy", "lr")
                    ),
                ]
            )


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
    except OSError:
        pass  # reporting the original failure matters more than the marker


def _artifact(cfg: PipelineConfig, name: str) -> Path:
    return cfg.out_dir() / ARTIFACTS[name]


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

    artifacts = {
        "augmented_embeddings": _artifact(cfg, "augmented_embeddings"),
        "augmented_manifest": _artifact(cfg, "augmented_manifest"),
        "curation_report": _artifact(cfg, "curation_report"),
    }
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
    artifacts = {"pseudolabels": _artifact(cfg, "pseudolabels")}
    table.save(artifacts["pseudolabels"])
    write_run_manifest(cfg, "pseudolabel", inputs, artifacts)
    return artifacts


def _load_training_inputs(cfg: PipelineConfig) -> tuple[np.ndarray, PseudoLabelTable, int]:
    emb_path = _require_artifact(cfg, "augmented_embeddings", "curate")
    table_path = _require_artifact(cfg, "pseudolabels", "pseudolabel")
    images = load_embeddings(emb_path)
    table = PseudoLabelTable.load(table_path)
    if table.n != images.n:
        raise DataError(
            f"pseudo-label table covers {table.n} samples but embeddings have {images.n}"
        )
    val_attr = cfg.val_attribute or table.attribute_names[0]
    return images.data, table, table.attribute_index(val_attr)


def _init_params(cfg: PipelineConfig, input_dim: int) -> ModelParams:
    return ModelParams.create(
        input_dim,
        cfg.model.encoder_dims,
        cfg.model.projection_dims,
        num_classes=cfg.model.num_classes,
        seed=cfg.seed,
    )


def run_pretrain(cfg: PipelineConfig) -> dict[str, Path]:
    X, table, val_col = _load_training_inputs(cfg)
    tcfg = cfg.trainer
    params = _init_params(cfg, X.shape[1])
    attributes = list(range(table.num_attributes))
    labels = table.labels.astype(np.int64)
    history = pretrain_stage(
        params, X, labels, attributes, cfg.loss, tcfg,
        stratify_labels=labels[:, val_col],
    )
    artifacts = {
        "pretrain_checkpoint": _artifact(cfg, "pretrain_checkpoint"),
        "pretrain_history": _artifact(cfg, "pretrain_history"),
    }
    save_checkpoint(params, artifacts["pretrain_checkpoint"])
    _write_history(artifacts["pretrain_history"], history)
    inputs = {
        "augmented_embeddings": _artifact(cfg, "augmented_embeddings"),
        "pseudolabels": _artifact(cfg, "pseudolabels"),
    }
    write_run_manifest(cfg, "pretrain", inputs, artifacts)
    return artifacts


def run_train_meta(cfg: PipelineConfig) -> dict[str, Path]:
    X, table, val_col = _load_training_inputs(cfg)
    tcfg = cfg.trainer
    meta_epochs = tcfg.epochs - tcfg.stage1_epochs
    checkpoint = _require_artifact(cfg, "pretrain_checkpoint", "pretrain")
    params = load_checkpoint(checkpoint)
    attributes = list(range(table.num_attributes))
    labels = table.labels.astype(np.int64)
    val_attr = cfg.val_attribute or table.attribute_names[0]
    artifacts = {
        "final_checkpoint": _artifact(cfg, "final_checkpoint"),
        "meta_history": _artifact(cfg, "meta_history"),
        "training_summary": _artifact(cfg, "training_summary"),
    }
    if meta_epochs <= 0:
        # stage_split == 1.0: pure contrastive training, the pretrained model is final
        save_checkpoint(params, artifacts["final_checkpoint"])
        _write_history(artifacts["meta_history"], [])
        _write_json(artifacts["training_summary"], {"meta_epochs": 0})
    else:
        val_idx = select_validation_subset(
            table, val_attr, cfg.pseudolabel.conf_threshold, tcfg.val_subset_size, cfg.seed
        )
        val_y = labels[val_idx, val_col]
        history, summary = meta_stage(
            params, X, labels, attributes, val_idx, val_y, cfg.loss, tcfg,
            epochs=meta_epochs, epoch_offset=tcfg.stage1_epochs,
            stratify_labels=labels[:, val_col],
        )
        save_checkpoint(params, artifacts["final_checkpoint"])
        _write_history(artifacts["meta_history"], history)
        _write_json(artifacts["training_summary"], summary)
    inputs = {
        "augmented_embeddings": _artifact(cfg, "augmented_embeddings"),
        "pseudolabels": _artifact(cfg, "pseudolabels"),
        "pretrain_checkpoint": checkpoint,
    }
    write_run_manifest(cfg, "train-meta", inputs, artifacts)
    return artifacts


def _load_eval_labels(path: Path) -> dict[str, int]:
    labels = {}
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            labels[str(obj["id"])] = int(obj["label"])
        except (json.JSONDecodeError, KeyError, ValueError) as exc:
            raise DataError(f"{path}:{lineno}: bad label record: {exc}") from exc
    return labels


def run_probe(cfg: PipelineConfig, checkpoint_name: str = "final_checkpoint") -> dict[str, Path]:
    inputs = cfg.require_paths("eval_embeddings", "eval_manifest", "eval_labels")
    checkpoint = _require_artifact(cfg, checkpoint_name, "train-meta")
    inputs["checkpoint"] = checkpoint
    params = load_checkpoint(checkpoint)
    embeddings = load_embeddings(inputs["eval_embeddings"])
    manifest = DatasetManifest.load(inputs["eval_manifest"])
    manifest.validate_rows(embeddings.n)
    label_by_id = _load_eval_labels(inputs["eval_labels"])

    ids, rows, labels, groups = [], [], [], []
    for rec in manifest.records:
        if rec.sample_id not in label_by_id:
            raise DataError(f"no evaluation label for sample {rec.sample_id!r}")
        if rec.group_label is None:
            raise DataError(f"sample {rec.sample_id!r} has no group label; probing needs groups")
        ids.append(rec.sample_id)
        rows.append(rec.row_index)
        labels.append(label_by_id[rec.sample_id])
        groups.append(rec.group_label)
    rows_arr = np.asarray(rows)
    labels_arr = np.asarray(labels)
    groups_arr = np.asarray(groups)

    features, _ = forward_features(params, embeddings.data[rows_arr].astype(np.float64))
    rng = substream(cfg.seed, "probe", "split")
    order = rng.permutation(len(ids))
    n_train = int(cfg.probe.train_fraction * len(ids))
    train_sel, test_sel = order[:n_train], order[n_train:]
    probe = train_probe(features[train_sel], labels_arr[train_sel], l2=cfg.probe.l2)
    preds = probe.predict(features[test_sel])

    artifacts = {
        "predictions": _artifact(cfg, "predictions"),
        "fairness_report_json": _artifact(cfg, "fairness_report_json"),
        "fairness_report_txt": _artifact(cfg, "fairness_report_txt"),
    }
    lines = [
        json.dumps({"id": ids[i], "pred": int(p), "label": int(labels_arr[i])}, sort_keys=True)
        for i, p in zip(test_sel, preds)
    ]
    artifacts["predictions"].write_text("\n".join(lines) + "\n")
    report = build_report(preds, labels_arr[test_sel], groups_arr[test_sel])
    artifacts["fairness_report_json"].write_text(report.to_json() + "\n")
    artifacts["fairness_report_txt"].write_text(report.to_text_table() + "\n")
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
    group_by_id = {rec.sample_id: rec.group_label for rec in manifest.records}

    preds, labels, groups = [], [], []
    for lineno, line in enumerate(predictions_path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            sid, p, lab = str(obj["id"]), int(obj["pred"]), int(obj["label"])
        except (json.JSONDecodeError, KeyError, ValueError) as exc:
            raise DataError(f"{predictions_path}:{lineno}: bad prediction record: {exc}") from exc
        if sid not in group_by_id:
            raise DataError(f"prediction names unknown sample id {sid!r}")
        if group_by_id[sid] is None:
            raise DataError(f"sample {sid!r} has no group label in the manifest")
        preds.append(p)
        labels.append(lab)
        groups.append(group_by_id[sid])
    report = build_report(np.asarray(preds), np.asarray(labels), np.asarray(groups))
    artifacts = {
        "fairness_report_json": _artifact(cfg, "fairness_report_json"),
        "fairness_report_txt": _artifact(cfg, "fairness_report_txt"),
    }
    artifacts["fairness_report_json"].write_text(report.to_json() + "\n")
    artifacts["fairness_report_txt"].write_text(report.to_text_table() + "\n")
    write_run_manifest(cfg, "evaluate", inputs, artifacts)
    return artifacts


def run_pipeline(cfg: PipelineConfig) -> dict[str, Path]:
    artifacts: dict[str, Path] = {}
    artifacts.update(run_curate(cfg))
    artifacts.update(run_pseudolabel(cfg))
    artifacts.update(run_pretrain(cfg))
    artifacts.update(run_train_meta(cfg))
    artifacts.update(run_probe(cfg))
    artifacts.update(run_evaluate(cfg))
    inputs = cfg.require_paths(
        "curated_embeddings", "curated_manifest", "uncurated_embeddings", "uncurated_manifest",
        "template_bank", "eval_embeddings", "eval_manifest", "eval_labels",
    )
    write_run_manifest(cfg, "pipeline", inputs, artifacts)
    return artifacts
