"""One stage table and one runner bind the library into reproducible
file-to-file runs.

``STAGES`` declares each command: its body, the config paths it reads, the
upstream artifacts it needs and the artifacts it makes. ``run_stage`` does
the rest: it resolves the inputs (a missing artifact names the stage that
makes it), calls the body, and writes the run manifest (config hash, seed,
package version, input and artifact checksums), or on a ``PipelineError`` a
failure marker in its place. Stages communicate only through files, so
``pipeline`` is exactly the chain of the individual commands; when it
fails, its own manifest, the failing stage's and those of every later stage
are marked failed. Nothing here is time- or host-dependent: identical config
and seed reproduce every artifact bit for bit, regardless of the BLAS thread
count and of the number of worker threads curation runs, on one numpy
build (another may change the last bits of a float sum).
The probe manifest's unhashed ``probe_grad_norm`` is excepted: it may move
with the thread count. The
global seed is the only source of randomness; ``PipelineConfig`` hands it
to the training stages.

Only the probe/evaluate stages read group labels: curation ignores its input
manifests' groups and writes none, and the training stages read no manifest.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .config import PipelineConfig
from .curation import curate
from .errors import ConfigError, DataError, PipelineError
from .evaluation import FairnessReport, build_report, train_probe
from .network import ModelParams, forward_features, load_checkpoint, save_checkpoint
from .pseudolabel import PseudoLabelTable, TemplateBank, build_pseudolabel_table, select_validation_subset
from .seeding import substream
from .store import (
    DatasetManifest, check_unique_ids, load_embeddings, normalize_rows, read_jsonl, save_embeddings, write_file,
    write_jsonl,
)
from .trainer import meta_stage, pretrain_stage

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

_HISTORY_COLUMNS = [
    "epoch", "stage", "loss", "val_topk_loss", "weight_entropy", "lr",
    "skipped_batches", "grad_norm_mean", "grad_norm_max", "active_samples",
]


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
        writer.writerow([_history_cell(row[key]) for key in _HISTORY_COLUMNS])
    write_file(path, buffer.getvalue())


def _history_cell(value) -> str:
    """A name or an integer as it is, a float by its repr, NaN (no value) empty."""
    if isinstance(value, (str, int)):
        return str(value)
    return repr(float(value)) if value == value else ""


def _write_report(artifacts: dict[str, Path], report: FairnessReport) -> None:
    _write_json(artifacts["fairness_report_json"], report.to_dict())
    write_file(artifacts["fairness_report_txt"], report.to_text_table(), "\n")


def _write_manifest(cfg: PipelineConfig, command: str, status: str, fields: dict) -> Path:
    """Write the manifest of ``command``: its identity fields, then ``fields``."""
    path = cfg.out_dir() / f"run_manifest_{command.replace('-', '_')}.json"
    _write_json(path, {
        "command": command,
        "status": status,
        "seed": cfg.seed,
        "config_hash": cfg.config_hash(),
        "package_version": __version__,
        **fields,
    })
    return path


def write_run_manifest(
    cfg: PipelineConfig,
    command: str,
    inputs: dict[str, Path],
    artifacts: dict[str, Path],
    metrics: dict | None = None,
) -> Path:
    """Record a finished stage. ``metrics`` holds deterministic diagnostics
    that are not artifacts (so they are not hashed)."""
    fields = {
        "inputs": {name: _sha256(p) for name, p in sorted(inputs.items())},
        "artifacts": {name: _sha256(p) for name, p in sorted(artifacts.items())},
    }
    if metrics is not None:
        fields["metrics"] = metrics
    return _write_manifest(cfg, command, "ok", fields)


def write_failure_manifest(cfg: PipelineConfig, command: str, error: Exception | str) -> None:
    """Mark a failed run: record the error and whatever files the output
    directory holds, so partial artifacts are never mistaken for a clean run."""
    try:
        partial = sorted(
            p.name for p in cfg.out_dir().iterdir()
            if p.is_file() and not p.name.startswith("run_manifest")
        )
        _write_manifest(cfg, command, "failed", {"error": str(error), "partial_artifacts": partial})
    except (OSError, PipelineError):
        pass  # reporting the original failure matters more than the marker


def _curate(cfg: PipelineConfig, inputs: dict[str, Path], artifacts: dict[str, Path]) -> None:
    curated = load_embeddings(inputs["curated_embeddings"], normalize=True)
    pool = load_embeddings(inputs["uncurated_embeddings"], normalize=True)
    curated_manifest = DatasetManifest.load(inputs["curated_manifest"])
    pool_manifest = DatasetManifest.load(inputs["uncurated_manifest"])
    curated_manifest.validate_rows(curated.n, inputs["curated_manifest"])
    pool_manifest.validate_rows(pool.n, inputs["uncurated_manifest"])

    result, combined = curate(curated, curated_manifest, pool, pool_manifest, cfg.curation)

    save_embeddings(combined, artifacts["augmented_embeddings"])
    result.augmented_manifest.save(artifacts["augmented_manifest"])
    _write_json(artifacts["curation_report"], result.counts)


def _pseudolabel(cfg: PipelineConfig, inputs: dict[str, Path], artifacts: dict[str, Path]) -> None:
    images = load_embeddings(inputs["augmented_embeddings"])
    if not images.normalized:
        images = normalize_rows(images)
    bank = TemplateBank.load(inputs["template_bank"])
    table = build_pseudolabel_table(images, bank, cfg.pseudolabel.scale)
    table.save(artifacts["pseudolabels"])


class _TrainingInputs(NamedTuple):
    X: np.ndarray
    table: PseudoLabelTable
    labels: np.ndarray  # int64 pseudo-labels, one column per attribute
    val_attr: str
    val_col: int


def _load_training_inputs(cfg: PipelineConfig, inputs: dict[str, Path]) -> _TrainingInputs:
    images = load_embeddings(inputs["augmented_embeddings"])
    table = PseudoLabelTable.load(inputs["pseudolabels"])
    if table.n != images.n:
        raise DataError(
            f"pseudo-label table covers {table.n} samples but embeddings have {images.n}"
        )
    val_attr = cfg.val_attribute or table.attribute_names[0]
    return _TrainingInputs(
        images.data, table, table.labels.astype(np.int64), val_attr, table.attribute_index(val_attr)
    )


def _pretrain(cfg: PipelineConfig, inputs: dict[str, Path], artifacts: dict[str, Path]) -> None:
    data = _load_training_inputs(cfg, inputs)
    params = ModelParams.create(data.X.shape[1], cfg.model.encoder_dims, cfg.model.projection_dims, seed=cfg.seed)
    history = pretrain_stage(
        params, data.X, data.labels, cfg.loss, cfg.trainer,
        stratify_labels=data.labels[:, data.val_col],
    )
    save_checkpoint(params, artifacts["pretrain_checkpoint"])
    _write_history(artifacts["pretrain_history"], history)


def _train_meta(cfg: PipelineConfig, inputs: dict[str, Path], artifacts: dict[str, Path]) -> None:
    data = _load_training_inputs(cfg, inputs)
    tcfg = cfg.trainer
    params = load_checkpoint(inputs["pretrain_checkpoint"])
    history, summary = [], {"meta_epochs": 0}
    if tcfg.meta_epochs > 0:  # with stage_split == 1.0 the pretrained model is final
        val_idx = select_validation_subset(
            data.table, data.val_attr, cfg.pseudolabel.conf_threshold, tcfg.val_subset_size, cfg.seed
        )
        history, summary = meta_stage(
            params, data.X, data.labels, val_idx, data.labels[val_idx, data.val_col],
            cfg.loss, tcfg, stratify_labels=data.labels[:, data.val_col],
        )
    save_checkpoint(params, artifacts["final_checkpoint"])
    _write_history(artifacts["meta_history"], history)
    _write_json(artifacts["training_summary"], summary)


def _probe(cfg: PipelineConfig, inputs: dict[str, Path], artifacts: dict[str, Path]) -> dict:
    params = load_checkpoint(inputs["checkpoint"])
    embeddings = load_embeddings(inputs["eval_embeddings"])
    manifest = DatasetManifest.load(inputs["eval_manifest"])
    manifest.validate_rows(embeddings.n, inputs["eval_manifest"])
    label_ids, label_values = read_jsonl(inputs["eval_labels"], {"id": str, "label": int})
    check_unique_ids(label_ids, inputs["eval_labels"])
    label_at = dict(zip(label_ids, range(len(label_ids))))

    ids = manifest.ids
    at = np.array([label_at.get(sid, -1) for sid in ids], dtype=np.int64)
    bad = np.flatnonzero((at < 0) | ~manifest.has_group)
    if bad.size:  # name the first sample without a label or a group
        if at[bad[0]] < 0:
            raise DataError(f"no evaluation label for sample {ids[bad[0]]!r}")
        raise DataError(f"sample {ids[bad[0]]!r} has no group label; probing needs groups")
    labels_arr = label_values[at]

    features = forward_features(params, embeddings.data)[0]  # the tape is dropped here
    rng = substream(cfg.seed, "probe", "split")
    order = rng.permutation(len(ids))
    n_train = int(cfg.probe.train_fraction * len(ids))
    train_sel, test_sel = order[:n_train], order[n_train:]
    probe = train_probe(features[train_sel], labels_arr[train_sel], l2=cfg.probe.l2)
    preds = probe.predict(features[test_sel])

    write_jsonl(artifacts["predictions"], {
        "id": [ids[i] for i in test_sel.tolist()], "pred": preds.tolist(), "label": labels_arr[test_sel].tolist(),
    })
    report = build_report(preds, labels_arr[test_sel], manifest.group[test_sel])
    _write_report(artifacts, report)
    return {
        "probe_iterations": probe.iterations,
        "probe_grad_norm": probe.grad_norm,
        "probe_loss": probe.final_loss,
    }


def _evaluate(cfg: PipelineConfig, inputs: dict[str, Path], artifacts: dict[str, Path]) -> None:
    manifest = DatasetManifest.load(inputs["eval_manifest"])
    position = dict(zip(manifest.ids, range(len(manifest))))

    ids, preds, labels = read_jsonl(inputs["predictions"], {"id": str, "pred": int, "label": int})
    check_unique_ids(ids, inputs["predictions"])  # a prediction counts once
    at = np.array([position.get(sid, -1) for sid in ids], dtype=np.int64)
    # an unknown id (at -1) picks the appended False: ungrouped, and named as unknown
    bad = np.flatnonzero(~np.append(manifest.has_group, False)[at])
    if bad.size:  # name the first prediction that does not join
        if at[bad[0]] < 0:
            raise DataError(f"prediction names unknown sample id {ids[bad[0]]!r}")
        raise DataError(f"sample {ids[bad[0]]!r} has no group label in the manifest")
    report = build_report(preds, labels, manifest.group[at])
    _write_report(artifacts, report)


def _pipeline(cfg: PipelineConfig, inputs: dict[str, Path], artifacts: dict[str, Path]) -> None:
    chain = list(_CHAIN)
    for i, command in enumerate(chain):
        try:
            run_stage(cfg, command)
        except PipelineError as exc:  # later stages' manifests would describe an older run
            for later in chain[i + 1 :]:
                write_failure_manifest(cfg, later, f"not run: stage '{command}' failed: {exc}")
            raise


class Stage(NamedTuple):
    body: Callable  # body(cfg, inputs, artifacts) writes the artifacts, returns metrics or None
    paths: tuple[str, ...]  # config paths it reads (``paths.<name>``)
    needs: dict[str, str]  # input key -> upstream artifact it reads
    makes: tuple[str, ...]  # artifacts it writes


_TRAINING = {name: name for name in ("augmented_embeddings", "pseudolabels")}
_REPORTS = ("fairness_report_json", "fairness_report_txt")

_CHAIN = {
    "curate": Stage(_curate, ("curated_embeddings", "curated_manifest", "uncurated_embeddings", "uncurated_manifest"),
                    {}, ("augmented_embeddings", "augmented_manifest", "curation_report")),
    "pseudolabel": Stage(_pseudolabel, ("template_bank",), {"augmented_embeddings": "augmented_embeddings"},
                         ("pseudolabels",)),
    "pretrain": Stage(_pretrain, (), _TRAINING, ("pretrain_checkpoint", "pretrain_history")),
    "train-meta": Stage(_train_meta, (), {**_TRAINING, "pretrain_checkpoint": "pretrain_checkpoint"},
                        ("final_checkpoint", "meta_history", "training_summary")),
    "probe": Stage(_probe, ("eval_embeddings", "eval_manifest", "eval_labels"), {"checkpoint": "final_checkpoint"},
                   ("predictions", *_REPORTS)),
    "evaluate": Stage(_evaluate, ("eval_manifest",), {"predictions": "predictions"}, _REPORTS),
}

# pipeline runs the chain; its manifest hashes every config path and artifact of it
STAGES = {**_CHAIN, "pipeline": Stage(
    _pipeline,
    tuple(p for stage in _CHAIN.values() for p in stage.paths),
    {},
    tuple(a for stage in _CHAIN.values() for a in stage.makes),
)}


def run_stage(cfg: PipelineConfig, command: str) -> dict[str, Path]:
    """Run one command of ``STAGES`` and return its artifact paths. Records a
    run manifest on success; on a ``PipelineError`` records a failure marker
    in its place and re-raises."""
    stage = STAGES[command]
    try:
        inputs = cfg.require_paths(*stage.paths)
        out = cfg.out_dir()
        for key, name in stage.needs.items():
            path = inputs[key] = out / ARTIFACTS[name]
            if not path.exists():
                producer = next(c for c, s in _CHAIN.items() if name in s.makes)
                raise ConfigError(f"missing {path}; run the '{producer}' stage first")
        artifacts = {name: out / ARTIFACTS[name] for name in stage.makes}
        metrics = stage.body(cfg, inputs, artifacts)
        write_run_manifest(cfg, command, inputs, artifacts, metrics)
    except PipelineError as exc:
        write_failure_manifest(cfg, command, exc)
        raise
    return artifacts
