import json

import pytest
import yaml

from fairssl.cli import main
from fairssl.config import apply_overrides, config_from_dict, load_config
from fairssl.errors import ConfigError
from fairssl.pipeline import run_curate, run_probe
from fairssl.store import DatasetManifest
from fairssl.synthetic import generate_world


@pytest.fixture(scope="module")
def world_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("world")
    world = generate_world(seed=17, out_dir=tmp, n_pool=800, n_curated=80, n_eval=300)
    return tmp, world


def write_config(path, world_files, out_dir, **extra):
    data = {
        "seed": 17,
        "paths": {**world_files, "out_dir": str(out_dir)},
        "trainer": {
            "epochs": 4, "stage_split": 0.5, "batch_size": 16, "warmup_epochs": 1,
            "val_subset_size": 24, "val_topk": 8, "val_batch_size": 12,
        },
        "model": {"encoder_dims": [16, 8], "projection_dims": [16, 16, 6]},
    }
    for key, value in extra.items():
        data[key] = value
    path.write_text(yaml.safe_dump(data))
    return path


class TestConfig:
    def test_seed_mandatory(self):
        with pytest.raises(ConfigError, match="seed"):
            config_from_dict({})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            config_from_dict({"seed": 1, "trainer": {"no_such_option": 2}})
        with pytest.raises(ConfigError, match="unknown"):
            config_from_dict({"seed": 1, "bogus_section": {}})
        for removed in ("knn_backend", "ivf_lists", "ivf_probes"):  # keys of the old approximate search
            with pytest.raises(ConfigError, match="unknown"):
                config_from_dict({"seed": 1, "curation": {removed: 1}})
        with pytest.raises(ConfigError, match="unknown"):  # never read by the probe
            config_from_dict({"seed": 1, "probe": {"attribute": "gender"}})

    def test_overrides(self):
        data = apply_overrides({"seed": 1}, ["trainer.batch_size=8", "loss.temperature=0.5"])
        cfg = config_from_dict(data)
        assert cfg.trainer.batch_size == 8
        assert cfg.loss.temperature == 0.5

    def test_bad_override_shape(self):
        with pytest.raises(ConfigError):
            apply_overrides({}, ["no_equals_sign"])

    def test_hash_stable_and_sensitive(self):
        a = config_from_dict({"seed": 1})
        b = config_from_dict({"seed": 1})
        c = config_from_dict({"seed": 2})
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()

    def test_relative_paths_resolved_against_config(self, tmp_path):
        (tmp_path / "data").mkdir()
        (tmp_path / "cfg.yaml").write_text(
            yaml.safe_dump({"seed": 1, "paths": {"curated_embeddings": "data/x.fssl"}})
        )
        cfg = load_config(tmp_path / "cfg.yaml")
        assert cfg.paths.curated_embeddings == str(tmp_path / "data" / "x.fssl")

    def test_missing_file_named_in_error(self, tmp_path):
        cfg = config_from_dict({"seed": 1, "paths": {"curated_embeddings": str(tmp_path / "nope.fssl")}})
        with pytest.raises(ConfigError, match="nope.fssl"):
            cfg.require_paths("curated_embeddings")


class TestCliExitCodes:
    def test_missing_config_file(self, capsys):
        assert main(["curate", "--config", "/definitely/not/here.yaml"]) == 2
        assert "not/here.yaml" in capsys.readouterr().err

    def test_missing_embedding_file_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(yaml.safe_dump({
            "seed": 1,
            "paths": {
                "curated_embeddings": str(tmp_path / "absent.fssl"),
                "curated_manifest": str(tmp_path / "absent.jsonl"),
                "uncurated_embeddings": str(tmp_path / "absent2.fssl"),
                "uncurated_manifest": str(tmp_path / "absent2.jsonl"),
                "out_dir": str(tmp_path / "out"),
            },
        }))
        assert main(["curate", "--config", str(cfg_path)]) == 2
        assert "absent.fssl" in capsys.readouterr().err

    def test_invalid_config_value_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(yaml.safe_dump({"seed": 1}))
        code = main(["pretrain", "--config", str(cfg_path), "--set", "trainer.batch_size=1"])
        assert code == 2
        assert "batch_size" in capsys.readouterr().err

    def test_corrupt_data_exits_3_and_flags_failure(self, tmp_path, world_dir, capsys):
        wdir, world = world_dir
        import struct

        bad = tmp_path / "bad.fssl"
        bad.write_bytes(struct.pack("<4sIQII", b"FSSL", 1, 2, 2, 0))  # 2x2 declared, payload missing
        cfg_path = write_config(tmp_path / "cfg.yaml", dict(world.files, curated_embeddings=str(bad)), tmp_path / "out")
        assert main(["curate", "--config", str(cfg_path)]) == 3
        marker = json.loads((tmp_path / "out" / "run_manifest_curate.json").read_text())
        assert marker["status"] == "failed"
        assert "bad.fssl" in marker["error"]

    def test_pipeline_failure_lists_partial_artifacts(self, tmp_path, world_dir):
        wdir, world = world_dir
        # valid curation inputs but a corrupt template bank: curate succeeds,
        # pseudolabel fails, and the failure marker lists the partial output
        bank = tmp_path / "bank.json"
        bank.write_text("{not json")
        cfg_path = write_config(
            tmp_path / "cfg.yaml", dict(world.files, template_bank=str(bank)), tmp_path / "out"
        )
        assert main(["pipeline", "--config", str(cfg_path)]) == 3
        marker = json.loads((tmp_path / "out" / "run_manifest_pipeline.json").read_text())
        assert marker["status"] == "failed"
        assert "augmented.fssl" in marker["partial_artifacts"]


class TestStages:
    def test_curate_writes_report_and_strips_groups(self, tmp_path, world_dir):
        wdir, world = world_dir
        # inject group labels into the training manifests: they must not survive
        manifest = DatasetManifest.load(world.files["uncurated_manifest"])
        from dataclasses import replace

        tagged = DatasetManifest([replace(r, group_label=1) for r in manifest.records])
        tagged_path = tmp_path / "tagged_uncurated.jsonl"
        tagged.save(tagged_path)
        files = dict(world.files, uncurated_manifest=str(tagged_path))
        cfg = config_from_dict({"seed": 3, "paths": {**files, "out_dir": str(tmp_path / "out")}})
        artifacts = run_curate(cfg)
        augmented = DatasetManifest.load(artifacts["augmented_manifest"])
        assert not augmented.has_group_labels()
        report = json.loads(artifacts["curation_report"].read_text())
        assert report["augmented_total"] == len(augmented)
        assert report["kept_after_dedup"] <= report["pool"]

    def test_cli_pipeline_and_evaluate_smoke(self, tmp_path, world_dir, capsys):
        wdir, world = world_dir
        cfg_path = write_config(tmp_path / "cfg.yaml", world.files, tmp_path / "out")
        assert main(["pipeline", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "Avg. Acc" in out

        # evaluate re-reads the saved predictions and prints the report JSON
        assert main(["evaluate", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        report = json.loads(out)
        assert set(report) >= {"avg_acc", "ser", "eod", "dpd", "min_grp_acc", "max_grp_acc"}

    def test_probe_prints_only_from_the_cli(self, tmp_path, world_dir, capsys):
        wdir, world = world_dir
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path / "cfg.yaml", world.files, out)
        for stage in ("curate", "pseudolabel", "pretrain", "train-meta"):
            assert main([stage, "--config", str(cfg_path)]) == 0
        capsys.readouterr()

        run_probe(load_config(cfg_path))
        assert capsys.readouterr().out == ""
        metrics = json.loads((out / "run_manifest_probe.json").read_text())["metrics"]
        assert set(metrics) == {"probe_iterations", "probe_grad_norm", "probe_loss"}
        assert 0 < metrics["probe_iterations"] <= 30
        assert metrics["probe_grad_norm"] <= 1e-8

        assert main(["probe", "--config", str(cfg_path)]) == 0
        printed = capsys.readouterr().out
        assert "Avg. Acc" in printed
        assert printed == (out / "fairness_report.txt").read_text()
        rerun = json.loads((out / "run_manifest_probe.json").read_text())["metrics"]
        assert rerun == metrics

    def test_stage_order_enforced(self, tmp_path, world_dir, capsys):
        wdir, world = world_dir
        cfg_path = write_config(tmp_path / "cfg.yaml", world.files, tmp_path / "fresh_out")
        code = main(["pretrain", "--config", str(cfg_path)])
        assert code == 2
        assert "curate" in capsys.readouterr().err

    def test_run_manifest_traceability(self, tmp_path, world_dir):
        wdir, world = world_dir
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path / "cfg.yaml", world.files, out)
        assert main(["pipeline", "--config", str(cfg_path)]) == 0
        manifest = json.loads((out / "run_manifest_pipeline.json").read_text())
        assert manifest["seed"] == 17
        assert len(manifest["config_hash"]) == 64
        assert set(manifest["inputs"]) >= {"curated_embeddings", "template_bank"}
        for name, digest in manifest["artifacts"].items():
            assert len(digest) == 64
