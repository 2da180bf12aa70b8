import csv
import dataclasses
import errno
import hashlib
import importlib.util
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from fairssl import config as config_module
from fairssl.cli import main
from fairssl.config import PipelineConfig, apply_overrides, config_from_dict, load_config
from fairssl.errors import ConfigError, DataError, NumericError
from fairssl.network import Layer, ModelParams, save_checkpoint
from fairssl.pipeline import ARTIFACTS, STAGES, run_stage
from fairssl.store import DatasetManifest, EmbeddingMatrix, load_embeddings, save_embeddings
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


def _known_keys() -> list[tuple[str, ...]]:
    """Every key ``config_from_dict`` knows: (top-level key,) or (section, key)."""
    keys = []
    for f in dataclasses.fields(PipelineConfig):
        hint = config_module._field_type(PipelineConfig, f.name)
        if dataclasses.is_dataclass(hint):
            keys += [(f.name, g.name) for g in dataclasses.fields(hint)]
        else:
            keys.append((f.name,))
    return keys


# integers beyond +-2**1024 convert to no finite float64
_INTEGERS = st.integers() | st.integers(min_value=2**1024) | st.integers(max_value=-(2**1024))
_YAML_SCALARS = st.none() | st.booleans() | _INTEGERS | st.floats() | st.text(max_size=8)


def _numbers(value):
    """Every int and float in a nested dict or list."""
    if isinstance(value, dict):
        return [x for v in value.values() for x in _numbers(v)]
    if isinstance(value, list):
        return [x for v in value for x in _numbers(v)]
    return [value] if isinstance(value, (int, float)) else []


class TestConfig:
    @settings(max_examples=300, deadline=None)
    @given(key=st.sampled_from(_known_keys()), value=_YAML_SCALARS | st.lists(_YAML_SCALARS, max_size=4))
    def test_any_value_at_any_key_loads_or_raises_config_error(self, key, value):
        data = {"seed": 1}
        apply_overrides(data, [f"{'.'.join(key)}={yaml.safe_dump(value, default_flow_style=True).strip()}"])
        try:
            cfg = config_from_dict(data)
        except ConfigError:
            return
        assert len(cfg.config_hash()) == 64
        # what loads, a stage can use: every number is a finite float64, every int an int64
        for number in _numbers(dataclasses.asdict(cfg)):
            assert math.isfinite(float(number))
            assert not isinstance(number, int) or -(2**63) <= number < 2**63

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
        # stage 2 always freezes every encoder layer but the last and always trains the head
        for removed, value in (("freeze_selector", ["encoder.0"]), ("train_head_in_meta", True)):
            with pytest.raises(ConfigError, match="unknown"):
                config_from_dict({"seed": 1, "trainer": {removed: value}})
        # training draws from the global seed, and normalizing the meta weights cancels the step size
        for removed, value in (("seed", 0), ("inner_lr", 0.1)):
            with pytest.raises(ConfigError, match=rf"section 'trainer': unknown keys \['{removed}'\]"):
                config_from_dict({"seed": 1, "trainer": {removed: value}})

    @pytest.mark.parametrize("seed", [3, 4, 11])
    def test_training_draws_from_the_global_seed(self, seed):
        # the stage-1 and stage-2 substreams follow seed and --seed, which is a seed override
        assert config_from_dict({"seed": seed, "trainer": {"epochs": 4}}).trainer.seed == seed
        assert config_from_dict(apply_overrides({"seed": 0}, [f"seed={seed}"])).trainer.seed == seed

    def test_readme_run_yaml_loads(self, tmp_path):
        # the README's example names only settings the loader knows, each with a value of its type
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        path = tmp_path / "run.yaml"
        path.write_text(readme.split("```yaml\n# run.yaml\n", 1)[1].split("```", 1)[0])
        cfg = load_config(path)
        assert cfg.seed == 42 and cfg.paths.out_dir == str(tmp_path / "runs" / "demo")

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

    def test_hash_ignores_where_the_run_lives(self, tmp_path):
        def cfg(root, seed=1):
            return config_from_dict({
                "seed": seed,
                "paths": {
                    "curated_embeddings": str(root / "world" / "curated.fssl"),
                    "template_bank": str(root / "bank.json"),
                    "out_dir": str(root / "runs" / "out"),
                },
            })

        a, b = cfg(tmp_path / "here"), cfg(tmp_path / "elsewhere" / "deeper")
        assert a.paths != b.paths
        assert a.config_hash() == b.config_hash()
        assert cfg(tmp_path / "here", seed=2).config_hash() != a.config_hash()

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


_LOADERS = {"libyaml": config_module._YAML_LOADER, "pure": config_module._PURE_LOADER}


def _bench_workloads():
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module.WORKLOADS


class TestYamlFrontDoor:
    """Configs parse with libyaml where PyYAML has it, and must read exactly as
    with PyYAML's pure-Python parser."""

    def test_libyaml_is_used_when_available(self):
        assert issubclass(_LOADERS["libyaml"], getattr(yaml, "CSafeLoader", yaml.SafeLoader))
        assert issubclass(_LOADERS["pure"], yaml.SafeLoader)
        assert not issubclass(_LOADERS["pure"], getattr(yaml, "CParser", ()))

    @pytest.mark.parametrize("loader", list(_LOADERS))
    def test_exponent_floats_without_a_dot(self, loader, monkeypatch):
        monkeypatch.setattr(config_module, "_YAML_LOADER", _LOADERS[loader])
        parsed = apply_overrides({"seed": 1}, ["trainer.base_lr=1e-3", "trainer.weight_decay=-2E+3"])
        assert parsed["trainer"] == {"base_lr": 0.001, "weight_decay": -2000.0}
        assert type(parsed["trainer"]["base_lr"]) is float
        read = {raw: yaml.load(raw, Loader=_LOADERS[loader]) for raw in ["7", "0x10", "yes", "1e", "1.0e-3"]}
        assert read == {"7": 7, "0x10": 16, "yes": True, "1e": "1e", "1.0e-3": 0.001}

    def test_written_configs_load_the_same_both_ways(self, tmp_path, world_dir, monkeypatch):
        wdir, world = world_dir
        texts = [
            write_config(tmp_path / "cli.yaml", world.files, tmp_path / "out").read_text(),
            yaml.safe_dump({"seed": 1, "paths": {"curated_embeddings": "data/x.fssl"}}),
            yaml.safe_dump({"seed": 1}),
        ]
        relative = {name: os.path.relpath(p, tmp_path) for name, p in world.files.items()}
        for workload in _bench_workloads().values():  # as bench/child.py writes them
            texts.append(yaml.safe_dump({"seed": 3, "paths": relative, **workload.config}, sort_keys=True))
        texts.append(yaml.safe_dump({  # as demos/06_full_pipeline_cli.py writes it
            "seed": 77,
            "paths": {**world.files, "out_dir": str(tmp_path / "run1")},
            "trainer": {
                "epochs": 8, "stage_split": 0.75, "batch_size": 32, "base_lr": 1e-3,
                "warmup_epochs": 1, "val_subset_size": 48, "val_topk": 12,
            },
            "model": {"encoder_dims": [32, 16], "projection_dims": [32, 32, 8]},
            "probe": {"train_fraction": 0.5},
        }))
        for i, text in enumerate(texts):
            path = tmp_path / f"cfg{i}.yaml"
            path.write_text(text)
            loaded = {}
            for name, loader in _LOADERS.items():
                monkeypatch.setattr(config_module, "_YAML_LOADER", loader)
                cfg = load_config(path)
                loaded[name] = (dataclasses.asdict(cfg), cfg.config_hash())
            assert loaded["libyaml"] == loaded["pure"], text

    @pytest.mark.parametrize("raw", ["null", "1e-3", '"7"', "[1, 2]", "", "~", "1.0e-3", "yes", "0x10", "'a b'"])
    def test_override_scalars_parse_the_same_both_ways(self, raw, monkeypatch):
        parsed = []
        for loader in _LOADERS.values():
            monkeypatch.setattr(config_module, "_YAML_LOADER", loader)
            parsed.append(apply_overrides({"seed": 1}, [f"trainer.base_lr={raw}"]))
        assert parsed[0] == parsed[1]

    @pytest.mark.parametrize("loader", list(_LOADERS))
    def test_invalid_yaml_exits_2(self, tmp_path, capsys, monkeypatch, loader):
        monkeypatch.setattr(config_module, "_YAML_LOADER", _LOADERS[loader])
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text("seed: [1\n")
        assert main(["curate", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "invalid YAML" in err and "Traceback" not in err
        cfg_path.write_text("seed: 1\n")
        assert main(["curate", "--config", str(cfg_path), "--set", "trainer.epochs=[1"]) == 2
        err = capsys.readouterr().err
        assert "cannot parse value" in err and "Traceback" not in err


class TestCliExitCodes:
    def test_missing_config_file(self, capsys):
        assert main(["curate", "--config", "/definitely/not/here.yaml"]) == 2
        assert "not/here.yaml" in capsys.readouterr().err

    def test_config_directory_exits_2(self, tmp_path, capsys):
        assert main(["curate", "--config", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"cannot read config file {tmp_path}" in err and "Traceback" not in err

    def test_out_dir_naming_a_file_exits_2(self, tmp_path, world_dir, capsys):
        wdir, world = world_dir
        (tmp_path / "taken").write_text("")
        cfg_path = write_config(tmp_path / "cfg.yaml", world.files, tmp_path / "out")
        assert main(["curate", "--config", str(cfg_path), "--out", str(tmp_path / "taken")]) == 2
        err = capsys.readouterr().err
        assert "paths.out_dir: cannot create directory" in err and "taken" in err
        assert (tmp_path / "taken").read_text() == ""

    @pytest.mark.parametrize("files", [1, None], ids=["first-write", "every-write"])
    def test_failed_rewrite_keeps_previous_run(self, tmp_path, world_dir, capsys, break_writes, files):
        wdir, world = world_dir
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path / "cfg.yaml", world.files, out)
        assert main(["curate", "--config", str(cfg_path)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        # the re-run's first write, augmented.fssl, fails after its header;
        # with every write failing, the failure marker cannot be written either
        break_writes(OSError(errno.ENOSPC, "No space left on device"), files=files)
        capsys.readouterr()
        assert main(["curate", "--config", str(cfg_path)]) == 3
        err = capsys.readouterr().err
        assert "cannot write" in err and "augmented.fssl" in err and "No space left" in err
        after = {p.name: p.read_bytes() for p in out.iterdir()}
        if files == 1:
            marker = json.loads(after.pop("run_manifest_curate.json"))
            assert marker["status"] == "failed" and "augmented.fssl" in marker["error"]
            del before["run_manifest_curate.json"]
        assert after == before  # every file keeps its bytes, and no temp file is left

    @pytest.mark.parametrize("name", ["123", "null"])
    def test_out_is_a_directory_name_relative_to_the_config(self, tmp_path, world_dir, capsys, name):
        wdir, world = world_dir
        cfg_path = write_config(tmp_path / "cfg.yaml", world.files, tmp_path / "out")
        assert main(["curate", "--config", str(cfg_path), "--out", name]) == 0
        manifest = json.loads((tmp_path / name / "run_manifest_curate.json").read_text())
        assert manifest["status"] == "ok" and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("extra", [[], ["--set", "seed=1"], ["--out", "out"]], ids=["plain", "set", "out"])
    def test_config_root_not_a_mapping_exits_2(self, tmp_path, capsys, extra):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text("- 1\n- 2\n")
        assert main(["curate", "--config", str(cfg_path), *extra]) == 2
        err = capsys.readouterr().err
        assert "config root must be a mapping" in err and "Traceback" not in err

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

    @pytest.mark.parametrize("override", [
        "trainer.epochs=2.5", "trainer.batch_size=2.5",
        "curation.retrieval_m=1.5", "model.encoder_dims=[a]", "model.projection_dims=8",
        "seed=2.5", "seed=true", "seed='7'", "seed=[7]",
        # values of the right type that no setting takes: a non-finite float, a width below 1
        "trainer.noise_sigma=.nan", "curation.quality_threshold=.nan", "probe.l2=.inf",
        "trainer.scale_jitter=.inf", "pseudolabel.scale=.nan", "model.encoder_dims=[0]",
        "model.encoder_dims=[-2]", "model.projection_dims=[8,0,4]",
        # integers no stage can take, which loaded and then escaped a stage as a raw exception
        pytest.param("trainer.epochs=1" + "0" * 400, id="trainer.epochs=1e400"),
        pytest.param("probe.l2=1" + "0" * 400, id="probe.l2=1e400"),
        pytest.param("model.encoder_dims=[1" + "0" * 400 + "]", id="model.encoder_dims=[1e400]"),
        pytest.param("probe.l2=-9223372036854775809", id="probe.l2=int64-min-minus-1"),
        pytest.param("trainer.epochs=1" + "0" * 5000, id="trainer.epochs=1e5000"),  # past Python's digit limit
    ])
    def test_mistyped_config_value_exits_2_before_any_stage(self, tmp_path, world_dir, capsys, override):
        wdir, world = world_dir
        cfg_path = write_config(tmp_path / "cfg.yaml", world.files, tmp_path / "out")
        assert main(["pipeline", "--config", str(cfg_path), "--set", override]) == 2
        err = capsys.readouterr().err
        key = override.partition("=")[0].rpartition(".")[2]
        assert err.startswith("configuration error:") and key in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_topk_with_contrastive_objective_exits_2(self, tmp_path, world_dir, capsys):
        # the pairwise objective has no top-k wrapper: the pair would train as if top-k were off
        wdir, world = world_dir
        cfg_path = write_config(tmp_path / "cfg.yaml", world.files, tmp_path / "out")
        topk, contrastive = "loss.topk_enabled=true", "trainer.objective=contrastive"
        assert main(["pipeline", "--config", str(cfg_path), "--set", topk, "--set", contrastive]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "Traceback" not in err
        assert "loss.topk_enabled" in err and "trainer.objective" in err
        assert not (tmp_path / "out").exists()
        assert load_config(cfg_path, [topk]).loss.topk_enabled
        assert load_config(cfg_path, [contrastive]).trainer.objective == "contrastive"

    def test_integer_for_float_runs_and_is_not_converted(self, tmp_path, world_dir, capsys):
        wdir, world = world_dir
        cfg_path = write_config(tmp_path / "cfg.yaml", world.files, tmp_path / "out")
        cfg = load_config(cfg_path, ["trainer.base_lr=1"])
        assert type(cfg.trainer.base_lr) is int  # hashes as 1, not 1.0
        assert main(["pipeline", "--config", str(cfg_path), "--set", "trainer.base_lr=1"]) == 0

    def test_removed_num_classes_key_exits_2_at_load(self, tmp_path, world_dir, capsys):
        # removed keys: the head is always the one logit of the binary pseudo-labels,
        # stage 2 always freezes every encoder layer but the last and trains the head,
        # training draws from the global seed, the meta weights take a unit virtual step
        # and no setting picks a worker count
        wdir, world = world_dir
        cfg_path = write_config(tmp_path / "cfg.yaml", world.files, tmp_path / "out")
        for override in ("model.num_classes=2", "model.num_classes=3",
                         "trainer.freeze_selector=[encoder.0]", "trainer.train_head_in_meta=true",
                         "trainer.seed=0", "trainer.inner_lr=0.1", "workers=1", "workers=4"):
            assert main(["pipeline", "--config", str(cfg_path), "--set", override]) == 2
            err = capsys.readouterr().err
            assert err.startswith("configuration error:") and override.partition("=")[0].split(".")[-1] in err
        with pytest.raises(SystemExit) as exc:  # the flag is gone too
            main(["pipeline", "--config", str(cfg_path), "--workers", "2"])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    def test_head_class_mismatch_exits_3(self, tmp_path, world_dir, capsys):
        # a checkpoint whose head has two rows, as every checkpoint made before the
        # head became the one logit of the binary task: refused at load, naming the file
        wdir, world = world_dir
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path / "cfg.yaml", world.files, out)
        for stage in ("curate", "pseudolabel"):
            assert main([stage, "--config", str(cfg_path)]) == 0
        layer = struct.Struct("<BBBII")  # section, activation, frozen, in_dim, out_dim
        save_checkpoint(ModelParams.create(world.config.dim, [16, 8], [16, 16, 6], seed=17), tmp_path / "one.fsck")
        one = (tmp_path / "one.fsck").read_bytes()
        two = one[: -(layer.size + 4 * 9)] + layer.pack(2, 0, 0, 8, 2) + np.full(18, 0.1, "<f4").tobytes()
        capsys.readouterr()
        for stage, name in (("train-meta", "pretrain_checkpoint.fsck"), ("probe", "final_checkpoint.fsck")):
            (out / name).write_bytes(two)
            assert main([stage, "--config", str(cfg_path)]) == 3
            err = capsys.readouterr().err
            assert f"{out / name}: the head must have 1 output" in err and "got 2" in err
            assert "Traceback" not in err
            marker = json.loads((out / f"run_manifest_{stage.replace('-', '_')}.json").read_text())
            assert marker["status"] == "failed"
            assert name in marker["error"] and "got 2" in marker["error"]

    def test_failed_pipeline_rerun_marks_the_failing_stage(self, tmp_path, world_dir, capsys):
        wdir, world = world_dir
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path / "cfg.yaml", world.files, out)
        assert main(["pipeline", "--config", str(cfg_path)]) == 0
        # the re-run fails in train-meta: its manifest from the first run must not stay "ok"
        too_many = "trainer.val_subset_size=100000"  # more rows than reach the confidence threshold
        assert main(["pipeline", "--config", str(cfg_path), "--set", too_many]) == 3
        rerun_hash = load_config(cfg_path, [too_many]).config_hash()
        for command in ("train_meta", "probe", "evaluate", "pipeline"):
            marker = json.loads((out / f"run_manifest_{command}.json").read_text())
            assert marker["status"] == "failed" and "need 100000" in marker["error"]
            assert marker["config_hash"] == rerun_hash
        pretrain = json.loads((out / "run_manifest_pretrain.json").read_text())
        assert pretrain["status"] == "ok" and pretrain["config_hash"] == rerun_hash

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

    @pytest.mark.parametrize("error, code, prefix", [
        (ConfigError, 2, "configuration error"),
        (DataError, 3, "data error"),
        (NumericError, 4, "numeric failure"),
    ])
    def test_error_class_sets_exit_code_and_prefix(self, tmp_path, world_dir, capsys, monkeypatch,
                                                   error, code, prefix):
        wdir, world = world_dir

        def failing_curate(*args, **kwargs):
            raise error("injected failure")

        monkeypatch.setattr("fairssl.pipeline.curate", failing_curate)
        cfg_path = write_config(tmp_path / "cfg.yaml", world.files, tmp_path / "out")
        assert main(["curate", "--config", str(cfg_path)]) == code
        assert f"{prefix}: injected failure" in capsys.readouterr().err.splitlines()
        marker = json.loads((tmp_path / "out" / "run_manifest_curate.json").read_text())
        assert marker["status"] == "failed"
        assert "injected failure" in marker["error"]

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

    def test_failure_marker_carries_the_run_manifest_identity(self, tmp_path, world_dir):
        # curate succeeds and pseudolabel fails, under one config
        wdir, world = world_dir
        bank = tmp_path / "bank.json"
        bank.write_text("{not json")
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path / "cfg.yaml", dict(world.files, template_bank=str(bank)), out)
        assert main(["curate", "--config", str(cfg_path)]) == 0
        assert main(["pseudolabel", "--config", str(cfg_path)]) == 3
        ok = json.loads((out / "run_manifest_curate.json").read_text())
        failed = json.loads((out / "run_manifest_pseudolabel.json").read_text())
        identity = set(ok) - {"inputs", "artifacts", "metrics"}
        assert identity == set(failed) - {"error", "partial_artifacts"}
        assert identity == {"command", "status", "seed", "config_hash", "package_version"}
        for key in identity - {"command", "status"}:
            assert failed[key] == ok[key]


    @pytest.mark.parametrize("pos, neg, message", [
        (np.ones((1, 4)), np.eye(4)[:1], "pos templates must be unit rows"),  # not flagged as normalized
        (np.eye(4)[:2], np.eye(4)[2:3], "template count/shape mismatch"),
    ])
    def test_bad_template_rows_exit_3_naming_the_bank(self, tmp_path, world_dir, capsys, pos, neg, message):
        wdir, world = world_dir
        for name, rows in (("pos", pos), ("neg", neg)):
            save_embeddings(EmbeddingMatrix(rows.astype(np.float32)), tmp_path / f"{name}.fssl")
        bank = tmp_path / "bank.json"
        bank.write_text(json.dumps({"a": {"pos": "pos.fssl", "neg": "neg.fssl"}}))
        cfg_path = write_config(tmp_path / "cfg.yaml", dict(world.files, template_bank=str(bank)), tmp_path / "out")
        assert main(["curate", "--config", str(cfg_path)]) == 0
        capsys.readouterr()
        assert main(["pseudolabel", "--config", str(cfg_path)]) == 3
        err = capsys.readouterr().err
        assert f"data error: {bank}: attribute 'a': {message}" in err and "Traceback" not in err

    def test_overflowed_gradient_exits_4_at_pretrain(self, tmp_path, world_dir, capsys):
        # 1 / temperature overflows float32, so no similarity of the first batch is finite
        wdir, world = world_dir
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path / "cfg.yaml", world.files, out)
        for stage in ("curate", "pseudolabel"):
            assert main([stage, "--config", str(cfg_path)]) == 0
        capsys.readouterr()
        assert main(["pretrain", "--config", str(cfg_path), "--set", "loss.temperature=1e-300"]) == 4
        err = capsys.readouterr().err
        assert "numeric failure: temperature 1e-300 overflows float32 similarities" in err and "Traceback" not in err
        assert json.loads((out / "run_manifest_pretrain.json").read_text())["status"] == "failed"
        assert not (out / "pretrain_checkpoint.fsck").exists()

    def test_template_bank_without_attributes_exits_3_at_pseudolabel(self, tmp_path, world_dir, capsys):
        wdir, world = world_dir
        bank = tmp_path / "bank.json"
        bank.write_text("{}")
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path / "cfg.yaml", dict(world.files, template_bank=str(bank)), out)
        assert main(["curate", "--config", str(cfg_path)]) == 0
        capsys.readouterr()
        assert main(["pseudolabel", "--config", str(cfg_path)]) == 3
        err = capsys.readouterr().err
        assert "data error: pseudo-label table needs at least one attribute column" in err.splitlines()
        assert "Traceback" not in err
        assert not (out / "pseudolabels.fspl").exists()

# every stage that reads an upstream artifact, and the stage a fresh out dir must run first
STAGE_ORDER = [
    ("pseudolabel", "curate"), ("pretrain", "curate"), ("train-meta", "curate"),
    ("probe", "train-meta"), ("evaluate", "probe"),
]


class TestStages:
    def test_curate_writes_report_and_strips_groups(self, tmp_path, world_dir):
        wdir, world = world_dir
        # inject group labels into the training manifests: they must not survive
        manifest = DatasetManifest.load(world.files["uncurated_manifest"])
        # the loaded group columns are read-only views of one zero: replace them
        manifest.group = np.ones(len(manifest), dtype=np.int64)
        manifest.has_group = np.ones(len(manifest), dtype=bool)
        tagged_path = tmp_path / "tagged_uncurated.jsonl"
        manifest.save(tagged_path)
        files = dict(world.files, uncurated_manifest=str(tagged_path))
        cfg = config_from_dict({"seed": 3, "paths": {**files, "out_dir": str(tmp_path / "out")}})
        artifacts = run_stage(cfg, "curate")
        augmented = DatasetManifest.load(artifacts["augmented_manifest"])
        assert not augmented.has_group.any()
        assert '"group"' not in artifacts["augmented_manifest"].read_text()
        report = json.loads(artifacts["curation_report"].read_text())
        assert report["augmented_total"] == len(augmented)
        assert report["kept_after_dedup"] <= report["pool"]

    def test_curate_is_blind_to_input_groups(self, tmp_path, world_dir):
        # curation reads no group label: tagging both input manifests changes no artifact
        wdir, world = world_dir
        files = dict(world.files)
        for key in ("curated_manifest", "uncurated_manifest"):
            manifest = DatasetManifest.load(world.files[key])
            assert not manifest.has_group.any()
            manifest.group = np.arange(len(manifest)) % 2
            manifest.has_group = np.ones(len(manifest), dtype=bool)
            files[key] = str(tmp_path / f"tagged_{key}.jsonl")
            manifest.save(files[key])
        runs = [
            run_stage(config_from_dict({"seed": 3, "paths": {**paths, "out_dir": str(tmp_path / name)}}), "curate")
            for name, paths in (("plain", world.files), ("tagged", files))
        ]
        assert not DatasetManifest.load(runs[1]["augmented_manifest"]).has_group.any()
        for name, path in runs[0].items():
            assert path.read_bytes() == runs[1][name].read_bytes(), name

    def test_cli_pipeline_and_evaluate_smoke(self, tmp_path, world_dir, capsys):
        wdir, world = world_dir
        cfg_path = write_config(tmp_path / "cfg.yaml", world.files, tmp_path / "out")
        assert main(["pipeline", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "Avg. Acc" in out

        # the chain ends with evaluate, which rewrote the report files the
        # probe hashed in its manifest: their bytes must be the probe's
        probe_hashes = json.loads((tmp_path / "out" / "run_manifest_probe.json").read_text())["artifacts"]
        reports = {f"fairness_report_{ext}": tmp_path / "out" / f"fairness_report.{ext}" for ext in ("json", "txt")}
        written = {name: p.read_bytes() for name, p in reports.items()}
        assert {name: hashlib.sha256(b).hexdigest() for name, b in written.items()} == {
            name: probe_hashes[name] for name in reports
        }

        # evaluate re-reads the saved predictions, prints the report JSON and
        # rewrites the probe's report files byte for byte
        assert main(["evaluate", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        report = json.loads(out)
        assert set(report) >= {"avg_acc", "ser", "eod", "dpd", "min_grp_acc", "max_grp_acc"}
        assert {name: p.read_bytes() for name, p in reports.items()} == written

    def test_artifacts_identical_at_one_and_two_blas_threads(self, tmp_path, world_dir):
        # the model has about 39k parameters, enough for OpenBLAS to split a
        # dot product over threads; the gradient norm must not depend on that
        wdir, world = world_dir
        src = Path(__file__).resolve().parents[1] / "src"
        hashes = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            cfg_path = write_config(tmp_path / f"threads{threads}.yaml", world.files, out,
                                    model={"encoder_dims": [128, 64], "projection_dims": [128, 128, 32]})
            env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])),
                       OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            result = subprocess.run([sys.executable, "-m", "fairssl.cli", "pipeline", "--config", str(cfg_path)],
                                    env=env, capture_output=True, text=True, timeout=300)
            assert result.returncode == 0, result.stderr[-2000:]
            manifests = sorted(out.glob("run_manifest_*.json"))
            hashes.append({p.name: json.loads(p.read_text())["artifacts"] for p in manifests})
        assert len(hashes[0]) == 7 and hashes[0] == hashes[1]

    def test_probe_prints_only_from_the_cli(self, tmp_path, world_dir, capsys):
        wdir, world = world_dir
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path / "cfg.yaml", world.files, out)
        for stage in ("curate", "pseudolabel", "pretrain", "train-meta"):
            assert main([stage, "--config", str(cfg_path)]) == 0
        capsys.readouterr()

        run_stage(load_config(cfg_path), "probe")
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

    def test_histories_record_step_diagnostics_and_the_last_step_rate(self, tmp_path, world_dir):
        wdir, world = world_dir
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path / "cfg.yaml", world.files, out)
        for stage in ("curate", "pseudolabel", "pretrain", "train-meta"):
            assert main([stage, "--config", str(cfg_path)]) == 0
        pretrain, meta = (list(csv.DictReader((out / f"{name}_history.csv").open())) for name in ("pretrain", "meta"))
        for rows in (pretrain, meta):
            assert {"skipped_batches", "grad_norm_mean", "grad_norm_max", "active_samples"} <= set(rows[0])
            assert float(rows[-1]["lr"]) > 0  # the rate the stage's last step ran at
            assert all(row["skipped_batches"].isdigit() for row in rows)
        # steps of both stages report gradient norms, meta steps also active samples
        assert all(float(r["grad_norm_max"]) >= float(r["grad_norm_mean"]) > 0 for r in pretrain + meta)
        assert all(r["active_samples"] == "" for r in pretrain)
        assert all(r["active_samples"].isdigit() for r in meta)

    def test_train_meta_at_full_stage_split_keeps_pretrained_model(self, tmp_path, world_dir):
        wdir, world = world_dir
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path / "cfg.yaml", world.files, out)
        for stage in ("curate", "pseudolabel", "pretrain", "train-meta"):
            assert main([stage, "--config", str(cfg_path), "--set", "trainer.stage_split=1.0"]) == 0
        assert (out / "final_checkpoint.fsck").read_bytes() == (out / "pretrain_checkpoint.fsck").read_bytes()
        header = (out / "pretrain_history.csv").read_text().splitlines(keepends=True)[0]
        assert (out / "meta_history.csv").read_text() == header
        assert json.loads((out / "training_summary.json").read_text()) == {"meta_epochs": 0}

    def test_val_attribute_picks_the_stratifying_column(self, tmp_path, world_dir, capsys):
        wdir, world = world_dir
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path / "cfg.yaml", world.files, out)
        for stage in ("curate", "pseudolabel"):
            assert main([stage, "--config", str(cfg_path)]) == 0

        def pretrain(*overrides):
            assert main(["pretrain", "--config", str(cfg_path), *overrides]) == 0
            return (out / "pretrain_checkpoint.fsck").read_bytes()

        default = pretrain()  # the bank's first attribute: the world writes attr_target first
        assert pretrain("--set", "val_attribute=attr_context") != default
        assert pretrain("--set", "val_attribute=attr_target") == default
        capsys.readouterr()
        assert main(["pretrain", "--config", str(cfg_path), "--set", "val_attribute=attr_nope"]) == 3
        assert "data error: unknown attribute 'attr_nope'" in capsys.readouterr().err.splitlines()

    @pytest.mark.parametrize("stage, producer", STAGE_ORDER)
    def test_stage_order_enforced(self, tmp_path, world_dir, capsys, stage, producer):
        assert {s for s, _ in STAGE_ORDER} == {name for name, s in STAGES.items() if s.needs}
        wdir, world = world_dir
        cfg_path = write_config(tmp_path / "cfg.yaml", world.files, tmp_path / "fresh_out")
        code = main([stage, "--config", str(cfg_path)])
        assert code == 2
        assert f"run the '{producer}' stage first" in capsys.readouterr().err

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
            assert digest == hashlib.sha256((out / ARTIFACTS[name]).read_bytes()).hexdigest()
        # the run directory holds only hashed artifacts and the run manifests
        stage_manifests = {f"run_manifest_{command.replace('-', '_')}.json" for command in STAGES}
        assert len(stage_manifests) == 7
        assert {p.name for p in out.iterdir()} == set(ARTIFACTS.values()) | stage_manifests
        # each stage's manifest hashes the same bytes as the pipeline's, and together they cover it
        covered = set()
        for command in ("curate", "pseudolabel", "pretrain", "train-meta", "probe", "evaluate"):
            stage = json.loads((out / f"run_manifest_{command.replace('-', '_')}.json").read_text())
            assert stage["status"] == "ok" and stage["config_hash"] == manifest["config_hash"]
            for name, digest in stage["artifacts"].items():
                assert digest == manifest["artifacts"][name], (command, name)
            covered |= set(stage["artifacts"])
        assert covered == set(manifest["artifacts"])

    def test_malformed_predictions_exit_3_with_line(self, tmp_path, world_dir, capsys):
        wdir, world = world_dir
        out = tmp_path / "out"
        out.mkdir()
        (out / "probe_predictions.jsonl").write_text('{"id": "eval-000000", "pred": 1, "label": 0}\n[1, 2]\n')
        cfg_path = write_config(tmp_path / "cfg.yaml", world.files, out)
        assert main(["evaluate", "--config", str(cfg_path)]) == 3
        err = capsys.readouterr().err
        assert "probe_predictions.jsonl:2: expected a JSON object" in err
        assert "Traceback" not in err

    def test_integer_out_of_float_range_exits_3_with_line(self, tmp_path, world_dir, capsys):
        wdir, world = world_dir
        lines = open(world.files["uncurated_manifest"]).read().splitlines()
        lines[4] = lines[4].replace('"quality": ', f'"quality": {2**1100}, "was": ')
        bad = tmp_path / "pool.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        cfg_path = write_config(tmp_path / "cfg.yaml", dict(world.files, uncurated_manifest=str(bad)), tmp_path / "out")
        assert main(["curate", "--config", str(cfg_path)]) == 3
        err = capsys.readouterr().err
        assert "pool.jsonl:5: 'quality' is outside the float range" in err
        assert "Traceback" not in err

    def test_repeated_evaluation_label_exits_3_naming_file_and_id(self, tmp_path, world_dir, capsys):
        wdir, world = world_dir
        out = tmp_path / "out"
        out.mkdir()
        save_checkpoint(ModelParams.create(world.eval_set.embeddings.d, [8], [8, 8, 4]), out / "final_checkpoint.fsck")
        labels = open(world.files["eval_labels"]).read().splitlines()
        first = json.loads(labels[2])
        labels.append(json.dumps({"id": first["id"], "label": 1 - first["label"]}))  # a conflicting second label
        (tmp_path / "labels.jsonl").write_text("\n".join(labels) + "\n")
        cfg_path = write_config(tmp_path / "cfg.yaml", dict(world.files, eval_labels=str(tmp_path / "labels.jsonl")), out)
        assert main(["probe", "--config", str(cfg_path)]) == 3
        err = capsys.readouterr().err
        assert "labels.jsonl: sample id 'eval-000002' appears more than once" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("stage, key", [("curate", "uncurated_manifest"), ("probe", "eval_manifest")])
    def test_misplaced_or_missing_manifest_record_exits_3(self, tmp_path, world_dir, capsys, stage, key):
        # record i of a manifest describes row i of its matrix: a reordered or
        # short file is a data error, never a misjoin
        wdir, world = world_dir
        out = tmp_path / "out"
        out.mkdir()
        save_checkpoint(ModelParams.create(world.eval_set.embeddings.d, [8], [8, 8, 4]), out / "final_checkpoint.fsck")
        lines = open(world.files[key]).read().splitlines()
        swapped = [*lines[:3], lines[4], lines[3], *lines[5:]]
        for body, problem in (
            (swapped, f"m.jsonl: sample {json.loads(lines[4])['id']!r} is record 3 but names row 4"),
            (lines[:-1], f"m.jsonl: manifest describes {len(lines) - 1} rows but the matrix has {len(lines)}"),
        ):
            (tmp_path / "m.jsonl").write_text("\n".join(body) + "\n")
            cfg_path = write_config(tmp_path / "cfg.yaml", {**world.files, key: str(tmp_path / "m.jsonl")}, out)
            assert main([stage, "--config", str(cfg_path)]) == 3
            err = capsys.readouterr().err
            assert problem in err and "Traceback" not in err
            marker = json.loads((out / f"run_manifest_{stage}.json").read_text())
            assert marker["status"] == "failed" and problem in marker["error"]

    def test_short_curated_or_pool_manifest_exits_3_naming_its_file(self, tmp_path, world_dir, capsys):
        wdir, world = world_dir
        for key in ("curated_manifest", "uncurated_manifest"):
            lines = open(world.files[key]).read().splitlines()
            short = tmp_path / f"short_{key}.jsonl"
            short.write_text("\n".join(lines[:-1]) + "\n")
            cfg_path = write_config(tmp_path / "cfg.yaml", {**world.files, key: str(short)}, tmp_path / "out")
            assert main(["curate", "--config", str(cfg_path)]) == 3
            err = capsys.readouterr().err
            assert f"{short}: manifest describes {len(lines) - 1} rows but the matrix has {len(lines)}" in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("key", ["curated_embeddings", "uncurated_embeddings"])
    def test_zero_embedding_row_exits_3_naming_its_file(self, tmp_path, world_dir, capsys, key):
        wdir, world = world_dir
        data = load_embeddings(world.files[key]).data.copy()
        data[7] = 0.0
        zeroed = tmp_path / f"zeroed_{key}.fssl"
        save_embeddings(EmbeddingMatrix(data), zeroed)
        cfg_path = write_config(tmp_path / "cfg.yaml", {**world.files, key: str(zeroed)}, tmp_path / "out")
        assert main(["curate", "--config", str(cfg_path)]) == 3
        err = capsys.readouterr().err
        assert f"{zeroed}: cannot normalize zero row at index 7" in err
        assert "Traceback" not in err

    def test_version_1_pseudolabel_table_exits_3_at_pretrain(self, tmp_path, world_dir, capsys):
        wdir, world = world_dir
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path / "cfg.yaml", world.files, out)
        for stage in ("curate", "pseudolabel"):
            assert main([stage, "--config", str(cfg_path)]) == 0
        table = out / "pseudolabels.fspl"
        raw = table.read_bytes()
        (k,) = struct.unpack_from("<I", raw, 20)  # a version-1 table had no names: they were a second file
        table.write_bytes(raw[:4] + struct.pack("<I", 1) + raw[8:20] + raw[24 + k :])
        capsys.readouterr()
        assert main(["pretrain", "--config", str(cfg_path)]) == 3
        err = capsys.readouterr().err
        assert f"data error: {table}: unsupported version 1" in err and "Traceback" not in err

    def test_non_binary_evaluation_label_exits_3_at_the_probe_fit(self, tmp_path, world_dir, capsys):
        wdir, world = world_dir
        out = tmp_path / "out"
        out.mkdir()
        save_checkpoint(ModelParams.create(world.eval_set.embeddings.d, [8], [8, 8, 4]), out / "final_checkpoint.fsck")
        labels = open(world.files["eval_labels"]).read().replace('"label": 1', '"label": 2')
        (tmp_path / "labels.jsonl").write_text(labels)
        cfg_path = write_config(tmp_path / "cfg.yaml", dict(world.files, eval_labels=str(tmp_path / "labels.jsonl")), out)
        assert main(["probe", "--config", str(cfg_path)]) == 3
        err = capsys.readouterr().err
        assert "probe labels must be exactly {0, 1}, got [0, 2]" in err
        assert "Traceback" not in err
        marker = json.loads((out / "run_manifest_probe.json").read_text())
        assert marker["status"] == "failed" and "got [0, 2]" in marker["error"]
        assert not (out / "probe_predictions.jsonl").exists()

    def test_repeated_prediction_exits_3_naming_file_and_id(self, tmp_path, world_dir, capsys):
        wdir, world = world_dir
        out = tmp_path / "out"
        out.mkdir()
        (out / "probe_predictions.jsonl").write_text("".join(
            json.dumps({"id": i, "pred": 1, "label": 0}) + "\n" for i in ("eval-000001", "eval-000004", "eval-000001")
        ))
        cfg_path = write_config(tmp_path / "cfg.yaml", world.files, out)
        assert main(["evaluate", "--config", str(cfg_path)]) == 3
        err = capsys.readouterr().err
        assert "probe_predictions.jsonl: sample id 'eval-000001' appears more than once" in err
        assert "Traceback" not in err

    def test_probe_join_names_first_unjoined_sample(self, tmp_path, world_dir):
        wdir, world = world_dir
        out = tmp_path / "out"
        out.mkdir()
        save_checkpoint(ModelParams.create(world.eval_set.embeddings.d, [8], [8, 8, 4]), out / "final_checkpoint.fsck")
        manifest = DatasetManifest.load(world.files["eval_manifest"])
        manifest.has_group[5] = False
        manifest.save(tmp_path / "eval_manifest.jsonl")
        labels = open(world.files["eval_labels"]).read().splitlines()
        del labels[7]
        (tmp_path / "eval_labels.jsonl").write_text("\n".join(labels) + "\n")
        files = dict(world.files, eval_manifest=str(tmp_path / "eval_manifest.jsonl"))
        cfg = load_config(write_config(tmp_path / "cfg.yaml", files, out))
        with pytest.raises(DataError, match="sample 'eval-000005' has no group label"):
            run_stage(cfg, "probe")
        files["eval_labels"] = str(tmp_path / "eval_labels.jsonl")
        cfg = load_config(write_config(tmp_path / "cfg.yaml", files, out))
        manifest.has_group[5] = True
        manifest.has_group[9] = False
        manifest.save(tmp_path / "eval_manifest.jsonl")
        with pytest.raises(DataError, match="no evaluation label for sample 'eval-000007'"):
            run_stage(cfg, "probe")

    def test_evaluate_join_names_first_unjoined_prediction(self, tmp_path, world_dir):
        wdir, world = world_dir
        out = tmp_path / "out"
        out.mkdir()
        manifest = DatasetManifest.load(world.files["eval_manifest"])
        manifest.has_group[3] = False
        manifest.save(tmp_path / "eval_manifest.jsonl")
        files = dict(world.files, eval_manifest=str(tmp_path / "eval_manifest.jsonl"))
        cfg = load_config(write_config(tmp_path / "cfg.yaml", files, out))
        for ids, problem in (
            (["eval-000001", "nobody", "eval-000003"], "unknown sample id 'nobody'"),
            (["eval-000001", "eval-000003", "nobody"], "sample 'eval-000003' has no group label"),
        ):
            (out / "probe_predictions.jsonl").write_text(
                "".join(json.dumps({"id": i, "pred": 1, "label": 0}) + "\n" for i in ids)
            )
            with pytest.raises(DataError, match=problem):
                run_stage(cfg, "evaluate")
