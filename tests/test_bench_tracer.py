"""The benchmark tracer's targets still exist in the package.

``bench/run.py --trace 1`` fails when a traced name is renamed, a hooked
function loses an argument its hook reads or its result loses a field the
hook reads, but only after minutes of benchmark runs. This checks the same
bindings statically and runs each hook on a tiny call of its function,
without calling ``Tracer.install()``, which rebinds module attributes for
the whole process; and it checks that the training stages reach the traced
trainer names through the module attribute, so a rebinding sees every call.
"""

import ast
import functools
import importlib
import importlib.util
import inspect
import textwrap
from collections import defaultdict
from pathlib import Path

import pytest

_TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


@functools.cache
def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", _TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module: str, path: str):
    target = importlib.import_module(module)
    for attr in path.split("."):
        target = getattr(target, attr)
    return target


def _argument_reads(hook) -> set[str]:
    """Names a hook reads from its bound arguments: ``args["name"]``."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(hook)))
    return {
        node.slice.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
        and node.value.id == "args" and isinstance(node.slice, ast.Constant)
    }


@pytest.mark.parametrize("name", sorted(_tracer().TARGETS))
def test_target_resolves(name):
    module, path = _tracer().TARGETS[name]
    assert callable(_resolve(module, path)), f"{module}.{path}"


@pytest.mark.parametrize("name", sorted(_tracer().HOOKS))
def test_hooked_function_takes_the_arguments_its_hook_reads(name):
    tracer = _tracer()
    reads = _argument_reads(tracer.HOOKS[name])
    params = inspect.signature(_resolve(*tracer.TARGETS[name])).parameters
    assert reads <= set(params), f"{name} lacks {sorted(reads - set(params))}"


def test_hooks_read_the_expected_arguments():
    hooks = _tracer().HOOKS
    reads = {name: _argument_reads(hook) for name, hook in hooks.items()}
    assert reads["curation.deduplicate"] == {"pool"}
    assert reads["curation.knn_retrieve"] == {"curated", "m"}
    assert reads["trainer.meta_step"] == {"idx"}


def _tiny_call(name: str):
    """One small real call of the hooked function ``name``: (function, args, kwargs)."""
    import numpy as np

    from fairssl import curation, evaluation, trainer
    from fairssl.losses import LossConfig
    from fairssl.network import ModelParams
    from fairssl.seeding import substream
    from fairssl.store import EmbeddingMatrix, normalize_rows

    rng = np.random.default_rng(0)
    pool = normalize_rows(EmbeddingMatrix(rng.standard_normal((20, 4))))
    if name == "curation.deduplicate":
        return curation.deduplicate, (pool, 0.95), {}
    if name == "curation.knn_retrieve":
        return curation.knn_retrieve, (pool, pool, np.arange(10), 2), {}
    X = rng.standard_normal((30, 6))
    labels = rng.integers(0, 2, size=(30, 2))
    if name == "evaluation.train_probe":
        return evaluation.train_probe, (X, labels[:, 0]), {"l2": 1e-3}
    if name == "trainer.meta_step":
        params = ModelParams.create(6, [8, 5], [6, 6, 4], seed=0)
        cfg = trainer.TrainConfig(batch_size=8, seed=0)
        optimizer = trainer.AdamW(params, trainer.LrSchedule(1e-3))
        return trainer.meta_step, (params, X, labels, np.arange(8), X[20:], labels[20:, 0], LossConfig(), cfg,
                                   optimizer, substream(0, "views")), {}
    raise AssertionError(f"no tiny call for hooked function {name}")


@pytest.mark.parametrize("name", sorted(_tracer().HOOKS))
def test_hook_reads_the_result_of_a_tiny_call(name):
    # reshaping a result (the probe model, the meta-step metrics) breaks its hook here, not in a traced run
    fn, args, kwargs = _tiny_call(name)
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    counts = defaultdict(int)
    _tracer().HOOKS[name](counts, bound.arguments, fn(*args, **kwargs))
    assert counts and all(int(v) == v >= 0 for v in counts.values()), dict(counts)


def test_stages_call_the_traced_trainer_names(monkeypatch):
    # the tracer rebinds module attributes, so the stages must look both up at call time
    import numpy as np

    from fairssl import trainer
    from fairssl.losses import LossConfig
    from fairssl.network import ModelParams

    calls = {"pretrain_epoch": 0, "meta_step": 0}

    def counting(name):
        inner = getattr(trainer, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(trainer, name, counting(name))
    rng = np.random.default_rng(0)
    X = rng.standard_normal((40, 6)).astype(np.float32)
    labels = rng.integers(0, 2, size=(40, 2))
    params = ModelParams.create(6, [8, 5], [6, 6, 4], seed=0)
    cfg = trainer.TrainConfig(batch_size=8, epochs=5, stage_split=0.6, warmup_epochs=0, seed=0,
                              val_subset_size=16, val_topk=4, val_batch_size=8)
    trainer.pretrain_stage(params, X, labels, LossConfig(), cfg)
    assert calls == {"pretrain_epoch": cfg.stage1_epochs, "meta_step": 0}
    trainer.meta_stage(params, X, labels, np.arange(16), labels[:16, 0], LossConfig(), cfg)
    batches_per_epoch = X.shape[0] // cfg.batch_size
    assert calls == {"pretrain_epoch": cfg.stage1_epochs, "meta_step": cfg.meta_epochs * batches_per_epoch}
