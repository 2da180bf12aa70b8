"""The benchmark tracer's targets still exist in the package.

``bench/run.py --trace 1`` fails when a traced name is renamed or a hooked
function loses an argument its hook reads, but only after minutes of
benchmark runs. This checks the same bindings statically, without calling
``Tracer.install()``, which rebinds module attributes for the whole process.
"""

import ast
import functools
import importlib
import importlib.util
import inspect
import textwrap
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
