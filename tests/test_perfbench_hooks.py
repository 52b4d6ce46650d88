"""Every ``counterwalk`` name the benchmark in ``perfbench/`` relies on still resolves.

The names are read from ``perfbench`` itself: the ``(module, attribute path)``
of each ``tracer.LAYERS`` entry, the literal ``_patch`` targets in
``tracer.py``, and every ``from counterwalk... import`` in its scripts; and
every argument name a layer count reads must be a parameter of the function
it wraps.  A rename in ``src/`` that would make traced or workload runs fail
then fails here first.  Nothing under ``perfbench/`` is changed.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _hooks():
    """(module, attribute path) pairs, module relative to ``counterwalk``."""
    hooks = {(module, path) for _, module, path, _, _ in _load_tracer().LAYERS}
    for script in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(script.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "_patch"
                    and all(isinstance(a, ast.Constant) for a in node.args[:2])):
                hooks.add((node.args[0].value, node.args[1].value))
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "counterwalk":
                module = node.module.partition(".")[2]
                hooks.update((module, alias.name) for alias in node.names)
    return sorted(hooks)


def _resolve(module, path):
    if not module:  # `from counterwalk import X` names a submodule
        return importlib.import_module(f"counterwalk.{path}")
    obj = importlib.import_module(f"counterwalk.{module}")
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


HOOKS = _hooks()


def test_hooks_cover_the_tracer_and_the_workloads():
    for hook in [("acceptance", "run_criterion"), ("replication", "run_replicas"),
                 ("eulerian", "ROW_MEMO_CAP"), ("verify", "brute_force_walk_pmf"),
                 ("eulerian", "eulerian_row"), ("", "cli")]:
        assert hook in HOOKS


@pytest.mark.parametrize("module, path", HOOKS,
                         ids=[".".join(filter(None, ("counterwalk", m, p))) for m, p in HOOKS])
def test_benchmark_hook_resolves(module, path):
    _resolve(module, path)


def test_tracer_counts_bind_to_parameters():
    """Each layer count reads the wrapped call's bound arguments by parameter
    name, so renaming such a parameter would break every traced call."""
    names = set()
    for _, module, path, _, count in _load_tracer().LAYERS:
        if count is not None:
            used = {c for c in count.__code__.co_consts if isinstance(c, str)}
            assert used <= set(inspect.signature(_resolve(module, path)).parameters), path
            names |= used
    assert names == {"n", "reps", "size", "run"}
