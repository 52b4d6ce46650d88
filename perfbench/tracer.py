"""Run a counterwalk entry point with its layer boundaries wrapped.

Usage::

    python3 perfbench/tracer.py SPANS.json -m counterwalk ARGS...
    python3 perfbench/tracer.py SPANS.json SCRIPT.py ARGS...

Before the entry point starts, every function named in ``LAYERS`` is
replaced, in every loaded ``counterwalk`` module that holds it, by a wrapper
that records a span ``(layer, start, end, parent, process)`` and the layer's
work counts in memory.  Nothing in the package changes on disk.  When the
entry point exits, the spans, counts and acceptance margins are written to
``SPANS.json`` and the process exits with the entry point's code.

Limits of this view:

* A call into a layer made while a span of the same layer is innermost is
  not recorded again (``delta_moment`` calling ``delta_pmf`` is one
  ``eulerian`` span).
* ``StepLaw.sample`` is not wrapped: the sequential engine calls it once per
  innovation step, so its draws stay inside ``walk_engine.simulate``.
* Work done in ``replication`` pool workers is recorded in the worker and
  shipped back with each result; those spans carry ``process`` 1 and their
  busy times add up across workers, so a layer total can exceed wall time.
"""

from __future__ import annotations

import functools
import inspect
import json
import runpy
import sys
import time

# (layer, module, attribute path, count name, count from the bound arguments)
LAYERS = (
    ("walk_engine.simulate", "walk_engine", "simulate", "steps", lambda a: a["n"]),
    ("walk_engine.simulate_batch", "walk_engine", "simulate_batch", "replica_steps",
     lambda a: a["n"] * a["reps"]),
    ("walk_engine.sample_batch", "walk_engine", "StepLaw.sample_batch", "draws", lambda a: a["size"]),
    ("walk_engine.forest_census", "walk_engine", "forest_census", "vertices", lambda a: a["run"].n),
    ("walk_engine.reductions", "walk_engine", "decompose", None, None),
    ("walk_engine.reductions", "walk_engine", "representation_residual", None, None),
    ("recursive_tree.sample_odd_counts", "recursive_tree", "sample_odd_counts", None, None),
    ("recursive_tree.tanny_sample_batch", "recursive_tree", "tanny_sample_batch", None, None),
    *(("eulerian", "eulerian", name, None, None) for name in (
        "eulerian_row", "eulerian_number", "eulerian_number_by_sum", "odd_count_pmf",
        "delta_pmf", "delta_moment", "ExactPmf.mean", "ExactPmf.moment",
        "ExactPmf.abs_moment", "ExactPmf.pushforward",
    )),
    ("verify.oracle", "verify", "brute_force_walk_pmf", None, None),
    *(("verify.stats", "verify", name, None, None) for name in (
        "tv_distance", "ks_normal", "moment_check", "empirical_cf",
    )),
    *(("asymptotics", "asymptotics", name, None, None) for name in (
        "rho_of", "rising_factorial", "beta_of_k", "velocity", "clt_variance",
        "nu1_clt_variance", "yule_simon_pmf", "sigma_sq_k", "exact_mean", "tree_freq_limit",
        "stable_check_exponent", "yule_simon_series", "sigma_sq_series",
        "shape_weighted_sum", "delta_sq_rate", "limit_constants",
    )),
    ("cli", "cli", "main", None, None),
)


class Trace:
    """Spans and counts of one process, kept in memory until exit."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [layer, start, end, parent index, process]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.margins: dict[str, float] = {}

    def open(self, layer: str) -> list:
        span = [layer, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, 0]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self.stack.pop()

    def adopt(self, spans: list[list], counts: dict[str, int]) -> None:
        """Graft a worker's spans under the innermost open span."""
        base = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        for layer, start, end, par, _ in spans:
            self.spans.append([layer, start, end, parent if par < 0 else base + par, 1])
        for name, value in counts.items():
            self.counts[name] = self.counts.get(name, 0) + value

    def to_json(self) -> dict:
        return {"spans": self.spans, "counts": self.counts, "margins": self.margins}


_trace = Trace()


def _wrap(layer: str, fn, count_name: str | None = None, count=None):
    signature = inspect.signature(fn) if count is not None else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        trace = _trace
        if trace.stack and trace.spans[trace.stack[-1]][0] == layer:
            return fn(*args, **kwargs)
        span = trace.open(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            trace.close(span)
        if count is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            key = f"{layer}.{count_name}"
            trace.counts[key] = trace.counts.get(key, 0) + count(bound.arguments)
        return result

    return traced


def criterion_margin(reports) -> float:
    """Worst ``value / threshold`` over one criterion's reports.

    Exact identities (threshold 0) count 0 when they hold and infinity when
    they fail; report-only entries (infinite threshold) count 0.
    """
    worst = 0.0
    for report in reports:
        if report.threshold > 0:
            ratio = report.value / report.threshold
        else:
            ratio = 0.0 if report.value == 0 else float("inf")
        worst = max(worst, ratio)
    return worst


def _wrap_run_criterion(fn):
    @functools.wraps(fn)
    def traced(cid, *args, **kwargs):
        trace = _trace
        span = trace.open(f"acceptance.{cid}")
        try:
            reports = fn(cid, *args, **kwargs)
        finally:
            trace.close(span)
        trace.margins[f"acceptance.{cid}"] = criterion_margin(reports)
        return reports

    return traced


class _TracedTask:
    """Picklable replica task that returns its own spans with its result."""

    def __init__(self, fn) -> None:
        self.fn = fn

    def __call__(self, task):
        global _trace
        outer, _trace = _trace, Trace()
        try:
            return self.fn(task), _trace.spans, _trace.counts
        finally:
            _trace = outer


def _wrap_run_replicas(fn):
    def run_replicas(task_fn, tasks, workers=None):
        results = fn(_TracedTask(task_fn), tasks, workers)
        out = []
        for value, spans, counts in results:
            _trace.adopt(spans, counts)
            out.append(value)
        return out

    return _wrap("replication.run_replicas", functools.wraps(fn)(run_replicas))


def _replace_everywhere(original, wrapper) -> None:
    for name, module in list(sys.modules.items()):
        if name == "counterwalk" or name.startswith("counterwalk."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def _patch(module: str, path: str, make) -> None:
    import importlib

    owner = importlib.import_module(f"counterwalk.{module}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    original = getattr(owner, attr)
    wrapper = make(original)
    setattr(owner, attr, wrapper)
    if not outer:
        _replace_everywhere(original, wrapper)


def install() -> None:
    """Wrap every layer boundary in the loaded counterwalk package."""
    import counterwalk  # noqa: F401  (loads every submodule)

    for layer, module, path, count_name, count in LAYERS:
        _patch(module, path, lambda fn: _wrap(layer, fn, count_name, count))
    _patch("acceptance", "run_criterion", _wrap_run_criterion)
    _patch("replication", "run_replicas", _wrap_run_replicas)


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        sys.stderr.write(__doc__)
        return 2
    spans_path, target, *rest = argv
    install()
    code: int | str | None = 0
    try:
        if target == "-m":
            module, *args = rest
            sys.argv = [module, *args]
            runpy.run_module(module, run_name="__main__", alter_sys=True)
        else:
            sys.argv = [target, *rest]
            runpy.run_path(target, run_name="__main__")
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(_trace.to_json(), fh)
    if code is None:
        return 0
    if isinstance(code, int):
        return code
    sys.stderr.write(f"{code}\n")
    return 1


if __name__ == "__main__":
    # run as the importable module ``tracer`` so that pool workers can
    # unpickle its task wrapper while the entry point occupies ``__main__``
    import tracer

    sys.exit(tracer.main(sys.argv[1:]))
