"""Spans around the layers of sobosvd, recorded from outside the package.

``Tracer.install`` replaces each traced function by a wrapper that opens
a span, calls the original and closes the span. Modules bind functions
by name (``from .svd_engine import mode_svd``), so the wrapper is set in
every ``sobosvd.*`` namespace that holds the original; patching only the
defining module would miss those callers. ``uninstall`` restores every
binding it changed.

Spans stay in memory as a flat list; each records its parent, so self
time (span minus its direct children) and per-layer totals are computed
afterwards by ``summarize``.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

RUN = "experiment.run_experiment"
REPORT = "experiment.report"
# direct children of a run that are stages of their own; the rest of the
# run span is the checks
STAGES = (
    "experiment.load_samples",
    "svd_engine.mode_svd",
    "sobolev.derivative_data",
    "truncation.h1_sandwich",
    REPORT,
)


@dataclass
class Span:
    name: str
    start: float
    parent: int
    end: float = 0.0
    work: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


# Work counts. Each takes the wrapped call's arguments by parameter name
# (defaults applied) and, for the result hooks, the return value.


def _svd_work(a):
    return {"elements": int(np.size(a["a"]))}


def _derivative_work(a):
    return {"elements": int(a["f"].values.size)}


def _mode_product_work(a):
    # multiply-adds of the contraction
    return {"elements": int(np.size(a["values"])) * int(np.shape(a["matrix"])[0])}


def _load_work(a):
    p = Path(a["path"])
    meta = Path(str(p) + ".meta.json")
    return {"bytes": p.stat().st_size + meta.stat().st_size}


def _hooi_result(result, a):
    sweeps = len(result.error_history) - 1
    return {"sweeps": sweeps, "capped": int(sweeps >= a["max_iters"])}


def _report_result(result, a):
    paths = (result.report_path, result.sigma_path)
    return {"report_bytes": sum(p.stat().st_size for p in paths if p is not None)}


# (span name, module, attribute, work from arguments, work from result)
FUNCTIONS = (
    (RUN, "sobosvd.experiment", "run_experiment", None, _report_result),
    ("experiment.load_samples", "sobosvd.experiment", "load_samples", _load_work, None),
    ("svd_engine.mode_svd", "sobosvd.svd_engine", "mode_svd", None, None),
    ("truncation.hooi", "sobosvd.truncation", "hooi", None, _hooi_result),
    ("truncation.h1_sandwich", "sobosvd.truncation", "h1_sandwich", None, None),
    ("truncation.hosvd_project", "sobosvd.truncation", "hosvd_project", None, None),
    ("sobolev.derivative_data", "sobosvd.sobolev", "derivative_data", None, None),
    ("sobolev.norm_h1", "sobosvd.sobolev", "norm_h1", None, None),
    ("sobolev.norm_ek", "sobosvd.sobolev", "norm_ek", None, None),
    ("sobolev.norm_l2", "sobosvd.sobolev", "norm_l2", None, None),
    (
        "discretization.partial_derivative",
        "sobosvd.discretization",
        "partial_derivative",
        _derivative_work,
        None,
    ),
    ("discretization.inner_l2", "sobosvd.discretization", "inner_l2", None, None),
    ("tensor_core.mode_product", "sobosvd.tensor_core", "mode_product", _mode_product_work, None),
    ("tensor_core.matricize", "sobosvd.tensor_core", "matricize", None, None),
    ("lapack.svd", "numpy.linalg", "svd", _svd_work, None),
)

# work counts each layer reports, zero when the layer never ran
WORK_KEYS = {
    "lapack.svd": ("elements",),
    "discretization.partial_derivative": ("elements",),
    "tensor_core.mode_product": ("elements",),
    "experiment.load_samples": ("bytes",),
    "truncation.hooi": ("sweeps", "capped"),
    REPORT: ("bytes",),
}

# metric suffixes that are counts: identical in every run of one input
COUNT_SUFFIXES = (".calls", ".elements", ".bytes", ".sweeps", ".capped")

# (span name, module, class, method): construction of grid functions
METHODS = (
    ("discretization.GridFunction", "sobosvd.discretization", "GridFunction", "__post_init__"),
)


class Tracer:
    """Records spans while installed; one instance per traced process."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close_to(self, index: int) -> None:
        """Close ``index`` and any span left open above it."""
        now = time.perf_counter()
        while self._stack:
            top = self._stack.pop()
            self.spans[top].end = now
            if top == index:
                return

    def _wrap(self, name, fn, work_args, work_result):
        tracer = self
        signature = inspect.signature(fn) if (work_args or work_result) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close_to(index)
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span = tracer.spans[index]
                if work_args is not None:
                    span.work.update(work_args(bound.arguments))
                if work_result is not None:
                    span.work.update(work_result(result, bound.arguments))
            return result

        return traced

    def _report_validate(self, original, report_schema):
        """The report stage starts at validation of the report and ends
        when the run returns; the run's wrapper closes it."""
        tracer = self

        def validate(validator, instance, *args, **kwargs):
            in_run = any(tracer.spans[i].name == RUN for i in tracer._stack)
            if in_run and validator.schema is report_schema:
                tracer._open(REPORT)
            return original(validator, instance, *args, **kwargs)

        return validate

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        import jsonschema

        import sobosvd.experiment  # noqa: F401  (loads every traced module)

        if self._undo:
            raise RuntimeError("tracer already installed")
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "sobosvd" or n.startswith("sobosvd.")]
        for name, module, attr, work_args, work_result in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, original, work_args, work_result)
            self._set(sys.modules[module], attr, wrapper)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._set(ns, key, wrapper)
        for name, module, cls_name, method in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            self._set(cls, method, self._wrap(name, cls.__dict__[method], None, None))
        validator = jsonschema.Draft202012Validator
        self._set(
            validator,
            "validate",
            self._report_validate(
                validator.__dict__["validate"], sys.modules["sobosvd.experiment"].REPORT_SCHEMA
            ),
        )

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def layer_names() -> tuple[str, ...]:
    return tuple(f[0] for f in FUNCTIONS) + tuple(m[0] for m in METHODS) + (REPORT,)


def summarize(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals over the spans of exactly one run.

    For each layer: ``.calls``, ``.s`` (span time), ``.self_s`` (span
    time minus direct children) and the summed work counts. Also the
    checks (run span minus its stage children) and ``trace.coverage``,
    the share of the run span covered by its direct child spans.
    """
    runs = [i for i, s in enumerate(spans) if s.name == RUN and s.parent == -1]
    if len(runs) != 1:
        raise ValueError(f"expected spans of one run, found {len(runs)} runs")
    run = runs[0]
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.seconds

    out: dict[str, float] = {}
    for name in layer_names():
        out[f"{name}.calls"] = 0
        out[f"{name}.s"] = 0.0
        out[f"{name}.self_s"] = 0.0
        for key in WORK_KEYS.get(name, ()):
            out[f"{name}.{key}"] = 0
    for i, s in enumerate(spans):
        out[f"{s.name}.calls"] += 1
        out[f"{s.name}.s"] += s.seconds
        out[f"{s.name}.self_s"] += s.seconds - child_time[i]
        for key, value in s.work.items():
            if key != "report_bytes":
                out[f"{s.name}.{key}"] += value
    out[f"{REPORT}.bytes"] = spans[run].work["report_bytes"]

    total = spans[run].seconds
    direct = [s for s in spans if s.parent == run]
    out["experiment.checks.s"] = total - sum(s.seconds for s in direct if s.name in STAGES)
    out["trace.coverage"] = sum(s.seconds for s in direct) / total
    return out


def traced_functions() -> list[tuple[str, object]]:
    """(span name, function) for every traced function, as bound now."""
    import numpy.linalg  # noqa: F401

    import sobosvd.experiment  # noqa: F401

    out = [(name, getattr(sys.modules[module], attr)) for name, module, attr, *_ in FUNCTIONS]
    out += [
        (name, getattr(sys.modules[module], cls).__dict__[method])
        for name, module, cls, method in METHODS
    ]
    return out
