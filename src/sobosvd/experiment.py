"""Experiment orchestration: configs, sample files, checks, reports.

The command line is a thin wrapper over this module; everything here is
callable from Python directly. A run decomposes one function (a catalog
case or a raw sample file), sweeps a list of rank vectors, evaluates the
requested checks and optionally writes a machine-readable report plus a
spectrum table.
"""

from __future__ import annotations

import copy
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from importlib import resources
from numbers import Number
from pathlib import Path
from typing import Callable

import numpy as np

from .cases import _grid_sizes, get_case, sample_case
from .diagnostics import h1_convergence_flag, rate_fit
from .discretization import UNIFORM_TRAPEZOID_FD2, GridFunction, _sq_l2, make_axis
from .errors import ConfigError, DegenerateDataError, ModeError, SampleFileError, SobosvdError
from .sobolev import _root_sum, derivative_data, norm_l2
from .svd_engine import mode_svd, mode_svds, numerical_rank, retained_count
from .truncation import _check_rank_vector, h1_sandwich, hosvd_project

_TINY = 1e-300  # guards divisions for the all-zero input


def _reject_constant(token: str):
    raise ValueError(f"{token} is not a JSON number")


def _read_json(path, error: type[SobosvdError], what: str) -> dict:
    """The JSON object in the file at ``path``, parsed strictly: the NaN and
    Infinity tokens ``json.loads`` accepts by default are not JSON. Raises
    ``error`` for a file that cannot be read, is not JSON or holds no object.
    """
    try:
        data = json.loads(path.read_text("utf-8"), parse_constant=_reject_constant)
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:
        raise error(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise error(f"{what} {path} must hold a JSON object")
    return data


_SCHEMAS = resources.files("sobosvd") / "schemas"
CONFIG_SCHEMA = _read_json(_SCHEMAS / "config.schema.json", SobosvdError, "schema")
REPORT_SCHEMA = _read_json(_SCHEMAS / "report.schema.json", SobosvdError, "schema")
SAMPLES_SCHEMA = _read_json(_SCHEMAS / "samples.schema.json", SobosvdError, "schema")


# ---------------------------------------------------------------------------
# raw sample files

_SAMPLE_FORMAT = SAMPLES_SCHEMA["properties"]["format"]["const"]


def save_samples(u: GridFunction, path: Path | str) -> Path:
    """Write grid samples as little-endian float64 in colexicographic
    order, with a JSON sidecar describing shape and axis intervals."""
    p = Path(path)
    meta = {
        "format": _SAMPLE_FORMAT,
        "dtype": "<f8",
        "order": "colex",
        "shape": list(u.shape),
        "axes": [{"lower": ax.lower, "upper": ax.upper} for ax in u.axes],
    }
    payload = np.ascontiguousarray(u.values.ravel(order="F"), dtype="<f8")
    _atomic_write_bytes(p, payload.tobytes())
    _atomic_write_text(
        Path(str(p) + ".meta.json"), json.dumps(meta, indent=2, sort_keys=True) + "\n"
    )
    return p


def load_samples(path: Path | str) -> GridFunction:
    """Read a raw sample file written by :func:`save_samples`.

    The byte content of a save/load round trip is preserved exactly. The
    sidecar must be strict JSON that ``schemas/samples.schema.json``
    describes, with one axis per entry of ``shape`` (an integral float
    such as ``9.0`` is an integer), finite endpoints ``lower`` < ``upper``,
    and, for every mode, the products of the other axes' largest and
    smallest quadrature weights finite and normal (a subnormal product
    breaks the eigensolver); anything else raises SampleFileError.
    """
    p = Path(path)
    meta_p = Path(str(p) + ".meta.json")
    meta = _read_json(meta_p, SampleFileError, "sample sidecar")
    _validate(meta, SAMPLES_SCHEMA, error=SampleFileError, what=f"sample sidecar {meta_p}")
    file_shape, axes_meta = [int(n) for n in meta["shape"]], meta["axes"]
    if len(file_shape) != len(axes_meta):
        raise SampleFileError(f"{meta_p}: shape and axes entries disagree")

    try:
        raw = p.read_bytes()
    except OSError as exc:
        raise SampleFileError(f"cannot read samples {p}: {exc}") from exc
    expected = math.prod(file_shape) * 8
    if len(raw) != expected:
        raise SampleFileError(
            f"{p}: {len(raw)} bytes on disk, shape {file_shape} needs {expected}"
        )
    values = np.frombuffer(raw, dtype="<f8").reshape(file_shape, order="F")

    try:
        axes = tuple(
            make_axis(n, float(a["lower"]), float(a["upper"]))
            for n, a in zip(file_shape, axes_meta)
        )
        u = GridFunction(axes, values)
    except (OverflowError, ValueError) as exc:
        raise SampleFileError(f"{p}: {exc}") from exc
    # mode j's column weights are products of the other axes' weights
    for j in range(u.ndim):
        w = [ax.quad_weights for ax in axes[:j] + axes[j + 1 :]]
        small = math.prod(float(x.min()) for x in w)
        big = math.prod(float(x.max()) for x in w)
        if not (small >= sys.float_info.min and big < math.inf):
            raise SampleFileError(f"{p}: weights off axis {j} overflow or underflow in product")
    return u


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _atomic_write_text(path: Path, text: str) -> None:
    _atomic_write_bytes(path, text.encode("utf-8"))


# ---------------------------------------------------------------------------
# run plumbing


def _build_function(config: ExperimentConfig):
    fn, grid = config.data["function"], config.data.get("grid", {}).get("n")
    if "case" in fn:
        case = get_case(fn["case"], **fn.get("params", {}))
        if grid is None:
            raise ConfigError("grid sizes are required for a catalog case")
        desc = {"case": case.name, "params": case.params, "summary": case.summary}
        return sample_case(case, grid), desc

    path = config.base_dir / fn["file"]
    u = load_samples(path)
    if grid is not None and _grid_sizes(grid, u.ndim) != u.shape:
        raise ConfigError(f"config grid {grid} does not match sample file shape {u.shape}")
    return u, {"file": str(path)}


def _broadcast(value, dim: int, what: str) -> tuple[int, ...]:
    if not isinstance(value, list):
        return (int(value),) * dim
    if len(value) != dim:
        raise ConfigError(f"ranks.sweep.{what} lists {len(value)} entries for {dim} modes")
    return tuple(int(v) for v in value)


def _resolve_ranks(config: ExperimentConfig, u: GridFunction):
    d, ranks = u.ndim, config.data.get("ranks", {})
    if "explicit" in ranks:
        vectors = ranks["explicit"]
    elif "sweep" in ranks:
        sweep = ranks["sweep"]
        lo = _broadcast(sweep["from"], d, "from")
        hi = _broadcast(sweep["to"], d, "to")
        step = _broadcast(sweep.get("step", 1), d, "step")
        if any(s < 1 for s in step):
            raise ConfigError("ranks.sweep.step entries must be >= 1")
        if any(h < l for l, h in zip(lo, hi)):
            raise ConfigError("ranks.sweep.to must not be below ranks.sweep.from")
        count = min((h - l) // s for l, h, s in zip(lo, hi, step)) + 1
        vectors = [[l + t * s for l, s in zip(lo, step)] for t in range(count)]
    else:
        vectors = [(r,) * d for r in range(1, min(8, min(u.shape)) + 1)]
    try:
        return tuple(_check_rank_vector(rv, u.shape) for rv in vectors)
    except ModeError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# checks: one function per name, all over the same run context


@dataclass
class _Run:
    """What the checks read: the function, its derivative data, the rank
    vectors, the ``h1_sandwich`` report of each, and ``sq``, (|u|^2,
    |D_0 u|^2, ...), that the checks' norm scales come from. The
    diagnostics check stores its block in ``diagnostics``.
    """

    u: GridFunction
    derivs: tuple
    rvs: tuple
    reports: list
    sq: tuple
    diagnostics: dict | None = None

    @property
    def l2(self) -> float:
        return _root_sum(self.sq[:1])

    @property
    def h1(self) -> float:
        return _root_sum(self.sq)


def _verdict(defects, tol, detail):
    """Status, worst defect and detail of a check.

    ``defects`` is non-empty and ``detail`` is formatted with ``worst``,
    the largest defect. A NaN or infinite defect fails the check with a
    null ``worst``; ``max`` alone would drop a NaN.
    """
    if not np.all(np.isfinite(defects)):
        return "fail", None, "non-finite defect: " + detail.format(worst=np.nan)
    worst = float(max(defects))
    return ("pass" if worst <= tol else "fail"), worst, detail.format(worst=worst)


def _single_mode_defects(run, keys, scales) -> list[float]:
    """The gaps between each rank report's single-mode entries ``keys``
    and the series entries of those names, mode j's over ``scales[j]``."""
    return [
        abs(m - s) / c
        for rep in run.reports
        for key in keys
        for m, s, c in zip(rep["measured"]["single_mode"][key], rep["series"][key], scales)
    ]


def _check_eckart_young(run, tol):
    scales = [max(run.l2**2, _TINY)] * run.u.ndim
    detail = (
        "worst relative gap {worst:.3e} between measured single-mode "
        "truncation error and the spectral tail"
    )
    return _verdict(_single_mode_defects(run, ["l2_error_sq"], scales), tol, detail)


def _check_h1_identity(run, tol):
    if run.u.ndim != 2:
        return "skipped", None, "two-sided series needs d = 2"
    # in 2D the Tucker projection at (r0, r1) is the rank-min(r0, r1)
    # truncation, whose norms the two-sided series give
    scale = max(run.h1**2, _TINY)
    defects = []
    for rep in run.reports:
        measured, series = rep["measured"], rep["series"]
        defects.append(abs(measured["approx_h1_sq"] - series["h1_norm_sq"]) / scale)
        defects.append(abs(measured["h1"] ** 2 - series["h1_error_sq"]) / scale)
    detail = "worst relative defect {worst:.3e} in the two-sided Sobolev series"
    return _verdict(defects, tol, detail)


def _check_ek_identity(run, tol):
    scales = [max(_root_sum((run.sq[0], dsq)) ** 2, _TINY) for dsq in run.sq[1:]]
    defects = _single_mode_defects(run, ["ek_norm_sq", "ek_error_sq"], scales)
    detail = "worst relative defect {worst:.3e} in the one-direction series"
    return _verdict(defects, tol, detail)


def _brackets(rep) -> dict:
    """Each bracket of a rank report as (lower, value, upper), read from
    the values the report names: the sides are written here only."""
    bounds, measured = rep["bounds"], rep["measured"]
    l2_sq, l2_floor = measured["l2"] ** 2, max(rep["series"]["l2_error_sq"])
    return {
        "approx_h1": (bounds["norm_lower"], measured["approx_h1_sq"], bounds["norm_upper"]),
        "residual_h1": (bounds["h1_lower"], measured["h1"] ** 2, bounds["h1_upper"]),
        "residual_l2": (l2_floor, l2_sq, bounds["l2_tail_sq_sum"]),
        "quasi_opt": (l2_floor, l2_sq, bounds["quasi_opt_reference"]),
    }


def _bracket_check(norm, keys, detail):
    """Check the brackets named in ``keys`` of each rank report (see
    ``_brackets``): the defects are each value's excess over its upper
    side and shortfall below its lower side, relative to the squared
    ``norm`` (``"l2"`` or ``"h1"``) of u."""

    def check(run, tol):
        scale = max(getattr(run, norm) ** 2, _TINY)
        defects = []
        for rep in run.reports:
            brackets = _brackets(rep)
            for key in keys:
                lower, value, upper = brackets[key]
                defects.append((value - upper) / scale)
                defects.append((lower - value) / scale)
        return _verdict(defects, tol, detail)

    return check


_check_hosvd_bound = _bracket_check(
    "l2",
    ("residual_l2",),
    "worst normalized violation {worst:.3e} of max_j tail_j <= |u - Pu|^2 <= sum_j tail_j",
)
_check_quasi_opt = _bracket_check(
    "l2",
    ("quasi_opt",),
    "worst normalized violation {worst:.3e} of max_j tail_j <= |u - Pu|^2 <= d max_j tail_j",
)
_check_sandwich = _bracket_check(
    "h1", ("approx_h1", "residual_h1"), "worst normalized bracket violation {worst:.3e}"
)


def _check_derivative_bound(run, tol):
    defects = [
        (dpsi - bound) / max(bound, 1.0)
        for deriv in run.derivs
        for dpsi, bound in zip(deriv.dpsi_norms, deriv.bound_values)
    ]
    if not defects:
        return "pass", 0.0, "no retained directions to bound"
    detail = (
        f"worst normalized excess {{worst:.3e}} over {len(defects)} "
        "retained directions"
    )
    return _verdict(defects, tol, detail)


def _check_diagnostics(run, tol):
    if len(run.rvs) < 3:
        return "skipped", None, "rate fits need at least 3 rank vectors"
    ranks_axis = [min(rv) for rv in run.rvs]
    block = {"rank_axis": [int(r) for r in ranks_axis], "flag": None}
    parts = []
    for key in ("l2", "h1"):
        block[f"{key}_slope"] = block[f"{key}_r2"] = None
        scale = max(getattr(run, key), _TINY)
        try:
            fit = rate_fit(ranks_axis, [rep["measured"][key] / scale for rep in run.reports])
        except DegenerateDataError:
            continue
        block[f"{key}_slope"], block[f"{key}_r2"] = fit.slope, fit.r2
        parts.append(f"{key} slope {fit.slope:.3f}")

    block["bernstein_slope"] = []
    for j, deriv in enumerate(run.derivs):
        # past the retained count Gamma_j is flat and would bend the fit
        keep = [i for i, rv in enumerate(run.rvs) if rv[j] <= deriv.count]
        ranks = [run.rvs[i][j] for i in keep]
        try:
            fit = rate_fit(ranks, [run.reports[i]["bernstein"][j] for i in keep])
        except DegenerateDataError:
            fit = None
        block["bernstein_slope"].append(None if fit is None else fit.slope)

    if run.u.ndim == 2:
        sums = [rep["series"]["h1_norm_sq"] for rep in run.reports]
    else:
        sums = [float(np.sum(rep["series"]["ek_norm_sq"])) for rep in run.reports]
    try:
        block["flag"] = h1_convergence_flag(sums)
    except DegenerateDataError:
        pass
    parts.append(f"flag {block['flag'] or 'unavailable'}")
    run.diagnostics = block
    return "pass", None, ", ".join(parts)


def _check_edge_cases(u, systems):
    """Status, worst and detail of the edge check, from u and its mode
    systems alone, so a run takes it before the derivative transfer: the
    full-rank projection must reproduce u, and an all-zero input must
    report rank zero. |u| is u's own ``sq_l2``, summed once per run
    wherever it is read first. That a rank-zero projection is exactly
    zero is a property of ``hosvd_project``, not of u, so no run checks it."""
    problems = []
    scale = max(norm_l2(u), _TINY)

    full = tuple(numerical_rank(s) for s in systems)
    work = u.values - hosvd_project(u, full, systems=systems).projected.values
    resid = _root_sum((_sq_l2(work, u.axes, work),))  # squared in place
    if resid > 1e-10 * scale:
        problems.append(f"full-rank projection leaves relative residual {resid / scale:.3e}")

    # the zero path does not depend on the grid size: 3 nodes per axis will do
    tiny = tuple(make_axis(3, ax.lower, ax.upper) for ax in u.axes)
    zs = mode_svd(GridFunction(tiny, np.zeros((3,) * u.ndim)), 0)
    if numerical_rank(zs) != 0 or retained_count(zs) != 0:
        problems.append("all-zero input reports nonzero rank")

    if problems:
        return "fail", None, "; ".join(problems)
    return "pass", None, "full-rank and zero-input behaviour as expected"


# The check table: each name a config may select, in report order, with
# its check, which maps (run, tolerance) to (status, worst, detail), and
# its default tolerance (None for a check that takes none). The edge
# check that ``edge_cases=True`` adds (``_check_edge_cases``) is not
# selectable: it reads only u and the systems, and a run takes it right
# after the decomposition, while no transferred derivative is alive, and
# reports it after the selected checks.
_CHECKS = {
    "eckart_young": (_check_eckart_young, 1e-10),
    "h1_identity": (_check_h1_identity, 1e-9),
    "ek_identity": (_check_ek_identity, 1e-9),
    "hosvd_bound": (_check_hosvd_bound, 1e-10),
    "quasi_opt": (_check_quasi_opt, 1e-10),
    "sandwich": (_check_sandwich, 1e-9),
    "derivative_bound": (_check_derivative_bound, 1e-10),
    "diagnostics": (_check_diagnostics, None),
}
CHECK_NAMES = tuple(_CHECKS)
DEFAULT_TOLERANCES = {name: tol for name, (_, tol) in _CHECKS.items() if tol is not None}


# ---------------------------------------------------------------------------
# configs


def _is(x, name: str) -> bool:
    """Whether ``x`` has JSON Schema type ``name``: an integral float is an
    integer, and a bool is neither an integer nor a number."""
    if type(x) is float or type(x) is int:  # most of a report, so first
        return name == "number" or name == "integer" and (type(x) is int or x.is_integer())
    if name == "integer":
        return _is(x, "number") and (isinstance(x, int) or isinstance(x, float) and x.is_integer())
    if name == "number":
        return type(x) is not bool and isinstance(x, Number)
    types = {"array": list, "boolean": bool, "null": type(None), "object": dict, "string": str}
    return isinstance(x, types[name])


def _mistyped(values: list, s):
    """Yield (i, message) for each ``values[i]`` of none of the types ``s`` names."""
    names = [s] if isinstance(s, str) else s
    for i, x in enumerate(values):
        if not _is(x, names[0]) and not any(_is(x, t) for t in names[1:]):
            yield i, f"{x!r} is not of type {', '.join(map(repr, names))}"


def _schema_errors(x, schema: dict, root: dict, path: tuple):
    """Yield (path, message) for each way ``x`` at ``path`` breaks ``schema``,
    in the order and words of jsonschema's Draft 2020-12 validator. Reads the
    keywords the two shipped schemas use; their ``const`` and ``enum`` values
    are strings, which ``==`` compares as JSON does. A ``$ref`` names an entry
    of ``root["$defs"]``."""
    for key, s in schema.items():
        if key == "$ref":
            yield from _schema_errors(x, root["$defs"][s.removeprefix("#/$defs/")], root, path)
        elif key == "type":
            yield from ((path, msg) for _, msg in _mistyped([x], s))
        elif key == "const" and x != s:
            yield path, f"{s!r} was expected"
        elif key == "enum" and x not in s:
            yield path, f"{x!r} is not one of {s!r}"
        elif key == "minimum" and _is(x, "number") and x < s:
            yield path, f"{x!r} is less than the minimum of {s!r}"
        elif key == "exclusiveMinimum" and _is(x, "number") and x <= s:
            yield path, f"{x!r} is less than or equal to the minimum of {s!r}"
        elif key == "oneOf":
            ok = [sub for sub in s if not any(_schema_errors(x, sub, root, path))]
            if not ok:
                yield path, f"{x!r} is not valid under any of the given schemas"
            elif len(ok) > 1:
                each = ", ".join(map(repr, ok[1:] + ok[:1]))
                yield path, f"{x!r} is valid under each of {each}"
        elif key == "required" and isinstance(x, dict):
            yield from ((path, f"{k!r} is a required property") for k in s if k not in x)
        elif key == "properties" and isinstance(x, dict):
            for k in (k for k in s if k in x):
                yield from _schema_errors(x[k], s[k], root, (*path, k))
        elif key == "additionalProperties" and isinstance(x, dict):
            extra = sorted(k for k in x if k not in schema.get("properties", {}))
            if s is False and extra:
                listed = f"{', '.join(map(repr, extra))} {'was' if len(extra) == 1 else 'were'}"
                yield path, f"Additional properties are not allowed ({listed} unexpected)"
            for k in extra if isinstance(s, dict) else ():
                yield from _schema_errors(x[k], s, root, (*path, k))
        elif key == "items" and isinstance(x, list) and s.keys() == {"type"}:
            yield from (((*path, i), msg) for i, msg in _mistyped(x, s["type"]))
        elif key == "items" and isinstance(x, list):
            for i, item in enumerate(x):
                yield from _schema_errors(item, s, root, (*path, i))
        elif key == "minItems" and isinstance(x, list) and len(x) < s:
            yield path, f"{x!r} {'should be non-empty' if s == 1 else 'is too short'}"
        elif key == "maxItems" and isinstance(x, list) and len(x) > s:
            yield path, f"{x!r} is too long"
        elif key == "uniqueItems" and s and isinstance(x, list):
            tagged = [(type(e) is bool, e) for e in x]  # in JSON, true is not 1
            if any(e in tagged[:i] for i, e in enumerate(tagged)):
                yield path, f"{x!r} has non-unique elements"


def _validate(data, schema: dict, where: tuple = (), error=ConfigError, what="config") -> None:
    """Raise ``error`` where ``data``, at path ``where`` in a ``what``, breaks
    ``schema``; of several breaks, the one at the first path is reported."""
    err = min(_schema_errors(data, schema, schema, where), key=lambda e: e[0], default=None)
    if err is not None:
        at = "/".join(map(str, err[0])) or "top level"
        raise error(f"{what} invalid at {at}: {err[1]}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One run: ``data`` is the JSON object ``schemas/config.schema.json``
    describes, and relative paths in it resolve against ``base_dir``.

    ``data`` is deep-copied on construction and validated once, against
    the schema and then the two rules a schema cannot state: each
    tolerance must name a check that takes one, and be finite. A breach is
    a ConfigError. The default rank sweep, and explicit or swept rank
    vectors, are resolved against the function's dimension when the run
    starts.
    """

    data: dict
    base_dir: Path = Path(".")

    def __post_init__(self):
        object.__setattr__(self, "data", copy.deepcopy(self.data))
        object.__setattr__(self, "base_dir", Path(self.base_dir))
        _validate(self.data, CONFIG_SCHEMA)
        tolerances = self.data.get("tolerances", {})
        unknown = sorted(set(tolerances) - set(DEFAULT_TOLERANCES))
        if unknown:
            raise ConfigError(
                f"unknown tolerance keys {unknown}; valid: {sorted(DEFAULT_TOLERANCES)}"
            )
        if not all(math.isfinite(t) for t in tolerances.values()):
            raise ConfigError(f"tolerances must be finite, got {tolerances}")

    @property
    def checks(self) -> tuple[str, ...]:
        """The selected checks, in the check table's order."""
        return tuple(n for n in CHECK_NAMES if n in self.data.get("checks", CHECK_NAMES))

    def tolerance(self, name: str) -> float | None:
        """The tolerance of check ``name``: the config's, the default, or None."""
        return {**DEFAULT_TOLERANCES, **self.data.get("tolerances", {})}.get(name)

    @classmethod
    def from_dict(cls, data: dict, base_dir: Path | str = ".") -> "ExperimentConfig":
        return cls(data, base_dir)

    @classmethod
    def from_file(cls, path: Path | str) -> "ExperimentConfig":
        p = Path(path)
        return cls(_read_json(p, ConfigError, "config"), p.parent)


# ---------------------------------------------------------------------------
# the run itself


@dataclass(frozen=True)
class ExperimentResult:
    report: dict
    passed: bool
    report_path: Path | None = None
    sigma_path: Path | None = None


def run_experiment(
    config: ExperimentConfig,
    *,
    out_dir: Path | str | None = None,
    edge_cases: bool = False,
    log: Callable[[str], None] | None = None,
) -> ExperimentResult:
    """Run one experiment end to end.

    Raises ConfigError for anything wrong with the description (unknown
    case, rank exceeding the grid, dimension mismatches) and
    SampleFileError for unreadable or inconsistent sample files. Check
    failures never raise; they are recorded in the report and reflected
    in ``passed``. A report to be written that holds a NaN or infinity
    raises SobosvdError, and neither file is written.
    """
    u, fdesc = _build_function(config)
    rvs = _resolve_ranks(config, u)

    systems = mode_svds(u)
    edge = _check_edge_cases(u, systems) if edge_cases else None
    derivs = tuple(derivative_data(u, s) for s in systems)

    spectra = []
    for j in range(u.ndim):
        spectra.append(
            {
                "mode": j,
                "sigmas": [float(s) for s in systems[j].sigmas],
                "numerical_rank": numerical_rank(systems[j]),
                "held_vectors": systems[j].left_vectors.shape[1],
                "retained": derivs[j].count,
                "dpsi_norms": [float(v) for v in derivs[j].dpsi_norms],
                "bound_values": [float(v) for v in derivs[j].bound_values],
            }
        )

    u_sq = (u.sq_l2, *(dv.du_sq for dv in derivs))
    reports = h1_sandwich(u, rvs, systems=systems, derivs=derivs)
    run = _Run(u, derivs, rvs, reports, u_sq)

    selected = [(name, _CHECKS[name][0]) for name in config.checks]
    if edge is not None:
        selected.append(("edge_cases", lambda run, tol: edge))
    checks = []
    for name, check in selected:
        tol = config.tolerance(name)
        status, worst, detail = check(run, tol)
        checks.append(
            {
                "name": name,
                "status": status,
                "detail": detail,
                "worst": None if worst is None else float(worst),
                "tolerance": None if status == "skipped" else tol,
            }
        )
        if log is not None:
            log(f"{status.upper():>4}  {name}: {detail}")

    passed = all(c["status"] != "fail" for c in checks)

    threads = os.environ.get("SOBOSVD_THREADS")
    report = {
        "schema": "sobosvd-report-1",
        "function": fdesc,
        "grid": {
            "n": [int(n) for n in u.shape],
            "scheme": UNIFORM_TRAPEZOID_FD2,
            "domain": [[float(ax.lower), float(ax.upper)] for ax in u.axes],
        },
        "threads": int(threads) if threads and threads.isdigit() else None,
        "ranks": [list(rv) for rv in rvs],
        "spectra": spectra,
        "reports": reports,
        "checks": checks,
        "diagnostics": run.diagnostics,
        "passed": passed,
    }
    _validate(report, REPORT_SCHEMA, error=SobosvdError, what="report")

    report_path = sigma_path = None
    if out_dir is None and "output" in config.data:
        out_dir = config.base_dir / config.data["output"]
    if out_dir is not None:
        report_path = Path(out_dir) / "report.json"
        sigma_path = Path(out_dir) / "sigma.csv"
        try:  # unindented: json's C encoder; with indent it falls back to Python
            text = json.dumps(report, sort_keys=True, allow_nan=False) + "\n"
        except ValueError as exc:  # NaN and Infinity are not JSON: write neither file
            raise SobosvdError(f"report holds a non-finite number: {exc}") from exc
        _atomic_write_text(report_path, text)
        _atomic_write_text(sigma_path, _sigma_csv(spectra))

    return ExperimentResult(report, passed, report_path, sigma_path)


def _sigma_csv(spectra) -> str:
    """Spectrum table; modes and directions are 1-based in the file."""
    lines = ["mode,k,sigma,dpsi_norm,bound_value"]
    for entry in spectra:
        retained = entry["retained"]
        for k, sigma in enumerate(entry["sigmas"]):
            if k < retained:
                dpsi = repr(entry["dpsi_norms"][k])
                bound = repr(entry["bound_values"][k])
            else:
                dpsi = bound = ""
            lines.append(f"{entry['mode'] + 1},{k + 1},{repr(sigma)},{dpsi},{bound}")
    return "\n".join(lines) + "\n"
