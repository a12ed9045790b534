"""Package hygiene: no unused imports, and a public surface that resolves."""
import ast
import dataclasses
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sobosvd as sv

SRC = Path(sv.__file__).parent


def _tree(name: str) -> ast.Module:
    return ast.parse((SRC / name).read_text("utf-8"))


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text("utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"],
    ids=lambda p: p.name,
)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def test_config_schema_lists_every_check():
    # the schema's checks enum and CHECK_NAMES are two copies of one list
    from sobosvd.experiment import CHECK_NAMES

    schema = json.loads((SRC / "schemas" / "config.schema.json").read_text("utf-8"))
    assert schema["properties"]["checks"]["items"]["enum"] == list(CHECK_NAMES)


def test_check_list_is_spelled_out_once():
    # the check table is the one literal in experiment.py that lists check
    # names; CHECK_NAMES and DEFAULT_TOLERANCES are derived from it
    from sobosvd.experiment import _CHECKS, CHECK_NAMES

    tree = ast.parse((SRC / "experiment.py").read_text("utf-8"))
    literals = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            items = node.keys
        elif isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            items = node.elts
        else:
            continue
        names = [i for i in items if isinstance(i, ast.Constant) and i.value in CHECK_NAMES]
        if len(names) > 1:
            literals.append(node.lineno)
    assert len(literals) == 1, literals
    assert tuple(_CHECKS) == CHECK_NAMES


def test_retain_rule_lives_in_svd_engine_only():
    found = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        if path.name != "svd_engine.py" and "_count_retained" in path.read_text("utf-8")
    ]
    assert found == []


def _json_parses(tree: ast.AST) -> list[ast.Call]:
    return [
        n
        for n in ast.walk(tree)
        if isinstance(n, ast.Call)
        and isinstance(n.func, ast.Attribute)
        and n.func.attr in ("load", "loads")
        and getattr(n.func.value, "id", None) == "json"
    ]


def test_json_is_parsed_by_the_strict_reader_only():
    # experiment._read_json is the one JSON parse in the package, and it
    # rejects the NaN and Infinity tokens json.loads accepts by default
    strict, found = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"))
        readers = [
            n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "_read_json"
        ]
        inside = {id(c) for reader in readers for c in _json_parses(reader)}
        strict += [c for c in _json_parses(tree) if id(c) in inside]
        found += [f"{path.name}:{c.lineno}" for c in _json_parses(tree) if id(c) not in inside]
        found += [
            f"{path.name}:{n.lineno} imports from json"
            for n in ast.walk(tree)
            if isinstance(n, ast.ImportFrom) and n.module == "json"
        ]
    assert found == []
    assert strict and all(
        any(k.arg == "parse_constant" for k in call.keywords) for call in strict
    )


def test_no_scipy_on_the_import_path(tmp_path):
    # the runtime dependencies are numpy and the stdlib; jsonschema and
    # what it loads are for tests only, even when a run validates its
    # config and its report
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"function": {"case": "SEP1"}, "grid": {"n": [9, 9]}}), "utf-8")
    code = (
        "import sys, sobosvd.experiment, sobosvd.cli\n"
        "sobosvd.cli.main(['list-cases'])\n"
        f"assert sobosvd.cli.main(['run', '--config', {str(config)!r}]) == 0\n"
        "banned = ('scipy', 'jsonschema', 'referencing', 'rpds', 'attrs', 'attr')\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in banned))"
    )
    path = [str(SRC.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.splitlines()[-1] == "[]"


def test_public_names_resolve():
    for name in sv.__all__:
        assert getattr(sv, name) is not None, name


def _statement_reads(path: Path) -> list[tuple[list[str], set[str]]]:
    """Per top-level statement of a module: the names it defines, and the
    names it reads, loaded or as an attribute."""
    out = []
    for stmt in ast.parse(path.read_text("utf-8")).body:
        nodes = list(ast.walk(stmt))
        reads = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        reads |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
        out.append((_top_level_names(ast.Module([stmt], [])), reads))
    return out


def test_every_export_is_read_outside_tests():
    # a public name that only tests read is test harness and lives in
    # tests/; a read inside the name's own definition does not count
    repo = Path(__file__).resolve().parents[1]
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((repo / "demos").glob("*.py")) + sorted((repo / "perfbench").rglob("*.py"))
    statements = [s for path in paths for s in _statement_reads(path)]
    unread = [
        name
        for name in sv.__all__
        if name != "__version__"
        and not any(name in reads and name not in defines for defines, reads in statements)
    ]
    assert unread == []


def _top_level_names(tree: ast.Module) -> list[str]:
    """Names a module binds at top level: functions, classes and assignments."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(t.id for t in targets if isinstance(t, ast.Name))
    return names


@pytest.mark.parametrize(
    "name",
    [
        "BoundCheck",
        "DegenerateModeError",
        "EkIdentity",
        "ErrorReport",
        "H1Identity",
        "HOSVDSystem",
        "InsufficientRankError",
        "MatShape",
        "_SANDWICH_RTOL",
        "_adjoint",
        "bernstein_constant",
        "bernstein_exponent",
        "dematricize",
        "dense_reference_sigmas",
        "ek_identity",
        "geometric_coeffs",
        "h1_identity",
        "hosvd",
        "jackson_exponent",
        "norm_mix",
        "singular_derivative_operator",
        "truncate_svd",
        "weighted_svd",
    ],
)
def test_removed_names_absent(name):
    # neither exported nor left behind, unexported, in a module
    assert name not in sv.__all__
    assert not hasattr(sv, name)
    defined = [p.name for p in sorted(SRC.glob("*.py")) if name in _top_level_names(_tree(p.name))]
    assert defined == []


@pytest.mark.parametrize(
    "owner, member",
    [
        ("DerivativeData", "u_sq"),
        ("ExperimentResult", "config"),
        ("ExperimentResult", "function"),
        ("GridFunction", "__add__"),
        ("GridFunction", "__mul__"),
        ("GridFunction", "__neg__"),
        ("GridFunction", "__rmul__"),
        ("RateFit", "intercept"),
        ("RateFit", "xs"),
        ("RateFit", "ys"),
        ("SingularSystem", "matrix"),
        ("SingularSystem", "validate"),
        ("TuckerApprox", "rank_vector"),
    ],
)
def test_removed_members_absent(owner, member):
    # neither a dataclass field nor a class attribute of the public class
    cls = getattr(sv, owner)
    assert member not in {f.name for f in dataclasses.fields(cls)}
    assert not hasattr(cls, member)


def _private_definitions(tree: ast.Module) -> list[str]:
    """Module-level ``_name`` functions, classes and assignments (no dunders)."""
    return [n for n in _top_level_names(tree) if n.startswith("_") and not n.startswith("__")]


def test_no_dead_private_helpers():
    # a private helper nothing refers to is left over from a removal
    trees = {p.name: ast.parse(p.read_text("utf-8")) for p in sorted(SRC.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    dead = [
        f"{name}: {helper}"
        for name, tree in trees.items()
        for helper in _private_definitions(tree)
        if helper not in used
    ]
    assert dead == []


def test_fd2_stencil_lives_in_discretization_only():
    # one FD2 code path: np.gradient and the one-sided edge coefficients
    # (-1.5/h, 1.5/h) appear in discretization.py and in no other module
    patterns = (re.compile(r"\bgradient\("), re.compile(r"\b1\.5\s*/"))
    home = "discretization.py"
    assert patterns[1].search((SRC / home).read_text("utf-8"))
    found = [
        f"{path.name}: {pat.pattern}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != home
        for pat in patterns
        if pat.search(path.read_text("utf-8"))
    ]
    assert found == []


def test_experiment_only_judges_the_rank_reports():
    # truncation.h1_sandwich measures every projection a check reads;
    # experiment.py binds no projection, stencil or series kernel
    names = set()
    for node in ast.walk(_tree("experiment.py")):
        if isinstance(node, ast.ImportFrom):
            names |= {alias.asname or alias.name for alias in node.names}
        names |= {getattr(node, "id", None), getattr(node, "attr", None)}
    kernels = {"_analysis_map", "_stencil_gram", "_fd2", "matricize", "mode_product", "series_split"}
    assert names & kernels == set()


def _loops_mode_svd_over_modes(tree: ast.AST) -> bool:
    """Whether a comprehension over ``range(...)`` calls ``mode_svd``."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp, ast.DictComp)):
            continue
        over_range = any(
            isinstance(g.iter, ast.Call) and getattr(g.iter.func, "id", None) == "range"
            for g in node.generators
        )
        calls = any(
            isinstance(n, ast.Call)
            and getattr(n.func, "id", getattr(n.func, "attr", None)) == "mode_svd"
            for n in ast.walk(node)
        )
        if over_range and calls:
            return True
    return False


def test_every_mode_is_decomposed_in_svd_engine_only():
    # mode_svds is the one place that decomposes each mode of a function
    # (in 2D it reads mode 1 off mode 0); a loop of mode_svd over the
    # modes anywhere else would decompose a 2D function twice
    assert _loops_mode_svd_over_modes(ast.parse("tuple(mode_svd(u, j) for j in range(u.ndim))"))
    found = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        if path.name != "svd_engine.py"
        and _loops_mode_svd_over_modes(ast.parse(path.read_text("utf-8")))
    ]
    assert found == []


def test_truncation_never_decomposes():
    # hosvd_project, hooi and h1_sandwich take the caller's mode systems
    # and derivative data; truncation.py binds nothing that makes them
    names = set()
    for node in ast.walk(_tree("truncation.py")):
        if isinstance(node, ast.ImportFrom):
            names |= {alias.asname or alias.name for alias in node.names}
        names |= {getattr(node, "id", None), getattr(node, "attr", None)}
    assert names & {"mode_svd", "mode_svds", "derivative_data"} == set()


def test_mode_one_copies_no_vectors():
    # mode_svds unscales mode 1 in place from the factor's scaled vectors;
    # svd_engine.py copies no system's left or right vectors
    found = [
        node.lineno
        for node in ast.walk(_tree("svd_engine.py"))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "copy"
        and getattr(node.func.value, "attr", None) in {"left_vectors", "right_vectors"}
    ]
    assert found == []


def test_rank_report_holds_no_verdict():
    # a rank report holds measurements and bounds; the run's check table
    # judges them, so h1_sandwich takes no slack and writes no verdict
    assert "slack" not in inspect.signature(sv.h1_sandwich).parameters
    u = sv.sample_case(sv.get_case("SEP1"), (9, 9))
    systems = sv.mode_svds(u)
    derivs = tuple(sv.derivative_data(u, s) for s in systems)
    (rep,) = sv.h1_sandwich(u, [(1, 1)], systems=systems, derivs=derivs)
    assert set(rep) == {"rank_vector", "measured", "series", "bounds", "bernstein"}
