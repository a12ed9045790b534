"""Package hygiene: no unused imports, and a public surface that resolves."""
import ast
from pathlib import Path

import pytest

import sobosvd as sv

SRC = Path(sv.__file__).parent


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


def test_public_names_resolve():
    for name in sv.__all__:
        assert getattr(sv, name) is not None, name


@pytest.mark.parametrize(
    "name",
    [
        "DegenerateModeError",
        "EkIdentity",
        "H1Identity",
        "HOSVDSystem",
        "bernstein_exponent",
        "dense_reference_sigmas",
        "ek_identity",
        "h1_identity",
        "hosvd",
        "jackson_exponent",
        "norm_mix",
        "singular_derivative_operator",
    ],
)
def test_removed_names_absent(name):
    assert name not in sv.__all__
    assert not hasattr(sv, name)
