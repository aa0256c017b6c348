"""Every volint module uses each name it imports, and the CLI imports no scipy.

A deleted code path should take its imports with it. ``__init__.py`` is
exempt because its imports are the package's exports.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "volint"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import outside ``from __future__``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set[str]:
    """Names loaded anywhere, including inside string annotations."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in filter(None, _annotations(tree)):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parsed = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = sorted((line, name) for name, line in _imported(tree).items() if name not in used)
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_string_annotation_counts_as_use():
    tree = ast.parse("from x import A, B\n\ndef f(a: 'A') -> 'list[B]':\n    pass\n")
    assert set(_imported(tree)) <= _used(tree)
    tree = ast.parse("from x import A\n")
    assert "A" not in _used(tree)


_SCIPY_LOADED = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"


def test_cli_and_iid_synth_load_no_scipy(tmp_path):
    # every analyze and synth process pays for what volint.cli imports; only
    # synth --kind se_intervals needs scipy.special, for the normal quantile
    code = "\n".join(
        [
            "import sys, volint.cli",
            _SCIPY_LOADED,
            "from volint.synth import SynthSpec, generate_minute_csv",
            "spec = SynthSpec('iid_gaussian_abs', n=500, seed=1)",
            f"generate_minute_csv(spec, {str(tmp_path / 't.csv')!r})",
            _SCIPY_LOADED,
        ]
    )
    path = [str(SRC.parent), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.splitlines() == ["[]", "[]"]


def test_cli_loads_no_numpy_polynomial():
    # the Gauss-Legendre rule is written out, so no analyze process pays for numpy.polynomial
    code = "import sys, volint.cli; print('numpy.polynomial' in sys.modules)"
    path = [str(SRC.parent), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
