"""Every volint module uses each name it imports, and no volint process loads scipy.

A deleted code path should take its imports with it. ``__init__.py`` is
exempt from the unused-import check because its imports are the package's
exports. scipy is a test dependency only: the tests use it as a reference.
"""

import ast
import json
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


def test_no_module_imports_scipy():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            found += [(path.name, node.lineno) for m in modules if m.split(".")[0] == "scipy"]
    assert not found, f"scipy imported at {found}"


def _python(code: str) -> list[str]:
    """Run ``code`` in a fresh interpreter that imports this checkout; return its stdout lines."""
    path = [str(SRC.parent), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.splitlines()


_SCIPY_LOADED = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"


def test_cli_and_iid_synth_load_no_scipy(tmp_path):
    # every analyze and synth process pays for what volint.cli imports, and
    # se_intervals takes its normal CDF and quantile from synth.py, not scipy.special
    lines = ["import sys, volint.cli", _SCIPY_LOADED, "from volint.synth import SynthSpec, generate_minute_csv"]
    for kind in ("iid_gaussian_abs", "se_intervals"):
        lines += [
            f"spec = SynthSpec({kind!r}, n=500, seed=1)",
            f"generate_minute_csv(spec, {str(tmp_path / (kind + '.csv'))!r})",
            _SCIPY_LOADED,
        ]
    assert _python("\n".join(lines)) == ["[]", "[]", "[]"]


def test_cli_loads_no_numpy_polynomial():
    # the Gauss-Legendre rule is written out, so no analyze process pays for numpy.polynomial
    assert _python("import sys, volint.cli; print('numpy.polynomial' in sys.modules)") == ["False"]


def test_analyze_loads_no_numpy_ma(tmp_path, corpus_cfg):
    # np.unique and np.union1d import numpy.ma to ask whether their input is masked
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(corpus_cfg(tmp_path / "out")))
    run = f"main(['analyze', '--config', {str(cfg)!r}])"
    assert _python(f"import sys; from volint.cli import main; print({run}, 'numpy.ma' in sys.modules)")[-1] == "0 False"


def test_cli_and_analyze_load_no_openssl(tmp_path, corpus_cfg):
    # derive_seed hashes with CPython's own SHA-256: hashlib would map
    # OpenSSL's libcrypto (_hashlib), 3.6 MB resident, for one digest per fit
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(corpus_cfg(tmp_path / "out")))
    run = f"main(['analyze', '--config', {str(cfg)!r}])"
    lines = _python(
        "import sys; from volint.cli import main; print('_hashlib' in sys.modules); "
        f"print({run}, '_hashlib' in sys.modules)"
    )
    assert (lines[0], lines[-1]) == ("False", "0 False")
