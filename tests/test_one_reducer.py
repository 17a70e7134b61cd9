"""Every Monte Carlo mean and SE of the library is reduced by
``results.Moments``: no other module takes an SD or a variance, or keeps
(n, mean, M2) statistics of its own, read from each module's syntax tree
without running it."""

import ast
import pathlib

import pytest

SRC = sorted((pathlib.Path(__file__).resolve().parents[1] / "src" / "levyladder").glob("*.py"))
REDUCER = "results.py"


def _identifier(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.arg):
        return node.arg
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return node.name
    return None


def _reductions(tree: ast.AST) -> list[str]:
    """Each ``.std(``/``.var(`` call (``np.std`` and ``np.var`` included),
    and each identifier with an ``m2`` part, the sum of squared deviations
    that an (n, mean, M2) merge carries."""
    found = [f"line {node.lineno}: .{node.func.attr}(" for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in ("std", "var")]
    found += [f"line {node.lineno}: {name}" for node in ast.walk(tree)
              if (name := _identifier(node)) and "m2" in name.lower().split("_")]
    return found


def test_the_package_is_found():
    assert REDUCER in {p.name for p in SRC} and len(SRC) >= 10


@pytest.mark.parametrize("path", [p for p in SRC if p.name != REDUCER], ids=lambda p: p.name)
def test_no_module_but_results_reduces_means(path):
    found = _reductions(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    assert not found, f"{path.name} reduces means outside results.Moments: {found}"


def test_a_second_reducer_is_caught():
    tree = ast.parse("import numpy as np\n"
                     "se = vals.std(ddof=1)\nv = np.var(x)\n"
                     "def merge(parts):\n    n, mean, m2 = 0, 0.0, 0.0\n"
                     "def merge_mean_m2(a, cm2): pass\n")
    found = _reductions(tree)
    assert [f for f in found if f.startswith(("line 2:", "line 3:"))] == [
        "line 2: .std(", "line 3: .var("]
    assert "line 5: m2" in found and "line 6: merge_mean_m2" in found
    assert not _reductions(ast.parse("sum2 = arr.sum() + m.mean\n"))
    reducer = next(p for p in SRC if p.name == REDUCER)
    assert _reductions(ast.parse(reducer.read_text(encoding="utf-8")))
