"""Every library name a demo script uses exists, read from each script's
syntax tree without running it: ``X.<name>`` for ``import levyladder as X``
and ``from levyladder[.<mod>] import <name>``."""

import ast
import importlib
import importlib.util
import pathlib

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def _library_names(tree: ast.AST) -> list[tuple[str, str]]:
    """``(module, name)`` of each library name the tree imports or reads."""
    aliases = {a.asname or a.name: a.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for a in node.names
               if a.name.split(".")[0] == "levyladder"}
    names = [(node.module, a.name) for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.level == 0
             and (node.module or "").split(".")[0] == "levyladder" for a in node.names]
    names += [(aliases[node.value.id], node.attr) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in aliases]
    return names


def _exists(mod: str, name: str) -> bool:
    """Whether ``name`` is an attribute or a submodule of module ``mod``."""
    return (hasattr(importlib.import_module(mod), name)
            or importlib.util.find_spec(f"{mod}.{name}") is not None)


def test_every_demo_is_found():
    assert len(DEMOS) >= 7


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_names_exist(path):
    names = _library_names(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    missing = [f"{mod}.{name}" for mod, name in names if not _exists(mod, name)]
    assert not missing, f"{path.name} uses names the library lacks: {missing}"


def test_a_moved_name_is_caught():
    tree = ast.parse("import levyladder as ll\nfrom levyladder.rng import RngPolicy\n"
                     "ll.no_such_check(ll.P1)\n")
    names = _library_names(tree)
    assert ("levyladder", "no_such_check") in names and ("levyladder.rng", "RngPolicy") in names
    assert not _exists("levyladder", "no_such_check") and _exists("levyladder", "runner")


def test_seed_sweep_prints_nominal_rates_and_expected_fails(capsys):
    spec = importlib.util.spec_from_file_location("seed_sweep", DEMOS[0].parent / "seed_sweep.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    assert set(sweep.nominal_rates("box-occupation").values()) == {None}
    # an empty seed range runs nothing and still prints the rates
    assert sweep.main(["--workload", "suite-breadth", "--seeds", "5-4", "--runs", "20"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "17.alpha.P3: nominal false-FAIL rate fixed" in lines
    assert "0.p-estimate.P1: nominal false-FAIL rate 0.0001" in lines
    # 14 checks at 1e-4 each, alpha left out
    assert lines[-1] == "expected false FAILs in 20 runs: 0.028 (fixed-budget checks not counted)"
