"""The brute-force referee stays independent of the code it checks: the
production modules never import ``capra.oracle``, and ``capra.oracle`` never
imports the transforms it referees (``capra.conjugacy``, ``capra.envelope``),
not even inside a function.  The CLI imports at module level, all but the
verification suites."""

import ast
from pathlib import Path

import pytest

import capra

SRC = Path(capra.__file__).parent
CHECKED = ("numerics", "norms", "conjugacy", "envelope")
REFEREED = ("conjugacy", "envelope")


def _imported(source: str) -> set:
    """Absolute names of every module (and imported name) in ``source``, a
    module that sits directly in the capra package."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "capra" + ("." + base if base else "")
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def _imports_module(source: str, module: str) -> bool:
    target = f"capra.{module}"
    return any(n == target or n.startswith(target + ".") for n in _imported(source))


def _imports_oracle(source: str) -> bool:
    return _imports_module(source, "oracle")


def test_scan_sees_every_import_form():
    for source in ("import capra.oracle",
                   "from capra import oracle",
                   "from capra.oracle import naive_conjugate",
                   "from . import oracle as orc",
                   "def f():\n    from .oracle import support_function_bruteforce\n"):
        assert _imports_oracle(source), source
    assert not _imports_oracle("from .norms import lp_value\nimport numpy as np\n")
    for source in ("from .conjugacy import fenchel_conjugate",
                   "def f():\n    from . import conjugacy\n",
                   "import capra.conjugacy as cj"):
        assert _imports_module(source, "conjugacy"), source
    assert not _imports_module("from .oracle import SEED\n", "conjugacy")


@pytest.mark.parametrize("module", CHECKED)
def test_module_does_not_import_oracle(module):
    assert not _imports_oracle((SRC / f"{module}.py").read_text(encoding="utf-8"))


@pytest.mark.parametrize("module", REFEREED)
def test_oracle_does_not_import_refereed_module(module):
    assert not _imports_module((SRC / "oracle.py").read_text(encoding="utf-8"), module)


def test_cli_imports_at_module_level_but_the_suites():
    # import capra.cli loads every module but verification through
    # capra/__init__, so only cmd_verify's import of the suites is lazy.
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    local = [(node.level, node.module, [alias.name for alias in node.names])
             for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert local == [(1, "verification", ["report_dict", "run_suite"])]
