"""The brute-force referee stays independent of the code it checks: the
production modules never import ``capra.oracle``, not even inside a
function."""

import ast
from pathlib import Path

import pytest

import capra

SRC = Path(capra.__file__).parent
CHECKED = ("numerics", "norms", "conjugacy", "envelope")


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


def _imports_oracle(source: str) -> bool:
    return any(n == "capra.oracle" or n.startswith("capra.oracle.")
               for n in _imported(source))


def test_scan_sees_every_import_form():
    for source in ("import capra.oracle",
                   "from capra import oracle",
                   "from capra.oracle import naive_conjugate",
                   "from . import oracle as orc",
                   "def f():\n    from .oracle import support_function_bruteforce\n"):
        assert _imports_oracle(source), source
    assert not _imports_oracle("from .norms import lp_value\nimport numpy as np\n")


@pytest.mark.parametrize("module", CHECKED)
def test_module_does_not_import_oracle(module):
    assert not _imports_oracle((SRC / f"{module}.py").read_text(encoding="utf-8"))
