"""Rules on the library source that the test suite keeps.

Contract checks must raise: ``python -O`` strips ``assert`` statements, so a
check written as one silently disappears.
"""

import ast
import pathlib

import pytest

import newtonpoly

MODULES = sorted(pathlib.Path(newtonpoly.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} uses assert on lines {lines}; raise an exception instead"
