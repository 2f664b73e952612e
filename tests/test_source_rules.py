"""Rules on the library source that the test suite keeps.

Contract checks must raise: ``python -O`` strips ``assert`` statements, so a
check written as one silently disappears.

The oracles of ``newtonpoly.verify`` stay independent of the code they
check: no other module imports them.  The command line runs the suites, so
it may import the names that run them and nothing else.
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


# names of newtonpoly.verify that a module may import; the rest may import none
VERIFY_NAMES_ALLOWED = {"cli.py": {"DEFAULT_SEED", "SUITES", "run_suite"}}
CHECKED = [p for p in MODULES if p.name != "verify.py"]


def _verify_imports(tree):
    """Names a module imports from newtonpoly.verify; "*" stands for the
    whole module or a star import."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {"*" for alias in node.names if alias.name == "newtonpoly.verify"}
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if module in (".verify", "newtonpoly.verify"):
                names |= {alias.name for alias in node.names}
            elif module in (".", "newtonpoly"):
                names |= {"*" for alias in node.names if alias.name == "verify"}
    return names


def test_verify_import_scan_sees_every_form():
    source = (
        "import newtonpoly.verify\n"
        "from newtonpoly import verify\n"
        "from . import verify as v\n"
        "from .verify import _det\n"
        "from newtonpoly.verify import _box_hull_covolume as hull\n"
        "from .polyhedra import _det as _ok\n"
    )
    assert _verify_imports(ast.parse(source)) == {"*", "_det", "_box_hull_covolume"}


@pytest.mark.parametrize("path", CHECKED, ids=[p.name for p in CHECKED])
def test_oracles_stay_independent(path):
    allowed = VERIFY_NAMES_ALLOWED.get(path.name, set())
    names = _verify_imports(ast.parse(path.read_text(), filename=str(path)))
    assert names <= allowed, (
        f"{path.name} imports {sorted(names - allowed)} from newtonpoly.verify, "
        "whose oracles must stay independent of the code they check"
    )
