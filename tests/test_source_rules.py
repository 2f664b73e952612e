"""Rules on the library source that the test suite keeps.

Contract checks must raise: ``python -O`` strips ``assert`` statements, so a
check written as one silently disappears.

The oracles of ``newtonpoly.verify`` stay independent of the code they
check: no other module imports them.  The command line runs the suites, so
it may import the names that run them and nothing else.  In the other
direction, ``verify.py`` reads no private name of ``newtonpoly.polyhedra``,
so that its box-hull oracle shares neither the facet enumerator nor the
fan reuse of the mixed covolumes it checks, and none of
``newtonpoly.series``, whose packed resultant kernel its rational Sylvester
determinants check.

The package has one factoriser over Q: only ``field._rational_factors``
calls sympy's ``dup_factor_list``, after the closed-form quadratics, so
``_factor_over_qq`` and the Trager norms both reach sympy through it.

The package has one resultant kernel: ``series.py`` calls sympy's
``dup_resultant`` exactly once, no other module calls it, and no module
calls sympy's symbolic ``resultant``.  Only the three public resultants of
``series.py`` (``sylvester_resultant``, ``level_resultant`` and
``shifted_resultant``) call that kernel, ``_packed_resultant``, once each.
Elsewhere a public resultant is taken in one function per module, where
nothing local does its job: ``level_resultant`` in ``invariants.py`` inside
``discriminant_polygon`` (the Cerf diagram, one resultant for every value
of v), ``sylvester_resultant`` in ``puiseux.py`` inside ``puiseux_expand``
(the square-free certificate) and in ``field.py`` inside ``_norm_to_qq``
(Trager's norm).  So a resultant that only bounds or certifies what mu or a
local count already decides, or a loop of resultants that one resultant in
a further variable gives, cannot come back unnoticed.

``polyhedra.py`` has one determinant kernel: it defines no ``_det`` and calls
none, and its facet normals and simplex volumes all come from the
closed-form cofactor vector of ``_cofactors``.

Polygons are built in integer arithmetic: ``product.py`` imports nothing
from ``fractions``, and the construction path of ``polygon.py``, the
support hull ``from_support`` and its ``_convex_chain`` included, names
neither ``Fraction`` nor the ``Fraction``-valued ``ElementaryPolygon.slope``.

Tower arithmetic runs in integers: a tower element is integer numerators
over one denominator, and field's reduction routine ``_dreduce``, the
products ``_dproduct`` and ``_dmul`` and series' ``_unflatten`` name no
``Fraction``.  An element over Q is the same datum, one numerator over its
denominator, so field's element arithmetic (``_canonical``, ``_common``,
``_embed``, ``_data_is_zero``, ``_dadd``, ``_dneg``, ``_dsub``, ``_dmul``,
``_dproduct``, ``_dreduce`` and ``_dinverse``) names no ``Fraction`` on any
level, and the level-0 converters ``_datum`` and ``_vector`` stay gone.  So does the arithmetic of series over Q, whose terms are
integer numerators over one denominator: ``TruncatedSeries.__mul__``,
``__add__`` and ``scale``, the sums and canonical form ``_sum`` and
``_rational_datum``, and the packed product ``_packed_product`` with
``_runs``, ``_integer_slots`` and ``_unflatten``, on every level.

No jacobian polygon depends on a drawn seed: ``invariants.py`` does not
import ``random``.

sympy is the only runtime dependency: no module imports ``scipy``, whose
float hulls the exact oracles do not need.  The package talks to sympy
through dense integer lists: no module imports anything from sympy outside
``sympy.polys``, ``verify.py`` included, whose Minkowski test is decided in
integers.

Arithmetic stays inside one field.  The operand checks of the operators
(``FieldElement._binary`` and the same-field fast paths of
``FieldElement.__add__``, ``__sub__``, ``__mul__`` and ``__eq__``,
``TruncatedSeries._coerce_pair``, ``YPolynomial._coerce_pair``) and
``YPolynomial.make`` call none of
``join_fields``, ``lift`` and ``lift_field``: operands over different
towers raise, and towers are joined only where they grow (the Newton steps
of ``puiseux``, whose ``_substitute_edge`` moves f to the new root's tower
by ``lift_field``) or where a public function takes operands over nested
towers (the resultants, ``intersection_number``,
``is_nondegenerate_pair``, ``eval_on_branch``, and so
``order_along_branch``), so no operator pays for a join that no caller
needs.

The text format is read in one tokenizing pass: ``series.py`` classifies
characters only in the ASCII classes of the ``_tokens`` regex, so it calls
none of the Unicode-aware ``str`` tests (``isdigit`` takes "\u0663" and
"\u00b2"), and the character-scanning ``_Tokenizer`` and the ``_PolyValue``
wrapper stay gone.
"""

import ast
import pathlib

import pytest

import newtonpoly

PACKAGE = pathlib.Path(newtonpoly.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


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


def _private_names(tree, name):
    """Private names of newtonpoly.<name> that a module reads, imported
    (``from .polyhedra import _det``) or through the module (``ph._det``)."""
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.asname or alias.name for alias in node.names
                        if alias.name == f"newtonpoly.{name}"}
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if module in (f".{name}", f"newtonpoly.{name}"):
                names |= {alias.name for alias in node.names if alias.name.startswith("_")}
            elif module in (".", "newtonpoly"):
                modules |= {alias.asname or alias.name for alias in node.names
                            if alias.name == name}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and ast.unparse(node.value) in modules):
            names.add(node.attr)
    return names


def test_polyhedra_private_name_scan_sees_every_form():
    source = (
        "from . import polyhedra as ph\n"
        "from newtonpoly import polyhedra\n"
        "import newtonpoly.polyhedra\n"
        "import newtonpoly.polyhedra as P\n"
        "from .polyhedra import _combo, covolume\n"
        "from newtonpoly.polyhedra import _facets as f\n"
        "from .polygon import _steeper\n"
        "from .series import _packed_resultant\n"
        "a = ph._det(ph.covolume(n), n._hull_facets)\n"
        "b = newtonpoly.polyhedra._minimal + polyhedra._dot + P._cone_volume\n"
    )
    tree = ast.parse(source)
    assert _private_names(tree, "polyhedra") == {
        "_combo", "_facets", "_det", "_minimal", "_dot", "_cone_volume"}
    assert _private_names(tree, "series") == {"_packed_resultant"}


def _verify_private_names(module):
    path = PACKAGE / "verify.py"
    names = _private_names(ast.parse(path.read_text(), filename=str(path)), module)
    assert not names, (
        f"verify.py reads {sorted(names)} of newtonpoly.{module}; its oracles must "
        "not share the code they check"
    )


def test_verify_reads_no_private_name_of_polyhedra():
    _verify_private_names("polyhedra")


def test_verify_reads_no_private_name_of_series():
    _verify_private_names("series")


def _calls(tree, name):
    """Calls of a function by its name or as an attribute."""
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and ((isinstance(node.func, ast.Name) and node.func.id == name)
             or (isinstance(node.func, ast.Attribute) and node.func.attr == name))
    ]


def test_call_scan_sees_every_form():
    tree = ast.parse("a = dup_resultant(f, g, ZZ)\nb = euclidtools.dup_resultant(g, f, ZZ)\n"
                     "c = dup_resultant\nd = dmp_resultant(f, g, 1, ZZ)\n")
    assert len(_calls(tree, "dup_resultant")) == 2


def test_series_has_one_resultant_kernel():
    path = PACKAGE / "series.py"
    calls = _calls(ast.parse(path.read_text(), filename=str(path)), "dup_resultant")
    assert len(calls) == 1, (
        f"series.py calls dup_resultant on lines {[c.lineno for c in calls]}; every "
        "resultant goes through the one packed kernel"
    )


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_dense_factoriser_only_in_rational_factors(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    known = (_calls(_functions(tree)["_rational_factors"], "dup_factor_list")
             if path.name == "field.py" else [])
    stray = [c.lineno for c in _calls(tree, "dup_factor_list") if c not in known]
    assert not stray, (
        f"{path.name} calls dup_factor_list on lines {stray}; every factorisation over Q "
        "goes through field._rational_factors"
    )
    if path.name == "field.py":
        assert len(known) == 1, "field._rational_factors calls dup_factor_list once"


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_resultant_outside_the_kernel(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    stray = [c.lineno for c in _calls(tree, "resultant")]
    if path.name != "series.py":
        stray += [c.lineno for c in _calls(tree, "dup_resultant")]
    assert not stray, (
        f"{path.name} takes a resultant on lines {sorted(stray)}; every resultant goes "
        "through the packed kernel of series.py"
    )


def _sympy_imports(tree):
    """The sympy modules a tree imports from, absolute imports only."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module or "")
    return {name for name in names if name == "sympy" or name.startswith("sympy.")}


def test_sympy_import_scan_sees_every_form():
    source = (
        "import sympy\n"
        "import sympy.polys.factortools as ft, os\n"
        "from sympy import Dummy\n"
        "from sympy.polys.domains import ZZ\n"
        "def f():\n    from sympy.core import Symbol\n"
        "from .sympy import x\n"
        "import sympyx\n"
    )
    assert _sympy_imports(ast.parse(source)) == {
        "sympy", "sympy.polys.factortools", "sympy.polys.domains", "sympy.core"}


# modules that may import sympy outside sympy.polys, and what they import: none
SYMPY_OUTSIDE_POLYS = {}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_sympy_only_through_polys(path):
    outside = {
        name for name in _sympy_imports(ast.parse(path.read_text(), filename=str(path)))
        if name != "sympy.polys" and not name.startswith("sympy.polys.")
    } - SYMPY_OUTSIDE_POLYS.get(path.name, set())
    assert not outside, (
        f"{path.name} imports {sorted(outside)}; sympy is reached through sympy.polys "
        "with dense integer lists"
    )


# the operand checks of the operators, which keep arithmetic inside one field
ONE_FIELD_FUNCTIONS = [("field.py", "FieldElement._binary"),
                       ("field.py", "FieldElement.__add__"),
                       ("field.py", "FieldElement.__sub__"),
                       ("field.py", "FieldElement.__mul__"),
                       ("field.py", "FieldElement.__eq__"),
                       ("series.py", "TruncatedSeries._coerce_pair"),
                       ("series.py", "YPolynomial._coerce_pair"),
                       ("series.py", "YPolynomial.make")]
TOWER_JOINS = ["join_fields", "lift", "lift_field"]


@pytest.mark.parametrize("name, function", ONE_FIELD_FUNCTIONS)
def test_operators_join_no_towers(name, function):
    path = PACKAGE / name
    functions = _functions(ast.parse(path.read_text(), filename=str(path)))
    assert function in functions, f"{name} defines no {function}"
    calls = sorted(c.lineno for join in TOWER_JOINS for c in _calls(functions[function], join))
    assert not calls, (
        f"{name} {function} joins or lifts towers on lines {calls}; operands over "
        "different fields raise, and the callers that take nested towers join them"
    )


# the functions of polyhedra.py that take a hyperplane normal, a simplex
# determinant or a spanning certificate, each from the one cofactor kernel
COFACTOR_CALLERS = ["_facets", "_cone_volume", "_fan_covolume"]


def test_polyhedra_has_one_determinant_kernel():
    path = PACKAGE / "polyhedra.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    functions = _functions(tree)
    assert "_det" not in functions, (
        "polyhedra.py defines _det; a simplex determinant is N . p_0 of _cofactors"
    )
    stray = sorted(c.lineno for name in ("_det", "det") for c in _calls(tree, name))
    assert not stray, (
        f"polyhedra.py calls a determinant on lines {stray}; every determinant goes "
        "through _cofactors"
    )
    missing = [name for name in COFACTOR_CALLERS if not _calls(functions[name], "_cofactors")]
    assert not missing, f"{missing} do not take their normals or volumes from _cofactors"


# the one function of each module that may take a resultant, and the public
# resultant it takes
RESULTANT_CALLERS = {"field.py": "_norm_to_qq", "invariants.py": "discriminant_polygon",
                     "puiseux.py": "puiseux_expand"}
RESULTANT_TAKEN = {"field.py": "sylvester_resultant", "invariants.py": "level_resultant",
                   "puiseux.py": "sylvester_resultant"}
PUBLIC_RESULTANTS = ["sylvester_resultant", "level_resultant", "shifted_resultant"]


@pytest.mark.parametrize("name, caller", sorted(RESULTANT_CALLERS.items()))
def test_resultants_only_where_they_are_needed(name, caller):
    path = PACKAGE / name
    tree = ast.parse(path.read_text(), filename=str(path))
    taken = RESULTANT_TAKEN[name]
    inside = _calls(_functions(tree)[caller], taken)
    stray = [c.lineno for r in PUBLIC_RESULTANTS for c in _calls(tree, r) if c not in inside]
    assert inside, f"{name} {caller} calls no {taken}"
    assert not stray, (
        f"{name} takes a resultant on lines {stray}, outside the {taken} of {caller}; "
        "bound or certify from local data instead"
    )


def test_packed_kernel_only_behind_the_public_resultants():
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        known = []
        if path.name == "series.py":
            functions = _functions(tree)
            inside = {name: _calls(functions[name], "_packed_resultant")
                      for name in PUBLIC_RESULTANTS}
            assert all(len(calls) == 1 for calls in inside.values()), (
                "each public resultant takes one packed resultant: "
                f"{ {name: len(calls) for name, calls in inside.items()} }"
            )
            known = [c for calls in inside.values() for c in calls]
        stray = [c.lineno for c in _calls(tree, "_packed_resultant") if c not in known]
        assert not stray, (
            f"{path.name} calls _packed_resultant on lines {stray}; only "
            f"{', '.join(PUBLIC_RESULTANTS)} call the kernel"
        )


# functions of polygon.py that every construction runs through, and the
# support hull
CONSTRUCTION_PATH = ["_steeper", "_merge_edges", "_canonical", "NewtonPolygon.__post_init__",
                     "polygon_sum", "from_support", "_convex_chain"]


def _functions(tree, prefix=""):
    """Function definitions by qualified name, methods as ``Class.method``."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found[prefix + node.name] = node
        elif isinstance(node, ast.ClassDef):
            found.update(_functions(node, prefix + node.name + "."))
    return found


def _uses_fraction(node):
    """node names Fraction, or reads a ``.slope``, which is a Fraction."""
    return any(
        (isinstance(n, ast.Name) and n.id == "Fraction")
        or (isinstance(n, ast.Attribute) and n.attr in ("Fraction", "slope"))
        for n in ast.walk(node)
    )


def _imports(tree, module):
    """The module, a submodule of it, or a name from either is imported
    somewhere in tree."""

    def within(name):
        return name == module or name.startswith(module + ".")

    return any(
        (isinstance(n, ast.Import) and any(within(a.name) for a in n.names))
        or (isinstance(n, ast.ImportFrom) and n.level == 0 and within(n.module or ""))
        for n in ast.walk(tree)
    )


def test_fraction_scans_see_every_form():
    source = (
        "import fractions\n"
        "class P:\n"
        "    def __post_init__(self):\n"
        "        return fractions.Fraction(1)\n"
        "def f(x):\n"
        "    return Fraction(x)\n"
        "def g(x):\n"
        "    return x.slope\n"
        "def h(x):\n"
        "    return x.h * x.ell\n"
    )
    tree = ast.parse(source)
    funcs = _functions(tree)
    assert sorted(funcs) == ["P.__post_init__", "f", "g", "h"]
    assert [_uses_fraction(funcs[name]) for name in sorted(funcs)] == [True, True, True, False]
    assert _imports(tree, "fractions")
    assert _imports(ast.parse("from fractions import Fraction as F\n"), "fractions")
    assert not _imports(ast.parse("from .polygon import INF\n"), "fractions")
    assert _imports(ast.parse("import os, random as r\n"), "random")
    assert not _imports(ast.parse("from .puiseux import random\n"), "random")
    assert _imports(ast.parse("def f():\n    from scipy.spatial import ConvexHull\n"), "scipy")
    assert _imports(ast.parse("import scipy.spatial as sp\n"), "scipy")
    assert not _imports(ast.parse("import scipyx\nfrom .scipy import hull\n"), "scipy")


def test_product_imports_nothing_from_fractions():
    path = PACKAGE / "product.py"
    assert not _imports(ast.parse(path.read_text(), filename=str(path)), "fractions")


def test_invariants_imports_nothing_from_random():
    path = PACKAGE / "invariants.py"
    assert not _imports(ast.parse(path.read_text(), filename=str(path)), "random")


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_imports_scipy(path):
    assert not _imports(ast.parse(path.read_text(), filename=str(path)), "scipy"), (
        f"{path.name} imports scipy; sympy is the only runtime dependency"
    )


@pytest.mark.parametrize("name", CONSTRUCTION_PATH)
def test_polygon_construction_path_has_no_fraction(name):
    path = PACKAGE / "polygon.py"
    funcs = _functions(ast.parse(path.read_text(), filename=str(path)))
    assert name in funcs, f"polygon.py defines no {name}"
    assert not _uses_fraction(funcs[name]), f"polygon.py {name} refers to Fraction or .slope"


# the integer tower arithmetic: field's reduction routine, the product of
# numerator vectors and the element product, and series' unpacking
TOWER_INTEGER_PATH = [("field.py", "_dreduce"), ("field.py", "_dproduct"),
                      ("field.py", "_dmul"), ("series.py", "_unflatten")]


def _tower_branch(func):
    """The statements of func after its first ``if level == 0:`` branch,
    or its whole body if it has none."""
    for i, node in enumerate(func.body):
        if isinstance(node, ast.If) and ast.unparse(node.test) == "level == 0":
            return func.body[i + 1:]
    return func.body


def test_tower_branch_scan_sees_every_form():
    source = (
        "def f(level, v):\n"
        "    if level == 0:\n"
        "        return Fraction(v)\n"
        "    return g(v)\n"
        "def h(level, v):\n"
        "    if level == 0:\n"
        "        return v\n"
        "    return fractions.Fraction(v)\n"
        "def k(level, v):\n"
        "    return Fraction(v)\n"
    )
    funcs = _functions(ast.parse(source))
    assert [any(_uses_fraction(node) for node in _tower_branch(funcs[name]))
            for name in "fhk"] == [False, True, True]


@pytest.mark.parametrize("module, name", TOWER_INTEGER_PATH)
def test_tower_arithmetic_builds_no_fraction(module, name):
    path = PACKAGE / module
    funcs = _functions(ast.parse(path.read_text(), filename=str(path)))
    assert name in funcs, f"{module} defines no {name}"
    assert not any(_uses_fraction(node) for node in _tower_branch(funcs[name])), (
        f"{module} {name} refers to Fraction on a tower level"
    )


# field's element arithmetic, which runs on (nums, den) at every level, Q
# included: the whole bodies, level-0 branches too
FIELD_INTEGER_PATH = ["_canonical", "_common", "_embed", "_data_is_zero", "_dadd", "_dneg",
                      "_dsub", "_dmul", "_dproduct", "_dreduce", "_dinverse"]
FIELD_LEFTOVERS = {"_ZERO", "_datum", "_vector"}


def _module_names(tree):
    """Names that a module defines at its top level: functions, classes and
    assignment targets."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def test_field_arithmetic_scan_sees_every_form():
    source = (
        "_ZERO = Fraction(0)\n"
        "def _data_is_zero(data):\n"
        "    if data.__class__ is Fraction:\n"
        "        return not data\n"
        "    return not any(data[0])\n"
        "def _dinverse(field, level, data):\n"
        "    if level == 0:\n"
        "        return fractions.Fraction(1) / data\n"
        "    return data\n"
        "def _dneg(a):\n"
        "    return tuple([-x for x in a[0]]), a[1]\n"
        "def _vector(data):\n"
        "    return data\n"
    )
    tree = ast.parse(source)
    funcs = _functions(tree)
    assert [_uses_fraction(funcs[name]) for name in ("_data_is_zero", "_dinverse", "_dneg")] == [
        True, True, False]
    # a level-0 branch is what the tower rule exempts and this rule scans
    assert not any(_uses_fraction(node) for node in _tower_branch(funcs["_dinverse"]))
    assert _module_names(tree) & FIELD_LEFTOVERS == {"_ZERO", "_vector"}


@pytest.mark.parametrize("name", FIELD_INTEGER_PATH)
def test_field_element_arithmetic_names_no_fraction(name):
    path = PACKAGE / "field.py"
    funcs = _functions(ast.parse(path.read_text(), filename=str(path)))
    assert name in funcs, f"field.py defines no {name}"
    assert not _uses_fraction(funcs[name]), (
        f"field.py {name} refers to Fraction; an element over Q is one integer "
        "numerator over its denominator, like a tower datum"
    )


def test_field_defines_no_level_zero_converters():
    path = PACKAGE / "field.py"
    leftovers = _module_names(ast.parse(path.read_text(), filename=str(path))) & FIELD_LEFTOVERS
    assert not leftovers, f"field.py defines {sorted(leftovers)}; every level holds (nums, den)"


# the arithmetic of series over Q, which runs on integer numerators over one
# denominator: the operators and scale, the sums and the canonical form of
# the datum, and the packed product, its packing and its unpacking, on every
# level, the level-0 branches included
RATIONAL_SERIES_PATH = ["TruncatedSeries.__mul__", "TruncatedSeries.__add__",
                        "TruncatedSeries.scale", "_sum", "_rational_datum", "_runs",
                        "_integer_slots", "_packed_product", "_unflatten"]


def test_rational_series_scan_sees_every_form():
    source = (
        "class S:\n"
        "    def scale(self, c):\n"
        "        if self.field.level:\n"
        "            return c\n"
        "        return [Fraction(n, self.den) for n in self.values]\n"
        "    def __add__(self, other):\n"
        "        return _sum(self, other)\n"
        "def _sum(a, b):\n"
        "    return {e: fractions.Fraction(n) for e, n in a}\n"
        "def _unflatten(level, v):\n"
        "    if level == 0:\n"
        "        return Fraction(v)\n"
        "    return v\n"
    )
    funcs = _functions(ast.parse(source))
    names = ["S.scale", "S.__add__", "_sum", "_unflatten"]
    assert [_uses_fraction(funcs[name]) for name in names] == [True, False, True, True]
    # the tower rule exempts a level-0 branch, which this rule scans
    assert not any(_uses_fraction(node) for node in _tower_branch(funcs["_unflatten"]))


@pytest.mark.parametrize("name", RATIONAL_SERIES_PATH)
def test_rational_series_arithmetic_builds_no_fraction(name):
    path = PACKAGE / "series.py"
    funcs = _functions(ast.parse(path.read_text(), filename=str(path)))
    assert name in funcs, f"series.py defines no {name}"
    assert not _uses_fraction(funcs[name]), (
        f"series.py {name} refers to Fraction; a series over Q is integer "
        "numerators over one denominator"
    )


CHARACTER_TESTS = {"isdigit", "isalpha", "isalnum", "isspace"}
PARSER_LEFTOVERS = {"_Tokenizer", "_PolyValue"}


def _character_scans(tree):
    """Lines of calls to str's character tests, and leftover definitions."""
    calls = [c.lineno for name in sorted(CHARACTER_TESTS) for c in _calls(tree, name)]
    defined = [node.name for node in ast.walk(tree)
               if isinstance(node, (ast.ClassDef, ast.FunctionDef))
               and node.name in PARSER_LEFTOVERS]
    return sorted(calls), sorted(defined)


def test_character_scan_sees_the_old_tokenizer():
    source = (
        "class _Tokenizer:\n"
        "    def peek(self):\n"
        "        while self.text[self.pos].isspace():\n"
        "            self.pos += 1\n"
        "        if self.text[self.pos].isdigit():\n"
        "            return 'int'\n"
        "        if ch.isalpha() or ch == '_':\n"
        "            return 'name' if str.isalnum(ch) else None\n"
        "class _PolyValue:\n"
        "    pass\n"
    )
    assert _character_scans(ast.parse(source)) == ([3, 5, 7, 8], ["_PolyValue", "_Tokenizer"])


def test_series_scans_characters_only_in_tokens():
    path = PACKAGE / "series.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    calls, defined = _character_scans(tree)
    assert not calls, (
        f"series.py calls a str character test on lines {calls}; the _tokens regex "
        "classifies every character, in ASCII classes"
    )
    assert not defined, f"series.py defines {defined}; the parser reads _tokens into dicts"
    assert "_tokens" in _functions(tree), "series.py defines no _tokens"
