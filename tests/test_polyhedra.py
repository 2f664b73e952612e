import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy

from newtonpoly import polyhedra
from newtonpoly.errors import (
    DimensionMismatch,
    DimensionTooLarge,
    DomainError,
    EmptySupport,
    InfiniteVolume,
)
from newtonpoly.polygon import make_elementary, polygon_sum, covolume2, from_support
from newtonpoly.polyhedra import (
    MixedVolumeIndex,
    NewtonPolyhedron,
    _cofactors,
    _combo,
    _combo_points,
    _dot,
    _facet_triangulation,
    _facets,
    _fan_covolume,
    _minimal,
    _node_covolume,
    _ring_2d,
    colength_growth_oracle,
    covolume,
    face_identity_check,
    from_support_d,
    mixed_covolume,
    monomial_multiplicity,
    scale_d,
    sum_d,
)
from newtonpoly.product import mixed_height
from newtonpoly.verify import (
    _box_hull_covolume,
    _det as _oracle_det,
    _minkowski_holds,
)

M2_D3 = [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)]


def random_finite_polyhedron(rng, d):
    gens = set()
    hi = 3 if d >= 3 else 5
    for axis in range(d):
        point = [0] * d
        point[axis] = rng.randint(1, hi)
        gens.add(tuple(point))
    for _ in range(rng.randint(0, 3)):
        extra = tuple(rng.randint(0, hi) for _ in range(d))
        if any(extra):
            gens.add(extra)
    return NewtonPolyhedron(d, gens)


class TestConstruction:
    def test_agrees_with_polygon_core(self):
        n = from_support_d(2, [(0, 2), (3, 0)])
        assert covolume(n) == covolume2(make_elementary(3, 2))

    def test_degree_two_simplex(self):
        n = from_support_d(3, M2_D3)
        assert covolume(n) == Fraction(4, 3)

    def test_missing_axes_infinite(self):
        n = from_support_d(3, [(1, 0, 0)])
        assert not n.is_finite_volume
        with pytest.raises(InfiniteVolume):
            covolume(n)

    def test_dimension_cap(self):
        with pytest.raises(DimensionTooLarge):
            from_support_d(5, [(1, 0, 0, 0, 0)])

    def test_empty(self):
        with pytest.raises(EmptySupport):
            from_support_d(2, [])

    def test_redundant_generators_dropped(self):
        n = from_support_d(2, [(1, 0), (0, 1), (2, 2), (1, 1)])
        assert n.generators == ((0, 1), (1, 0))

    def test_non_integral_coordinates_are_refused(self):
        with pytest.raises(ValueError, match="not an integer"):
            NewtonPolyhedron(2, [(2.9, 0), (0, 2)])
        with pytest.raises(ValueError):
            NewtonPolyhedron(2.5, [(2, 0), (0, 2)])
        with pytest.raises(ValueError, match="not an integer"):
            NewtonPolyhedron(2, [(float("inf"), 0), (0, 2)])
        n = NewtonPolyhedron(2, [(Fraction(4, 2), 0), (0, 2.0)])
        assert n.generators == ((0, 2), (2, 0))

    def test_hull_cache(self):
        n = from_support_d(2, [(0, 2), (3, 0)])
        assert n._hull_facets == (((2, 3), 6, ((0, 2), (3, 0))),)
        assert from_support_d(2, [(1, 0)])._hull_facets is None


class TestSum:
    def test_doubling(self):
        n = from_support_d(2, [(0, 2), (3, 0)])
        assert covolume(sum_d(n, n)) == 4 * covolume(n)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            sum_d(from_support_d(2, [(1, 0)]), from_support_d(3, [(1, 0, 0)]))

    def test_zero_polyhedron_identity(self):
        n = from_support_d(2, [(0, 2), (3, 0)])
        zero = from_support_d(2, [(0, 0)])
        assert sum_d(n, zero) == n

    def test_agrees_with_polygon_sum(self):
        rng = random.Random(11)
        for _ in range(30):
            p = from_support({(0, rng.randint(1, 4)), (rng.randint(1, 4), 0)})
            q = from_support({(0, rng.randint(1, 4)), (rng.randint(1, 4), 0)})
            np_, nq = NewtonPolyhedron(2, p.vertices()), NewtonPolyhedron(2, q.vertices())
            s = polygon_sum(p, q)
            assert covolume(sum_d(np_, nq)) == covolume2(s)


class TestCovolume:
    def test_triangle(self):
        assert covolume(from_support_d(2, [(0, 2), (3, 0)])) == 3

    def test_unit_simplex(self):
        assert covolume(from_support_d(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])) == Fraction(1, 6)

    def test_homogeneity(self):
        rng = random.Random(3)
        for d in (2, 3):
            n = random_finite_polyhedron(rng, d)
            for k in (2, 3, 4):
                assert covolume(scale_d(n, k)) == Fraction(k) ** d * covolume(n)

    def test_d4_simplex(self):
        n = from_support_d(4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
        assert covolume(n) == Fraction(1, 24)

    @pytest.mark.parametrize("d", [3, 4])
    def test_matches_box_hull_oracle(self, d):
        # degree-3 monomials of entries <= 2 under axis powers 4: the facet
        # sum = 3 is a hexagon at d = 3 and a solid at d = 4, not a simplex
        gens = [p for p in itertools.product(range(3), repeat=d) if sum(p) == 3]
        gens += [tuple(4 if i == a else 0 for i in range(d)) for a in range(d)]
        n = from_support_d(d, gens)
        assert covolume(n) == _box_hull_covolume(n)
        rng = random.Random(29 + d)
        for _ in range(12):
            n = random_finite_polyhedron(rng, d)
            assert covolume(n) == _box_hull_covolume(n)
        # d + 2 minimal generators: axis powers and two off-axis points
        checked = 0
        while checked < 6:
            gens = {tuple(rng.randint(2, 3) if i == a else 0 for i in range(d)) for a in range(d)}
            gens |= {tuple(rng.randint(0, 2) for _ in range(d)) for _ in range(2)}
            n = from_support_d(d, gens)
            if len(n.generators) != d + 2:
                continue
            assert covolume(n) == _box_hull_covolume(n)
            checked += 1

    def test_no_scipy_on_the_polyhedra_path(self):
        # a None entry in sys.modules makes every scipy import raise, so the
        # library and the box-hull oracle of criterion 8 both run without it
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from newtonpoly.polyhedra import NewtonPolyhedron, face_identity_check\n"
            "for d in (3, 4):\n"
            "    gens = [tuple(3 if i == a else 0 for i in range(d)) for a in range(d)]\n"
            "    n = NewtonPolyhedron(d, gens + [(1,) * d, (2,) + (0,) * (d - 2) + (1,)])\n"
            "    lhs, rhs = face_identity_check(n)\n"
            "    assert lhs == rhs, (lhs, rhs)\n"
            "from newtonpoly.cli import main\n"
            "status = main(['verify', 'monomial-multiplicity'])\n"
            "assert status == 0, status\n"
            "assert sys.modules['scipy'] is None\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestBoxHullOracle:
    """The slicing oracle on values derived by hand.  Each slice area is
    quadratic (d = 3) or cubic (d = 4) in the height, so a wrong quadrature
    rule or a missing segment crossing changes the answer."""

    def test_simplex_with_an_interior_corner(self):
        # three cones from the origin over the triangles through (1, 1, 1) and
        # two axis points, each det(4 e_1, 4 e_2, (1, 1, 1)) / 3!: 3 * 16 / 3! = 8
        n = NewtonPolyhedron(3, [(4, 0, 0), (0, 4, 0), (0, 0, 4), (1, 1, 1)])
        assert _box_hull_covolume(n) == 8

    def test_d4_simplex_with_an_interior_corner(self):
        # four cones over the tetrahedra through (1, 1, 1, 1), each 64 / 4!
        gens = [tuple(4 if i == a else 0 for i in range(4)) for a in range(4)]
        n = NewtonPolyhedron(4, gens + [(1, 1, 1, 1)])
        assert _box_hull_covolume(n) == Fraction(32, 3)

    @pytest.mark.parametrize("gens", [
        [(1, 0, 1), (0, 1, 1), (0, 0, 2)],  # no point at height 0
        [(2, 0, 0), (0, 2, 0), (1, 1, 1)],  # none on the last axis
        [(2, 0, 0), (0, 0, 2)],  # the slice at height 0 misses an axis
    ])
    def test_infinite_volume_raises(self, gens):
        with pytest.raises(InfiniteVolume):
            _box_hull_covolume(NewtonPolyhedron(3, gens))


def _int_nth_root(n: int, d: int) -> int:
    """floor(n^(1/d)) exactly, for any size of n: Newton's iteration in
    integers falls monotonically onto the floor from any start above it."""
    if n < 0:
        raise ValueError("no real root of a negative number")
    if d == 2 or n == 0:
        return math.isqrt(n)
    x = 1 << -(-n.bit_length() // d)  # 2^ceil(bits / d) > n^(1/d)
    while True:
        y = ((d - 1) * x + n // x ** (d - 1)) // d
        if y >= x:
            return x
        x = y


def _minkowski_by_roots(a, b, c, d, scale=10**30):
    """The reference decider of a^(1/d) <= b^(1/d) + c^(1/d): floors of the
    scaled roots, each within 1 of the root; None when too close to call."""
    ra, rb, rc = (_int_nth_root(v * scale**d, d) for v in (a, b, c))
    if ra + 1 <= rb + rc:
        return True
    if ra >= rb + rc + 2:
        return False
    return None


class TestMinkowskiCheck:
    # past 2^53 a root taken from a float start would land below the floor
    @pytest.mark.parametrize("r", [10**18 + 12345, 3 * 10**24 + 7])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_integer_root_is_exact_at_any_size(self, r, d):
        assert _int_nth_root(r**d, d) == r
        assert _int_nth_root(r**d - 1, d) == r - 1
        assert _int_nth_root((r + 1) ** d - 1, d) == r

    def test_small_roots(self):
        assert [_int_nth_root(n, 3) for n in (0, 1, 7, 8, 26, 27)] == [0, 1, 1, 2, 2, 3]

    @pytest.mark.parametrize("e1, e2, d", [(4, 16, 2), (8, 64, 3)])
    def test_homothetic_pairs_meet_the_bound(self, e1, e2, d):
        # e of N1 + N2 for homothetic N1, N2 is (e1^(1/d) + e2^(1/d))^d
        e12 = round(e1 ** (1 / d) + e2 ** (1 / d)) ** d
        assert _minkowski_holds(e12, e1, e2, d)
        assert not _minkowski_holds(e12 + 1, e1, e2, d)

    @pytest.mark.parametrize("d", [2, 3])
    def test_homothetic_grid_is_equality(self, d):
        # a = t (u + v)^d, b = t u^d, c = t v^d: a^(1/d) = b^(1/d) + c^(1/d)
        for t, u, v in itertools.product(range(1, 8), range(6), range(6)):
            a, b, c = t * (u + v) ** d, t * u**d, t * v**d
            assert _minkowski_holds(a, b, c, d), (a, b, c)
            assert _minkowski_holds(a - 1, b, c, d), (a - 1, b, c)
            assert not _minkowski_holds(a + 1, b, c, d), (a + 1, b, c)

    @pytest.mark.parametrize("d", [2, 3])
    def test_agrees_with_the_root_decider_on_strict_cases(self, d):
        rng = random.Random(80 + d)
        outcomes = set()
        for _ in range(2000):
            b, c = rng.randint(0, 10**rng.randint(1, 12)), rng.randint(0, 10**rng.randint(1, 12))
            near = round((b ** (1 / d) + c ** (1 / d)) ** d)
            a = max(0, near + rng.randint(-3, 3)) if rng.random() < 0.7 else rng.randint(0, 2 * near)
            expected = _minkowski_by_roots(a, b, c, d)
            if expected is not None:
                assert _minkowski_holds(a, b, c, d) == expected, (a, b, c)
                outcomes.add(expected)
        assert outcomes == {True, False}

    def test_other_dimensions_are_refused(self):
        with pytest.raises(ValueError):
            _minkowski_holds(16 * 3**4, 16, 1296, 4)


class TestMixedCovolume:
    def test_worked_pair(self):
        n1 = from_support_d(2, [(0, 1), (2, 0)])
        n2 = from_support_d(2, [(0, 2), (1, 0)])
        assert mixed_covolume([n1, n2], MixedVolumeIndex((1, 1))) == Fraction(1, 2)

    def test_non_integral_index_is_refused(self):
        with pytest.raises(ValueError):
            MixedVolumeIndex((1.5, 1.5))
        assert MixedVolumeIndex((Fraction(2, 2), 1.0)).alpha == (1, 1)

    def test_pure_index_is_covolume(self):
        n1 = from_support_d(2, [(0, 1), (2, 0)])
        n2 = from_support_d(2, [(0, 2), (1, 0)])
        assert mixed_covolume([n1, n2], MixedVolumeIndex((2, 0))) == covolume(n1)

    def test_diagonal(self):
        n = from_support_d(2, [(0, 3), (2, 0)])
        assert mixed_covolume([n, n], MixedVolumeIndex((1, 1))) == covolume(n)

    def test_polarization_consistency(self):
        rng = random.Random(5)
        for d in (2, 3):
            n1 = random_finite_polyhedron(rng, d)
            n2 = random_finite_polyhedron(rng, d)
            coeffs = {
                alpha: mixed_covolume([n1, n2], MixedVolumeIndex(alpha))
                for alpha in [(i, d - i) for i in range(d + 1)]
            }
            from math import comb

            for _ in range(10):
                l1, l2 = rng.randint(1, 4), rng.randint(1, 4)
                combo = sum_d(scale_d(n1, l1), scale_d(n2, l2))
                expected = sum(
                    comb(d, i) * coeffs[(i, d - i)] * l1**i * l2 ** (d - i)
                    for i in range(d + 1)
                )
                assert covolume(combo) == expected

    def test_combination_equals_sum_of_scaled_operands(self):
        rng = random.Random(23)
        for d in (2, 3):
            for r in (2, 3):
                polys = [random_finite_polyhedron(rng, d) for _ in range(r)]
                for lams in itertools.product(range(3), repeat=r):
                    total = scale_d(polys[0], 0)
                    for n, lam in zip(polys, lams):
                        if lam > 0:
                            total = sum_d(total, scale_d(n, lam))
                    combo = _combo(polys, lams)
                    # the boundary sums generate the same region, whose
                    # minimal generators may still differ
                    assert combo._hull_facets == total._hull_facets
                    assert covolume(combo) == covolume(total)

    def test_d2_bridge_to_mixed_height(self):
        rng = random.Random(9)
        checked = 0
        while checked < 100:
            extra = (rng.randint(0, 4), rng.randint(0, 4))
            pts = {(0, rng.randint(1, 5)), (rng.randint(1, 5), 0)}
            if extra != (0, 0):
                pts.add(extra)
            p = from_support(pts)
            q = from_support({(0, rng.randint(1, 5)), (rng.randint(1, 5), 0)})
            np_, nq = NewtonPolyhedron(2, p.vertices()), NewtonPolyhedron(2, q.vertices())
            assert 2 * mixed_covolume([np_, nq], MixedVolumeIndex((1, 1))) == mixed_height(p, q)
            checked += 1


class TestFaceIdentity:
    def test_right_triangle(self):
        lhs, rhs = face_identity_check(from_support_d(2, [(0, 1), (2, 0)]))
        assert lhs == rhs == 2

    def test_unit_simplex_3d(self):
        lhs, rhs = face_identity_check(from_support_d(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]))
        assert lhs == rhs == Fraction(1, 2)

    def test_random_polyhedra(self):
        rng = random.Random(17)
        for _ in range(50):
            d = rng.choice([2, 3])
            n = random_finite_polyhedron(rng, d)
            lhs, rhs = face_identity_check(n)
            assert lhs == rhs

    def test_d4(self):
        n = from_support_d(4, [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2),
                               (1, 1, 1, 1)])
        lhs, rhs = face_identity_check(n)
        assert lhs == rhs


class TestMultiplicity:
    def test_x2_y3(self):
        assert monomial_multiplicity(from_support_d(2, [(2, 0), (0, 3)])) == 6

    def test_m2_cube(self):
        assert monomial_multiplicity(from_support_d(3, M2_D3)) == 8

    def test_maximal_ideal(self):
        assert monomial_multiplicity(from_support_d(2, [(1, 0), (0, 1)])) == 1

    def test_colength_oracle_values(self):
        assert colength_growth_oracle(2, [(2, 0), (0, 3)], 30) == 6
        assert colength_growth_oracle(3, M2_D3, 8) == 8
        assert colength_growth_oracle(2, [(1, 0), (0, 1)], 8) == 1

    def test_oracle_matches_volume(self):
        rng = random.Random(23)
        for _ in range(8):
            d = rng.choice([2, 3])
            n = random_finite_polyhedron(rng, d)
            kmax = 12 if d == 2 else 8
            assert monomial_multiplicity(n) == colength_growth_oracle(d, n.generators, kmax)

    def test_oracle_kmax_too_small(self):
        with pytest.raises(ValueError):
            colength_growth_oracle(2, [(2, 0), (0, 3)], 3)


class TestJson:
    def test_round_trip(self):
        n = from_support_d(3, M2_D3)
        assert NewtonPolyhedron.from_json_dict(n.to_json_dict()) == n

    @pytest.mark.parametrize("data", [
        {"dim": 2, "generators": [[2, 0], [0, 2]]},
        {"dim": 2, "generators": [[1, 0]]},
        {"dim": 4, "generators": [[0, 0, 0, 0]]},
        {"dim": 2, "generators": [[2, 0], [0, 2]], "extra": 1},
        {"dim": 2},
        {"generators": [[2, 0], [0, 2]]},
        {},
        [],
        {"dim": 0, "generators": [[]]},
        {"dim": 5, "generators": [[1, 0, 0, 0, 0]]},
        {"dim": 2, "generators": []},
        {"dim": 2, "generators": [[-1, 0], [0, 2]]},
        {"dim": 2, "generators": [[1.5, 0], [0, 2]]},
        {"dim": True, "generators": [[1]]},
        {"dim": "2", "generators": [[2, 0], [0, 2]]},
        {"dim": 2, "generators": [[2, 0], "0 2"]},
        {"dim": 1, "generators": [[3]]},
        {"dim": 1, "generators": [[3], [1, 1]]},
        {"dim": 2, "generators": [[1, 0, 0]]},
        {"dim": 3, "generators": [[2, 0, 0], [0, 2]]},
        {"dim": 4, "generators": [[1, 0, 0, 0], [0, 1, 0, 0, 0]]},
        {"dim": 4, "generators": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]},
    ])
    def test_reader_refuses_what_the_schema_refuses(self, data):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads((Path(__file__).parent.parent / "docs"
                             / "polyhedron.schema.json").read_text())
        try:
            jsonschema.validate(data, schema)
            valid = True
        except jsonschema.ValidationError:
            valid = False
        try:
            NewtonPolyhedron.from_json_dict(data)
            read = True
        except (ValueError, DomainError):
            read = False
        assert read == valid

    # an unknown key is named before a missing one, and "dim" before "generators"
    @pytest.mark.parametrize("data, key", [
        ({"dim": 2, "generators": [[2, 0], [0, 2]], "extra": 1}, "unknown key 'extra'"),
        ({"dim": 2}, "missing key 'generators'"),
        ({"generators": [[2, 0], [0, 2]]}, "missing key 'dim'"),
        ({}, "missing key 'dim'"),
        ({"extra": 1}, "unknown key 'extra'"),
        ({"dim": 2, "b": 1, "a": 2}, "unknown key 'b'"),
    ])
    def test_unknown_or_missing_keys_are_named(self, data, key):
        with pytest.raises(ValueError) as raised:
            NewtonPolyhedron.from_json_dict(data)
        assert str(raised.value) == f"{key} in a polyhedron"


def _facets_reference(points):
    """The unpruned facet enumerator, the reference for ``_facets``: every
    d-subset is tested against every point, and a known hyperplane is
    caught only after its normal is computed."""
    d = len(points[0])
    found = {}
    for subset in itertools.combinations(points, d):
        normal = _cofactors(subset)
        g = math.gcd(*normal)
        if not g:
            continue
        normal = tuple(c // g for c in normal)
        off = _dot(normal, subset[0])
        flipped = (tuple(-c for c in normal), -off)
        if (normal, off) in found or flipped in found:
            continue
        values = [_dot(normal, p) for p in points]
        above = any(v > off for v in values)
        below = any(v < off for v in values)
        if above and below:
            continue
        on = tuple(p for p, v in zip(points, values) if v == off)
        if not below:
            found[(normal, off)] = on
        if not above:
            found[flipped] = on
    return [(normal, off, on) for (normal, off), on in sorted(found.items())]


def _all_sums(polys, lams):
    """Every sum of lam_i * g_i over one generator g_i of each N_i with
    lam_i > 0, the boundary ones or not, as a set."""
    d = polys[0].dim
    weights = [lam for lam in lams if lam > 0]
    choices = itertools.product(*(n.generators for n, lam in zip(polys, lams) if lam > 0))
    return {tuple(sum(lam * g[i] for lam, g in zip(weights, choice)) for i in range(d))
            for choice in choices}


def _random_combo(rng, d):
    """lam_1 N + lam_2 (2N) from all generator sums: many generators on few
    hyperplanes."""
    n = random_finite_polyhedron(rng, d)
    lam = (rng.randint(1, 2), rng.randint(1, 2))
    return _combination_reference([n, scale_d(n, 2)], lam)


def _random_point_sets(d):
    """Seeded point sets of d + 1 to 9 draws with entries at most 4."""
    rng = random.Random(41 + d)
    for _ in range(40 if d < 4 else 15):
        pts = list({tuple(rng.randint(0, 4) for _ in range(d))
                    for _ in range(rng.randint(d + 1, 9))})
        rng.shuffle(pts)
        yield pts


def _antichain(rng, d, extras, hi=4):
    """A support of d axis powers and ``extras`` more points, no point
    dominating another."""
    while True:
        gens = {tuple(rng.randint(hi - 1, hi) if i == a else 0 for i in range(d))
                for a in range(d)}
        while len(gens) < d + extras:
            gens.add(tuple(rng.randint(0, hi - 1) for _ in range(d)))
        gens = sorted(gens)
        if len(_minimal_reference(gens)) == len(gens):
            return gens


def _generator_sums(rng, d, extras, low, high):
    """Shuffled generator sums of two seeded supports, all of them, the
    dominated ones included, with between low and high points."""
    while True:
        pair = [NewtonPolyhedron(d, _antichain(rng, d, extras)) for _ in range(2)]
        pts = sorted(_all_sums(pair, (1, 1)))
        if low <= len(pts) <= high:
            rng.shuffle(pts)
            return pts


class TestFacetEnumerator:
    """The pruned enumerator returns the reference's lists: normals,
    offsets, on-points and their order."""

    def test_d3_generator_sums(self):
        # many points on few hyperplanes, so most subsets are skipped by
        # their masks
        rng = random.Random(94)
        for _ in range(8):
            pts = _generator_sums(rng, 3, 1, 12, 16)
            assert _facets(pts) == _facets_reference(pts)

    def test_d4_generator_sums_of_d_plus_2_generators(self):
        # up to 36 points: C(36, 4) = 58,905 subsets
        rng = random.Random(95)
        for _ in range(3):
            pts = _generator_sums(rng, 4, 2, 30, 36)
            assert _facets(pts) == _facets_reference(pts)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_random_point_sets(self, d):
        for pts in _random_point_sets(d):
            assert _facets(pts) == _facets_reference(pts)

    @pytest.mark.parametrize("d", [3, 4])
    def test_combination_generators(self, d):
        rng = random.Random(53 + d)
        for _ in range(6 if d == 3 else 3):
            combo = _random_combo(rng, d)
            pts = list(combo.generators)
            assert _facets(pts) == _facets_reference(pts)
            assert covolume(combo) == _box_hull_covolume(combo)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_all_points_on_one_hyperplane(self, d):
        pts = [p for p in itertools.product(range(3), repeat=d) if sum(p) == 2]
        facets = _facets(pts)
        assert facets == _facets_reference(pts)
        ones = (1,) * d
        assert [(normal, off) for normal, off, _ in facets] == [
            (tuple(-c for c in ones), -2), (ones, 2)]

    @pytest.mark.parametrize("points", [
        # every lattice point of a cube: points inside facets and on edges
        list(itertools.product(range(3), repeat=3)),
        # a pyramid over 3 * simplex with the lattice points of its base
        [(0, 0, 0)] + [p for p in itertools.product(range(4), repeat=3) if sum(p) == 3],
        # d = 4: lattice points of the facet sum = 3, on its 2-faces and
        # edges, with the origin and midpoints of the axis edges
        [(0,) * 4] + [p for p in itertools.product(range(4), repeat=4) if sum(p) in (1, 3)],
    ], ids=["cube-d3", "pyramid-d3", "simplex-d4"])
    def test_lattice_points_on_facets_and_edges(self, points):
        rng = random.Random(len(points))
        rng.shuffle(points)
        assert _facets(points) == _facets_reference(points)


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _on_segment(p, a, b):
    return _cross(a, b, p) == 0 and min(a, b) <= p <= max(a, b)


def _in_triangle(p, a, b, c):
    signs = {(v > 0) - (v < 0) for v in (_cross(a, b, p), _cross(b, c, p), _cross(c, a, p))}
    return _cross(a, b, c) != 0 and not {1, -1} <= signs


def _hull_vertices_reference(points):
    """The points outside the hull of the others: in the plane a point of
    that hull lies in a triangle of three others or on a segment of two."""
    pts = set(points)
    return {
        p for p in pts
        if not any(_on_segment(p, a, b) for a, b in itertools.combinations(pts - {p}, 2))
        and not any(_in_triangle(p, *t) for t in itertools.combinations(pts - {p}, 3))
    }


class TestRing2d:
    """``_ring_2d`` keeps exactly the hull vertices, counterclockwise from
    the lexicographically least one."""

    def test_seeded_sets_with_collinear_and_repeated_points(self):
        rng = random.Random(29)
        rings = 0
        for _ in range(300):
            # a 5 x 5 grid makes collinear triples and repeats common
            pts = [(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(rng.randint(1, 10))]
            ring = _ring_2d(pts)
            assert len(set(ring)) == len(ring)
            assert set(ring) == _hull_vertices_reference(pts)
            assert ring[0] == min(pts)
            if len(ring) >= 3:
                rings += 1
                # each step is a hull edge with every point on its left or on it
                for a, b in zip(ring, ring[1:] + ring[:1]):
                    assert all(_cross(a, b, p) >= 0 for p in pts)
        assert rings > 200

    def test_collinear_points_keep_their_ends(self):
        assert _ring_2d([(0, 0), (2, 2), (1, 1), (3, 3), (1, 1)]) == [(0, 0), (3, 3)]
        assert _ring_2d([(1, 2), (1, 2)]) == [(1, 2)]

    def test_square_with_edge_midpoints(self):
        pts = [(0, 0), (1, 0), (2, 0), (2, 1), (2, 2), (1, 2), (0, 2), (0, 1), (1, 1)]
        assert _ring_2d(pts) == [(0, 0), (2, 0), (2, 2), (0, 2)]


def _minimal_reference(points):
    """The all-pairs minimal filter, the reference for ``_minimal``: each
    point is compared with every point before it, dropped or kept."""
    return tuple(
        g for k, g in enumerate(points)
        if not any(all(hc <= gc for hc, gc in zip(h, g)) for h in points[:k])
    )


class TestMinimal:
    """``_minimal`` compares each point with the kept points only, and
    returns the reference's points in their order."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_chains_of_dominated_points(self, d):
        rng = random.Random(61 + d)
        for _ in range(30):
            pts = {tuple(rng.randint(0, 5) for _ in range(d)) for _ in range(rng.randint(1, 6))}
            for start in list(pts):
                point = list(start)
                for _ in range(rng.randint(1, 4)):  # each link dominated by the last
                    point[rng.randrange(d)] += rng.randint(1, 2)
                    pts.add(tuple(point))
            pts = sorted(pts)  # duplicates removed as the constructor removes them
            assert _minimal(pts) == _minimal_reference(pts)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_generator_sums_of_two_supports(self, d):
        rng = random.Random(67 + d)
        for _ in range(20):
            pair = [random_finite_polyhedron(rng, d) for _ in range(2)]
            lam = (rng.randint(1, 3), rng.randint(1, 3))
            pts = sorted(_all_sums(pair, lam))
            assert _minimal(pts) == _minimal_reference(pts)
            assert _minimal(sorted(_combo_points(pair, lam))) == _combo(pair, lam).generators

    def test_keeps_the_order_of_the_list(self):
        pts = [(0, 3), (1, 1), (1, 2), (2, 0), (2, 2), (3, 0)]
        assert _minimal(pts) == ((0, 3), (1, 1), (2, 0))


def _ipow(lam, exp) -> int:
    return math.prod(base ** e for base, e in zip(lam, exp))


def _solve_exact(matrix, rhs):
    """Gauss-Jordan elimination over Fractions; the matrix is square and
    invertible."""
    n = len(matrix)
    a = [list(map(Fraction, row)) + [Fraction(v)] for row, v in zip(matrix, rhs)]
    for col in range(n):
        pivot = next(i for i in range(col, n) if a[i][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        a[col] = [v / a[col][col] for v in a[col]]
        for i in range(n):
            if i != col and a[i][col] != 0:
                f = a[i][col]
                a[i] = [v - f * w for v, w in zip(a[i], a[col])]
    return [row[n] for row in a]


def _combination_reference(polys, lams):
    """sum lam_i * N_i from all generator sums, through the public
    ``scale_d`` and ``sum_d``; scale_d(N, 0) is the orthant, sum_d's zero."""
    total = scale_d(polys[0], lams[0])
    for n, lam in zip(polys[1:], lams[1:]):
        total = sum_d(total, scale_d(n, lam))
    return total


def _mixed_covolume_reference(polys, alpha):
    """The interpolation reference for ``mixed_covolume``: every node
    (beta, 1), |beta| <= d, of the principal lattice builds its combination
    from all generator sums and takes its covolume, and the Vandermonde-type
    system for all the degree-d coefficients of Vol(sum lambda_i N_i) is
    solved in Fractions."""
    d, r = polys[0].dim, len(polys)
    exponents = [e for e in itertools.product(range(d + 1), repeat=r) if sum(e) == d]
    nodes = [tuple(beta) + (1,) for beta in itertools.product(range(d + 1), repeat=r - 1)
             if sum(beta) <= d]
    assert len(nodes) == len(exponents)
    matrix = [[_ipow(lam, e) for e in exponents] for lam in nodes]
    coeffs = _solve_exact(matrix, [covolume(_combination_reference(polys, lam))
                                   for lam in nodes])
    scale_back = math.prod(math.factorial(a) for a in alpha)
    return coeffs[exponents.index(tuple(alpha))] * scale_back / math.factorial(d)


def _small_polyhedron(rng, d):
    """Axis powers and at most one more generator, which may be the origin."""
    gens = {tuple(rng.randint(1, 3) if i == a else 0 for i in range(d)) for a in range(d)}
    if rng.random() < 0.7:
        gens.add(tuple(rng.randint(0, 2) for _ in range(d)))
    return NewtonPolyhedron(d, gens)


class TestFanReuse:
    """``mixed_covolume`` reuses one normal fan per support pattern and
    builds nothing for single-operand nodes; it must give the interpolation
    reference's values."""

    @pytest.mark.parametrize("d,r,count", [(2, 1, 4), (2, 2, 12), (2, 3, 6), (3, 1, 3),
                                           (3, 2, 8), (3, 3, 3), (4, 1, 2), (4, 2, 3),
                                           (4, 3, 1)])
    def test_matches_the_per_node_reference(self, d, r, count):
        rng = random.Random(71 + 10 * d + r)
        origin = NewtonPolyhedron(d, [(0,) * d])
        alphas = [a for a in itertools.product(range(d + 1), repeat=r) if sum(a) == d]
        for k in range(count):
            make = _small_polyhedron if d == 4 else random_finite_polyhedron
            polys = [make(rng, d) for _ in range(r)]
            if k == 0:  # an operand at the origin: the orthant, covolume 0
                polys[-1] = origin
            for alpha in alphas:
                index = MixedVolumeIndex(alpha)
                assert mixed_covolume(polys, index) == _mixed_covolume_reference(polys, alpha)

    def test_single_operand_node_is_homogeneous(self):
        # mixed_covolume's such nodes are j_i e_i with 1 <= j_i <= alpha_i
        rng = random.Random(79)
        polys = [random_finite_polyhedron(rng, 3) for _ in range(3)]
        fans = {}
        for lams in [(0, 3, 0), (2, 0, 0), (0, 0, 4)]:
            i = next(k for k, lam in enumerate(lams) if lam)
            assert _node_covolume(polys, lams, fans) == lams[i] ** 3 * covolume(polys[i])
            assert _node_covolume(polys, lams, fans) == covolume(_combo(polys, lams))
        assert fans == {}

    def test_builds_only_inside_the_support_of_the_index(self, monkeypatch):
        rng = random.Random(83)
        polys = [random_finite_polyhedron(rng, 3) for _ in range(3)]
        builds = []

        def counting(operands, lams):
            builds.append(tuple(lams))
            return _combo(operands, lams)

        monkeypatch.setattr(polyhedra, "_combo", counting)
        assert mixed_covolume(polys, MixedVolumeIndex((3, 0, 0))) == covolume(polys[0])
        assert builds == []
        value = mixed_covolume(polys, MixedVolumeIndex((1, 2, 0)))
        assert builds == [(1, 1, 0)]
        assert value == _mixed_covolume_reference(polys, (1, 2, 0))

    def test_certificate_rejects_normals_of_another_fan(self):
        n1 = from_support_d(3, [(2, 0, 0), (0, 2, 0), (0, 0, 2)])
        n2 = from_support_d(3, [(3, 0, 0), (0, 1, 0), (0, 0, 1)])
        total = sum_d(n1, n2)
        sum_normals = [normal for normal, _, _ in total._hull_facets]
        assert _fan_covolume(total.generators, sum_normals) == covolume(total)
        # (1, 3, 3), a normal of the sum, meets N_1 in one vertex
        with pytest.raises(ArithmeticError):
            _fan_covolume(n1.generators, sum_normals)
        # every facet normal of N_1 is one of N_1 + N_2, so N_1's normals pass
        # the certificate on the sum; completeness is the fan's to give
        n1_normals = [normal for normal, _, _ in n1._hull_facets]
        assert _fan_covolume(total.generators, n1_normals) < covolume(total)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_d_point_facet_is_its_own_simplex(self, d):
        on = tuple(tuple(2 if i == a else 0 for i in range(d)) for a in range(d))
        assert _facet_triangulation(on, (1,) * d) == [on]

    def test_d4_point_sets_match_the_box_hull_oracle(self):
        axes = [tuple(5 if i == a else 0 for i in range(4)) for a in range(4)]
        for pts in _random_point_sets(4):
            n = from_support_d(4, pts + axes)
            assert covolume(n) == _box_hull_covolume(n)
        lattice = [(0,) * 4] + [p for p in itertools.product(range(4), repeat=4)
                                if sum(p) in (1, 3)]
        n = from_support_d(4, lattice)
        assert covolume(n) == _box_hull_covolume(n) == 0
        n = from_support_d(4, [p for p in lattice if sum(p) == 3])
        assert covolume(n) == _box_hull_covolume(n) == Fraction(27, 8)  # 3^4 / 4!

    def test_pinned_d4_pair(self):
        # d + 2 generators each, distinct fans; the value is the interpolation
        # reference's
        n = from_support_d(4, [(4, 0, 0, 0), (0, 3, 0, 0), (0, 0, 4, 0), (0, 0, 0, 3),
                               (1, 2, 0, 1), (0, 1, 2, 1)])
        m = from_support_d(4, [(3, 0, 0, 0), (0, 4, 0, 0), (0, 0, 3, 0), (0, 0, 0, 4),
                               (2, 0, 1, 1), (1, 1, 1, 0)])
        assert mixed_covolume([n, m], MixedVolumeIndex((2, 2))) == Fraction(27, 8)


def _boundary_operand(rng, d):
    """Axis powers 2k, random points and, at d >= 2, either the midpoint of
    two axis powers, on an edge of their simplex, or a minimal point
    strictly above that simplex; a random point may cut below either."""
    k = rng.randint(2, 3)
    gens = {tuple(2 * k if i == a else 0 for i in range(d)) for a in range(d)}
    if d >= 2 and rng.random() < 0.5:
        pair = rng.sample(range(d), 2)
        gens.add(tuple(k if i in pair else 0 for i in range(d)))
    elif d >= 2:
        gens.add(tuple(2 * k - 1 if i < max(2, d - 1) else 0 for i in range(d)))
    for _ in range(rng.randint(0, 2)):
        gens.add(tuple(rng.randint(0, 2 * k) for _ in range(d)))
    return NewtonPolyhedron(d, gens)


class TestBoundaryRule:
    """``_combo`` sums only the operands' boundary generators, and keeps the
    region, compact facets and on-points of the combination of all
    generator sums."""

    @pytest.mark.parametrize("d,count", [(1, 20), (2, 60), (3, 40), (4, 10)])
    def test_combination_keeps_the_facets_of_all_sums(self, d, count):
        rng = random.Random(89 + d)
        origin = NewtonPolyhedron(d, [(0,) * d])
        above = on_facet = dropped = 0
        for k in range(count):
            r = 2 if d == 4 else rng.choice([2, 3])
            polys = [_boundary_operand(rng, d) for _ in range(r)]
            if k % 5 == 0:  # an operand at the origin, the orthant: no compact facet
                polys[rng.randrange(len(polys))] = origin
            lams = (0,) * len(polys)
            while not any(lams):
                lams = tuple(rng.randint(0, 2) for _ in polys)
            combo, full = _combo(polys, lams), _combination_reference(polys, lams)
            assert combo._hull_facets == full._hull_facets
            assert covolume(combo) == covolume(full)
            for n in polys:
                on = {p for _, _, pts in n._hull_facets for p in pts}
                above += bool(on) and any(g not in on for g in n.generators)
                # the axis midpoint, on a facet and no vertex of it
                on_facet += any(sum(map(bool, g)) == 2 and len(set(g) - {0}) == 1
                                and max(g) * 2 == n.max_coordinate for g in on)
            dropped += len(_combo_points(polys, lams)) < len(_all_sums(polys, lams))
        if d > 1:
            assert above > 0 and on_facet > 0 and dropped > 0

    def test_orthant_operand_keeps_the_boundary_generators(self):
        origin = NewtonPolyhedron(3, [(0, 0, 0)])
        n = from_support_d(3, [(2, 0, 0), (0, 2, 0), (0, 0, 2), (2, 2, 2)])
        assert origin._hull_facets == ()
        assert _combo([n, origin], (1, 1)) == from_support_d(3, n.generators[:3])
        assert covolume(_combo([n, origin], (1, 1))) == covolume(n)


class TestChainFacets:
    """At d = 2 the compact facets are read off the convex chain, as the
    enumerator lists them: normals, offsets, on-points and their order."""

    def test_matches_the_enumerator_on_collinear_supports(self):
        rng = random.Random(97)
        collinear = 0
        for _ in range(300):
            if rng.random() < 0.6:  # the lattice points of a segment from axis to axis
                a, b, t = rng.randint(1, 3), rng.randint(1, 3), rng.randint(2, 4)
                gens = {(a * s, b * (t - s)) for s in range(t + 1)}
                extras = rng.randint(0, 2)
            else:
                gens = {(rng.randint(1, 9), 0), (0, rng.randint(1, 9))}
                extras = rng.randint(0, 6)
            gens |= {(rng.randint(0, 8), rng.randint(0, 8)) for _ in range(extras)}
            n = NewtonPolyhedron(2, gens)
            expected = tuple(f for f in _facets(n.generators) if all(c > 0 for c in f[0]))
            assert n._hull_facets == expected
            collinear += any(len(on) > 2 for _, _, on in expected)
        assert collinear > 100

    def test_runs_no_enumerator(self, monkeypatch):
        def refuse(points):
            raise AssertionError("_facets ran at d = 2")

        monkeypatch.setattr(polyhedra, "_facets", refuse)
        n = from_support_d(2, [(0, 6), (1, 4), (2, 2), (3, 1), (5, 0), (4, 4)])
        assert n._hull_facets == (((1, 1), 4, ((2, 2), (3, 1))),
                                  ((1, 2), 5, ((3, 1), (5, 0))),
                                  ((2, 1), 6, ((0, 6), (1, 4), (2, 2))))
        assert covolume(n) == Fraction(21, 2)
        assert from_support_d(2, [(0, 0), (3, 3)])._hull_facets == ()


def _oracle_cofactors(points):
    """Signed first-row cofactors of (p_0; p_1 - p_0; ...), minor by minor
    through the oracle's Bareiss determinant."""
    d = len(points[0])
    rows = [[a - b for a, b in zip(p, points[0])] for p in points[1:]]
    return tuple(
        (-1) ** j * (_oracle_det([r[:j] + r[j + 1:] for r in rows]) if rows else 1)
        for j in range(d)
    )


class TestCofactors:
    """The closed-form kernel against minors taken by ``verify._det``."""

    def _check(self, points):
        n = _cofactors(points)
        assert n == _oracle_cofactors(points)
        assert abs(_dot(n, points[0])) == abs(_oracle_det(points))
        # affinely dependent iff the differences p_i - p_0 have rank < d - 1
        diffs = sympy.Matrix([[a - b for a, b in zip(p, points[0])] for p in points[1:]])
        assert (n == (0,) * len(n)) == (diffs.rank() < len(points) - 1)

    def test_one_point_has_the_empty_minor(self):
        for p in [(0,), (3,), (-2,)]:
            assert _cofactors([p]) == (1,)
            self._check([p])

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_the_oracle(self, n):
        rng = random.Random(61 + n)
        for _ in range(60):
            rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            kind = rng.randrange(3)
            if kind == 1 and n > 1:  # affinely dependent: a repeated point
                rows[rng.randrange(1, n)] = list(rows[0])
            elif kind == 2 and n > 1:  # the first pivot is zero
                rows[0][0] = 0
            self._check([tuple(r) for r in rows])

    def test_pivot_swap_and_singular_cases(self):
        cases = [
            [[0, 1], [1, 0]],
            [[0, 2, 1], [3, 0, 1], [1, 1, 0]],
            [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
            [[1, 2, 3], [2, 4, 6], [0, 1, 1]],
            [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]],
            [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 2], [3, 1, 4, 1]],
            [[1, 2, 3], [2, 3, 4], [3, 4, 5]],  # collinear, det 0
            [[1, 0, 0, 0], [2, 1, 0, 0], [3, 2, 0, 0], [0, 0, 1, 1]],  # rank 2
        ]
        for rows in cases:
            self._check([tuple(r) for r in rows])
