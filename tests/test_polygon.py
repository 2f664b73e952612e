import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newtonpoly import polygon as pg
from newtonpoly.errors import DomainError, EmptySupport, NotFiniteVolume, ZeroDimension
from newtonpoly.polygon import (
    EMPTY,
    INF,
    ElementaryPolygon,
    NewtonPolygon,
    boundary_at,
    canonical_decomposition,
    covolume2,
    dominates,
    from_support,
    make_elementary,
    polygon_sum,
    scale,
    transpose,
)
from newtonpoly.invariants import (
    JacobianPolygon,
    briancon_speder_polygons,
    dual_degree,
    validate_semigroup,
)
from newtonpoly.polyhedra import MixedVolumeIndex, NewtonPolyhedron, scale_d
from newtonpoly.product import product, product_elementary

from strategies import elementary, finite_polygons, polygons


class TestElementary:
    def test_basic(self):
        p = make_elementary(2, 1)
        assert p.vertices() == [(0, 1), (2, 0)]

    def test_vertical_ray(self):
        p = make_elementary(1, INF)
        assert p.length() == 1
        assert p.height() == INF
        assert p.x_offset == 0

    def test_zero_dimension(self):
        with pytest.raises(ZeroDimension):
            make_elementary(0, 3)
        with pytest.raises(ZeroDimension):
            make_elementary(3, 0)

    def test_both_infinite(self):
        from newtonpoly.errors import BothInfinite

        with pytest.raises(BothInfinite):
            ElementaryPolygon(INF, INF)

    def test_extents_off_the_plain_int_path(self):
        # values that are not two positive plain ints keep the checked path,
        # which takes what int() keeps exactly and returns a plain int
        assert type(ElementaryPolygon(True, 2).ell) is int
        assert ElementaryPolygon(INF, 2).ell == INF
        with pytest.raises(ZeroDimension):
            ElementaryPolygon(2, False)
        with pytest.raises(ZeroDimension):
            ElementaryPolygon(-1, 2)
        with pytest.raises(ValueError, match="not an integer"):
            ElementaryPolygon(2, 1.5)
        with pytest.raises(ValueError, match="not an integer"):
            ElementaryPolygon("2", 1)

    def test_slopes(self):
        assert ElementaryPolygon(2, 1).slope == Fraction(1, 2)
        assert ElementaryPolygon(1, INF).slope == INF
        assert ElementaryPolygon(INF, 3).slope == Fraction(0)


def _flat(pairs):
    return tuple(n for pair in pairs for n in pair)


PLAIN = (True, 2.0, Fraction(4, 2))

# (name, a function of one integer-valued argument returning the integers
# it produced, the integral values of other types to try)
INTEGER_TAKERS = [
    ("ElementaryPolygon", lambda v: (ElementaryPolygon(v, 1).ell,), PLAIN),
    ("NewtonPolygon offsets",
     lambda v: (NewtonPolygon(v, 0).x_offset, NewtonPolygon(0, v).y_offset), PLAIN),
    ("from_support", lambda v: _flat((e.ell, e.h) for e in from_support([(v, 0), (0, v)]).edges),
     PLAIN),
    ("scale", lambda v: _flat((e.ell, e.h) for e in scale(make_elementary(2, 2), v).edges), PLAIN),
    ("NewtonPolyhedron", lambda v: _flat(NewtonPolyhedron(2, [(v, 0), (0, v)]).generators), PLAIN),
    ("MixedVolumeIndex", lambda v: MixedVolumeIndex((v, 1)).alpha, PLAIN),
    ("scale_d", lambda v: _flat(scale_d(NewtonPolyhedron(2, [(1, 0), (0, 1)]), v).generators),
     PLAIN),
    ("JacobianPolygon", lambda v: _flat(JacobianPolygon(((3, v),)).pairs), PLAIN),
    ("validate_semigroup", lambda v: validate_semigroup([2, v]).generators,
     (3.0, Fraction(6, 2))),
    ("dual_degree d", lambda v: (dual_degree(v, 2, []),), (3.0, Fraction(6, 2))),
    ("dual_degree n", lambda v: (dual_degree(3, v, []),), (2.0, Fraction(4, 2))),
    ("dual_degree mu", lambda v: (dual_degree(3, 2, [(v, v)]),), PLAIN),
    ("briancon_speder_polygons", lambda v: _flat(briancon_speder_polygons(v)[1].pairs),
     (4.0, Fraction(8, 2))),
]


class TestIntegerRule:
    """Every integer a public constructor or function takes is read by one
    rule: a value that int() keeps exactly, returned as a plain int."""

    @pytest.mark.parametrize("make, value", [
        pytest.param(make, value, id=f"{name}-{value!r}")
        for name, make, values in INTEGER_TAKERS for value in values
    ])
    def test_integral_values_come_back_as_plain_ints(self, make, value):
        got = make(value)
        assert got == make(int(value)) and all(type(n) is int for n in got)

    # an extent of an elementary polygon may be INF
    @pytest.mark.parametrize("make, value", [
        pytest.param(make, value, id=f"{name}-{value!r}")
        for name, make, _ in INTEGER_TAKERS for value in (1.5, "3", INF)
        if not (name == "ElementaryPolygon" and value == INF)
    ])
    def test_other_values_are_refused(self, make, value):
        with pytest.raises(ValueError, match="is not an integer"):
            make(value)

    def test_truncating_values_are_refused(self):
        # each of these was truncated or carried along as it was
        with pytest.raises(ValueError):
            from_support([(1.5, 0), (0, 2.7)])
        with pytest.raises(ValueError):
            validate_semigroup([4, 6.9, 13])
        with pytest.raises(ValueError):
            NewtonPolygon(1.5, 0, (ElementaryPolygon(1, 1),))
        with pytest.raises(ValueError):
            dual_degree(3.5, 2, [])
        with pytest.raises(ValueError):
            scale(make_elementary(2, 2), 1.5)
        assert repr(ElementaryPolygon(True, 1)) == "{1/1}"


class TestSum:
    def test_distinct_slopes_concatenate(self):
        s = polygon_sum(make_elementary(2, 1), make_elementary(3, 2))
        assert canonical_decomposition(s) == [ElementaryPolygon(3, 2), ElementaryPolygon(2, 1)]

    def test_same_slope_merges(self):
        s = polygon_sum(make_elementary(1, 1), make_elementary(2, 2))
        assert canonical_decomposition(s) == [ElementaryPolygon(3, 3)]

    def test_vertical_ray_shift(self):
        s = polygon_sum(make_elementary(2, 1), make_elementary(3, INF))
        assert s.length() == 5
        assert s.height() == INF
        assert boundary_at(s, 2) == INF
        assert boundary_at(s, 3) == 1
        assert boundary_at(s, 5) == 0

    def test_identity(self):
        p = polygon_sum(make_elementary(2, 1), make_elementary(1, 2))
        assert polygon_sum(p, EMPTY) == p


class TestCanonicalDecomposition:
    def test_two_edge_chain(self):
        p = from_support({(0, 3), (1, 1), (3, 0)})
        assert canonical_decomposition(p) == [ElementaryPolygon(1, 2), ElementaryPolygon(2, 1)]

    def test_not_split(self):
        assert canonical_decomposition(make_elementary(4, 2)) == [ElementaryPolygon(4, 2)]

    def test_empty_rejected(self):
        with pytest.raises(NotFiniteVolume):
            canonical_decomposition(EMPTY)

    @given(finite_polygons())
    def test_round_trip(self, p):
        total = EMPTY
        for e in canonical_decomposition(p):
            total = polygon_sum(total, NewtonPolygon(edges=(e,)))
        assert total == p


class TestFromSupport:
    def test_two_point_hull(self):
        assert from_support({(0, 2), (3, 0)}) == make_elementary(3, 2)

    def test_mid_vertex(self):
        p = from_support({(0, 2), (1, 1), (3, 0)})
        assert canonical_decomposition(p) == [ElementaryPolygon(1, 1), ElementaryPolygon(2, 1)]

    def test_single_monomial(self):
        p = from_support({(1, 1)})
        assert p == NewtonPolygon(1, 1, ())

    def test_empty(self):
        with pytest.raises(EmptySupport):
            from_support(set())

    def test_collinear_points_merge(self):
        p = from_support({(0, 2), (1, 1), (2, 0)})
        assert canonical_decomposition(p) == [ElementaryPolygon(2, 2)]

    @given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=1, max_size=10))
    def test_permutation_invariance(self, pts):
        assert from_support(pts) == from_support(list(reversed(pts)))

    @given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=1, max_size=12))
    def test_matches_brute_force_pareto_filter(self, pts):
        minimal = sorted(
            p for p in set(pts)
            if not any(q != p and q[0] <= p[0] and q[1] <= p[1] for q in pts)
        )
        poly = from_support(pts)
        corners = poly.vertices()
        # the corners are Pareto-minimal points, the outermost two among them,
        # and every Pareto-minimal point lies in the region
        assert corners[0] == minimal[0] and corners[-1] == minimal[-1]
        assert set(corners) <= set(minimal)
        assert all(boundary_at(poly, x) <= y for x, y in minimal)


class TestMeasurements:
    def test_length_height_sums(self):
        p = polygon_sum(make_elementary(1, 2), make_elementary(2, 1))
        assert p.length() == 3
        assert p.height() == 3

    def test_briancon_speder_measurements(self):
        beta = 4
        p = polygon_sum(
            make_elementary(2 * beta, 2),
            make_elementary(2 * beta * (2 * beta - 2), 2 * beta - 2),
        )
        assert p.length() == 56
        assert p.height() == 8

    @given(polygons(offsets=True), polygons(offsets=True))
    def test_length_additive(self, p, q):
        s = polygon_sum(p, q)
        assert s.length() == p.length() + q.length()
        assert s.height() == p.height() + q.height()


class TestBoundary:
    def test_linear_interpolation(self):
        assert boundary_at(make_elementary(2, 1), 1) == Fraction(1, 2)

    def test_beyond_length(self):
        assert boundary_at(make_elementary(2, 1), 5) == 0

    def test_vertex_chain(self):
        p = polygon_sum(make_elementary(8, 2), make_elementary(48, 6))
        assert [v for v in p.vertices()] == [(0, 8), (8, 6), (56, 0)]
        assert boundary_at(p, 8) == 6

    def test_left_of_vertical_ray(self):
        p = NewtonPolygon(2, 0, (ElementaryPolygon(1, 1),))
        assert boundary_at(p, 1) == INF
        assert boundary_at(p, 2) == 1


class TestCorners:
    @given(polygons(offsets=True))
    def test_equal_the_vertices_of_finite_polygons(self, p):
        assert pg._corners(*pg._wall_floor_chain(p)) == p.vertices()

    def test_start_at_the_wall_and_end_on_the_floor(self):
        p = NewtonPolygon(1, 1, (
            ElementaryPolygon(2, INF), ElementaryPolygon(3, 1), ElementaryPolygon(INF, 2),
        ))
        assert pg._wall_floor_chain(p) == (3, 3, [ElementaryPolygon(3, 1)])
        assert pg._corners(3, 3, [ElementaryPolygon(3, 1)]) == [(3, 4), (6, 3)]

    @given(polygons(offsets=True, allow_infinite=True))
    def test_walk_down_from_the_wall_to_the_floor(self, p):
        wall, floor, chain = pg._wall_floor_chain(p)
        corners = pg._corners(wall, floor, chain)
        assert corners[0][0] == wall and corners[-1][1] == floor
        assert len(corners) == len(chain) + 1
        assert all(boundary_at(p, x) == y for x, y in corners)


class TestDominates:
    def test_briancon_speder(self):
        special = polygon_sum(make_elementary(8, 2), make_elementary(48, 6))
        generic = make_elementary(56, 7)
        assert dominates(special, generic)
        assert not dominates(generic, special)

    @given(polygons(offsets=True))
    def test_reflexive(self, p):
        assert dominates(p, p)

    def test_neither(self):
        assert not dominates(make_elementary(2, 1), make_elementary(1, 2))
        assert not dominates(make_elementary(1, 2), make_elementary(2, 1))

    @given(polygons(offsets=True), polygons(offsets=True))
    def test_sum_dominates_parts(self, p, q):
        assert dominates(polygon_sum(p, q), p)

    @given(polygons(offsets=True), polygons(offsets=True), polygons(offsets=True))
    def test_transitive_on_sum_chain(self, p, q, r):
        a, b = polygon_sum(p, q), polygon_sum(polygon_sum(p, q), r)
        assert dominates(b, a) and dominates(a, p) and dominates(b, p)

    @given(polygons(offsets=True), polygons(offsets=True))
    def test_antisymmetric(self, p, q):
        # no infinite edges here: region equality then forces equal data
        if dominates(p, q) and dominates(q, p):
            assert p == q

    @given(polygons(offsets=True), polygons(offsets=True))
    def test_matches_dense_sampling(self, p, q):
        assert dominates(p, q) == _dense_dominates(p, q)

    @given(polygons(offsets=True, allow_infinite=True),
           polygons(offsets=True, allow_infinite=True))
    def test_matches_dense_sampling_with_infinite_edges(self, p, q):
        assert dominates(p, q) == _dense_dominates(p, q)

    def test_corner_on_the_interior_of_an_edge(self):
        q = make_elementary(6, 4)  # (0, 4) to (6, 0) through the lattice point (3, 2)
        touching = polygon_sum(make_elementary(3, 4), make_elementary(4, 2))  # corner (3, 2)
        below = polygon_sum(make_elementary(3, 5), make_elementary(4, 1))  # corner (3, 1)
        assert boundary_at(q, 3) == 2
        assert dominates(touching, q)
        assert not dominates(below, q)

    def test_corner_over_a_non_lattice_ordinate(self):
        q = make_elementary(3, 2)  # ordinate 4/3 at x = 1
        above = polygon_sum(make_elementary(1, 2), make_elementary(3, 2))  # corner (1, 2)
        below = polygon_sum(make_elementary(1, 3), make_elementary(3, 1))  # corner (1, 1)
        assert boundary_at(q, 1) == Fraction(4, 3)
        assert dominates(above, q)
        assert not dominates(below, q)

    def test_wall_or_floor_alone_decides(self):
        walled = NewtonPolygon(0, 0, (ElementaryPolygon(2, INF), ElementaryPolygon(1, 1)))
        assert not dominates(NewtonPolygon(1, 9, ()), walled)
        assert dominates(NewtonPolygon(2, 9, ()), walled)
        floored = NewtonPolygon(0, 0, (ElementaryPolygon(1, 1), ElementaryPolygon(INF, 3)))
        assert not dominates(NewtonPolygon(9, 2, ()), floored)
        assert dominates(NewtonPolygon(9, 3, ()), floored)

    def test_independent_of_boundary_at(self, monkeypatch):
        # boundary_at is the oracle of the sampling tests above
        def refuse(*args):
            raise AssertionError("dominates called boundary_at")

        monkeypatch.setattr(pg, "boundary_at", refuse)
        special = polygon_sum(make_elementary(8, 2), make_elementary(48, 6))
        generic = polygon_sum(make_elementary(56, 7), make_elementary(1, INF))
        assert not dominates(special, generic)
        assert dominates(polygon_sum(special, generic), generic)


def _dense_dominates(p, q):
    """Compare boundaries on a grid of step 1/3 up to one unit past the last
    corner of either polygon, where both boundaries are flat."""
    end = 1 + max(
        poly.x_offset + sum(e.ell for e in poly.edges if not pg.is_inf(e.ell))
        for poly in (p, q)
    )
    xs = [Fraction(k, 3) for k in range(3 * end + 1)]
    return all(boundary_at(p, x) >= boundary_at(q, x) for x in xs)


class TestCovolume:
    def test_right_triangle(self):
        assert covolume2(make_elementary(2, 1)) == 1

    def test_two_edges(self):
        p = polygon_sum(make_elementary(1, 2), make_elementary(2, 1))
        assert covolume2(p) == 3

    def test_triangle(self):
        assert covolume2(make_elementary(3, 2)) == 3

    def test_infinite_rejected(self):
        with pytest.raises(NotFiniteVolume):
            covolume2(make_elementary(1, INF))

    @given(finite_polygons(max_edges=3), st.integers(1, 4))
    @settings(max_examples=60)
    def test_scaling_quadratic(self, p, k):
        assert covolume2(scale(p, k)) == k * k * covolume2(p)

    def test_not_additive(self):
        p, q = make_elementary(2, 1), make_elementary(1, 2)
        assert covolume2(polygon_sum(p, q)) != covolume2(p) + covolume2(q)


class TestScale:
    @given(polygons(offsets=True, allow_infinite=True), st.integers(0, 4))
    @settings(max_examples=100)
    def test_equals_repeated_sum(self, p, k):
        total = EMPTY
        for _ in range(k):
            total = polygon_sum(total, p)
        assert scale(p, k) == total

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            scale(make_elementary(2, 1), -1)


class TestMonoidLaws:
    @given(polygons(offsets=True, allow_infinite=True),
           polygons(offsets=True, allow_infinite=True),
           polygons(offsets=True, allow_infinite=True))
    @settings(max_examples=200)
    def test_commutative_associative(self, a, b, c):
        assert polygon_sum(a, b) == polygon_sum(b, a)
        assert polygon_sum(polygon_sum(a, b), c) == polygon_sum(a, polygon_sum(b, c))

    @given(finite_polygons(), finite_polygons())
    @settings(max_examples=100)
    def test_sum_equals_hull_oracle(self, p, q):
        pts = {(a + c, b + d) for a, b in p.vertices() for c, d in q.vertices()}
        assert from_support(pts) == polygon_sum(p, q)


class TestJson:
    def test_spec_encoding(self):
        p = polygon_sum(make_elementary(2, 1), make_elementary(1, INF))
        data = pg.to_json_dict(p)
        assert data == {
            "x_offset": 0,
            "y_offset": 0,
            "edges": [{"l": 1, "h": "inf"}, {"l": 2, "h": 1}],
        }

    def test_unordered_input_normalised(self):
        text = '{"edges": [{"l": 2, "h": 1}, {"l": 1, "h": 2}]}'
        p = pg.loads(text)
        assert [e.slope for e in p.edges] == [Fraction(2), Fraction(1, 2)]

    @given(polygons(offsets=True, allow_infinite=True))
    def test_round_trip(self, p):
        assert pg.loads(pg.dumps(p)) == p

    @pytest.mark.parametrize("key", ["x_offset", "y_offset"])
    @pytest.mark.parametrize("value", [1.7, True, "3", None])
    def test_offsets_must_be_integers(self, key, value):
        with pytest.raises(ValueError, match=key):
            pg.from_json_dict({key: value, "edges": [{"l": 2, "h": 1}]})

    @pytest.mark.parametrize("data", [
        [1, 2], {"edges": 5}, {"edges": [[2, 1]]}, {"edges": None},
        {"edges": {"l": 2}}, {"edges": [{"l": 2}]},
    ])
    def test_edges_must_be_a_list_of_objects(self, data):
        with pytest.raises(ValueError, match="edges" if isinstance(data, dict) else "object"):
            pg.from_json_dict(data)

    @pytest.mark.parametrize("text", ["{1_0/2}", "{\u0663/1}", "{3/\uff11}", "{-3/1}", "{3/}", "{ /1}"])
    def test_compact_extents_are_ascii_digits(self, text):
        with pytest.raises(ValueError, match="ASCII digits"):
            pg.parse_compact(text)

    def test_compact_spaces_around_extents(self):
        assert pg.parse_compact(" { 3 / 1 } + {inf/ 2} ") == polygon_sum(
            make_elementary(3, 1), make_elementary(INF, 2)
        )

    @given(finite_polygons())
    def test_compact_round_trip(self, p):
        assert pg.parse_compact(pg.format_compact(p)) == p

    def test_schema(self):
        jsonschema = pytest.importorskip("jsonschema")
        import pathlib

        schema = json.loads(
            (pathlib.Path(__file__).parent.parent / "docs" / "polygon.schema.json").read_text()
        )
        p = polygon_sum(make_elementary(2, 1), make_elementary(1, INF))
        jsonschema.validate(pg.to_json_dict(p), schema)

    @pytest.mark.parametrize("data", [
        {"edges": []},
        {"edges": [{"l": 2, "h": 1}, {"l": 1, "h": 2}]},
        {"x_offset": 1, "y_offset": 0, "edges": [{"l": "inf", "h": 2}]},
        {"edges": [{"l": 1, "h": 1, "w": 3}], "bogus": 1},
        {"edges": [{"l": 1, "h": 1}], "bogus": 1},
        {"edges": [{"l": 1, "h": 1, "w": 3}]},
        {"x_offset": 1},
        {},
        [],
        {"edges": [{"l": 2}]},
        {"edges": [{"h": 2}]},
        {"edges": [{"l": 0, "h": 1}]},
        {"edges": [{"l": 1, "h": -2}]},
        {"edges": [{"l": "Inf", "h": 1}]},
        {"edges": [{"l": 1.5, "h": 1}]},
        {"edges": [{"l": True, "h": 1}]},
        {"edges": [[2, 1]]},
        {"edges": None},
        {"x_offset": -1, "edges": []},
        {"y_offset": "3", "edges": []},
        {"edges": [{"l": "inf", "h": "inf"}]},
        {"x_offset": 1, "edges": [{"l": 2, "h": 1}, {"l": "inf", "h": "inf"}]},
        {"edges": [{"l": "inf", "h": 3}, {"l": 2, "h": "inf"}]},
    ])
    def test_reader_refuses_what_the_schema_refuses(self, data):
        jsonschema = pytest.importorskip("jsonschema")
        import pathlib

        schema = json.loads(
            (pathlib.Path(__file__).parent.parent / "docs" / "polygon.schema.json").read_text()
        )
        try:
            jsonschema.validate(data, schema)
            valid = True
        except jsonschema.ValidationError:
            valid = False
        try:
            pg.from_json_dict(data)
            read = True
        except (ValueError, DomainError):
            read = False
        assert read == valid

    @pytest.mark.parametrize("data, key", [
        ({"edges": [], "bogus": 1}, "unknown key 'bogus' in a polygon"),
        ({"x_offset": 1}, "missing key 'edges' in a polygon"),
        ({"edges": [{"l": 1, "h": 1, "w": 3}]}, "unknown key 'w' in an item of \"edges\""),
        ({"edges": [{"h": 1}]}, "missing key 'l' in an item of \"edges\""),
    ])
    def test_unknown_or_missing_keys_are_named(self, data, key):
        with pytest.raises(ValueError, match=key):
            pg.from_json_dict(data)


class TestTranspose:
    @given(polygons(offsets=True))
    def test_involution(self, p):
        assert transpose(transpose(p)) == p

    def test_swaps_measurements(self):
        p = polygon_sum(make_elementary(3, 2), make_elementary(1, 4))
        assert transpose(p).length() == p.height()
        assert transpose(p).height() == p.length()


# -- the constructors agree ----------------------------------------------------

HUGE = 10**400  # beyond float range: INF * HUGE or INF + HUGE raises OverflowError


def _reference(x_offset, y_offset, edges):
    """Canonical (x_offset, y_offset, [(l, h), ...]) by a Fraction-keyed sort,
    steepest first, with equal slopes coalesced componentwise."""
    def slope(e):
        if e.h == INF:
            return INF
        return Fraction(0) if e.ell == INF else Fraction(e.h, e.ell)

    def add(a, b):
        return INF if INF in (a, b) else a + b

    merged = {}
    for e in edges:
        ell, h = merged.get(slope(e), (0, 0))
        merged[slope(e)] = (add(ell, e.ell), add(h, e.h))
    return x_offset, y_offset, [merged[s] for s in sorted(merged, reverse=True)]


def _data(p):
    return p.x_offset, p.y_offset, [(e.ell, e.h) for e in p.edges]


def _is_canonical(p):
    """p is what the public constructor makes of its own edges, and what the
    reference makes of them."""
    return p == NewtonPolygon(p.x_offset, p.y_offset, p.edges) and _data(p) == _reference(
        p.x_offset, p.y_offset, p.edges
    )


# small extents repeat slopes; 7 and 8 stand for INF and HUGE
edge_extents = st.integers(1, 8).map(lambda v: {7: INF, 8: HUGE}.get(v, v))
edge_lists = st.lists(
    st.tuples(edge_extents, edge_extents).filter(lambda lh: lh != (INF, INF)), max_size=8
).map(lambda pairs: [ElementaryPolygon(ell, h) for ell, h in pairs])
offsets = st.integers(0, 3)


class TestConstructorsAgree:
    @given(offsets, offsets, edge_lists)
    @settings(max_examples=300)
    def test_public_constructor_matches_fraction_sort(self, xo, yo, edges):
        assert _data(NewtonPolygon(xo, yo, tuple(edges))) == _reference(xo, yo, edges)

    @given(offsets, offsets, edge_lists, offsets, offsets, edge_lists)
    @settings(max_examples=200)
    def test_sum(self, xp, yp, ep, xq, yq, eq):
        p, q = NewtonPolygon(xp, yp, tuple(ep)), NewtonPolygon(xq, yq, tuple(eq))
        s = polygon_sum(p, q)
        assert _is_canonical(s)
        assert s == NewtonPolygon(xp + xq, yp + yq, tuple(ep + eq))

    @given(finite_polygons(max_edges=6), finite_polygons(max_edges=6))
    def test_product(self, p, q):
        assert _is_canonical(product(p, q))

    @given(finite_polygons(max_edges=6), elementary, st.booleans())
    def test_product_with_an_infinite_operand(self, p, e, vertical):
        inf_edge = ElementaryPolygon(e.ell, INF) if vertical else ElementaryPolygon(INF, e.h)
        r = product(p, NewtonPolygon(edges=(inf_edge,)))
        assert _is_canonical(r)
        assert r == NewtonPolygon(edges=tuple(product_elementary(pe, inf_edge) for pe in p.edges))

    @given(offsets, offsets, edge_lists, st.integers(0, 3))
    def test_scale_and_transpose(self, xo, yo, edges, k):
        p = NewtonPolygon(xo, yo, tuple(edges))
        assert _is_canonical(scale(p, k))
        t = transpose(p)
        assert _is_canonical(t)
        assert t == NewtonPolygon(yo, xo, tuple(ElementaryPolygon(e.h, e.ell) for e in edges))

    @given(st.sets(st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=1, max_size=12))
    def test_from_support(self, pts):
        assert _is_canonical(from_support(pts))

    def test_huge_extent_beside_infinite_edges(self):
        edges = (
            ElementaryPolygon(HUGE, 1),
            ElementaryPolygon(INF, HUGE),
            ElementaryPolygon(1, HUGE),
            ElementaryPolygon(HUGE, INF),
            ElementaryPolygon(2, INF),
            ElementaryPolygon(INF, 3),
        )
        p = NewtonPolygon(0, 0, edges)
        assert _data(p) == _reference(0, 0, edges)
        assert [(e.ell, e.h) for e in p.edges] == [
            (HUGE + 2, INF), (1, HUGE), (HUGE, 1), (INF, HUGE + 3),
        ]
        assert polygon_sum(p, p) == scale(p, 2) == NewtonPolygon(0, 0, edges + edges)
