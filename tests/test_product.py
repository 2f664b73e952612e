import importlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newtonpoly.errors import NotFiniteVolume, UnsupportedInfiniteCombination
from newtonpoly.polygon import (
    EMPTY,
    INF,
    ONE,
    ElementaryPolygon,
    NewtonPolygon,
    covolume2,
    make_elementary,
    parse_compact,
    polygon_sum,
)
from newtonpoly.product import is_special, mixed_height, product, product_elementary

from strategies import elementary, extents, finite_polygons

# the package re-exports the function ``product``, which hides the module
# of the same name as an attribute of ``newtonpoly``
product_module = importlib.import_module("newtonpoly.product")

infinite_elementary = st.one_of(
    st.builds(lambda ell: make_elementary(ell, INF), extents),
    st.builds(lambda h: make_elementary(INF, h), extents),
)


def _sum_of_elementary_products(p, q):
    total = EMPTY
    for pe in p.edges:
        for qe in q.edges:
            total = polygon_sum(total, NewtonPolygon(edges=(product_elementary(pe, qe),)))
    return total


class TestElementaryProduct:
    def test_direct_substitution(self):
        assert product_elementary(ElementaryPolygon(2, 1), ElementaryPolygon(3, 1)) == ElementaryPolygon(6, 2)

    def test_vertical_unit(self):
        e = ElementaryPolygon(5, 3)
        assert product_elementary(e, ElementaryPolygon(1, INF)) == e

    def test_diagonal(self):
        assert product_elementary(ElementaryPolygon(2, 2), ElementaryPolygon(3, 3)) == ElementaryPolygon(6, 6)

    @given(elementary, elementary)
    def test_commutative(self, a, b):
        assert product_elementary(a, b) == product_elementary(b, a)


class TestProduct:
    def test_one_not_neutral_off_specials(self):
        p = polygon_sum(make_elementary(2, 1), make_elementary(1, 2))
        assert product(p, ONE) == polygon_sum(make_elementary(2, 1), make_elementary(1, 1))

    def test_horizontal_infinite(self):
        assert product(make_elementary(2, 1), make_elementary(INF, 3)) == make_elementary(INF, 6)

    def test_unit_on_special(self):
        p = polygon_sum(make_elementary(3, 2), make_elementary(5, 1))
        assert product(p, ONE) == p

    def test_both_infinite_rejected(self):
        with pytest.raises(UnsupportedInfiniteCombination):
            product(make_elementary(1, INF), make_elementary(INF, 1))

    def test_offsets_rejected(self):
        shifted = NewtonPolygon(1, 0, (ElementaryPolygon(1, 1),))
        with pytest.raises(NotFiniteVolume):
            product(shifted, ONE)

    def test_empty_rejected(self):
        with pytest.raises(NotFiniteVolume):
            product(EMPTY, ONE)

    @given(finite_polygons(max_edges=8), st.one_of(finite_polygons(max_edges=8), infinite_elementary))
    @settings(max_examples=100)
    def test_equals_sum_of_elementary_products(self, p, q):
        assert product(p, q) == product(q, p) == _sum_of_elementary_products(p, q)

    @pytest.mark.parametrize("p, q, expected", [
        # every slope shared
        ("{2/1}+{1/3}", "{4/2}+{2/6}", "{2/6}+{16/8}"),
        ("{2/2}", "{3/3}", "{6/6}"),
        # the slopes of q (1, 1/2) lie strictly between those of p (4, 1/4)
        ("{1/4}+{4/1}", "{1/1}+{2/1}", "{1/1}+{2/1}+{12/3}"),
        ("{1/1}+{2/1}", "{1/4}+{4/1}", "{1/1}+{2/1}+{12/3}"),
        # p entirely steeper than q, so P*Q = l(P)·Q
        ("{1/3}+{1/2}", "{2/1}+{3/1}", "{4/2}+{6/2}"),
    ])
    def test_worked_cases(self, p, q, expected):
        p, q, expected = parse_compact(p), parse_compact(q), parse_compact(expected)
        assert _sum_of_elementary_products(p, q) == expected
        assert product(p, q) == expected

    def test_finite_operands_do_not_use_elementary_products(self, monkeypatch):
        # the bilinear oracles in verify and above build on product_elementary,
        # so product must not
        p = parse_compact("{1/5}+{2/3}+{4/1}")
        q = parse_compact("{3/4}+{1/1}+{6/1}")
        expected = _sum_of_elementary_products(p, q)

        def refuse(a, b):
            raise AssertionError("product_elementary called")

        monkeypatch.setattr(product_module, "product_elementary", refuse)
        assert product(p, q) == expected

    @given(finite_polygons(max_edges=3), finite_polygons(max_edges=3))
    @settings(max_examples=100)
    def test_vertical_unit_on_all(self, p, q):
        unit = make_elementary(1, INF)
        assert product(p, unit) == p
        assert product(unit, q) == q

    @given(finite_polygons(max_edges=3), finite_polygons(max_edges=3))
    @settings(max_examples=100)
    def test_length_multiplicative(self, p, q):
        assert product(p, q).length() == p.length() * q.length()

    @given(finite_polygons(max_edges=3), finite_polygons(max_edges=3))
    @settings(max_examples=100)
    def test_height_is_mixed_height(self, p, q):
        assert product(p, q).height() == mixed_height(p, q)


class TestSpecial:
    def test_examples(self):
        assert is_special(polygon_sum(make_elementary(2, 1), make_elementary(3, 3)))
        assert not is_special(make_elementary(1, 2))

    def test_infinite_rejected(self):
        with pytest.raises(NotFiniteVolume):
            is_special(make_elementary(1, INF))

    @given(finite_polygons(max_edges=3))
    @settings(max_examples=150)
    def test_unit_iff_special(self, p):
        assert (product(p, ONE) == p) == is_special(p)

    @given(finite_polygons(max_edges=2), finite_polygons(max_edges=2))
    @settings(max_examples=100)
    def test_specials_closed_under_product(self, p, q):
        if is_special(p) and is_special(q):
            assert is_special(product(p, q))


class TestMixedHeight:
    def test_worked_pair(self):
        p, q = make_elementary(2, 1), make_elementary(1, 2)
        assert mixed_height(p, q) == 1
        # polarization oracle: Vol(P+Q) - Vol(P) - Vol(Q)
        assert covolume2(polygon_sum(p, q)) - covolume2(p) - covolume2(q) == 1

    def test_self_pairing(self):
        p = make_elementary(2, 1)
        assert mixed_height(p, p) == 2
        assert mixed_height(p, p) == 2 * covolume2(p)

    def test_unit_pair(self):
        assert mixed_height(ONE, ONE) == 1

    @given(finite_polygons(max_edges=3), finite_polygons(max_edges=3))
    @settings(max_examples=150)
    def test_polarization_oracle(self, p, q):
        mv2 = covolume2(polygon_sum(p, q)) - covolume2(p) - covolume2(q)
        assert mixed_height(p, q) == mv2

    @given(finite_polygons(max_edges=3))
    @settings(max_examples=100)
    def test_self_is_twice_covolume(self, p):
        assert mixed_height(p, p) == 2 * covolume2(p)
