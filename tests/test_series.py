import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newtonpoly import series
from newtonpoly.cli import main
from newtonpoly.errors import (
    NotAnEdge,
    NotIsolated,
    NotLocal,
    NotUnitary,
    PrecisionInsufficient,
)
from newtonpoly.field import QQ
from newtonpoly.polygon import INF, ElementaryPolygon, make_elementary, polygon_sum
from newtonpoly.product import product
from newtonpoly.series import (
    TruncatedSeries,
    YPolynomial,
    edge_polynomial,
    format_polynomial,
    format_series,
    intersection_number,
    is_nondegenerate_pair,
    newton_polygon_of,
    parse_polynomial,
    parse_series,
    polygon_edges,
    realization_polygon,
    shifted_resultant,
    sylvester_resultant,
)


def P(text):
    return parse_polynomial(text)


class TestSeriesArithmetic:
    def test_inverse(self):
        s = parse_series("1 - x + O(x^8)")
        inv = s.inverse()
        assert (s * inv).coeffs == ((0, QQ.one()),)

    def test_geometric_inverse(self):
        s = parse_series("1 - x")
        inv = s.inverse(target=5)
        assert inv == parse_series("1 + x + x^2 + x^3 + x^4 + O(x^5)")

    def test_order_certified(self):
        s = TruncatedSeries.zero(QQ, "x", precision=4)
        with pytest.raises(PrecisionInsufficient):
            s.order()

    def test_exact_zero_order(self):
        from newtonpoly.polygon import INF

        assert TruncatedSeries.zero(QQ, "x").order() == INF

    def test_mul_precision(self):
        a = parse_series("x^2 + O(x^5)")
        b = parse_series("x^3 + O(x^4)")
        assert (a * b).precision == 6  # min(5 + 3, 4 + 2)

    def test_exact_div(self):
        a = parse_series("x^2 - x^4")
        b = parse_series("1 + x")
        q = a.exact_div(b)
        assert q * b == a

    def test_inverse_at_exact_precision(self):
        assert parse_series("2").inverse() == parse_series("1/2")
        with pytest.raises(PrecisionInsufficient):
            parse_series("1 + x").inverse()


class TestOneField:
    """Operators take operands over one field; towers are joined only by the
    functions that take operands over nested towers."""

    K = P("adjoin a: a^2 - 2; y").field

    def pairs(self):
        s, t = parse_series("1 + x"), parse_series("1 + x", field=self.K)
        f, g = P("y - x"), P("adjoin a: a^2 - 2; y - x")
        return {"series": (s, t), "series-swapped": (t, s), "polynomials": (f, g),
                "polynomials-swapped": (g, f), "polynomial-series": (f, t)}

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
    @pytest.mark.parametrize("kind", ["series", "series-swapped", "polynomials",
                                      "polynomials-swapped", "polynomial-series"])
    def test_operands_over_different_fields_raise(self, op, kind):
        a, b = self.pairs()[kind]
        with pytest.raises(ValueError, match="different fields"):
            op(a, b)
        assert op(a.lift_field(self.K), b.lift_field(self.K)).field == self.K

    def test_scalars_and_construction(self):
        s, t = parse_series("1 + x"), parse_series("1 + x", field=self.K)
        assert s != t and s.lift_field(self.K) == t
        assert s + 1 == parse_series("2 + x") and t * Fraction(1, 2) == t.scale(Fraction(1, 2))
        with pytest.raises(ValueError):
            s + self.K.generator()
        with pytest.raises(ValueError):
            s.exact_div(t)
        with pytest.raises(ValueError):
            YPolynomial.make([s, t])

    @pytest.mark.parametrize("op, expected", [
        (operator.add, "y + 1"), (operator.sub, "-y + 1 + 2*x"),
        (operator.mul, "(1 + x)*y - x - x^2"),
    ], ids=["add", "sub", "mul"])
    def test_series_defers_to_a_polynomial(self, op, expected):
        s, f = parse_series("1 + x"), P("y - x")
        assert op(s, f) == P(expected)
        assert op(f, s) == (P(expected) if op is not operator.sub else -P(expected))
        with pytest.raises(TypeError):
            op(s, "1 + x")
        with pytest.raises(ValueError, match="different fields"):
            op(s, P("adjoin a: a^2 - 2; y - x"))

    @pytest.mark.parametrize("op", [
        lambda p: p + "a", lambda p: "a" + p, lambda p: p - "a", lambda p: p * 1.5,
        lambda p: p * None, lambda p: None * p,
    ], ids=["add-str", "str-add", "sub-str", "mul-float", "mul-none", "none-mul"])
    def test_polynomials_return_not_implemented_for_other_types(self, op):
        with pytest.raises(TypeError):
            op(P("y"))

    def test_exact_div_names_an_unknown_operand_type(self):
        with pytest.raises(TypeError, match="str"):
            parse_series("1 + x").exact_div("a")

    @pytest.mark.parametrize("argv, out", [
        (["resultant", "adjoin a: a^2 - 2; y - a*x", "y + x"], "(1 + a)*x"),
        (["resultant", "y + x", "adjoin a: a^2 - 2; y - a*x"], "(-1 - a)*x"),
        (["shifted-resultant", "adjoin a: a^2 - 2; y - a*x", "y + x"], "-T + (1 + a)*x"),
        (["intersect", "adjoin a: a^2 - 2; y - a*x^2", "y^2 - x^3"], "3"),
    ])
    def test_operands_over_nested_towers(self, capsys, argv, out):
        assert main(["series", *argv]) == 0
        assert capsys.readouterr() == (out + "\n", "")

    def test_operands_over_unrelated_towers_exit_2(self, capsys):
        argv = ["series", "resultant", "adjoin a: a^2 - 2; y - a*x", "adjoin b: b^2 - 3; y - b*x"]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "parse error: towers are not nested; cannot join\n")


def schoolbook_product(a, b):
    """Term-by-term product of two series over one field, known to
    min(p_a + v_b, p_b + v_a): the reference for the packed kernel."""
    if a.is_exact and b.is_exact:
        p = INF
    else:
        va = a.coeffs[0][0] if a.coeffs else a.precision
        vb = b.coeffs[0][0] if b.coeffs else b.precision
        p = min(a.precision + vb, b.precision + va)
    out = {}
    for e1, c1 in a.coeffs:
        for e2, c2 in b.coeffs:
            if e1 + e2 < p:
                out[e1 + e2] = out[e1 + e2] + c1 * c2 if e1 + e2 in out else c1 * c2
    return TruncatedSeries.make(a.field, a.var, out, p)


def quadratic_inverse(a, p):
    """Inverse of a unit series mod x^p, one coefficient at a time."""
    inv0 = a.coefficient(0).inverse()
    out = {0: inv0}
    for n in range(1, p):
        acc = a.field.zero()
        for e, c in a.coeffs:
            if 0 < e <= n and n - e in out:
                acc = acc + c * out[n - e]
        out[n] = -(inv0 * acc)
    return TruncatedSeries.make(a.field, a.var, out, p)


def _towers():
    quadratic = QQ.extend([-2, 0, 1], name="r", verify=True)
    r = quadratic.generator()
    return {
        "QQ": QQ,
        "degree 2": quadratic,
        "degree 3": QQ.extend([Fraction(-1, 2), Fraction(-3, 4), 0, 1], name="c", verify=True),
        "degree 1": QQ.extend([-3, 1], name="d"),
        "two steps": quadratic.extend([-r, 0, 0, 1], name="s", verify=True),
    }


TOWERS = _towers()


def random_element(rng, field, zero_chance=0.0):
    """Seeded element: a rational combination of the generators' power
    products, with negative and non-integral coefficients."""
    if rng.random() < zero_chance:
        return field.zero()
    monomials = [field.one()]
    for i, step in enumerate(field.steps):
        g = field.generator(i)
        monomials = [m * g ** k for m in monomials for k in range(step.degree)]
    out = field.zero()
    while out.is_zero():
        for m in monomials:
            if rng.random() < 0.7:
                out = out + m * Fraction(rng.randint(-40, 40), rng.choice([1, 1, 2, 3, 10, 49]))
    return out


def random_series(rng, field, precision, max_terms=8, max_gap=3, start=0):
    terms, e = {}, start
    for _ in range(rng.randint(1, max_terms)):
        terms[e] = random_element(rng, field, zero_chance=0.1)
        e += rng.randint(1, max_gap)
    return TruncatedSeries.make(field, "x", terms, precision)


class TestPackedKernel:
    """Products and inverses against the term-by-term references above."""

    @pytest.mark.parametrize("name", list(TOWERS))
    def test_products_match_schoolbook(self, name):
        field = TOWERS[name]
        rng = random.Random(5)
        for _ in range(25):
            pa, pb = (rng.choice([INF, INF, rng.randint(1, 14)]) for _ in range(2))
            a = random_series(rng, field, pa, start=rng.randint(0, 3))
            b = random_series(rng, field, pb, start=rng.randint(0, 3))
            assert a * b == schoolbook_product(a, b)
            assert b * a == schoolbook_product(b, a)

    @pytest.mark.parametrize("name", list(TOWERS))
    def test_zero_and_constant_operands(self, name):
        field = TOWERS[name]
        rng = random.Random(6)
        a = random_series(rng, field, INF)
        for z in (TruncatedSeries.zero(field, "x"), TruncatedSeries.zero(field, "x", 5)):
            assert a * z == z * a == schoolbook_product(a, z)
        c = random_element(rng, field)
        assert a * c == c * a == schoolbook_product(a, TruncatedSeries.constant(field, "x", c))
        assert a * 0 == TruncatedSeries.zero(field, "x")

    @pytest.mark.parametrize("name", list(TOWERS))
    def test_truncation_exactly_at_the_product_precision(self, name):
        field = TOWERS[name]
        rng = random.Random(7)
        dense = {e: random_element(rng, field) for e in range(6)}
        for pa, pb in ((INF, 4), (4, INF), (3, 4), (6, 6)):
            a = TruncatedSeries.make(field, "x", dense, pa)
            b = TruncatedSeries.make(field, "x", {e: c for e, c in dense.items() if e}, pb)
            prod = a * b
            assert prod == schoolbook_product(a, b)
            assert prod.precision == min(pa + 1, pb)

    def test_sparse_operands_far_apart(self):
        field = TOWERS["degree 3"]
        rng = random.Random(8)
        c = [random_element(rng, field) for _ in range(4)]
        a = TruncatedSeries.make(field, "x", {0: c[0], 10**6: c[1]})
        b = TruncatedSeries.make(field, "x", {1: c[2], 3: c[3], 10**9: c[0]})
        assert a * b == schoolbook_product(a, b)
        assert (a * b).truncate(10**6 + 2) == schoolbook_product(a, b.truncate(10**6 + 2))

    @pytest.mark.parametrize("name", list(TOWERS))
    def test_inverses_match_the_quadratic_recurrence(self, name):
        field = TOWERS[name]
        rng = random.Random(9)
        def unit(precision):
            head = TruncatedSeries.constant(field, "x", random_element(rng, field), precision)
            return head + random_series(rng, field, precision, max_gap=2, start=1)

        for target in (0, 1, 2, 3, 7, 13, 16):
            a = unit(INF)
            inv = a.inverse(target)
            assert inv == quadratic_inverse(a, target)
            assert (a * inv).truncate(target) == TruncatedSeries.constant(field, "x", 1, target)
        a = unit(11)
        assert a.inverse() == quadratic_inverse(a, 11)
        assert a.inverse(50) == quadratic_inverse(a, 11)


class TestParsing:
    def test_round_trip_exact(self):
        f = P("y^2 - 3/2*x^3 + x*y")
        assert parse_polynomial(format_polynomial(f)) == f

    def test_round_trip_precision(self):
        f = P("y^2 - x^3 + O(x^5)")
        assert parse_polynomial(format_polynomial(f)) == f

    def test_round_trip_extension(self):
        f = P("adjoin u: u^2 - 3; y^2 - u*x + 1/2*x^2")
        text = "adjoin u: u^2 - 3; " + format_polynomial(f)
        assert parse_polynomial(text) == f

    def test_series_round_trip(self):
        s = parse_series("2 - 1/3*x^2 + O(x^9)")
        assert parse_series(format_series(s)) == s

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_polynomial("y +* x")
        with pytest.raises(ValueError):
            parse_polynomial("z^2 - x")  # unknown name

    def test_ragged_precision_rejected(self):
        exact = TruncatedSeries.constant(QQ, "x", 1)
        cut = TruncatedSeries.zero(QQ, "x", precision=3)
        f = YPolynomial.make([cut, exact])
        with pytest.raises(ValueError):
            format_polynomial(f)

    def test_unknown_top_coefficient_rejected(self):
        # the text keeps the y-degree only through the terms it prints
        f = YPolynomial.from_terms({(5, 3): 1, (0, 0): 1}, precision=2)
        assert f.degree() == 3
        with pytest.raises(ValueError, match="top y-coefficient"):
            format_polynomial(f)

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 3),
                              st.integers(-6, 6).filter(bool)), min_size=1, max_size=6))
    @settings(max_examples=80)
    def test_random_round_trip(self, terms):
        f = YPolynomial.from_terms({(i, j): Fraction(c) for i, j, c in terms})
        if f.is_zero():
            return
        assert parse_polynomial(format_polynomial(f)) == f

    @given(st.integers(0, 6), st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 3), st.fractions(max_denominator=4),
                  st.integers(-3, 3)), max_size=6))
    @settings(max_examples=80)
    def test_random_round_trip_over_a_tower_with_precision(self, p, terms):
        # known terms lie below the precision p; c + d*u may be zero, and so
        # may f, which prints as O(x^p)
        k = P("adjoin u: u^2 - 3; y").field
        u = k.generator_named("u")
        coeffs = {(i, j): k.coerce(c) + u * d for i, j, c, d in terms if i < p}
        f = YPolynomial.from_terms(coeffs, k, precision=p)
        text = "adjoin u: u^2 - 3; " + format_polynomial(f)
        assert parse_polynomial(text) == f

    def test_truncated_zero_round_trip(self):
        f = P("0 + O(x^3)")
        assert format_polynomial(f) == "O(x^3)"
        assert P("O(x^3)") == f

    @pytest.mark.parametrize("text, precision", [
        ("y - x/(2 + O(x^3))", 3),
        ("(1 + O(x^2))^0*y - x", 2),
        ("y - x + O(x^5) + O(x^4)", 4),
        ("(y - x + O(x^3))*(y + x^2)", 3),
        ("y + O(x^2)*y - x", 2),
    ])
    def test_any_precision_marker_bounds_the_whole_text(self, text, precision):
        f = P(text)
        assert {c.precision for c in f.coeffs} == {precision}

    @pytest.mark.parametrize("text, position", [("x^٣", 2), ("x²", 1), ("²", 0),
                                                ("é + y", 0)])
    def test_non_ascii_digits_and_letters_exit_2(self, capsys, text, position):
        assert main(["series", "polygon", text]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"parse error: unexpected character {text[position]!r} at {position}\n")

    @pytest.mark.parametrize("text, message", [
        ("y - (x", "expected ) at position 6"),
        ("y x", "trailing input at position 2"),
        ("y +", "unexpected end of expression"),
        ("y $ x", "unexpected character '$' at 2"),
        ("y + O(y^2)", "precision marker must use x"),
        ("y^x", "expected int at position 2"),
        ("y + )", "unexpected token ')'"),
    ])
    def test_error_messages(self, text, message):
        with pytest.raises(ValueError) as exc:
            parse_polynomial(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("text, message", [
        ("adjoin u u^2; y", "expected : at position 9"),
        ("adjoin : u^2; y", "expected name at position 7"),
        ("adjoinu: u^2; y", "expected adjoin at position 0"),
        ("adjoin u: u^2 - 2 x; y", "trailing input at position 18"),
        ("adjoin u: u^2 - y; y", "unknown name 'y'"),
    ])
    def test_adjoin_clause_errors(self, text, message):
        with pytest.raises(ValueError) as exc:
            parse_polynomial(text)
        assert str(exc.value) == message


class TestNewtonPolygon:
    def test_cusp(self):
        assert newton_polygon_of(P("y^2 - x^3")) == make_elementary(3, 2)

    def test_three_branch_product(self):
        f = P("y - x") * P("y - x^2") * P("y^2 - x^3")
        expected = polygon_sum(
            polygon_sum(make_elementary(1, 1), make_elementary(2, 1)),
            make_elementary(3, 2),
        )
        assert newton_polygon_of(f) == expected
        assert f.coeffs[0].order() == 6  # lengths 1+2+3

    def test_hidden_term(self):
        with pytest.raises(PrecisionInsufficient):
            newton_polygon_of(P("y - x + O(x)"))

    def test_hidden_term_no_finite_precision(self):
        # hidden constant-term row cannot be certified at any finite order
        f = P("y^2 + x^3 + O(x^2)")
        with pytest.raises(PrecisionInsufficient) as err:
            newton_polygon_of(f)
        assert err.value.required is None

    def test_hidden_term_required_hint(self):
        # y-coefficient unknown beyond O(x); hull undecided until x-order 3
        c0 = TruncatedSeries.monomial(QQ, "x", 4)
        c1 = TruncatedSeries.zero(QQ, "x", precision=1)
        c2 = TruncatedSeries.zero(QQ, "x")
        c3 = TruncatedSeries.constant(QQ, "x", 1)
        f = YPolynomial.make([c0, c1, c2, c3])
        with pytest.raises(PrecisionInsufficient) as err:
            newton_polygon_of(f)
        assert err.value.required == 3

    def test_unit_multiple_invariance(self):
        f = P("y^2 - x^3")
        u = P("1 + 2*x + x^3")
        assert newton_polygon_of(u * f) == newton_polygon_of(f)

    @given(st.data())
    @settings(max_examples=200)
    def test_product_additivity(self, data):
        def factor():
            a = data.draw(st.integers(1, 3))
            b = data.draw(st.integers(1, 4))
            c = data.draw(st.integers(-3, 3).filter(bool))
            return YPolynomial.from_terms({(0, a): Fraction(1), (b, 0): Fraction(c)})

        f, g = factor(), factor()
        assert newton_polygon_of(f * g) == polygon_sum(
            newton_polygon_of(f), newton_polygon_of(g)
        )


class TestEdges:
    def test_edge_polynomial(self):
        f = P("y^2 - x^3 + x^4")
        assert edge_polynomial(f, ElementaryPolygon(3, 2)) == P("y^2 - x^3")

    def test_collinear_edge(self):
        f = P("y^2 + 2*x*y + x^2 + x^3")
        assert edge_polynomial(f, ElementaryPolygon(2, 2)) == P("y^2 + 2*x*y + x^2")

    def test_not_an_edge(self):
        with pytest.raises(NotAnEdge):
            edge_polynomial(P("y^2 - x^3"), ElementaryPolygon(1, 1))

    def test_positions(self):
        f = P("y - x") * P("y^2 - x^3")
        edges = polygon_edges(f)
        assert [(e.elem.ell, e.elem.h) for e in edges] == [(1, 1), (3, 2)]
        assert edges[0].top == (0, 3)


class TestSubstitute:
    def test_edge_substitution_into_a_tower(self):
        # y^2 - 2*x^3 at x -> x^2, y -> x^3*(a + y) with a^2 = 2 is x^6*(2*a*y + y^2)
        k = QQ.extend([-2, 0, 1], name="a")
        a = k.generator()
        g = P("y^2 - 2*x^3").substitute({(2, 0): 1}, {(3, 0): a, (3, 1): 1})
        assert g.field == k
        assert g.support() == {(6, 1): a + a, (6, 2): k.one()}

    def test_inexact_coefficients_rejected(self):
        with pytest.raises(PrecisionInsufficient):
            P("y^2 - x^3 + O(x^5)").substitute_linear(1, 1, 0, 1)


class TestNondegeneracy:
    def test_spec_trio(self):
        assert is_nondegenerate_pair(P("y - x^2"), P("y^2 + x^3"))
        assert not is_nondegenerate_pair(P("y - x^2"), P("y^2 - x^3"))
        assert not is_nondegenerate_pair(P("y - x"), P("y - x"))


class TestResultants:
    def test_cusp_line(self):
        r = sylvester_resultant(P("y - x^2"), P("y^2 - x^3"))
        assert r.order() == 3
        # x^3(x - 1) up to sign
        assert r == parse_series("x^4 - x^3") or r == parse_series("x^3 - x^4")

    def test_degree_one(self):
        r = sylvester_resultant(P("y - 3*x"), P("y - 5*x"))
        assert r == parse_series("2*x") or r == parse_series("-2*x")

    def test_self_resultant_zero(self):
        f = P("y^2 - x^3")
        assert sylvester_resultant(f, f).is_zero()

    def test_not_unitary(self):
        with pytest.raises(NotUnitary):
            sylvester_resultant(P("x*y - x^2"), P("y - x"))

    def test_truncated_rejected(self):
        with pytest.raises(PrecisionInsufficient):
            sylvester_resultant(P("y - x + O(x^9)"), P("y - x^2"))

    def test_only_the_first_operand_must_be_unitary(self):
        # Halphen: Res(f1, f2) = prod f2(x, alpha) over the roots of a monic f1
        assert sylvester_resultant(P("y^2 - x^3"), P("x*y + x^2")) == parse_series("x^4 - x^5")
        assert sylvester_resultant(P("y"), P("x*y - x^2")) == parse_series("-x^2")
        with pytest.raises(NotUnitary):
            sylvester_resultant(P("x*y + x^2"), P("y^2 - x^3"))
        with pytest.raises(NotUnitary):
            intersection_number(P("x*y + x^2"), P("y^2 - x^3"))
        with pytest.raises(PrecisionInsufficient):
            sylvester_resultant(P("y^2 - x^3"), P("x*y + O(x^5)"))


def bareiss_determinant(rows, one):
    """Fraction-free determinant over an integral domain: the reference for
    the packed resultant kernel.

    The entries need ``*``, ``-``, ``exact_div`` and ``is_zero()``; ``one``
    is the unit of their ring, the first pivot divisor.
    """
    n = len(rows)
    if n == 0:
        return one
    m = [list(r) for r in rows]
    sign = 1
    prev = one
    for k in range(n - 1):
        if m[k][k].is_zero():
            pivot = next((i for i in range(k + 1, n) if not m[i][k].is_zero()), None)
            if pivot is None:
                return m[k][k]  # zero, as is the rest of column k
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]).exact_div(prev)
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign > 0 else -det


def sylvester_by_bareiss(p1, p2):
    """Bareiss determinant of the Sylvester matrix, p1's rows on top."""
    zero = TruncatedSeries.zero(p1.field, p1.xvar)
    m, n = p1.degree(), p2.degree()
    desc1, desc2 = list(reversed(p1.coeffs)), list(reversed(p2.coeffs))
    rows = [[zero] * i + desc1 + [zero] * (n - 1 - i) for i in range(n)]
    rows += [[zero] * i + desc2 + [zero] * (m - 1 - i) for i in range(m)]
    return bareiss_determinant(rows, TruncatedSeries.constant(p1.field, p1.xvar, 1))


def random_unitary(rng, deg):
    terms = {(0, deg): Fraction(rng.choice([1, -2, 3, Fraction(1, 2)]))}
    for j in range(deg):
        for _ in range(rng.randint(0, 2)):
            terms[(rng.randint(0, 4), j)] = Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 7]))
    return YPolynomial.from_terms(terms)


def large_unitary(rng, deg):
    """Unitary polynomial of y-degree deg and x-degree up to 12, with
    numerators up to 10^30 and denominators up to 10^6."""
    def coefficient():
        return Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**6))

    terms = {(0, deg): coefficient() or Fraction(1)}
    if rng.random() < 0.5:
        terms[(rng.randint(1, 12), deg)] = coefficient()
    for j in range(deg):
        for _ in range(rng.randint(0, 3)):
            terms[(rng.randint(0, 12), j)] = coefficient()
    return YPolynomial.from_terms(terms)


# leading y-coefficients x^k * u(x): k > 0, or u with an integer root
LEADS = [{1: 1}, {3: -2}, {1: 2, 2: -3}, {0: -2, 1: 1}, {0: -256, 1: 1}, {1: -4, 2: 1}]


def random_lead(rng, deg):
    """random_unitary with its leading coefficient drawn from LEADS."""
    terms = {(i, deg): Fraction(c) for i, c in rng.choice(LEADS).items()}
    for j in range(deg):
        for _ in range(rng.randint(0, 2)):
            terms[(rng.randint(0, 4), j)] = Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 7]))
    return YPolynomial.from_terms(terms)


class TestQQResultantKernel:
    """The evaluated integer path over QQ against Bareiss on the same matrix."""

    @pytest.fixture(autouse=True)
    def no_bivariate_resultant(self, monkeypatch):
        from sympy.polys import euclidtools

        def refuse(*args):
            raise AssertionError("QQ resultants must not run the bivariate dmp_resultant")

        monkeypatch.setattr(euclidtools, "dmp_resultant", refuse)
        # and in series, should it ever import the name at module level again
        monkeypatch.setattr(series, "dmp_resultant", refuse, raising=False)

    def test_matches_bareiss_on_seeded_pairs(self):
        rng = random.Random(11)
        degrees = set()
        for _ in range(60):
            m, n = rng.randint(0, 3), rng.randint(0, 3)
            p1, p2 = random_unitary(rng, m), random_unitary(rng, n)
            degrees.add((m, n))
            assert sylvester_resultant(p1, p2) == sylvester_by_bareiss(p1, p2)
        assert {(1, 2), (2, 1), (1, 3), (3, 1), (0, 2), (2, 0)} <= degrees

    def test_second_operand_not_unitary_matches_bareiss(self):
        rng = random.Random(13)
        degrees = set()
        for _ in range(40):
            m, n = rng.randint(0, 3), rng.randint(0, 3)
            p1, p2 = random_unitary(rng, m), random_lead(rng, n)
            degrees.add((m, n))
            assert sylvester_resultant(p1, p2) == sylvester_by_bareiss(p1, p2)
        assert {(1, 2), (2, 1), (3, 3), (0, 2), (2, 0)} <= degrees
        # leading coefficients that vanish at x = 2 and x = 2^8
        for p2 in (P("(x - 2)*y^2 + y + x"), P("(x - 256)*y + 1"), P("x*(x - 256)*y^2 + y - x")):
            for p1 in (P("y^2 - x^3"), P("y + 3"), P("2 + x")):
                assert sylvester_resultant(p1, p2) == sylvester_by_bareiss(p1, p2)

    def test_lower_degree_first_keeps_the_sylvester_sign(self):
        # deg p1 < deg p2 with deg p1 * deg p2 odd
        p1, p2 = P("y + 2*x"), P("y^3 + x^4")
        assert sylvester_resultant(p1, p2) == parse_series("x^4 - 8*x^3")
        assert sylvester_resultant(p2, p1) == parse_series("8*x^3 - x^4")
        assert sylvester_resultant(p1, p2) == sylvester_by_bareiss(p1, p2)

    def test_shared_factor_is_exact_zero(self):
        common = P("y - x + 1/2*x^2")
        p1, p2 = common * P("y^2 + 3*x"), common * P("y + 2/3*x^3")
        r = sylvester_resultant(p1, p2)
        assert r.is_zero() and r.is_exact
        assert r == sylvester_by_bareiss(p1, p2)

    def test_degree_zero_operands(self):
        unit, g = P("2 + x"), P("y^2 - x")
        assert sylvester_resultant(unit, g) == parse_series("4 + 4*x + x^2")
        assert sylvester_resultant(g, unit) == parse_series("4 + 4*x + x^2")
        assert sylvester_resultant(unit, P("3 - x")) == parse_series("1")

    def test_non_integral_coefficients(self):
        p1, p2 = P("y - 1/2*x"), P("y^2 - 2/3*x^3")
        assert sylvester_resultant(p1, p2) == parse_series("1/4*x^2 - 2/3*x^3")
        p1, p2 = P("1/3*y^2 - 5/7*x*y + 1/2*x^3"), P("2/5*y + 3/4*x^2")
        assert sylvester_resultant(p1, p2) == sylvester_by_bareiss(p1, p2)


    def test_matches_bareiss_on_large_seeded_pairs(self):
        # y-degrees up to 6, at most 8 together to keep Bareiss affordable
        rng = random.Random(33)
        degrees = set()
        for _ in range(16):
            m = rng.randint(0, 6)
            n = min(rng.randint(0, 8 - m), 6)
            p1, p2 = large_unitary(rng, m), large_unitary(rng, n)
            degrees.add((m, n))
            assert sylvester_resultant(p1, p2) == sylvester_by_bareiss(p1, p2)
        assert {(1, 3), (4, 3), (2, 6), (6, 1), (3, 0)} <= degrees

    def test_large_pairs_with_a_shared_factor_are_exact_zeros(self):
        rng = random.Random(31)
        degrees = set()
        for _ in range(5):
            c = rng.randint(1, 2)
            a, b = rng.randint(0, 6 - c), rng.randint(0, 6 - c)
            common = large_unitary(rng, c)
            p1, p2 = common * large_unitary(rng, a), common * large_unitary(rng, b)
            r = sylvester_resultant(p1, p2)
            assert r.is_zero() and r.is_exact
            degrees.add((p1.degree(), p2.degree()))
        assert {(4, 6), (3, 5), (4, 1)} <= degrees

    def test_leading_coefficient_with_a_power_of_two_root(self):
        # 256 - x vanishes at 2^8, the evaluation point the bound alone
        # would pick against a constant operand; the resultant is 3^2
        p1, unit = P("(256 - x)*y^2 + x*y + 1"), P("3")
        assert sylvester_resultant(p1, unit) == parse_series("9")
        assert sylvester_resultant(unit, p1) == parse_series("9")

    def test_large_negative_coefficients_are_pinned(self):
        # Res(y + A, g) = g(-A) for monic g of y-degree 3: every coefficient
        # but x's is negative and above 2^64, and deg p1 * deg p2 = 3 is odd
        p1 = P(f"y + {2**40}*x")
        p2 = P(f"y^3 + {7**30}*x^3*y + x - {3**45}*x^2 - {5**40}*x^5")
        expected = TruncatedSeries.make(QQ, "x", {
            1: 1, 2: -3**45, 3: -2**120, 4: -7**30 * 2**40, 5: -5**40,
        })
        assert sylvester_resultant(p1, p2) == expected
        assert sylvester_resultant(p2, p1) == -expected

    def test_product_formula_with_large_roots(self):
        # p1 = (y + a)(y + b)(y + c) against g of y-degree 5, so that
        # deg p1 * deg p2 = 15: the resultant is g(-a) g(-b) g(-c)
        roots = [f"{2**70}*x - 3*x^2", f"1/7*x - {5**33}*x^2", f"{3**50}*x^3"]
        p1 = P("*".join(f"(y + {a})" for a in roots))
        g = P(f"y^5 - {11**25}*x*y^2 + 1/3*x^4*y - {13**20}*x^7 + 2*x^2")
        expected = TruncatedSeries.constant(QQ, "x", 1)
        for a in roots:
            expected = expected * g.eval_on_branch(1, -parse_series(a))
        assert sylvester_resultant(p1, g) == expected
        assert sylvester_resultant(g, p1) == -expected


# adjoin clauses of the seeded tower set, with the generator monomials of
# their data
TOWER_CLAUSES = [
    ("adjoin a: a^2 - 2", ["a"]),
    ("adjoin a: a^2 - 3", ["a"]),
    ("adjoin a: a^2 - 2; adjoin b: b^3 - a - 1", ["a", "b", "a*b", "b^2"]),
]
# leading y-coefficients of second operands: of positive order, or a unit
# that vanishes at x = 2
TOWER_LEADS = ["x", "a*x^2", "(x - 2)", "(1 + a*x)*x"]
TOWER_KINDS = ("unitary", "lead", "shared", "qq")


def tower_coefficient(rng, monomials):
    """Text of a nonzero element: one or two rational multiples of 1 and
    the monomials."""
    chosen = rng.sample(["1"] + monomials, min(rng.randint(1, 2), len(monomials) + 1))
    terms = [f"{Fraction(rng.choice([-5, -3, -1, 1, 2, 4]), rng.choice([1, 2, 3]))}*{mono}"
             for mono in chosen]
    return "(" + " + ".join(terms) + ")"


def tower_body(rng, monomials, deg, lead="1"):
    """Text of a polynomial of y-degree deg with leading coefficient lead
    times an element, and up to two terms of x-degree at most 4 at each
    lower power of y, at least one at y^0."""
    terms = [f"{tower_coefficient(rng, monomials)}*{lead}*y^{deg}"]
    for j in range(deg):
        for _ in range(rng.randint(0 if j else 1, 2)):
            terms.append(f"{tower_coefficient(rng, monomials)}*x^{rng.randint(0, 4)}*y^{j}")
    return " + ".join(terms)


def tower_pairs(seed=17, count=2):
    """(kind, text1, text2), count pairs of each kind over each tower of
    TOWER_CLAUSES: both unitary ("unitary"), a second operand whose leading
    coefficient comes from TOWER_LEADS ("lead"), both multiplied by one
    factor ("shared"), and QQ data read in the tower ("qq").  y-degrees are
    1 to 3, with the shared factor of degree 1 included."""
    rng = random.Random(seed)
    out = []
    for tower, monomials in TOWER_CLAUSES:
        for kind in TOWER_KINDS:
            mons = [] if kind == "qq" else monomials
            top = 2 if kind == "shared" else 3
            for _ in range(count):
                lead = rng.choice(TOWER_LEADS) if kind == "lead" else "1"
                b1 = tower_body(rng, mons, rng.randint(1, top))
                b2 = tower_body(rng, mons, rng.randint(1, top), lead)
                if kind == "shared":
                    common = tower_body(rng, mons, 1)
                    b1, b2 = f"({common})*({b1})", f"({common})*({b2})"
                out.append((kind, f"{tower}; {b1}", f"{tower}; {b2}"))
    return out


def shifted_by_bareiss(p1, p2, t0):
    """Reference for shifted_resultant at T = t0: the Bareiss determinant
    of the Sylvester matrix of P1(t0 + U) and P2(U), P1's rows on top."""
    k, x = p1.field, p1.xvar
    u = YPolynomial.make([TruncatedSeries.constant(k, x, t0), TruncatedSeries.constant(k, x, 1)])
    shifted = YPolynomial.make([TruncatedSeries.zero(k, x)])
    for c in reversed(p1.coeffs):
        shifted = shifted * u + c
    return sylvester_by_bareiss(shifted, p2)


def value_at(res, t0):
    """A polynomial in T with series coefficients, at T = t0."""
    total = TruncatedSeries.zero(res.field, res.xvar)
    for j, c in enumerate(res.coeffs):
        total = total + c.scale(t0 ** j)
    return total


class TestTowerResultant:
    """The packed kernel over towers against Bareiss on the same matrix."""

    def test_seeded_tower_set_matches_bareiss(self):
        seen, fields = set(), set()
        for kind, t1, t2 in tower_pairs():
            p1, p2 = P(t1), P(t2)
            r = sylvester_resultant(p1, p2)
            assert r == sylvester_by_bareiss(p1, p2), (t1, t2)
            assert r.is_zero() == (kind == "shared")
            seen.add((kind, p1.field.level, p2.is_unitary()))
            fields.add(p1.field)
        assert len(fields) == 3
        assert {("lead", 1, False), ("lead", 2, False), ("shared", 2, True),
                ("qq", 1, True), ("qq", 2, True)} <= seen

    def test_tower_second_operand_not_unitary(self):
        # the roots of y^2 - 2x^3 are +-a x^(3/2), and a^2 = 2
        p1 = P("adjoin a: a^2 - 2; y^2 - 2*x^3")
        p2 = P("adjoin a: a^2 - 2; a*x*y + x^2")
        assert sylvester_resultant(p1, p2) == parse_series("adjoin a: a^2 - 2; x^4 - 4*x^5")
        assert intersection_number(p1, p2) == 4


class TestShiftedResultant:
    def test_simple_pair(self):
        r = shifted_resultant(P("y - x"), P("y - 2*x"))
        monic = r if r.coeffs[-1].coefficient(0) == 1 else -r
        assert format_polynomial(monic).replace("T", "y") == "y + x"
        assert newton_polygon_of(r) == make_elementary(1, 1)

    def test_coinciding_roots(self):
        r = shifted_resultant(P("y - x"), P("y - x"))
        monic = r if r.coeffs[-1].coefficient(0) == 1 else -r
        assert format_polynomial(monic) == "T"

    def test_degree_and_constant_term(self):
        rng = random.Random(3)
        for _ in range(10):
            f = YPolynomial.from_terms({
                (0, rng.randint(1, 3)): Fraction(1),
                (rng.randint(1, 3), 0): Fraction(rng.choice([1, 2, -1])),
            })
            g = YPolynomial.from_terms({
                (0, rng.randint(1, 2)): Fraction(1),
                (rng.randint(1, 3), 0): Fraction(rng.choice([1, 3, -2])),
            })
            r = shifted_resultant(f, g)
            assert r.degree() == f.degree() * g.degree()
            assert r.coeffs[0] == sylvester_resultant(f, g)

    def test_realization_orientation(self):
        # asymmetric pair: the identity needs the realization orientation
        p1, p2 = P("y - x"), P("y^2 - 2*x")
        assert is_nondegenerate_pair(p1, p2)
        res = shifted_resultant(p1, p2)
        assert newton_polygon_of(res) == make_elementary(1, 2)
        lhs = realization_polygon(res)
        rhs = product(realization_polygon(p1), realization_polygon(p2))
        assert lhs == rhs == make_elementary(2, 1)
        assert newton_polygon_of(res) != product(newton_polygon_of(p1), newton_polygon_of(p2))


class TestTowerShiftedResultant:
    def test_pinned_pair(self):
        r = shifted_resultant(P("adjoin u: u^2 - 2; y - u*x"), P("adjoin u: u^2 - 2; y + u*x"))
        assert format_polynomial(r) == "-T + (2*u)*x"

    def test_seeded_tower_set_matches_bareiss_at_each_t(self):
        # deg T = m*n, so the values at T = 0, ..., m*n pin the polynomial
        checked = set()
        for kind, t1, t2 in tower_pairs():
            p1, p2 = P(t1), P(t2)
            m, n = p1.degree(), p2.degree()
            if kind not in ("unitary", "qq") or m * n > 6:
                continue
            r = shifted_resultant(p1, p2)
            assert r.degree() == m * n
            for t0 in range(m * n + 1):
                assert value_at(r, t0) == shifted_by_bareiss(p1, p2, t0), (t1, t2, t0)
            checked.add((kind, p1.field.level))
        assert {("unitary", 1), ("unitary", 2), ("qq", 1)} <= checked


class TestLevelResultant:
    """Res_y(f - T, g) in one packed resultant against the Sylvester
    resultants of f - k and g, one value of T at a time."""

    @pytest.mark.parametrize("text", [
        "(y^2 - x^3)*(y - 2*x^2) + x^4*y",
        "adjoin u: u^2 - 3; (y^2 - u*x^3)*(y - x)",
        "adjoin a: a^2 - 2; adjoin b: b^3 - a - 1; (y^2 - b*x^3)*(y - a*x) + x^5",
        "(1 + x)*y^2 - x^3",
        "y - 1/2*x^2",
    ], ids=["qq", "quadratic", "two-step", "unitary-non-monic", "y-degree-1"])
    def test_values_are_sylvester_resultants(self, text):
        g = P(text)
        r = series.level_resultant(g, g.dy())
        assert r.yvar == "T" and r.field == g.field
        # deg_T is at most deg_y g - 1, so n + 1 values pin every coefficient
        assert r.degree() <= max(g.degree() - 1, 0)
        for k in range(g.degree() + 1):
            assert value_at(r, k) == sylvester_resultant(g - k, g.dy()), (text, k)

    def test_second_operand_not_unitary_over_nested_towers(self):
        f = P("y^2 - x^3")
        g = P("adjoin a: a^2 - 2; a*x*y + x^2")
        r = series.level_resultant(f, g)
        assert r.field == g.field
        for k in range(3):
            assert value_at(r, k) == sylvester_resultant(f - k, g), k

    @pytest.mark.parametrize("text, error", [
        ("(1 + x + 2*x*y)*y^3 - x^5", NotUnitary),
        ("y^2 - x^3 + O(x^9)", PrecisionInsufficient),
    ])
    def test_contract_of_the_sylvester_resultant(self, text, error):
        g = P(text)
        with pytest.raises(error):
            series.level_resultant(g, g.dy())
        with pytest.raises(error):
            sylvester_resultant(g, g.dy())


class TestIntersection:
    def test_worked(self):
        assert intersection_number(P("y - x^2"), P("y^2 + x^3")) == 3

    def test_transverse_lines(self):
        assert intersection_number(P("y"), P("y - x")) == 1

    def test_not_isolated(self):
        f = P("y^2 - x^3")
        with pytest.raises(NotIsolated):
            intersection_number(f, f)

    def test_meeting_away_from_the_origin_rejected(self):
        # the curves meet at (0, 0) once and at (0, 1); ord_x Res_y is 2
        f1, f2 = P("y^2 - y + x"), P("y^2 - y - x")
        assert sylvester_resultant(f1, f2).order() == 2
        with pytest.raises(NotLocal):
            intersection_number(f1, f2)

    def test_curves_missing_the_origin(self):
        assert intersection_number(P("y - 1"), P("y - x")) == 0
