import random
from fractions import Fraction

import pytest

from newtonpoly import puiseux
from newtonpoly.errors import IdenticallyZero, NotSquareFree, NotUnitary
from newtonpoly.field import QQ
from newtonpoly.puiseux import (
    PuiseuxBranch,
    branch_multiplicity,
    format_branch,
    order_along_branch,
    parse_branch,
    puiseux_expand,
    root_valuations,
)
from newtonpoly.series import parse_polynomial, sylvester_resultant


def P(text):
    return parse_polynomial(text)


def branch_map(branches):
    return {b.valuation(): b for b in branches}


class TestExpand:
    def test_cusp(self):
        (b,) = puiseux_expand(P("y^2 - x^3"), t_precision=10)
        assert b.ramification == 2
        assert b.conjugacy_size == 1
        assert b.y_series.coeffs[0] == (3, QQ.one())
        assert b.valuation() == Fraction(3, 2)

    def test_three_factor_product(self):
        f = P("y - x") * P("y - x^2") * P("y^2 - x^3")
        branches = puiseux_expand(f, t_precision=12)
        vals = sorted(b.valuation() for b in branches)
        assert vals == [1, Fraction(3, 2), 2]
        ms = {b.valuation(): b.ramification * b.conjugacy_size for b in branches}
        assert ms == {1: 1, 2: 1, Fraction(3, 2): 2}

    def test_node_binomial_series(self):
        branches = puiseux_expand(P("y^2 - x^2 - x^3"), t_precision=6)
        assert len(branches) == 2
        series = {tuple(b.y_series.coeffs[:3]) for b in branches}
        half = Fraction(1, 2)
        eighth = Fraction(-1, 8)
        expected = {
            ((1, QQ.one()), (2, QQ.from_rational(half)), (3, QQ.from_rational(eighth))),
            ((1, -QQ.one()), (2, QQ.from_rational(-half)), (3, QQ.from_rational(-eighth))),
        }
        assert series == expected

    def test_root_count_conservation(self):
        rng = random.Random(5)
        for _ in range(15):
            f = None
            for _ in range(rng.randint(1, 3)):
                a, b = rng.randint(1, 3), rng.randint(1, 4)
                c = rng.choice([1, 2, -1, -3])
                g = parse_polynomial(f"y^{a} - {c}*x^{b}" if c > 0 else f"y^{a} + {-c}*x^{b}")
                f = g if f is None else f * g
            try:
                branches = puiseux_expand(f, t_precision=8)
            except NotSquareFree:
                continue
            assert sum(b.ramification * b.conjugacy_size for b in branches) == f.degree()

    def test_branch_substitutes_to_zero(self):
        f = P("y^3 - x^4") * P("y - x^2")
        for b in puiseux_expand(f, t_precision=16):
            val = f.lift_field(b.field).eval_on_branch(b.ramification, b.y_series)
            assert val.is_zero_to_precision()
            d = f.dy().lift_field(b.field).eval_on_branch(b.ramification, b.y_series)
            assert not d.is_zero_to_precision()  # square-free: derivative finite order

    def test_square_free_rejected(self):
        with pytest.raises(NotSquareFree):
            puiseux_expand(P("y^2 - 2*x*y + x^2"))

    def test_tower_square_rejected(self):
        with pytest.raises(NotSquareFree):
            puiseux_expand(P("adjoin u: u^2 - 3; (y - u*x)^2*(y^2 - x^3)"))

    def test_unitary_required(self):
        with pytest.raises(NotUnitary):
            puiseux_expand(P("x*y^2 - x^3"))

    def test_y_divisible_split(self):
        branches = puiseux_expand(P("y^2 - x*y"), t_precision=6)
        axis = [b for b in branches if b.y_series.is_zero()]
        assert len(axis) == 1
        assert axis[0].ramification == 1
        assert sum(b.ramification * b.conjugacy_size for b in branches) == 2

    def test_extension_branch(self):
        (b,) = puiseux_expand(P("y^2 - 2*x^3"), t_precision=8)
        assert b.field.degree() == 2
        c = b.y_series.coeffs[0][1]
        assert c * c == b.field.from_rational(2)

    def test_valuation_zero_roots_expanded(self):
        f = P("y^2 - y*x^2 - y + x^5")  # one root near y = 1, one near 0
        branches = puiseux_expand(f, t_precision=8)
        assert sum(b.ramification * b.conjugacy_size for b in branches) == 2
        vals = sorted(b.valuation() for b in branches)
        assert vals[0] == 0 or not branches[1].passes_through_origin()

    def test_irreducible_elementary(self):
        for a, b in [(2, 3), (3, 4), (4, 7), (2, 9)]:
            branches = puiseux_expand(parse_polynomial(f"y^{a} - x^{b}"), t_precision=4 * b)
            assert len(branches) == 1
            assert branches[0].ramification * branches[0].conjugacy_size == a

    def test_deterministic(self):
        f = P("y^3 - x^4") * P("y - x")
        one = [format_branch(b) for b in puiseux_expand(f, t_precision=12)]
        two = [format_branch(b) for b in puiseux_expand(f, t_precision=12)]
        assert one == two

    def test_tower_bound(self):
        from newtonpoly.errors import ExtensionTooDeep

        with pytest.raises(ExtensionTooDeep):
            puiseux_expand(P("y^2 - 2*x^3"), t_precision=8, max_tower_degree=1)


class TestSquareFree:
    """Square-freeness is certified by the discriminant Res_y(f, f_y)."""

    def test_not_square_free_rejected(self, monkeypatch):
        calls = []

        def spy(p1, p2):
            calls.append((p1, p2))
            return sylvester_resultant(p1, p2)

        monkeypatch.setattr(puiseux, "sylvester_resultant", spy)
        f = P("(y^2 - x^3)^2*(y - x)")
        with pytest.raises(NotSquareFree):
            puiseux_expand(f)
        assert calls == [(f, f.dy())]


class TestHenselPrecision:
    """Branch series and their precisions at a target that is not a power of 2."""

    PINNED = {
        "(y^2 - x^3 - x^4)*(y + x - 2*x^2)": [
            ("x = t^2; y = t^3 + 1/2*t^5 - 1/8*t^7 + 1/16*t^9 - 5/128*t^11 + 7/256*t^13"
             " - 21/1024*t^15 + O(t^16); conj = 1; field = QQ", 16),
            ("x = t^1; y = -t + 2*t^2 + O(t^14); conj = 1; field = QQ", 14),
        ],
        "y^2 - 2*x^2 - x^3": [
            ("x = t^1; y = (a1)*t + (1/4*a1)*t^2 + (-1/32*a1)*t^3 + (1/128*a1)*t^4"
             " + (-5/2048*a1)*t^5 + (7/8192*a1)*t^6 + (-21/65536*a1)*t^7"
             " + (33/262144*a1)*t^8 + (-429/8388608*a1)*t^9 + (715/33554432*a1)*t^10"
             " + (-2431/268435456*a1)*t^11 + (4199/1073741824*a1)*t^12"
             " + (-29393/17179869184*a1)*t^13 + O(t^14); conj = 2;"
             " field = QQ[a1: a1^2 - 2]", 14),
        ],
        "y^3 - x^5 + x^4*y": [
            ("x = t^3; y = t^5 - 1/3*t^7 + 1/81*t^11 + 1/243*t^13 - 4/6561*t^17"
             " + O(t^18); conj = 1; field = QQ", 18),
        ],
    }

    @pytest.mark.parametrize("text", sorted(PINNED))
    def test_pinned_at_precision_13(self, text):
        branches = puiseux_expand(P(text), t_precision=13)
        got = [(format_branch(b), b.y_series.precision) for b in branches]
        assert got == self.PINNED[text]


def test_hensel_lift_over_a_cubic_step_at_precision_11():
    # one class of three conjugate smooth branches over QQ(2^(1/3)), each
    # lifted by Newton steps at working precisions 2, 4, 8, 11
    (b,) = puiseux_expand(P("y^3 - 2*x^3 - x^4"), t_precision=11)
    assert format_branch(b) == (
        "x = t^1; y = (a1)*t + (1/6*a1)*t^2 + (-1/36*a1)*t^3 + (5/648*a1)*t^4"
        " + (-5/1944*a1)*t^5 + (11/11664*a1)*t^6 + (-77/209952*a1)*t^7"
        " + (187/1259712*a1)*t^8 + (-935/15116544*a1)*t^9"
        " + (21505/816293376*a1)*t^10 + (-55913/4897760256*a1)*t^11 + O(t^12);"
        " conj = 3; field = QQ[a1: a1^3 - 2]"
    )
    assert b.y_series.precision == 12


class TestRootValuations:
    def test_cusp(self):
        assert root_valuations(P("y^2 - x^3")) == [(Fraction(3, 2), 2)]

    def test_product(self):
        f = P("y - x") * P("y - x^2") * P("y^2 - x^3")
        assert set(root_valuations(f)) == {(Fraction(2), 1), (Fraction(3, 2), 2), (Fraction(1), 1)}

    def test_matches_expansion(self):
        f = P("y^2 - x^3") * P("y - 2*x^3")
        pairs = dict(root_valuations(f))
        branches = puiseux_expand(f, t_precision=16)
        counted = {}
        for b in branches:
            v = b.valuation()
            counted[v] = counted.get(v, 0) + b.ramification * b.conjugacy_size
        assert counted == pairs

    def test_y_divisible_contributes_no_pair(self):
        pairs = root_valuations(P("y^2 - x*y"))
        assert pairs == [(Fraction(1), 1)]

    def test_monoid_substrate(self):
        # same valuation data, different coefficients: equal polygons
        f1 = P("y - x") * P("y^2 - x^3")
        f2 = P("y - 5*x") * P("y^2 - 7*x^3")
        from newtonpoly.series import newton_polygon_of

        assert newton_polygon_of(f1) == newton_polygon_of(f2)


class TestOrderAlongBranch:
    def test_coordinates_on_cusp(self):
        (b,) = puiseux_expand(P("y^2 - x^3"), t_precision=10)
        assert order_along_branch(P("x"), b) == 2
        assert order_along_branch(P("y"), b) == 3

    def test_identically_zero(self):
        f = P("y^2 - x^3")
        (b,) = puiseux_expand(f, t_precision=10)
        with pytest.raises(IdenticallyZero):
            order_along_branch(f, b)

    def test_polar_on_axis_branch(self):
        # branch y = 0, x = t of the cusp polar 2y: order of -3x^2 is 2
        axis = PuiseuxBranch(1, __import__("newtonpoly").TruncatedSeries.zero(QQ, "t"), 1)
        assert order_along_branch(P("-3*x^2"), axis) == 2

    def test_multiplicities(self):
        (b,) = puiseux_expand(P("y^2 - x^3"), t_precision=8)
        assert branch_multiplicity(b) == 2
        (s,) = puiseux_expand(P("y - x^2"), t_precision=8)
        assert branch_multiplicity(s) == 1
        axis = PuiseuxBranch(1, __import__("newtonpoly").TruncatedSeries.zero(QQ, "t"), 1)
        assert branch_multiplicity(axis) == 1


class TestBranchFormat:
    def test_round_trip_rational(self):
        (b,) = puiseux_expand(P("y^2 - x^3"), t_precision=9)
        rb = parse_branch(format_branch(b))
        assert (rb.ramification, rb.conjugacy_size, rb.y_series) == (
            b.ramification,
            b.conjugacy_size,
            b.y_series,
        )

    def test_round_trip_extension(self):
        (b,) = puiseux_expand(P("y^2 - 2*x^3"), t_precision=9)
        rb = parse_branch(format_branch(b))
        assert rb.y_series == b.y_series
        assert rb.field == b.field

    def test_defining_polynomial_with_y_rejected(self):
        with pytest.raises(ValueError):
            parse_branch("x = t^1; y = t; conj = 1; field = QQ[u: u^2 - 2*_unused_y]")
