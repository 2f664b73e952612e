import itertools
import random
from fractions import Fraction

import pytest

from newtonpoly import invariants
from newtonpoly.corpus import curve_from_parameterisation, merle_corpus, reducible_corpus
from newtonpoly.errors import (
    DomainError,
    GcdChainInvalid,
    GenericityFailure,
    NotIsolated,
    NotLocal,
    NotMerleShaped,
    NotMinimal,
    NotRealizable,
    NotSingular,
    NotUnitary,
    ParameterOutOfRange,
)
from newtonpoly.invariants import (
    JacobianPolygon,
    briancon_speder_polygons,
    cerf_directions,
    cerf_polygon,
    certified_polar_polygons,
    discriminant_polygon,
    dual_degree,
    invariants_from_polygon,
    jacobian_polygon_direct,
    merle_polygon,
    milnor_number,
    semigroup_from_polygon,
    validate_semigroup,
)
from newtonpoly.polygon import dominates, make_elementary, parse_compact
from newtonpoly.product import is_special
from newtonpoly.series import (
    YPolynomial,
    intersection_number,
    parse_polynomial,
    sylvester_resultant,
)


def P(text):
    return parse_polynomial(text)


class TestSemigroups:
    def test_cusp(self):
        s = validate_semigroup([2, 3])
        assert s.gcd_chain == (2, 1)
        assert s.quotients == (2,)

    def test_genus_two(self):
        s = validate_semigroup([4, 6, 13])
        assert s.gcd_chain == (4, 2, 1)
        assert s.quotients == (2, 2)

    def test_gcd_chain_invalid(self):
        with pytest.raises(GcdChainInvalid):
            validate_semigroup([4, 6, 8])

    def test_not_minimal(self):
        with pytest.raises(NotMinimal):
            validate_semigroup([2, 3, 7])  # 7 = 2 + 2 + 3 already inside

    def test_not_realizable(self):
        # gcd chain fine but 13 < n_1 * 6 = 12 fails ... pick b2 below n1*b1
        with pytest.raises(NotRealizable):
            validate_semigroup([4, 6, 11])

    def test_increasing_required(self):
        with pytest.raises(GcdChainInvalid):
            validate_semigroup([3, 3])


class TestMerle:
    def test_cusp(self):
        assert repr(merle_polygon(validate_semigroup([2, 3]))) == "{2/1}"

    def test_a2k_family(self):
        for k in range(1, 6):
            j = merle_polygon(validate_semigroup([2, 2 * k + 1]))
            assert j.pairs == ((2 * k, 1),)

    def test_genus_two(self):
        j = merle_polygon(validate_semigroup([4, 6, 13]))
        assert j.pairs == ((5, 1), (11, 2))
        assert j.length() == 16

    def test_inversion_examples(self):
        assert semigroup_from_polygon(JacobianPolygon(((2, 1),))).generators == (2, 3)
        assert semigroup_from_polygon(JacobianPolygon(((5, 1), (11, 2)))).generators == (4, 6, 13)

    def test_not_merle_shaped(self):
        with pytest.raises(NotMerleShaped):
            semigroup_from_polygon(JacobianPolygon(((3, 2), (4, 1))))

    def test_round_trip_small(self):
        for gens in [(2, 5), (3, 4), (3, 5), (2, 7), (4, 6, 13), (6, 9, 19), (4, 10, 21)]:
            s = validate_semigroup(gens)
            assert semigroup_from_polygon(merle_polygon(s)) == s


class TestDirect:
    def test_cusp(self):
        assert jacobian_polygon_direct(P("y^2 - x^3")).pairs == ((2, 1),)

    def test_ak(self):
        j = jacobian_polygon_direct(P("y^2 - x^7"))
        assert j.pairs == ((6, 1),)
        assert j.length() == milnor_number(P("y^2 - x^7")) == 6

    def test_e6(self):
        j = jacobian_polygon_direct(P("y^3 - x^4"))
        assert j.view == make_elementary(6, 2)

    def test_merle_agreement_genus2(self):
        f = curve_from_parameterisation(4, [(6, 1), (7, 1)])
        assert jacobian_polygon_direct(f).view == merle_polygon(validate_semigroup([4, 6, 13])).view

    def test_reducible(self):
        f = P("y^2 - x^3") * P("y - x")
        j = jacobian_polygon_direct(f)
        assert j.length() == milnor_number(f) == 5
        assert j.height() == f.multiplicity() - 1 == 2

    def test_seed_independence(self):
        # the directions are walked in order, so the seed is ignored; the two
        # conjugate polar branches y = +-(-5a/3)^(1/2) x^2 give a pair each
        f = P("y^3 - x^5")
        polygons = {jacobian_polygon_direct(f, seed=s) for s in (1, 7, 123)}
        assert polygons == {next(certified_polar_polygons(f))}
        assert repr(polygons.pop()) == "{4/1}+{4/1}"

    def test_non_unitary_polar_direction_retried(self, monkeypatch):
        # a = 1 is tangent to y + x and is skipped unexpanded; the polar
        # f_y - 3*f_x loses its y^2 term at x = 0, and the walk passes over it
        f = P("(y + x)*(y - 1/2*x^2)*(y + 2*x^3)")
        with pytest.raises(NotUnitary):
            invariants._polar_pairs(f, f.dy() - f.dx() * 3)
        outcomes = []
        pairs = invariants._polar_pairs

        def recording(f, polar, start):
            try:
                j = pairs(f, polar, start)
            except DomainError as exc:
                outcomes.append(type(exc))
                raise
            outcomes.append(repr(j))
            return j

        monkeypatch.setattr(invariants, "_polar_pairs", recording)
        first = list(itertools.islice(certified_polar_polygons(f), 3))
        assert outcomes == ["{2/1}+{4/1}", NotUnitary, "{2/1}+{4/1}", "{2/1}+{4/1}"]
        assert first == [jacobian_polygon_direct(f)] * 3
        assert first[0].length() == 6

    def test_critical_point_off_the_origin(self):
        f = P("y^4 - 1/2*x^3*y^2 - 2*x^5*y + 1/16*x^6 - x^7")
        assert repr(jacobian_polygon_direct(f)) == "{5/1}+{11/2}"

    def test_specialness(self):
        for f in [P("y^2 - x^5"), P("y^3 - x^4"), P("y^2 - x^3") * P("y - x")]:
            assert is_special(jacobian_polygon_direct(f).view)

    def test_non_isolated_rejected(self):
        with pytest.raises(NotIsolated):
            milnor_number(P("y^2 - 2*x*y + x^2"))  # (y - x)^2, non-reduced

    def test_uncertified_polar_direction_skipped(self, monkeypatch):
        # a = 1 is the direction of the branch y = -x of the node: the pairs of
        # the polar f_y - f_x sum to 2, not to mu = 1, so the walk skips that
        # tangent direction before any expansion and expands a = 2 only
        f = P("y^2 - x^2 - x^3")
        tangent = invariants._tangent_test(f)
        assert [a for a in range(1, 20) if tangent(a)] == [1]
        assert repr(invariants._polar_pairs(f, f.dy() - f.dx())) == "{2/1}"
        polars = []
        pairs = invariants._polar_pairs
        monkeypatch.setattr(invariants, "_polar_pairs",
                            lambda f, polar, start: polars.append(polar) or pairs(f, polar, start))
        assert repr(jacobian_polygon_direct(f)) == "{1/1}"
        assert polars == [f.dy() - f.dx() * 2]

    def test_pairs_checked_against_the_cerf_polygon(self, monkeypatch):
        monkeypatch.setattr(invariants, "cerf_polygon", lambda f: parse_compact("{3/1}"))
        with pytest.raises(GenericityFailure):
            jacobian_polygon_direct(P("y^2 - x^3"))

    def test_origin_not_singular(self):
        # the first and the last curve miss the origin, the second is smooth there
        for text in ["(y^2 - 1/2*x + 2)*(y^2 - 1/2*x + 10)", "x + y^2", "y^2 - x^3 + 1"]:
            with pytest.raises(NotSingular):
                jacobian_polygon_direct(P(text))

    def test_one_polar_expansion(self, monkeypatch):
        calls = []
        expand = invariants.puiseux_expand

        def counting(*args, **kwargs):
            calls.append(1)
            return expand(*args, **kwargs)

        monkeypatch.setattr(invariants, "puiseux_expand", counting)
        for f in [f for _, f in merle_corpus()] + [f for f, _ in reducible_corpus()]:
            calls.clear()
            jacobian_polygon_direct(f)
            assert len(calls) == 1, f

    @pytest.mark.parametrize("text, pairs", [
        ("x*y", "{1/1}"),
        ("x*y*(x+y)", "{2/1}+{2/1}"),
        ("x^2*y + y^4", "{2/1}+{3/1}"),
        ("x^3 + x*y^3", "{7/2}"),
    ])
    def test_germ_not_unitary_in_y(self, text, pairs):
        f = P(text)
        j = jacobian_polygon_direct(f)
        assert repr(j) == pairs
        assert j.length() == milnor_number(f)


def _mixed_slope_products(count):
    rng = random.Random(20)
    shapes = [(1, 1), (1, 2), (2, 1), (2, 3), (3, 2), (1, 3)]
    coefficients = ["1", "2", "-1", "1/2", "-2/3", "3"]
    curves = []
    while len(curves) < count:
        factors = {
            f"(y^{a} - ({rng.choice(coefficients)})*x^{b})"
            for a, b in (rng.choice(shapes) for _ in range(rng.randint(2, 3)))
        }
        f = P("*".join(sorted(factors)))
        if f.multiplicity() >= 2 and f.is_unitary():
            curves.append(f)
    return curves


class TestDirections:
    """By Teissier every transversal polar direction gives the same pairs,
    one per polar branch."""

    def test_first_three_directions_give_equal_pairs(self):
        curves = [f for _, f in merle_corpus()] + [f for f, _ in reducible_corpus()]
        curves += _mixed_slope_products(20) + [P("(x + 3*y)*(y + x^2)*(y + 2*x)")]
        for f in curves:
            first = list(itertools.islice(certified_polar_polygons(f), 3))
            assert len(first) == 3 and first == [first[0]] * 3, f

    def test_conjugate_polar_branches_give_a_pair_each(self):
        # for a = 1, 2 the polar branches of this product are conjugate over a
        # quadratic field, for a = 11 they are rational
        f = P("(x + 3*y)*(y + x^2)*(y + 2*x)")
        start = invariants._polar_start(cerf_polygon(f))
        for a in (1, 2, 11):
            assert repr(invariants._polar_pairs(f, f.dy() - f.dx() * a, start)) == "{2/1}+{2/1}"
        assert repr(jacobian_polygon_direct(f)) == "{2/1}+{2/1}"


class TestPolarPrecision:
    """The polar curve is expanded first at the precision that the Cerf
    polygon bounds and doubled only when a contact is undecided."""

    def test_start_precision(self):
        assert invariants._polar_start(parse_compact("{2/1}")) == 4
        assert invariants._polar_start(parse_compact("{5/1}+{11/2}")) == 7
        assert invariants._polar_start(parse_compact("{7/2}")) == 5

    def test_escalation_from_precision_1(self, monkeypatch):
        curves = [f for _, f in merle_corpus()] + [f for f, _ in reducible_corpus()]
        curves.append(P("x^2*y + y^4"))
        expected = [jacobian_polygon_direct(f) for f in curves]
        calls = []
        expand = invariants.puiseux_expand

        def counting(*args, **kwargs):
            calls.append(kwargs["t_precision"])
            return expand(*args, **kwargs)

        monkeypatch.setattr(invariants, "_polar_start", lambda cerf: 1)
        monkeypatch.setattr(invariants, "puiseux_expand", counting)
        escalated = 0
        for f, j in zip(curves, expected):
            calls.clear()
            assert jacobian_polygon_direct(f) == j
            assert calls == [2**i for i in range(len(calls))], f
            escalated += len(calls) > 1
        assert escalated >= 8
        calls.clear()
        jacobian_polygon_direct(P("y^2 - x^3"))
        assert calls == [1, 2, 4]  # contact 3 is decided at t-precision 4

    def test_start_gives_the_pairs_of_the_resultant_bound(self):
        curves = [f for _, f in merle_corpus()] + [f for f, _ in reducible_corpus()]
        curves += _mixed_slope_products(20)
        for f in curves:
            start = invariants._polar_start(cerf_polygon(f))
            tangent = invariants._tangent_test(f)
            for a in itertools.islice((a for a in range(1, 20) if not tangent(a)), 3):
                polar = f.dy() - f.dx() * a
                try:
                    at_bound = invariants._polar_pairs(f, polar)
                except DomainError as exc:
                    with pytest.raises(type(exc)):
                        invariants._polar_pairs(f, polar, start)
                    continue
                assert invariants._polar_pairs(f, polar, start) == at_bound, f


class TestCerf:
    def test_cusp(self):
        assert cerf_polygon(P("y^2 - x^3")) == parse_compact("{2/1}")

    def test_merged_polygon_of_two_classes(self):
        f = P("(y^2 - x^3)*(y^2 - 2*x^3)")
        assert cerf_polygon(f) == parse_compact("{15/3}")
        assert repr(jacobian_polygon_direct(f)) == "{5/1}+{10/2}"

    def test_tower_curve(self):
        f = P("adjoin u: u^2 - 3; (y^2 - u*x^3)*(y - x)")
        assert cerf_polygon(f) == parse_compact("{2/1}+{3/1}")
        assert repr(jacobian_polygon_direct(f)) == "{2/1}+{3/1}"

    def test_tangent_direction_rejected(self):
        f = P("x^2 - y^3")  # the line x = 0 is the tangent
        a, g = next(cerf_directions(f))
        assert a == 1
        assert discriminant_polygon(g) == cerf_polygon(f) == parse_compact("{2/1}")
        assert discriminant_polygon(f) != cerf_polygon(f)  # the polygon for a = 0

    def test_same_polygon_in_three_directions(self):
        curves = [f for _, f in merle_corpus()] + [f for f, _ in reducible_corpus()]
        curves += [P("x^2 - y^3"), P("(y + x)*(y - 1/2*x^2)*(y + 2*x^3)")]
        for f in curves:
            polygons = [discriminant_polygon(g) for _, g in itertools.islice(cerf_directions(f), 3)]
            assert len(polygons) == 3 and set(polygons) == {cerf_polygon(f)}, f


class TestMilnor:
    def test_classical_values(self):
        assert milnor_number(P("y^2 - x^3")) == 2
        assert milnor_number(P("y^2 - x^4")) == 3
        assert milnor_number(P("y^3 - x^4")) == 6
        for f, mu in reducible_corpus():
            assert milnor_number(f) == mu

    def test_critical_point_off_the_origin_not_counted(self):
        # f also has a critical point at (1, 1); mu at the origin is 2
        f = P("y^2 - x^3 + 11/4*x^2*y^2 - 5/2*x*y^3")
        assert milnor_number(f) == 2
        # these coordinates put (1, 1) on the line x = 0, where the global
        # resultant of the partials also counts it
        g = f.substitute_linear(1, 1, 2, 1)
        assert sylvester_resultant(g.dx(), g.dy()).order() == 3
        with pytest.raises(NotLocal):
            intersection_number(g.dx(), g.dy())

    def test_product_of_mixed_slopes(self):
        assert milnor_number(P("(y - x)*(y - 2/3*x)*(y - 1/2*x^2)")) == 4


    def test_unitary_germ_taken_as_it_is(self, monkeypatch):
        shears = []
        substitute = YPolynomial.substitute_linear

        def counting(self, *args):
            shears.append(args)
            return substitute(self, *args)

        monkeypatch.setattr(YPolynomial, "substitute_linear", counting)
        f = P("(y^3 - x^5)*(y^3 - 2*x^5)*(y^2 - 3*x^7)")
        assert milnor_number(f) == 90  # Kouchnirenko: 2V - a - b + 1 = 114 - 17 - 8 + 1
        assert shears == []
        # f_x(0, y) = 0 while f_y(0, y) has roots other than 0: a = 1 counts it
        assert milnor_number(P("y^3 - x^5 + y^9")) == 8
        assert shears == [(1, -1, 0, 1)]

    def test_tower_germ(self):
        f = P("adjoin u: u^2 - 3; (y^3 - u*x^5)*(y^3 - x^5)*(y - x^2)")
        assert milnor_number(f) == 64

    def test_germ_of_one_linear_form_not_isolated(self):
        # a partial vanishes identically in every unitary shear
        for text in ("y^2", "1 + x^2", "1"):
            with pytest.raises(NotIsolated):
                milnor_number(P(text))

    def test_origin_not_a_critical_point(self):
        # f = u*(u + 8) with u = y^2 - x/2 + 2: the partials share the factor
        # u + 4, a curve of critical points that misses the origin
        assert milnor_number(P("(y^2 - 1/2*x + 2)*(y^2 - 1/2*x + 10)")) == 0
        assert milnor_number(P("y - x^2")) == milnor_number(P("x + y^2")) == 0


class TestReports:
    def test_cusp_report(self):
        rep = invariants_from_polygon(JacobianPolygon(((2, 1),)))
        assert (rep.mu_n, rep.mu_n1, rep.class_diminution) == (2, 1, 3)
        assert rep.theta2 == 2 and rep.theta1 == Fraction(2, 3)
        assert rep.determinacy == 3 and rep.is_Ak
        assert (rep.delta_lower, rep.delta_upper) == (2, 3)

    def test_genus_two_report(self):
        rep = invariants_from_polygon(JacobianPolygon(((5, 1), (11, 2))))
        assert rep.mu_n == 16 and rep.mu_n1 == 3
        assert rep.theta2 == Fraction(11, 2) and rep.theta1 == Fraction(11, 13)
        assert rep.determinacy == 6 and not rep.is_Ak

    def test_ak_characterisation(self):
        rep = invariants_from_polygon(JacobianPolygon(((7, 1),)))
        assert rep.theta2 == rep.mu_n == 7 and rep.is_Ak


class TestDualDegree:
    def test_examples(self):
        assert dual_degree(3, 2, [(1, 1)]) == 4
        assert dual_degree(3, 2, [(2, 1)]) == 3
        assert dual_degree(3, 3, []) == 12

    def test_bad_input(self):
        with pytest.raises(ParameterOutOfRange):
            dual_degree(1, 2, [])


class TestBrianconSpeder:
    def test_beta4(self):
        special, generic = briancon_speder_polygons(4)
        assert special.pairs == ((8, 2), (48, 6))
        assert generic.pairs == ((56, 7),)
        assert special.length() == generic.length() == 56
        assert (special.height(), generic.height()) == (8, 7)
        assert dominates(special.view, generic.view)
        assert not dominates(generic.view, special.view)

    def test_beta7(self):
        special, generic = briancon_speder_polygons(7)
        assert special.pairs == ((14, 2), (168, 12))
        assert generic.pairs == ((182, 13),)

    def test_out_of_range(self):
        with pytest.raises(ParameterOutOfRange):
            briancon_speder_polygons(3)
        with pytest.raises(ParameterOutOfRange):
            briancon_speder_polygons(5)  # 11 not divisible by 3


class TestJacobianPolygonType:
    def test_pairs_sorted_and_validated(self):
        j = JacobianPolygon(((11, 2), (5, 1)))
        assert j.pairs == ((5, 1), (11, 2))
        with pytest.raises(ValueError):
            JacobianPolygon(((1, 2),))  # e < m

    def test_view_merges_equal_ratios(self):
        j = JacobianPolygon(((2, 1), (4, 2)))
        assert j.view == make_elementary(6, 3)
        assert j.pairs == ((2, 1), (4, 2))
