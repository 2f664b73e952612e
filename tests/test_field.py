import copy
import operator
import pickle
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.factortools import dup_factor_list

from newtonpoly import field
from newtonpoly.errors import ReducibleExtension
from newtonpoly.field import (
    QQ,
    GroundField,
    factor_poly,
    poly_degree,
    poly_gcd,
    poly_mul,
    squarefree_decomposition,
)
from newtonpoly.puiseux import _parse_field_description
from newtonpoly.series import TruncatedSeries, parse_polynomial

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=8)


@pytest.fixture(scope="module")
def qq_sqrt2():
    return QQ.extend([-2, 0, 1], name="r2", verify=True)


@pytest.fixture(scope="module")
def tower(qq_sqrt2):
    r2 = qq_sqrt2.generator()
    # adjoin a root of u^2 - (1 + r2)
    return qq_sqrt2.extend([-(qq_sqrt2.one() + r2), qq_sqrt2.zero(), qq_sqrt2.one()],
                           name="s", verify=True)


class TestArithmetic:
    def test_difference_of_squares(self, qq_sqrt2):
        r2 = qq_sqrt2.generator()
        assert (r2 + 1) * (r2 - 1) == qq_sqrt2.one()

    def test_inverse(self, qq_sqrt2):
        r2 = qq_sqrt2.generator()
        e = qq_sqrt2.one() + r2
        assert e * e.inverse() == qq_sqrt2.one()

    def test_tower_relations(self, tower):
        s = tower.generator()
        r2 = tower.generator_named("r2")
        assert s * s == tower.one() + r2
        assert (s + 1) * (s + 1).inverse() == tower.one()

    def test_power(self, tower):
        s = tower.generator()
        assert s**4 == (tower.one() + tower.generator_named("r2")) ** 2

    def test_rational_detection(self, qq_sqrt2):
        r2 = qq_sqrt2.generator()
        assert (r2 * r2).rational_value() == 2
        assert r2.rational_value() is None

    def test_lift(self, qq_sqrt2, tower):
        r2 = qq_sqrt2.generator()
        lifted = tower.lift(r2)
        assert lifted * lifted == tower.from_rational(2)

    def test_negative_power(self, qq_sqrt2):
        r2 = qq_sqrt2.generator()
        assert r2**-2 == qq_sqrt2.from_rational(Fraction(1, 2))
        assert (r2 + 1) ** -2 * (r2 + 1) ** 2 == qq_sqrt2.one()

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul,
                                    operator.truediv])
    def test_operands_share_one_field(self, qq_sqrt2, op):
        u, v = QQ.from_rational(2), qq_sqrt2.from_rational(2)
        with pytest.raises(ValueError):
            op(u, v)
        with pytest.raises(ValueError):
            op(v, u)
        assert op(qq_sqrt2.lift(u), v) == op(v, v)
        assert op(v, 2) == op(v, v) and op(Fraction(2), v) == op(v, v)

    def test_equality_agrees_with_hash_across_fields(self, qq_sqrt2, tower):
        u, v = QQ.from_rational(2), qq_sqrt2.from_rational(2)
        assert u != v and v != tower.from_rational(2)
        assert len({u, v}) == 2
        assert qq_sqrt2.lift(u) == v and u == 2 and v == 2

    def test_hash_agrees_with_equality_for_scalars(self, qq_sqrt2, tower):
        u, v, w = QQ.from_rational(2), qq_sqrt2.from_rational(2), tower.from_rational(2)
        assert len({u, 2}) == len({v, Fraction(2)}) == len({w, 2}) == 1
        assert {2: "two"}[u] == "two"
        assert {Fraction(1, 2): "half"}[QQ.from_rational(Fraction(1, 2))] == "half"
        r2 = qq_sqrt2.generator()
        assert r2 * r2 == 2 and hash(r2 * r2) == hash(2)
        # equal hashes, and still unequal across towers
        assert hash(u) == hash(v) == hash(w) and len({u, v, w}) == 3
        assert r2.rational_value() is None and hash(r2) == hash(qq_sqrt2.generator())

    @given(rationals, rationals)
    @settings(max_examples=40)
    def test_field_axioms_sample(self, a, b):
        k = QQ.extend([-3, 0, 1], name="g")
        x = k.from_rational(a) + k.generator()
        y = k.from_rational(b) - k.generator() * 2
        assert (x + y) * (x - y) == x * x - y * y
        if not y.is_zero():
            assert (x / y) * y == x


class TestValueType:
    def test_attributes_cannot_be_set(self, qq_sqrt2):
        e = qq_sqrt2.generator()
        for name, value in [("field", QQ), ("data", Fraction(1)), ("other", 1)]:
            with pytest.raises(AttributeError):
                setattr(e, name, value)
        for obj, name in [(e, "data"), (qq_sqrt2, "steps")]:
            with pytest.raises(AttributeError):
                delattr(obj, name)
        assert e.field == qq_sqrt2 and e == qq_sqrt2.generator()

    @pytest.mark.parametrize("how", [copy.copy, copy.deepcopy,
                                     lambda v: pickle.loads(pickle.dumps(v))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_copies_are_equal_values(self, tower, how):
        e = tower.generator() + tower.generator_named("r2")
        for value in (tower, e, QQ.from_rational(Fraction(3, 4))):
            assert how(value) == value and hash(how(value)) == hash(value)

    def test_dict_and_set_keys(self, qq_sqrt2, tower):
        r2, s = qq_sqrt2.generator(), tower.generator()
        table = {r2: "r2", s: "s", r2 + 1: "r2 + 1", QQ.from_rational(3): "three"}
        assert table[qq_sqrt2.generator()] == "r2" and table[tower.generator()] == "s"
        assert table[qq_sqrt2.one() + r2] == "r2 + 1" and table[3] == "three"
        assert tower.lift(r2) not in table and len({r2, tower.lift(r2), s, s * 1}) == 3
        # an equal tower built again is the same key
        again = GroundField(qq_sqrt2.steps)
        assert again is not qq_sqrt2 and table[again.generator()] == "r2"
        assert hash(again.generator() + 1) == hash(r2 + 1)

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul,
                                    operator.truediv, operator.eq])
    def test_an_equal_tower_object_is_the_same_field(self, tower, op):
        again = GroundField(tower.steps)
        a, b = tower.generator() + 2, again.generator_named("r2") - 1
        expected = op(a, tower.lift(tower.generator_named("r2")) - 1)
        assert op(a, b) == expected and op(b, a) == op(tower.generator_named("r2") - 1, a)
        if op is not operator.eq:
            assert op(a, b).field is tower and op(b, a).field is again

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul,
                                    operator.truediv])
    def test_elements_of_different_towers_raise(self, op):
        k2 = QQ.extend([-2, 0, 1], name="a")
        k3 = QQ.extend([-3, 0, 1], name="a")
        for u, v in [(k2.generator(), k3.generator()), (k2.one(), k3.one())]:
            with pytest.raises(ValueError, match="different fields"):
                op(u, v)
            with pytest.raises(ValueError, match="different fields"):
                op(v, u)
        assert k2.generator() != k3.generator() and k2.one() != k3.one()


class TestTowerInverse:
    def test_zero_raises(self, qq_sqrt2, tower):
        with pytest.raises(ZeroDivisionError):
            qq_sqrt2.zero().inverse()
        with pytest.raises(ZeroDivisionError):
            tower.zero().inverse()

    def test_degree_one_step(self):
        k = QQ.extend([-3, 1], name="c")  # c = 3
        c = k.generator()
        assert c.inverse() == k.from_rational(Fraction(1, 3))
        e = k.from_rational(5) + c
        assert e * e.inverse() == k.one()

    def test_seeded_elements_of_a_three_step_tower(self, tower):
        # QQ[r2, s, w] with w^3 = s + 2, degree 12
        k = tower.extend([-(tower.generator() + 2), 0, 0, 1], name="w", verify=True)
        basis = [
            k.generator(0) ** i * k.generator(1) ** j * k.generator(2) ** m
            for i in range(2) for j in range(2) for m in range(3)
        ]
        rng = random.Random(5)
        for _ in range(6):
            e = k.zero()
            for b in basis:
                e = e + Fraction(rng.randint(-4, 4), rng.randint(1, 3)) * b
            if not e.is_zero():
                assert e * e.inverse() == k.one()


class TestExtensions:
    def test_reducible_rejected(self):
        with pytest.raises(ReducibleExtension):
            QQ.extend([-4, 0, 1], name="bad", verify=True)  # u^2 - 4 = (u-2)(u+2)

    @pytest.mark.parametrize("text, reducible", [
        ("adjoin u: u^2 - 4; y - u*x", True), ("adjoin u: u^2 - 3; y - u*x", False),
        ("adjoin u: u^2 + 2*u + 1; y", True), ("adjoin u: 3*u^2 - 4; y - u*x", False),
    ])
    def test_quadratic_extensions_from_the_text_format(self, text, reducible):
        if reducible:
            with pytest.raises(ReducibleExtension):
                parse_polynomial(text)
        else:
            assert parse_polynomial(text).field.degree() == 2

    def test_name_collision(self, qq_sqrt2):
        with pytest.raises(ValueError):
            qq_sqrt2.extend([-5, 0, 1], name="r2")

    def test_degree(self, tower):
        assert tower.degree() == 4

    def test_default_name_skips_a_taken_one(self):
        # the user's a2 holds the default name of the step at level 1
        k = QQ.extend([-2, 0, 1], name="a2").extend([-3, 0, 1])
        assert [s.name for s in k.steps] == ["a2", "a3"]
        assert [s.name for s in k.extend([-5, 0, 1]).steps] == ["a2", "a3", "a4"]


class TestFactorisation:
    def test_over_qq_irreducible(self):
        p = [QQ.from_rational(-2), QQ.zero(), QQ.one()]
        factors = factor_poly(QQ, p)
        assert len(factors) == 1 and factors[0][1] == 1
        assert poly_degree(factors[0][0]) == 2

    def test_over_extension_splits(self, qq_sqrt2):
        p = [qq_sqrt2.from_rational(-2), qq_sqrt2.zero(), qq_sqrt2.one()]
        factors = factor_poly(qq_sqrt2, p)
        assert [poly_degree(f) for f, _ in factors] == [1, 1]

    def test_over_tower(self, tower):
        one_plus = tower.one() + tower.lift(tower.generator_named("r2"))
        p = [-one_plus, tower.zero(), tower.one()]
        factors = factor_poly(tower, p)
        assert [poly_degree(f) for f, _ in factors] == [1, 1]
        # roots are +-s
        s = tower.generator()
        roots = {(-f[0]) for f, _ in factors}
        assert roots == {s, -s}

    def test_linear_is_its_own_factor(self, monkeypatch, qq_sqrt2, tower):
        r2 = tower.lift(qq_sqrt2.generator())
        cases = [
            (QQ, [QQ.from_rational(Fraction(-3, 4)), QQ.from_rational(2)]),
            (qq_sqrt2, [qq_sqrt2.generator() + 1, qq_sqrt2.from_rational(3)]),
            (tower, [tower.generator() - r2, r2 + 2]),
        ]
        expected = []
        for k, p in cases:
            monic = [c / p[-1] for c in p]
            slow = field._factor_over_qq if k.level == 0 else field._trager_factor
            expected.append(slow(k, monic))
            assert expected[-1] == [(monic, 1)]

        def refuse(*args):
            raise AssertionError("a linear polynomial went to the general factoriser")

        monkeypatch.setattr(field, "_trager_factor", refuse)
        monkeypatch.setattr(field, "_factor_over_qq", refuse)
        for (k, p), want in zip(cases, expected):
            got = factor_poly(k, p)
            assert got == want
            assert [[repr(c) for c in f] for f, _ in got] == [[repr(c) for c in f] for f, _ in want]

    def test_generator_named_u(self):
        k = QQ.extend([-3, 0, 1], name="u")
        p = [-k.generator(), k.zero(), k.one()]  # T^2 - u, irreducible
        assert [(poly_degree(f), m) for f, m in factor_poly(k, p)] == [(2, 1)]

    def test_multiplicities(self):
        one = QQ.one()
        lin1 = [QQ.from_rational(-1), one]
        lin2 = [QQ.from_rational(2), one]
        p = poly_mul(QQ, poly_mul(QQ, lin1, lin1), lin2)
        factors = factor_poly(QQ, p)
        assert sorted(m for _, m in factors) == [1, 2]

    def test_product_reconstruction(self, qq_sqrt2):
        r2 = qq_sqrt2.generator()
        lin1 = [-r2, qq_sqrt2.one()]
        lin2 = [r2 + 1, qq_sqrt2.one()]
        p = poly_mul(qq_sqrt2, lin1, lin2)
        factors = factor_poly(qq_sqrt2, p)
        total = [qq_sqrt2.one()]
        for f, m in factors:
            for _ in range(m):
                total = poly_mul(qq_sqrt2, total, f)
        assert total == p

    def test_yun(self):
        one = QQ.one()
        lin1 = [QQ.from_rational(-1), one]
        lin2 = [QQ.from_rational(2), one]
        p = poly_mul(QQ, poly_mul(QQ, lin1, lin1), lin2)
        parts = squarefree_decomposition(QQ, p)
        assert [(poly_degree(f), m) for f, m in parts] == [(1, 1), (1, 2)]

    def test_gcd(self, qq_sqrt2):
        r2 = qq_sqrt2.generator()
        a = poly_mul(qq_sqrt2, [-r2, qq_sqrt2.one()], [qq_sqrt2.one(), qq_sqrt2.one()])
        b = poly_mul(qq_sqrt2, [-r2, qq_sqrt2.one()], [qq_sqrt2.from_rational(3), qq_sqrt2.one()])
        g = poly_gcd(qq_sqrt2, a, b)
        assert g == [-r2, qq_sqrt2.one()]


# -- closed-form quadratics against the dense factoriser --------------------------


def rational_factors_by_sympy(coeffs):
    """sympy's dense factoriser on the integer polynomial, denominators
    cleared, made monic: the route field._rational_factors takes from degree
    3, used here as the reference for its closed-form quadratics."""
    den = lcm(*[c.denominator for c in coeffs])
    ints = [int(c * den) for c in reversed(coeffs)]
    _, factors = dup_factor_list(ints, ZZ)
    return [([Fraction(int(c), int(fac[0])) for c in reversed(fac)], mult)
            for fac, mult in factors]


def _seeded_quadratics(count, seed=2):
    """Ascending Fraction coefficients of seeded quadratics: products of two
    rational roots (double and zero roots among them) and random
    coefficients, each times a random nonzero rational."""
    rng = random.Random(seed)

    def rational(bound=12, dens=6):
        return Fraction(rng.randint(-bound, bound), rng.randint(1, dens))

    out = []
    for i in range(count):
        lead = rational() or Fraction(1)
        kind = i % 4
        if kind == 3:
            out.append([rational(), rational(), lead])
            continue
        r1 = rational()
        r2 = r1 if kind == 1 else (Fraction(0) if kind == 2 else rational())
        out.append([lead * r1 * r2, -lead * (r1 + r2), lead])
    return out


# (ascending coefficients, what they test)
QUADRATIC_CASES = [
    ([Fraction(-6), Fraction(1), Fraction(1)], "roots 2 and -3"),
    ([Fraction(1, 9), Fraction(-2, 3), Fraction(1)], "double root 1/3"),
    ([Fraction(0), Fraction(5, 2), Fraction(1)], "zero constant term"),
    ([Fraction(0), Fraction(0), Fraction(7)], "u^2, non-monic"),
    ([Fraction(3, 2), Fraction(-7, 4), Fraction(1, 2)], "non-monic, rational roots 2 and 3/2"),
    ([Fraction(2), Fraction(1), Fraction(3)], "negative discriminant"),
    ([Fraction(-4, 3), Fraction(0), Fraction(1)], "discriminant 16/3"),
    ([Fraction(-3, 16), Fraction(0), Fraction(1)], "discriminant 3/4"),
    ([Fraction(-3), Fraction(0), Fraction(1)], "discriminant 12"),
    ([Fraction(-1, 4), Fraction(0), Fraction(1)], "roots 1/2 and -1/2"),
]


class TestClosedFormQuadratics:
    @pytest.mark.parametrize("coeffs", [c for c, _ in QUADRATIC_CASES],
                             ids=[name for _, name in QUADRATIC_CASES])
    def test_named_cases(self, coeffs):
        assert field._rational_factors(coeffs) == rational_factors_by_sympy(coeffs)

    def test_seeded_quadratics_match_the_dense_factoriser(self):
        cases = _seeded_quadratics(2400)
        split = 0
        for coeffs in cases:
            got = field._rational_factors(coeffs)
            assert got == rational_factors_by_sympy(coeffs), coeffs
            split += len(got) > 1 or got[0][1] == 2
        # every kind of answer is drawn: split, double, irreducible
        assert 1200 < split < 2400

    def test_factor_poly_gives_the_same_list(self, monkeypatch):
        cases = [c for c, _ in QUADRATIC_CASES] + _seeded_quadratics(200, seed=3)
        polys = [[QQ.from_rational(c) for c in coeffs] for coeffs in cases]
        closed = [factor_poly(QQ, p) for p in polys]
        monkeypatch.setattr(field, "_rational_factors", rational_factors_by_sympy)
        for p, got in zip(polys, closed):
            want = factor_poly(QQ, p)
            assert got == want
            assert [[repr(c) for c in f] for f, _ in got] == [[repr(c) for c in f] for f, _ in want]

    def test_cubics_still_go_to_the_dense_factoriser(self, monkeypatch):
        calls = []

        def counting(ints, domain):
            calls.append(len(ints) - 1)
            return dup_factor_list(ints, domain)

        monkeypatch.setattr(field, "dup_factor_list", counting)
        u_minus_1 = [QQ.from_rational(-1), QQ.one()]
        quadratic = [QQ.from_rational(-2), QQ.zero(), QQ.one()]
        factor_poly(QQ, quadratic)
        assert calls == []
        assert [(poly_degree(f), m) for f, m in factor_poly(
            QQ, poly_mul(QQ, quadratic, u_minus_1))] == [(1, 1), (2, 1)]
        assert calls == [3]


# -- the norm against an independent symbolic elimination ------------------------


def _numerators_to_sympy(nums, den, steps, symbols):
    """The polynomial in the generators whose coefficient of
    a_1^i1 ... a_k^ik is numerator i1 + d1*(i2 + d2*(...)) of nums, over den."""
    expr = sympy.Integer(0)
    for index, n in enumerate(nums):
        term = sympy.Rational(n, den)
        for step, a in zip(steps, symbols):
            index, e = divmod(index, step.degree)
            term *= a ** e
        expr += term
    return expr


def _data_to_sympy(data, steps, symbols):
    """A datum of the tower with these steps as a sympy expression."""
    if isinstance(data, Fraction):
        return sympy.Rational(data.numerator, data.denominator)
    return _numerators_to_sympy(*data, steps, symbols)


def _minpoly_to_sympy(k, level, symbols):
    """The monic minimal polynomial of the step at level (1-based) of k."""
    step = k.steps[level - 1]
    lead = step.minpoly[-1][0]
    return sympy.Add(*[_numerators_to_sympy(c, lead, k.steps[:level - 1], symbols)
                       * symbols[level - 1] ** e for e, c in enumerate(step.minpoly)])


def norm_by_symbolic_resultants(k, p):
    """Norm of p in k[u] down to Q[u], as ascending Fractions, by sympy's
    symbolic resultant against each minimal polynomial in turn: a reference
    independent of the packed kernel."""
    u = sympy.Dummy("u")  # a generator may be named u
    symbols = [sympy.Symbol(s.name) for s in k.steps]
    expr = sympy.Add(*[_data_to_sympy(c.data, k.steps, symbols) * u ** e
                       for e, c in enumerate(p)])
    for level in range(k.level, 0, -1):
        a = symbols[level - 1]
        mp = _minpoly_to_sympy(k, level, symbols)
        expr = sympy.resultant(sympy.expand(mp), sympy.expand(expr), a)
    coeffs = sympy.Poly(sympy.expand(expr), u).all_coeffs()
    return [Fraction(int(c.p), int(c.q)) for c in reversed(coeffs)]


def _norm_towers():
    """QQ(sqrt 2); QQ(a, b) with a^2 = 2, b^3 = a + 1; QQ(cbrt 3); a
    degree-1 step u = 3 under r^2 = u; a generator named u."""
    s2 = QQ.extend([-2, 0, 1], name="a", verify=True)
    a = s2.generator()
    two_step = s2.extend([-(a + 1), 0, 0, 1], name="b", verify=True)
    cubic = QQ.extend([-3, 0, 0, 1], name="c", verify=True)
    flat = QQ.extend([-3, 1], name="u")
    flat = flat.extend([-flat.generator(), 0, 1], name="r", verify=True)
    named_u = QQ.extend([-3, 0, 1], name="u", verify=True)
    return {"sqrt2": s2, "two-step": two_step, "cubic": cubic, "degree-1 step": flat,
            "named u": named_u}


NORM_TOWERS = _norm_towers()


class TestNorm:
    @pytest.mark.parametrize("name", sorted(NORM_TOWERS))
    def test_matches_symbolic_resultants(self, name):
        k = NORM_TOWERS[name]
        rng = random.Random(f"norm {name}")

        def element():
            e = k.from_rational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
            for i in range(k.level):
                e = e + k.generator(i) ** rng.randint(1, 2) * rng.randint(-2, 2)
            return e

        for _ in range(8):
            p = [element() for _ in range(rng.randint(1, 3))]
            p.append(k.one() if rng.random() < 0.5 else element() + 5)
            if p[-1].is_zero():
                continue
            norm = field._norm_to_qq(k, p)
            assert len(norm) == (len(p) - 1) * k.degree() + 1
            assert norm == norm_by_symbolic_resultants(k, p)


def _four_step_tower():
    """QQ[r2, s, d, w]: s^2 = 1 + r2, a degree-1 step d = 1 + s, and
    w^3 = 2 + r2*s; returns the tower and its steps' fields."""
    k1 = QQ.extend([-2, 0, 1], name="r2")
    k2 = k1.extend([-(1 + k1.generator()), 0, 1], name="s")
    k3 = k2.extend([-(1 + k2.generator()), 1], name="d")
    r2s = k3.lift(k2.generator() * k2.lift(k1.generator()))
    return k3.extend([-(2 + r2s), 0, 0, 1], name="w"), (k1, k2, k3)


def _compound_towers(count, seed=3):
    """Seeded towers QQ(sqrt p_1, ..., sqrt p_m) of distinct primes, m = 2
    or 3, whose step i is (u - c)^2 - p_i with c a rational plus positive
    multiples of the generators below it, so that every minimal polynomial
    above the first has coefficients that print as sums.  The multiples are
    positive because the norm shifts of factor_poly, which reading a field
    back runs, are multiples of the sum of the generators, and that sum must
    generate the tower."""
    rng = random.Random(seed)
    towers = []
    for i in range(count):
        k = QQ
        for p in rng.sample((2, 3, 5, 7, 11, 13), 3 if i % 10 == 0 else 2):
            c = k.from_rational(Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 2)))
            for j in range(k.level):
                c = c + k.generator(j) * rng.randint(1, 2)
            k = k.extend([c * c - p, -2 * c, 1])
        towers.append(k)
    return towers


def _numerators(entries):
    """The 12 numerators of a datum of the four-step tower, zero but for
    the given indices."""
    return tuple(entries.get(i, 0) for i in range(12))


class TestTowerText:
    @pytest.mark.parametrize("make, text", [
        (lambda g: (1 + g[0]) + (2 - g[0]) * g[1], "(((1 + r2) + (2 - r2)*s))"),
        (lambda g: ((1 + g[0]) * g[1] + 3) * g[3] + (g[0] - g[1]) * g[3] ** 2,
         "((3 + (1 + r2)*s))*w + ((r2 - s))*w^2"),
        (lambda g: g[3] ** 3, "((2 + r2*s))"),
        (lambda g: g[2] * g[3] + g[0] * g[3] ** 2 - Fraction(1, 2),
         "-1/2 + ((1 + s))*w + r2*w^2"),
    ])
    def test_element_reprs_with_compound_coefficients(self, make, text):
        k, _ = _four_step_tower()
        assert repr(make([k.generator(i) for i in range(4)])) == text

    def test_field_repr_parenthesises_compound_coefficients(self):
        k, (_, _, k3) = _four_step_tower()
        assert repr(k) == (
            "QQ[r2: r2^2 - 2, s: s^2 + (-1 - r2), d: d + (-1 - s), w: w^3 + ((-2 - r2*s))]")
        assert repr(k3.generator() + k3.lift(k3.generator(0))) == "((1 + r2) + s)"

    def test_seeded_towers_read_back(self):
        towers = _compound_towers(300)
        # the top step of each has a coefficient that prints as a sum
        assert all("(" in repr(k).rsplit(", ", 1)[1] for k in towers)
        for k in towers:
            assert _parse_field_description("field = " + repr(k)) == k, repr(k)

    def test_embeddings_up_the_tower(self):
        # 12 numerators: r2^i s^j d^0 w^l at index i + 2*j + 4*l
        k, (k1, k2, _) = _four_step_tower()
        r2, s = k1.generator(), k2.generator()
        assert k.lift(r2).data == (_numerators({1: 1}), 1)
        assert k.lift(s + 1 - k2.lift(r2)).data == (_numerators({0: 1, 1: -1, 2: 1}), 1)
        assert k.from_rational(Fraction(-3, 4)).data == (_numerators({0: -3}), 4)
        assert [k.generator(i).data for i in range(4)] == [
            (_numerators({1: 1}), 1),
            (_numerators({2: 1}), 1),
            (_numerators({0: 1, 2: 1}), 1),  # the degree-1 step d = 1 + s
            (_numerators({4: 1}), 1),
        ]
        assert k.zero().data == (_numerators({}), 1) and k.lift(k1.one()) == k.one()
        # the embedded data are the polynomials in the generators they name
        symbols = sympy.symbols("r2 s d w")
        for e, text in [(k.lift(s + 1 - k2.lift(r2)), "s + 1 - r2"),
                        (k.generator(2), "1 + s"), (k.generator(3) / 6, "w/6")]:
            assert _data_to_sympy(e.data, k.steps, symbols) == sympy.sympify(text)

    def test_seeded_embeddings_agree(self):
        for k in _compound_towers(20, seed=4):
            for level in range(k.level + 1):
                low = GroundField(k.steps[:level])
                for i in range(level):
                    assert k.lift(low.generator(i)) == k.generator(i)
                assert k.lift(low.from_rational(Fraction(5, 3))) == k.from_rational(Fraction(5, 3))


# -- tower arithmetic against an independent reduction -----------------------------


def _reference_towers():
    """Q(a) with a^2 = -10/9, and b^3 = a*b/2 + 1/3 over it, whose products
    one level down have unequal denominators; a cubic step c^3 - c/2 - 1/3; a
    degree-1 step u = 3/2 under r^2 = u; the two-step tower r2^2 = 2,
    s^2 = 1 + r2; the four-step tower."""
    neg = QQ.extend([Fraction(10, 9), 0, 1], name="a", verify=True)
    over_neg = neg.extend([Fraction(-1, 3), -neg.generator() / 2, 0, 1], name="b",
                          verify=True)
    cubic = QQ.extend([Fraction(-1, 3), Fraction(-1, 2), 0, 1], name="c", verify=True)
    flat = QQ.extend([Fraction(-3, 2), 1], name="u")
    flat = flat.extend([-flat.generator(), 0, 1], name="r", verify=True)
    r2 = QQ.extend([-2, 0, 1], name="r2", verify=True)
    two_step = r2.extend([-(1 + r2.generator()), 0, 1], name="s", verify=True)
    return {"a^2 = -10/9": neg, "b^3 = a*b/2 + 1/3": over_neg, "cubic": cubic,
            "degree-1 step": flat,
            "two-step": two_step, "four-step": _four_step_tower()[0]}


REFERENCE_TOWERS = _reference_towers()


class _Reference:
    """Elements of a tower as sympy polynomials in its generators, reduced
    by sympy's multivariate division modulo the minimal polynomials: a
    reduction that shares no code with the integer one.  In the lex order
    with the top generator first, the monic minimal polynomials have the
    pairwise coprime leading terms a_i^d_i, so they are a Groebner basis and
    the remainder is the unique reduced form."""

    def __init__(self, k):
        self.k = k
        self.symbols = sympy.symbols([s.name for s in k.steps])
        self.minpolys = [sympy.expand(_minpoly_to_sympy(k, level, self.symbols))
                         for level in range(k.level, 0, -1)]

    def of(self, e):
        return _data_to_sympy(e.data, self.k.steps, self.symbols)

    def reduce(self, expr):
        gens = self.symbols[::-1]
        return sympy.reduced(sympy.expand(expr), self.minpolys, *gens, order="lex")[1]

    def agrees(self, e, expr):
        return sympy.expand(self.of(e) - self.reduce(expr)) == 0


def _random_element(k, rng):
    e = k.from_rational(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
    for _ in range(rng.randint(1, 4)):
        term = k.from_rational(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        for i in range(k.level):
            term = term * k.generator(i) ** rng.randint(0, k.steps[i].degree)
        e = e + term
    return e


def _is_canonical(e):
    nums, den = e.data
    return den > 0 and gcd(den, *nums) == 1 and (any(nums) or den == 1)


class TestSympyReference:
    @pytest.mark.parametrize("name", sorted(REFERENCE_TOWERS))
    def test_element_arithmetic(self, name):
        k = REFERENCE_TOWERS[name]
        ref, rng = _Reference(k), random.Random(f"reference {name}")
        for _ in range(4):
            x, y = _random_element(k, rng), _random_element(k, rng)
            rx, ry = ref.of(x), ref.of(y)
            n = rng.randint(2, 3)
            for got, expr in [(x + y, rx + ry), (x - y, rx - ry), (x * y, rx * ry),
                              (x ** n, rx ** n), (x - x, 0)]:
                assert ref.agrees(got, expr), (x, y)
                assert _is_canonical(got)
            if not x.is_zero():
                assert ref.agrees(k.one(), rx * ref.of(x.inverse()))
                assert ref.agrees(k.one(), rx ** n * ref.of(x ** -n))

    @pytest.mark.parametrize("name", sorted(REFERENCE_TOWERS))
    def test_series_products_and_inverses(self, name):
        k = REFERENCE_TOWERS[name]
        ref, rng = _Reference(k), random.Random(f"reference series {name}")

        def series(terms, precision):
            exps = rng.sample(range(6), terms)
            return TruncatedSeries.make(
                k, "x", {e: _random_element(k, rng) for e in exps}, precision)

        def convolution(sa, sb, e):
            ca, cb = dict(sa.coeffs), dict(sb.coeffs)
            return sum((ref.of(ca[i]) * ref.of(cb[e - i]) for i in ca if e - i in cb),
                       sympy.Integer(0))

        # one-term operands, the packed kernel, and a truncated product
        for sa, sb in [(series(1, 9), series(3, 9)), (series(3, 12), series(4, 12)),
                       (series(4, 7), series(2, 5))]:
            prod = sa * sb
            assert prod.precision == min(sa.precision + sb.order(), sb.precision + sa.order())
            for e in range(prod.precision):
                assert ref.agrees(prod.coefficient(e), convolution(sa, sb, e)), e
        unit = TruncatedSeries.make(k, "x", {0: _random_element(k, rng) or k.one(), 2: 1,
                                             3: _random_element(k, rng)}, 6)
        inv = unit.inverse()
        assert inv.precision == 6
        for e in range(inv.precision):
            assert ref.agrees(k.one() if e == 0 else k.zero(), convolution(unit, inv, e)), e


class TestTragerShift:
    def test_sum_of_generators_need_not_be_primitive(self):
        # b = -a +- sqrt(3), so a + b is a square root of 3 and every shifted
        # norm by a multiple of it is a square
        k = parse_polynomial("adjoin a: a^2 - 2; adjoin b: b^2 + 2*a*b + a^2 - 3; y").field
        gamma = k.generator(0) + k.generator(1)
        assert gamma * gamma == 3
        factors = factor_poly(k, [k.from_rational(-3), k.zero(), k.one()])
        assert [poly_degree(f) for f, _ in factors] == [1, 1]
        assert {f[0] for f, _ in factors} == {gamma, -gamma}
        assert [poly_degree(f) for f, _ in factor_poly(
            k, [k.from_rational(-5), k.zero(), k.one()])] == [2]
        with pytest.raises(ReducibleExtension):
            k.extend([-6, 0, 1], verify=True)

    def test_seeded_tower_with_a_non_primitive_sum(self):
        # a1 + a2 has degree 2 over Q: the norm of u - (a1 + a2) is a square
        k1 = QQ.extend([Fraction(1, 2), Fraction(-1, 2), 1], name="a1")
        a1 = k1.generator()
        k = k1.extend([3 + a1, Fraction(1, 2) + 2 * a1, 1], name="a2")
        assert repr(k) == "QQ[a1: a1^2 - 1/2*a1 + 1/2, a2: a2^2 + (1/2 + 2*a1)*a2 + (3 + a1)]"
        gamma = k.lift(a1) + k.generator()
        assert gamma * gamma + gamma / 2 == Fraction(-7, 2)
        assert repr(k.extend([-5, 0, 1], verify=True)).endswith("a3: a3^2 - 5]")
        # sqrt(-7) = 4*a1 - 1 lies in the tower
        with pytest.raises(ReducibleExtension):
            k.extend([7, 0, 1], verify=True)
