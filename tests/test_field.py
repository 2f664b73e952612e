import operator
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from newtonpoly import field
from newtonpoly.errors import ReducibleExtension
from newtonpoly.field import (
    QQ,
    factor_poly,
    poly_degree,
    poly_gcd,
    poly_mul,
    squarefree_decomposition,
)

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


# -- the norm against an independent symbolic elimination ------------------------


def _data_to_sympy(data, level, symbols):
    if level == 0:
        return sympy.Rational(data.numerator, data.denominator)
    return sympy.Add(*[
        _data_to_sympy(c, level - 1, symbols) * symbols[level - 1] ** k
        for k, c in enumerate(data)
    ])


def norm_by_symbolic_resultants(k, p):
    """Norm of p in k[u] down to Q[u], as ascending Fractions, by sympy's
    symbolic resultant against each minimal polynomial in turn: a reference
    independent of the packed kernel."""
    u = sympy.Dummy("u")  # a generator may be named u
    symbols = [sympy.Symbol(s.name) for s in k.steps]
    expr = sympy.Add(*[_data_to_sympy(c.data, k.level, symbols) * u ** e
                       for e, c in enumerate(p)])
    for level in range(k.level, 0, -1):
        a = symbols[level - 1]
        mp = sympy.Add(*[_data_to_sympy(c, level - 1, symbols) * a ** e
                         for e, c in enumerate(k.steps[level - 1].minpoly)])
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
