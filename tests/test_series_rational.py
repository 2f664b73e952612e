"""Series over Q against an independent model.

The model holds a series as a dict {exponent: Fraction} of its nonzero terms
and a precision, and implements each operation from its definition, with no
code from newtonpoly.series beyond the public constructor it compares with.
Seeded random series cover one-term, packed and truncated products,
sums, scales, shifts, truncations, substitutions, inverses and exact
divisions, their precisions, and the canonical form: equal series reached
by two routes are == and hash alike, and the ``coeffs`` view is sorted,
nonzero and made of (int, FieldElement) pairs.
"""

import random
from fractions import Fraction

import pytest

from newtonpoly.field import QQ, FieldElement
from newtonpoly.polygon import INF
from newtonpoly.series import TruncatedSeries

SEEDS = range(40)


# -- the model: ({exp: Fraction}, precision) ----------------------------------


def m_clean(terms, p):
    return {e: c for e, c in terms.items() if c and e < p}, p


def m_add(a, b):
    (ta, pa), (tb, pb) = a, b
    out = dict(ta)
    for e, c in tb.items():
        out[e] = out.get(e, 0) + c
    return m_clean(out, min(pa, pb))


def m_neg(a):
    return {e: -c for e, c in a[0].items()}, a[1]


def m_order(a):
    return min(a[0]) if a[0] else a[1]


def m_mul(a, b):
    (ta, pa), (tb, pb) = a, b
    p = INF if pa == INF and pb == INF else min(pa + m_order(b), pb + m_order(a))
    out = {}
    for e1, c1 in ta.items():
        for e2, c2 in tb.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return m_clean(out, p)


def m_scale(a, c):
    return m_clean({e: v * c for e, v in a[0].items()}, a[1])


def m_shift(a, k):
    return {e + k: c for e, c in a[0].items()}, a[1] + k


def m_truncate(a, q):
    return m_clean(a[0], min(a[1], q))


def m_substitute_pow(a, k):
    return {e * k: c for e, c in a[0].items()}, a[1] * k


def m_inverse(a, target):
    """The inverse by the recurrence b_n = -(a_1 b_(n-1) + ... + a_n b_0) / a_0."""
    terms, p = a[0], min(a[1], target)
    b = [1 / terms[0]]
    for n in range(1, p):
        b.append(-sum(terms.get(i, 0) * b[n - i] for i in range(1, n + 1)) / terms[0])
    return m_clean(dict(enumerate(b)), p)


def m_exact_div(a, b):
    """Quotient of exact polynomials by long division, or None if inexact."""
    num, den = dict(a[0]), b[0]
    top = max(den)
    q = {}
    while num and max(num) >= top:
        e = max(num)
        f = num[e] / den[top]
        q[e - top] = f
        for d, c in den.items():
            num[e - top + d] = num.get(e - top + d, 0) - f * c
        num = {k: v for k, v in num.items() if v}
    return None if num else m_clean(q, INF)


# -- seeded data ---------------------------------------------------------------


def random_model(rng, terms=None, precision=None, start=0):
    """A random model series: terms nonzero rationals at random exponents
    from start on, known to precision (INF when exact)."""
    if terms is None:
        terms = rng.choice([0, 1, 1, 2, 3, 4, 6])
    if precision is None:
        precision = rng.choice([INF, INF, 4, 7, 12])
    exps = set()
    while len(exps) < terms:
        exps.add(start + rng.choice([rng.randrange(8), rng.randrange(40)]))
    out = {e: Fraction(rng.randint(-9, 9) or 1, rng.choice([1, 1, 2, 3, 4, 6, 35])) for e in exps}
    if precision != INF:
        precision = max(precision, start + 1)
    return m_clean(out, precision)


def series(model):
    return TruncatedSeries.make(QQ, "x", model[0], model[1])


def assert_matches(s, model):
    assert s == series(model)
    assert s.precision == model[1]
    assert [(e, c.rational_value()) for e, c in s.coeffs] == sorted(model[0].items())


# -- the comparison ------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_sums_and_differences(seed):
    rng = random.Random(seed)
    for _ in range(10):
        a, b = random_model(rng), random_model(rng)
        assert_matches(series(a) + series(b), m_add(a, b))
        assert_matches(series(a) - series(b), m_add(a, m_neg(b)))
        assert_matches(-series(a), m_neg(a))
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        assert_matches(series(a) + c, m_add(a, ({0: c} if c else {}, INF)))


@pytest.mark.parametrize("seed", SEEDS)
def test_products(seed):
    rng = random.Random(seed)
    # one-term operands, packed operands, and finite precisions that cut
    # the product's terms
    shapes = [(1, 1), (1, 4), (4, 1), (2, 3), (6, 4), (0, 3)]
    for terms_a, terms_b in shapes:
        a = random_model(rng, terms_a, start=rng.randrange(3))
        b = random_model(rng, terms_b, start=rng.randrange(3))
        assert_matches(series(a) * series(b), m_mul(a, b))
    a = random_model(rng, 5, precision=rng.choice([5, 9]))
    b = random_model(rng, 4, precision=INF)
    assert_matches(series(a) * series(b), m_mul(a, b))


@pytest.mark.parametrize("seed", SEEDS)
def test_unary_operations(seed):
    rng = random.Random(seed)
    for _ in range(6):
        a = random_model(rng)
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        assert_matches(series(a).scale(c), m_scale(a, c))
        n = rng.randint(-3, 3)
        assert_matches(series(a).scale(n), m_scale(a, Fraction(n)))
        k = rng.randrange(4)
        assert_matches(series(a).shift(k), m_shift(a, k))
        q = rng.randrange(1, 15)
        assert_matches(series(a).truncate(q), m_truncate(a, q))
        e = rng.randrange(1, 4)
        assert_matches(series(a).substitute_pow(e), m_substitute_pow(a, e))


@pytest.mark.parametrize("seed", SEEDS)
def test_inverses_and_exact_division(seed):
    rng = random.Random(seed)
    unit = random_model(rng, rng.randrange(1, 5), precision=rng.choice([INF, 9, 14]))
    unit[0][0] = Fraction(rng.choice([1, -2, 3, 5]), rng.choice([1, 2, 7]))
    target = rng.randrange(1, 16)
    assert_matches(series(unit).inverse(target), m_inverse(unit, target))
    a = random_model(rng, 4, precision=INF)
    b = random_model(rng, rng.randrange(1, 4), precision=INF)
    product = m_mul(a, b)
    assert_matches(series(product).exact_div(series(b)), m_exact_div(product, b))


@pytest.mark.parametrize("seed", SEEDS)
def test_two_routes_give_one_value(seed):
    rng = random.Random(seed)
    a, b, c = (series(random_model(rng)) for _ in range(3))
    pairs = [
        ((a + b) + c, a + (b + c)),
        (a * b, b * a),
        ((a * b) * c, a * (b * c)),
        (a.scale(2), a + a),
        (a - a, a.scale(0)),
        (a.shift(2).shift(1), a.shift(3)),
        (a.substitute_pow(2).substitute_pow(3), a.substitute_pow(6)),
        (a.scale(Fraction(1, 3)).scale(3), a),
    ]
    for left, right in pairs:
        assert left == right
        assert hash(left) == hash(right)


@pytest.mark.parametrize("seed", SEEDS)
def test_coeffs_view(seed):
    rng = random.Random(seed)
    a, b = series(random_model(rng)), series(random_model(rng))
    for s in (a, b, a * b, a + b, a.scale(Fraction(-2, 3))):
        view = s.coeffs
        assert [e for e, _ in view] == sorted({e for e, _ in view})
        for e, c in view:
            assert type(e) is int and type(c) is FieldElement
            assert c.field == QQ and not c.is_zero() and e < s.precision
            assert s.coefficient(e) == c
