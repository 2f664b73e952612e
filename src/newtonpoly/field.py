"""Exact ground fields: towers of simple algebraic extensions over Q.

An element of a tower with steps of degrees d_1, ..., d_k is stored as one
flat tuple of integer numerators over one positive integer denominator: the
coefficient of a_1^i1 ... a_k^ik is numerator i1 + d1*(i2 + d2*(...)), the
slot order of the packed kernels of newtonpoly.series.  Over Q (k = 0) that
is one numerator over its denominator, ((n,), d), so every level runs the
same integer arithmetic.  The form is canonical (the gcd of the denominator
and the numerators is 1, and zero is all zeros over 1; _canonical makes
it), so equal elements have equal data.  Each step stores its monic minimal
polynomial times the lcm L of its denominators, as integer numerator
vectors one level down, so a product is an integer convolution reduced
modulo the minimal polynomials in integers (_dreduce), with no Fraction
built per term.  Inverses come from the extended Euclidean algorithm one
level down, by pseudo-division, in ints when that level is Q (_dinverse).
Elements and minimal polynomials print through one term builder, which
parenthesises a coefficient that is a sum, so a printed tower reads back.

Univariate factorisation over Q is in closed form up to degree 2: a monic
quadratic u^2 + bu + c splits exactly when its discriminant b^2 - 4c is the
square of a rational.  From degree 3 the integer coefficients, denominators
cleared, go to sympy's dense factoriser (dup_factor_list).  Over a proper
tower it uses Trager's norm descent: the packed resultant kernel of
newtonpoly.series eliminates the generators one step at a time, the
rational norm is factored as above, and gcds over the tower lift the
factors.  The shift must be by a primitive element, so shifts by multiples
of several sums c_1*a_1 + ... + c_k*a_k are tried in turn.  The lifted
factorisation is re-verified by multiplying back, so a badly chosen shift
can only cause a retry, never a wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import product
from math import gcd, isqrt, lcm
from operator import not_

from sympy.polys.domains import ZZ
from sympy.polys.factortools import dup_factor_list

from .errors import ReducibleExtension

_RESERVED_NAMES = {"x", "y", "t", "T", "U", "O", "inf"}


@dataclass(frozen=True)
class ExtensionStep:
    name: str
    # the monic minimal polynomial over the previous level, ascending, times
    # the lcm L of its denominators: tuples of integer numerators in the
    # previous level's layout, the last one (L, 0, ..., 0)
    minpoly: tuple

    @property
    def degree(self) -> int:
        return len(self.minpoly) - 1


class GroundField:
    """Immutable tower of simple extensions of the rationals."""

    __slots__ = ("steps", "_layouts")

    def __init__(self, steps=()):
        steps = tuple(steps)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "_layouts", _product_layouts(tuple(s.degree for s in steps)))

    def __setattr__(self, name, value):
        raise AttributeError("GroundField is immutable")

    def __delattr__(self, name):
        raise AttributeError("GroundField is immutable")

    def __reduce__(self):
        return GroundField, (self.steps,)

    def __eq__(self, other):
        return isinstance(other, GroundField) and self.steps == other.steps

    def __hash__(self):
        return hash(self.steps)

    def __repr__(self):
        if not self.steps:
            return "QQ"
        parts = ", ".join(
            f"{s.name}: {_sum_str(_minpoly_data(s, level), s.name, self, level, range(s.degree, -1, -1))}"
            for level, s in enumerate(self.steps)
        )
        return f"QQ[{parts}]"

    # -- basic structure ---------------------------------------------------

    @property
    def level(self) -> int:
        return len(self.steps)

    def degree(self) -> int:
        d = 1
        for s in self.steps:
            d *= s.degree
        return d

    def is_prefix_of(self, other: "GroundField") -> bool:
        return self.steps == other.steps[: self.level]

    # -- element constructors ----------------------------------------------

    def zero(self) -> "FieldElement":
        return FieldElement(self, _embed(((0,), 1), 0, self.level, self))

    def one(self) -> "FieldElement":
        return FieldElement(self, _embed(((1,), 1), 0, self.level, self))

    def from_rational(self, q) -> "FieldElement":
        """The element of an int or a Fraction; any other type raises TypeError."""
        if not isinstance(q, (int, Fraction)):
            raise TypeError(f"cannot coerce {q!r} into {self!r}")
        return FieldElement(self, _embed(((q.numerator,), q.denominator), 0, self.level, self))

    def generator(self, index=None) -> "FieldElement":
        """The top generator, or the one at the given step index."""
        if index is None:
            index = self.level - 1
        if not 0 <= index < self.level:
            raise ValueError("no such generator")
        step = self.steps[index]
        if step.degree == 1:
            # degenerate degree-1 step: generator is a constant
            data = _embed(_dneg(_minpoly_data(step, index)[0]), index, index + 1, self)
        else:
            size = _size(self, index)
            data = ((0,) * size + (1,) + (0,) * (size * (step.degree - 1) - 1), 1)
        return FieldElement(self, _embed(data, index + 1, self.level, self))

    def generator_named(self, name: str) -> "FieldElement":
        for i, s in enumerate(self.steps):
            if s.name == name:
                return self.generator(i)
        raise KeyError(name)

    def lift(self, elem: "FieldElement") -> "FieldElement":
        """Embed an element of a prefix tower into this tower."""
        if elem.field == self:
            return elem
        if not elem.field.is_prefix_of(self):
            raise ValueError("element does not live in a prefix of this field")
        return FieldElement(self, _embed(elem.data, elem.field.level, self.level, self))

    def extend(self, minpoly_coeffs, name=None, verify=False) -> "GroundField":
        """Adjoin a root of a monic polynomial over this field.

        With verify=True the polynomial is factored first and a reducible
        input raises ReducibleExtension.
        """
        coeffs = [self.coerce(c) for c in minpoly_coeffs]
        coeffs = _poly_strip(coeffs)
        if len(coeffs) < 2:
            raise ValueError("defining polynomial must have positive degree")
        if not (coeffs[-1] - self.one()).is_zero():
            inv = coeffs[-1].inverse()
            coeffs = [c * inv for c in coeffs]
        if name is None:
            name = self.free_name("a")
        if name in _RESERVED_NAMES or any(s.name == name for s in self.steps):
            raise ValueError(f"generator name {name!r} unavailable")
        if verify and len(coeffs) > 2:
            factors = factor_poly(self, coeffs)
            if len(factors) != 1 or factors[0][1] != 1:
                raise ReducibleExtension(
                    f"defining polynomial for {name} is reducible over {self!r}"
                )
        step = ExtensionStep(name, tuple(_common([c.data for c in coeffs])[1]))
        return GroundField(self.steps + (step,))

    def free_name(self, prefix: str) -> str:
        """The first generator name prefix + index, from index level + 1 on,
        that no step of the tower uses."""
        taken = {s.name for s in self.steps}
        index = self.level + 1
        while f"{prefix}{index}" in taken:
            index += 1
        return f"{prefix}{index}"

    def coerce(self, value) -> "FieldElement":
        if isinstance(value, FieldElement):
            return self.lift(value)
        return self.from_rational(value)


# -- raw data helpers --------------------------------------------------------
# A datum at every level k >= 0 is (nums, den), integer numerators over
# den > 0 in lowest terms; see the module docstring for their order.


def _slot_strides(spans):
    """Strides of packed variables with the given spans, innermost first:
    the first stride is 1, and each further one is the product of the
    spans below it; the last is the number of slots."""
    strides = [1]
    for span in spans:
        strides.append(strides[-1] * span)
    return strides


def _positions(degrees, strides):
    """The slot of each numerator index of a datum in a packed layout with
    these strides: a_1^i1 ... a_k^ik goes to i1*strides[0] + ... + ik*strides[k - 1]."""
    positions = (0,)
    for d, stride in zip(degrees, strides):
        positions = tuple(p + i * stride for i in range(d) for p in positions)
    return positions


@lru_cache(maxsize=None)
def _product_layouts(degrees):
    """Per level k of a tower with these step degrees, the strides and the
    numerator slots of the product of two numerator vectors: spans 2d_i - 1,
    so that no exponent of a product overflows into the next slot."""
    layouts = []
    for k in range(len(degrees) + 1):
        strides = _slot_strides([2 * d - 1 for d in degrees[:k]])
        layouts.append((strides, _positions(degrees[:k], strides)))
    return tuple(layouts)


def _size(field, level) -> int:
    """The number of numerators of a datum at level."""
    return len(field._layouts[level][1])


def _canonical(nums, den):
    """The datum nums / den, den nonzero, in lowest terms."""
    if den < 0:
        nums, den = [-n for n in nums], -den
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            return tuple([n // g for n in nums]), den // g
    return tuple(nums), den


def _common(data):
    """(L, numerators): the data at one level over the lcm L of their denominators."""
    den = lcm(*[d for _, d in data])
    return den, [tuple(n * (den // d) for n in nums) for nums, d in data]


def _coefficients(field, level, data):
    """The coefficients of a datum at level >= 1 in the level's generator,
    as data one level down."""
    nums, den = data
    size = _size(field, level - 1)
    return [_canonical(nums[i:i + size], den) for i in range(0, len(nums), size)]


def _minpoly_data(step, level):
    """The monic minimal polynomial of a step over level, as data at level."""
    return [_canonical(c, step.minpoly[-1][0]) for c in step.minpoly]


def _embed(data, low: int, high: int, field: GroundField):
    """The datum of an element at level ``low`` of the tower, as the same
    element at level ``high``: zero numerators for the powers of the
    generators above low."""
    if low == high:
        return data
    nums, den = data
    return nums + (0,) * (_size(field, high) - len(nums)), den


def _data_is_zero(data) -> bool:
    return not any(data[0])


def _dadd(a, b):
    (na, da), (nb, db) = a, b
    if da == db:
        return _canonical([x + y for x, y in zip(na, nb)], da)
    g = gcd(da, db)
    ma, mb = db // g, da // g
    return _canonical([x * ma + y * mb for x, y in zip(na, nb)], da * ma)


def _dneg(a):
    return tuple([-x for x in a[0]]), a[1]


def _dsub(a, b):
    return _dadd(a, _dneg(b))


def _dmul(field, level, a, b):
    if level == 0:
        return _canonical([a[0][0] * b[0][0]], a[1] * b[1])
    nums, den = _dproduct(field, level, a[0], b[0])
    return _canonical(nums, den * a[1] * b[1])


def _dproduct(field, level, a, b):
    """(nums, den) of the product of two numerator vectors at level >= 1:
    their convolution in the product layout, reduced by _dreduce."""
    strides, positions = field._layouts[level]
    raw = [0] * strides[-1]
    for i, x in enumerate(a):
        if x:
            p = positions[i]
            for j, y in enumerate(b):
                if y:
                    raw[p + positions[j]] += x * y
    return _dreduce(field, level, raw, 0, strides)


def _dreduce(field, level, values, start, strides):
    """(nums, den): the polynomial in a_1, ..., a_level whose integer
    coefficients are values[start:start + strides[level]], a_i^e at offset
    e * strides[i - 1], reduced modulo the minimal polynomials to the
    numerators of a datum at level over den > 0, not in lowest terms.

    The coefficient of each power of the top generator a is reduced one
    level down, all over one denominator.  Then, from the top power down to
    the degree d, the top coefficient c is replaced through
    L*a^d = -(C_0 + ... + C_(d-1)*a^(d-1)), the cleared minimal
    polynomial: the products c*C_i, one level down over their lcm h, are
    subtracted from the numerators below, first multiplied by L*h.  At
    level 1 the coefficients and their products are integers, and h is 1.
    """
    step = field.steps[level - 1]
    mp, deg, lead = step.minpoly, step.degree, step.minpoly[-1][0]
    stride = strides[level - 1]
    span = strides[level] // stride
    size = _size(field, level - 1)
    if level == 1:
        flat, den = values[start:start + span], 1
        for e in range(span - 1, deg - 1, -1):
            top = flat[e]
            if top:
                if lead != 1:
                    flat[:e] = [n * lead for n in flat[:e]]
                    den *= lead
                for i, c in enumerate(mp[:deg], e - deg):
                    flat[i] -= top * c[0]
    else:
        blocks = [_dreduce(field, level - 1, values, start + e * stride, strides)
                  for e in range(span)]
        den = lcm(*[f for _, f in blocks])
        flat = [n * (den // f) for nums, f in blocks for n in nums]
        for e in range(span - 1, deg - 1, -1):
            top = flat[e * size:(e + 1) * size]
            if not any(top):
                continue
            products = [_dproduct(field, level - 1, top, c) for c in mp[:deg]]
            h = lcm(*[f for _, f in products])
            if lead * h != 1:
                flat[:e * size] = [n * lead * h for n in flat[:e * size]]
                den *= lead * h
            lo = (e - deg) * size
            for nums, f in products:
                for i, n in enumerate(nums, lo):
                    flat[i] -= n * (h // f)
                lo += size
    flat = flat[:deg * size]
    return flat + [0] * (deg * size - len(flat)), den


def _dinverse(field, level, data):
    """The inverse of a datum at level, ZeroDivisionError for zero.  Above
    level 0 it comes from an extended Euclid of the numerators, as a
    polynomial in the level's generator, against the cleared minimal
    polynomial, by pseudo-division one level down: with lc the leading
    coefficient of the divisor r1, each step replaces r0 by
    lc*r0 - t*a^k*r1, which cancels r0's top term t, and the Bezout
    coefficient s0 (s0 times the numerators is r0 modulo the minimal
    polynomial) likewise, so no inverse is taken until the last remainder
    c, a constant.  At level 1 the coefficients are ints, and each
    remainder is divided by its content with its Bezout coefficient; above,
    they are data one level down, and only c is inverted there."""
    if level == 0:
        (n,), den = data
        if not n:
            raise ZeroDivisionError("inverse of zero")
        return _canonical([den], n)
    base, step = level - 1, field.steps[level - 1]
    nums, den = data
    if base == 0:
        zero, one, mul, sub, is_zero = 0, 1, int.__mul__, int.__sub__, not_
        r0, r1 = [c[0] for c in step.minpoly], list(nums)
    else:
        size = _size(field, base)
        zero, one = ((0,) * size, 1), ((1,) + (0,) * (size - 1), 1)
        mul, sub, is_zero = partial(_dmul, field, base), _dsub, _data_is_zero
        r0 = [(c, 1) for c in step.minpoly]
        r1 = [(nums[i:i + size], 1) for i in range(0, len(nums), size)]
    while r1 and is_zero(r1[-1]):
        r1.pop()
    s0, s1 = [], [one]
    while len(r1) > 1:
        lc = r1[-1]
        while len(r0) >= len(r1):
            t, k = r0[-1], len(r0) - len(r1)
            r0 = [mul(lc, c) for c in r0[:-1]]
            for i, c in enumerate(r1[:-1], k):
                r0[i] = sub(r0[i], mul(t, c))
            s0 = [mul(lc, c) for c in s0] + [zero] * (len(s1) + k - len(s0))
            for i, c in enumerate(s1, k):
                s0[i] = sub(s0[i], mul(t, c))
            for r in (r0, s0):
                while r and is_zero(r[-1]):
                    r.pop()
        if base == 0:
            g = gcd(*r0, *s0)
            if g > 1:
                r0, s0 = [c // g for c in r0], [c // g for c in s0]
        r0, r1, s0, s1 = r1, r0, s1, s0
    if not r1:
        raise ZeroDivisionError("inverse of zero")
    if len(s1) > step.degree:
        raise ArithmeticError("Bezout coefficient exceeded the extension degree")
    if base == 0:
        return _canonical([den * c for c in s1] + [0] * (step.degree - len(s1)), r1[0])
    c_inv = _dinverse(field, base, r1[0])
    common, vectors = _common([mul(c_inv, c) for c in s1])
    flat = [den * n for v in vectors for n in v]
    return _canonical(flat + [0] * (_size(field, level) - len(flat)), common)


def _data_str(data, field: GroundField, level: int) -> str:
    """Text of a datum at ``level``, lowest power of its generator first."""
    if level == 0:
        (n,), den = data
        return str(n) if den == 1 else f"{n}/{den}"
    step = field.steps[level - 1]
    return _sum_str(_coefficients(field, level, data), step.name, field, level - 1,
                    range(step.degree))


def _sum_str(coeffs, name: str, field: GroundField, level: int, powers) -> str:
    """The sum of the terms c_k*name^k, k in the order of ``powers``, of
    the nonzero data c_k at ``level``; a c_k that prints as a sum is
    parenthesised, so the text reads back as the same value."""
    terms = []
    for k in powers:
        c = coeffs[k]
        if _data_is_zero(c):
            continue
        cs = _data_str(c, field, level)
        if level and any(op in cs[1:] for op in "+-"):
            cs = f"({cs})"
        if k == 0:
            terms.append(cs)
            continue
        power = name if k == 1 else f"{name}^{k}"
        terms.append(power if cs == "1" else f"-{power}" if cs == "-1" else f"{cs}*{power}")
    return " + ".join(terms).replace("+ -", "- ") or "0"


class FieldElement:
    """Element of a GroundField tower: an immutable slotted value, like
    GroundField; arithmetic is exact.

    The operators take an int, a Fraction or an element of the same field.
    An element over the identical field object takes the fast path; one over
    an equal tower is accepted by _binary's structural check.
    """

    __slots__ = ("field", "data")

    def __init__(self, field: GroundField, data):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "data", data)

    def __setattr__(self, name, value):
        raise AttributeError("FieldElement is immutable")

    def __delattr__(self, name):
        raise AttributeError("FieldElement is immutable")

    def __reduce__(self):
        return FieldElement, (self.field, self.data)

    def is_zero(self) -> bool:
        return _data_is_zero(self.data)

    def rational_value(self):
        nums, den = self.data
        return None if any(nums[1:]) else Fraction(nums[0], den)

    def _binary(self, other, op):
        """op(a, b) on the data of self and other, other an int, a
        Fraction or an element of the same field; elements of another field
        raise ValueError (GroundField.lift embeds them explicitly)."""
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        elif not isinstance(other, FieldElement):
            return NotImplemented
        elif other.field != self.field:
            raise ValueError("elements of different fields")
        return FieldElement(self.field, op(self.data, other.data))

    def __add__(self, other):
        if other.__class__ is FieldElement and other.field is self.field:
            return FieldElement(self.field, _dadd(self.data, other.data))
        return self._binary(other, _dadd)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, _dneg(self.data))

    def __sub__(self, other):
        if other.__class__ is FieldElement and other.field is self.field:
            return FieldElement(self.field, _dsub(self.data, other.data))
        return self._binary(other, _dsub)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        field = self.field
        if other.__class__ is FieldElement and other.field is field:
            return FieldElement(field, _dmul(field, field.level, self.data, other.data))
        return self._binary(other, partial(_dmul, field, field.level))

    __rmul__ = __mul__

    def inverse(self):
        """The inverse, by _dinverse's extended Euclid."""
        return FieldElement(self.field, _dinverse(self.field, self.field.level, self.data))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        return self * other.inverse() if isinstance(other, FieldElement) else NotImplemented

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.field.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        """Elements of different fields are unequal; a scalar equals its value."""
        if other.__class__ is not FieldElement:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = self.field.from_rational(other)
        same = other.field is self.field or other.field == self.field
        return same and self.data == other.data

    def __hash__(self):
        q = self.rational_value()  # hashed like the int or Fraction it equals
        return hash((self.field, self.data)) if q is None else hash(q)

    def __repr__(self):
        return _data_str(self.data, self.field, self.field.level)


QQ = GroundField()


# -- polynomials over a field -------------------------------------------------
# Polynomials are lists of FieldElement, ascending degree, stripped.


def _poly_strip(p):
    p = list(p)
    while p and p[-1].is_zero():
        p.pop()
    return p


def poly_degree(p) -> int:
    return len(p) - 1


def poly_add(field, p, q):
    n = max(len(p), len(q))
    z = field.zero()
    return _poly_strip([
        (p[i] if i < len(p) else z) + (q[i] if i < len(q) else z) for i in range(n)
    ])


def poly_sub(field, p, q):
    return poly_add(field, p, [-c for c in q])


def poly_mul(field, p, q):
    if not p or not q:
        return []
    z = field.zero()
    out = [z] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a.is_zero():
            continue
        for j, b in enumerate(q):
            if b.is_zero():
                continue
            out[i + j] = out[i + j] + a * b
    return _poly_strip(out)


def poly_divmod(field, num, den):
    num = list(num)
    den = _poly_strip(list(den))
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    lc_inv = den[-1].inverse()
    q = [field.zero()] * max(len(num) - len(den) + 1, 0)
    while len(_poly_strip(num)) >= len(den):
        num = _poly_strip(num)
        shift = len(num) - len(den)
        f = num[-1] * lc_inv
        q[shift] = q[shift] + f
        for i, c in enumerate(den):
            num[shift + i] = num[shift + i] - f * c
    return _poly_strip(q), _poly_strip(num)


def poly_monic(field, p):
    p = _poly_strip(list(p))
    if not p:
        return p
    inv = p[-1].inverse()
    return [c * inv for c in p]


def poly_gcd(field, p, q):
    a, b = _poly_strip(list(p)), _poly_strip(list(q))
    while b:
        _, r = poly_divmod(field, a, b)
        a, b = b, r
    return poly_monic(field, a)


def poly_diff(field, p):
    return _poly_strip([p[i] * i for i in range(1, len(p))])


def poly_compose_linear(field, p, a, b):
    """p(a*u + b) by Horner."""
    acc = []
    lin = [b, a]
    for c in reversed(p):
        acc = poly_add(field, poly_mul(field, acc, lin), [c])
    return acc


def squarefree_decomposition(field, p):
    """Yun's algorithm; returns [(monic squarefree factor, multiplicity)]."""
    p = poly_monic(field, p)
    if poly_degree(p) < 1:
        return []
    d = poly_diff(field, p)
    a0 = poly_gcd(field, p, d)
    b, _ = poly_divmod(field, p, a0)
    c, _ = poly_divmod(field, d, a0)
    out = []
    i = 1
    dcur = poly_sub(field, c, poly_diff(field, b))
    while poly_degree(b) > 0:
        ai = poly_gcd(field, b, dcur)
        if poly_degree(ai) > 0:
            out.append((poly_monic(field, ai), i))
        b, _ = poly_divmod(field, b, ai)
        c, _ = poly_divmod(field, dcur, ai)
        dcur = poly_sub(field, c, poly_diff(field, b))
        i += 1
    return out


# -- factorisation -------------------------------------------------------------


def _rational_factors(coeffs):
    """Monic irreducible factors over Q of a rational polynomial, as
    ascending Fractions, with their multiplicities, in dup_factor_list's
    order.

    A quadratic, made monic u^2 + bu + c, splits exactly when b^2 - 4c is
    the square of a rational, whose root is then the quotient of the integer
    square roots of its reduced numerator and denominator; degree 3 and
    above go to sympy.
    """
    if len(coeffs) == 3:
        b, c = coeffs[1] / coeffs[2], coeffs[0] / coeffs[2]
        disc = b * b - 4 * c
        root = Fraction(isqrt(max(disc.numerator, 0)), isqrt(disc.denominator))
        if root * root != disc:
            return [([c, b, Fraction(1)], 1)]
        if not root:
            return [([b / 2, Fraction(1)], 2)]
        # u + (b -+ root)/2, ordered as sympy orders the primitive integer
        # factors den*u + num: by the denominator, then the numerator
        consts = sorted(((b - root) / 2, (b + root) / 2),
                        key=lambda q: (q.denominator, q.numerator))
        return [([q, Fraction(1)], 1) for q in consts]
    den = lcm(*[c.denominator for c in coeffs])
    ints = [int(c * den) for c in reversed(coeffs)]
    _, factors = dup_factor_list(ints, ZZ)
    return [([Fraction(int(c), int(fac[0])) for c in reversed(fac)], mult)
            for fac, mult in factors]


def _factor_over_qq(field, p):
    coeffs = [c.rational_value() for c in p]
    if any(c is None for c in coeffs):
        raise ArithmeticError("polynomial to factor over QQ has irrational coefficients")
    return [([field.from_rational(c) for c in fc], mult)
            for fc, mult in _rational_factors(coeffs)]


def _norm_to_qq(field, p):
    """Norm of p in K[u] down to Q[u], as ascending Fractions.

    Over one step k(a) of the tower the norm of p in k(a)[u] is
    Res_a(m(a), p), m the monic minimal polynomial of a: m is unitary, so
    the packed resultant is exactly the product of p(alpha) over the roots
    alpha of m.  It reads a as y and u as x.
    """
    # series imports this module, so the kernel is imported at call time
    from .series import YPolynomial, sylvester_resultant

    coeffs = [c.data for c in p]
    for level in range(field.level, 0, -1):
        base = GroundField(field.steps[: level - 1])
        m = YPolynomial.from_terms(
            {(0, i): FieldElement(base, c)
             for i, c in enumerate(_minpoly_data(field.steps[level - 1], level - 1))}, base)
        q = YPolynomial.from_terms({(e, i): FieldElement(base, ci)
                                    for e, c in enumerate(coeffs)
                                    for i, ci in enumerate(_coefficients(field, level, c))}, base)
        norm = sylvester_resultant(m, q)
        terms, zero = dict(norm.coeffs), base.zero()
        coeffs = [terms.get(e, zero).data for e in range(norm.degree() + 1)]
    return [Fraction(n, den) for (n,), den in coeffs]


def _trager_shifts(field):
    """The shifts Trager's norm may take: zero, then s*gamma for each scale s
    and each gamma = c_1*a_1 + ... + c_k*a_k with c_1 = 1 and the other c_i
    in 1, 2, 3, the sum of the generators first.  The norm of a squarefree
    polynomial is squarefree after all but finitely many shifts by a
    primitive element, and the sum alone need not be one: with a^2 = 2 and
    (b + a)^2 = 3 it is a square root of 3."""
    yield field.zero()
    gens = [field.generator(i) for i in range(field.level)]
    for c in product((1, 2, 3), repeat=field.level - 1):
        gamma = gens[0]
        for ci, g in zip(c, gens[1:]):
            gamma = gamma + g * ci
        for s in (1, -1, 2, -2, 3, -3, 5, -5, 7):
            yield gamma * s


def _trager_factor(field, p):
    """Factor a monic squarefree p over a proper tower."""
    for shift in _trager_shifts(field):
        shifted = poly_compose_linear(field, p, field.one(), -shift)
        factors = _rational_factors(_norm_to_qq(field, shifted))
        if any(mult != 1 for _, mult in factors):
            continue  # the norm is not squarefree
        pieces = []
        for fc, _ in factors:
            g = poly_gcd(field, shifted, [field.from_rational(c) for c in fc])
            if poly_degree(g) > 0:
                pieces.append(poly_compose_linear(field, g, field.one(), shift))
        expanded = [field.one()]
        for piece in pieces:
            expanded = poly_mul(field, expanded, piece)
        if _poly_strip(poly_sub(field, expanded, list(p))):
            continue  # bad shift; the verification failed
        return [(piece, 1) for piece in pieces]
    raise ArithmeticError("no Trager shift produced a squarefree norm")


def factor_poly(field, p):
    """Monic irreducible factors with multiplicity, deterministically ordered.

    A polynomial of degree 1 is its own monic factor, returned without the
    squarefree decomposition, the norms and the Trager shifts.  Over Q a
    quadratic is split in closed form by its discriminant, and sympy's dense
    factoriser takes degree 3 and above.
    """
    p = poly_monic(field, list(p))
    if poly_degree(p) < 1:
        return []
    if poly_degree(p) == 1:
        return [(p, 1)]
    if field.level == 0:
        out = _factor_over_qq(field, p)
    else:
        out = [(fac, m * mult) for sqf, mult in squarefree_decomposition(field, p)
               for fac, m in _trager_factor(field, sqf)]
    out.sort(key=lambda fm: (poly_degree(fm[0]), tuple(repr(c) for c in fm[0])))
    return out
