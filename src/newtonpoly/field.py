"""Exact ground fields: towers of simple algebraic extensions over Q.

An element of a tower with steps of degrees d_1, ..., d_m is stored as nested
tuples: a level-0 element is a Fraction, a level-k element is a tuple of d_k
level-(k-1) elements (coefficients in the k-th generator).  All arithmetic is
exact; inverses come from the extended Euclidean algorithm one level down.

Univariate factorisation over Q is in closed form up to degree 2: a monic
quadratic u^2 + bu + c splits exactly when its discriminant b^2 - 4c is the
square of a rational.  From degree 3 the integer coefficients, denominators
cleared, go to sympy's dense factoriser (dup_factor_list).  Over a proper
tower it uses Trager's norm descent: the packed resultant kernel of
newtonpoly.series eliminates the generators one step at a time, the
rational norm is factored as above, and gcds over the tower lift the
factors.  The lifted factorisation is re-verified by multiplying back, so a
badly chosen shift can only cause a retry, never a wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import isqrt, lcm

from sympy.polys.domains import ZZ
from sympy.polys.factortools import dup_factor_list

from .errors import ReducibleExtension

_RESERVED_NAMES = {"x", "y", "t", "T", "U", "O", "inf"}


@dataclass(frozen=True)
class ExtensionStep:
    name: str
    minpoly: tuple  # monic coefficients over the previous level, ascending

    @property
    def degree(self) -> int:
        return len(self.minpoly) - 1


class GroundField:
    """Immutable tower of simple extensions of the rationals."""

    __slots__ = ("steps",)

    def __init__(self, steps=()):
        object.__setattr__(self, "steps", tuple(steps))

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
            f"{s.name}: {self._poly_str(s.minpoly, s.name, level)}"
            for level, s in enumerate(self.steps)
        )
        return f"QQ[{parts}]"

    def _poly_str(self, coeffs, var, level):
        terms = []
        for k in range(len(coeffs) - 1, -1, -1):
            c = coeffs[k]
            if _data_is_zero(c):
                continue
            cs = _data_str(c, self, level)
            if k == 0:
                terms.append(cs)
            else:
                head = "" if cs == "1" else ("-" if cs == "-1" else cs + "*")
                terms.append(f"{head}{var}^{k}" if k > 1 else f"{head}{var}")
        return " + ".join(terms).replace("+ -", "- ") or "0"

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
        return FieldElement(self, _const(Fraction(0), self.level, self))

    def one(self) -> "FieldElement":
        return FieldElement(self, _const(Fraction(1), self.level, self))

    def from_rational(self, q) -> "FieldElement":
        return FieldElement(self, _const(Fraction(q), self.level, self))

    def generator(self, index=None) -> "FieldElement":
        """The top generator, or the one at the given step index."""
        if index is None:
            index = self.level - 1
        if not 0 <= index < self.level:
            raise ValueError("no such generator")
        data = _gen_data(self, index)
        return FieldElement(self, data)

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
        data = elem.data
        for k in range(elem.field.level, self.level):
            deg = self.steps[k].degree
            pad = _const(Fraction(0), k, self)
            data = (data,) + tuple(pad for _ in range(deg - 1))
        return FieldElement(self, data)

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
        step = ExtensionStep(name, tuple(c.data for c in coeffs))
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
        if isinstance(value, (int, Fraction)):
            return self.from_rational(value)
        raise TypeError(f"cannot coerce {value!r} into {self!r}")


QQ = GroundField()


# -- raw data helpers --------------------------------------------------------


def _const(q: Fraction, level: int, field: GroundField):
    data = q
    for k in range(level):
        deg = field.steps[k].degree
        data = (data,) + tuple(_const(Fraction(0), k, field) for _ in range(deg - 1))
    return data


def _gen_data(field: GroundField, index: int):
    deg = field.steps[index].degree
    zero = _const(Fraction(0), index, field)
    one = _const(Fraction(1), index, field)
    if deg == 1:
        # degenerate degree-1 step: generator is a constant
        mp = field.steps[index].minpoly
        data = (_dneg(index, mp[0]),)
    else:
        data = (zero, one) + tuple(zero for _ in range(deg - 2))
    for k in range(index + 1, field.level):
        d = field.steps[k].degree
        pad = _const(Fraction(0), k, field)
        data = (data,) + tuple(pad for _ in range(d - 1))
    return data


def _data_is_zero(data) -> bool:
    if data.__class__ is Fraction:
        return not data
    return all(_data_is_zero(c) for c in data)


def _dadd(level, a, b):
    if level == 0:
        return a + b
    return tuple(_dadd(level - 1, x, y) for x, y in zip(a, b))


def _dneg(level, a):
    if level == 0:
        return -a
    return tuple(_dneg(level - 1, x) for x in a)


def _dsub(level, a, b):
    return _dadd(level, a, _dneg(level, b))


def _dmul(field, level, a, b):
    if level == 0:
        return a * b
    deg = len(a)
    lower = level - 1
    zero = _const(Fraction(0), lower, field)
    prod = [zero] * (2 * deg - 1)
    for i, ai in enumerate(a):
        if _data_is_zero(ai):
            continue
        for j, bj in enumerate(b):
            if _data_is_zero(bj):
                continue
            prod[i + j] = _dadd(lower, prod[i + j], _dmul(field, lower, ai, bj))
    return _dreduce(field, level, prod)


def _dreduce(field, level, prod):
    """Reduce a polynomial in the level's generator modulo the level's monic
    minimal polynomial; prod lists at least deg of its coefficients,
    ascending, each reduced one level down.  Reuses prod as scratch."""
    deg = field.steps[level - 1].degree
    mp = field.steps[level - 1].minpoly
    lower = level - 1
    for k in range(len(prod) - 1, deg - 1, -1):
        c = prod[k]
        if _data_is_zero(c):
            continue
        for j in range(deg):
            prod[k - deg + j] = _dsub(
                lower, prod[k - deg + j], _dmul(field, lower, c, mp[j])
            )
    return tuple(prod[:deg])


def _data_str(data, field: GroundField, level: int) -> str:
    if level == 0:
        return str(data)
    name = field.steps[level - 1].name
    terms = []
    for k, c in enumerate(data):
        if _data_is_zero(c):
            continue
        cs = _data_str(c, field, level - 1)
        if any(op in cs[1:] for op in "+-") and level - 1 > 0:
            cs = f"({cs})"
        if k == 0:
            terms.append(cs)
        elif cs == "1":
            terms.append(name if k == 1 else f"{name}^{k}")
        elif cs == "-1":
            terms.append(f"-{name}" if k == 1 else f"-{name}^{k}")
        else:
            terms.append(f"{cs}*{name}" if k == 1 else f"{cs}*{name}^{k}")
    if not terms:
        return "0"
    return " + ".join(terms).replace("+ -", "- ")


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
        data = self.data
        level = self.field.level
        while level > 0:
            if any(not _data_is_zero(c) for c in data[1:]):
                return None
            data = data[0]
            level -= 1
        return data

    def _binary(self, other, op):
        """op(level, a, b) on the data of self and other, other an int, a
        Fraction or an element of the same field; elements of another field
        raise ValueError (GroundField.lift embeds them explicitly)."""
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        elif not isinstance(other, FieldElement):
            return NotImplemented
        elif other.field != self.field:
            raise ValueError("elements of different fields")
        return FieldElement(self.field, op(self.field.level, self.data, other.data))

    def __add__(self, other):
        if other.__class__ is FieldElement and other.field is self.field:
            return FieldElement(self.field, _dadd(self.field.level, self.data, other.data))
        return self._binary(other, _dadd)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, _dneg(self.field.level, self.data))

    def __sub__(self, other):
        if other.__class__ is FieldElement and other.field is self.field:
            return FieldElement(self.field, _dsub(self.field.level, self.data, other.data))
        return self._binary(other, _dsub)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        field = self.field
        if other.__class__ is FieldElement and other.field is field:
            return FieldElement(field, _dmul(field, field.level, self.data, other.data))
        return self._binary(other, partial(_dmul, field))

    __rmul__ = __mul__

    def inverse(self):
        """Extended Euclid of the element, as a polynomial in the top
        generator, against the top minimal polynomial, one level down."""
        field = self.field
        if field.level == 0:
            return FieldElement(field, Fraction(1) / self.data)
        base = GroundField(field.steps[:-1])
        r0 = [FieldElement(base, c) for c in field.steps[-1].minpoly]
        r1 = _poly_strip(FieldElement(base, c) for c in self.data)
        s0, s1 = [], [base.one()]
        while poly_degree(r1) > 0:
            q, r = poly_divmod(base, r0, r1)
            s0, s1 = s1, poly_sub(base, s0, poly_mul(base, q, s1))
            r0, r1 = r1, r
        if not r1:
            raise ZeroDivisionError("inverse of zero")
        deg = field.steps[-1].degree
        if len(s1) > deg:
            raise ArithmeticError("Bezout coefficient exceeded the extension degree")
        c_inv = r1[0].inverse()
        data = [(c_inv * c).data for c in s1]
        zero = _const(Fraction(0), base.level, base)
        return FieldElement(field, tuple(data + [zero] * (deg - len(data))))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
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
        minpoly = field.steps[level - 1].minpoly
        m = YPolynomial.from_terms(
            {(0, i): FieldElement(base, c) for i, c in enumerate(minpoly)}, base)
        q = YPolynomial.from_terms({(e, i): FieldElement(base, ci)
                                    for e, c in enumerate(coeffs) for i, ci in enumerate(c)}, base)
        norm = sylvester_resultant(m, q)
        terms, zero = dict(norm.coeffs), base.zero()
        coeffs = [terms.get(e, zero).data for e in range(norm.degree() + 1)]
    return coeffs


def _trager_factor(field, p):
    """Factor a monic squarefree p over a proper tower."""
    gamma = field.generator(0)
    for i in range(1, field.level):
        gamma = gamma + field.generator(i)
    for s in (0, 1, -1, 2, -2, 3, -3, 5, -5, 7):
        shift = field.from_rational(s) * gamma
        shifted = poly_compose_linear(field, p, field.one(), -shift)
        factors = _rational_factors(_norm_to_qq(field, shifted))
        if any(mult != 1 for _, mult in factors):
            continue  # the norm is not squarefree
        pieces = []
        for fc, _ in factors:
            g = poly_gcd(field, shifted, [field.from_rational(c) for c in fc])
            if poly_degree(g) > 0:
                pieces.append(poly_compose_linear(field, g, field.one(), shift))
        product = [field.one()]
        for piece in pieces:
            product = poly_mul(field, product, piece)
        if _poly_strip(poly_sub(field, product, list(p))):
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
