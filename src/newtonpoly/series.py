"""Truncated power series and unitary polynomials over ground-field towers.

A :class:`TruncatedSeries` stores sparse exact coefficients below an explicit
precision bound (INF for exact polynomials); every operation propagates the
bound pessimistically, and polygon or valuation extraction refuses to answer
when a hidden term could change the result.  Operators need operands over
one field; only the functions that take two polynomials, or a polynomial
and a branch or substitution, join nested towers (join_fields) first.

Series products over every tower share one kernel (Kronecker substitution):
each operand is read as a polynomial in t and the tower's generators, its
denominators are cleared, and it is packed into one Python integer; one
multiplication gives every coefficient of the product, which is unpacked
and reduced modulo the minimal polynomials.  Series inverses run Newton
iteration on that product.

A :class:`YPolynomial` is a polynomial in a distinguished variable y whose
coefficients are truncated series in x.  This module extracts Newton polygons
and edge polynomials, decides nondegeneracy of pairs, and computes Sylvester
resultants, the shifted resultant realising the polygon product, the level
resultant Res_y(f - T, g), and intersection numbers at the origin read off
the resultant's valuation.

Resultants share one kernel too (_packed_resultant).  The Sylvester, shifted
Res_U(P1(T+U), P2(U)) and level resultants read their operands as
polynomials in y over k[T, x], clear denominators, and pack
every generator of the tower, x and T into slots of one integer, each
variable with room for its degree in the result; sympy's univariate
subresultant PRS then takes one integer resultant in y, whose balanced
base-2^K digits are the coefficients of the resultant, reduced modulo the
minimal polynomials.  It is the Sylvester determinant with the first
operand in the top rows, sign included.  Only the first operand must be
unitary: by Halphen's formula the order of the resultant then counts
intersections on x = 0 whatever the second operand's leading coefficient.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import comb, gcd, lcm

from sympy.polys.domains import ZZ
from sympy.polys.euclidtools import dup_resultant

from . import field as fld
from .errors import (
    EmptySupport,
    NotAnEdge,
    NotIsolated,
    NotLocal,
    NotUnitary,
    PrecisionInsufficient,
    YDivisible,
)
from .field import QQ, FieldElement, GroundField
from .polygon import (
    INF,
    ElementaryPolygon,
    NewtonPolygon,
    boundary_at,
    from_support,
    is_inf,
    transpose,
)


def join_fields(k1: GroundField, k2: GroundField) -> GroundField:
    if k1.is_prefix_of(k2):
        return k2
    if k2.is_prefix_of(k1):
        return k1
    raise ValueError("towers are not nested; cannot join")


# -- truncated series ---------------------------------------------------------


@dataclass(frozen=True)
class TruncatedSeries:
    """Sparse exact series; exponents >= precision are unknown."""

    field: GroundField
    var: str
    coeffs: tuple  # ((exp, FieldElement), ...) sorted, nonzero, exp < precision
    precision: object = INF

    @staticmethod
    def make(field, var, coeff_map, precision=INF) -> "TruncatedSeries":
        items = []
        for exp, c in sorted(coeff_map.items()):
            if exp < 0:
                raise ValueError("negative exponents are not supported")
            if c.__class__ is not FieldElement or c.field is not field:
                c = field.coerce(c)
            if not c.is_zero() and exp < precision:
                items.append((int(exp), c))
        return TruncatedSeries(field, var, tuple(items), precision)

    @staticmethod
    def zero(field, var, precision=INF) -> "TruncatedSeries":
        return TruncatedSeries(field, var, (), precision)

    @staticmethod
    def constant(field, var, value, precision=INF) -> "TruncatedSeries":
        return TruncatedSeries.make(field, var, {0: value}, precision)

    @staticmethod
    def monomial(field, var, exp, value=1, precision=INF) -> "TruncatedSeries":
        return TruncatedSeries.make(field, var, {exp: value}, precision)

    # -- structure -------------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return is_inf(self.precision)

    def is_zero(self) -> bool:
        """Identically zero, certified (needs exact precision)."""
        return not self.coeffs and self.is_exact

    def order(self):
        """Valuation; INF for the exact zero series.

        Raises PrecisionInsufficient when the series vanishes to a finite
        precision bound, since a hidden term may exist.
        """
        if self.coeffs:
            return self.coeffs[0][0]
        if self.is_exact:
            return INF
        raise PrecisionInsufficient(
            f"series vanishes to O({self.var}^{self.precision}); order unknown",
            required=self.precision,
        )

    def degree(self) -> int:
        if not self.is_exact:
            raise PrecisionInsufficient("degree of a truncated series is unknown")
        if not self.coeffs:
            raise ValueError("degree of the zero series")
        return self.coeffs[-1][0]

    def coefficient(self, exp: int) -> FieldElement:
        if exp >= self.precision:
            raise PrecisionInsufficient(
                f"coefficient of {self.var}^{exp} beyond precision {self.precision}",
                required=exp + 1,
            )
        for e, c in self.coeffs:
            if e == exp:
                return c
        return self.field.zero()

    def as_dict(self) -> dict:
        return {e: c for e, c in self.coeffs}

    # -- field/precision management ---------------------------------------

    def lift_field(self, new_field: GroundField) -> "TruncatedSeries":
        if new_field == self.field:
            return self
        return TruncatedSeries(
            new_field,
            self.var,
            tuple((e, new_field.lift(c)) for e, c in self.coeffs),
            self.precision,
        )

    def truncate(self, precision) -> "TruncatedSeries":
        p = min(self.precision, precision)
        return TruncatedSeries(
            self.field, self.var, tuple((e, c) for e, c in self.coeffs if e < p), p
        )

    def _coerce_pair(self, other):
        """(self, other), a scalar other made a constant; other fields raise.
        None for another type, for which the operators return NotImplemented."""
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        if isinstance(other, FieldElement):
            other = TruncatedSeries.constant(other.field, self.var, other)
        if not isinstance(other, TruncatedSeries):
            return None
        if other.var != self.var:
            raise ValueError(f"variable mismatch {self.var} vs {other.var}")
        if other.field != self.field:
            raise ValueError("series over different fields")
        return self, other

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        pair = self._coerce_pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        p = min(a.precision, b.precision)
        out = dict(a.coeffs)
        for e, c in b.coeffs:
            out[e] = out[e] + c if e in out else c
        return TruncatedSeries.make(a.field, a.var, out, p)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(
            self.field, self.var, tuple((e, -c) for e, c in self.coeffs), self.precision
        )

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """Product, known to min(p_a + v_b, p_b + v_a).

        Terms that cannot land below that precision are dropped, and the
        rest are multiplied by the packed kernel, _packed_product, one pair
        of runs (see _runs) at a time.
        """
        pair = self._coerce_pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        if is_inf(a.precision) and is_inf(b.precision):
            p = INF
        else:
            va = a.coeffs[0][0] if a.coeffs else a.precision
            vb = b.coeffs[0][0] if b.coeffs else b.precision
            p = min(a.precision + vb, b.precision + va)
        if not (a.coeffs and b.coeffs):
            return TruncatedSeries(a.field, a.var, (), p)
        terms_a, terms_b = a.coeffs, b.coeffs
        if not is_inf(p):
            va, vb = terms_a[0][0], terms_b[0][0]
            terms_a = [t for t in terms_a if t[0] + vb < p]
            terms_b = [t for t in terms_b if t[0] + va < p]
        runs_a, runs_b = _runs(terms_a), _runs(terms_b)
        parts = [_packed_product(a.field, ra, rb, p) for ra in runs_a for rb in runs_b]
        if len(parts) == 1:
            return TruncatedSeries(a.field, a.var, parts[0], p)
        out: dict = {}
        for part in parts:
            for e, c in part:
                out[e] = out[e] + c if e in out else c
        return TruncatedSeries.make(a.field, a.var, out, p)

    __rmul__ = __mul__

    def scale(self, c) -> "TruncatedSeries":
        c = self.field.coerce(c)
        return TruncatedSeries.make(
            self.field, self.var, {e: v * c for e, v in self.coeffs}, self.precision
        )

    def shift(self, k: int) -> "TruncatedSeries":
        """Multiply by var^k; k may be negative if no exponent drops below 0."""
        if self.coeffs and self.coeffs[0][0] + k < 0:
            raise ValueError("shift would create negative exponents")
        return TruncatedSeries(
            self.field,
            self.var,
            tuple((e + k, c) for e, c in self.coeffs),
            self.precision if is_inf(self.precision) else self.precision + k,
        )

    def substitute_pow(self, e: int, new_var=None) -> "TruncatedSeries":
        """Replace var by new_var**e."""
        if e < 1:
            raise ValueError("exponent must be positive")
        p = self.precision if is_inf(self.precision) else self.precision * e
        return TruncatedSeries(
            self.field,
            new_var or self.var,
            tuple((exp * e, c) for exp, c in self.coeffs),
            p,
        )

    def rename(self, new_var: str) -> "TruncatedSeries":
        return TruncatedSeries(self.field, new_var, self.coeffs, self.precision)

    def inverse(self, target=None) -> "TruncatedSeries":
        """Multiplicative inverse of a unit series, to the given precision.

        Newton iteration x <- x + x*(1 - a*x) doubles the number of correct
        terms at each step, starting from the inverse of the constant term.
        Between steps x is held as an exact polynomial, so that a*x is known
        to the new precision.  When x is correct below n, a*x is 1 below n,
        so 1 - a*x is minus the terms of a*x from n on, and the correction
        x*(1 - a*x) has no term below n to add to x's.
        """
        if not self.coeffs or self.coeffs[0][0] != 0:
            raise NotUnitary("series inverse needs a unit (order-0) series")
        p = self.precision if target is None else min(self.precision, target)
        k, var = self.field, self.var
        x = TruncatedSeries.constant(k, var, self.coeffs[0][1].inverse())
        if is_inf(p):
            if len(self.coeffs) == 1:
                return x
            raise PrecisionInsufficient("inverse of a non-constant unit needs a finite target")
        n = 1
        while n < p:
            n, low = min(2 * n, p), n
            ax = self.truncate(n) * x
            err = TruncatedSeries(k, var, tuple((e, -c) for e, c in ax.coeffs if e >= low), n)
            x = TruncatedSeries(k, var, x.coeffs + (x * err).coeffs, INF)
        return x.truncate(p)

    def exact_div(self, other) -> "TruncatedSeries":
        """Exact polynomial division; both operands must be exact."""
        pair = self._coerce_pair(other)
        if pair is None:
            raise TypeError(f"cannot divide a series by {type(other).__name__}")
        a, b = pair
        if not (a.is_exact and b.is_exact):
            raise PrecisionInsufficient("exact division needs exact operands")
        if b.is_zero():
            raise ZeroDivisionError("division by the zero series")
        num = dict(a.coeffs)
        den = b.as_dict()
        dlead = max(den)
        dlc_inv = den[dlead].inverse()
        out = {}
        while num:
            nlead = max(num)
            if nlead < dlead:
                raise ArithmeticError("exact division has a remainder")
            q = num[nlead] * dlc_inv
            out[nlead - dlead] = q
            for e, c in den.items():
                tgt = nlead - dlead + e
                v = num.get(tgt, a.field.zero()) - q * c
                if v.is_zero():
                    num.pop(tgt, None)
                else:
                    num[tgt] = v
        return TruncatedSeries.make(a.field, a.var, out, INF)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (
            self.var == other.var
            and self.precision == other.precision
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.var, self.precision, self.field, self.coeffs))

    def __repr__(self):
        return format_series(self)


# -- the packed kernels ---------------------------------------------------------
# A series over a tower with step degrees d_1..d_k is read as a polynomial in
# (t, a_1, ..., a_k) with rational coefficients.  Its terms go to slots of
# one integer: each packed variable gets a span of slots, and the term
# t^e a_1^i_1 ... a_k^i_k (e counted from the valuation) takes slot
# i_1 + s_1*(i_2 + s_2*(... + s_k*e)), where s_i is the span of a_i.  The
# product kernel gives a_i the span 2d_i - 1, so that the exponents of a
# product never overflow into the next slot; the resultant kernel reads its
# spans off its operands.  Each slot is w bytes wide, enough for any
# coefficient of the result with its sign, so one big-integer multiplication
# (or one integer resultant) computes every coefficient at once.


def _runs(terms):
    """Split terms where consecutive exponents lie more than len(terms)
    apart, so that no run packs more than len(terms)**2 slots of each power
    of t, however far apart the exponents of a sparse series are."""
    n = len(terms)
    if terms[-1][0] - terms[0][0] <= n:
        return [terms]
    cuts = [i for i in range(1, n) if terms[i][0] - terms[i - 1][0] > n]
    return [terms[i:j] for i, j in zip([0] + cuts, cuts + [n])]


def _slot_strides(spans):
    """Strides of packed variables with the given spans, innermost first:
    the first stride is 1, and each further one is the product of the
    spans below it; the last is the number of slots."""
    strides = [1]
    for span in spans:
        strides.append(strides[-1] * span)
    return strides


def _flatten(data, level, strides, slot, slots, rationals):
    """Append the slot and value of each nonzero rational of a field datum."""
    if level == 0:
        if data:
            slots.append(slot)
            rationals.append(data)
        return
    stride = strides[level - 1]
    for i, c in enumerate(data):
        _flatten(c, level - 1, strides, slot + i * stride, slots, rationals)


def _integer_slots(terms, level, strides):
    """(D, slots, integers): the nonzero rationals of the terms by slot,
    times D, the lcm of their denominators."""
    size, v = strides[-1], terms[0][0]
    slots, rationals = [], []
    for e, c in terms:
        _flatten(c.data, level, strides, (e - v) * size, slots, rationals)
    den = lcm(*[q.denominator for q in rationals])
    return den, slots, [q.numerator * (den // q.denominator) for q in rationals]


def _slot_bias(nslots, width):
    """The top bit of each of nslots slots of width bytes."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * nslots, "little")


def _pack(slots, values, width, bias):
    """The integer sum of value * 2^(8 * width * slot): each value goes into
    its slot as width bytes of two's complement, and XOR-ing the bias (the top
    bit of every slot) then subtracting it turns those into signed digits."""
    buf = bytearray((slots[-1] + 1) * width)
    for slot, value in zip(slots, values):
        i = slot * width
        buf[i:i + width] = value.to_bytes(width, "little", signed=True)
    return (int.from_bytes(buf, "little") ^ bias) - bias


def _unpack(value, width, bias, nslots, count):
    """The first count signed digits of a value packed in nslots slots of
    width bytes, each digit below 2^(8 * width - 1) in absolute value.
    Adding the bias makes each slot nonnegative without carries, and XOR-ing
    it back leaves each slot in two's complement, read by byte slicing."""
    raw = ((value + bias) ^ bias).to_bytes(nslots * width, "little")
    return [
        int.from_bytes(raw[i:i + width], "little", signed=True)
        for i in range(0, count * width, width)
    ]


_ZERO = Fraction(0)


def _unflatten(field, level, values, slot, strides, den):
    """Field datum of the slots from slot on, divided by den and reduced
    modulo the minimal polynomials, innermost level first.  The span of
    each generator is read off the strides; one below the generator's
    degree is padded with zeros."""
    if level == 0:
        return Fraction(values[slot], den) if values[slot] else _ZERO
    stride = strides[level - 1]
    prod = [
        _unflatten(field, level - 1, values, slot + i * stride, strides, den)
        for i in range(strides[level] // stride)
    ]
    prod += [fld._const(_ZERO, level - 1, field)] * (field.steps[level - 1].degree - len(prod))
    return fld._dreduce(field, level, prod)


def _packed_product(field, terms_a, terms_b, p):
    """Terms (exp, FieldElement) of the product below p, by one big-integer
    multiplication (Kronecker substitution).

    Denominators are cleared first, so every slot of the product holds an
    integer bounded by max|A| * max|B| * min(#A, #B); the slot width leaves
    room for it and a sign, so _unpack reads every slot back.
    """
    strides, level = _slot_strides([2 * step.degree - 1 for step in field.steps]), field.level
    size = strides[-1]
    den_a, slots_a, ints_a = _integer_slots(terms_a, level, strides)
    den_b, slots_b, ints_b = _integer_slots(terms_b, level, strides)
    bound = max(map(abs, ints_a)) * max(map(abs, ints_b)) * min(len(ints_a), len(ints_b))
    width = (bound.bit_length() + 8) // 8
    v = terms_a[0][0] + terms_b[0][0]
    nslots = (terms_a[-1][0] + terms_b[-1][0] - v + 1) * size
    bias = _slot_bias(nslots, width)
    product = _pack(slots_a, ints_a, width, bias) * _pack(slots_b, ints_b, width, bias)
    count = nslots if is_inf(p) else min(nslots, (p - v) * size)
    values = _unpack(product, width, bias, nslots, count)
    den, out = den_a * den_b, []
    for lo in range(0, count, size):
        if any(values[lo:lo + size]):
            data = _unflatten(field, level, values, lo, strides, den)
            # over a tower, a nonzero block can reduce to zero
            if not (level and fld._data_is_zero(data)):
                out.append((v + lo // size, FieldElement(field, data)))
    return tuple(out)


# -- polynomials in y over series ----------------------------------------------


@dataclass(frozen=True)
class YPolynomial:
    """Polynomial in yvar with TruncatedSeries coefficients in xvar."""

    xvar: str
    yvar: str
    coeffs: tuple  # index = y-degree

    @staticmethod
    def make(coeffs, xvar="x", yvar="y") -> "YPolynomial":
        coeffs = list(coeffs)
        if not coeffs:
            raise ValueError("need at least one coefficient")
        if any(c.field != coeffs[0].field for c in coeffs):
            raise ValueError("coefficients over different fields")
        while len(coeffs) > 1 and coeffs[-1].is_zero():
            coeffs.pop()
        return YPolynomial(xvar, yvar, tuple(coeffs))

    @staticmethod
    def from_terms(terms, field=QQ, xvar="x", yvar="y", precision=INF) -> "YPolynomial":
        """Build from {(xexp, ydeg): coefficient}."""
        maxdeg = max((j for (_, j) in terms), default=0)
        cols: list[dict] = [dict() for _ in range(maxdeg + 1)]
        for (i, j), c in terms.items():
            cols[j][i] = c
        return YPolynomial.make(
            [TruncatedSeries.make(field, xvar, col, precision) for col in cols],
            xvar,
            yvar,
        )

    @property
    def field(self) -> GroundField:
        return self.coeffs[0].field

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def is_unitary(self) -> bool:
        """Leading coefficient is a unit series (order 0)."""
        lead = self.coeffs[-1]
        return bool(lead.coeffs) and lead.coeffs[0][0] == 0

    def is_y_divisible(self) -> bool:
        return self.coeffs[0].is_zero()

    def lift_field(self, new_field) -> "YPolynomial":
        return YPolynomial(self.xvar, self.yvar, tuple(c.lift_field(new_field) for c in self.coeffs))

    def _coerce_pair(self, other):
        """(self, other), a scalar or series other made a polynomial; other fields raise.
        None for another type, for which the operators return NotImplemented."""
        if isinstance(other, (int, Fraction, FieldElement)):
            other = self.coeffs[0]._coerce_pair(other)[1]
        if isinstance(other, TruncatedSeries):
            other = YPolynomial.make([other], self.xvar, self.yvar)
        if not isinstance(other, YPolynomial):
            return None
        if (other.xvar, other.yvar) != (self.xvar, self.yvar):
            raise ValueError("variable mismatch")
        if other.field != self.field:
            raise ValueError("polynomials over different fields")
        return self, other

    def __add__(self, other):
        pair = self._coerce_pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        z = TruncatedSeries.zero(a.field, a.xvar)
        sums = [c + d for c, d in zip_longest(a.coeffs, b.coeffs, fillvalue=z)]
        return YPolynomial.make(sums, a.xvar, a.yvar)

    __radd__ = __add__

    def __neg__(self):
        return YPolynomial(self.xvar, self.yvar, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        pair = self._coerce_pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        z = TruncatedSeries.zero(a.field, a.xvar)
        out = [z] * (len(a.coeffs) + len(b.coeffs) - 1)
        for i, ca in enumerate(a.coeffs):
            if ca.is_zero():
                continue
            for j, cb in enumerate(b.coeffs):
                out[i + j] = out[i + j] + ca * cb
        return YPolynomial.make(out, a.xvar, a.yvar)

    __rmul__ = __mul__

    def dy(self) -> "YPolynomial":
        if self.degree() == 0:
            return YPolynomial.make(
                [TruncatedSeries.zero(self.field, self.xvar)], self.xvar, self.yvar
            )
        return YPolynomial.make(
            [self.coeffs[k].scale(k) for k in range(1, len(self.coeffs))],
            self.xvar,
            self.yvar,
        )

    def dx(self) -> "YPolynomial":
        out = []
        for c in self.coeffs:
            p = c.precision if is_inf(c.precision) else max(c.precision - 1, 0)
            out.append(
                TruncatedSeries.make(
                    c.field, c.var, {e - 1: v * e for e, v in c.coeffs if e >= 1}, p
                )
            )
        return YPolynomial.make(out, self.xvar, self.yvar)

    def eval_on_branch(self, e: int, yseries: TruncatedSeries) -> TruncatedSeries:
        """Evaluate f(t^e, y(t)) for a branch parameterisation; with e = 1
        this is f(x, y(x)) for a series y in the x-variable."""
        k = join_fields(self.field, yseries.field)
        ys = yseries.lift_field(k)
        acc = TruncatedSeries.zero(k, ys.var)
        for c in reversed(self.coeffs):
            cs = c.lift_field(k).substitute_pow(e, new_var=ys.var)
            acc = acc * ys + cs
        return acc

    def substitute(self, xs, ys) -> "YPolynomial":
        """Exact substitution f(X, Y) of polynomials X and Y in (x, y), each
        given as {(xexp, ydeg): value} with values in f's field or a tower
        over it (ints and Fractions are coerced).

        Expanded by Horner's rule in y on term dictionaries (_mul_terms and
        _add_terms), whose products are of field elements, not of series.
        """
        if not all(coeff.is_exact for coeff in self.coeffs):
            raise PrecisionInsufficient("coordinate change needs exact coefficients")
        k = self.field
        for v in (*xs.values(), *ys.values()):
            if isinstance(v, FieldElement):
                k = join_fields(k, v.field)
        xs, ys = ({key: k.coerce(v) for key, v in m.items()} for m in (xs, ys))
        coeffs = self.lift_field(k).coeffs
        x_powers = [{(0, 0): k.one()}]
        for _ in range(max((c.coeffs[-1][0] for c in coeffs if c.coeffs), default=0)):
            x_powers.append(_mul_terms(x_powers[-1], xs))
        acc = {}
        for coeff in reversed(coeffs):
            acc = _add_terms(_mul_terms(acc, ys), (
                (key, v * c) for e, v in coeff.coeffs for key, c in x_powers[e].items()))
        return YPolynomial.from_terms(acc, k, self.xvar, self.yvar)

    def substitute_linear(self, a, b, c, d) -> "YPolynomial":
        """Exact coordinate change (x, y) -> (a x + b y, c x + d y)."""
        return self.substitute({(1, 0): a, (0, 1): b}, {(1, 0): c, (0, 1): d})

    def support(self) -> dict:
        """Known support {(xexp, ydeg): coefficient}."""
        out = {}
        for j, c in enumerate(self.coeffs):
            for e, v in c.coeffs:
                out[(e, j)] = v
        return out

    def multiplicity(self) -> int:
        """Lowest total degree of a known term (order of the curve germ)."""
        supp = self.support()
        if not supp:
            raise EmptySupport("zero polynomial")
        return min(i + j for i, j in supp)

    def coefficient(self, xexp: int, ydeg: int) -> FieldElement:
        if ydeg >= len(self.coeffs):
            return self.field.zero()
        return self.coeffs[ydeg].coefficient(xexp)

    def __repr__(self):
        return format_polynomial(self)


# -- Newton polygon extraction ---------------------------------------------------


def newton_polygon_of(f: YPolynomial) -> NewtonPolygon:
    """Newton polygon of the support, certified against hidden terms."""
    points = []
    hidden = []
    for j, c in enumerate(f.coeffs):
        if c.coeffs:
            points.append((c.coeffs[0][0], j))
        elif not c.is_exact:
            hidden.append((c.precision, j))
    if not points:
        if hidden:
            raise PrecisionInsufficient("all coefficients vanish to their precision")
        raise EmptySupport("newton polygon of the zero polynomial")
    poly = from_support(points)
    for px, j in hidden:
        if boundary_at(poly, px) > j:
            need = _deciding_precision(poly, j)
            hint = (
                f"need x-precision {need}"
                if need is not None
                else "no finite precision decides; certify the coefficient exactly"
            )
            raise PrecisionInsufficient(
                f"hidden term in the y^{j} coefficient could change the polygon; " + hint,
                required=need,
            )
    return poly


def _deciding_precision(poly: NewtonPolygon, j: int):
    """Least integer abscissa where the known boundary drops to j, if any."""
    if j < poly.y_offset:
        return None  # a term at this y-degree changes the hull at every order
    x = 0
    while boundary_at(poly, x) > j:
        x += 1
    return x


@dataclass(frozen=True)
class PolygonEdge:
    """A compact edge of N(f), with its top vertex position."""

    elem: ElementaryPolygon
    top: tuple  # (A, B + h)

    @property
    def bottom(self):
        return (self.top[0] + self.elem.ell, self.top[1] - self.elem.h)


def polygon_edges(f: YPolynomial):
    """Compact edges of N(f), steepest first."""
    poly = newton_polygon_of(f)
    verts = poly.vertices()
    return [
        PolygonEdge(e, verts[i])
        for i, e in enumerate(poly.edges)
    ]


def edge_polynomial(f: YPolynomial, edge) -> YPolynomial:
    """Sub-sum of f's terms whose exponents lie on the given compact edge."""
    edges = polygon_edges(f)
    if isinstance(edge, ElementaryPolygon):
        matches = [e for e in edges if e.elem == edge]
        if not matches:
            raise NotAnEdge(f"{edge!r} is not an edge of N(f)")
        edge = matches[0]
    elif isinstance(edge, PolygonEdge):
        if edge not in edges:
            raise NotAnEdge(f"{edge!r} is not an edge of N(f)")
    else:
        raise TypeError("edge must be an ElementaryPolygon or PolygonEdge")
    (ax, ay), (bx, by) = edge.top, edge.bottom
    terms = {}
    for (i, j), v in f.support().items():
        # on segment iff cross product vanishes and within the x-range
        if (bx - ax) * (j - ay) - (by - ay) * (i - ax) == 0 and ax <= i <= bx:
            terms[(i, j)] = v
    return YPolynomial.from_terms(terms, f.field, f.xvar, f.yvar)


def edge_lattice_coefficients(f: YPolynomial, edge: PolygonEdge):
    """Coefficients c_0..c_g of the lattice points along the edge, top down.

    The edge {l/h} with g = gcd(l, h), l = g*q, h = g*p carries lattice
    points (A + j*q, B + h - j*p); c_j is f's coefficient there.
    """
    ell, h = edge.elem.ell, edge.elem.h
    g = gcd(ell, h)
    q, p = ell // g, h // g
    ax, ay = edge.top
    return [f.coefficient(ax + j * q, ay - j * p) for j in range(g + 1)], q, p, g


def dehomogenized_edge_poly(f: YPolynomial, edge: PolygonEdge):
    """Polynomial psi(u) whose nonzero roots are the leading coefficients
    of the roots of f with valuation l/h along this edge."""
    cs, q, p, g = edge_lattice_coefficients(f, edge)
    k = f.field
    psi = [k.zero()] * (g * p + 1)
    for j, c in enumerate(cs):
        psi[(g - j) * p] = c
    return fld._poly_strip(psi)


def is_nondegenerate_pair(f1: YPolynomial, f2: YPolynomial) -> bool:
    """No pair of edge polynomials shares a root off the coordinate axes.

    Decided exactly: the dehomogenised edge polynomials (one variable, the
    leading-coefficient variable of each edge's slope substitution) must have
    trivial gcd for every pair of compact edges.
    """
    k = join_fields(f1.field, f2.field)
    f1, f2 = f1.lift_field(k), f2.lift_field(k)
    for e1 in polygon_edges(f1):
        psi1 = dehomogenized_edge_poly(f1, e1)
        for e2 in polygon_edges(f2):
            psi2 = dehomogenized_edge_poly(f2, e2)
            if fld.poly_degree(fld.poly_gcd(k, psi1, psi2)) > 0:
                return False
    return True


# -- resultants ------------------------------------------------------------------


def _require_exact(p1: YPolynomial, p2: YPolynomial, what: str, unitary=False):
    """(k, p1, p2) over the join k of the operands' towers, both exact with
    a nonzero leading y-coefficient, p1's a unit series, and p2's too when
    unitary is set."""
    k = join_fields(p1.field, p2.field)
    p1, p2 = p1.lift_field(k), p2.lift_field(k)
    for f, unit in ((p1, True), (p2, unitary)):
        lead = f.coeffs[-1]
        if not lead.coeffs:
            if lead.is_exact:
                raise EmptySupport(f"{what}: zero polynomial")
            raise PrecisionInsufficient(f"{what}: leading coefficient vanishes to precision")
        if unit and lead.coeffs[0][0] != 0:
            raise NotUnitary(f"{what}: leading coefficient has positive order")
        if not all(c.is_exact for c in f.coeffs):
            raise PrecisionInsufficient(
                f"{what}: resultants require exact (untruncated) coefficients")
    return k, p1, p2


def sylvester_resultant(p1: YPolynomial, p2: YPolynomial) -> TruncatedSeries:
    """Resultant with respect to y, as an exact series in x.

    Both operands must be exact.  p1 must be unitary; p2 needs only a
    nonzero leading coefficient.  By Halphen's formula the resultant is then
    lc(p1)^deg(p2) * prod p2(x, alpha_i) over the deg(p1) roots alpha_i of
    p1, all bounded at x = 0, so that its order counts the intersections of
    p1 = 0 and p2 = 0 on the line x = 0 (see intersection_number).

    The value is the determinant of the Sylvester matrix with p1's
    coefficients in the top deg(p2) rows, sign included, computed by the
    packed kernel (see _packed_resultant).
    """
    k, p1, p2 = _require_exact(p1, p2, "sylvester_resultant")
    (terms,) = _packed_resultant(k, [[(0, c)] for c in p1.coeffs], [[(0, c)] for c in p2.coeffs])
    return TruncatedSeries(k, p1.xvar, terms, INF)


def _generator_degrees(data, level, degrees):
    """Raise degrees[i] to the degree of a field datum in the generator of
    level i + 1, for each level up to level."""
    if level:
        for i, c in enumerate(data):
            if not fld._data_is_zero(c):
                degrees[level - 1] = max(degrees[level - 1], i)
                _generator_degrees(c, level - 1, degrees)


def _packed_resultant(k, p1, p2):
    """Sylvester determinant of two polynomials in y over k[T, x], with p1's
    coefficients in the top rows, by one integer resultant (Kronecker
    substitution).  Returns the coefficient of each power of T, ascending,
    as the terms (exp, FieldElement) of an exact series in x.

    Each operand lists its y-coefficients in ascending degree, the leading
    one nonzero; a y-coefficient lists (t, s) pairs, ascending in t, for
    its terms T^t * s with s an exact series in x.  Read every tower datum
    as a polynomial in the generators a_1, ..., a_l with rational
    coefficients (see _flatten).  Clearing denominators, c1*p1 and c2*p2
    are polynomials in y over ZZ[a, x, T] with integer l1 norms N1 and N2.
    With m = deg p1 and n = deg p2, their resultant R is a sum over
    permutations of products of n entries of p1's rows and m of p2's, so
    its degree in each packed variable v (a generator, x or T) is at most
    n*deg_v p1 + m*deg_v p2, and its l1 norm at most N1^n * N2^m, the
    product of the row norms.  Each v gets that many slots plus one, and at
    least deg_v of either operand plus one; K is a multiple of 8 with
    2^(K-1) above N1^n * N2^m, N1 and N2.  Sending the packed variables to
    the powers 2^(K * stride) of their slots is a ring map ZZ[a, x, T] ->
    ZZ, injective on the polynomials that fit the slots with coefficients
    below 2^(K-1) in absolute value, so neither leading y-coefficient
    vanishes and the map commutes with the Sylvester determinant.  Hence
    sympy's univariate subresultant PRS on the two packed integer
    polynomials in y gives R at the packed point, and the coefficients of
    R are its balanced base-2^K digits (see _unpack).  Reducing them modulo
    the minimal polynomials (_unflatten) is the ring map onto k, which
    keeps the leading coefficients nonzero, so it gives the resultant over
    k.
    """
    level, m, n = k.level, len(p1) - 1, len(p2) - 1
    # degrees of each operand in the generators, innermost first, x and T
    degrees = [[0] * (level + 2), [0] * (level + 2)]
    for p, deg in zip((p1, p2), degrees):
        for row in p:
            for t, s in row:
                if s.coeffs:
                    if t > deg[-1]:
                        deg[-1] = t
                    if s.coeffs[-1][0] > deg[-2]:
                        deg[-2] = s.coeffs[-1][0]
                    if level:
                        for _, c in s.coeffs:
                            _generator_degrees(c.data, level, deg)
    spans = [max(n * d1 + m * d2, d1, d2) + 1 for d1, d2 in zip(*degrees)]
    strides = _slot_strides(spans)
    x_stride, t_stride, nslots = strides[-3:]
    packed = []
    for p in (p1, p2):
        rows = []
        for row in p:
            slots, rationals = [], []
            for t, s in row:
                base = t * t_stride
                for e, c in s.coeffs:
                    if level:
                        _flatten(c.data, level, strides, base + e * x_stride, slots, rationals)
                    else:
                        slots.append(base + e)
                        rationals.append(c.data)
            rows.append((slots, rationals))
        den = lcm(*[q.denominator for _, rationals in rows for q in rationals])
        rows = [(slots, [q.numerator * (den // q.denominator) for q in rationals])
                for slots, rationals in rows]
        packed.append((den, rows, sum(sum(map(abs, ints)) for _, ints in rows)))
    (c1, rows1, norm1), (c2, rows2, norm2) = packed
    width = (max(norm1 ** n * norm2 ** m, norm1, norm2).bit_length() + 8) // 8
    bias = _slot_bias(nslots, width)
    f1 = [_pack(slots, ints, width, bias) if ints else 0 for slots, ints in reversed(rows1)]
    f2 = [_pack(slots, ints, width, bias) if ints else 0 for slots, ints in reversed(rows2)]
    scale = c1 ** n * c2 ** m
    # dup_resultant puts the operand of higher degree first, and swapping the
    # operands changes the Sylvester determinant by (-1)^(m*n): e.g.
    # Res(y + 2x, y^3 + x^4) is x^4 - 8x^3, and sympy's value for that order
    # is its negative
    if m < n:
        f1, f2, scale = f2, f1, (-1) ** (m * n) * scale
    digits = _unpack(int(dup_resultant(f1, f2, ZZ)), width, bias, nslots, nslots)
    out = [[] for _ in range(spans[-1])]
    # each block of x_stride slots holds one field datum
    for block in dict.fromkeys(i // x_stride for i, d in enumerate(digits) if d):
        data = _unflatten(k, level, digits, block * x_stride, strides, scale)
        # over a tower, a nonzero block can reduce to zero
        if not (level and fld._data_is_zero(data)):
            t, e = divmod(block, spans[-2])
            out[t].append((e, FieldElement(k, data)))
    return [tuple(terms) for terms in out]


def shifted_resultant(p1: YPolynomial, p2: YPolynomial) -> YPolynomial:
    """Res_U(P1(T+U), P2(U)): a unitary polynomial of degree deg P1 * deg P2
    in T whose constant term is the plain resultant.

    For nondegenerate pairs its Newton polygon realises N(P1) * N(P2); the
    polygon of the output must be read with the T-axis horizontal (see
    resultant_polygon), the orientation under which the product's height is
    the valuation of the resultant.
    """
    k, p1, p2 = _require_exact(p1, p2, "shifted_resultant", unitary=True)
    if p1.is_y_divisible() or p2.is_y_divisible():
        raise YDivisible("shifted resultant requires polynomials not divisible by y")
    m, n = p1.degree(), p2.degree()
    # P1(T+U) as a polynomial in U: the coefficient of U^i is
    # sum_j C(j, i) a_j T^(j-i)
    p1_in_u = [
        [(j - i, p1.coeffs[j].scale(comb(j, i))) for j in range(i, m + 1)]
        for i in range(m + 1)
    ]
    coeffs = _packed_resultant(k, p1_in_u, [[(0, c)] for c in p2.coeffs])
    res = YPolynomial.make(
        [TruncatedSeries(k, p1.xvar, terms, INF) for terms in coeffs], p1.xvar, "T"
    )
    if res.degree() != m * n:
        raise ArithmeticError("shifted resultant degree must be deg P1 * deg P2")
    lead = res.coeffs[-1]
    if not lead.coeffs or lead.coeffs[0][0] != 0:
        raise NotUnitary("shifted resultant leading coefficient is not a unit")
    # keep the raw P1-top-rows determinant: evaluating the same matrix at
    # T = 0 gives the plain resultant, so Res^V(0) = Res holds on the nose;
    # the output is (-1)^(deg P1 deg P2) times the monic product of root
    # differences, and signs are not contract bearing
    return res


def level_resultant(f: YPolynomial, g: YPolynomial) -> YPolynomial:
    """Res_y(f - T, g) as a polynomial in T over exact series in x, whose
    value at T = v is sylvester_resultant(f - v, g), with its contract; one
    packed resultant, the constant y-coefficient of f carrying the term -T.
    """
    k, f, g = _require_exact(f, g, "level_resultant")
    rows = [[(0, c)] for c in f.coeffs]
    rows[0].append((1, TruncatedSeries.constant(k, f.xvar, -1)))
    coeffs = _packed_resultant(k, rows, [[(0, c)] for c in g.coeffs])
    return YPolynomial.make(
        [TruncatedSeries(k, f.xvar, terms, INF) for terms in coeffs], f.xvar, "T"
    )


def realization_polygon(f: YPolynomial) -> NewtonPolygon:
    """Newton polygon with the distinguished variable on the horizontal axis.

    The product realization N(Res_U(P1(T+U), P2(U))) = N(P1) * N(P2) is an
    identity of polygons in this orientation (apply it to both operands and
    the output); in the standard orientation the two sides differ on
    asymmetric pairs, e.g. P1 = y - x, P2 = y^2 - 2x.  The height of the
    product is then the valuation of the plain resultant.
    """
    return transpose(newton_polygon_of(f))


def intersection_number(f1: YPolynomial, f2: YPolynomial) -> int:
    """Intersection multiplicity of f1 = 0 and f2 = 0 at the origin.

    f1 must be unitary, so that its roots are bounded at x = 0; f2 needs
    only a nonzero leading coefficient (see sylvester_resultant).  Then
    ord_x Res_y(f1, f2) sums the multiplicities at every point (0, y0) where
    the curves meet, so it is returned only when f1(0, y) and f2(0, y) share
    no root other than y = 0; otherwise NotLocal is raised.  NotIsolated is
    raised when the curves share a component.
    """
    res = sylvester_resultant(f1, f2)
    order = res.order()
    if is_inf(order):
        raise NotIsolated("resultant vanishes identically")
    if not meet_on_x0_only_at_origin(f1.lift_field(res.field), f2.lift_field(res.field)):
        raise NotLocal("the curves also meet on x = 0 away from the origin")
    return order


def meet_on_x0_only_at_origin(f1: YPolynomial, f2: YPolynomial) -> bool:
    """True when f1(0, y) and f2(0, y), over one field, share no root other
    than y = 0."""
    at_x0 = [[c.coefficient(0) for c in f.coeffs] for f in (f1, f2)]
    common = fld.poly_gcd(f1.field, *at_x0)  # monic, so a power of y iff all else is zero
    return all(c.is_zero() for c in common[:-1])


# -- text format ----------------------------------------------------------------


_TOKEN = re.compile(r"\s*(?:(?P<int>[0-9]+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
                    r"|(?P<op>[-+*/^():;,=<>])|(?P<bad>.)|(?P<end>\Z))")


def _tokens(text):
    """Tokens (kind, value, position) of text, one regex match each, read
    lazily so that an error surfaces where the parser reaches it.  Kinds
    are "int" (ASCII digits, as an int), "name" (ASCII letters, digits and
    _), "op" and, last, "end"; any other character is a ValueError."""
    pos = 0
    while True:
        m = _TOKEN.match(text, pos)
        kind, pos = m.lastgroup, m.end()
        if kind == "bad":
            raise ValueError(f"unexpected character {m[kind]!r} at {m.start(kind)}")
        yield kind, int(m[kind]) if kind == "int" else m[kind], m.start(kind)
        if kind == "end":
            return


def _add_terms(terms, pairs):
    """Terms {(xexp, ydeg): FieldElement} plus each (key, value) pair, zeros
    dropped."""
    out = dict(terms)
    for key, v in pairs:
        out[key] = out[key] + v if key in out else v
    return {key: v for key, v in out.items() if not v.is_zero()}


def _mul_terms(a, b):
    """Product of two term dictionaries, zeros dropped."""
    out = {}
    for (i1, j1), v1 in a.items():
        for (i2, j2), v2 in b.items():
            key = (i1 + i2, j1 + j2)
            v = v1 * v2
            out[key] = out[key] + v if key in out else v
    return {key: v for key, v in out.items() if not v.is_zero()}


class _Parser:
    """Recursive descent over the tokens of one text into term dictionaries.
    precision is the least p of every O(xvar^p) read, INF if none."""

    def __init__(self, text, field, xvar, yvar):
        self.tokens = _tokens(text)
        self.tok = None  # the next token, once read
        self.field, self.xvar, self.yvar = field, xvar, yvar
        self.precision = INF

    def peek(self):
        if self.tok is None:
            self.tok = next(self.tokens)
        return self.tok

    def accept(self, kind, value=None):
        tok = self.peek()
        if tok[0] == kind and (value is None or tok[1] == value):
            self.tok = None
            return tok
        return None

    def expect(self, kind, value=None):
        tok = self.accept(kind, value)
        if tok is None:
            raise ValueError(f"expected {value or kind} at position {self.tok[2]}")
        return tok[1]

    def const(self, q):
        return {(0, 0): self.field.coerce(q)} if q else {}

    def parse_all(self):
        terms = self.parse_expr()
        if self.peek()[0] != "end":
            raise ValueError(f"trailing input at position {self.tok[2]}")
        return terms

    def parse_expr(self):
        acc = self.parse_term()
        while tok := self.accept("op", "+") or self.accept("op", "-"):
            term = self.parse_term().items()
            acc = _add_terms(acc, term if tok[1] == "+" else ((key, -v) for key, v in term))
        return acc

    def parse_term(self):
        acc = self.parse_power()
        while True:
            if self.accept("op", "*"):
                acc = _mul_terms(acc, self.parse_power())
            elif self.accept("op", "/"):
                den = self.parse_power()
                if set(den) - {(0, 0)}:
                    raise ValueError("division only by constants")
                if not den:
                    raise ValueError("division by zero")
                acc = _mul_terms(acc, {(0, 0): den[(0, 0)].inverse()})
            else:
                return acc

    def parse_power(self):
        base = self.parse_atom()
        if not self.accept("op", "^"):
            return base
        n = self.expect("int")
        acc = self.const(1)
        while n:
            if n & 1:
                acc = _mul_terms(acc, base)
            n >>= 1
            if n:
                base = _mul_terms(base, base)
        return acc

    def parse_atom(self):
        if self.accept("op", "("):
            inner = self.parse_expr()
            self.expect("op", ")")
            return inner
        if self.accept("op", "-"):
            return {key: -v for key, v in self.parse_power().items()}
        kind, value, _ = self.peek()
        if kind == "end":
            raise ValueError("unexpected end of expression")
        if kind == "op":
            raise ValueError(f"unexpected token {value!r}")
        self.tok = None
        if kind == "int":
            return self.const(value)
        if value == "O" and self.accept("op", "("):
            # a precision marker O(xvar^p) stands for zero and bounds the
            # precision of the whole text
            if self.expect("name") != self.xvar:
                raise ValueError(f"precision marker must use {self.xvar}")
            p = self.expect("int") if self.accept("op", "^") else 1
            self.expect("op", ")")
            self.precision = min(self.precision, p)
            return {}
        if value == self.xvar:
            return {(1, 0): self.field.one()}
        if value == self.yvar:
            return {(0, 1): self.field.one()}
        try:
            return {(0, 0): self.field.generator_named(value)}
        except KeyError:
            raise ValueError(f"unknown name {value!r}") from None


def parse_polynomial(text, field=None, xvar="x", yvar="y") -> YPolynomial:
    """Parse the sparse text format, with optional adjoin clauses.

    Example: ``adjoin u: u^2 - 3; y^2 - u*x^3``.
    """
    field = field or QQ
    parts = [p for p in text.split(";") if p.strip()]
    for clause in parts[:-1]:
        field = _parse_adjoin(clause, field)
    parser = _Parser(parts[-1] if parts else "", field, xvar, yvar)
    return YPolynomial.from_terms(parser.parse_all(), field, xvar, yvar, parser.precision)


def parse_series(text, field=None, var="x") -> TruncatedSeries:
    poly = parse_polynomial(text, field=field, xvar=var, yvar="_unused_y")
    if poly.degree() > 0:
        raise ValueError("input is not a univariate series")
    return poly.coeffs[0]


def _parse_adjoin(clause, field) -> GroundField:
    """field extended by the clause ``adjoin NAME: polynomial``, whose exact
    polynomial in NAME has coefficients in field."""
    parser = _Parser(clause, field, None, None)
    parser.expect("name", "adjoin")
    name = parser.xvar = parser.expect("name")
    parser.expect("op", ":")
    terms = parser.parse_all()
    if not is_inf(parser.precision):
        raise ValueError(f"defining polynomial of {name} must be exact, without O(...)")
    if not terms:
        raise ValueError(f"defining polynomial of {name} is zero")
    coeffs = [field.zero()] * (max(i for i, _ in terms) + 1)
    for (i, _), v in terms.items():
        coeffs[i] = v
    return field.extend(coeffs, name=name, verify=True)


def _format_field_coeff(c: FieldElement):
    q = c.rational_value()
    if q is not None:
        text = str(q)
        neg = text.startswith("-")
        mag = text[1:] if neg else text
        return neg, mag
    return False, f"({c!r})"


def _format_monomial(mag, xvar, e, yvar=None, j=0):
    pieces = []
    if mag != "1" or (e == 0 and j == 0):
        pieces.append(mag)
    if e:
        pieces.append(f"{xvar}^{e}" if e > 1 else xvar)
    if j:
        pieces.append(f"{yvar}^{j}" if j > 1 else yvar)
    return "*".join(pieces)


def _format_terms(bits, var, precision) -> str:
    """Join (negative, term) pairs into a signed sum, with O(var^precision)
    appended when the precision is finite."""
    if bits:
        text = ("-" if bits[0][0] else "") + bits[0][1]
        for neg, term in bits[1:]:
            text += (" - " if neg else " + ") + term
    else:
        text = "0"
    if not is_inf(precision):
        tail = f"O({var}^{precision})"
        text = f"{text} + {tail}" if text != "0" else tail
    return text


def format_series(s: TruncatedSeries) -> str:
    bits = []
    for e, c in s.coeffs:
        neg, mag = _format_field_coeff(c)
        bits.append((neg, _format_monomial(mag, s.var, e)))
    return _format_terms(bits, s.var, s.precision)


def format_polynomial(f: YPolynomial) -> str:
    """Canonical sparse term list; bit-exact under parse_polynomial.

    Polynomials must have one uniform precision across coefficients (exact
    counts as uniform), and a known term in the top y-coefficient unless the
    y-degree is 0, since the text keeps the y-degree only through its terms;
    the known terms are printed flat with at most one trailing O(x^p) marker.
    """
    precisions = {c.precision for c in f.coeffs}
    if len(precisions) > 1:
        raise ValueError("text format requires a uniform coefficient precision")
    if f.degree() > 0 and not f.coeffs[-1].coeffs:
        raise ValueError("text format requires a known term in the top y-coefficient")
    prec = precisions.pop()
    items = []
    for j in range(f.degree(), -1, -1):
        for e, c in f.coeffs[j].coeffs:
            items.append((j, e, c))
    items.sort(key=lambda t: (-t[0], t[1]))
    bits = []
    for j, e, c in items:
        neg, mag = _format_field_coeff(c)
        bits.append((neg, _format_monomial(mag, f.xvar, e, f.yvar, j)))
    return _format_terms(bits, f.xvar, prec)
