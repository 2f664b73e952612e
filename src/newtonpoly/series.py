"""Truncated power series and unitary polynomials over ground-field towers.

A :class:`TruncatedSeries` stores sparse exact coefficients below an explicit
precision bound (INF for exact polynomials); every operation propagates the
bound pessimistically, and polygon or valuation extraction refuses to answer
when a hidden term could change the result.

Series products over every tower share one kernel (Kronecker substitution):
each operand is read as a polynomial in t and the tower's generators, its
denominators are cleared, and it is packed into one Python integer; one
multiplication gives every coefficient of the product, which is unpacked
and reduced modulo the minimal polynomials.  Series inverses run Newton
iteration on that product.

A :class:`YPolynomial` is a polynomial in a distinguished variable y whose
coefficients are truncated series in x.  This module extracts Newton polygons
and edge polynomials, decides nondegeneracy of pairs, and computes Sylvester
resultants, the shifted resultant realising the polygon product, and
intersection numbers at the origin read off the resultant's valuation.

Resultants have two kernels.  Over QQ, the Sylvester resultant clears
denominators, evaluates every y-coefficient at x = 2^K with the packed
representation above, runs sympy's univariate subresultant PRS on the two
integer polynomials in y, and reads the coefficients of R(x) back as the
balanced base-2^K digits of R(2^K); K is chosen above a bound on those
coefficients.  Over a proper tower, and for the shifted resultant, Bareiss
elimination runs on the Sylvester matrix of exact series.  Both give the
Sylvester determinant with the first operand in the top rows, sign included.
Only the first operand must be unitary: by Halphen's formula the order of
the resultant then counts intersections on x = 0 whatever the second
operand's leading coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm

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

    def is_zero_to_precision(self) -> bool:
        return not self.coeffs

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
        if isinstance(other, (int, Fraction, FieldElement)):
            other = TruncatedSeries.constant(self.field, self.var, self.field.coerce(other))
        if other.var != self.var:
            raise ValueError(f"variable mismatch {self.var} vs {other.var}")
        k = join_fields(self.field, other.field)
        return self.lift_field(k), other.lift_field(k)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        a, b = self._coerce_pair(other)
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
        a, b = self._coerce_pair(other)
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
        a, b = self._coerce_pair(other)
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


# -- the packed product kernel ------------------------------------------------
# A series over a tower with step degrees d_1..d_k is read as a polynomial in
# (t, a_1, ..., a_k) with rational coefficients.  Its terms go to slots of
# one integer: the term t^e a_1^i_1 ... a_k^i_k (e counted from the valuation)
# takes slot e*S + i_1 + (2d_1 - 1)*(i_2 + (2d_2 - 1)*(...)), where
# S = prod(2d_i - 1), so that the exponents of a product never overflow into
# the next slot.  Each slot is w bytes wide, enough for any product
# coefficient with its sign, so one big-integer multiplication computes every
# coefficient of the product at once.


def _runs(terms):
    """Split terms where consecutive exponents lie more than len(terms)
    apart, so that no run packs more than len(terms)**2 slots of each power
    of t, however far apart the exponents of a sparse series are."""
    n = len(terms)
    if terms[-1][0] - terms[0][0] <= n:
        return [terms]
    cuts = [i for i in range(1, n) if terms[i][0] - terms[i - 1][0] > n]
    return [terms[i:j] for i, j in zip([0] + cuts, cuts + [n])]


def _slot_strides(field):
    strides = [1]
    for step in field.steps:
        strides.append(strides[-1] * (2 * step.degree - 1))
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
    modulo the minimal polynomials, innermost level first."""
    if level == 0:
        return Fraction(values[slot], den) if values[slot] else _ZERO
    stride = strides[level - 1]
    span = 2 * field.steps[level - 1].degree - 1
    prod = [
        _unflatten(field, level - 1, values, slot + i * stride, strides, den)
        for i in range(span)
    ]
    return fld._dreduce(field, level, prod)


def _packed_product(field, terms_a, terms_b, p):
    """Terms (exp, FieldElement) of the product below p, by one big-integer
    multiplication (Kronecker substitution).

    Denominators are cleared first, so every slot of the product holds an
    integer bounded by max|A| * max|B| * min(#A, #B); the slot width leaves
    room for it and a sign, so _unpack reads every slot back.
    """
    strides, level = _slot_strides(field), field.level
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
        common = coeffs[0].field
        for c in coeffs[1:]:
            common = join_fields(common, c.field)
        coeffs = [c.lift_field(common) for c in coeffs]
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
        if isinstance(other, (int, Fraction, FieldElement, TruncatedSeries)):
            if not isinstance(other, TruncatedSeries):
                other = TruncatedSeries.constant(self.field, self.xvar, self.field.coerce(other))
            other = YPolynomial.make([other], self.xvar, self.yvar)
        if (other.xvar, other.yvar) != (self.xvar, self.yvar):
            raise ValueError("variable mismatch")
        k = join_fields(self.field, other.field)
        return self.lift_field(k), other.lift_field(k)

    def __add__(self, other):
        a, b = self._coerce_pair(other)
        n = max(len(a.coeffs), len(b.coeffs))
        z = TruncatedSeries.zero(a.field, a.xvar)
        return YPolynomial.make(
            [
                (a.coeffs[i] if i < len(a.coeffs) else z)
                + (b.coeffs[i] if i < len(b.coeffs) else z)
                for i in range(n)
            ],
            a.xvar,
            a.yvar,
        )

    __radd__ = __add__

    def __neg__(self):
        return YPolynomial(self.xvar, self.yvar, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._coerce_pair(other)
        z = TruncatedSeries.zero(a.field, a.xvar)
        out = [z] * (len(a.coeffs) + len(b.coeffs) - 1)
        for i, ca in enumerate(a.coeffs):
            if ca.is_zero():
                continue
            for j, cb in enumerate(b.coeffs):
                out[i + j] = out[i + j] + ca * cb
        return YPolynomial.make(out, a.xvar, a.yvar)

    __rmul__ = __mul__

    def exact_div(self, den: "YPolynomial") -> "YPolynomial":
        """Exact division in (K[x])[y], long division with exact series division."""
        if den.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        z = TruncatedSeries.zero(self.field, self.xvar)
        ncoeffs = list(self.coeffs)
        dd = den.degree()
        dlc = den.coeffs[-1]
        out = [z] * max(len(ncoeffs) - dd, 1)
        while True:
            while len(ncoeffs) > 1 and ncoeffs[-1].is_zero():
                ncoeffs.pop()
            if len(ncoeffs) == 1 and ncoeffs[0].is_zero():
                break
            nd = len(ncoeffs) - 1
            if nd < dd:
                raise ArithmeticError("exact polynomial division has a remainder")
            q = ncoeffs[-1].exact_div(dlc)
            out[nd - dd] = out[nd - dd] + q
            for i, c in enumerate(den.coeffs):
                ncoeffs[nd - dd + i] = ncoeffs[nd - dd + i] - q * c
        return YPolynomial.make(out, self.xvar, self.yvar)

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

    def substitute_linear(self, a, b, c, d) -> "YPolynomial":
        """Exact coordinate change (x, y) -> (a x + b y, c x + d y).

        Expanded by Horner's rule in y on term dictionaries (see _pv_mul),
        whose products are of field elements, not of series.
        """
        k = self.field
        if not all(coeff.is_exact for coeff in self.coeffs):
            raise PrecisionInsufficient("coordinate change needs exact coefficients")
        xs, ys = (
            _PolyValue({(1, 0): k.coerce(p), (0, 1): k.coerce(q)}) for p, q in ((a, b), (c, d))
        )
        x_powers = [_PolyValue({(0, 0): k.one()})]
        acc = _PolyValue({})
        for coeff in reversed(self.coeffs):
            acc = _pv_mul(k, acc, ys)
            for e, v in coeff.coeffs:
                while len(x_powers) <= e:
                    x_powers.append(_pv_mul(k, x_powers[-1], xs))
                acc = _pv_add(k, acc, _pv_mul(k, x_powers[e], _PolyValue({(0, 0): v})))
        return YPolynomial.from_terms(acc.terms, k, self.xvar, self.yvar)

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
    from math import gcd

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


# -- determinants and resultants ---------------------------------------------


def bareiss_determinant(rows, one):
    """Fraction-free determinant over an integral domain.

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


def _sylvester_rows(p1_coeffs, p2_coeffs, zero):
    """Sylvester matrix of two coefficient lists in ascending degree, with
    p1's coefficients in the top deg(p2) rows."""
    m, n = len(p1_coeffs) - 1, len(p2_coeffs) - 1
    desc1, desc2 = list(reversed(p1_coeffs)), list(reversed(p2_coeffs))
    rows = [[zero] * i + desc1 + [zero] * (n - 1 - i) for i in range(n)]
    rows += [[zero] * i + desc2 + [zero] * (m - 1 - i) for i in range(m)]
    return rows


def _require_exact(f: YPolynomial, what: str, unitary=True):
    """f is exact with a nonzero leading y-coefficient, a unit series when
    unitary is set."""
    lead = f.coeffs[-1]
    if not lead.coeffs:
        if lead.is_exact:
            raise EmptySupport(f"{what}: zero polynomial")
        raise PrecisionInsufficient(f"{what}: leading coefficient vanishes to precision")
    if unitary and lead.coeffs[0][0] != 0:
        raise NotUnitary(f"{what}: leading coefficient has positive order")
    for c in f.coeffs:
        if not c.is_exact:
            raise PrecisionInsufficient(
                f"{what}: resultants require exact (untruncated) coefficients"
            )


def sylvester_resultant(p1: YPolynomial, p2: YPolynomial) -> TruncatedSeries:
    """Resultant with respect to y, as an exact series in x.

    Both operands must be exact.  p1 must be unitary; p2 needs only a
    nonzero leading coefficient.  By Halphen's formula the resultant is then
    lc(p1)^deg(p2) * prod p2(x, alpha_i) over the deg(p1) roots alpha_i of
    p1, all bounded at x = 0, so that its order counts the intersections of
    p1 = 0 and p2 = 0 on the line x = 0 (see intersection_number).

    The value is the determinant of the Sylvester matrix with p1's
    coefficients in the top deg(p2) rows, sign included.  Over QQ it is read
    off one integer resultant in y at x = 2^K, with 2^(K-1) above
    ||p1||_1^deg(p2) * ||p2||_1^deg(p1) once denominators are cleared (see
    _qq_resultant); over a proper tower, Bareiss elimination on that matrix
    computes it.
    """
    k = join_fields(p1.field, p2.field)
    p1, p2 = p1.lift_field(k), p2.lift_field(k)
    _require_exact(p1, "sylvester_resultant")
    _require_exact(p2, "sylvester_resultant", unitary=False)
    m, n = p1.degree(), p2.degree()
    if m == 0 and n == 0:
        return TruncatedSeries.constant(k, p1.xvar, 1)
    if k.level == 0:
        return _qq_resultant(p1, p2)
    rows = _sylvester_rows(p1.coeffs, p2.coeffs, TruncatedSeries.zero(k, p1.xvar))
    return bareiss_determinant(rows, TruncatedSeries.constant(k, p1.xvar, 1))


def _cleared_rows(f: YPolynomial):
    """(c, rows, norm): c is the least common denominator of f's rational
    coefficients; rows[j] holds the x-exponents and the integer coefficients
    of c times the y^j coefficient, and norm is the sum of their absolute
    values, the l1 norm of c*f."""
    c = lcm(*(v.data.denominator for s in f.coeffs for _, v in s.coeffs))
    rows = [
        (
            [e for e, _ in s.coeffs],
            [v.data.numerator * (c // v.data.denominator) for _, v in s.coeffs],
        )
        for s in f.coeffs
    ]
    return c, rows, sum(abs(a) for _, ints in rows for a in ints)


def _qq_resultant(p1: YPolynomial, p2: YPolynomial) -> TruncatedSeries:
    """Sylvester resultant of exact polynomials over QQ with nonzero leading
    y-coefficients, by evaluation at x = 2^K (Kronecker substitution).

    Clearing denominators, c1*p1 and c2*p2 with integer l1 norms N1 and N2,
    scales the resultant by c1^n * c2^m, where m = deg p1 and n = deg p2.
    The integer resultant R(x) is a sum over permutations of products of n
    entries of p1's rows and m of p2's, so its l1 norm is at most
    N1^n * N2^m, the product of the row norms.  K is a multiple of 8 with
    2^(K-1) above that bound and above N1 and N2, which the product does not
    cover when an operand has y-degree 0.  Evaluation at 2^K is a ring map
    ZZ[x] -> ZZ, so it commutes with the Sylvester determinant, provided
    neither leading y-coefficient vanishes at 2^K.  Such a coefficient is
    x^k * u(x) with u(0) != 0, and 2^K is not a root of x^k; an integer
    root of u divides u(0), which is at most N1 or N2 in absolute value,
    below 2^(K-1).  Hence R(2^K) is the resultant of the two
    evaluated integer polynomials in y, which sympy's univariate subresultant
    PRS computes, and the coefficients of R, each below 2^(K-1) in absolute
    value, are the balanced base-2^K digits of R(2^K) (see _unpack).

    sympy's dup_resultant puts the operand of higher degree first; with the
    operands swapped the Sylvester determinant changes by
    (-1)^(deg p1 * deg p2), e.g. Res(y + 2x, y^3 + x^4) is x^4 - 8x^3, and
    sympy's value for that order is its negative.
    """
    m, n = p1.degree(), p2.degree()
    (c1, rows1, norm1), (c2, rows2, norm2) = _cleared_rows(p1), _cleared_rows(p2)
    width = (max(norm1 ** n * norm2 ** m, norm1, norm2).bit_length() + 8) // 8
    dx1 = max(exps[-1] for exps, _ in rows1 if exps)
    dx2 = max(exps[-1] for exps, _ in rows2 if exps)
    nslots = max(n * dx1 + m * dx2, dx1, dx2) + 1
    bias = _slot_bias(nslots, width)
    f1 = [_pack(exps, ints, width, bias) if ints else 0 for exps, ints in reversed(rows1)]
    f2 = [_pack(exps, ints, width, bias) if ints else 0 for exps, ints in reversed(rows2)]
    if m >= n:
        res, sign = dup_resultant(f1, f2, ZZ), 1
    else:
        res, sign = dup_resultant(f2, f1, ZZ), (-1) ** (m * n)
    scale = sign * c1 ** n * c2 ** m
    digits = _unpack(int(res), width, bias, nslots, nslots)
    return TruncatedSeries.make(
        QQ, p1.xvar, {i: Fraction(d, scale) for i, d in enumerate(digits) if d}
    )


def shifted_resultant(p1: YPolynomial, p2: YPolynomial) -> YPolynomial:
    """Res_U(P1(T+U), P2(U)): a unitary polynomial of degree deg P1 * deg P2
    in T whose constant term is the plain resultant.

    For nondegenerate pairs its Newton polygon realises N(P1) * N(P2); the
    polygon of the output must be read with the T-axis horizontal (see
    resultant_polygon), the orientation under which the product's height is
    the valuation of the resultant.
    """
    k = join_fields(p1.field, p2.field)
    p1, p2 = p1.lift_field(k), p2.lift_field(k)
    _require_exact(p1, "shifted_resultant")
    _require_exact(p2, "shifted_resultant")
    if p1.is_y_divisible() or p2.is_y_divisible():
        raise YDivisible("shifted resultant requires polynomials not divisible by y")
    m, n = p1.degree(), p2.degree()
    # P1(T+U) as a polynomial in U: coefficient of U^k is sum_j C(j,k) a_j T^(j-k)
    p1_in_u = []
    for kk in range(m + 1):
        terms = {}
        for j in range(kk, m + 1):
            series = p1.coeffs[j]
            for e, v in series.coeffs:
                key = (e, j - kk)
                add = v * comb(j, kk)
                terms[key] = terms[key] + add if key in terms else add
        p1_in_u.append(YPolynomial.from_terms(terms, k, p1.xvar, "T"))
    p2_in_u = [
        YPolynomial.make([c], p1.xvar, "T") for c in p2.coeffs
    ]
    rows = _sylvester_rows(p1_in_u, p2_in_u, YPolynomial.from_terms({}, k, p1.xvar, "T"))
    res = bareiss_determinant(rows, YPolynomial.from_terms({(0, 0): k.one()}, k, p1.xvar, "T"))
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


def realization_polygon(f: YPolynomial) -> NewtonPolygon:
    """Newton polygon with the distinguished variable on the horizontal axis.

    The product realization N(Res_U(P1(T+U), P2(U))) = N(P1) * N(P2) is an
    identity of polygons in this orientation (apply it to both operands and
    the output); in the standard orientation the two sides differ on
    asymmetric pairs, e.g. P1 = y - x, P2 = y^2 - 2x.  The height of the
    product is then the valuation of the plain resultant.
    """
    from .polygon import transpose

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
    if not meet_on_x0_only_at_origin(f1, f2):
        raise NotLocal("the curves also meet on x = 0 away from the origin")
    return order


def meet_on_x0_only_at_origin(f1: YPolynomial, f2: YPolynomial) -> bool:
    """True when f1(0, y) and f2(0, y) share no root other than y = 0."""
    k = join_fields(f1.field, f2.field)
    at_x0 = [[k.lift(c.coefficient(0)) for c in f.coeffs] for f in (f1, f2)]
    common = fld.poly_gcd(k, *at_x0)  # monic, so a power of y iff all else is zero
    return all(c.is_zero() for c in common[:-1])


# -- text format ----------------------------------------------------------------


class _Tokenizer:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        if self.pos >= len(self.text):
            return None
        ch = self.text[self.pos]
        if ch.isdigit():
            j = self.pos
            while j < len(self.text) and self.text[j].isdigit():
                j += 1
            return ("int", self.text[self.pos:j], j)
        if ch.isalpha() or ch == "_":
            j = self.pos
            while j < len(self.text) and (self.text[j].isalnum() or self.text[j] == "_"):
                j += 1
            return ("name", self.text[self.pos:j], j)
        if ch in "+-*/^():;,=<>":
            return ("op", ch, self.pos + 1)
        raise ValueError(f"unexpected character {ch!r} at {self.pos}")

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of input")
        self.pos = tok[2]
        return tok

    def accept(self, kind, value=None):
        tok = self.peek()
        if tok and tok[0] == kind and (value is None or tok[1] == value):
            self.pos = tok[2]
            return tok
        return None

    def expect(self, kind, value=None):
        tok = self.accept(kind, value)
        if tok is None:
            raise ValueError(f"expected {value or kind} at position {self.pos}")
        return tok

    def at_end(self):
        return self.peek() is None


class _PolyValue:
    """Value during parsing: {(xexp, ydeg): FieldElement} plus a precision."""

    __slots__ = ("terms", "precision")

    def __init__(self, terms, precision=INF):
        self.terms = terms
        self.precision = precision


def _pv_add(field, a, b, sub=False):
    out = dict(a.terms)
    for key, v in b.terms.items():
        w = -v if sub else v
        out[key] = out[key] + w if key in out else w
    return _PolyValue({k: v for k, v in out.items() if not v.is_zero()},
                      min(a.precision, b.precision))


def _pv_mul(field, a, b):
    out = {}
    for (i1, j1), v1 in a.terms.items():
        for (i2, j2), v2 in b.terms.items():
            key = (i1 + i2, j1 + j2)
            v = v1 * v2
            out[key] = out[key] + v if key in out else v
    return _PolyValue({k: v for k, v in out.items() if not v.is_zero()},
                      min(a.precision, b.precision))


class _Parser:
    def __init__(self, text, field, xvar, yvar):
        self.tz = _Tokenizer(text)
        self.field = field
        self.xvar = xvar
        self.yvar = yvar

    def const(self, q):
        return _PolyValue({(0, 0): self.field.coerce(q)} if q else {})

    def parse_expr(self):
        if self.tz.accept("op", "-"):
            acc = _pv_add(self.field, self.const(0), self.parse_term(), sub=True)
        else:
            acc = self.parse_term()
        while True:
            if self.tz.accept("op", "+"):
                # allow a trailing O(x^p) precision marker
                o = self.try_o_term()
                if o is not None:
                    acc.precision = min(acc.precision, o)
                    continue
                acc = _pv_add(self.field, acc, self.parse_term())
            elif self.tz.accept("op", "-"):
                acc = _pv_add(self.field, acc, self.parse_term(), sub=True)
            else:
                return acc

    def try_o_term(self):
        save = self.tz.pos
        tok = self.tz.accept("name", "O")
        if tok is None:
            return None
        if not self.tz.accept("op", "("):
            self.tz.pos = save
            return None
        name = self.tz.expect("name")[1]
        if name != self.xvar:
            raise ValueError(f"precision marker must use {self.xvar}")
        if self.tz.accept("op", "^"):
            p = int(self.tz.expect("int")[1])
        else:
            p = 1
        self.tz.expect("op", ")")
        return p

    def parse_term(self):
        acc = self.parse_power()
        while True:
            if self.tz.accept("op", "*"):
                acc = _pv_mul(self.field, acc, self.parse_power())
            elif self.tz.accept("op", "/"):
                den = self.parse_power()
                if set(den.terms) - {(0, 0)}:
                    raise ValueError("division only by constants")
                if (0, 0) not in den.terms:
                    raise ValueError("division by zero")
                inv = den.terms[(0, 0)].inverse()
                acc = _pv_mul(self.field, acc, _PolyValue({(0, 0): inv}))
            else:
                return acc

    def parse_power(self):
        base = self.parse_atom()
        if self.tz.accept("op", "^"):
            n = int(self.tz.expect("int")[1])
            acc = self.const(1)
            while n:
                if n & 1:
                    acc = _pv_mul(self.field, acc, base)
                n >>= 1
                if n:
                    base = _pv_mul(self.field, base, base)
            return acc
        return base

    def parse_atom(self):
        if self.tz.accept("op", "("):
            inner = self.parse_expr()
            self.tz.expect("op", ")")
            return inner
        if self.tz.accept("op", "-"):
            return _pv_add(self.field, self.const(0), self.parse_power(), sub=True)
        tok = self.tz.peek()
        if tok is None:
            raise ValueError("unexpected end of expression")
        if tok[0] == "int":
            self.tz.next()
            return self.const(int(tok[1]))
        if tok[0] == "name":
            self.tz.next()
            name = tok[1]
            if name == self.xvar:
                return _PolyValue({(1, 0): self.field.one()})
            if name == self.yvar:
                return _PolyValue({(0, 1): self.field.one()})
            try:
                return _PolyValue({(0, 0): self.field.generator_named(name)})
            except KeyError:
                raise ValueError(f"unknown name {name!r}") from None
        raise ValueError(f"unexpected token {tok[1]!r}")


def parse_polynomial(text, field=None, xvar="x", yvar="y") -> YPolynomial:
    """Parse the sparse text format, with optional adjoin clauses.

    Example: ``adjoin u: u^2 - 3; y^2 - u*x^3``.
    """
    field = field or QQ
    parts = [p for p in text.split(";") if p.strip()]
    for clause in parts[:-1]:
        field = _parse_adjoin(clause, field)
    body = parts[-1] if parts else ""
    parser = _Parser(body, field, xvar, yvar)
    value = parser.parse_expr()
    if not parser.tz.at_end():
        raise ValueError(f"trailing input at position {parser.tz.pos}")
    return YPolynomial.from_terms(value.terms, field, xvar, yvar, value.precision)


def parse_series(text, field=None, var="x") -> TruncatedSeries:
    poly = parse_polynomial(text, field=field, xvar=var, yvar="_unused_y")
    if poly.degree() > 0:
        raise ValueError("input is not a univariate series")
    return poly.coeffs[0]


def _parse_adjoin(clause, field) -> GroundField:
    tz = _Tokenizer(clause)
    tz.expect("name", "adjoin")
    name = tz.expect("name")[1]
    tz.expect("op", ":")
    rest = clause[tz.pos:]
    # parse the defining polynomial with the new name acting as the variable
    parser = _Parser(rest, field, xvar=name, yvar="_unused_y")
    value = parser.parse_expr()
    if not parser.tz.at_end():
        raise ValueError("trailing input in adjoin clause")
    deg = max(i for i, _ in value.terms)
    coeffs = [field.zero() for _ in range(deg + 1)]
    for (i, j), v in value.terms.items():
        if j != 0:
            raise ValueError(f"defining polynomial of {name} must be univariate in {name}")
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
    counts as uniform); the known terms are printed flat with at most one
    trailing O(x^p) marker.
    """
    precisions = {c.precision for c in f.coeffs}
    if len(precisions) > 1:
        raise ValueError("text format requires a uniform coefficient precision")
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
