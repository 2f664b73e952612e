"""Newton's successive approximation: Puiseux expansion of plane curve germs.

Roots of a unitary square-free f in C{x}[y] are computed as branch classes
x = t^e, y = y(t), one representative per conjugacy class over the ground
field.  Each Newton step factors the dehomogenised edge polynomial over the
current tower, adjoins one root, rescales, and recurses; simple roots finish
by quadratic Newton iteration.  Field extensions are genuine tower steps
with irreducible defining polynomials, so every coefficient is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from . import field as fld
from .errors import (
    ConstantInY,
    EmptySupport,
    ExtensionTooDeep,
    IdenticallyZero,
    NotSquareFree,
    NotUnitary,
    PrecisionInsufficient,
    YDivisible,
)
from .field import FieldElement, GroundField
from .polygon import INF, is_inf
from .series import (
    TruncatedSeries,
    YPolynomial,
    edge_lattice_coefficients,
    join_fields,
    newton_polygon_of,
    polygon_edges,
    sylvester_resultant,
)

DEFAULT_MAX_TOWER_DEGREE = 16
_BRANCH_VAR = "t"


@dataclass(frozen=True)
class PuiseuxBranch:
    """One conjugacy class of roots: x = t^e, y = y_series(t)."""

    ramification: int
    y_series: TruncatedSeries
    conjugacy_size: int
    source: YPolynomial | None = None

    @property
    def field(self) -> GroundField:
        return self.y_series.field

    def valuation(self):
        """Order of the class roots; INF for the y = 0 axis branch."""
        o = self.y_series.order()
        if is_inf(o):
            return INF
        return Fraction(o, self.ramification)

    def passes_through_origin(self) -> bool:
        return not self.y_series.coeffs or self.y_series.coeffs[0][0] >= 1

    def __repr__(self):
        return format_branch(self)


def branch_multiplicity(b: PuiseuxBranch) -> int:
    """Multiplicity at the origin of the class: conjugacy * min(e, ord_t y)."""
    o = b.y_series.order()
    m = b.ramification if is_inf(o) else min(b.ramification, o)
    return m * b.conjugacy_size


def root_valuations(f: YPolynomial):
    """Pairs (valuation rho, number of roots m_rho), read off N(f).

    Each edge {l/h} contributes rho = l/h with m_rho = h.  A factor of y
    (axis root of infinite valuation) contributes no pair.
    """
    poly = newton_polygon_of(f)
    pairs = [(Fraction(e.ell, e.h), e.h) for e in poly.edges]
    pairs.sort(key=lambda t: t[0], reverse=True)
    return pairs


def _positive_root_count(f: YPolynomial) -> int:
    """Number of roots of f with positive valuation: ord_y f(0, y)."""
    for j, c in enumerate(f.coeffs):
        if not c.coefficient(0).is_zero():
            return j
    raise YDivisible("polynomial vanishes identically at x = 0")


def _check_tower(field: GroundField, bound: int):
    if field.degree() > bound:
        raise ExtensionTooDeep(
            f"tower degree {field.degree()} exceeds the bound {bound}"
        )


def _adjoin_root(field: GroundField, poly_coeffs, bound: int, prefix: str):
    """Root of an irreducible monic polynomial; extends the tower if needed."""
    if fld.poly_degree(poly_coeffs) == 1:
        return field, -poly_coeffs[0]
    name = f"{prefix}{field.level + 1}"
    bigger = field.extend(poly_coeffs, name=name)
    _check_tower(bigger, bound)
    return bigger, bigger.generator()


def _hensel_root(f: YPolynomial, prec: int) -> TruncatedSeries:
    """Unique series root with y(0) = 0 when that root is simple, mod x^prec.

    A Newton step from s with f(s) = O(x^o) gives f(s) = O(x^(2o)), so the
    lift runs at working precisions w = 2, 4, 8, ... capped at prec with one
    evaluation of f and one step each: the step at w starts from
    f(s) = O(x^(w/2)) and ends at O(x^w), which the evaluation at the next w
    checks.  The correction v / f_y(s) with v = f(s) of order o is needed
    mod x^w only, so f_y(s) is inverted mod x^(w - o).  The root is returned
    once f(s) vanishes to the full precision, where it is unique.
    """
    k = f.field
    df = f.dy()
    w = min(2, prec)
    done = 1  # f(0) = O(x) since y(0) = 0
    s = TruncatedSeries.zero(k, f.xvar, precision=w)
    while True:
        v = f.eval_on_branch(1, s)
        if v.coeffs:
            o = v.coeffs[0][0]
            if o < done:
                raise ArithmeticError("Newton iteration failed to make progress")
            s = (s - v * df.eval_on_branch(1, s).inverse(w - o)).truncate(w)
        elif w >= prec:
            return s.rename(_BRANCH_VAR)
        done, w = w, min(2 * w, prec)
        s = TruncatedSeries(k, f.xvar, s.coeffs, w)


def _substitute_edge(f: YPolynomial, p: int, q: int, c0: FieldElement, w: int) -> YPolynomial:
    """f(x^p, x^q (c0 + y)) / x^w over the field of c0."""
    k = c0.field
    f = f.lift_field(k)
    n = f.degree()
    cols = [dict() for _ in range(n + 1)]
    for kk in range(n + 1):
        ck = f.coeffs[kk]
        if ck.is_zero():
            continue
        base = ck.substitute_pow(p).shift(q * kk)
        pw = k.one()
        binoms = []
        for j in range(kk, -1, -1):
            binoms.append((j, k.coerce(comb(kk, j)) * pw))
            pw = pw * c0
        for j, factor in binoms:
            for e, v in base.coeffs:
                key = e
                add = v * factor
                col = cols[j]
                col[key] = col[key] + add if key in col else add
    out = []
    for col in cols:
        ser = TruncatedSeries.make(k, f.xvar, col, INF)
        if ser.coeffs and ser.coeffs[0][0] < w:
            raise ArithmeticError("edge substitution order below predicted weight")
        out.append(ser.shift(-w) if ser.coeffs else ser)
    return YPolynomial.make(out, f.xvar, f.yvar)


def _expand_positive(f: YPolynomial, prec: int, bound: int, depth: int = 0):
    """Branch classes (e, series in t, conj) covering the roots with v > 0."""
    if depth >= 64:
        raise ArithmeticError("Puiseux recursion failed to terminate")
    m0 = _positive_root_count(f)
    if m0 == 0:
        return []
    if m0 == 1:
        return [(1, _hensel_root(f, prec), 1)]
    out = []
    covered = 0
    for edge in polygon_edges(f):
        cs, q, p, g = edge_lattice_coefficients(f, edge)
        k = f.field
        chi = fld._poly_strip([cs[g - i] for i in range(g + 1)])
        if fld.poly_degree(chi) != g:
            raise ArithmeticError("edge polynomial degree differs from the edge's lattice length")
        for phi, mult in fld.factor_poly(k, chi):
            dphi = fld.poly_degree(phi)
            k1, w0 = _adjoin_root(k, phi, bound, "a")
            # a p-th root of w0 parameterises the class; any irreducible
            # factor of u^p - w0 works, the choices differ by conjugation
            upoly = [-w0] + [k1.zero()] * (p - 1) + [k1.one()]
            psi = fld.factor_poly(k1, upoly)[0][0]
            k2, c0 = _adjoin_root(k1, psi, bound, "a")
            w = p * edge.top[0] + q * edge.top[1]
            f1 = _substitute_edge(f, p, q, c0, w)
            if mult == 1:
                sub = [(1, _hensel_root(f1, prec), 1)]
            else:
                sub = _expand_positive(f1, prec * p, bound, depth + 1)
            for e1, s1, conj1 in sub:
                const = TruncatedSeries.constant(s1.field, _BRANCH_VAR, s1.field.lift(c0))
                yser = (const + s1).shift(q * e1)
                out.append((p * e1, yser, dphi * conj1))
                covered += p * e1 * dphi * conj1
    if covered != m0:
        raise ArithmeticError(f"edge expansion covered {covered} of {m0} roots")
    return out


def puiseux_expand(
    f: YPolynomial,
    t_precision=None,
    max_tower_degree: int = DEFAULT_MAX_TOWER_DEGREE,
) -> list:
    """All root classes of a unitary square-free polynomial.

    Square-freeness is certified by the discriminant Res_y(f, f_y);
    NotSquareFree is raised when that vanishes.  Branches satisfy
    sum(e * conjugacy) = deg_y f; factors of y are split off as the explicit
    axis branch y = 0.  Output is ordered by decreasing valuation, then
    lexicographically on the printed series.
    """
    if f.is_zero():
        raise EmptySupport("puiseux expansion of the zero polynomial")
    if f.degree() < 1:
        raise ConstantInY("puiseux expansion needs a polynomial of positive y-degree")
    if not f.is_unitary():
        raise NotUnitary("puiseux expansion requires a unitary polynomial")
    for c in f.coeffs:
        if not c.is_exact:
            raise PrecisionInsufficient("puiseux expansion requires exact coefficients")
    if sylvester_resultant(f, f.dy()).is_zero():
        raise NotSquareFree("polynomial has a repeated factor")
    source = f
    branches = []
    work = f
    if work.is_y_divisible():
        branches.append(
            PuiseuxBranch(1, TruncatedSeries.zero(f.field, _BRANCH_VAR), 1, source)
        )
        work = YPolynomial.make(list(work.coeffs[1:]), work.xvar, work.yvar)
    if t_precision is None:
        length = newton_polygon_of(work).length()
        t_precision = max(4 * work.degree() * max(int(length), 1), 8)
    # classes with positive valuation
    for e, s, conj in _expand_positive(work, t_precision, max_tower_degree):
        branches.append(PuiseuxBranch(e, s, conj, source))
    # classes with valuation zero: nonzero roots of f(0, y)
    k = work.field
    g0 = fld._poly_strip([c.coefficient(0) for c in work.coeffs])
    j0 = next(i for i, c in enumerate(g0) if not c.is_zero())
    tail = g0[j0:]
    if fld.poly_degree(tail) > 0:
        for phi, mult in fld.factor_poly(k, tail):
            dphi = fld.poly_degree(phi)
            k1, y0 = _adjoin_root(k, phi, max_tower_degree, "b")
            shifted = _substitute_edge(work, 1, 0, y0, 0)  # f(x, y0 + y)
            sub = _expand_positive(shifted, t_precision, max_tower_degree)
            total = sum(e * c for e, _, c in sub)
            if total != mult:
                raise ArithmeticError("valuation-zero class count mismatch")
            for e, s, conj in sub:
                const = TruncatedSeries.constant(s.field, _BRANCH_VAR, s.field.lift(y0))
                branches.append(PuiseuxBranch(e, const + s, dphi * conj, source))
    covered = sum(b.ramification * b.conjugacy_size for b in branches)
    if covered != f.degree():
        raise ArithmeticError(f"branches cover {covered} of {f.degree()} roots")
    branches.sort(key=_branch_sort_key)
    return branches


def _branch_sort_key(b: PuiseuxBranch):
    v = b.valuation()
    primary = Fraction(-10**9) if is_inf(v) else -v
    return (primary, repr(b.y_series))


def order_along_branch(g: YPolynomial, b: PuiseuxBranch) -> int:
    """ord_t of g(t^e, y(t)) along the branch."""
    k = join_fields(g.field, b.field)
    val = g.lift_field(k).eval_on_branch(b.ramification, b.y_series.lift_field(k))
    if val.coeffs:
        return val.coeffs[0][0]
    if val.is_exact:
        raise IdenticallyZero("function vanishes exactly along the branch")
    if b.source is not None:
        try:
            res = sylvester_resultant(g, b.source)
        except (NotUnitary, PrecisionInsufficient):
            res = None
        if res is not None:
            if res.is_zero():
                # g shares a component with the branch's source curve
                raise IdenticallyZero(
                    "function vanishes along a component of the source curve"
                )
            bound = res.order()
            if val.precision > bound:
                raise AssertionError(
                    "substitution vanished beyond the resultant bound; internal error"
                )
            raise PrecisionInsufficient(
                f"need branch precision above {bound}", required=bound + 1
            )
    raise PrecisionInsufficient(
        f"vanishes to O(t^{val.precision}); raise t_precision", required=None
    )


def format_branch(b: PuiseuxBranch) -> str:
    from .series import format_series

    return (
        f"x = t^{b.ramification}; y = {format_series(b.y_series)}; "
        f"conj = {b.conjugacy_size}; field = {b.field!r}"
    )


def parse_branch(text: str) -> PuiseuxBranch:
    """Inverse of format_branch (source is not serialised)."""
    from .series import parse_series

    segments = [s.strip() for s in text.split(";")]
    if len(segments) < 4:
        raise ValueError("branch format needs four ';'-separated sections")
    head, ytext, conj_text, field_text = segments[0], segments[1], segments[2], ";".join(segments[3:])
    if not head.replace(" ", "").startswith("x=t^"):
        raise ValueError("branch must start with x = t^e")
    e = int(head.split("^", 1)[1])
    if not conj_text.replace(" ", "").startswith("conj="):
        raise ValueError("missing conj section")
    conj = int(conj_text.split("=", 1)[1])
    field = _parse_field_description(field_text)
    if not ytext.replace(" ", "").startswith("y="):
        raise ValueError("missing y section")
    yser = parse_series(ytext.split("=", 1)[1], field=field, var=_BRANCH_VAR)
    return PuiseuxBranch(e, yser, conj)


def _parse_field_description(text: str) -> GroundField:
    from .field import QQ
    from .series import _parse_adjoin

    text = text.strip()
    if not text.replace(" ", "").startswith("field="):
        raise ValueError("missing field section")
    body = text.split("=", 1)[1].strip()
    if body == "QQ":
        return QQ
    if not (body.startswith("QQ[") and body.endswith("]")):
        raise ValueError(f"bad field description {body!r}")
    field = QQ
    # each "name: polynomial" clause reads as the adjoin clause of the text format
    for clause in body[3:-1].split(","):
        field = _parse_adjoin("adjoin " + clause, field)
    return field
