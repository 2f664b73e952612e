"""Newton's successive approximation: Puiseux expansion of plane curve germs.

Roots of a unitary square-free f in C{x}[y] are computed as branch classes
x = t^e, y = y(t), one representative per conjugacy class over the ground
field.  Each Newton step factors the dehomogenised edge polynomial over the
current tower, adjoins one root, rescales, and recurses; simple roots finish
by quadratic Newton iteration.  The roots of valuation zero take the same
step, from the nonzero roots of f(0, y) read as a horizontal edge.  Field
extensions are genuine tower steps with irreducible defining polynomials,
so every coefficient is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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
from .field import QQ, FieldElement, GroundField
from .polygon import INF, ascii_int, is_inf
from .series import (
    TruncatedSeries,
    YPolynomial,
    _parse_adjoin,
    edge_lattice_coefficients,
    format_series,
    newton_polygon_of,
    parse_series,
    polygon_edges,
    sylvester_resultant,
)

# bound on the degree of a branch's field over QQ, read at every adjunction
MAX_TOWER_DEGREE = 16
_BRANCH_VAR = "t"


@dataclass(frozen=True)
class PuiseuxBranch:
    """One conjugacy class of roots: x = t^e, y = y_series(t).  The three
    fields are the whole branch, so parse_branch(format_branch(b)) == b."""

    ramification: int
    y_series: TruncatedSeries
    conjugacy_size: int

    def __post_init__(self):
        if self.ramification < 1 or self.conjugacy_size < 1:
            raise ValueError("a branch needs ramification and conjugacy size at least 1, got "
                             f"{self.ramification} and {self.conjugacy_size}")

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
        return not self.y_series.exps or self.y_series.exps[0] >= 1

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


def _adjoin_root(field: GroundField, poly_coeffs, prefix: str):
    """Root of an irreducible monic polynomial; extends the tower if needed,
    up to degree MAX_TOWER_DEGREE."""
    if fld.poly_degree(poly_coeffs) == 1:
        return field, -poly_coeffs[0]
    bigger = field.extend(poly_coeffs, name=field.free_name(prefix))
    if bigger.degree() > MAX_TOWER_DEGREE:
        raise ExtensionTooDeep(
            f"tower degree {bigger.degree()} exceeds the bound {MAX_TOWER_DEGREE}"
        )
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
        if v.exps:
            o = v.exps[0]
            if o < done:
                raise ArithmeticError("Newton iteration failed to make progress")
            s = (s - v * df.eval_on_branch(1, s).inverse(w - o)).truncate(w)
        elif w >= prec:
            return s.rename(_BRANCH_VAR)
        done, w = w, min(2 * w, prec)
        s = s.with_precision(w)


def _substitute_edge(f: YPolynomial, p: int, q: int, c0: FieldElement, w: int) -> YPolynomial:
    """f(x^p, x^q (c0 + y)) / x^w over the field of c0, by Horner's rule in
    c0 + y on the terms d_j = c_j(x^p) x^(q*j - w) of f = sum c_j y^j."""
    if any(c.exps and p * c.exps[0] + q * j < w for j, c in enumerate(f.coeffs)):
        raise ArithmeticError("edge substitution order below predicted weight")
    d = [c.lift_field(c0.field).substitute_pow(p).shift(q * j - w) for j, c in enumerate(f.coeffs)]
    acc = [d.pop()]
    while d:  # acc * (c0 + y) + d_j
        acc = [b + a.scale(c0) for a, b in zip(acc, [d.pop()] + acc)] + [acc[-1]]
    return YPolynomial.make(acc, f.xvar, f.yvar)


def _newton_step(f: YPolynomial, chi, p: int, q: int, w: int, prec: int, prefix: str,
                 depth: int):
    """Branch classes (e, series in t, conj) of the roots y = c x^(q/p) + ...
    of f with chi(c^p) = 0, where chi is read off an edge of weight
    w = p*A + q*B at its top vertex (A, B).

    Each irreducible factor of chi gives one root c, adjoined with the given
    generator prefix; f(x^p, x^q (c + y)) / x^w is then expanded, by Hensel
    lifting when the factor is simple.
    """
    out = []
    for phi, mult in fld.factor_poly(f.field, chi):
        dphi = fld.poly_degree(phi)
        k1, w0 = _adjoin_root(f.field, phi, prefix)
        # a p-th root of w0 parameterises the class; any irreducible
        # factor of u^p - w0 works, the choices differ by conjugation
        upoly = [-w0] + [k1.zero()] * (p - 1) + [k1.one()]
        _, c0 = _adjoin_root(k1, fld.factor_poly(k1, upoly)[0][0], prefix)
        f1 = _substitute_edge(f, p, q, c0, w)
        if mult == 1:
            sub = [(1, _hensel_root(f1, prec), 1)]
        else:
            sub = _expand_positive(f1, prec * p, depth + 1)
        for e1, s1, conj1 in sub:
            const = TruncatedSeries.constant(s1.field, _BRANCH_VAR, s1.field.lift(c0))
            out.append((p * e1, (const + s1).shift(q * e1), dphi * conj1))
    return out


def _expand_positive(f: YPolynomial, prec: int, depth: int = 0):
    """Branch classes (e, series in t, conj) covering the roots with v > 0."""
    if depth >= 64:
        raise ArithmeticError("Puiseux recursion failed to terminate")
    m0 = _positive_root_count(f)
    if m0 == 0:
        return []
    if m0 == 1:
        return [(1, _hensel_root(f, prec), 1)]
    out = []
    for edge in polygon_edges(f):
        cs, q, p, g = edge_lattice_coefficients(f, edge)
        chi = fld._poly_strip([cs[g - i] for i in range(g + 1)])
        if fld.poly_degree(chi) != g:
            raise ArithmeticError("edge polynomial degree differs from the edge's lattice length")
        w = p * edge.top[0] + q * edge.top[1]
        out += _newton_step(f, chi, p, q, w, prec, "a", depth)
    covered = sum(e * conj for e, _, conj in out)
    if covered != m0:
        raise ArithmeticError(f"edge expansion covered {covered} of {m0} roots")
    return out


def puiseux_expand(f: YPolynomial, t_precision=None) -> list:
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
    branches = []
    work = f
    if work.is_y_divisible():
        branches.append(PuiseuxBranch(1, TruncatedSeries.zero(f.field, _BRANCH_VAR), 1))
        work = YPolynomial.make(list(work.coeffs[1:]), work.xvar, work.yvar)
    if t_precision is None:
        length = newton_polygon_of(work).length()
        t_precision = max(4 * work.degree() * max(int(length), 1), 8)
    # classes with positive valuation, then those with valuation zero: the
    # nonzero roots of f(0, y), a horizontal edge with p = 1, q = 0, w = 0
    g0 = fld._poly_strip([c.coefficient(0) for c in work.coeffs])
    j0 = next(i for i, c in enumerate(g0) if not c.is_zero())
    classes = (_expand_positive(work, t_precision)
               + _newton_step(work, g0[j0:], 1, 0, 0, t_precision, "b", 0))
    branches += [PuiseuxBranch(*c) for c in classes]
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
    """ord_t of g(t^e, y(t)) along the branch.

    IdenticallyZero is raised only when the value is exactly zero, as for y
    along the axis branch; a value that vanishes to the precision of y(t)
    raises PrecisionInsufficient with required=None.
    """
    val = g.eval_on_branch(b.ramification, b.y_series)
    if val.exps:
        return val.exps[0]
    if val.is_exact:
        raise IdenticallyZero("function vanishes exactly along the branch")
    raise PrecisionInsufficient(
        f"vanishes to O(t^{val.precision}); raise t_precision", required=None
    )


def format_branch(b: PuiseuxBranch) -> str:
    return (
        f"x = t^{b.ramification}; y = {format_series(b.y_series)}; "
        f"conj = {b.conjugacy_size}; field = {b.field!r}"
    )


def parse_branch(text: str) -> PuiseuxBranch:
    """Inverse of format_branch."""
    segments = [s.strip() for s in text.split(";")]
    if len(segments) < 4:
        raise ValueError("branch format needs four ';'-separated sections")
    head, ytext, conj_text, field_text = segments[0], segments[1], segments[2], ";".join(segments[3:])
    if not head.replace(" ", "").startswith("x=t^"):
        raise ValueError("branch must start with x = t^e")
    e = ascii_int(head.split("^", 1)[1], signed=False)
    if not conj_text.replace(" ", "").startswith("conj="):
        raise ValueError("missing conj section")
    conj = ascii_int(conj_text.split("=", 1)[1], signed=False)
    field = _parse_field_description(field_text)
    if not ytext.replace(" ", "").startswith("y="):
        raise ValueError("missing y section")
    yser = parse_series(ytext.split("=", 1)[1], field=field, var=_BRANCH_VAR)
    return PuiseuxBranch(e, yser, conj)


def _parse_field_description(text: str) -> GroundField:
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
