"""Jacobian Newton polygons of plane curve singularities and their invariants.

The jacobian polygon of a plane branch comes from its semigroup by Merle's
packet formula.  From an equation f it comes from three independent
computations (polar pairs, Cerf polygon, mu): the polar curve of a
transversal direction, taken in the order a = 1, 2, ..., is expanded into
Puiseux branches, and per branch q its multiplicity m_q and its contact
e_q + m_q with f give a pair; the Newton polygon of the Cerf diagram, the
discriminant Res_y(f - v, f_y) of the map (l, f) in an admissible direction
l, taken as one resultant in x and v (series.level_resultant), must be
their polygon; and the intersection number of the partials at the origin,
the Milnor number, must be their length.  By Teissier's lemma ("Cycles
evanescents, sections planes et conditions de Whitney", 1973) a transversal
polar curve meets f at the origin with multiplicity mu + m - 1 (m the
multiplicity of f), which caps the precision of its expansion.  No step
draws a random number.  Derived equisingularity data (Lojasiewicz
exponents, determinacy, class diminution, the double-point bracket) are read
off the polygon.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod

from .errors import (
    GcdChainInvalid,
    GenericityFailure,
    NotIsolated,
    NotLocal,
    NotMerleShaped,
    NotMinimal,
    NotRealizable,
    NotSingular,
    NotSquareFree,
    NotUnitary,
    ParameterOutOfRange,
    PrecisionInsufficient,
)
from .polygon import INF, ElementaryPolygon, NewtonPolygon, _integral, from_support
from .puiseux import branch_multiplicity, order_along_branch, puiseux_expand
from .series import (
    YPolynomial,
    intersection_number,
    level_resultant,
    meet_on_x0_only_at_origin,
)


# -- semigroups of plane branches ---------------------------------------------


@dataclass(frozen=True)
class SemigroupType:
    """Numerical semigroup <b0, ..., bg> of a plane branch."""

    generators: tuple
    gcd_chain: tuple  # l_i = gcd(b0, ..., bi)
    quotients: tuple  # n_i = l_{i-1} / l_i for i >= 1

    @property
    def genus(self) -> int:
        return len(self.generators) - 1

    def __repr__(self):
        return "<" + ",".join(str(b) for b in self.generators) + ">"


def _monoid_contains(gens, value) -> bool:
    ok = [False] * (value + 1)
    ok[0] = True
    for v in range(1, value + 1):
        ok[v] = any(v >= g and ok[v - g] for g in gens)
    return ok[value]


def validate_semigroup(generators) -> SemigroupType:
    """Check the gcd chain, minimality and plane-branch realizability."""
    gens = tuple(map(_integral, generators))
    if not gens or any(b <= 0 for b in gens):
        raise GcdChainInvalid("generators must be positive")
    if any(b1 >= b2 for b1, b2 in zip(gens, gens[1:])):
        raise GcdChainInvalid("generators must be strictly increasing")
    chain = []
    g = 0
    for b in gens:
        g = gcd(g, b)
        chain.append(g)
    if chain[-1] != 1:
        raise GcdChainInvalid(f"gcd chain {chain} does not end at 1")
    for i in range(1, len(gens)):
        if _monoid_contains(gens[:i], gens[i]):
            raise NotMinimal(f"generator {gens[i]} is redundant")
    if any(a == b for a, b in zip(chain, chain[1:])):
        raise GcdChainInvalid(f"gcd chain {chain} is not strictly decreasing")
    quotients = tuple(chain[i - 1] // chain[i] for i in range(1, len(gens)))
    for i in range(1, len(gens)):
        n_i, b_i = quotients[i - 1], gens[i]
        if i < len(gens) - 1 and n_i * b_i >= gens[i + 1]:
            raise NotRealizable(
                f"n_{i} * b_{i} = {n_i * b_i} must be < b_{i + 1} = {gens[i + 1]}"
            )
        if not _monoid_contains(gens[:i], n_i * b_i):
            raise NotRealizable(
                f"n_{i} * b_{i} = {n_i * b_i} is not in <{', '.join(map(str, gens[:i]))}>"
            )
    return SemigroupType(gens, tuple(chain), quotients)


# -- jacobian polygons ----------------------------------------------------------


@dataclass(frozen=True)
class JacobianPolygon:
    """Pairs (e_q, m_q), sorted by increasing e/m.

    From an equation there is one pair per branch q of the polar curve
    (certified_polar_polygons); Merle's formula gives one per packet
    (merle_polygon).  Both give the same polygon, so compare them through
    .view, where same-ratio pairs merge.
    """

    pairs: tuple

    def __post_init__(self):
        pairs = tuple((_integral(e), _integral(m)) for e, m in self.pairs)
        if not pairs:
            raise ValueError("jacobian polygon needs at least one pair")
        for e, m in pairs:
            if m < 1 or e < m:
                raise ValueError(f"pair ({e}, {m}) violates e >= m >= 1")
        pairs = tuple(sorted(pairs, key=lambda em: (Fraction(em[0], em[1]), em[1])))
        object.__setattr__(self, "pairs", pairs)

    @property
    def view(self) -> NewtonPolygon:
        """Polygon sum of {e_q/m_q}; same-ratio pairs merge."""
        return NewtonPolygon(edges=tuple(ElementaryPolygon(e, m) for e, m in self.pairs))

    def length(self) -> int:
        return sum(e for e, _ in self.pairs)

    def height(self) -> int:
        return sum(m for _, m in self.pairs)

    def __repr__(self):
        return "+".join("{%d/%d}" % em for em in self.pairs)


def merle_polygon(s: SemigroupType) -> JacobianPolygon:
    """Jacobian polygon of an irreducible branch from its semigroup.

    Packet q contributes m_q = n_1...n_{q-1} (n_q - 1) and
    e_q = (n_q - 1) b_q - m_q, for q = 1..g.  The semigroup <1> of genus 0
    is a smooth branch, so NotSingular is raised for it.
    """
    if not s.genus:
        raise NotSingular(f"{s} is the semigroup of a smooth branch, not a singular one")
    pairs = []
    for q in range(1, s.genus + 1):
        n_q = s.quotients[q - 1]
        m_q = prod(s.quotients[: q - 1]) * (n_q - 1)
        e_q = (n_q - 1) * s.generators[q] - m_q
        pairs.append((e_q, m_q))
    return JacobianPolygon(tuple(pairs))


def semigroup_from_polygon(j: JacobianPolygon) -> SemigroupType:
    """Invert Merle's formula; raises NotMerleShaped when impossible."""
    pairs = j.pairs
    quotients = []
    acc = 1
    for _, m in pairs:
        if m % acc:
            raise NotMerleShaped(f"packet height {m} not divisible by {acc}")
        n = m // acc + 1
        if n < 2:
            raise NotMerleShaped("packet forces n < 2")
        quotients.append(n)
        acc *= n
    gens = [acc]
    for (e, m), n in zip(pairs, quotients):
        total = e + m
        if total % (n - 1):
            raise NotMerleShaped(f"packet length {e}+{m} not divisible by n-1 = {n - 1}")
        gens.append(total // (n - 1))
    try:
        s = validate_semigroup(gens)
    except (GcdChainInvalid, NotMinimal, NotRealizable) as exc:
        raise NotMerleShaped(f"reconstructed generators {gens} invalid: {exc}") from exc
    if merle_polygon(s).pairs != pairs:
        raise NotMerleShaped("round trip through Merle's formula failed")
    return s


# -- direct computation from an equation ----------------------------------------


def _shears(f: YPolynomial):
    """Pairs (a, g) with g = f(x - a*y, y) unitary, for a = 0, 1, 2, ... in turn.

    The directions a caller rejects are roots of finitely many polynomials in
    a, fewer than the (d + 1)^2 tried (d the total degree of f) when f is
    reduced and its critical points are isolated.
    """
    d = max((i + j for i, j in f.support_points()), default=0)
    for a in range((d + 1) ** 2):
        g = f.substitute_linear(1, -a, 0, 1) if a else f
        if g.is_unitary():
            yield a, g


def milnor_number(f: YPolynomial) -> int:
    """dim C{x,y}/(f_x, f_y) as the intersection number of the partials at
    the origin, ord_x Res_y(g_y, g_x), in the coordinates g = f(x - a*y, y)
    of the smallest a >= 0 for which g is unitary and that resultant counts
    no other point (see intersection_number).

    Only the first operand of the resultant must be unitary, and g_y is when
    g is, so a unitary f is taken as it is unless its partials also meet on
    x = 0 away from the origin, e.g. y^3 - x^5 + y^9, whose f_x(0, y)
    vanishes; the next shear then takes over.  Every direction that passes
    gives the same local number.  When f_x(0, 0) or f_y(0, 0) is nonzero
    the origin is not a critical point and the result is 0, before any
    resultant: the partials may still share a component away from it.
    Otherwise NotIsolated is raised as soon as the partials share a
    component, which a further shear would not remove, and when f depends
    on one linear form only, so that a partial vanishes.
    """
    if not (f.coefficient(1, 0).is_zero() and f.coefficient(0, 1).is_zero()):
        return 0
    for _, g in _shears(f):
        g_y, g_x = g.dy(), g.dx()
        if g_y.is_zero() or g_x.is_zero():
            break
        try:
            return intersection_number(g_y, g_x)
        except NotLocal:
            continue  # a critical point on x = 0 away from the origin
    raise NotIsolated("no coordinates produced a finite milnor number")


def _tangent_test(f: YPolynomial):
    """Predicate on a: whether the direction (-a, 1) is tangent to f = 0 at
    the origin, that is in_f(-a, 1) = 0 for the lowest-degree form in_f of f.

    It is the direction of the line x = 0 in the coordinates f(x - a*y, y)
    and the direction along which the polar curve f_y - a*f_x differentiates.
    """
    mult = f.multiplicity()
    initial = [(i, c) for (i, j), c in f.support().items() if i + j == mult]
    zero = f.field.zero()
    return lambda a: sum((c * (-a) ** i for i, c in initial), zero).is_zero()


def cerf_directions(f: YPolynomial):
    """Admissible directions of the Cerf diagram, by increasing a >= 0.

    Yields (a, g) with g = f(x - a*y, y) such that the line x = 0 of g is
    transversal to f = 0 (see _tangent_test), g is unitary, and g(0, y) and
    g_y(0, y) share no root but 0, so that the polar branches of g away from
    the origin add only units to the discriminant (see discriminant_polygon).
    """
    tangent = _tangent_test(f)
    for a, g in _shears(f):
        if not tangent(a) and meet_on_x0_only_at_origin(g, g.dy()):
            yield a, g


def discriminant_polygon(g: YPolynomial) -> NewtonPolygon:
    """Newton polygon of the Cerf diagram of g, in an admissible direction
    (see cerf_directions).

    The discriminant Delta(x, v) = Res_y(g - v, g_y) of the map (x, g) is
    one resultant, with v packed as T (see level_resultant).  Each polar
    class of contact e + m with g and multiplicity m gives an edge of length
    e + m and height m; the shear (i, j) -> (i + j - (mult - 1), j) of the
    terms x^i v^j turns it into {e/m} and puts the polygon on both axes.
    """
    shift = g.multiplicity() - 1
    delta = level_resultant(g, g.dy())
    return from_support([(i + j - shift, j) for i, j in delta.support_points()])


def cerf_polygon(f: YPolynomial) -> NewtonPolygon:
    """Jacobian Newton polygon of f as the Newton polygon of its Cerf
    diagram, the image of the polar curve under (l, f), in the first
    admissible direction (see cerf_directions).  By Teissier ("The hunting
    of invariants in the geometry of discriminants", 1977) it is the same
    for every transversal l.
    """
    for _, g in cerf_directions(f):
        return discriminant_polygon(g)
    raise GenericityFailure("no admissible direction for the Cerf diagram")


def certified_polar_polygons(f: YPolynomial):
    """Jacobian polygons from the polar curves of f, one per certified
    direction, by increasing a = 1, 2, ..., 19.

    When f is not unitary it is taken in the first unitary coordinates
    f(x - a*y, y) of _shears, as milnor_number does; the polygon is an
    invariant of the germ.  A direction a tangent to f = 0 (see _tangent_test)
    is skipped before any expansion.  Otherwise the polar curve f_y - a*f_x is
    expanded into branches, and each branch through the origin gives one pair
    (e_q, m_q): m_q is its multiplicity and e_q + m_q its contact ord_t f.  The
    expansion starts at the precision that the Cerf polygon bounds (see
    _polar_start) and doubles only when a contact is not yet decided, up to
    the cap that mu, computed first, gives (see _polar_pairs).  A
    direction is certified, and its polygon yielded, when its pairs give the
    Cerf polygon (cerf_polygon, from resultants) and sum to the Milnor number
    (milnor_number, from the partials).  By Teissier ("The hunting of
    invariants in the geometry of discriminants", 1977) every transversal
    direction gives the same pairs.

    NotSingular is raised when the origin is not a singular point of f = 0,
    and GenericityFailure when no direction is certified.
    """
    if not f.is_unitary():
        f = next((g for _, g in _shears(f)), None)
        if f is None:
            raise NotUnitary("jacobian polygon needs a unitary polynomial")
    mult = f.multiplicity()
    if mult < 2:
        raise NotSingular(f"the origin is not a singular point (multiplicity {mult})")
    mu = milnor_number(f)
    cerf = cerf_polygon(f)
    start = _polar_start(cerf)
    tangent = _tangent_test(f)
    certified = False
    last_error = None
    for a in range(1, 20):
        if tangent(a):
            continue
        try:
            j = _polar_pairs(f, f.dy() - f.dx() * a, mu, start)
        except (NotSquareFree, NotIsolated, NotUnitary) as exc:
            last_error = exc
            continue
        if j.view == cerf and j.length() == mu:
            certified = True
            yield j
        else:
            last_error = f"pairs {j} against Cerf polygon {cerf} and milnor number {mu}"
    if not certified:
        raise GenericityFailure(f"no polar direction was certified: {last_error}")


def jacobian_polygon_direct(f: YPolynomial, seed=None) -> JacobianPolygon:
    """Jacobian polygon of f in its first certified polar direction (see
    certified_polar_polygons), with one pair per polar branch.

    The pairs of a branch and the packets of Merle's formula (merle_polygon)
    give the same polygon, compared through .view.  The directions are walked
    in order, so no random number is drawn: seed is accepted and ignored.
    """
    return next(certified_polar_polygons(f))


def _polar_start(cerf: NewtonPolygon) -> int:
    """t-precision at which to expand the polar curve first: floor(theta) + 2
    for theta the largest slope l/h of the Cerf polygon.

    A polar class that the Cerf polygon certifies has e_q <= theta * m_q,
    so a branch x = t, y = y(t) of it has contact ord_t f = (e_q + m_q)/m_q
    <= 1 + theta, below this precision.  A ramified branch may need more
    (see _polar_pairs).
    """
    return max((e.ell // e.h for e in cerf.edges), default=0) + 2


def _polar_pairs(f: YPolynomial, polar: YPolynomial, mu: int, start=INF) -> JacobianPolygon:
    """Pairs (e_q, m_q) of the branches of the polar curve through the origin.

    mu is the Milnor number of f.  By Teissier's lemma a polar curve
    P = f_y - a*f_x of a direction a not tangent to f = 0 meets f at the
    origin with multiplicity mu + m - 1 (m the multiplicity of f), so that
    count plus a margin of 8, the cap, bounds the t-precision that decides
    every contact.  The expansion starts at the t-precision start (by default
    at the cap) and doubles up to the cap while a multiplicity or a contact is
    undecided; an order read off a known term is exact at any precision, so
    the pairs do not depend on where it stops.  No component through the
    origin is shared: on one, f_x*(x' + a*y') = 0, so both partials vanish
    there (milnor_number raises NotIsolated) or it is the tangent line
    x + a*y = 0.  A polar curve that is not unitary raises NotUnitary, as its
    expansion would.
    """
    if not polar.is_unitary():
        raise NotUnitary("polar curve: leading coefficient has positive order")
    cap = mu + f.multiplicity() + 7
    precision = min(start, cap)
    while True:
        try:
            return _class_pairs(f, puiseux_expand(polar, t_precision=precision))
        except PrecisionInsufficient:
            if precision >= cap:
                raise
            precision = min(2 * precision, cap)


def _class_pairs(f: YPolynomial, branches) -> JacobianPolygon:
    """(ord_t f - m, m) of each polar branch through the origin, m its
    multiplicity: a class of k conjugate branches gives k equal pairs."""
    pairs = []
    for b in branches:
        if not b.passes_through_origin():
            continue
        m = branch_multiplicity(b) // b.conjugacy_size
        pairs += [(order_along_branch(f, b) - m, m)] * b.conjugacy_size
    if not pairs:
        raise NotIsolated("polar curve has no branches through the origin")
    return JacobianPolygon(tuple(pairs))


# -- invariant bundle -----------------------------------------------------------


@dataclass(frozen=True)
class InvariantReport:
    """Equisingularity data derived from a jacobian polygon."""

    mu_n: int
    mu_n1: int
    class_diminution: int
    theta1: Fraction
    theta2: Fraction
    determinacy: int
    delta_lower: Fraction  # strict lower bound for 2*delta
    delta_upper: Fraction  # inclusive upper bound for 2*delta
    is_Ak: bool

    def to_json_dict(self) -> dict:
        return {
            "mu_n": self.mu_n,
            "mu_n_minus_1": self.mu_n1,
            "class_diminution": self.class_diminution,
            "theta1": str(self.theta1),
            "theta2": str(self.theta2),
            "determinacy": self.determinacy,
            "two_delta_bracket": [str(self.delta_lower), str(self.delta_upper)],
            "is_Ak": self.is_Ak,
        }


def invariants_from_polygon(j: JacobianPolygon) -> InvariantReport:
    mu_n = j.length()
    mu_n1 = j.height()
    theta2 = max(Fraction(e, m) for e, m in j.pairs)
    theta1 = max(Fraction(e, e + m) for e, m in j.pairs)
    determinacy = int(theta2) + 1
    is_ak = mu_n1 == 1
    if is_ak != (theta2 == mu_n):
        raise ArithmeticError("A_k characterisations disagree")
    return InvariantReport(
        mu_n=mu_n,
        mu_n1=mu_n1,
        class_diminution=mu_n + mu_n1,
        theta1=theta1,
        theta2=theta2,
        determinacy=determinacy,
        delta_lower=theta2,
        delta_upper=Fraction(mu_n + mu_n1),
        is_Ak=is_ak,
    )


def dual_degree(d: int, n: int, singularities) -> int:
    """Degree of the dual hypersurface: d(d-1)^(n-1) - sum(mu^n + mu^(n-1))."""
    d, n = _integral(d), _integral(n)
    if d < 2 or n < 2:
        raise ParameterOutOfRange("need degree >= 2 and ambient dimension >= 2")
    return d * (d - 1) ** (n - 1) - sum(_integral(a) + _integral(b) for a, b in singularities)


def briancon_speder_polygons(beta: int):
    """Stored jacobian polygons of the quasi-homogeneous surface family
    z2^3 + t z1^a z2 + z1^b z3 + z3^(3a) with 3a = 2b + 1.

    Returns (special fibre, generic fibre); equal lengths and heights b and
    b-1 scaled by 2, with the special polygon dominating the generic one.
    """
    beta = _integral(beta)
    if beta < 4 or (2 * beta + 1) % 3:
        raise ParameterOutOfRange(
            "need beta >= 4 with 2*beta + 1 divisible by 3"
        )
    special = JacobianPolygon(((2 * beta, 2), (2 * beta * (2 * beta - 2), 2 * beta - 2)))
    generic = JacobianPolygon(((2 * beta * (2 * beta - 1), 2 * beta - 1),))
    return special, generic
