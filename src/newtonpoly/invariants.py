"""Jacobian Newton polygons of plane curve singularities and their invariants.

The jacobian polygon is computed two independent ways: from a plane-branch
semigroup by Merle's packet formula, and directly from an equation f by
expanding the polar curve into Puiseux branches and measuring, per branch,
its multiplicity m_q and the contact e_q with f.  Derived equisingularity
data (Milnor numbers, Lojasiewicz exponents, determinacy, class diminution,
the double-point bracket) are read off the polygon.
"""

from __future__ import annotations

import random
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
    NotSquareFree,
    NotUnitary,
    ParameterOutOfRange,
)
from .polygon import ElementaryPolygon, NewtonPolygon
from .puiseux import branch_multiplicity, order_along_branch, puiseux_expand
from .series import YPolynomial, intersection_number, sylvester_resultant

DEFAULT_SEED = 7


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
    gens = tuple(int(b) for b in generators)
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
    """Pairs (e_q, m_q) over polar packets, sorted by increasing e/m."""

    pairs: tuple

    def __post_init__(self):
        pairs = tuple((int(e), int(m)) for e, m in self.pairs)
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
    e_q = (n_q - 1) b_q - m_q, for q = 1..g.
    """
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


def milnor_number(f: YPolynomial, seed: int = DEFAULT_SEED) -> int:
    """dim C{x,y}/(f_x, f_y) as the intersection number of the partials at
    the origin, taken in the first seeded linear coordinates where the
    resultant of the partials counts no other point (see intersection_number).

    Every direction that passes gives the same local number, so the result
    does not depend on the seed.  When f_x(0, 0) or f_y(0, 0) is nonzero the
    origin is not a critical point and the result is 0, before any
    resultant: the partials may still share a component away from it.
    """
    if not (f.coefficient(1, 0).is_zero() and f.coefficient(0, 1).is_zero()):
        return 0
    rng = random.Random(seed)
    for _ in range(12):
        a, b = rng.randint(1, 9), rng.randint(1, 9)
        g = f.substitute_linear(1, a, b, 1)
        if not g.is_unitary():
            continue
        try:
            return intersection_number(g.dx(), g.dy())
        except (NotUnitary, NotIsolated, NotLocal, ValueError):
            continue  # degenerate direction, shared factor or critical point on x = 0
    raise NotIsolated("no generic coordinates produced a finite milnor number")


def jacobian_polygon_direct(f: YPolynomial, seed: int = DEFAULT_SEED) -> JacobianPolygon:
    """Jacobian polygon from the polar curve of f.

    The polar for a seeded generic direction is expanded into branches; each
    class contributes m_q = multiplicity and e_q = ord_t f - m_q, weighted by
    conjugacy.  Genericity is certified by agreement of two seeds and by the
    resultant oracle sum(e_q) = milnor number.
    """
    first = _jacobian_once(f, seed)
    second = _jacobian_once(f, seed + 1)
    if first != second:
        third = _jacobian_once(f, seed + 2)
        if third in (first, second):
            first = third
        else:
            raise GenericityFailure(
                f"jacobian polygons disagree across seeds: {first} vs {second} vs {third}"
            )
    mu = milnor_number(f, seed)
    if first.length() != mu:
        raise GenericityFailure(
            f"sum of e_q = {first.length()} does not match milnor number {mu}"
        )
    return first


def _jacobian_once(f: YPolynomial, seed: int) -> JacobianPolygon:
    if not f.is_unitary():
        raise NotUnitary("jacobian polygon needs a unitary polynomial")
    rng = random.Random(seed)
    last_error = None
    for _ in range(12):
        a = rng.randint(1, 19)
        polar = f.dy() - f.dx() * a
        try:
            return _polar_pairs(f, polar)
        except (NotSquareFree, NotIsolated, NotUnitary) as exc:
            last_error = exc
            continue
    raise GenericityFailure(f"no polar direction worked: {last_error}")


def _polar_pairs(f: YPolynomial, polar: YPolynomial) -> JacobianPolygon:
    # the global resultant certifies that no component is shared and bounds
    # the contact of f with every polar branch
    res = sylvester_resultant(f, polar)
    if res.is_zero():
        raise NotIsolated("f and its polar curve share a component")
    branches = puiseux_expand(polar, t_precision=res.order() + 8)
    pairs = []
    for b in branches:
        if not b.passes_through_origin():
            continue
        m = branch_multiplicity(b)
        total = b.conjugacy_size * order_along_branch(f, b)
        pairs.append((total - m, m))
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
    if d < 2 or n < 2:
        raise ParameterOutOfRange("need degree >= 2 and ambient dimension >= 2")
    return d * (d - 1) ** (n - 1) - sum(mn + mn1 for mn, mn1 in singularities)


def briancon_speder_polygons(beta: int):
    """Stored jacobian polygons of the quasi-homogeneous surface family
    z2^3 + t z1^a z2 + z1^b z3 + z3^(3a) with 3a = 2b + 1.

    Returns (special fibre, generic fibre); equal lengths and heights b and
    b-1 scaled by 2, with the special polygon dominating the generic one.
    """
    if beta < 4 or (2 * beta + 1) % 3:
        raise ParameterOutOfRange(
            "need beta >= 4 with 2*beta + 1 divisible by 3"
        )
    special = JacobianPolygon(((2 * beta, 2), (2 * beta * (2 * beta - 2), 2 * beta - 2)))
    generic = JacobianPolygon(((2 * beta * (2 * beta - 1), 2 * beta - 1),))
    return special, generic
