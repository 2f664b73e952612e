"""Acceptance verification suites.

Each suite replays one acceptance criterion with a seeded generator and
returns one CheckResult per criterion clause; `newtonpoly verify all` and
the pytest acceptance module both run through this registry.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm

from . import polygon as pg
from .product import is_special, mixed_height, product, product_elementary
from . import polyhedra as ph
from .corpus import merle_corpus, reducible_corpus
from .invariants import (
    JacobianPolygon,
    briancon_speder_polygons,
    cerf_directions,
    certified_polar_polygons,
    discriminant_polygon,
    dual_degree,
    invariants_from_polygon,
    jacobian_polygon_direct,
    merle_polygon,
    milnor_number,
    semigroup_from_polygon,
    validate_semigroup,
)
from .errors import GcdChainInvalid, InfiniteVolume, NotMinimal, NotRealizable
from .polygon import ElementaryPolygon, NewtonPolygon, make_elementary
from .puiseux import puiseux_expand, root_valuations
from .series import (
    YPolynomial,
    intersection_number,
    is_nondegenerate_pair,
    newton_polygon_of,
    parse_polynomial,
    realization_polygon,
    shifted_resultant,
    sylvester_resultant,
)

DEFAULT_SEED = 7


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        suffix = f"  ({self.detail})" if self.detail else ""
        return f"[{mark}] {self.name}{suffix}"


def _random_elementary(rng, hi=9) -> ElementaryPolygon:
    return ElementaryPolygon(rng.randint(1, hi), rng.randint(1, hi))


def _random_polygon(rng, max_edges=4, hi=9, offsets=False) -> NewtonPolygon:
    edges = tuple(_random_elementary(rng, hi) for _ in range(rng.randint(1, max_edges)))
    xo = rng.randint(0, 3) if offsets and rng.random() < 0.3 else 0
    yo = rng.randint(0, 3) if offsets and rng.random() < 0.3 else 0
    return NewtonPolygon(xo, yo, edges)


# -- criterion 1: monoid and ring laws ------------------------------------------


def suite_monoid_laws(seed=DEFAULT_SEED):
    rng = random.Random(seed)
    results = []

    ok = True
    for _ in range(1000):
        a = _random_polygon(rng, offsets=True)
        b = _random_polygon(rng, offsets=True)
        c = _random_polygon(rng, offsets=True)
        if pg.polygon_sum(a, b) != pg.polygon_sum(b, a):
            ok = False
            break
        if pg.polygon_sum(pg.polygon_sum(a, b), c) != pg.polygon_sum(a, pg.polygon_sum(b, c)):
            ok = False
            break
        if pg.polygon_sum(a, pg.EMPTY) != a:
            ok = False
            break
    results.append(CheckResult("sum commutative+associative, identity (1000 triples)", ok))

    elems = [ElementaryPolygon(l, h) for l in range(1, 7) for h in range(1, 7)]
    ok = all(
        product_elementary(a, b) == product_elementary(b, a)
        for a in elems
        for b in elems
    )
    results.append(CheckResult("* commutative (exhaustive elementary <= 6)", ok))

    ok = True
    for a in elems:
        for b in elems:
            ab = product_elementary(a, b)
            for c in elems:
                if product_elementary(ab, c) != product_elementary(
                    a, product_elementary(b, c)
                ):
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            break
    results.append(CheckResult("* associative (exhaustive elementary <= 6)", ok))

    ok = True
    for a in elems:
        pa = NewtonPolygon(edges=(a,))
        for b in elems:
            pab = NewtonPolygon(edges=(product_elementary(a, b),))
            for c in elems:
                # nontrivial exactly when b and c share a slope and merge
                lhs = product(pa, pg.polygon_sum(NewtonPolygon(edges=(b,)), NewtonPolygon(edges=(c,))))
                rhs = pg.polygon_sum(pab, NewtonPolygon(edges=(product_elementary(a, c),)))
                if lhs != rhs:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            break
    results.append(CheckResult("* distributes over sum (exhaustive elementary <= 6)", ok))

    ok = True
    for _ in range(500):
        a = _random_polygon(rng, max_edges=3, hi=6)
        b = _random_polygon(rng, max_edges=3, hi=6)
        c = _random_polygon(rng, max_edges=3, hi=6)
        if product(a, b) != product(b, a):
            ok = False
            break
        if product(product(a, b), c) != product(a, product(b, c)):
            ok = False
            break
        if product(a, pg.polygon_sum(b, c)) != pg.polygon_sum(product(a, b), product(a, c)):
            ok = False
            break
        # decomposition independence: refine a's edges into unit-slope copies
        refined = []
        for e in a.edges:
            g = gcd(e.ell, e.h)
            k = rng.choice([d for d in range(1, g + 1) if g % d == 0])
            refined.extend([ElementaryPolygon(e.ell // k, e.h // k)] * k)
        total = pg.EMPTY
        for ea in refined:
            for eb in b.edges:
                total = pg.polygon_sum(
                    total, NewtonPolygon(edges=(product_elementary(ea, eb),))
                )
        if total != product(a, b):
            ok = False
            break
    results.append(CheckResult("* laws + decomposition independence (500 random composites)", ok))
    return results


# -- criterion 2: Newton-Puiseux ------------------------------------------------


def _random_branch_factor(rng):
    a = rng.randint(1, 3)
    b = rng.randint(1, 4)
    c = rng.choice([1, 2, 3, -1, -2])
    f = parse_polynomial(f"y^{a} - {c}*x^{b}" if c > 0 else f"y^{a} + {-c}*x^{b}")
    return f, ElementaryPolygon(b, a)


def suite_newton_puiseux(seed=DEFAULT_SEED):
    rng = random.Random(seed)
    results = []

    ok = True
    for _ in range(100):
        nfac = rng.randint(1, 4)
        f = None
        expected = pg.EMPTY
        for _ in range(nfac):
            factor, elem = _random_branch_factor(rng)
            f = factor if f is None else f * factor
            expected = pg.polygon_sum(expected, NewtonPolygon(edges=(elem,)))
        if newton_polygon_of(f) != expected:
            ok = False
            break
        rebuilt = pg.EMPTY
        for rho, m in root_valuations(f):
            rebuilt = pg.polygon_sum(
                rebuilt, make_elementary(int(m * rho), m)
            )
        if rebuilt != expected:
            ok = False
            break
    results.append(
        CheckResult("N(f) = sum of {m_rho rho/m_rho} on 100 random products", ok)
    )

    ok = True
    count = 0
    while count < 20:
        a = rng.randint(2, 4)
        b = rng.randint(3, 9)
        if gcd(a, b) != 1 or b <= a:
            continue
        count += 1
        f = parse_polynomial(f"y^{a} - x^{b}")
        poly = newton_polygon_of(f)
        if len(poly.edges) != 1 or poly.x_offset or poly.y_offset:
            ok = False
            break
        branches = puiseux_expand(f, t_precision=4 * b)
        if len(branches) != 1 or branches[0].ramification * branches[0].conjugacy_size != a:
            ok = False
            break
    results.append(CheckResult("Theorem II: irreducible branches have elementary N(f)", ok))

    ok = True
    for _ in range(20):
        factors = [_random_branch_factor(rng) for _ in range(rng.randint(2, 3))]
        by_slope = {}
        for factor, elem in factors:
            by_slope.setdefault(elem.slope, []).append((factor, elem))
        f = None
        for factor, _ in factors:
            f = factor if f is None else f * factor
        decomposition = pg.canonical_decomposition(newton_polygon_of(f))
        grouped = []
        for slope, items in by_slope.items():
            gpoly = None
            gelem = pg.EMPTY
            for factor, elem in items:
                gpoly = factor if gpoly is None else gpoly * factor
                gelem = pg.polygon_sum(gelem, NewtonPolygon(edges=(elem,)))
            if newton_polygon_of(gpoly) != gelem:
                ok = False
            grouped.extend(gelem.edges)
        if sorted(map(repr, grouped)) != sorted(map(repr, decomposition)):
            ok = False
        if not ok:
            break
    results.append(
        CheckResult("canonical parts realized by slope-grouped factorisations", ok)
    )
    return results


# -- criteria 3 and 5: product realization and intersection ----------------------


def _random_series_poly(rng):
    """Unitary polynomial realising its polygon with full degree.

    Extra terms stay on or above the chain from (0, n) to (length, 0), so
    the y-degree equals the polygon height (no valuation-zero roots, the
    setting of the product realization theorem).
    """
    n = rng.randint(1, 3)
    length = rng.randint(1, 4)
    terms = {(0, n): Fraction(1), (length, 0): Fraction(rng.choice([1, 2, 3, -1, -2]))}
    for _ in range(rng.randint(0, 3)):
        i = rng.randint(1, length + 1)
        j = rng.randint(0, n - 1) if n > 1 else 0
        if (i, j) == (length, 0) or Fraction(n) - Fraction(n * i, length) > j:
            continue  # strictly below the chain; would lower the polygon
        terms[(i, j)] = Fraction(rng.randint(-4, 4))
    terms = {k: v for k, v in terms.items() if v}
    return YPolynomial.from_terms(terms)


def _nondegenerate_pair(rng):
    for _ in range(400):
        p1 = _random_series_poly(rng)
        p2 = _random_series_poly(rng)
        if p1.is_y_divisible() or p2.is_y_divisible():
            continue
        if newton_polygon_of(p1).height() != p1.degree():
            continue
        if newton_polygon_of(p2).height() != p2.degree():
            continue
        if is_nondegenerate_pair(p1, p2):
            return p1, p2
    raise RuntimeError("failed to sample a nondegenerate pair")


def _value_at(s, x0):
    """An exact series over QQ at x = x0."""
    return sum((c.rational_value() * x0 ** e for e, c in s.coeffs), Fraction(0))


def _det(rows):
    """Determinant by fraction-free Gaussian elimination (Bareiss)."""
    n = len(rows)
    m = [list(map(Fraction, r)) for r in rows]
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _pinned_by_rational_sylvester(res, p1, p2):
    """res, as a polynomial in x, is the Sylvester resultant of p1 and p2
    over QQ[x]: of degree at most D = deg p2 * deg_x p1 + deg p1 * deg_x p2,
    like that resultant, and equal at x0 = 0, ..., D to the determinant
    (_det) of the rational Sylvester matrix of p1(x0, y) and p2(x0, y)."""
    m, n = p1.degree(), p2.degree()
    dx1, dx2 = (max(e for c in p.coeffs for e, _ in c.coeffs) for p in (p1, p2))
    bound = n * dx1 + m * dx2
    for x0 in range(bound + 1):
        a, b = ([_value_at(c, x0) for c in reversed(p.coeffs)] for p in (p1, p2))
        rows = [[0] * i + a + [0] * (n - 1 - i) for i in range(n)]
        rows += [[0] * i + b + [0] * (m - 1 - i) for i in range(m)]
        if _value_at(res, x0) != _det(rows):
            return False
    return not res.coeffs or res.coeffs[-1][0] <= bound


def suite_product_realization(seed=DEFAULT_SEED):
    rng = random.Random(seed)
    ok_poly = True
    ok_height = True
    ok_const = True
    for _ in range(50):
        p1, p2 = _nondegenerate_pair(rng)
        res = shifted_resultant(p1, p2)
        lhs = realization_polygon(res)
        rhs = product(realization_polygon(p1), realization_polygon(p2))
        if lhs != rhs:
            ok_poly = False
            break
        plain = sylvester_resultant(p1, p2)
        if rhs.height() != plain.order():
            ok_height = False
            break
        if res.coeffs[0] != plain or not _pinned_by_rational_sylvester(plain, p1, p2):
            ok_const = False
            break
    worked = shifted_resultant(parse_polynomial("y - x"), parse_polynomial("y - 2*x"))
    monic = worked if worked.coeffs[-1].coefficient(0) == 1 else -worked
    pinned = (
        repr(monic) == "T + x"
        and newton_polygon_of(worked) == product(make_elementary(1, 1), make_elementary(1, 1))
    )
    return [
        CheckResult(
            "N(Res_U(P1(T+U), P2(U))) = N(P1) * N(P2) on 50 nondegenerate pairs "
            "(distinguished-variable-horizontal orientation)",
            ok_poly,
        ),
        CheckResult("h(N1 * N2) equals the valuation of the resultant", ok_height),
        CheckResult("shifted resultant constant term equals the resultant", ok_const),
        CheckResult("worked value (y - x, y - 2x) -> T + x with polygon {1/1}", pinned),
    ]


def suite_intersection(seed=DEFAULT_SEED):
    rng = random.Random(seed + 1)
    ok = True
    for _ in range(50):
        f1, f2 = _nondegenerate_pair(rng)
        n1, n2 = newton_polygon_of(f1), newton_polygon_of(f2)
        expected = mixed_height(n1, n2)
        mv = ph.mixed_covolume(
            [_polygon_to_polyhedron(n1), _polygon_to_polyhedron(n2)],
            ph.MixedVolumeIndex((1, 1)),
        )
        if intersection_number(f1, f2) != expected or 2 * mv != expected:
            ok = False
            break
    worked = intersection_number(
        parse_polynomial("y - x^2"), parse_polynomial("y^2 + x^3")
    )
    return [
        CheckResult("ord Res = mixed height = 2 * mixed covolume on 50 pairs", ok),
        CheckResult("worked value (y - x^2, y^2 + x^3) -> 3", worked == 3, f"got {worked}"),
    ]


# -- criterion 4: mixed volume triangle ------------------------------------------


def _polygon_to_polyhedron(p: NewtonPolygon) -> ph.NewtonPolyhedron:
    return ph.NewtonPolyhedron(2, p.vertices())


def suite_mixed_volume(seed=DEFAULT_SEED):
    rng = random.Random(seed)
    ok_triangle = True
    for _ in range(100):
        a = _random_polygon(rng, max_edges=3, hi=7)
        b = _random_polygon(rng, max_edges=3, hi=7)
        mh = mixed_height(a, b)
        if product(a, b).height() != mh:
            ok_triangle = False
            break
        mv = ph.mixed_covolume(
            [_polygon_to_polyhedron(a), _polygon_to_polyhedron(b)],
            ph.MixedVolumeIndex((1, 1)),
        )
        if 2 * mv != mh:
            ok_triangle = False
            break
    ok_self = True
    for _ in range(100):
        a = _random_polygon(rng, max_edges=3, hi=7)
        if mixed_height(a, a) != 2 * pg.covolume2(a):
            ok_self = False
            break
    p, q = make_elementary(2, 1), make_elementary(1, 2)
    worked = (
        mixed_height(p, q) == 1
        and pg.covolume2(pg.polygon_sum(p, q)) == 3
        and pg.covolume2(p) == 1
        and pg.covolume2(q) == 1
    )
    return [
        CheckResult("mixed_height = h(P*Q) = 2 * mixed covolume on 100 pairs", ok_triangle),
        CheckResult("h(P*P) = 2 * covolume on 100 polygons", ok_self),
        CheckResult("worked value P={2/1}, Q={1/2}: mixed height 1, Vol(P+Q) = 3", worked),
    ]


# -- criterion 6: Merle corpus ----------------------------------------------------


def _random_semigroup(rng):
    for _ in range(600):
        g = rng.randint(1, 3)
        quotients = [rng.randint(2, 3) for _ in range(g)]
        b0 = 1
        for n in quotients:
            b0 *= n
        gens = [b0]
        chain = [b0]
        for i in range(g):
            chain.append(chain[-1] // quotients[i])
        ok = True
        for i in range(g):
            l_next = chain[i + 1]
            prev = gens[i]
            lo = quotients[i - 1] * gens[i] if i >= 1 else gens[0]
            candidates = []
            for k in range(1, 8):
                cand = lo + k * l_next
                if cand > prev and gcd(cand, chain[i]) == l_next:
                    candidates.append(cand)
            if not candidates:
                ok = False
                break
            gens.append(rng.choice(candidates))
        if not ok:
            continue
        try:
            return validate_semigroup(gens)
        except (GcdChainInvalid, NotMinimal, NotRealizable):
            continue
    raise RuntimeError("failed to sample a plane-branch semigroup")


def suite_merle_corpus(seed=DEFAULT_SEED):
    results = []
    expected = {
        (2, 3): "{2/1}",
        (2, 5): "{4/1}",
        (2, 7): "{6/1}",
        (2, 9): "{8/1}",
        (2, 11): "{10/1}",
        (4, 6, 13): "{5/1}+{11/2}",
    }
    for s, f in merle_corpus():
        m = merle_polygon(s)
        direct = list(itertools.islice(certified_polar_polygons(f), 3))
        agreed = len(direct) == 3 and all(j == direct[0] for j in direct)
        match = direct[0].view == m.view
        exp = expected.get(s.generators)
        exp_ok = exp is None or repr(m) == exp
        results.append(
            CheckResult(
                f"merle = direct jacobian for {s} (3 directions)",
                agreed and match and exp_ok,
                f"merle {m}, direct {direct[0]}",
            )
        )
    mu_4613 = merle_polygon(validate_semigroup([4, 6, 13])).length()
    results.append(CheckResult("<4,6,13> has mu = 16", mu_4613 == 16, f"got {mu_4613}"))

    rng = random.Random(seed)
    ok = True
    for _ in range(50):
        s = _random_semigroup(rng)
        if semigroup_from_polygon(merle_polygon(s)) != s:
            ok = False
            break
    results.append(CheckResult("semigroup round trip on 50 random semigroups (g <= 3)", ok))
    return results


# -- criterion 7: invariant identities --------------------------------------------


def _gap_count(generators) -> int:
    """Number of positive integers outside the numerical semigroup spanned by
    generators: walk n = 0, 1, ... until min(generators) consecutive members
    appear, after which every integer is a member."""
    step = min(generators)
    members, run, gaps, n = set(), 0, 0, 0
    while run < step:
        if n == 0 or any(n - b in members for b in generators):
            members.add(n)
            run += 1
        else:
            gaps += 1
            run = 0
        n += 1
    return gaps


def suite_invariant_identities(seed=DEFAULT_SEED):
    results = []
    curves = [(s, f, None) for s, f in merle_corpus()]
    curves += [(None, f, mu) for f, mu in reducible_corpus()]
    ok_len = ok_conductor = ok_height = ok_special = ok_ak = True
    for s, f, known_mu in curves:
        j = jacobian_polygon_direct(f)
        mu = milnor_number(f)
        if known_mu is not None and mu != known_mu:
            ok_len = False
        # mu of a branch is the conductor of its semigroup, twice its gap
        # count, which no resultant computes; j.length() = mu is certified
        # inside jacobian_polygon_direct, so it alone would check nothing
        if s is not None and mu != 2 * _gap_count(s.generators):
            ok_conductor = False
        if j.length() != mu:
            ok_len = False
        if j.height() != f.multiplicity() - 1:
            ok_height = False
        if not is_special(j.view):
            ok_special = False
        rep = invariants_from_polygon(j)
        if rep.is_Ak != (rep.theta2 == mu) or rep.theta2 > mu:
            ok_ak = False
    results.append(CheckResult("length(nu_j) = milnor number on the corpus", ok_len))
    results.append(CheckResult("milnor number = conductor = 2 * #gaps on the branches",
                               ok_conductor))
    results.append(CheckResult("height(nu_j) = multiplicity - 1 on the corpus", ok_height))
    results.append(CheckResult("nu_j is special on the corpus", ok_special))
    results.append(CheckResult("theta2 = mu iff A_k, and theta2 <= mu", ok_ak))

    # the Cerf polygon against the semigroup and against itself, never
    # against the polar pairs, which jacobian_polygon_direct certifies by it
    ok_cerf = True
    for s, f, _ in curves:
        polygons = [discriminant_polygon(g) for _, g in itertools.islice(cerf_directions(f), 3)]
        if len(polygons) != 3 or len(set(polygons)) != 1:
            ok_cerf = False
        elif s is not None and polygons[0] != merle_polygon(s).view:
            ok_cerf = False
    results.append(CheckResult(
        "Cerf polygon = merle polygon for branches, same in 3 admissible directions", ok_cerf))

    cusp = invariants_from_polygon(JacobianPolygon(((2, 1),)))
    exact = (
        cusp.mu_n == 2
        and cusp.mu_n1 == 1
        and cusp.class_diminution == 3
        and cusp.theta2 == 2
        and cusp.theta1 == Fraction(2, 3)
        and cusp.determinacy == 3
        and cusp.is_Ak
    )
    results.append(CheckResult("cusp report (mu=2, theta2=2, theta1=2/3, N=3)", exact))

    ok_family = True
    for lam in (0, 1, 2):
        pts = {(0, 4), (5, 0)}
        if lam:
            pts.add((2, 2))  # p/a + q/b = 2/5 + 2/4 < 1
        poly = pg.from_support(pts)
        if poly.length() != 5 or poly.height() != 4:
            ok_family = False
        if lam and poly == pg.from_support({(0, 4), (5, 0)}):
            ok_family = False
    results.append(
        CheckResult("height/length constant but polygon not, for t^a - u^b + l t^p u^q", ok_family)
    )
    return results


# -- covolume oracle: Cavalieri slicing -------------------------------------------
#
# Cavalieri's principle, with no hull.  The complement of
# N = conv(G) + R^d_+ is a bounded polyhedral set whose vertices are the
# origin and points of G, so the (d-1)-covolume of its slice x_d = s is a
# polynomial of degree <= d - 1 in s between consecutive heights of G, and
# the closed Newton-Cotes rule on d nodes integrates it exactly.  The slice
# of N is conv(P_s) + R^(d-1)_+, where P_s holds the projections of the
# points p of G with p_d <= s and, for every p below s and q above it, the
# point where the segment pq crosses x_d = s; the slices recurse down to the
# area under a convex chain at d = 2.  Every step is integer arithmetic, and
# no facet, triangulation or cofactor appears, so criterion 8 checks the cone
# sum of ``polyhedra`` against code it does not share.  A point of G whose
# shadow is no vertex of the slice at its own height is no vertex of N either,
# so it is dropped, bottom up, before the later slices are taken.


# closed Newton-Cotes weights on d equally spaced nodes, exact to degree d - 1
_NEWTON_COTES = {3: (1, 4, 1), 4: (1, 3, 3, 1)}


def _slice_covolume(points):
    """(covolume of conv(points) + R^d_+, a subset of the points holding all
    its vertices) for integer points, d = 2, 3, 4."""
    pts = []  # the minimal points in sorted order; in the plane, the chain's vertices
    for g in sorted(set(points)):
        if len(g) > 2:
            if not any(all(a <= b for a, b in zip(h, g)) for h in pts):
                pts.append(g)
        elif not pts or g[1] < pts[-1][1]:  # x rises, so a minimal point's y falls
            while len(pts) > 1 and (pts[-1][0] - pts[-2][0]) * (g[1] - pts[-2][1]) <= (
                pts[-1][1] - pts[-2][1]
            ) * (g[0] - pts[-2][0]):
                pts.pop()  # on or above the chord from pts[-2] to g
            pts.append(g)
    top = max(pts, key=lambda p: p[-1])
    if min(p[-1] for p in pts) != 0 or any(top[:-1]):
        raise InfiniteVolume("the slices need a point at height 0 and one on the last axis")
    if len(pts[0]) == 2:  # the area under the lower-left convex chain
        return Fraction(sum((b[0] - a[0]) * (a[1] + b[1]) for a, b in zip(pts, pts[1:])), 2), pts
    weights = _NEWTON_COTES[len(pts[0])]
    k = len(weights) - 1
    slices = {}

    def at(node):
        """The slice at height node / k as (covolume, D, vertices): its points
        are scaled to integers by D = k * lcm(q_d - p_d), its covolume back by
        1 / D^k."""
        if node not in slices:
            below = [p for p in pts if k * p[-1] <= node]
            pairs = [(p, q) for p in below if k * p[-1] < node for q in pts if k * q[-1] > node]
            step = lcm(*(q[-1] - p[-1] for p, q in pairs))
            scale = k * step
            cut = [tuple([scale * c for c in p[:-1]]) for p in below]
            for p, q in pairs:
                t = step // (q[-1] - p[-1]) * (node - k * p[-1])
                cut.append(tuple([scale * a + t * (b - a) for a, b in zip(p, q[:-1])]))
            volume, vertices = _slice_covolume(cut)
            slices[node] = volume / scale**k, scale, set(vertices)
        return slices[node]

    # the slices at the heights first: a vertex of N is a vertex of its slice
    for h in sorted({p[-1] for p in pts}):
        _, scale, vertices = at(k * h)
        pts = [p for p in pts if p[-1] != h or tuple([scale * c for c in p[:-1]]) in vertices]
    heights = sorted({p[-1] for p in pts})
    total = sum(
        (b - a) * sum(w * at(k * a + i * (b - a))[0] for i, w in enumerate(weights))
        for a, b in zip(heights, heights[1:])
    )
    return Fraction(total, sum(weights)), pts


def _box_hull_covolume(n: ph.NewtonPolyhedron) -> Fraction:
    """Covolume of a finite-volume polyhedron, integrated slice by slice.

    Exact: each slice covolume is a polynomial of degree at most d - 1
    between consecutive generator heights, which the d-node Newton-Cotes rule
    integrates without error, and every slice is taken in integers.  An
    infinite-volume polyhedron raises ``InfiniteVolume``.
    """
    return _slice_covolume(n.generators)[0]


# -- criterion 8: monomial multiplicities ------------------------------------------


def _minkowski_holds(a: int, b: int, c: int, d: int) -> bool:
    """Decide a^(1/d) <= b^(1/d) + c^(1/d) exactly, in integers, at d = 2, 3.

    With k = a - b - c: at d = 2 squaring gives k <= 2 sqrt(bc).  At d = 3,
    s^3 - 3 (bc)^(1/3) s - b - c = (s - b^(1/3) - c^(1/3)) Q(s) with Q > 0
    for s > 0, so at s = a^(1/3) the inequality is k <= 3 (abc)^(1/3).
    """
    k = a - b - c
    if d == 2:
        return k <= 0 or k * k <= 4 * b * c
    if d == 3:
        return k <= 0 or k**3 <= 27 * a * b * c
    raise ValueError(f"the Minkowski test is decided at d = 2 and 3, not {d}")


def _random_monomial_ideal(rng, d):
    gens = set()
    hi = 3 if d == 3 else 4
    for axis in range(d):
        point = [0] * d
        point[axis] = rng.randint(1, hi)
        gens.add(tuple(point))
    for _ in range(rng.randint(0, 2)):
        extra = tuple(rng.randint(0, hi) for _ in range(d))
        if any(extra):
            gens.add(extra)
    return ph.NewtonPolyhedron(d, gens)


def _quartic_ideal(rng):
    """d = 4 ideal: axis powers 3 or 4 and two more generators with entries at
    most 2, which usually cut the simplex into several compact facets."""
    gens = {tuple(rng.randint(3, 4) if i == axis else 0 for i in range(4)) for axis in range(4)}
    while len(gens) < 6:
        extra = tuple(rng.randint(0, 2) for _ in range(4))
        if any(extra):
            gens.add(extra)
    return ph.NewtonPolyhedron(4, gens)


def _interpolation_coefficients(xs, ys):
    """Coefficients, constant first, of the polynomial of degree len(xs) - 1
    through the points (xs[k], ys[k]), from Lagrange's basis, exactly."""
    coeffs = [Fraction(0)] * len(xs)
    for j, (xj, yj) in enumerate(zip(xs, ys)):
        basis = [Fraction(1)]
        for k, xk in enumerate(xs):
            if k != j:  # basis *= (x - xk) / (xj - xk)
                basis = [(a - xk * b) / (xj - xk) for a, b in zip([0] + basis, basis + [0])]
        coeffs = [c + yj * b for c, b in zip(coeffs, basis)]
    return coeffs


def _mixed_pair_mismatch(n1, n2):
    """The first index (i, d - i) at which ``mixed_covolume`` differs from
    the box-hull oracle, or None.

    Vol(l N1 + N2) = sum_i C(d, i) V(N1^[i], N2^[d - i]) l^i, so the box-hull
    volumes at l = 0 .. d fix every mixed covolume of the pair.
    """
    d = n1.dim
    lams = range(d + 1)
    vols = [_box_hull_covolume(ph.sum_d(ph.scale_d(n1, lam), n2)) for lam in lams]
    for i, c in enumerate(_interpolation_coefficients(lams, vols)):
        if ph.mixed_covolume([n1, n2], ph.MixedVolumeIndex((i, d - i))) != c / comb(d, i):
            return (i, d - i)
    return None


def _mixed_pairs_result(pairs, label):
    """One CheckResult for the pairs: the first mismatch, if any."""
    bad = ""
    for n1, n2 in pairs:
        index = _mixed_pair_mismatch(n1, n2)
        if index is not None:
            bad = f"index {index} differs on {n1}, {n2}"
            break
    return CheckResult(
        f"{label} mixed covolumes = box-hull interpolation of Vol(l N1 + N2) on "
        f"{len(pairs)} pairs",
        not bad,
        bad,
    )


def suite_monomial_multiplicity(seed=DEFAULT_SEED):
    rng = random.Random(seed)
    results = []
    fixed = [
        (2, [(2, 0), (0, 3)], 6),
        (2, [(1, 0), (0, 1)], 1),
        (3, [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)], 8),
        (3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], 1),
    ]
    while len(fixed) < 10:
        d = rng.choice([2, 2, 3])
        n = _random_monomial_ideal(rng, d)
        fixed.append((d, list(n.generators), None))
    ok = True
    for d, gens, known in fixed:
        n = ph.NewtonPolyhedron(d, gens)
        e = ph.monomial_multiplicity(n)
        kmax = 14 if d == 2 else 8
        oracle = ph.colength_growth_oracle(d, gens, kmax)
        if e != oracle or (known is not None and e != known):
            ok = False
            break
    results.append(CheckResult("e = d! Vol matches the colength oracle on 10+ ideals", ok))

    ok = True
    faced = []
    for _ in range(50):
        d = rng.choice([2, 3])
        n = _random_monomial_ideal(rng, d)
        faced.append(n)
        lhs, rhs = ph.face_identity_check(n)
        if lhs != rhs:
            ok = False
            break
    results.append(CheckResult("face identity d Vol = sum h_i Vol(sigma_i) on 50 polyhedra", ok))

    quartic_rng = random.Random(seed + 4)
    quartic = [_quartic_ideal(quartic_rng) for _ in range(6)]
    bad = [n for n in faced + quartic if ph.covolume(n) != _box_hull_covolume(n)]
    results.append(
        CheckResult(
            "covolume = box-hull volume oracle on those polyhedra and 6 at d = 4",
            not bad,
            f"differs on {bad[0]}" if bad else "",
        )
    )

    # distinct supports, at least one with a generator off the axes, so that
    # the sums refine both normal fans
    mixed_rng = random.Random(seed + 8)
    pairs = []
    while len(pairs) < 5:
        n1, n2 = _random_monomial_ideal(mixed_rng, 3), _random_monomial_ideal(mixed_rng, 3)
        if n1 != n2 and len(n1.generators) + len(n2.generators) > 6:
            pairs.append((n1, n2))
    results.append(_mixed_pairs_result(pairs, "d = 3"))
    # d = 4 pairs from their own generator, so that the clauses above and
    # below draw the same inputs as without them
    quartic_pair_rng = random.Random(seed + 12)
    quartic_pairs = []
    while len(quartic_pairs) < 2:
        n1, n2 = _quartic_ideal(quartic_pair_rng), _quartic_ideal(quartic_pair_rng)
        if n1 != n2:
            quartic_pairs.append((n1, n2))
    results.append(_mixed_pairs_result(quartic_pairs, "d = 4"))

    ok = True
    for _ in range(50):
        d = rng.choice([2, 3])
        n1 = _random_monomial_ideal(rng, d)
        n2 = _random_monomial_ideal(rng, d)
        e1 = ph.monomial_multiplicity(n1)
        e2 = ph.monomial_multiplicity(n2)
        e12 = ph.monomial_multiplicity(ph.sum_d(n1, n2))
        if not _minkowski_holds(e12, e1, e2, d):
            ok = False
            break
    results.append(CheckResult("Minkowski-type inequality on 50 monomial pairs", ok))
    return results


# -- criteria 9 and 10 --------------------------------------------------------------


def suite_dual_degree(seed=DEFAULT_SEED):
    nodal = dual_degree(3, 2, [(1, 1)])
    cuspidal = dual_degree(3, 2, [(2, 1)])
    smooth = dual_degree(3, 3, [])
    return [
        CheckResult("nodal cubic dual degree 4", nodal == 4, f"got {nodal}"),
        CheckResult("cuspidal cubic dual degree 3", cuspidal == 3, f"got {cuspidal}"),
        CheckResult("smooth cubic surface dual degree 12", smooth == 12, f"got {smooth}"),
    ]


def suite_briancon_speder(seed=DEFAULT_SEED):
    special, generic = briancon_speder_polygons(4)
    lengths = special.length() == generic.length() == 56
    heights = special.height() == 8 and generic.height() == 7
    dom = pg.dominates(special.view, generic.view) and not pg.dominates(
        generic.view, special.view
    )
    return [
        CheckResult("beta=4 lengths both 56", lengths),
        CheckResult("beta=4 heights 8 vs 7", heights),
        CheckResult("special fibre polygon dominates the generic one", dom),
    ]


SUITES = {
    "monoid-laws": suite_monoid_laws,
    "newton-puiseux": suite_newton_puiseux,
    "product-realization": suite_product_realization,
    "mixed-volume": suite_mixed_volume,
    "intersection": suite_intersection,
    "merle-corpus": suite_merle_corpus,
    "invariant-identities": suite_invariant_identities,
    "monomial-multiplicity": suite_monomial_multiplicity,
    "dual-degree": suite_dual_degree,
    "briancon-speder": suite_briancon_speder,
}


def run_suite(name: str, seed: int = DEFAULT_SEED):
    return SUITES[name](seed)
