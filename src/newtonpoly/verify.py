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
from math import comb, factorial, gcd

import sympy

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
from .errors import GcdChainInvalid, NotMinimal, NotRealizable
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
        if rhs.height() != sylvester_resultant(p1, p2).order():
            ok_height = False
            break
        if res.coeffs[0] != sylvester_resultant(p1, p2):
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


# -- box-hull covolume oracle ---------------------------------------------------
#
# An exact hull pipeline of its own (qhull hyperplane hints, exact
# re-verification, a ridge-closure certificate), kept apart from the cone
# sum in polyhedra so that criterion 8 checks covolume against code it does
# not share.


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


def _facet_normal(points):
    """Integer normal of the hyperplane through d affinely independent points."""
    d = len(points[0])
    base = points[0]
    rows = [[p[i] - base[i] for i in range(d)] for p in points[1:]]
    normal = []
    for i in range(d):
        minor = [[r[j] for j in range(d) if j != i] for r in rows]
        sub = _det(minor) if minor else Fraction(1)
        normal.append((-1) ** i * sub)
    if all(c == 0 for c in normal):
        return None
    nums = [int(c) for c in normal]
    g = 0
    for c in nums:
        g = gcd(g, abs(c))
    return tuple(c // g for c in nums)


class _HullCertificationError(RuntimeError):
    pass


def _dot(n, p):
    return sum(a * b for a, b in zip(n, p))


def _ring_2d(points):
    """Convex-position ring of 2d points, counterclockwise, strict turns."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts

    def half(seq):
        chain = []
        for p in seq:
            while len(chain) >= 2:
                o, a = chain[-2], chain[-1]
                if (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0]) <= 0:
                    chain.pop()
                else:
                    break
            chain.append(p)
        return chain

    lower = half(pts)
    upper = half(list(reversed(pts)))
    ring = lower[:-1] + upper[:-1]
    return ring


def _independent_subset(points, d):
    """d affinely independent points, or None."""
    base = points[0]
    chosen = [base]
    rows = []
    for p in points[1:]:
        cand = rows + [[Fraction(p[i] - base[i]) for i in range(d)]]
        if _matrix_rank(cand) == len(cand):
            rows = cand
            chosen.append(p)
            if len(chosen) == d:
                return chosen
    return None


def _matrix_rank(rows):
    m = [list(r) for r in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        pivot = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                f = m[i][col] / m[rank][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


def _exact_facets(points):
    """Facets of conv(points) as (inward normal, offset, on-points), exact.

    In dimension >= 3, qhull supplies candidate hyperplanes; each facet is
    reconstructed exactly from points on it, verified to support the point
    set, and the facet complex is certified closed by matching every ridge
    to exactly two facets.  A certification failure raises rather than
    returning a wrong answer.
    """
    pts = sorted(set(map(tuple, points)))
    d = len(pts[0])
    if d == 1:
        lo, hi = pts[0][0], pts[-1][0]
        if lo == hi:
            raise _HullCertificationError("degenerate 1d hull")
        return [((1,), lo, ((lo,),)), ((-1,), -hi, ((hi,),))]
    if d == 2:
        ring = _ring_2d(pts)
        if len(ring) < 3:
            raise _HullCertificationError("collinear 2d point set")
        facets = []
        for i, a in enumerate(ring):
            b = ring[(i + 1) % len(ring)]
            normal = (a[1] - b[1], b[0] - a[0])
            g = gcd(abs(normal[0]), abs(normal[1]))
            normal = (normal[0] // g, normal[1] // g)
            off = _dot(normal, a)
            if any(_dot(normal, p) < off for p in pts):
                normal = (-normal[0], -normal[1])
                off = -off
            on = tuple(p for p in pts if _dot(normal, p) == off)
            facets.append((normal, off, on))
        return facets

    from scipy.spatial import ConvexHull  # hyperplane hints only

    hull = ConvexHull(pts)
    scale = max(1.0, max(abs(c) for p in pts for c in p))
    hint_rows = {tuple(round(v, 9) for v in row) for row in hull.equations.tolist()}
    facets = {}
    for row in sorted(hint_rows):
        nf, c = row[:-1], row[-1]
        near = [p for p in pts if abs(_dot(nf, p) + c) < 1e-6 * scale]
        if len(near) < d:
            continue
        basis = _independent_subset(near, d)
        if basis is None:
            continue
        normal = _facet_normal(basis)
        if normal is None:
            continue
        off = _dot(normal, basis[0])
        values = [_dot(normal, p) for p in pts]
        if all(v >= off for v in values):
            pass
        elif all(v <= off for v in values):
            normal = tuple(-x for x in normal)
            off = -off
            values = [-v for v in values]
        else:
            continue  # spurious hint; the closure check guards completeness
        on = tuple(p for p, v in zip(pts, values) if v == off)
        facets[(normal, off)] = (normal, off, on)
    facets = list(facets.values())
    if not facets:
        raise _HullCertificationError("no facets reconstructed")
    ridge_count: dict = {}
    for normal, off, on in facets:
        for ridge in _facet_ridges(on, normal):
            ridge_count[ridge] = ridge_count.get(ridge, 0) + 1
    if any(c != 2 for c in ridge_count.values()):
        raise _HullCertificationError("facet complex is not closed")
    return facets


def _project_facet(on, normal):
    """Drop the coordinate of largest |normal| entry; injective on the facet."""
    k = max(range(len(normal)), key=lambda i: abs(normal[i]))
    shadow = {tuple(c for i, c in enumerate(p) if i != k): p for p in on}
    return shadow


def _facet_ridges(on, normal):
    """Ridge identifiers (sorted point tuples) of a facet, exactly."""
    d = len(normal)
    shadow = _project_facet(on, normal)
    flat = sorted(shadow)
    if d == 2:
        return [(shadow[flat[0]],), (shadow[flat[-1]],)]
    return [
        tuple(sorted(shadow[p] for p in sub_on))
        for _, _, sub_on in _exact_facets(flat)
    ]


def _facet_triangulation(on, normal):
    """(d-1)-simplices covering the facet, as tuples of d original points."""
    d = len(normal)
    shadow = _project_facet(on, normal)
    flat = sorted(shadow)
    if d == 2:
        return [(shadow[flat[0]], shadow[flat[-1]])]
    if d == 3:
        ring = _ring_2d(flat)
        return [
            (shadow[ring[0]], shadow[ring[i]], shadow[ring[i + 1]])
            for i in range(1, len(ring) - 1)
        ]
    # d == 4: tetrahedralise the 3-dimensional facet by a vertex fan
    anchor = flat[0]
    tets = []
    for sub_normal, sub_off, sub_on in _exact_facets(flat):
        if anchor in sub_on:
            continue
        for tri in _facet_triangulation(sub_on, sub_normal):
            tets.append((shadow[anchor],) + tuple(shadow[p] for p in tri))
    return tets


def _polytope_volume(points) -> Fraction:
    """Exact volume of conv(points) for integer points."""
    pts = sorted(set(map(tuple, points)))
    d = len(pts[0])
    if _matrix_rank([[Fraction(p[i] - pts[0][i]) for i in range(d)] for p in pts[1:]]) < d:
        return Fraction(0)
    if d == 1:
        return Fraction(pts[-1][0] - pts[0][0])
    facets = _exact_facets(pts)
    centroid = tuple(Fraction(sum(p[i] for p in pts), len(pts)) for i in range(d))
    total = Fraction(0)
    for normal, off, on in facets:
        for simplex in _facet_triangulation(on, normal):
            rows = [[Fraction(p[i]) - centroid[i] for i in range(d)] for p in simplex]
            total += abs(_det(rows))
    return total / factorial(d)


def _corner_points(n, box):
    """Vertex superset of region /\\ [0, box]^d."""
    corners = set()
    for g in n.generators:
        for eps in itertools.product((0, 1), repeat=n.dim):
            corners.add(tuple(g[i] if e == 0 else box for i, e in enumerate(eps)))
    return sorted(corners)


def _box_hull_covolume(n: ph.NewtonPolyhedron) -> Fraction:
    """Covolume of a finite-volume polyhedron as M^d - Vol(region /\\ [0, M]^d).

    The complement of the region lies in the box [0, M]^d with M the largest
    generator coordinate, and region /\\ box is the convex hull of the corner
    set {A + (M - A) o eps : eps in {0,1}^d}; its volume comes from the
    certified hull above.
    """
    m = n.max_coordinate
    if m == 0:
        return Fraction(0)
    return Fraction(m) ** n.dim - _polytope_volume(_corner_points(n, m))


# -- criterion 8: monomial multiplicities ------------------------------------------


def _int_nth_root(n: int, d: int) -> int:
    if n < 0:
        raise ValueError
    if n == 0:
        return 0
    x = int(round(n ** (1.0 / d))) + 2
    while x**d > n:
        x -= 1
    return x


def _minkowski_holds(a: int, b: int, c: int, d: int) -> bool:
    """Decide a^(1/d) <= b^(1/d) + c^(1/d) exactly."""
    scale = 10**12
    for _ in range(4):
        ra = _int_nth_root(a * scale**d, d)
        rb = _int_nth_root(b * scale**d, d)
        rc = _int_nth_root(c * scale**d, d)
        if ra + 1 <= rb + rc:
            return True
        if ra > rb + rc + 2:
            return False
        scale *= 10**6
    lhs = sympy.Integer(a) ** sympy.Rational(1, d)
    rhs = sympy.Integer(b) ** sympy.Rational(1, d) + sympy.Integer(c) ** sympy.Rational(1, d)
    return bool(sympy.simplify(rhs - lhs) >= 0)


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
    """The first index (i, 3 - i) at which ``mixed_covolume`` differs from
    the box-hull oracle, or None.

    Vol(l N1 + N2) = sum_i C(3, i) V(N1^[i], N2^[3 - i]) l^i, so the box-hull
    volumes at l = 0 .. 3 fix every mixed covolume of the pair.
    """
    lams = range(4)
    vols = [_box_hull_covolume(ph.sum_d(ph.scale_d(n1, lam), n2)) for lam in lams]
    for i, c in enumerate(_interpolation_coefficients(lams, vols)):
        if ph.mixed_covolume([n1, n2], ph.MixedVolumeIndex((i, 3 - i))) != c / comb(3, i):
            return (i, 3 - i)
    return None


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
    bad = ""
    for n1, n2 in pairs:
        index = _mixed_pair_mismatch(n1, n2)
        if index is not None:
            bad = f"index {index} differs on {n1}, {n2}"
            break
    results.append(
        CheckResult(
            "d = 3 mixed covolumes = box-hull interpolation of Vol(l N1 + N2) on 5 pairs",
            not bad,
            bad,
        )
    )

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
