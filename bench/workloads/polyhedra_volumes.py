"""polyhedra-volumes: Newton polyhedra of convenient monomial supports in
d = 2, 3 and 4.

Why this workload exists: only the polyhedra layer runs, so a change to the
covolume (the convex hull behind it, its lazy scipy import, the facet
enumeration) shows here and nowhere else.  A build costs about 80 times more
at d = 4 than at d = 2, so the d = 4 share moves when the hull changes while
the d = 2 operations should stay flat.

Each round holds one operation of each kind below, every one starting from
raw generators so that nothing is reused between operations:

* build a polyhedron, which computes its covolume (d = 2, 3, 4);
* ``monomial_multiplicity`` (d = 2, 3, 4);
* ``mixed_covolume`` of a pair: two random supports at d = 2, and (N, 2N) at
  d = 3, whose mixed covolume of index (1, 2) is 4 Vol(N); one d = 4 call
  takes seconds, so d = 4 pairs are left out;
* ``face_identity_check`` (d = 3, and twice at d = 4).

Every support has d + 2 minimal generators (d + 1 for the d = 3 pairs),
because the cost of a build grows quickly with their number.

Expected answers: the colength-growth multiplicity, computed at generation
for a few d = 2 and d = 3 supports that the rounds share (it takes up to half
a second each); twice the mixed covolume against the polygon
``mixed_height`` at d = 2; elsewhere the facet-triangulation side of the face
identity, computed in the check, which shares no code with the covolume.
"""

import random
from fractions import Fraction
from math import factorial

from newtonpoly import polygon as pg
from newtonpoly import polyhedra as ph
from newtonpoly.product import mixed_height

TAIL_PERCENTILE = 95
ROUNDS = 48
D2_ORACLE_SUPPORTS = 8
D3_ORACLE_SUPPORTS = 4
SCALE = 2
MAX_EXTENT = {2: 6, 3: 3, 4: 4}
COLENGTH_KMAX = {2: 14, 3: 8}


# -- generation ----------------------------------------------------------------


def _comparable(g, h):
    return all(a <= b for a, b in zip(g, h)) or all(b <= a for a, b in zip(g, h))


def _support(rng, d, extras=2):
    """Axis points (convenient) plus generators off the axes, none of them
    dominating another, so that all d + extras generators are minimal."""
    hi = MAX_EXTENT[d]
    while True:
        gens = [
            tuple(rng.randint(hi - 1, hi) if i == axis else 0 for i in range(d))
            for axis in range(d)
        ]
        for _ in range(extras):
            gens.append(tuple(rng.randint(0, hi - 1) for _ in range(d)))
        if all(not _comparable(g, h) for k, g in enumerate(gens) for h in gens[:k]):
            return [list(g) for g in sorted(gens)]


def _multiplicity(d, gens):
    return ph.colength_growth_oracle(d, gens, COLENGTH_KMAX[d])


def generate(seed):
    rng = random.Random(seed)
    shared = {}
    for d, count in ((2, D2_ORACLE_SUPPORTS), (3, D3_ORACLE_SUPPORTS)):
        shared[d] = []
        for _ in range(count):
            gens = _support(rng, d)
            shared[d].append((gens, _multiplicity(d, gens)))
    rounds = []
    for r in range(ROUNDS):
        g2, e2 = shared[2][r % D2_ORACLE_SUPPORTS]
        g3, e3 = shared[3][r % D3_ORACLE_SUPPORTS]
        pair2 = _support(rng, 2), _support(rng, 2)
        mixed2 = mixed_height(pg.from_support(pair2[0]), pg.from_support(pair2[1]))
        pair3 = _support(rng, 3, extras=1)
        four = [_support(rng, 4) for _ in range(4)]
        # kinds in increasing order of cost: the median falls on the d = 2
        # mixed covolume and the tail percentile on the d = 3 one, each in
        # the middle of its stratum rather than in a gap between two
        rounds.append([
            {"kind": "build", "d": 2, "gens": g2, "expect": str(Fraction(e2, 2))},
            {"kind": "multiplicity", "d": 2, "gens": g2, "expect": e2},
            {"kind": "build", "d": 3, "gens": g3, "expect": str(Fraction(e3, 6))},
            {"kind": "multiplicity", "d": 3, "gens": g3, "expect": e3},
            {"kind": "face", "d": 3, "gens": g3, "expect": str(Fraction(e3, 2))},
            {"kind": "mixed", "d": 2, "gens": pair2[0], "other": pair2[1], "alpha": [1, 1],
             "expect": str(Fraction(mixed2, 2))},
            {"kind": "build", "d": 4, "gens": four[0], "expect": None},
            {"kind": "multiplicity", "d": 4, "gens": four[1], "expect": None},
            {"kind": "face", "d": 4, "gens": four[2], "expect": None},
            {"kind": "face", "d": 4, "gens": four[3], "expect": None},
            {"kind": "mixed", "d": 3, "gens": pair3, "alpha": [1, 2], "expect": None,
             "other": [[SCALE * c for c in g] for g in pair3]},
        ])
    warmup = {"kind": "build", "d": 3, "gens": _support(rng, 3), "expect": None}
    return {"warmup": warmup, "rounds": rounds}


# -- the timed operation ------------------------------------------------------------


def op(item):
    kind, d = item["kind"], item["d"]
    n = ph.NewtonPolyhedron(d, item["gens"])
    if kind == "build":
        return str(ph.covolume(n))
    if kind == "multiplicity":
        return ph.monomial_multiplicity(n)
    if kind == "mixed":
        other = ph.NewtonPolyhedron(d, item["other"])
        return str(ph.mixed_covolume([n, other], ph.MixedVolumeIndex(tuple(item["alpha"]))))
    lhs, rhs = ph.face_identity_check(n)
    return [str(lhs), str(rhs)]


def fingerprint(output):
    return repr(output)


# -- the oracle ------------------------------------------------------------------


def _face_sum(d, gens):
    """d * covolume from the facet triangulation alone."""
    return ph.face_identity_check(ph.NewtonPolyhedron(d, gens))[1]


def check(item, out):
    kind, d, exp = item["kind"], item["d"], item["expect"]
    if kind == "face":
        lhs, rhs = out
        if lhs != rhs:
            return f"face identity {lhs} != {rhs}"
        if exp is not None and lhs != exp:
            return f"d * Vol = {lhs}, the colength oracle gives {exp}"
        return None
    if exp is None:  # compare with the triangulated facets, d * Vol
        face = _face_sum(d, item["gens"])
        if kind == "build":
            exp = str(face / d)
        elif kind == "multiplicity":
            exp = face * factorial(d - 1)
        else:
            exp = str(SCALE * SCALE * face / d)
    if out != exp:
        return f"{kind} at d = {d} gives {out}, expected {exp}"
    return None
