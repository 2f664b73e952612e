#!/usr/bin/env python3
"""Compute the jacobian Newton polygon of plane curves directly from their
equations and cross-check every identity the polygon is supposed to satisfy.

With no arguments, runs over the built-in corpus; otherwise pass equations
in the sparse text format, e.g.  scripts/jacobian_demo.py "y^3 - x^7"."""

import argparse
import time

from newtonpoly.corpus import merle_corpus, reducible_corpus
from newtonpoly.invariants import (
    invariants_from_polygon,
    jacobian_polygon_direct,
    merle_polygon,
    milnor_number,
)
from newtonpoly.product import is_special
from newtonpoly.series import parse_polynomial


def inspect(f, expected=None):
    t0 = time.time()
    j = jacobian_polygon_direct(f)
    mu = milnor_number(f)
    rep = invariants_from_polygon(j)
    checks = [
        ("length = mu", j.length() == mu),
        ("height = mult - 1", j.height() == f.multiplicity() - 1),
        ("special", is_special(j.view)),
        ("A_k iff theta2 = mu", rep.is_Ak == (rep.theta2 == mu)),
    ]
    if expected is not None:
        checks.append(("matches Merle", j.view == expected.view))
    flags = " ".join(name for name, ok in checks if not ok) or "all identities hold"
    print(f"  nu_j = {j}   mu = {mu}   theta2 = {rep.theta2}   "
          f"N = {rep.determinacy}   [{flags}]   ({time.time() - t0:.2f}s)")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("equations", nargs="*", help="curve equations f(x, y)")
    args = ap.parse_args()

    if args.equations:
        for text in args.equations:
            print(text)
            inspect(parse_polynomial(text))
        return
    for s, f in merle_corpus():
        print(f"{s}  :  {f}")
        inspect(f, expected=merle_polygon(s))
    for f, mu in reducible_corpus():
        print(f"(reducible, mu = {mu})  :  {f}")
        inspect(f)


if __name__ == "__main__":
    main()
