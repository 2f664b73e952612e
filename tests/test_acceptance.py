"""Acceptance criteria, one test per criterion.

Each test replays its criterion through the seeded verification registry
(the same code behind `newtonpoly verify all`) and prints one PASS/FAIL
line per criterion clause.
"""

import time

import pytest

from newtonpoly.verify import SUITES, run_suite

SEED = 7

CRITERIA = [
    ("criterion 1: monoid and ring laws", "monoid-laws", 10.0),
    ("criterion 2: Newton-Puiseux theorems I and II", "newton-puiseux", 60.0),
    ("criterion 3: product realization by the shifted resultant", "product-realization", None),
    ("criterion 4: mixed-volume triangle", "mixed-volume", None),
    ("criterion 5: intersection corollary", "intersection", None),
    ("criterion 6: Merle corpus and semigroup round trip", "merle-corpus", 300.0),
    ("criterion 7: invariant identities on the corpus", "invariant-identities", None),
    ("criterion 8: monomial multiplicities and face identity", "monomial-multiplicity", None),
    ("criterion 9: dual degrees", "dual-degree", None),
    ("criterion 10: Briancon-Speder data", "briancon-speder", None),
]


@pytest.mark.parametrize("label,suite,budget", CRITERIA, ids=[c[1] for c in CRITERIA])
def test_acceptance(label, suite, budget):
    start = time.time()
    results = run_suite(suite, seed=SEED)
    elapsed = time.time() - start
    print()
    for r in results:
        print(f"{label}: {r.line()}")
    failures = [r for r in results if not r.passed]
    assert not failures, f"{label}: " + "; ".join(r.name for r in failures)
    if budget is not None:
        assert elapsed < budget, f"{label} took {elapsed:.1f}s, budget {budget}s"


def test_registry_covers_all_criteria():
    assert set(SUITES) == {c[1] for c in CRITERIA}


def test_product_realization_checks_the_kernel_on_its_own(monkeypatch):
    # a kernel that doubles every resultant keeps each polygon, height and
    # constant term consistent; the rational Sylvester determinants of the
    # constant-term clause (and the pinned value) still catch it
    from newtonpoly import series

    packed = series._packed_resultant

    def doubled(k, xvar, p1, p2):
        return [s.scale(2) for s in packed(k, xvar, p1, p2)]

    monkeypatch.setattr(series, "_packed_resultant", doubled)
    results = run_suite("product-realization", seed=SEED)
    assert [r.passed for r in results] == [True, True, False, False]
