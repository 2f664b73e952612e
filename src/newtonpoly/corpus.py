"""Reference curves for cross-validation of the invariant machinery.

Branch curves are built from their parameterisations: monomial branches get
explicit binomial equations, multi-exponent branches are eliminated as a
characteristic polynomial.  The semigroup attached to each curve is the
independent input against which the direct polar computation is checked.
"""

from __future__ import annotations

from fractions import Fraction

from .field import QQ
from .invariants import validate_semigroup
from .series import TruncatedSeries, YPolynomial, parse_polynomial


def curve_from_parameterisation(x_exp: int, y_terms) -> YPolynomial:
    """Minimal equation of the branch x = t^a, y = sum c t^b.

    It is the characteristic polynomial in y of multiplication by y(t) on
    Q[x][t]/(t^a - x), whose eigenvalues are y(t) at the a roots of t^a = x.
    There t^j has trace a*x^(j/a) when a divides j and 0 otherwise, which
    gives the power sums p_k = tr y(t)^k; Newton's identities
    k*c_k = -(c_(k-1)*p_1 + ... + c_0*p_k) then give the coefficient c_k of
    y^(a-k), with c_0 = 1.
    """
    a, zero = x_exp, TruncatedSeries.zero(QQ, "x")
    y = TruncatedSeries.make(QQ, "t", {b: Fraction(c) for b, c in y_terms})
    power, sums, coeffs = y, [], [TruncatedSeries.constant(QQ, "x", 1)]
    for k in range(1, a + 1):
        sums.append(TruncatedSeries.make(QQ, "x", {e // a: c * a for e, c in power.coeffs
                                                   if e % a == 0}))
        power = power * y
        total = sum((coeffs[i] * sums[k - 1 - i] for i in range(k)), zero)
        coeffs.append(total.scale(Fraction(-1, k)))
    return YPolynomial.make(coeffs[::-1])


def monomial_branch_curve(a: int, b: int) -> YPolynomial:
    """y^a - x^b for the semigroup <a, b> with gcd(a, b) = 1."""
    return parse_polynomial(f"y^{a} - x^{b}")


def merle_corpus():
    """Pairs (semigroup, equation) for the cross-check suite."""
    items = []
    for k in range(1, 6):
        items.append((validate_semigroup([2, 2 * k + 1]), monomial_branch_curve(2, 2 * k + 1)))
    items.append((validate_semigroup([3, 4]), monomial_branch_curve(3, 4)))
    items.append((validate_semigroup([3, 5]), monomial_branch_curve(3, 5)))
    items.append(
        (
            validate_semigroup([4, 6, 13]),
            curve_from_parameterisation(4, [(6, 1), (7, 1)]),
        )
    )
    return items


def reducible_corpus():
    """Reducible curves with their expected milnor numbers."""
    cusp_line = parse_polynomial("y^2 - x^3") * parse_polynomial("y - x")
    node = parse_polynomial("y^2 - x^2 - x^3")
    tacnode = parse_polynomial("y - x^2") * parse_polynomial("y + x^2")
    return [(cusp_line, 5), (node, 1), (tacnode, 3)]
