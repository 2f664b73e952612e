"""The ``*`` product of Newton polygons.

On elementary polygons ``P*Q = {l(P)l(Q) / min(l(P)h(Q), l(Q)h(P))}``; it
extends bilinearly to finite-volume polygons through their canonical
decompositions, and to one infinite elementary factor with the conventions
``a*inf = inf`` (a >= 1) and ``min(inf, a) = a``.

The height of ``P*Q`` is twice the mixed covolume of the pair, exposed
independently as :func:`mixed_height` so the identity can be cross-checked.
"""

from __future__ import annotations

from .errors import NotFiniteVolume, UnsupportedInfiniteCombination
from .polygon import ElementaryPolygon, NewtonPolygon, ext_mul, is_inf


def _ext_min(a, b):
    if is_inf(a):
        return b
    if is_inf(b):
        return a
    return min(a, b)


def product_elementary(p: ElementaryPolygon, q: ElementaryPolygon) -> ElementaryPolygon:
    """{l l' / min(l h', l' h)} with infinity-absorbing arithmetic."""
    ell = ext_mul(p.ell, q.ell)
    h = _ext_min(ext_mul(p.ell, q.h), ext_mul(q.ell, p.h))
    return ElementaryPolygon(ell, h)


def _admitted_infinite(p: NewtonPolygon):
    """Return the single infinite elementary edge if p is one, else None."""
    if p.x_offset or p.y_offset or len(p.edges) != 1:
        return None
    edge = p.edges[0]
    return edge if not edge.is_finite else None


def product(p: NewtonPolygon, q: NewtonPolygon) -> NewtonPolygon:
    """Bilinear extension of the elementary product.

    Defined for two finite-volume polygons, or for one finite-volume polygon
    and one infinite elementary polygon ({l/inf} or {inf/h}).
    """
    p_inf = _admitted_infinite(p)
    q_inf = _admitted_infinite(q)
    if p_inf is not None and q_inf is not None:
        raise UnsupportedInfiniteCombination("product of two infinite polygons is not defined")
    if p_inf is not None:
        p, q = q, p
        q_inf = p_inf
    if not p.is_finite_volume:
        raise NotFiniteVolume(f"operand {p!r} is not finite volume")
    if q_inf is None and not q.is_finite_volume:
        raise NotFiniteVolume(f"operand {q!r} is not finite volume")
    return NewtonPolygon(
        edges=tuple(product_elementary(pe, qe) for pe in p.edges for qe in q.edges)
    )


def is_special(p: NewtonPolygon) -> bool:
    """True iff every canonical edge satisfies ell >= h."""
    if not p.is_finite_volume:
        raise NotFiniteVolume("special is defined for finite-volume polygons")
    return all(e.ell >= e.h for e in p.edges)


def mixed_height(p: NewtonPolygon, q: NewtonPolygon) -> int:
    """Sum of min(l_i h'_j, l'_j h_i) over canonical edges.

    Equals height(product(p, q)) and twice the mixed covolume of the pair.
    """
    if not (p.is_finite_volume and q.is_finite_volume):
        raise NotFiniteVolume("mixed height needs finite-volume polygons")
    return sum(
        min(pe.ell * qe.h, qe.ell * pe.h)
        for pe in p.edges
        for qe in q.edges
    )
