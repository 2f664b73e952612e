"""The ``*`` product of Newton polygons.

On elementary polygons ``P*Q = {l(P)l(Q) / min(l(P)h(Q), l(Q)h(P))}``; it
extends bilinearly to finite-volume polygons through their canonical
decompositions, and to one infinite elementary factor with the conventions
``a*inf = inf`` (a >= 1) and ``min(inf, a) = a``.

The product of two edges has the smaller of their two slopes, so the n·m
edge products of two finite-volume polygons fall onto the slopes of P ∪ Q,
and one merge of the two canonical edge lists, steepest first, gives the
canonical edges of ``P*Q`` directly.  The result is built through the
polygon layer's constructor for canonical edges, so it is never sorted.

The height of ``P*Q`` is twice the mixed covolume of the pair, exposed
independently as :func:`mixed_height` so the identity can be cross-checked;
``mixed_height`` keeps the double sum over edge pairs on purpose, so that it
shares no code with the merge it checks.
"""

from __future__ import annotations

from .errors import NotFiniteVolume, UnsupportedInfiniteCombination
from .polygon import INF, ElementaryPolygon, NewtonPolygon, _canonical, ext_mul, is_inf


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


def _slope_merge(p_edges, q_edges):
    """Canonical edges of P*Q from the canonical edges of P and Q.

    The edge of P*Q of slope s has length ``l_s(P)·L_Q(>= s) + l_s(Q)·L_P(> s)``
    and height ``h_s(P)·L_Q(>= s) + h_s(Q)·L_P(> s)``, where ``L(>= s)`` is the
    total length of the operand's edges of slope at least s.  ``la`` and ``lb`` are the lengths
    of the edges of p and of q already passed; slopes are compared by
    integer cross-multiplication.
    """
    out = []
    la = lb = 0
    i = j = 0
    while i < len(p_edges) and j < len(q_edges):
        e, f = p_edges[i], q_edges[j]
        cmp = e.h * f.ell - f.h * e.ell
        if cmp > 0:
            if lb:
                out.append(ElementaryPolygon(e.ell * lb, e.h * lb))
            la += e.ell
            i += 1
        elif cmp < 0:
            if la:
                out.append(ElementaryPolygon(f.ell * la, f.h * la))
            lb += f.ell
            j += 1
        else:
            lq = lb + f.ell
            out.append(ElementaryPolygon(e.ell * lq + f.ell * la, e.h * lq + f.h * la))
            la += e.ell
            lb = lq
            i += 1
            j += 1
    # one list is exhausted; the other's remaining edges pair with all of it
    out.extend(ElementaryPolygon(e.ell * lb, e.h * lb) for e in p_edges[i:])
    out.extend(ElementaryPolygon(f.ell * la, f.h * la) for f in q_edges[j:])
    return tuple(out)


def product(p: NewtonPolygon, q: NewtonPolygon) -> NewtonPolygon:
    """Bilinear extension of the elementary product.

    Defined for two finite-volume polygons, or for one finite-volume polygon
    and one infinite elementary polygon ({l/inf} or {inf/h}).  An edge pair's
    product has the smaller of the two slopes, so for two finite-volume
    operands one merge over the slopes of P ∪ Q gives the canonical result in
    integer arithmetic, without forming the n·m edge products; a vertical-ray
    operand is multiplied edge by edge, and a floor operand {inf/h} gives the
    one floor {inf / h·l(P)}.
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
    if q_inf is None:
        return _canonical(0, 0, _slope_merge(p.edges, q.edges))
    if is_inf(q_inf.ell):
        # every edge product is a floor {inf / l(e)·h}; the floors coalesce
        return _canonical(0, 0, (ElementaryPolygon(INF, p.length() * q_inf.h),))
    return _canonical(0, 0, tuple(product_elementary(pe, q_inf) for pe in p.edges))


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
