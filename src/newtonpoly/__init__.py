"""Exact Newton polygon/polyhedron arithmetic, Newton-Puiseux expansion and
jacobian Newton polygons of plane curve singularities."""

from .errors import DomainError
from .field import QQ, FieldElement, GroundField
from .invariants import (
    InvariantReport,
    JacobianPolygon,
    SemigroupType,
    briancon_speder_polygons,
    cerf_polygon,
    dual_degree,
    invariants_from_polygon,
    jacobian_polygon_direct,
    merle_polygon,
    milnor_number,
    semigroup_from_polygon,
    validate_semigroup,
)
from .polygon import (
    EMPTY,
    INF,
    ONE,
    ElementaryPolygon,
    NewtonPolygon,
    boundary_at,
    canonical_decomposition,
    covolume2,
    dominates,
    from_support,
    make_elementary,
    polygon_sum,
    transpose,
)
from .polyhedra import (
    MixedVolumeIndex,
    NewtonPolyhedron,
    colength_growth_oracle,
    covolume,
    face_identity_check,
    from_support_d,
    mixed_covolume,
    monomial_multiplicity,
    sum_d,
)
from .product import is_special, mixed_height, product, product_elementary
from .puiseux import (
    PuiseuxBranch,
    branch_multiplicity,
    order_along_branch,
    puiseux_expand,
    root_valuations,
)
from .series import (
    TruncatedSeries,
    YPolynomial,
    edge_polynomial,
    intersection_number,
    is_nondegenerate_pair,
    newton_polygon_of,
    parse_polynomial,
    realization_polygon,
    shifted_resultant,
    sylvester_resultant,
)

__version__ = "0.1.0"
