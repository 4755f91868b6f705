"""Exact Fourier-Mukai partners of abelian varieties presented as tori.

The package computes with polarizable complex tori given by a rational
complex structure on Z^2g and an integral Neron-Severi basis: duals, class
kernels, slope subtori, partner presentations, product-class equivalence
audits, and bounded searches for isomorphism certificates.  All arithmetic
is exact.
"""

from .lattices import (
    FiniteGroupStructure,
    Lattice,
    LatticeContainmentError,
)
from .matrices import Mat
from .partners import (
    Fingerprint,
    PartnerEntry,
    PartnerRecord,
    RigidityCheck,
    enumerate_partners,
    find_isomorphism_certificate,
    fingerprint,
    ppav_rigidity_check,
)
from .product_audit import (
    AuditItem,
    AuditReport,
    ProductNSClass,
    ProjectionIso,
    audit_equivalence,
    is_ample,
    projection_iso,
    search_kernel_class,
    search_product_classes,
)
from .slopes import (
    ProjectionInvariants,
    Slope,
    SlopeSubvariety,
    member_lattice,
    parse_slope_literal,
    projection_invariants,
    reduce_slope,
    slope_kernel,
    slope_subvariety,
)
from .varieties import (
    FiniteSubgroup,
    Homomorphism,
    InternalInvariantViolation,
    NSClass,
    NotAnIsogenyError,
    PreconditionError,
    TorusVariety,
    ValidationReport,
    VarietyMismatchError,
    class_kernel,
    dual,
    is_isomorphism_certificate,
    ns_pullback,
    product,
    torsion_subgroup,
    trivial_subgroup,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "AuditItem",
    "AuditReport",
    "FiniteGroupStructure",
    "FiniteSubgroup",
    "Fingerprint",
    "Homomorphism",
    "InternalInvariantViolation",
    "Lattice",
    "LatticeContainmentError",
    "Mat",
    "NSClass",
    "NotAnIsogenyError",
    "PartnerEntry",
    "PartnerRecord",
    "PreconditionError",
    "ProductNSClass",
    "ProjectionInvariants",
    "ProjectionIso",
    "RigidityCheck",
    "Slope",
    "SlopeSubvariety",
    "TorusVariety",
    "ValidationReport",
    "VarietyMismatchError",
    "audit_equivalence",
    "class_kernel",
    "dual",
    "enumerate_partners",
    "find_isomorphism_certificate",
    "fingerprint",
    "is_ample",
    "is_isomorphism_certificate",
    "member_lattice",
    "ns_pullback",
    "parse_slope_literal",
    "ppav_rigidity_check",
    "product",
    "projection_invariants",
    "projection_iso",
    "reduce_slope",
    "search_kernel_class",
    "search_product_classes",
    "slope_kernel",
    "slope_subvariety",
    "torsion_subgroup",
    "trivial_subgroup",
    "validate",
]
