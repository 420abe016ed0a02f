"""Exact invariants, finite covers and Seifert-volume certificates for
closed orientable graph manifolds described by decorated dual graphs.

The package is organized in layers: ``seifert`` holds the exact invariants
and decision procedures for closed Seifert manifolds, ``graph`` the
decorated-graph model with slope transport and the JSON exchange format,
``coverings`` the two finite-cover constructions with verifiable
certificates, ``volume`` the Seifert-volume lower-bound certificate engine,
``classify`` the mapping-degree finiteness verdicts, and ``cli`` the
``gmanvol`` command line front end.  Everything is exact integer and
rational arithmetic; no operation produces a float.
"""

from .classify import (
    FinitenessVerdict,
    geometry_finiteness,
    mapping_degree_finiteness,
)
from .coverings import (
    CoveredGraph,
    CoveringCertificate,
    PieceCoverRecord,
    characteristic_cover,
    genus_raising_cover,
    min_prime_for_ehn_cover,
    riemann_hurwitz_genus,
    verify_covering_certificate,
)
from .errors import (
    BoundaryCountTooSmall,
    CoverTooLarge,
    EhnFails,
    EmptyInput,
    FiberSlope,
    GenusZeroUnsupported,
    GmanvolError,
    NonIntegralGenus,
    NotPrime,
    ParseError,
    PMJFormRequired,
    PrimeTooLarge,
    PrimeTooSmall,
    RationalTooLong,
    ValidationError,
)
from .graph import (
    BundlePiece,
    Edge,
    GluingMatrix,
    GraphManifold,
    J,
    MINUS_J,
    Slope,
    absolute_euler_number,
    canonical_framing,
    filled_piece_invariants,
    graph_from_document,
    graph_to_document,
    is_pm_j_form,
    parse_graph,
    serialize_graph,
    transport_slope,
    validate,
)
from .seifert import (
    GeometryType,
    SeifertInvariants,
    commutator_realizable,
    ehn_horizontal_foliation,
    euler_number,
    fill_framed_piece,
    geometry_type,
    milnor_wood_check,
    min_genus_for_ehn,
    orbifold_euler_char,
)
from .serialize import format_rational
from .volume import (
    VolumeCertificate,
    VolumeConfig,
    cs_of_filled_piece,
    gv_of_certified_connection,
    volume_lower_bound,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryCountTooSmall",
    "BundlePiece",
    "CoverTooLarge",
    "CoveredGraph",
    "CoveringCertificate",
    "Edge",
    "EhnFails",
    "EmptyInput",
    "FiberSlope",
    "FinitenessVerdict",
    "GenusZeroUnsupported",
    "GeometryType",
    "GluingMatrix",
    "GmanvolError",
    "GraphManifold",
    "J",
    "MINUS_J",
    "NonIntegralGenus",
    "NotPrime",
    "ParseError",
    "PieceCoverRecord",
    "PMJFormRequired",
    "PrimeTooLarge",
    "PrimeTooSmall",
    "RationalTooLong",
    "SeifertInvariants",
    "Slope",
    "ValidationError",
    "VolumeCertificate",
    "VolumeConfig",
    "absolute_euler_number",
    "canonical_framing",
    "characteristic_cover",
    "commutator_realizable",
    "cs_of_filled_piece",
    "ehn_horizontal_foliation",
    "euler_number",
    "fill_framed_piece",
    "filled_piece_invariants",
    "format_rational",
    "genus_raising_cover",
    "geometry_finiteness",
    "geometry_type",
    "graph_from_document",
    "graph_to_document",
    "gv_of_certified_connection",
    "is_pm_j_form",
    "mapping_degree_finiteness",
    "milnor_wood_check",
    "min_genus_for_ehn",
    "min_prime_for_ehn_cover",
    "orbifold_euler_char",
    "parse_graph",
    "riemann_hurwitz_genus",
    "serialize_graph",
    "transport_slope",
    "validate",
    "verify_covering_certificate",
    "volume_lower_bound",
]
