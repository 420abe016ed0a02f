"""Finiteness of mapping-degree sets for closed prime 3-manifolds.

The decision needs only coarse information about the target: a closed
Seifert manifold given by its invariants, a valid decorated graph, or one
of two caller-asserted flags.  The set of mapping degrees into the target
is finite exactly when the target carries a volume that maps cannot
inflate: positive Seifert volume (the sl2tilde geometry, or a non-trivial
graph manifold through a suitable finite cover) or positive simplicial
volume (a hyperbolic piece).  Targets finitely covered by a torus bundle,
by a trivial circle bundle or by the 3-sphere admit self-maps of
arbitrarily many degrees.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import GraphManifold, _require_valid
from .seifert import GeometryType, SeifertInvariants, geometry_type

KIND_SEIFERT = "seifert"
KIND_GRAPH = "graph"
KIND_TORUS_BUNDLE_COVERED = "torus-bundle-covered"
KIND_HYPERBOLIC = "hyperbolic-or-contains-hyperbolic-piece"


@dataclass(frozen=True)
class PrimeManifoldDescription:
    """Coarse description of a closed prime 3-manifold.

    Exactly one payload is populated, matching the kind tag.  The two flag
    kinds are asserted by the caller; no geometry detection is attempted
    for them.
    """

    kind: str
    seifert: SeifertInvariants | None = None
    graph: GraphManifold | None = None

    def __post_init__(self):
        expected = {
            KIND_SEIFERT: self.seifert is not None and self.graph is None,
            KIND_GRAPH: self.graph is not None and self.seifert is None,
            KIND_TORUS_BUNDLE_COVERED: self.seifert is None and self.graph is None,
            KIND_HYPERBOLIC: self.seifert is None and self.graph is None,
        }
        if self.kind not in expected:
            raise ValueError(f"unknown manifold kind {self.kind!r}")
        if not expected[self.kind]:
            raise ValueError(f"payload does not match kind {self.kind!r}")

    @classmethod
    def from_seifert(cls, inv: SeifertInvariants) -> "PrimeManifoldDescription":
        return cls(kind=KIND_SEIFERT, seifert=inv)

    @classmethod
    def from_graph(cls, gm: GraphManifold) -> "PrimeManifoldDescription":
        return cls(kind=KIND_GRAPH, graph=gm)

    @classmethod
    def torus_bundle_covered(cls) -> "PrimeManifoldDescription":
        return cls(kind=KIND_TORUS_BUNDLE_COVERED)

    @classmethod
    def hyperbolic(cls) -> "PrimeManifoldDescription":
        return cls(kind=KIND_HYPERBOLIC)


@dataclass(frozen=True)
class FinitenessVerdict:
    verdict: str  # "finite" | "infinite"
    reason: str

    def to_document(self) -> dict:
        return {"verdict": self.verdict, "reason": self.reason}


_GEOMETRY_TABLE = {
    GeometryType.SL2TILDE: FinitenessVerdict("finite", "positive-seifert-volume"),
    GeometryType.SPHERICAL: FinitenessVerdict("infinite", "finitely-covered-by-s3"),
    GeometryType.S2XR: FinitenessVerdict(
        "infinite", "finitely-covered-by-trivial-circle-bundle"
    ),
    GeometryType.EUCLIDEAN: FinitenessVerdict(
        "infinite", "finitely-covered-by-torus-bundle"
    ),
    GeometryType.NIL: FinitenessVerdict("infinite", "finitely-covered-by-torus-bundle"),
    GeometryType.H2XR: FinitenessVerdict(
        "infinite", "finitely-covered-by-trivial-circle-bundle"
    ),
}


def geometry_finiteness(geom: GeometryType) -> FinitenessVerdict:
    """Mapping-degree finiteness for a closed geometric Seifert manifold."""
    return _GEOMETRY_TABLE[geom]


def mapping_degree_finiteness(desc: PrimeManifoldDescription) -> FinitenessVerdict:
    """Decide finiteness of the set of mapping degrees into the described target."""
    if desc.kind == KIND_SEIFERT:
        return geometry_finiteness(geometry_type(desc.seifert))
    if desc.kind == KIND_GRAPH:
        _require_valid(desc.graph)
        # A valid decorated graph has genus >= 2 pieces and at least one
        # gluing torus, so it is never covered by a torus bundle or by a
        # Seifert manifold and carries virtually positive Seifert volume.
        return FinitenessVerdict(
            "finite", "nontrivial-graph-manifold-virtually-positive-seifert-volume"
        )
    if desc.kind == KIND_TORUS_BUNDLE_COVERED:
        return FinitenessVerdict("infinite", "finitely-covered-by-torus-bundle")
    return FinitenessVerdict("finite", "positive-simplicial-volume")
