"""Finiteness of mapping-degree sets for closed prime 3-manifolds.

The decision needs only coarse information about the target, passed to
mapping_degree_finiteness in one of three forms: a SeifertInvariants for a
closed Seifert manifold, a valid GraphManifold, or one of the two
caller-asserted flag strings KIND_TORUS_BUNDLE_COVERED and
KIND_HYPERBOLIC.  The set of mapping degrees into the target is finite
exactly when the target carries a volume that maps cannot inflate:
positive Seifert volume (the sl2tilde geometry, or a non-trivial graph
manifold through a suitable finite cover) or positive simplicial volume (a
hyperbolic piece).  Targets finitely covered by a torus bundle, by a
trivial circle bundle or by the 3-sphere admit self-maps of arbitrarily
many degrees.

The classify document, decoded here, is a graph document, a Seifert
description {"kind": "seifert", "genus", "exceptional"} or {"kind": flag}.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParseError
from .graph import (
    GraphManifold,
    _expect_int,
    _expect_keys,
    _require_valid,
    _short_repr,
    graph_from_document,
)
from .seifert import GeometryType, SeifertInvariants, geometry_type

KIND_SEIFERT = "seifert"
KIND_TORUS_BUNDLE_COVERED = "torus-bundle-covered"
KIND_HYPERBOLIC = "hyperbolic-or-contains-hyperbolic-piece"

_SEIFERT_KEYS = frozenset(("kind", "genus", "exceptional"))
_FLAG_KEYS = frozenset(("kind",))


def _target_from_document(doc):
    """The target of a classify document, as mapping_degree_finiteness takes it."""
    if isinstance(doc, dict) and "pieces" in doc and "edges" in doc:
        return graph_from_document(doc)
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ParseError(
            'classify input must be a graph document or carry a "kind" field'
        )
    kind = doc["kind"]
    if kind == KIND_SEIFERT:
        try:
            inv = SeifertInvariants(
                genus=_expect_int(doc["genus"], "genus"),
                exceptional=tuple(
                    (_expect_int(a, "alpha"), _expect_int(b, "beta"))
                    for a, b in doc.get("exceptional", [])
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed Seifert description: {exc}") from exc
        _expect_keys(doc, _SEIFERT_KEYS, "Seifert description")
        return inv
    if kind in (KIND_TORUS_BUNDLE_COVERED, KIND_HYPERBOLIC):
        _expect_keys(doc, _FLAG_KEYS, f"{kind} description")
        return kind
    raise ParseError(f"unknown manifold kind {_short_repr(kind)}")


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


def mapping_degree_finiteness(target) -> FinitenessVerdict:
    """Decide finiteness of the set of mapping degrees into the target.

    The target is a SeifertInvariants, a GraphManifold, or one of the flag
    strings KIND_TORUS_BUNDLE_COVERED and KIND_HYPERBOLIC; anything else
    raises ValueError.
    """
    if isinstance(target, SeifertInvariants):
        return geometry_finiteness(geometry_type(target))
    if isinstance(target, GraphManifold):
        _require_valid(target)
        # A valid decorated graph has genus >= 2 pieces and at least one
        # gluing torus, so it is never covered by a torus bundle or by a
        # Seifert manifold and carries virtually positive Seifert volume.
        return FinitenessVerdict(
            "finite", "nontrivial-graph-manifold-virtually-positive-seifert-volume"
        )
    if target == KIND_TORUS_BUNDLE_COVERED:
        return FinitenessVerdict("infinite", "finitely-covered-by-torus-bundle")
    if target == KIND_HYPERBOLIC:
        return FinitenessVerdict("finite", "positive-simplicial-volume")
    raise ValueError(f"unknown target {_short_repr(target)}")
