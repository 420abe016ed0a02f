#!/usr/bin/env python3
"""When is the set of mapping degrees into a closed prime 3-manifold finite?

Run as: python demos/05_mapping_degrees.py
"""

from gmanvol import (
    BundlePiece,
    Edge,
    GeometryType,
    GraphManifold,
    J,
    SeifertInvariants,
    geometry_finiteness,
    geometry_type,
    mapping_degree_finiteness,
)
from gmanvol.classify import KIND_HYPERBOLIC, KIND_TORUS_BUNDLE_COVERED

print("A target admits maps of unboundedly many degrees exactly when it is")
print("finitely covered by a torus bundle, a trivial circle bundle, or the")
print("3-sphere.  For geometric Seifert targets this is a table:")
for geom in GeometryType:
    verdict = geometry_finiteness(geom)
    print(f"  {geom.value:<10} -> {verdict.verdict:<8} ({verdict.reason})")
print()

triangle = SeifertInvariants(0, ((2, 1), (3, 1), (7, 1)))
print("The (2,3,7) triangle manifold has geometry",
      geometry_type(triangle).value, "so:")
print(" ", mapping_degree_finiteness(triangle).to_document())
print()

double_j = GraphManifold(
    (BundlePiece("A", 2, 1), BundlePiece("B", 2, 1)),
    (Edge(("A", 0), ("B", 0), J),),
)
print("Every valid decorated graph is a non-trivial graph manifold, and a")
print("finite cover of it carries positive Seifert volume, so degrees into")
print("it form a finite set:")
print(" ", mapping_degree_finiteness(double_j).to_document())
print()

print("Callers assert the remaining cases as flags:")
for flag in (KIND_TORUS_BUNDLE_COVERED, KIND_HYPERBOLIC):
    print(f"  {flag:<42} ->", mapping_degree_finiteness(flag).to_document())
