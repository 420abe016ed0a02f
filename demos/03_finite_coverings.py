#!/usr/bin/env python3
"""Finite covers with checkable certificates.

Run as: python demos/03_finite_coverings.py
"""

from dataclasses import replace

from gmanvol import (
    BundlePiece,
    Edge,
    GraphManifold,
    J,
    Slope,
    characteristic_cover,
    genus_raising_cover,
    min_prime_for_ehn_cover,
    riemann_hurwitz_genus,
    verify_covering_certificate,
)

print("Surface covers first.  A degree-q cover with connected boundary")
print("preimages obeys 2(g_up - g) = (2g + p - 2)(q - 1):")
for q in (3, 5, 7):
    print(f"  (g=2, p=2) at q={q} ->", riemann_hurwitz_genus(2, 2, q, "q"))
print("and a cover trivial over the boundary obeys g_up = 1 + q(g - 1):")
print("  (g=2, p=1) at q=3 ->", riemann_hurwitz_genus(2, 1, 3, "1"))
print()

two_torus = GraphManifold(
    (BundlePiece("A", 2, 2), BundlePiece("B", 2, 2)),
    (Edge(("A", 0), ("B", 0), J), Edge(("A", 1), ("B", 1), J)),
)
print("Characteristic cover of the two-torus swap graph at q = 3:")
cov = characteristic_cover(two_torus, 3)
for piece in cov.manifold.pieces:
    print(f"  piece {piece.id}: genus {piece.genus}, boundary {piece.boundary}")
print("  total degree:", cov.certificate.total_degree)
print("  certificate verifies:", verify_covering_certificate(cov, two_torus) == [])
print()

print("Tamper with a recorded genus and verification catches it:")
record = cov.certificate.per_piece["A"]
bad_records = dict(cov.certificate.per_piece)
bad_records["A"] = record._replace(genus_up=record.genus_up + 1)
tampered = replace(cov, certificate=replace(cov.certificate, per_piece=bad_records))
for line in verify_covering_certificate(tampered, two_torus):
    print("  -", line)
print()

chain = GraphManifold(
    (BundlePiece("A", 2, 1), BundlePiece("B", 2, 2), BundlePiece("C", 2, 1)),
    (Edge(("A", 0), ("B", 0), J), Edge(("B", 1), ("C", 0), J)),
)
print("Genus-raising cover of the chain A - B - C around center B at q = 2:")
raised = genus_raising_cover(chain, "B", 2)
for piece in raised.manifold.pieces:
    print(f"  piece {piece.id}: genus {piece.genus}, boundary {piece.boundary}")
print("  edges:", len(raised.manifold.edges),
      " verifies:", verify_covering_certificate(raised, chain) == [])
print()

print("Why covers matter downstream: a filled piece whose foliation test")
print("fails can be covered until it passes.  Filling both slots of A with")
print("slope (1, 5) fails at genus 2; the search returns the first prime")
print("whose characteristic cover fixes it:")
q = min_prime_for_ehn_cover(two_torus, "A", [Slope(1, 5), Slope(1, 5)])
print("  required prime:", q)
print("  covered genus:", riemann_hurwitz_genus(2, 2, q, "q")[0])
