#!/usr/bin/env python3
"""Decorated graphs: validation, slope transport, framings, absolute Euler number.

Run as: python demos/02_graph_manifolds.py
"""

from gmanvol import (
    BundlePiece,
    Edge,
    GraphManifold,
    J,
    Slope,
    absolute_euler_number,
    canonical_framing,
    euler_number,
    filled_piece_invariants,
    is_pm_j_form,
    parse_graph,
    serialize_graph,
    transport_slope,
    validate,
)

print("Two genus-2 circle-bundle pieces glued along one torus by the swap J:")
double_j = GraphManifold(
    (BundlePiece("A", 2, 1), BundlePiece("B", 2, 1)),
    (Edge(("A", 0), ("B", 0), J),),
)
print("  violations:", validate(double_j) or "none")
print("  swap form:", is_pm_j_form(double_j))
print()

print("Coordinates of curves transport by the column action of the matrix.")
edge = double_j.edges[0]
fiber = Slope(0, 1)
print("  J carries the tail fiber", fiber, "to", transport_slope(edge, "tail_to_head", fiber))
print()

print("The canonical framing of a piece is the neighbor's fiber, seen from")
print("this side of each torus; filling along it closes the piece up:")
for pid in ("A", "B"):
    framing = canonical_framing(double_j, pid)
    filled = filled_piece_invariants(double_j, pid, framing)
    print(f"  piece {pid}: framing {framing[0]},",
          f"filled euler number {euler_number(filled)}")
print("  absolute euler number:", absolute_euler_number(double_j))
print()

print("A generic gluing changes the picture.  With the matrix [[1,1],[1,0]]")
generic = GraphManifold(
    (BundlePiece("A", 2, 1), BundlePiece("B", 2, 1)),
    (Edge(("A", 0), ("B", 0), ((1, 1), (1, 0))),),
)
print("  framing of A:", canonical_framing(generic, "A")[0])
print("  absolute euler number:", absolute_euler_number(generic))
print()

print("Graphs travel as canonical JSON; parsing a serialization is exact:")
data = serialize_graph(double_j)
print(" ", data.decode())
assert serialize_graph(parse_graph(data)) == data
print("  round-trip: byte-identical")
print()

print("Validation names each broken invariant:")
self_loop = GraphManifold(
    (BundlePiece("A", 2, 2),),
    (Edge(("A", 0), ("A", 1), J),),
)
for line in validate(self_loop):
    print("  -", line)
