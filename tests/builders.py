"""Deterministic graph builders and seeded random generators for the tests."""

from __future__ import annotations

import random

from gmanvol import BundlePiece, Edge, GraphManifold, J, MINUS_J


def two_piece_graph(matrices, genus_a=2, genus_b=2) -> GraphManifold:
    """Two pieces A and B joined by one parallel edge per matrix."""
    r = len(matrices)
    pieces = (BundlePiece("A", genus_a, r), BundlePiece("B", genus_b, r))
    edges = tuple(
        Edge(("A", i), ("B", i), matrix) for i, matrix in enumerate(matrices)
    )
    return GraphManifold(pieces, edges)


def cycle_graph(matrices, genera) -> GraphManifold:
    """A cycle of len(matrices) pieces, each with exactly two boundary slots."""
    n = len(matrices)
    assert n >= 2 and len(genera) == n
    pieces = tuple(BundlePiece(f"P{i}", genera[i], 2) for i in range(n))
    edges = tuple(
        Edge((f"P{i}", 1), (f"P{(i + 1) % n}", 0), matrices[i]) for i in range(n)
    )
    return GraphManifold(pieces, edges)


def random_gluing_matrix(rng: random.Random) -> tuple:
    """The rows of a determinant -1 integer matrix with nonzero upper-right entry."""
    while True:
        a = rng.randint(-3, 3)
        b = rng.choice([-3, -2, -1, 1, 2, 3])
        d = rng.randint(-3, 3)
        if (a * d + 1) % b == 0:
            return ((a, b), ((a * d + 1) // b, d))


def random_cycle_graph(rng: random.Random) -> GraphManifold:
    """A random valid cycle; every piece has boundary count exactly 2."""
    n = rng.randint(2, 5)
    matrices = [random_gluing_matrix(rng) for _ in range(n)]
    genera = [rng.randint(2, 5) for _ in range(n)]
    return cycle_graph(matrices, genera)


def random_valid_graph(rng: random.Random, style: str = "generic") -> GraphManifold:
    """A random connected valid graph with 2..5 pieces.

    style picks the gluing matrices: "generic" draws determinant -1
    matrices, "pmj" uses only the swap and its negative, "mixed" flips a
    coin per edge.
    """
    n = rng.randint(2, 5)
    genera = [rng.randint(2, 4) for _ in range(n)]
    incidence = [[] for _ in range(n)]

    def matrix() -> tuple:
        if style == "pmj" or (style == "mixed" and rng.random() < 0.5):
            return rng.choice([J, MINUS_J])
        return random_gluing_matrix(rng)

    links: list[tuple[int, int, tuple]] = []
    for i in range(1, n):
        links.append((rng.randrange(i), i, matrix()))
    for _ in range(rng.randint(0, 3)):
        i, j = rng.sample(range(n), 2)
        links.append((i, j, matrix()))

    edges = []
    for i, j, m in links:
        slot_i, slot_j = len(incidence[i]), len(incidence[j])
        incidence[i].append(None)
        incidence[j].append(None)
        edges.append(Edge((f"P{i}", slot_i), (f"P{j}", slot_j), m))
    pieces = tuple(
        BundlePiece(f"P{i}", genera[i], len(incidence[i])) for i in range(n)
    )
    return GraphManifold(pieces, tuple(edges))
