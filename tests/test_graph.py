import json
import math
import random

import pytest

from gmanvol import (
    BundlePiece,
    Edge,
    GluingMatrix,
    GraphManifold,
    J,
    MINUS_J,
    ParseError,
    Slope,
    ValidationError,
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
from builders import random_gluing_matrix, random_valid_graph, two_piece_graph

M1110 = GluingMatrix.of(1, 1, 1, 0)


def primitive_slopes(rng: random.Random, count: int) -> list[Slope]:
    slopes = []
    while len(slopes) < count:
        a, b = rng.randint(-20, 20), rng.randint(-20, 20)
        if (a, b) != (0, 0) and math.gcd(abs(a), abs(b)) == 1:
            slopes.append(Slope.canonical(a, b))
    return slopes


class TestSlope:
    def test_canonicalization(self):
        assert Slope.canonical(-1, 1) == Slope(1, -1)
        assert Slope.canonical(0, -1) == Slope(0, 1)

    def test_rejects_non_primitive(self):
        with pytest.raises(ValueError):
            Slope(2, 4)
        with pytest.raises(ValueError):
            Slope(0, 0)

    def test_rejects_non_canonical_sign(self):
        with pytest.raises(ValueError):
            Slope(-1, 2)


class TestGluingMatrix:
    def test_inverse_of_det_minus_one(self):
        assert M1110.inverse().rows == ((0, 1), (1, -1))
        assert J.inverse() == J

    def test_inverse_roundtrip(self):
        rng = random.Random(7)
        for _ in range(50):
            m = random_gluing_matrix(rng)
            inv = m.inverse()
            x, y = rng.randint(-9, 9), rng.randint(-9, 9)
            assert inv.apply(*m.apply(x, y)) == (x, y)

    def test_pm_j_detection(self):
        assert J.is_pm_j and MINUS_J.is_pm_j
        assert not M1110.is_pm_j


class TestTransport:
    def test_swap_sends_fiber_to_section(self):
        edge = Edge(("A", 0), ("B", 0), J)
        assert transport_slope(edge, "tail_to_head", Slope(0, 1)) == Slope(1, 0)

    def test_forward_1110(self):
        edge = Edge(("A", 0), ("B", 0), M1110)
        assert transport_slope(edge, "tail_to_head", Slope(0, 1)) == Slope(1, 0)

    def test_backward_1110(self):
        edge = Edge(("A", 0), ("B", 0), M1110)
        assert transport_slope(edge, "head_to_tail", Slope(0, 1)) == Slope(1, -1)

    def test_round_trip_many_slopes(self):
        rng = random.Random(11)
        edges = [
            Edge(("A", 0), ("B", 0), random_gluing_matrix(rng)) for _ in range(10)
        ]
        for slope in primitive_slopes(rng, 100):
            for edge in edges:
                there = transport_slope(edge, "tail_to_head", slope)
                back = transport_slope(edge, "head_to_tail", there)
                assert back == slope

    def test_unknown_direction(self):
        edge = Edge(("A", 0), ("B", 0), J)
        with pytest.raises(ValueError):
            transport_slope(edge, "sideways", Slope(1, 0))


class TestValidate:
    def test_valid_two_piece(self):
        assert validate(two_piece_graph([J])) == []

    def test_self_loop(self):
        gm = GraphManifold(
            (BundlePiece("A", 2, 2),),
            (Edge(("A", 0), ("A", 1), J),),
        )
        assert any("joins a piece to itself" in v for v in validate(gm))

    def test_low_genus(self):
        gm = two_piece_graph([J], genus_a=1)
        assert any("genus below 2" in v for v in validate(gm))

    def test_wrong_determinant(self):
        gm = two_piece_graph([GluingMatrix.of(1, 1, 0, 1)])
        assert any("determinant" in v for v in validate(gm))

    def test_fiber_to_fiber(self):
        gm = two_piece_graph([GluingMatrix.of(1, 0, 0, -1)])
        assert any("minimality" in v for v in validate(gm))

    def test_slot_misuse(self):
        gm = GraphManifold(
            (BundlePiece("A", 2, 2), BundlePiece("B", 2, 1)),
            (Edge(("A", 0), ("B", 0), J),),
        )
        assert any("used by 0 edge endpoints" in v for v in validate(gm))

    def test_disconnected(self):
        gm = GraphManifold(
            (
                BundlePiece("A", 2, 1),
                BundlePiece("B", 2, 1),
                BundlePiece("C", 2, 1),
                BundlePiece("D", 2, 1),
            ),
            (Edge(("A", 0), ("B", 0), J), Edge(("C", 0), ("D", 0), J)),
        )
        assert "graph is not connected" in validate(gm)

    def test_no_edges(self):
        gm = GraphManifold((BundlePiece("A", 2, 1),), ())
        assert any("no edges" in v for v in validate(gm))

    def test_random_graphs_are_valid(self):
        rng = random.Random(23)
        for i in range(25):
            gm = random_valid_graph(rng, style=("generic", "pmj", "mixed")[i % 3])
            assert validate(gm) == []


def _scan_piece(gm, piece_id):
    """Reference lookup: the first piece with the id, by a plain scan."""
    for piece in gm.pieces:
        if piece.id == piece_id:
            return piece
    raise KeyError(f"no piece with id {piece_id!r}")


def _scan_adjacent(gm, piece_id):
    """Reference neighbor lookup by a plain scan over every edge."""
    seen = set()
    for edge in gm.edges:
        if edge.tail[0] == piece_id:
            seen.add(edge.head[0])
        elif edge.head[0] == piece_id:
            seen.add(edge.tail[0])
    return tuple(sorted(seen))


def _scan_framing(gm, piece_id):
    """Reference framing: per slot, the last edge in canonical order wins."""
    framing = []
    for slot in range(_scan_piece(gm, piece_id).boundary):
        found = None
        for edge in gm.edges:
            if edge.tail == (piece_id, slot):
                found = transport_slope(edge, "head_to_tail", Slope(0, 1))
            if edge.head == (piece_id, slot):
                found = transport_slope(edge, "tail_to_head", Slope(0, 1))
        framing.append(found)
    return framing


def _corrupted(gm, rng):
    """gm with a duplicated piece, a self-loop or a reused slot added."""
    pieces, edges = list(gm.pieces), list(gm.edges)
    victim = rng.choice(pieces)
    kind = rng.choice(("duplicate", "self-loop", "reuse"))
    if kind == "duplicate":
        pieces.append(BundlePiece(victim.id, victim.genus + 1, victim.boundary + 1))
    elif kind == "self-loop":
        edges.append(Edge((victim.id, 0), (victim.id, victim.boundary - 1), J))
    else:
        other = rng.choice(pieces)
        edges.append(Edge((victim.id, 0), (other.id, 0), random_gluing_matrix(rng)))
    return GraphManifold(tuple(pieces), tuple(edges))


class TestLookups:
    def test_piece_returns_first_of_a_duplicated_id(self):
        first, second = BundlePiece("A", 2, 1), BundlePiece("A", 3, 2)
        gm = GraphManifold((first, BundlePiece("B", 2, 1), second), ())
        assert gm.piece("A") is first
        swapped = GraphManifold((second, first), ())
        assert swapped.piece("A") is second

    def test_unknown_piece_key_error_text(self):
        gm = two_piece_graph([J])
        with pytest.raises(KeyError) as excinfo:
            gm.piece("Z")
        assert excinfo.value.args == ("no piece with id 'Z'",)

    def test_adjacent_pieces_with_self_loop(self):
        gm = GraphManifold(
            (BundlePiece("B", 2, 3), BundlePiece("A", 2, 1)),
            (Edge(("B", 0), ("B", 1), J), Edge(("B", 2), ("A", 0), J)),
        )
        assert gm.adjacent_pieces("B") == ("A", "B")
        assert gm.adjacent_pieces("A") == ("B",)
        assert gm.adjacent_pieces("Z") == ()

    def test_adjacent_pieces_sorted_without_repeats(self):
        gm = GraphManifold(
            (BundlePiece("C", 2, 1), BundlePiece("B", 2, 2), BundlePiece("A", 2, 3)),
            (
                Edge(("A", 2), ("C", 0), J),
                Edge(("B", 0), ("A", 0), J),
                Edge(("A", 1), ("B", 1), M1110),
            ),
        )
        assert gm.adjacent_pieces("A") == ("B", "C")

    def test_framing_of_unused_slot_raises(self):
        gm = GraphManifold(
            (BundlePiece("A", 2, 2), BundlePiece("B", 2, 1)),
            (Edge(("A", 0), ("B", 0), M1110),),
        )
        with pytest.raises(ValidationError) as excinfo:
            canonical_framing(gm, "A")
        assert excinfo.value.violations == [
            "slot 'A'[1] used by 0 edge endpoints, expected exactly 1"
        ]

    def test_doubly_used_slot_last_edge_wins(self):
        # In canonical order J sorts before M1110, so M1110 is the last edge
        # on slot A[0] whichever order the edges are given in.
        for edges in (
            (Edge(("A", 0), ("B", 0), J), Edge(("A", 0), ("B", 0), M1110)),
            (Edge(("A", 0), ("B", 0), M1110), Edge(("A", 0), ("B", 0), J)),
        ):
            gm = GraphManifold((BundlePiece("A", 2, 1), BundlePiece("B", 2, 1)), edges)
            assert canonical_framing(gm, "A") == [Slope(1, -1)]

    def test_index_is_not_part_of_equality_hash_or_repr(self):
        gm, fresh = two_piece_graph([J, M1110]), two_piece_graph([J, M1110])
        canonical_framing(gm, "A")
        assert gm == fresh and hash(gm) == hash(fresh) and repr(gm) == repr(fresh)
        assert "_incidence" not in repr(gm)

    def test_lookups_match_plain_scans(self):
        rng = random.Random(59)
        for i in range(60):
            gm = random_valid_graph(rng, style=("generic", "pmj", "mixed")[i % 3])
            if i % 2:
                gm = _corrupted(gm, rng)
            for piece in gm.pieces:
                assert gm.piece(piece.id) is _scan_piece(gm, piece.id)
                assert gm.adjacent_pieces(piece.id) == _scan_adjacent(gm, piece.id)
                expected = _scan_framing(gm, piece.id)
                if None in expected:
                    with pytest.raises(ValidationError):
                        canonical_framing(gm, piece.id)
                else:
                    assert canonical_framing(gm, piece.id) == expected


class TestParseSerialize:
    def test_minimal_document(self):
        doc = {
            "pieces": [
                {"id": "A", "genus": 2, "boundary": 1},
                {"id": "B", "genus": 2, "boundary": 1},
            ],
            "edges": [
                {"tail": ["A", 0], "head": ["B", 0], "matrix": [[0, 1], [1, 0]]}
            ],
        }
        gm = parse_graph(json.dumps(doc))
        assert len(gm.pieces) == 2 and len(gm.edges) == 1

    def test_corpus_round_trip(self, corpus_paths):
        for path in corpus_paths:
            data = path.read_bytes()
            assert serialize_graph(parse_graph(data)) == data

    def test_determinant_rejected(self):
        doc = {
            "pieces": [
                {"id": "A", "genus": 2, "boundary": 1},
                {"id": "B", "genus": 2, "boundary": 1},
            ],
            "edges": [
                {"tail": ["A", 0], "head": ["B", 0], "matrix": [[1, 1], [0, 1]]}
            ],
        }
        with pytest.raises(ValidationError, match="determinant"):
            parse_graph(json.dumps(doc))

    def test_minimality_rejected(self):
        doc = {
            "pieces": [
                {"id": "A", "genus": 2, "boundary": 1},
                {"id": "B", "genus": 2, "boundary": 1},
            ],
            "edges": [
                {"tail": ["A", 0], "head": ["B", 0], "matrix": [[1, 0], [0, -1]]}
            ],
        }
        with pytest.raises(ValidationError, match="minimality"):
            parse_graph(json.dumps(doc))

    def test_malformed_json(self):
        with pytest.raises(ParseError):
            parse_graph(b"{not json")

    def test_malformed_shape(self):
        with pytest.raises(ParseError):
            parse_graph(json.dumps({"pieces": [], "edges": [], "extra": 1}))
        with pytest.raises(ParseError):
            parse_graph(json.dumps({"pieces": [{"id": "A"}], "edges": []}))

    def test_stable_edge_ordering(self):
        gm = two_piece_graph([M1110, J])
        first = serialize_graph(gm)
        again = serialize_graph(parse_graph(first))
        assert first == again


class TestCanonicalFraming:
    def test_swap_graph(self):
        gm = two_piece_graph([J])
        assert canonical_framing(gm, "A") == [Slope(1, 0)]
        assert canonical_framing(gm, "B") == [Slope(1, 0)]

    def test_generic_edge(self):
        gm = two_piece_graph([M1110])
        assert canonical_framing(gm, "B") == [Slope(1, 0)]
        assert canonical_framing(gm, "A") == [Slope(1, -1)]

    def test_first_coordinate_never_zero(self):
        rng = random.Random(31)
        for i in range(20):
            gm = random_valid_graph(rng, style=("generic", "mixed")[i % 2])
            for piece in gm.pieces:
                for slope in canonical_framing(gm, piece.id):
                    assert slope.a != 0


class TestFilledInvariants:
    def test_swap_graph_filling(self):
        gm = two_piece_graph([J])
        inv = filled_piece_invariants(gm, "A", canonical_framing(gm, "A"))
        assert inv.genus == 2 and inv.exceptional == ((1, 0),)
        assert euler_number(inv) == 0

    def test_generic_edge_filling(self):
        gm = two_piece_graph([M1110])
        inv = filled_piece_invariants(gm, "A", canonical_framing(gm, "A"))
        assert euler_number(inv) == -1

    def test_double_negative_filling(self):
        gm = two_piece_graph([M1110, M1110], genus_a=3, genus_b=3)
        inv = filled_piece_invariants(gm, "A", canonical_framing(gm, "A"))
        assert euler_number(inv) == -2

    def test_wrong_slope_count(self):
        gm = two_piece_graph([J])
        with pytest.raises(ValueError):
            filled_piece_invariants(gm, "A", [])


class TestAbsoluteEulerNumber:
    def test_swap_graph(self):
        assert absolute_euler_number(two_piece_graph([J])) == 0

    def test_generic_edge(self):
        assert absolute_euler_number(two_piece_graph([M1110])) == 1

    def test_parallel_swaps(self):
        assert absolute_euler_number(two_piece_graph([J, J])) == 0

    def test_edge_reversal_invariance(self):
        rng = random.Random(43)
        for i in range(20):
            gm = random_valid_graph(rng, style=("generic", "mixed")[i % 2])
            base = absolute_euler_number(gm)
            k = rng.randrange(len(gm.edges))
            edges = list(gm.edges)
            edge = edges[k]
            edges[k] = Edge(edge.head, edge.tail, edge.matrix.inverse())
            reversed_gm = GraphManifold(gm.pieces, tuple(edges))
            assert validate(reversed_gm) == []
            assert absolute_euler_number(reversed_gm) == base

    def test_relabeling_invariance(self):
        rng = random.Random(47)
        for _ in range(10):
            gm = random_valid_graph(rng, style="generic")
            names = {p.id: f"Q{idx}" for idx, p in enumerate(reversed(gm.pieces))}
            # Reverse each piece's slot order as the consistent permutation.
            bound = {p.id: p.boundary for p in gm.pieces}

            def relabel(end):
                pid, slot = end
                return (names[pid], bound[pid] - 1 - slot)

            relabeled = GraphManifold(
                tuple(
                    BundlePiece(names[p.id], p.genus, p.boundary) for p in gm.pieces
                ),
                tuple(
                    Edge(relabel(e.tail), relabel(e.head), e.matrix)
                    for e in gm.edges
                ),
            )
            assert validate(relabeled) == []
            assert absolute_euler_number(relabeled) == absolute_euler_number(gm)


class TestPmJForm:
    def test_swap_graph(self):
        assert is_pm_j_form(two_piece_graph([J])) is True

    def test_generic_edge(self):
        assert is_pm_j_form(two_piece_graph([M1110])) is False

    def test_mixed_signs(self):
        assert is_pm_j_form(two_piece_graph([J, MINUS_J])) is True
