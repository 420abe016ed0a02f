import copy
import json
import math
import random
from fractions import Fraction

import pytest

from gmanvol import (
    BundlePiece,
    Edge,
    GraphManifold,
    J,
    MINUS_J,
    ParseError,
    PieceCoverRecord,
    Slope,
    ValidationError,
    absolute_euler_number,
    canonical_framing,
    euler_number,
    fill_framed_piece,
    filled_piece_invariants,
    graph_from_document,
    graph_to_document,
    is_pm_j_form,
    orbifold_euler_char,
    parse_graph,
    serialize_graph,
    transport_slope,
    validate,
)
from gmanvol.graph import _filled_piece_table, _is_connected
from builders import random_gluing_matrix, random_valid_graph, two_piece_graph

M1110 = ((1, 1), (1, 0))


def primitive_slopes(rng: random.Random, count: int) -> list[Slope]:
    slopes = []
    while len(slopes) < count:
        a, b = rng.randint(-20, 20), rng.randint(-20, 20)
        if (a, b) != (0, 0) and math.gcd(abs(a), abs(b)) == 1:
            slopes.append(Slope.canonical(a, b))
    return slopes


def inverse(matrix):
    """The inverse of a determinant -1 matrix, as its rows."""
    (a, b), (c, d) = matrix
    return ((-d, b), (c, -a))


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
        # The inverse of M1110 is [[0, 1], [1, -1]], and J is its own inverse.
        assert transport_slope(edge, "head_to_tail", Slope(1, 0)) == Slope(0, 1)
        assert transport_slope(edge, "head_to_tail", Slope(1, 1)) == Slope(1, 0)
        swap = Edge(("A", 0), ("B", 0), J)
        assert transport_slope(swap, "head_to_tail", Slope(1, 2)) == Slope(2, 1)

    def test_round_trip_many_slopes(self):
        rng = random.Random(11)
        # Seeded determinant -1 matrices and one of determinant +1.
        matrices = [random_gluing_matrix(rng) for _ in range(10)] + [((2, 1), (1, 1))]
        edges = [Edge(("A", 0), ("B", 0), matrix) for matrix in matrices]
        for slope in primitive_slopes(rng, 100):
            for edge in edges:
                there = transport_slope(edge, "tail_to_head", slope)
                assert transport_slope(edge, "head_to_tail", there) == slope
                back = transport_slope(edge, "head_to_tail", slope)
                assert transport_slope(edge, "tail_to_head", back) == slope

    def test_not_invertible_over_z(self):
        edge = Edge(("A", 0), ("B", 0), ((1, 1), (-1, 1)))
        with pytest.raises(ValueError) as excinfo:
            transport_slope(edge, "head_to_tail", Slope(0, 1))
        assert str(excinfo.value) == "matrix with determinant 2 is not invertible over Z"

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
        gm = two_piece_graph([((1, 1), (0, 1))])
        assert any("determinant" in v for v in validate(gm))

    def test_fiber_to_fiber(self):
        gm = two_piece_graph([((1, 0), (0, -1))])
        assert any("minimality" in v for v in validate(gm))

    def test_slot_misuse(self):
        gm = GraphManifold(
            (BundlePiece("A", 2, 2), BundlePiece("B", 2, 1)),
            (Edge(("A", 0), ("B", 0), J),),
        )
        assert any("used by 0 edge endpoints" in v for v in validate(gm))

    def test_unused_slots_listed_within_budget(self):
        # Budget 2 * 2 edges + 2 pieces = 6 listed unused slots; past it each
        # piece gets one count line, and an overused slot keeps its line.
        gm = GraphManifold(
            (BundlePiece("A", 2, 10), BundlePiece("B", 2, 2)),
            (Edge(("A", 0), ("B", 0), J), Edge(("A", 3), ("B", 0), J)),
        )
        unused = "used by 0 edge endpoints, expected exactly 1"
        assert validate(gm) == [
            *(f"slot 'A'[{slot}] {unused}" for slot in (1, 2, 4, 5, 6, 7)),
            f"piece 'A': 2 more slots {unused}",
            "slot 'B'[0] used by 2 edge endpoints, expected exactly 1",
            f"piece 'B': 1 more slots {unused}",
        ]

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

    def test_deep_nesting(self):
        with pytest.raises(ParseError, match="^document is nested too deeply: "):
            parse_graph("[" * 100_000)

    def test_integer_beyond_digit_limit(self):
        data = '{"pieces": [{"id": "A", "genus": ' + "9" * 5000 + ', "boundary": 1}]}'
        with pytest.raises(
            ParseError, match="^document has an integer that is too long: "
        ):
            parse_graph(data)

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
            edges[k] = Edge(edge.head, edge.tail, inverse(edge.matrix))
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


    @pytest.mark.parametrize(
        "b_boundary, edges",
        [
            (1, [("A", 0, "B", 0, [[0, 1], [1, 0]]), ("C", 0, "D", 0, [[0, 1], [1, 0]])]),
            (1, [("A", 0, "B", 0, [[1, 0], [0, -1]])]),
            (2, [("A", 0, "B", 0, [[1, 1], [1, 0]])]),
            (1, [("A", 0, "B", 5, [[1, 1], [1, 0]])]),
        ],
        ids=["unknown-piece", "fiber-to-fiber", "unused-slot", "slot-out-of-range"],
    )
    def test_invalid_graph_raises(self, b_boundary, edges):
        gm = graph_from_document(
            {
                "pieces": [
                    {"id": "A", "genus": 2, "boundary": 1},
                    {"id": "B", "genus": 2, "boundary": b_boundary},
                ],
                "edges": [
                    {"tail": [tail, i], "head": [head, j], "matrix": matrix}
                    for tail, i, head, j, matrix in edges
                ],
            }
        )
        with pytest.raises(ValidationError):
            absolute_euler_number(gm)


class TestFilledPieceTable:
    """The table's closed form agrees with transporting each neighbor's fiber."""

    @staticmethod
    def check(gm):
        reference = {piece.id: [None] * piece.boundary for piece in gm.pieces}
        for edge in gm.edges:
            fiber = Slope(0, 1)
            reference[edge.head[0]][edge.head[1]] = transport_slope(edge, "tail_to_head", fiber)
            reference[edge.tail[0]][edge.tail[1]] = transport_slope(edge, "head_to_tail", fiber)
        table = _filled_piece_table(gm)
        assert list(table) == [piece.id for piece in gm.pieces]
        for piece in gm.pieces:
            framing, euler, chi, den = table[piece.id]
            slopes = reference[piece.id]
            assert framing == tuple((slope.a, slope.b) for slope in slopes)
            assert canonical_framing(gm, piece.id) == slopes
            assert den == math.prod(alpha for alpha, _ in framing)
            filled = fill_framed_piece(piece.genus, slopes)
            assert Fraction(euler, den) == euler_number(filled)
            assert Fraction(chi, den) == orbifold_euler_char(filled)

    def test_seeded_graphs(self):
        for style in ("generic", "mixed", "pmj"):
            for seed in range(300):
                self.check(random_valid_graph(random.Random(seed), style=style))

    def test_corpus(self, corpus_paths):
        for path in corpus_paths:
            self.check(parse_graph(path.read_bytes()))


class TestPmJForm:
    def test_swap_graph(self):
        assert is_pm_j_form(two_piece_graph([J])) is True

    def test_generic_edge(self):
        assert is_pm_j_form(two_piece_graph([M1110])) is False

    def test_mixed_signs(self):
        assert is_pm_j_form(two_piece_graph([J, MINUS_J])) is True


# The decoder and validate before the one-pass rewrite, copied verbatim
# (names prefixed with ref_), as references for the rewrite.


def ref_graph_from_document(doc) -> GraphManifold:
    """Build a GraphManifold from a parsed JSON document without validating it."""
    if not isinstance(doc, dict):
        raise ParseError("document root must be an object")
    allowed = {"pieces", "edges", "certificate", "torus_map"}
    unknown = set(doc) - allowed
    if unknown:
        raise ParseError(f"unexpected keys in document: {ref_short_repr(sorted(unknown))}")
    if "pieces" not in doc or "edges" not in doc:
        raise ParseError('document must contain "pieces" and "edges"')

    pieces = []
    for raw in ref_expect_list(doc["pieces"], "pieces"):
        if not isinstance(raw, dict) or set(raw) != {"id", "genus", "boundary"}:
            raise ParseError(f"malformed piece entry: {ref_short_repr(raw)}")
        if not isinstance(raw["id"], str):
            raise ParseError(f"piece id must be a string: {ref_short_repr(raw['id'])}")
        pieces.append(
            BundlePiece(
                id=ref_expect_encodable(raw["id"]),
                genus=ref_expect_int(raw["genus"], "genus"),
                boundary=ref_expect_int(raw["boundary"], "boundary"),
            )
        )

    edges = []
    for raw in ref_expect_list(doc["edges"], "edges"):
        if not isinstance(raw, dict) or set(raw) != {"tail", "head", "matrix"}:
            raise ParseError(f"malformed edge entry: {ref_short_repr(raw)}")
        edges.append(
            Edge(
                tail=ref_expect_end(raw["tail"]),
                head=ref_expect_end(raw["head"]),
                matrix=ref_expect_matrix(raw["matrix"]),
            )
        )
    return GraphManifold(tuple(pieces), tuple(edges))


def ref_short_repr(value) -> str:
    text = repr(value)
    if len(text) <= 80:
        return text
    return text[: 80 - 3] + "..."


def ref_expect_list(value, name: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f'"{name}" must be a list')
    return value


def ref_expect_int(value, name: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f'"{name}" must be an integer, got {ref_short_repr(value)}')
    return value


def ref_expect_end(value) -> tuple[str, int]:
    if (
        not isinstance(value, list)
        or len(value) != 2
        or not isinstance(value[0], str)
    ):
        raise ParseError(f"malformed edge endpoint: {ref_short_repr(value)}")
    return (ref_expect_encodable(value[0]), ref_expect_int(value[1], "slot"))


def ref_expect_encodable(piece_id: str) -> str:
    # A lone surrogate decodes from JSON but cannot be written back as UTF-8.
    try:
        piece_id.encode("utf-8")
    except UnicodeEncodeError:
        raise ParseError(
            f"piece id {ref_short_repr(piece_id)} cannot be encoded as UTF-8"
        ) from None
    return piece_id


def ref_expect_matrix(value) -> tuple:
    if (
        not isinstance(value, list)
        or len(value) != 2
        or any(not isinstance(row, list) or len(row) != 2 for row in value)
    ):
        raise ParseError(f"malformed gluing matrix: {ref_short_repr(value)}")
    (a, b), (c, d) = value
    return (
        (ref_expect_int(a, "matrix entry"), ref_expect_int(b, "matrix entry")),
        (ref_expect_int(c, "matrix entry"), ref_expect_int(d, "matrix entry")),
    )


def ref_validate(gm: GraphManifold) -> list[str]:
    """Check every structural invariant; return the violations (empty if valid)."""
    violations: list[str] = []
    seen_ids: set[str] = set()
    for piece in gm.pieces:
        if piece.id in seen_ids:
            violations.append(f"duplicate piece id {piece.id!r}")
        seen_ids.add(piece.id)
        if piece.genus < 2:
            violations.append(f"piece {piece.id!r}: genus below 2")
        if piece.boundary < 1:
            violations.append(f"piece {piece.id!r}: boundary count below 1")

    by_id = {p.id: p for p in gm.pieces}
    usage: dict[tuple[str, int], int] = {}
    for index, edge in enumerate(gm.edges):
        for side, (pid, slot) in (("tail", edge.tail), ("head", edge.head)):
            if pid not in by_id:
                violations.append(f"edge {index}: unknown piece id {pid!r} on {side}")
            elif not 0 <= slot < by_id[pid].boundary:
                violations.append(
                    f"edge {index}: slot {slot} out of range for piece {pid!r}"
                )
            usage[(pid, slot)] = usage.get((pid, slot), 0) + 1
        if edge.tail[0] == edge.head[0]:
            violations.append(f"edge {index}: edge joins a piece to itself")
        (a, b), (c, d) = edge.matrix
        det = a * d - b * c
        if det != -1:
            violations.append(
                f"edge {index}: determinant of gluing matrix is {det}, not -1"
            )
        if b == 0:
            violations.append(
                f"edge {index}: minimality violated, the fiber maps to a fiber "
                "(upper-right entry is 0)"
            )

    for piece in gm.pieces:
        for slot in range(piece.boundary):
            count = usage.get((piece.id, slot), 0)
            if count != 1:
                violations.append(
                    f"slot {piece.id!r}[{slot}] used by {count} edge endpoints, "
                    "expected exactly 1"
                )

    if not gm.edges:
        violations.append("graph has no edges")
    elif not violations and not _is_connected(gm):
        # Connectivity is only meaningful once the incidence data is sane.
        violations.append("graph is not connected")
    return violations


class SubInt(int):
    """An int subclass: accepted by the decoder and kept as given."""


BAD_INTEGERS = (True, False, 1.5, 2.0, "1", None, [1])


def decode_outcome(decode, doc):
    """The decoded graph, or the text of the ParseError the document raises."""
    try:
        return decode(doc)
    except ParseError as exc:
        return ("ParseError", str(exc))


def relabeled_document(doc, names):
    """doc with piece i's id replaced by names[i], endpoints included."""
    rename = {piece["id"]: names[i] for i, piece in enumerate(doc["pieces"])}
    out = copy.deepcopy(doc)
    for piece in out["pieces"]:
        piece["id"] = rename[piece["id"]]
    for edge in out["edges"]:
        edge["tail"][0] = rename[edge["tail"][0]]
        edge["head"][0] = rename[edge["head"][0]]
    return out


def document_corruptions(doc, rng):
    """Copies of a graph document, each with one field made wrong."""
    p = rng.randrange(len(doc["pieces"]))
    e = rng.randrange(len(doc["edges"]))
    edits = []
    for bad in BAD_INTEGERS + (SubInt(3),):
        for field in ("genus", "boundary"):
            edits.append(lambda d, f=field, v=bad: d["pieces"][p].__setitem__(f, v))
        for end in ("tail", "head"):
            edits.append(lambda d, k=end, v=bad: d["edges"][e][k].__setitem__(1, v))
        for row in (0, 1):
            for col in (0, 1):
                edits.append(
                    lambda d, r=row, c=col, v=bad: d["edges"][e]["matrix"][r].__setitem__(c, v)
                )
        edits.append(lambda d, v=bad: d["pieces"][p].__setitem__("id", v))
        edits.append(lambda d, v=bad: d["edges"][e]["tail"].__setitem__(0, v))
    for not_list in ({}, "P0", ("P0", 0), 7):
        edits += [
            lambda d, v=not_list: d.__setitem__("pieces", v),
            lambda d, v=not_list: d.__setitem__("edges", v),
            lambda d, v=not_list: d["pieces"].__setitem__(p, v),
            lambda d, v=not_list: d["edges"].__setitem__(e, v),
            lambda d, v=not_list: d["edges"][e].__setitem__("tail", v),
            lambda d, v=not_list: d["edges"][e].__setitem__("head", v),
            lambda d, v=not_list: d["edges"][e].__setitem__("matrix", v),
            lambda d, v=not_list: d["edges"][e]["matrix"].__setitem__(1, v),
        ]
    for key in ("id", "genus", "boundary"):
        edits.append(lambda d, k=key: d["pieces"][p].pop(k))
    for key in ("tail", "head", "matrix"):
        edits.append(lambda d, k=key: d["edges"][e].pop(k))
    edits += [
        lambda d: d.pop("pieces"),
        lambda d: d.pop("edges"),
        lambda d: d.__setitem__("extra", 1),
        lambda d: d.__setitem__("certificate", {}),
        lambda d: d["pieces"][p].__setitem__("extra", 1),
        lambda d: d["edges"][e].__setitem__("extra", 1),
        lambda d: d["edges"][e]["tail"].append(0),
        lambda d: d["edges"][e]["head"].pop(),
        lambda d: d["edges"][e]["matrix"][0].append(0),
        lambda d: d["edges"][e]["matrix"][1].append(0),
        lambda d: d["edges"][e]["matrix"].append([0, 1]),
        lambda d: d["pieces"][p].__setitem__("id", "P\ud800"),
        lambda d: d["pieces"][p].__setitem__("id", "café 中"),
        lambda d: d["edges"][e]["tail"].__setitem__(0, "\udfff"),
        lambda d: d["edges"][e]["head"].__setitem__(0, "é"),
    ]
    for edit in edits:
        bad = copy.deepcopy(doc)
        edit(bad)
        yield bad


def broken_graph(gm, rng):
    """gm with one structural fault that validate must report."""
    pieces, edges = list(gm.pieces), list(gm.edges)
    i = rng.randrange(len(edges))
    edge = edges[i]
    victim = rng.randrange(len(pieces))
    piece = pieces[victim]
    kind = rng.choice(
        ("drop-edge", "det", "fiber", "genus", "boundary", "unknown", "range", "move", "lonely")
    )
    if kind == "drop-edge":
        del edges[i]
    elif kind == "det":
        edges[i] = Edge(edge.tail, edge.head, ((1, 1), (0, 1)))
    elif kind == "fiber":
        edges[i] = Edge(edge.tail, edge.head, ((1, 0), (0, -1)))
    elif kind == "genus":
        pieces[victim] = BundlePiece(piece.id, rng.choice((-1, 0, 1)), piece.boundary)
    elif kind == "boundary":
        pieces[victim] = BundlePiece(piece.id, piece.genus, rng.choice((-1, 0)))
    elif kind == "unknown":
        edges[i] = Edge(("Z", 0), edge.head, edge.matrix)
    elif kind == "range":
        edges[i] = Edge(edge.tail, (edge.head[0], rng.choice((-1, 99))), edge.matrix)
    elif kind == "move":
        # Onto another slot of the same piece: one slot doubly used, one free.
        other = rng.choice([e.tail for e in edges if e.tail != edge.tail] or [edge.head])
        edges[i] = Edge(other, edge.head, edge.matrix)
    else:
        # A piece with a slot nobody uses, or a second component.
        pieces.append(BundlePiece("Q", 2, 1))
        if rng.random() < 0.5:
            pieces.append(BundlePiece("R", 2, 1))
            edges.append(Edge(("Q", 0), ("R", 0), J))
    return GraphManifold(tuple(pieces), tuple(edges))


class TestOnePassDecoder:
    """graph_from_document and validate against the copies above."""

    def documents(self, seed, count=30):
        rng = random.Random(seed)
        for i in range(count):
            doc = graph_to_document(
                random_valid_graph(rng, style=("generic", "pmj", "mixed")[i % 3])
            )
            yield rng, doc
            shuffled = copy.deepcopy(doc)
            rng.shuffle(shuffled["pieces"])
            rng.shuffle(shuffled["edges"])
            yield rng, shuffled
            names = [f"Pé{k}" if k % 2 else f"中{k}" for k in range(len(doc["pieces"]))]
            yield rng, relabeled_document(shuffled, names)

    def test_valid_documents_match_reference(self):
        for _, doc in self.documents(71):
            got = graph_from_document(doc)
            assert got == ref_graph_from_document(doc)
            assert validate(got) == ref_validate(got) == []

    def test_corruptions_match_reference(self):
        outcomes = set()
        for rng, doc in self.documents(73, count=20):
            for bad in document_corruptions(doc, rng):
                got = decode_outcome(graph_from_document, bad)
                assert got == decode_outcome(ref_graph_from_document, bad), bad
                outcomes.add(got[1].split(":")[0] if isinstance(got, tuple) else "ok")
        # Every kind of rejection, and acceptance, occurs.
        assert {
            "ok",
            "malformed piece entry",
            "malformed edge entry",
            "malformed edge endpoint",
            "malformed gluing matrix",
            "piece id must be a string",
            '"pieces" must be a list',
            '"edges" must be a list',
            '"genus" must be an integer, got True',
            '"slot" must be an integer, got None',
            '"matrix entry" must be an integer, got 1.5',
            "unexpected keys in document",
            'document must contain "pieces" and "edges"',
        } <= outcomes
        assert any("cannot be encoded as UTF-8" in outcome for outcome in outcomes)

    def test_int_subclass_kept_as_given(self):
        doc = graph_to_document(two_piece_graph([M1110]))
        doc["pieces"][0]["genus"] = SubInt(2)
        doc["edges"][0]["head"][1] = SubInt(0)
        doc["edges"][0]["matrix"][1][0] = SubInt(1)
        gm = graph_from_document(doc)
        assert type(gm.pieces[0].genus) is SubInt
        assert type(gm.edges[0].head[1]) is SubInt
        assert type(gm.edges[0].matrix[1][0]) is SubInt
        assert gm == ref_graph_from_document(doc)

    def test_first_error_in_check_order(self):
        # Pieces before edges; in a piece id, genus, boundary; in an edge the
        # entry keys, tail, head, matrix shape, then entries a, b, c, d.
        doc = graph_to_document(two_piece_graph([M1110]))
        piece, edge = doc["pieces"][1], doc["edges"][0]
        piece["id"], piece["genus"], piece["boundary"] = "B\ud800", "g", "b"
        edge["extra"] = 1
        edge["tail"][1] = "t"
        edge["head"][1] = "h"
        edge["matrix"] = [["a", "b"], ["c", "d", "e"]]
        expected = [
            "piece id 'B\\ud800' cannot be encoded as UTF-8",
            '"genus" must be an integer, got \'g\'',
            '"boundary" must be an integer, got \'b\'',
            "malformed edge entry: {'tail': ['A', 't'], 'head': ['B', 'h'], "
            "'matrix': [['a', 'b'], ['c', 'd', 'e...",
            '"slot" must be an integer, got \'t\'',
            '"slot" must be an integer, got \'h\'',
            "malformed gluing matrix: [['a', 'b'], ['c', 'd', 'e']]",
            '"matrix entry" must be an integer, got \'a\'',
            '"matrix entry" must be an integer, got \'b\'',
            '"matrix entry" must be an integer, got \'c\'',
            '"matrix entry" must be an integer, got \'d\'',
        ]
        fixes = [
            lambda: piece.__setitem__("id", "B"),
            lambda: piece.__setitem__("genus", 2),
            lambda: piece.__setitem__("boundary", 1),
            lambda: edge.pop("extra"),
            lambda: edge["tail"].__setitem__(1, 0),
            lambda: edge["head"].__setitem__(1, 0),
            lambda: edge["matrix"][1].pop(),
            lambda: edge["matrix"][0].__setitem__(0, 1),
            lambda: edge["matrix"][0].__setitem__(1, 1),
            lambda: edge["matrix"][1].__setitem__(0, 1),
            lambda: edge["matrix"][1].__setitem__(1, 0),
        ]
        assert len(expected) == len(fixes)
        for message, fix in zip(expected, fixes):
            with pytest.raises(ParseError) as excinfo:
                graph_from_document(doc)
            assert str(excinfo.value) == message
            fix()
        assert graph_from_document(doc) == two_piece_graph([M1110])

    def test_equal_matrices_are_shared(self):
        gm = graph_from_document(graph_to_document(two_piece_graph([J, M1110, J])))
        first, second = (e.matrix for e in gm.edges if e.matrix == J)
        assert first is second

    def test_value_classes_are_slotted(self):
        records = (
            BundlePiece("A", 2, 1),
            Edge(("A", 0), ("B", 0), J),
            PieceCoverRecord("A", 1, 3, 4, 2),
        )
        for value in (Slope(1, 0), *records):
            assert not hasattr(value, "__dict__")
            with pytest.raises(AttributeError):
                setattr(value, type(value).__match_args__[0], None)
        # A frozen slotted dataclass raises TypeError here on CPython 3.11,
        # so Slope is left out.
        for value in records:
            with pytest.raises(AttributeError):
                value.extra = 1

    def test_records_keep_repr_equality_and_order(self):
        assert repr(BundlePiece("A", 2, 1)) == "BundlePiece(id='A', genus=2, boundary=1)"
        assert (J, MINUS_J) == (((0, 1), (1, 0)), ((0, -1), (-1, 0)))
        assert repr(Edge(("A", 0), ("B", 1), J)) == (
            "Edge(tail=('A', 0), head=('B', 1), matrix=((0, 1), (1, 0)))"
        )
        assert repr(PieceCoverRecord("A~0", 1, 3, 4, 2)) == (
            "PieceCoverRecord(over='A~0', vertical_degree=1, horizontal_degree=3, "
            "genus_up=4, boundary_up=2)"
        )
        makers = (
            lambda: BundlePiece("A", 2, 1),
            lambda: Edge(("A", 0), ("B", 1), ((1, 1), (1, 0))),
            lambda: PieceCoverRecord("A~0", 1, 3, 4, 2),
        )
        for make in makers:
            first, second = make(), make()
            assert first is not second
            assert first == second and hash(first) == hash(second)

        rng = random.Random(83)
        for i in range(30):
            gm = random_valid_graph(rng, style=("generic", "pmj", "mixed")[i % 3])
            # Edges sharing a tail, or a tail and a head, so that the head and
            # the matrix decide the order too.
            edges = [
                variant
                for edge in gm.edges
                for variant in (
                    edge,
                    edge._replace(head=(edge.head[0], edge.head[1] + 1)),
                    edge._replace(matrix=random_gluing_matrix(rng)),
                )
            ]
            rng.shuffle(edges)
            got = GraphManifold(gm.pieces, tuple(edges)).edges
            assert [(e.tail, e.head, e.matrix) for e in got] == sorted(
                (e.tail, e.head, e.matrix) for e in edges
            )

    def test_validate_matches_reference_on_corrupted_graphs(self):
        rng = random.Random(79)
        for i in range(150):
            gm = random_valid_graph(rng, style=("generic", "pmj", "mixed")[i % 3])
            bad = _corrupted(gm, rng) if i % 2 else broken_graph(gm, rng)
            got = validate(bad)
            assert got == ref_validate(bad)
            assert got

    def test_validate_matches_reference_on_edge_cases(self):
        swap = two_piece_graph([J, J])
        cases = [
            GraphManifold((), ()),
            GraphManifold((BundlePiece("A", 2, 0),), ()),
            # A doubly used slot and a free one, and nothing else wrong.
            GraphManifold(swap.pieces, (swap.edges[0], Edge(("A", 0), ("B", 1), J))),
            # A duplicated id whose last piece has the larger slot range.
            GraphManifold(
                swap.pieces + (BundlePiece("A", 2, 3),),
                swap.edges + (Edge(("A", 2), ("B", 1), J),),
            ),
        ]
        for gm in cases:
            assert validate(gm) == ref_validate(gm)
