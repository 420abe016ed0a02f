"""Decorated multigraphs of circle-bundle pieces glued along tori.

A graph manifold is stored as its dual graph: one vertex per Seifert piece,
one directed edge per gluing torus.  Each piece is a trivial circle bundle
over an orientable surface of genus at least 2 with at least one boundary
torus, carrying a fixed section-fiber coordinate system on every boundary
component.  Each edge carries a 2 x 2 integer matrix expressing the sewing
map between the coordinates of its two sides.

Validity of a decorated graph means:

* every piece has genus >= 2 and boundary count >= 1;
* every gluing matrix has determinant -1 (orientation-reversing sewing of
  boundary tori inside an oriented manifold) and nonzero upper-right entry
  (the fiber of one side never maps to the fiber of the other, which is
  exactly minimality of the torus decomposition);
* edges join distinct pieces, every boundary slot of every piece is used by
  exactly one edge endpoint, and the graph is connected with at least one
  edge.

Transport convention: the sewing map carries the tail basis to the head
basis row-wise, so coordinates of curves transform by the column action of
the matrix (tail to head) and of its inverse (head to tail).  This single
convention is fixed here and used everywhere downstream.

Exchange format (canonical JSON, UTF-8, sorted keys, pieces sorted by id,
edges sorted by (tail, head, matrix)):

    {"pieces": [{"id": "A", "genus": 2, "boundary": 1}, ...],
     "edges": [{"tail": ["A", 0], "head": ["B", 0],
                "matrix": [[0, 1], [1, 0]]}, ...]}

Slots are 0-based indices into a piece's boundary components.

A document is decoded in one typed pass (graph_from_document), sharing equal
gluing matrices.  BundlePiece and Edge are NamedTuples whose fields are the
document keys, a gluing matrix is its tuple of rows ((a, b), (c, d)), and
Slope is a slotted dataclass because it checks its entries when built.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import attrgetter
from typing import Literal, NamedTuple, Sequence

from .errors import ParseError, ValidationError
from .seifert import SeifertInvariants, fill_framed_piece
from .serialize import _int_text, _load_json, canonical_json_bytes


@dataclass(frozen=True, order=True, slots=True)
class Slope:
    """A primitive curve class (a, b) in a section-fiber basis.

    Canonical form: a > 0, or a = 0 and b = 1.  Slopes are unoriented, so
    negating both entries gives the same slope; the canonical sign makes
    the representative unique.
    """

    a: int
    b: int

    def __post_init__(self):
        if (self.a, self.b) == (0, 0):
            raise ValueError("slope (0, 0) is not a curve")
        if math.gcd(abs(self.a), abs(self.b)) != 1:
            raise ValueError(f"slope ({self.a}, {self.b}) is not primitive")
        if self.a < 0 or (self.a == 0 and self.b < 0):
            raise ValueError(
                f"slope ({self.a}, {self.b}) is not canonical; use Slope.canonical"
            )

    @classmethod
    def canonical(cls, a: int, b: int) -> "Slope":
        if a < 0 or (a == 0 and b < 0):
            a, b = -a, -b
        return cls(a, b)


J = ((0, 1), (1, 0))
MINUS_J = ((0, -1), (-1, 0))


class BundlePiece(NamedTuple):
    """A trivial circle bundle over a genus >= 2 surface with boundary tori."""

    id: str
    genus: int
    boundary: int


class Edge(NamedTuple):
    """A directed gluing torus between two boundary slots."""

    tail: tuple[str, int]
    head: tuple[str, int]
    matrix: tuple[tuple[int, int], tuple[int, int]]


class _Incidence(NamedTuple):
    """Lookup tables of a graph, built in one pass over pieces and edges.

    On an invalid graph they keep the semantics of a plain scan: the first
    piece with a duplicated id wins, the last edge (in canonical order) on a
    doubly used slot wins, and a self-loop makes a piece its own neighbor.
    """

    pieces: dict[str, BundlePiece]
    slots: dict[tuple[str, int], tuple[int, str]]
    neighbors: dict[str, set[str]]


@dataclass(frozen=True)
class GraphManifold:
    """A decorated dual graph; pieces and edges are kept in canonical order."""

    pieces: tuple[BundlePiece, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self):
        pieces = tuple(sorted(self.pieces, key=attrgetter("id")))
        # An Edge is the tuple (tail, head, matrix), so edges sort in the
        # (tail, head, matrix) order of the exchange format.
        edges = tuple(sorted(self.edges))
        object.__setattr__(self, "pieces", pieces)
        object.__setattr__(self, "edges", edges)

    @cached_property
    def _incidence(self) -> _Incidence:
        # cached_property stores the index in the instance dict, which the
        # frozen dataclass allows; it is not a field, so equality, hashing
        # and repr ignore it.  Pieces are read from the end so that the
        # first piece of a duplicated id wins.
        pieces = {piece.id: piece for piece in reversed(self.pieces)}
        slots: dict[tuple[str, int], tuple[int, str]] = {}
        neighbors: dict[str, set[str]] = {}
        for index, (tail, head, _) in enumerate(self.edges):
            slots[tail] = (index, "tail")
            slots[head] = (index, "head")
            neighbors.setdefault(tail[0], set()).add(head[0])
            neighbors.setdefault(head[0], set()).add(tail[0])
        return _Incidence(pieces, slots, neighbors)

    def piece(self, piece_id: str) -> BundlePiece:
        try:
            return self._incidence.pieces[piece_id]
        except KeyError:
            raise KeyError(f"no piece with id {piece_id!r}") from None

    def adjacent_pieces(self, piece_id: str) -> tuple[str, ...]:
        """Ids of the pieces sharing at least one gluing torus with piece_id."""
        return tuple(sorted(self._incidence.neighbors.get(piece_id, ())))


def transport_slope(
    edge: Edge, direction: Literal["tail_to_head", "head_to_tail"], slope: Slope
) -> Slope:
    """Carry a slope across a gluing torus, returning the canonical form."""
    (a, b), (c, d) = edge.matrix
    x, y = slope.a, slope.b
    if direction == "tail_to_head":
        return Slope.canonical(a * x + b * y, c * x + d * y)
    if direction != "head_to_tail":
        raise ValueError(f"unknown transport direction {direction!r}")
    det = a * d - b * c
    if det not in (1, -1):
        raise ValueError(f"matrix with determinant {det} is not invertible over Z")
    # The inverse is det times [[d, -b], [-c, a]], and a slope negated is
    # the same slope.
    return Slope.canonical(d * x - b * y, a * y - c * x)


def validate(gm: GraphManifold) -> list[str]:
    """Check every structural invariant; return the violations (empty if valid).

    The report is linear in the number of pieces and edges: past a budget,
    a piece's unused slots are counted in one line instead of listed.
    """
    violations: list[str] = []
    # Slot ranges come from the last piece of a duplicated id, unlike the
    # incidence index, where the first one wins.
    boundary_of: dict[str, int] = {}
    slot_count = 0
    for piece_id, genus, boundary in gm.pieces:
        if piece_id in boundary_of:
            violations.append(f"duplicate piece id {piece_id!r}")
        boundary_of[piece_id] = boundary
        slot_count += boundary
        if genus < 2:
            violations.append(f"piece {piece_id!r}: genus below 2")
        if boundary < 1:
            violations.append(f"piece {piece_id!r}: boundary count below 1")

    for index, ((tail_id, tail_slot), (head_id, head_slot), matrix) in enumerate(gm.edges):
        boundary = boundary_of.get(tail_id)
        if boundary is None:
            violations.append(f"edge {index}: unknown piece id {tail_id!r} on tail")
        elif not 0 <= tail_slot < boundary:
            violations.append(
                f"edge {index}: slot {tail_slot} out of range for piece {tail_id!r}"
            )
        boundary = boundary_of.get(head_id)
        if boundary is None:
            violations.append(f"edge {index}: unknown piece id {head_id!r} on head")
        elif not 0 <= head_slot < boundary:
            violations.append(
                f"edge {index}: slot {head_slot} out of range for piece {head_id!r}"
            )
        if tail_id == head_id:
            violations.append(f"edge {index}: edge joins a piece to itself")
        (a, b), (c, d) = matrix
        det = a * d - b * c
        if det != -1:
            violations.append(
                f"edge {index}: determinant of gluing matrix is {_int_text(det)}, not -1"
            )
        if b == 0:
            violations.append(
                f"edge {index}: minimality violated, the fiber maps to a fiber "
                "(upper-right entry is 0)"
            )

    # Slots are integers.  With no violation so far, every endpoint names a
    # slot in range of its piece, so when the index's distinct endpoints are
    # as many as the endpoints and as the slots, each slot is used exactly
    # once and the per-slot scan would find nothing.
    if violations or not len(gm._incidence.slots) == 2 * len(gm.edges) == slot_count:
        violations.extend(_slot_violations(gm))

    if not gm.edges:
        violations.append("graph has no edges")
    elif not violations and not _is_connected(gm):
        # Connectivity is only meaningful once the incidence data is sane.
        violations.append("graph is not connected")
    return violations


def _slot_violations(gm: GraphManifold) -> list[str]:
    """One line per slot not used exactly once, piece by piece in slot order.

    A boundary count is a number in the input, so unused slots are listed
    one per line only within a budget of 2 |edges| + |pieces| lines; past
    it, each piece gets one line with the count of its unlisted unused
    slots.  Every overused slot keeps its own line, so the report is linear
    in the number of pieces and edges.
    """
    usage = Counter(end for edge in gm.edges for end in (edge.tail, edge.head))
    used_slots: dict[str, list[int]] = {}
    for piece_id, slot in usage:
        used_slots.setdefault(piece_id, []).append(slot)
    budget = 2 * len(gm.edges) + len(gm.pieces)
    violations = []
    for piece in gm.pieces:
        piece_id, boundary = piece.id, piece.boundary
        used = sorted(s for s in used_slots.get(piece_id, ()) if 0 <= s < boundary)
        start = unlisted = 0
        for slot in used + [boundary]:
            # Slots start .. slot - 1 are unused.
            gap = max(slot - start, 0)
            listed = min(gap, budget)
            violations.extend(
                f"slot {piece_id!r}[{s}] used by 0 edge endpoints, expected exactly 1"
                for s in range(start, start + listed)
            )
            budget -= listed
            unlisted += gap - listed
            if slot < boundary and usage[(piece_id, slot)] != 1:
                violations.append(
                    f"slot {piece_id!r}[{slot}] used by {usage[(piece_id, slot)]} "
                    "edge endpoints, expected exactly 1"
                )
            start = slot + 1
        if unlisted:
            violations.append(
                f"piece {piece_id!r}: {_int_text(unlisted)} more slots used by 0 "
                "edge endpoints, expected exactly 1"
            )
    return violations


def _require_valid(gm: GraphManifold) -> GraphManifold:
    """gm itself when it is valid; otherwise raise ValidationError."""
    violations = validate(gm)
    if violations:
        raise ValidationError(violations)
    return gm


def _is_connected(gm: GraphManifold) -> bool:
    """Whether a search from the first piece reaches every piece.

    The graph must have at least one piece and distinct piece ids.
    """
    neighbors = gm._incidence.neighbors
    reached = {gm.pieces[0].id}
    frontier = [gm.pieces[0].id]
    while frontier:
        current = frontier.pop()
        for neighbor in neighbors.get(current, ()):
            if neighbor not in reached:
                reached.add(neighbor)
                frontier.append(neighbor)
    return len(reached) == len(gm.pieces)


# The records are built from their checked fields with tuple.__new__, as the
# NamedTuple constructor does after one more Python call.
_new_record = tuple.__new__

_DOCUMENT_KEYS = frozenset(("pieces", "edges", "certificate", "torus_map"))
_PIECE_KEYS = frozenset(BundlePiece._fields)
_EDGE_KEYS = frozenset(Edge._fields)


def graph_from_document(doc) -> GraphManifold:
    """Build a GraphManifold from a parsed JSON document without validating it.

    One typed pass in document order: each entry is checked field by field
    as it is built, so the first malformed field is the one reported.  An
    exact int or an ASCII id passes on a type test alone.
    """
    if not isinstance(doc, dict):
        raise ParseError("document root must be an object")
    _expect_keys(doc, _DOCUMENT_KEYS, "document")
    if "pieces" not in doc or "edges" not in doc:
        raise ParseError('document must contain "pieces" and "edges"')

    pieces = []
    for raw in _expect_list(doc["pieces"], "pieces"):
        if not isinstance(raw, dict) or raw.keys() != _PIECE_KEYS:
            raise ParseError(f"malformed piece entry: {_short_repr(raw)}")
        piece_id, genus, boundary = raw["id"], raw["genus"], raw["boundary"]
        if not isinstance(piece_id, str):
            raise ParseError(f"piece id must be a string: {_short_repr(piece_id)}")
        if not piece_id.isascii():
            _expect_encodable(piece_id)
        if type(genus) is not int:
            genus = _expect_int(genus, "genus")
        if type(boundary) is not int:
            boundary = _expect_int(boundary, "boundary")
        pieces.append(_new_record(BundlePiece, (piece_id, genus, boundary)))

    edges = []
    matrices: dict[tuple[int, int, int, int], tuple] = {}
    for raw in _expect_list(doc["edges"], "edges"):
        if not isinstance(raw, dict) or raw.keys() != _EDGE_KEYS:
            raise ParseError(f"malformed edge entry: {_short_repr(raw)}")
        # An end [id, slot] with an ASCII id and an exact int slot passes on
        # the type tests alone; any other end goes to _expect_end, so each
        # message, and the order in which faults are found, is its own.
        tail, head = raw["tail"], raw["head"]
        if (
            type(tail) is list
            and len(tail) == 2
            and type(tail[0]) is str
            and type(tail[1]) is int
            and tail[0].isascii()
        ):
            tail = tuple(tail)
        else:
            tail = _expect_end(tail)
        if (
            type(head) is list
            and len(head) == 2
            and type(head[0]) is str
            and type(head[1]) is int
            and head[0].isascii()
        ):
            head = tuple(head)
        else:
            head = _expect_end(head)
        value = raw["matrix"]
        if (
            not isinstance(value, list)
            or len(value) != 2
            or not isinstance(value[0], list)
            or len(value[0]) != 2
            or not isinstance(value[1], list)
            or len(value[1]) != 2
        ):
            raise ParseError(f"malformed gluing matrix: {_short_repr(value)}")
        (a, b), (c, d) = value
        if type(a) is not int:
            a = _expect_int(a, "matrix entry")
        if type(b) is not int:
            b = _expect_int(b, "matrix entry")
        if type(c) is not int:
            c = _expect_int(c, "matrix entry")
        if type(d) is not int:
            d = _expect_int(d, "matrix entry")
        key = (a, b, c, d)
        matrix = matrices.get(key)
        if matrix is None:
            matrix = matrices[key] = ((a, b), (c, d))
        edges.append(_new_record(Edge, (tail, head, matrix)))
    return GraphManifold(tuple(pieces), tuple(edges))


def parse_graph(data: bytes | str) -> GraphManifold:
    """Parse and validate a graph document; raise on any violation."""
    return _require_valid(graph_from_document(_load_json(data, "document")))


def graph_to_document(gm: GraphManifold) -> dict:
    """The JSON document of a graph, with pieces and edges in canonical order."""
    return {
        "pieces": [p._asdict() for p in gm.pieces],
        "edges": [
            {
                "tail": [e.tail[0], e.tail[1]],
                "head": [e.head[0], e.head[1]],
                "matrix": [list(e.matrix[0]), list(e.matrix[1])],
            }
            for e in gm.edges
        ],
    }


def serialize_graph(gm: GraphManifold) -> bytes:
    """Canonical byte serialization; parse_graph inverts it exactly."""
    return canonical_json_bytes(graph_to_document(gm))


def _framing_pairs(matrix: tuple) -> tuple[tuple[int, int], tuple[int, int]]:
    """Framing pairs of an edge's head and tail slots (see _filled_piece_table)."""
    (a, b), (_, d) = matrix
    return ((b, d), (b, -a)) if b >= 0 else ((-b, -d), (-b, a))


def canonical_framing(gm: GraphManifold, piece_id: str) -> list[Slope]:
    """The framing of a piece by the fibers of its neighbors, one slope per slot.

    Per slot, the opposite side's fiber (0, 1) carried across the gluing torus by
    the closed form of _filled_piece_table; an unused slot raises ValidationError.
    """
    slots = gm._incidence.slots
    framing = []
    for slot in range(gm.piece(piece_id).boundary):
        if (piece_id, slot) not in slots:
            raise ValidationError(
                [f"slot {piece_id!r}[{slot}] used by 0 edge endpoints, expected exactly 1"]
            )
        index, side = slots[(piece_id, slot)]
        head, tail = _framing_pairs(gm.edges[index].matrix)
        framing.append(Slope.canonical(*(head if side == "head" else tail)))
    return framing


def filled_piece_invariants(
    gm: GraphManifold, piece_id: str, slopes: Sequence[Slope]
) -> SeifertInvariants:
    """Seifert invariants of a piece Dehn filled along one slope per slot."""
    piece = gm.piece(piece_id)
    if len(slopes) != piece.boundary:
        raise ValueError(
            f"piece {piece_id!r} has {piece.boundary} boundary slots, "
            f"got {len(slopes)} slopes"
        )
    return fill_framed_piece(piece.genus, slopes)


class _FilledPiece(NamedTuple):
    """One row of _filled_piece_table: e = euler / den and chi = chi / den.

    den is the product of the framing's alphas, so it is positive, and
    neither ratio is reduced: the signs of euler and chi are those of e and
    chi, and a value is reduced only when it is printed or returned.
    """

    framing: tuple[tuple[int, int], ...]
    euler: int
    chi: int
    den: int


def _filled_piece_table(gm: GraphManifold) -> dict[str, _FilledPiece]:
    """Piece id -> canonical framing, and e and chi of the piece filled along it.

    gm must be valid.  A slot's framing pair, the other side's fiber carried
    across its torus [[a, b], [c, d]], is (|b|, sgn(b) d) at the head end and
    (|b|, -sgn(b) a) at the tail end; ad - bc = -1 and b != 0 make it a coprime
    filling pair with alpha >= 1, so nothing is checked.  e and chi are summed
    in integers over the product of the alphas, as seifert sums them, and
    kept as unreduced numerators over that product.
    """
    framings = {piece_id: [None] * boundary for piece_id, _, boundary in gm.pieces}
    for (tail, t), (head, h), matrix in gm.edges:
        framings[head][h], framings[tail][t] = _framing_pairs(matrix)
    table = {}
    for piece_id, genus, boundary in gm.pieces:
        framing = tuple(framings[piece_id])
        euler, chi, den = 0, 2 - 2 * genus - boundary, 1
        for alpha, beta in framing:
            euler, chi, den = euler * alpha + beta * den, chi * alpha + den, den * alpha
        table[piece_id] = _new_record(_FilledPiece, (framing, euler, chi, den))
    return table


def _absolute_euler(table: dict[str, _FilledPiece]) -> tuple[int, int]:
    """|e| = sum of |e(P)| over the table, as a numerator and a positive denominator.

    The denominator is the least common multiple of the rows' denominators,
    and the ratio is not reduced.
    """
    num, den = 0, 1
    for row in table.values():
        if row.euler:
            g = math.gcd(den, row.den)
            num = num * (row.den // g) + abs(row.euler) * (den // g)
            den = den // g * row.den
    return num, den


def absolute_euler_number(gm: GraphManifold) -> Fraction:
    """Sum over pieces of |e| of the piece filled along its canonical framing."""
    return Fraction(*_absolute_euler(_filled_piece_table(_require_valid(gm))))


def is_pm_j_form(gm: GraphManifold) -> bool:
    """True when every gluing matrix is the swap J or its negative."""
    return all(edge.matrix in (J, MINUS_J) for edge in gm.edges)


_SHORT_REPR_LENGTH = 80


def _short_repr(value) -> str:
    """The repr of an input value, cut to _SHORT_REPR_LENGTH characters.

    Parse errors echo the offending input through this, so an error
    message stays small however large the input is.
    """
    text = repr(value)
    if len(text) <= _SHORT_REPR_LENGTH:
        return text
    return text[: _SHORT_REPR_LENGTH - 3] + "..."


def _expect_list(value, name: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f'"{name}" must be a list')
    return value


def _expect_keys(value: dict, allowed: frozenset, name: str) -> None:
    if not value.keys() <= allowed:
        unknown = sorted(value.keys() - allowed)
        raise ParseError(f"unexpected keys in {name}: {_short_repr(unknown)}")


def _expect_int(value, name: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f'"{name}" must be an integer, got {_short_repr(value)}')
    return value


def _expect_end(value) -> tuple[str, int]:
    if (
        not isinstance(value, list)
        or len(value) != 2
        or not isinstance(value[0], str)
    ):
        raise ParseError(f"malformed edge endpoint: {_short_repr(value)}")
    piece_id, slot = value
    if not piece_id.isascii():
        _expect_encodable(piece_id)
    if type(slot) is not int:
        slot = _expect_int(slot, "slot")
    return (piece_id, slot)


def _expect_encodable(piece_id: str) -> None:
    # A lone surrogate decodes from JSON but cannot be written back as UTF-8.
    try:
        piece_id.encode("utf-8")
    except UnicodeEncodeError:
        raise ParseError(
            f"piece id {_short_repr(piece_id)} cannot be encoded as UTF-8"
        ) from None
