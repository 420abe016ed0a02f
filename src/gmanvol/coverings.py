"""Finite covers of decorated graph manifolds, with verifiable bookkeeping.

Covers are represented purely combinatorially: a covered graph manifold, a
certificate recording degrees and surface data for every covered piece, and
a map sending each covering edge to the edge it lies over.

Every cover of degree q (q prime) is built from one plan: a set of pieces
to unwrap and a characteristic level m, q or 1.  An unwrapped piece keeps
its id and covers its base surface with degree q and its fiber with degree
m; every other piece is replicated as copies X~0 .. X~(q-1), needing m = 1.
Each gluing torus has L = q // m lifts, each with the downstairs matrix.
Lift k of downstairs slot i sits at slot i*L + k of an unwrapped piece and
at slot i of copy k of a replicated one.  verify_covering_certificate
re-checks this layout: a cover end at slot s of a piece whose boundary
count is L times its base's must lie over base slot s // L.  The builders
take a valid graph and check only their own preconditions; the verifier
checks every cover in full, its connectivity through validate included.

characteristic_cover(gm, q)
    Every piece unwrapped at level q: a connected cover of degree q^2, for
    a prime q exceeding every boundary count.  Every piece preimage and
    torus preimage is connected (L = 1), the graph shape is unchanged, and
    the cover restricts over each torus to the subgroup of index q x q, so
    it is q-characteristic; it is separable because each piece cover comes
    from a product epimorphism onto Z/q x Z/q (base factor times fiber
    factor).  Every piece needs two boundary tori: with a single boundary
    circle, the boundary word is a product of commutators and dies in any
    abelian quotient of the base group, so no epimorphism gives the
    boundary circle full order q.  Such inputs are rejected with a hint to
    raise the boundary count first via genus_raising_cover.

genus_raising_cover(gm, center, q)
    The pieces adjacent to the center unwrapped at level 1: a connected
    cover of degree q, trivial over the center and over every gluing torus
    (L = q), which raises the genus of the unwrapped pieces.  The cover is
    1-characteristic and separable (each piece cover has fiber degree one).
    Its size is predicted before it is built, and a cover with more than
    MAX_COVER_SIZE pieces or gluing tori is refused.

The genus of a covered base surface follows the Riemann-Hurwitz count for
unbranched covers of surfaces with boundary, exposed separately as
riemann_hurwitz_genus so its two boundary behaviors can be tested as plain
integer identities.

Covering primes are checked by a deterministic Miller-Rabin test, which is
exact below PRIME_TEST_BOUND; a larger number raises PrimeTooLarge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import (
    BoundaryCountTooSmall,
    CoverTooLarge,
    GmanvolError,
    NonIntegralGenus,
    NotPrime,
    ParseError,
    PrimeTooLarge,
    PrimeTooSmall,
)
from .graph import (
    BundlePiece,
    Edge,
    GraphManifold,
    Slope,
    _DOCUMENT_KEYS,
    _edge_sort_key,
    _expect_int,
    _expect_keys,
    _expect_list,
    _short_repr,
    filled_piece_invariants,
    graph_from_document,
    graph_to_document,
    validate,
)
from .seifert import ehn_horizontal_foliation, min_genus_for_ehn
from .serialize import _int_text


@dataclass(frozen=True, slots=True)
class PieceCoverRecord:
    """How one covering piece lies over its downstairs piece."""

    over: str
    vertical_degree: int
    horizontal_degree: int
    genus_up: int
    boundary_up: int

    @property
    def degree(self) -> int:
        return self.vertical_degree * self.horizontal_degree


@dataclass(frozen=True)
class CoveringCertificate:
    """Degree and surface bookkeeping for one covering stage.

    per_piece maps every covering piece id to its record.  The
    characteristic level m means the cover restricts over every gluing
    torus to the subgroup of index m x m (m = 1 for a cover that is trivial
    over the tori).  separable_case names which separability criterion the
    construction used.
    """

    total_degree: int
    characteristic_level: int
    per_piece: Mapping[str, PieceCoverRecord]
    separable: bool
    separable_case: str


@dataclass(frozen=True)
class CoveredGraph:
    """A covering graph manifold together with its certificate.

    torus_map[i] is the index (in canonical edge order of the base graph)
    of the edge under the i-th edge (in canonical order) of the cover.
    """

    manifold: GraphManifold
    certificate: CoveringCertificate
    torus_map: tuple[int, ...]


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster, 2015); no fixed base set is known to be exact for
# every integer, so larger numbers are refused instead of guessed at.
PRIME_TEST_BOUND = 3_317_044_064_679_887_385_961_981
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# The most pieces, and the most gluing tori, a genus-raising cover may have.
MAX_COVER_SIZE = 100_000


def is_prime(n: int) -> bool:
    """Deterministic primality for n < PRIME_TEST_BOUND; PrimeTooLarge above."""
    if n >= PRIME_TEST_BOUND:
        raise PrimeTooLarge(
            f"{n} is not below {PRIME_TEST_BOUND}, the bound up to which "
            "primality is decided exactly"
        )
    if n < 2:
        return False
    for base in _PRIME_BASES:
        if n % base == 0:
            return n == base
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for base in _PRIME_BASES:
        x = pow(base, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime_above(n: int) -> int:
    candidate = max(2, n + 1)
    while not is_prime(candidate):
        candidate += 1
    return candidate


def riemann_hurwitz_genus(
    genus: int, boundary: int, q: int, boundary_order: str
) -> tuple[int, int]:
    """Genus and boundary count of a degree-q surface cover.

    boundary_order "q": every boundary circle has connected preimage (one
    circle winding q times); then 2 (g_up - g) = (2g + p - 2)(q - 1) and the
    boundary count is unchanged.  boundary_order "1": the cover is trivial
    over the boundary; then g_up = 1 + q (g - 1) and the boundary count is
    multiplied by q.  Both satisfy chi(up) = q * chi(down).  q = 1 returns
    the input unchanged.
    """
    if boundary_order not in ("q", "1"):
        raise ValueError(f"boundary_order must be 'q' or '1', got {boundary_order!r}")
    if q < 1:
        raise ValueError(f"covering degree must be positive, got {q}")
    if q == 1:
        return genus, boundary
    if boundary_order == "q":
        doubled = (2 * genus + boundary - 2) * (q - 1)
        if doubled % 2:
            raise NonIntegralGenus(
                f"(2g + p - 2)(q - 1) = {doubled} is odd for "
                f"(g, p, q) = ({genus}, {boundary}, {q})"
            )
        return genus + doubled // 2, boundary
    return 1 + q * (genus - 1), q * boundary


def characteristic_cover(gm: GraphManifold, q: int) -> CoveredGraph:
    """The q-characteristic separable cover of degree q^2 (q prime).

    gm must be valid; verify_covering_certificate checks the connectivity.
    """
    if not is_prime(q):
        raise NotPrime(f"covering order {q} is not prime")
    max_boundary = max(piece.boundary for piece in gm.pieces)
    if q <= max_boundary:
        raise PrimeTooSmall(
            f"prime {q} must exceed the largest boundary count {max_boundary}"
        )
    small = [p.id for p in gm.pieces if p.boundary < 2]
    if small:
        raise BoundaryCountTooSmall(
            f"pieces {small} have a single boundary torus; apply a "
            "genus-raising cover first to multiply boundary tori"
        )
    return _build_cover(gm, q, {p.id for p in gm.pieces}, q)


def genus_raising_cover(gm: GraphManifold, center: str, q: int) -> CoveredGraph:
    """The degree-q cover that is trivial over the center and all tori.

    gm must be valid; verify_covering_certificate checks the connectivity.
    """
    if not is_prime(q):
        raise NotPrime(f"covering order {q} is not prime")
    try:
        gm.piece(center)
    except KeyError:
        raise GmanvolError(f"unknown center piece {center!r}") from None
    return _build_cover(gm, q, set(gm.adjacent_pieces(center)), 1)


def _build_cover(gm: GraphManifold, q: int, unwrapped: set[str], level: int) -> CoveredGraph:
    """The cover of one plan: unwrap these pieces at level, replicate the rest.

    gm must be valid; verify_covering_certificate checks the connectivity.
    With L = 1 lift per torus the base edges are the cover edges, so only
    the size check is left out.
    """
    lifts = q // level
    order = "q" if level == q else "1"
    replicated = {p.id for p in gm.pieces if p.id not in unwrapped}
    if lifts > 1:
        piece_count = len(unwrapped) + q * len(replicated)
        torus_count = lifts * len(gm.edges)
        if max(piece_count, torus_count) > MAX_COVER_SIZE:
            raise CoverTooLarge(
                f"a genus-raising cover of degree {q} would have {piece_count} pieces "
                f"and {torus_count} gluing tori; the limit is {MAX_COVER_SIZE} of each"
            )

    pieces = []
    records = {}
    for piece in gm.pieces:
        if piece.id in replicated:
            record = PieceCoverRecord(piece.id, 1, 1, piece.genus, piece.boundary)
            ids = [f"{piece.id}~{k}" for k in range(q)]
        else:
            genus_up, boundary_up = riemann_hurwitz_genus(
                piece.genus, piece.boundary, q, order
            )
            record = PieceCoverRecord(piece.id, level, q, genus_up, boundary_up)
            ids = [piece.id]
        for piece_id in ids:
            pieces.append(BundlePiece(piece_id, record.genus_up, record.boundary_up))
            records[piece_id] = record
    certificate = CoveringCertificate(
        total_degree=q * level,
        characteristic_level=level,
        per_piece=records,
        separable=True,
        separable_case="product-epimorphism" if level == q else "fiber-degree-one",
    )
    if lifts == 1:
        return CoveredGraph(
            manifold=GraphManifold(tuple(pieces), gm.edges),
            certificate=certificate,
            torus_map=tuple(range(len(gm.edges))),
        )
    if len(records) != len(pieces):
        raise GmanvolError("piece id collision while labeling covering copies")

    def lift_end(end: tuple[str, int], k: int) -> tuple[str, int]:
        piece_id, slot = end
        if piece_id in replicated:
            return (f"{piece_id}~{k}", slot)
        return (piece_id, slot * lifts + k)

    lifted = sorted(
        (
            (Edge(lift_end(edge.tail, k), lift_end(edge.head, k), edge.matrix), base_index)
            for base_index, edge in enumerate(gm.edges)
            for k in range(lifts)
        ),
        key=lambda pair: _edge_sort_key(pair[0]),
    )
    return CoveredGraph(
        manifold=GraphManifold(tuple(pieces), tuple(edge for edge, _ in lifted)),
        certificate=certificate,
        torus_map=tuple(base_index for _, base_index in lifted),
    )


def verify_covering_certificate(cov: CoveredGraph, base: GraphManifold) -> list[str]:
    """Re-check every certificate invariant against the base graph.

    Returns violations as data; an empty report means the cover, its
    certificate and its torus map are mutually consistent and consistent
    with the base.
    """
    report: list[str] = []
    up = cov.manifold
    cert = cov.certificate
    base_by_id = {p.id: p for p in base.pieces}
    up_by_id = {p.id: p for p in up.pieces}

    report.extend(f"cover graph: {v}" for v in validate(up))
    if cert.total_degree < 1:
        report.append(f"total degree {cert.total_degree} is not positive")
    if cert.characteristic_level < 1:
        report.append(f"characteristic level {cert.characteristic_level} is not positive")
    # _build_cover's rule: level 1 covers have fiber degree one on every
    # piece, level q covers come from a product epimorphism.
    case = "fiber-degree-one" if cert.characteristic_level == 1 else "product-epimorphism"
    if cert.separable is not True or cert.separable_case != case:
        report.append(
            f"separability claim ({_short_repr(cert.separable)}, "
            f"{_short_repr(cert.separable_case)}) is not (True, {case!r}) "
            f"at characteristic level {cert.characteristic_level}"
        )

    for piece_id in sorted(up_by_id):
        if piece_id not in cert.per_piece:
            report.append(f"piece {piece_id!r} has no covering record")
    degree_over: dict[str, int] = {pid: 0 for pid in base_by_id}
    lifts: dict[str, int] = {}
    for piece_id in sorted(cert.per_piece):
        record = cert.per_piece[piece_id]
        if piece_id not in up_by_id:
            report.append(f"covering record for missing piece {piece_id!r}")
            continue
        if record.over not in base_by_id:
            report.append(
                f"piece {piece_id!r} claims to cover unknown piece {record.over!r}"
            )
            continue
        piece = up_by_id[piece_id]
        down = base_by_id[record.over]
        if (piece.genus, piece.boundary) != (record.genus_up, record.boundary_up):
            report.append(
                f"covering record for piece {piece_id!r} disagrees with the cover graph"
            )
        chi_up = 2 - 2 * record.genus_up - record.boundary_up
        chi_down = 2 - 2 * down.genus - down.boundary
        if chi_up != record.horizontal_degree * chi_down:
            report.append(f"chi multiplicativity fails for piece {piece_id!r}")
        if record.vertical_degree < 1 or record.horizontal_degree < 1:
            report.append(f"non-positive covering degrees for piece {piece_id!r}")
        if down.boundary < 1 or record.boundary_up < 1 or record.boundary_up % down.boundary:
            report.append(
                f"piece {piece_id!r} has {record.boundary_up} boundary tori, not a "
                f"positive multiple of the {down.boundary} of {record.over!r}"
            )
        else:
            lifts[piece_id] = record.boundary_up // down.boundary
        degree_over[record.over] += record.degree
    for pid in sorted(degree_over):
        if degree_over[pid] != cert.total_degree:
            report.append(
                f"degree bookkeeping fails over piece {pid!r}: piece covers "
                f"sum to {_int_text(degree_over[pid])}, total degree is {cert.total_degree}"
            )

    if len(cov.torus_map) != len(up.edges):
        report.append(
            f"torus map covers {len(cov.torus_map)} edges, cover has {len(up.edges)}"
        )
        return report
    preimages: dict[int, int] = {j: 0 for j in range(len(base.edges))}
    for index, edge in enumerate(up.edges):
        base_index = cov.torus_map[index]
        if not 0 <= base_index < len(base.edges):
            report.append(f"torus map entry {base_index} out of range on edge {index}")
            continue
        base_edge = base.edges[base_index]
        preimages[base_index] += 1
        if edge.matrix != base_edge.matrix:
            report.append(f"matrix lift differs from downstairs on edge {index}")
        for end, base_end, side in (
            (edge.tail, base_edge.tail, "tail"),
            (edge.head, base_edge.head, "head"),
        ):
            record = cert.per_piece.get(end[0])
            if record is not None and record.over != base_end[0]:
                report.append(
                    f"torus map endpoint mismatch on edge {index} ({side} side)"
                )
            elif end[0] in lifts and end[1] // lifts[end[0]] != base_end[1]:
                report.append(
                    f"slot lift mismatch on edge {index} ({side} side): cover slot "
                    f"{end[1]} does not lie over base slot {base_end[1]}"
                )
    level_sq = cert.characteristic_level**2
    for base_index in sorted(preimages):
        if preimages[base_index] * level_sq != cert.total_degree:
            report.append(
                f"torus degree bookkeeping fails over edge {base_index}: "
                f"{preimages[base_index]} preimages at torus degree {_int_text(level_sq)}, "
                f"total degree is {cert.total_degree}"
            )
    return report


def min_prime_for_ehn_cover(
    gm: GraphManifold, piece_id: str, slopes: Sequence[Slope]
) -> int:
    """Smallest characteristic-cover prime after which the filled piece foliates.

    Returns the sentinel 1 when the horizontal foliation test already
    passes downstairs (no cover needed).  Otherwise returns the smallest
    prime q above every boundary count of gm, so characteristic_cover
    accepts it, whose covered genus reaches the genus G at which the
    foliation test first passes.  The covered filled piece keeps the same
    filling slopes, the test is monotone in the genus, and Riemann-Hurwitz
    gives the covered genus g + (2g + p - 2)(q - 1)/2 for a piece with p
    boundary tori, so q must be at least 1 + ceil(2(G - g) / (2g + p - 2)).
    """
    piece = gm.piece(piece_id)
    downstairs = filled_piece_invariants(gm, piece_id, slopes)
    if ehn_horizontal_foliation(downstairs):
        return 1
    if piece.boundary < 2:
        raise BoundaryCountTooSmall(
            f"piece {piece_id!r} has a single boundary torus; apply a "
            "genus-raising cover first to multiply boundary tori"
        )
    needed_genus = min_genus_for_ehn(downstairs.exceptional)
    step = 2 * piece.genus + piece.boundary - 2
    q_min = 1 - (-2 * (needed_genus - piece.genus) // step)
    return next_prime_above(max(q_min - 1, max(p.boundary for p in gm.pieces)))


def certificate_to_document(cert: CoveringCertificate) -> dict:
    return {
        "total_degree": cert.total_degree,
        "characteristic_level": cert.characteristic_level,
        "separable": cert.separable,
        "separable_case": cert.separable_case,
        "per_piece": {
            piece_id: {
                "over": record.over,
                "vertical_degree": record.vertical_degree,
                "horizontal_degree": record.horizontal_degree,
                "genus_up": record.genus_up,
                "boundary_up": record.boundary_up,
            }
            for piece_id, record in cert.per_piece.items()
        },
    }


def covered_graph_to_document(cov: CoveredGraph) -> dict:
    doc = graph_to_document(cov.manifold)
    doc["certificate"] = certificate_to_document(cov.certificate)
    doc["torus_map"] = list(cov.torus_map)
    return doc


_CERTIFICATE_KEYS = frozenset(
    ("total_degree", "characteristic_level", "separable", "separable_case", "per_piece")
)
_RECORD_KEYS = frozenset(
    ("over", "vertical_degree", "horizontal_degree", "genus_up", "boundary_up")
)


def covered_graph_from_document(doc: dict) -> CoveredGraph:
    """Rebuild a CoveredGraph from its document, for certificate re-checking.

    Every integer field of the certificate, of its records and of the torus
    map must be a JSON integer (not a bool, float or string), separable a
    JSON bool and separable_case a string, and no object may carry a key
    beyond its fields; anything else raises ParseError.  The key and the
    separability checks come after the others, so an input that fails one
    of those reports that failure.
    """
    if not isinstance(doc, dict) or "certificate" not in doc or "torus_map" not in doc:
        raise ParseError('covered graph document needs "certificate" and "torus_map"')
    manifold = graph_from_document(
        {"pieces": doc.get("pieces"), "edges": doc.get("edges")}
    )
    raw = doc["certificate"]
    if not isinstance(raw, dict) or not isinstance(raw.get("per_piece"), dict):
        raise ParseError('covering certificate needs a "per_piece" object')
    try:
        per_piece = {
            piece_id: _record_from_document(record)
            for piece_id, record in raw["per_piece"].items()
        }
        certificate = CoveringCertificate(
            total_degree=_expect_int(raw["total_degree"], "total_degree"),
            characteristic_level=_expect_int(
                raw["characteristic_level"], "characteristic_level"
            ),
            per_piece=per_piece,
            separable=raw["separable"],
            separable_case=raw["separable_case"],
        )
    except KeyError as exc:
        raise ParseError(f"malformed covering certificate: missing {exc}") from exc
    torus_map = tuple(
        _expect_int(entry, "torus_map entry")
        for entry in _expect_list(doc["torus_map"], "torus_map")
    )
    for record in raw["per_piece"].values():
        _expect_keys(record, _RECORD_KEYS, "covering record")
    _expect_keys(raw, _CERTIFICATE_KEYS, "covering certificate")
    if not isinstance(certificate.separable, bool):
        raise ParseError(
            f'"separable" must be a boolean, got {_short_repr(certificate.separable)}'
        )
    if not isinstance(certificate.separable_case, str):
        raise ParseError(
            '"separable_case" must be a string, got '
            f"{_short_repr(certificate.separable_case)}"
        )
    _expect_keys(doc, _DOCUMENT_KEYS, "covered graph document")
    return CoveredGraph(manifold=manifold, certificate=certificate, torus_map=torus_map)


def _record_from_document(record) -> PieceCoverRecord:
    if not isinstance(record, dict) or not isinstance(record.get("over"), str):
        raise ParseError(f"malformed covering record: {_short_repr(record)}")
    vertical = record["vertical_degree"]
    if type(vertical) is not int:
        vertical = _expect_int(vertical, "vertical_degree")
    horizontal = record["horizontal_degree"]
    if type(horizontal) is not int:
        horizontal = _expect_int(horizontal, "horizontal_degree")
    genus_up = record["genus_up"]
    if type(genus_up) is not int:
        genus_up = _expect_int(genus_up, "genus_up")
    boundary_up = record["boundary_up"]
    if type(boundary_up) is not int:
        boundary_up = _expect_int(boundary_up, "boundary_up")
    return PieceCoverRecord(
        over=record["over"],
        vertical_degree=vertical,
        horizontal_degree=horizontal,
        genus_up=genus_up,
        boundary_up=boundary_up,
    )
