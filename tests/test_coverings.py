import copy
import json
import math
import random
from dataclasses import replace

import pytest

import gmanvol.coverings
from gmanvol import (
    BoundaryCountTooSmall,
    BundlePiece,
    CoveredGraph,
    CoverTooLarge,
    Edge,
    GmanvolError,
    GluingMatrix,
    GraphManifold,
    J,
    NonIntegralGenus,
    NotPrime,
    ParseError,
    PrimeTooLarge,
    PrimeTooSmall,
    Slope,
    canonical_framing,
    characteristic_cover,
    ehn_horizontal_foliation,
    euler_number,
    fill_framed_piece,
    filled_piece_invariants,
    genus_raising_cover,
    min_prime_for_ehn_cover,
    parse_graph,
    riemann_hurwitz_genus,
    serialize_graph,
    validate,
    verify_covering_certificate,
)
from gmanvol.coverings import (
    MAX_COVER_SIZE,
    PRIME_TEST_BOUND,
    CoveringCertificate,
    PieceCoverRecord,
    covered_graph_from_document,
    covered_graph_to_document,
    is_prime,
    next_prime_above,
)
from gmanvol.graph import _edge_sort_key, _is_connected
from gmanvol.serialize import canonical_json_bytes
from builders import random_cycle_graph, random_valid_graph, two_piece_graph
from test_graph import (
    BAD_INTEGERS,
    SubInt,
    decode_outcome,
    document_corruptions,
    ref_expect_int,
    ref_expect_list,
    ref_graph_from_document,
    ref_short_repr,
)

M1110 = GluingMatrix.of(1, 1, 1, 0)


def trial_division_is_prime(n: int) -> bool:
    """Reference primality test."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def stepping_min_prime(gm, piece_id, slopes):
    """Reference for min_prime_for_ehn_cover: try each prime above every boundary count."""
    piece = gm.piece(piece_id)
    if ehn_horizontal_foliation(filled_piece_invariants(gm, piece_id, slopes)):
        return 1
    if piece.boundary < 2:
        raise BoundaryCountTooSmall(piece_id)
    q = max(p.boundary for p in gm.pieces) + 1
    while True:
        if trial_division_is_prime(q):
            genus_up, _ = riemann_hurwitz_genus(piece.genus, piece.boundary, q, "q")
            if ehn_horizontal_foliation(fill_framed_piece(genus_up, slopes)):
                return q
        q += 1


class TestPrimes:
    def test_is_prime(self):
        assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]

    def test_next_prime_above(self):
        assert next_prime_above(1) == 2
        assert next_prime_above(5) == 7
        assert next_prime_above(8) == 11

    def test_matches_trial_division(self):
        for n in range(-3, 200_000):
            assert is_prime(n) == trial_division_is_prime(n), n

    def test_pseudoprimes_rejected(self):
        # Strong pseudoprimes to the bases 2; 2..7; 2..23; 2..37, and the
        # Carmichael numbers 561 and 1729.
        factored = {
            2047: (23, 89),
            3215031751: (151, 751, 28351),
            3825123056546413051: (149491, 747451, 34233211),
            318665857834031151167461: (399165290221, 798330580441),
            561: (3, 11, 17),
            1729: (7, 13, 19),
        }
        for n, factors in factored.items():
            assert math.prod(factors) == n
            assert not is_prime(n), n

    def test_large_primes(self):
        assert is_prime(2**61 - 1)
        assert is_prime(10**18 + 3)
        assert not is_prime((10**9 + 7) * (10**9 + 9))

    def test_bound(self):
        assert not is_prime(PRIME_TEST_BOUND - 1)
        for n in (PRIME_TEST_BOUND, PRIME_TEST_BOUND + 2, 10**30):
            with pytest.raises(PrimeTooLarge):
                is_prime(n)
        with pytest.raises(PrimeTooLarge):
            next_prime_above(PRIME_TEST_BOUND - 2)


class TestRiemannHurwitz:
    def test_connected_boundary(self):
        assert riemann_hurwitz_genus(2, 2, 3, "q") == (6, 2)

    def test_trivial_boundary(self):
        assert riemann_hurwitz_genus(2, 1, 3, "1") == (4, 3)

    def test_degree_one(self):
        assert riemann_hurwitz_genus(2, 2, 1, "q") == (2, 2)

    def test_chi_multiplicativity(self):
        for g in range(2, 6):
            for p in range(1, 5):
                for q in (2, 3, 5, 7):
                    chi = 2 - 2 * g - p
                    for order in ("q", "1"):
                        if order == "q" and ((2 * g + p - 2) * (q - 1)) % 2:
                            continue
                        gu, pu = riemann_hurwitz_genus(g, p, q, order)
                        assert 2 - 2 * gu - pu == q * chi

    def test_odd_case_rejected(self):
        # q = 2 with odd 2g + p - 2 cannot halve.
        with pytest.raises(NonIntegralGenus):
            riemann_hurwitz_genus(2, 1, 2, "q")

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            riemann_hurwitz_genus(2, 1, 3, "x")
        with pytest.raises(ValueError):
            riemann_hurwitz_genus(2, 1, 0, "q")


class TestCharacteristicCover:
    def test_single_boundary_rejected(self):
        with pytest.raises(BoundaryCountTooSmall):
            characteristic_cover(two_piece_graph([J]), 3)

    def test_parallel_swaps_q3(self):
        gm = two_piece_graph([J, J])
        cov = characteristic_cover(gm, 3)
        assert [(p.genus, p.boundary) for p in cov.manifold.pieces] == [(6, 2), (6, 2)]
        assert len(cov.manifold.edges) == 2
        assert all(e.matrix == J for e in cov.manifold.edges)
        assert cov.certificate.total_degree == 9
        assert cov.certificate.characteristic_level == 3
        assert verify_covering_certificate(cov, gm) == []

    def test_parallel_swaps_q5(self):
        gm = two_piece_graph([J, J])
        cov = characteristic_cover(gm, 5)
        assert [p.genus for p in cov.manifold.pieces] == [10, 10]
        assert cov.certificate.total_degree == 25

    def test_not_prime(self):
        with pytest.raises(NotPrime):
            characteristic_cover(two_piece_graph([J, J]), 4)

    def test_prime_too_small(self):
        with pytest.raises(PrimeTooSmall):
            characteristic_cover(two_piece_graph([J, J]), 2)

    def test_euler_number_of_framed_filling_preserved(self):
        rng = random.Random(101)
        for _ in range(20):
            gm = random_cycle_graph(rng)
            for q in (3, 5, 7):
                cov = characteristic_cover(gm, q)
                for piece in gm.pieces:
                    down = euler_number(
                        filled_piece_invariants(
                            gm, piece.id, canonical_framing(gm, piece.id)
                        )
                    )
                    up = euler_number(
                        filled_piece_invariants(
                            cov.manifold,
                            piece.id,
                            canonical_framing(cov.manifold, piece.id),
                        )
                    )
                    assert up == down


class TestGenusRaisingCover:
    def test_two_piece_center_q3(self):
        gm = two_piece_graph([J])
        cov = genus_raising_cover(gm, "A", 3)
        ids = [p.id for p in cov.manifold.pieces]
        assert ids == ["A~0", "A~1", "A~2", "B"]
        b = cov.manifold.piece("B")
        assert (b.genus, b.boundary) == (4, 3)
        assert len(cov.manifold.edges) == 3
        assert all(e.matrix == J for e in cov.manifold.edges)
        assert verify_covering_certificate(cov, gm) == []

    def test_two_piece_center_q2(self):
        gm = two_piece_graph([J])
        cov = genus_raising_cover(gm, "A", 2)
        assert [p.id for p in cov.manifold.pieces] == ["A~0", "A~1", "B"]
        assert cov.manifold.piece("B").genus == 3
        assert len(cov.manifold.edges) == 2

    def test_path_graph_center(self):
        gm = GraphManifold(
            (
                BundlePiece("A", 2, 1),
                BundlePiece("B", 2, 2),
                BundlePiece("C", 2, 1),
            ),
            (
                Edge(("A", 0), ("B", 0), J),
                Edge(("B", 1), ("C", 0), M1110),
            ),
        )
        cov = genus_raising_cover(gm, "B", 2)
        ids = [p.id for p in cov.manifold.pieces]
        # A and C are adjacent to the center, so they are covered
        # connectedly; B is replicated.
        assert ids == ["A", "B~0", "B~1", "C"]
        assert cov.manifold.piece("A").genus == 3
        assert cov.manifold.piece("C").genus == 3
        assert validate(cov.manifold) == []
        assert verify_covering_certificate(cov, gm) == []

    def test_matrices_preserved(self):
        gm = two_piece_graph([M1110, J])
        cov = genus_raising_cover(gm, "B", 3)
        downstairs = sorted(e.matrix for e in gm.edges for _ in range(3))
        upstairs = sorted(e.matrix for e in cov.manifold.edges)
        assert upstairs == downstairs

    def test_not_prime(self):
        with pytest.raises(NotPrime):
            genus_raising_cover(two_piece_graph([J]), "A", 6)

    def test_connectivity_check_needs_no_validate(self, corpus_paths, monkeypatch):
        path = next(p for p in corpus_paths if p.name == "star-3.json")
        star = parse_graph(path.read_bytes())
        expected = covered_graph_to_document(genus_raising_cover(star, "Z", 3))

        def refuse(gm):
            raise AssertionError("genus_raising_cover must not run validate")

        monkeypatch.setattr(gmanvol.coverings, "validate", refuse)
        got = covered_graph_to_document(genus_raising_cover(star, "Z", 3))
        assert canonical_json_bytes(got) == canonical_json_bytes(expected)

    def test_disconnected_base_is_caught_by_the_verifier(self):
        def two_pairs(tori):
            pieces = tuple(BundlePiece(pid, 2, tori) for pid in "ABCD")
            edges = tuple(
                Edge((tail, slot), (head, slot), J)
                for tail, head in (("A", "B"), ("C", "D"))
                for slot in range(tori)
            )
            return GraphManifold(pieces, edges)

        for build, gm, args in (
            (genus_raising_cover, two_pairs(1), ("A", 3)),
            (characteristic_cover, two_pairs(2), (3,)),
        ):
            assert validate(gm) == ["graph is not connected"]
            cov = build(gm, *args)
            assert verify_covering_certificate(cov, gm) == [
                "cover graph: graph is not connected"
            ]
        assert not hasattr(gmanvol.coverings, "_is_connected")
        assert not hasattr(gmanvol.errors, "DisconnectedCover")
        assert not hasattr(gmanvol, "DisconnectedCover")

    def test_corpus_validates_and_connects(self, corpus_paths):
        for path in corpus_paths:
            gm = parse_graph(path.read_bytes())
            for q in (2, 3, 5):
                cov = genus_raising_cover(gm, gm.pieces[0].id, q)
                assert validate(cov.manifold) == []
                assert verify_covering_certificate(cov, gm) == []


class TestVerifyCertificate:
    def _cover(self):
        gm = two_piece_graph([J, J])
        return gm, characteristic_cover(gm, 3)

    def test_clean_cover_verifies(self):
        gm, cov = self._cover()
        assert verify_covering_certificate(cov, gm) == []

    def test_tampered_genus(self):
        gm, cov = self._cover()
        record = cov.certificate.per_piece["A"]
        tampered_records = dict(cov.certificate.per_piece)
        tampered_records["A"] = replace(record, genus_up=record.genus_up + 1)
        tampered = CoveredGraph(
            manifold=cov.manifold,
            certificate=replace(cov.certificate, per_piece=tampered_records),
            torus_map=cov.torus_map,
        )
        report = verify_covering_certificate(tampered, gm)
        assert any("chi multiplicativity" in line for line in report)

    def test_tampered_matrix(self):
        gm, cov = self._cover()
        edges = list(cov.manifold.edges)
        edges[0] = replace(edges[0], matrix=M1110)
        tampered = CoveredGraph(
            manifold=GraphManifold(cov.manifold.pieces, tuple(edges)),
            certificate=cov.certificate,
            torus_map=cov.torus_map,
        )
        report = verify_covering_certificate(tampered, gm)
        assert any("matrix lift" in line for line in report)

    def test_tampered_total_degree(self):
        gm, cov = self._cover()
        tampered = CoveredGraph(
            manifold=cov.manifold,
            certificate=replace(cov.certificate, total_degree=10),
            torus_map=cov.torus_map,
        )
        report = verify_covering_certificate(tampered, gm)
        assert any("degree bookkeeping" in line for line in report)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("separable", False),
            ("separable_case", "product-epimorphism"),
            ("separable_case", "made-up"),
        ],
    )
    def test_tampered_separability(self, corpus_paths, field, value):
        path = next(p for p in corpus_paths if p.name == "star-3.json")
        star = parse_graph(path.read_bytes())
        cov = genus_raising_cover(star, "Z", 3)
        tampered = replace(cov, certificate=replace(cov.certificate, **{field: value}))
        report = verify_covering_certificate(tampered, star)
        assert any("separability claim" in line for line in report)

    def test_document_shape(self):
        gm, cov = self._cover()
        doc = covered_graph_to_document(cov)
        assert set(doc) == {"pieces", "edges", "certificate", "torus_map"}
        assert doc["certificate"]["per_piece"]["A"]["over"] == "A"
        assert doc["torus_map"] == [0, 1]


class TestMinPrime:
    def test_already_foliates(self):
        gm = two_piece_graph([J, J])
        assert min_prime_for_ehn_cover(gm, "A", [Slope(1, 0)] * 2) == 1

    def test_needs_genus_six(self):
        gm = two_piece_graph([J, J])
        assert min_prime_for_ehn_cover(gm, "A", [Slope(1, 5)] * 2) == 3

    def test_boundary_case(self):
        gm = two_piece_graph([J, J])
        assert min_prime_for_ehn_cover(gm, "A", [Slope(1, -1)] * 2) == 1

    def test_prime_exceeds_every_boundary_count(self):
        # A and C have two boundary tori, B has four.  A alone would need
        # q = 3, which characteristic_cover rejects as not above 4.
        gm = GraphManifold(
            (BundlePiece("A", 2, 2), BundlePiece("B", 2, 4), BundlePiece("C", 2, 2)),
            tuple(Edge(("A", i), ("B", i), J) for i in range(2))
            + tuple(Edge(("C", i), ("B", 2 + i), J) for i in range(2)),
        )
        assert validate(gm) == []
        slopes = [Slope(1, 5)] * 2
        q = min_prime_for_ehn_cover(gm, "A", slopes)
        assert q == 5
        cover = characteristic_cover(gm, q)
        assert verify_covering_certificate(cover, gm) == []
        assert ehn_horizontal_foliation(filled_piece_invariants(cover.manifold, "A", slopes))

    def test_single_boundary_needs_cover_rejected(self):
        gm = two_piece_graph([J])
        with pytest.raises(BoundaryCountTooSmall):
            min_prime_for_ehn_cover(gm, "A", [Slope(1, 5)])

    def test_matches_stepping_loop(self):
        rng = random.Random(606)
        outcomes = set()
        for _ in range(400):
            genus, boundary = rng.randint(1, 5), rng.randint(1, 6)
            scale = rng.choice((2, 3000))
            slopes = []
            while len(slopes) < boundary:
                a, b = rng.randint(1, 6), rng.randint(-scale, scale)
                if math.gcd(a, abs(b)) == 1:
                    slopes.append(Slope(a, b))
            gm = GraphManifold((BundlePiece("A", genus, boundary),), ())
            results = []
            for search in (stepping_min_prime, min_prime_for_ehn_cover):
                try:
                    results.append(search(gm, "A", slopes))
                except BoundaryCountTooSmall:
                    results.append("boundary-too-small")
            assert results[0] == results[1], (genus, boundary, slopes)
            outcomes.add(results[0] if results[0] in (1, "boundary-too-small") else "tower")
        assert outcomes == {1, "boundary-too-small", "tower"}


class TestRandomizedBookkeeping:
    def test_integer_identities_and_verification(self):
        rng = random.Random(202)
        for _ in range(20):
            gm = random_cycle_graph(rng)
            down = {p.id: p for p in gm.pieces}
            for q in (3, 5, 7):
                for cov in (
                    characteristic_cover(gm, q),
                    genus_raising_cover(gm, rng.choice(gm.pieces).id, q),
                ):
                    cert = cov.certificate
                    assert verify_covering_certificate(cov, gm) == []
                    degree_sum = {pid: 0 for pid in down}
                    for record in cert.per_piece.values():
                        base = down[record.over]
                        chi_down = 2 - 2 * base.genus - base.boundary
                        chi_up = 2 - 2 * record.genus_up - record.boundary_up
                        assert chi_up == record.horizontal_degree * chi_down
                        degree_sum[record.over] += record.degree
                    assert all(
                        total == cert.total_degree for total in degree_sum.values()
                    )
                    preimages = {}
                    for base_index in cov.torus_map:
                        preimages[base_index] = preimages.get(base_index, 0) + 1
                    level_sq = cert.characteristic_level**2
                    assert all(
                        count * level_sq == cert.total_degree
                        for count in preimages.values()
                    )

    def test_roundtrip_of_covered_manifolds(self):
        rng = random.Random(203)
        for _ in range(5):
            gm = random_cycle_graph(rng)
            cov = characteristic_cover(gm, 7)
            data = serialize_graph(cov.manifold)
            assert serialize_graph(parse_graph(data)) == data


class TestCoveredGraphDocument:
    """covered_graph_from_document on a genus-raising cover of star-3."""

    INT_FIELDS = ("total_degree", "characteristic_level")
    RECORD_FIELDS = ("vertical_degree", "horizontal_degree", "genus_up", "boundary_up")
    BAD_INTEGERS = ("1", 1.0, 0.9, True, None, [1])

    @pytest.fixture
    def star(self, corpus_paths):
        path = next(p for p in corpus_paths if p.name == "star-3.json")
        return parse_graph(path.read_bytes())

    @pytest.fixture
    def cover_doc(self, star):
        return covered_graph_to_document(genus_raising_cover(star, "Z", 3))

    def test_round_trip_verifies(self, star, cover_doc):
        cov = covered_graph_from_document(cover_doc)
        assert verify_covering_certificate(cov, star) == []

    @pytest.mark.parametrize("bad", BAD_INTEGERS + ("3",))
    def test_torus_map_entry_must_be_an_integer(self, cover_doc, bad):
        cover_doc["torus_map"][0] = bad
        with pytest.raises(ParseError, match="torus_map entry"):
            covered_graph_from_document(cover_doc)

    UNPRINTABLE = {
        "degrees": "degree bookkeeping fails over piece 'A': piece covers sum to "
        "an integer of more than 4300 digits, total degree is 3",
        "characteristic_level": "torus degree bookkeeping fails over edge 0: 3 "
        "preimages at torus degree an integer of more than 4300 digits, total degree is 3",
    }

    @pytest.mark.parametrize("field", UNPRINTABLE)
    def test_unprintable_sums_are_reported(self, star, field):
        doc = covered_graph_to_document(genus_raising_cover(star, "A", 3))
        if field == "degrees":
            record = doc["certificate"]["per_piece"]["A~0"]
            record["vertical_degree"] = record["horizontal_degree"] = 10**2200
        else:
            doc["certificate"]["characteristic_level"] = 10**2200
        report = verify_covering_certificate(covered_graph_from_document(doc), star)
        assert self.UNPRINTABLE[field] in report

    def test_torus_map_must_be_a_list(self, cover_doc):
        cover_doc["torus_map"] = "0" * len(cover_doc["torus_map"])
        with pytest.raises(ParseError, match="torus_map"):
            covered_graph_from_document(cover_doc)

    @pytest.mark.parametrize("field", INT_FIELDS)
    @pytest.mark.parametrize("bad", BAD_INTEGERS)
    def test_certificate_integers(self, cover_doc, field, bad):
        cover_doc["certificate"][field] = bad
        with pytest.raises(ParseError, match=field):
            covered_graph_from_document(cover_doc)

    @pytest.mark.parametrize("field", RECORD_FIELDS)
    @pytest.mark.parametrize("bad", BAD_INTEGERS)
    def test_record_integers(self, cover_doc, field, bad):
        cover_doc["certificate"]["per_piece"]["Z~0"][field] = bad
        with pytest.raises(ParseError, match=field):
            covered_graph_from_document(cover_doc)

    def test_string_vertical_degree_no_longer_reaches_the_verifier(self, cover_doc):
        cover_doc["certificate"]["per_piece"]["A"]["vertical_degree"] = "1"
        with pytest.raises(ParseError):
            covered_graph_from_document(cover_doc)

    def test_malformed_records(self, cover_doc):
        for bad in ([], {"over": 1}, "A"):
            doc = json.loads(json.dumps(cover_doc))
            doc["certificate"]["per_piece"]["A"] = bad
            with pytest.raises(ParseError):
                covered_graph_from_document(doc)
        cover_doc["certificate"]["per_piece"] = []
        with pytest.raises(ParseError):
            covered_graph_from_document(cover_doc)

    def test_missing_field(self, cover_doc):
        del cover_doc["certificate"]["per_piece"]["A"]["genus_up"]
        with pytest.raises(ParseError, match="genus_up"):
            covered_graph_from_document(cover_doc)

    def test_separable_must_be_a_bool(self, cover_doc):
        cover_doc["certificate"]["separable"] = "no"
        with pytest.raises(ParseError) as excinfo:
            covered_graph_from_document(cover_doc)
        assert str(excinfo.value) == "\"separable\" must be a boolean, got 'no'"

    def test_separable_case_must_be_a_string(self, cover_doc):
        cover_doc["certificate"]["separable_case"] = [1, 2]
        with pytest.raises(ParseError) as excinfo:
            covered_graph_from_document(cover_doc)
        assert str(excinfo.value) == '"separable_case" must be a string, got [1, 2]'

    def test_unknown_root_key(self, cover_doc):
        cover_doc["note"] = "x"
        with pytest.raises(ParseError) as excinfo:
            covered_graph_from_document(cover_doc)
        assert str(excinfo.value) == "unexpected keys in covered graph document: ['note']"

    def test_unknown_certificate_key(self, cover_doc):
        cover_doc["certificate"]["note"] = "x"
        with pytest.raises(ParseError) as excinfo:
            covered_graph_from_document(cover_doc)
        assert str(excinfo.value) == "unexpected keys in covering certificate: ['note']"

    def test_unknown_record_key(self, cover_doc):
        cover_doc["certificate"]["per_piece"]["A"]["note" * 30] = "x"
        with pytest.raises(ParseError) as excinfo:
            covered_graph_from_document(cover_doc)
        message = str(excinfo.value)
        assert message.startswith("unexpected keys in covering record: ['notenote")
        assert message.endswith("...") and len(message) < 130

    def test_new_checks_come_after_the_old_ones(self, cover_doc):
        # An input that the earlier checks reject keeps its message.
        cover_doc["note"] = "x"
        cover_doc["certificate"]["separable"] = "no"
        cover_doc["certificate"]["per_piece"]["A"]["note"] = "x"
        cover_doc["torus_map"][0] = "3"
        with pytest.raises(ParseError, match="torus_map entry"):
            covered_graph_from_document(cover_doc)


# The record and covered-graph decoders before the one-pass rewrite, copied
# verbatim (names prefixed with ref_), as references for the rewrite.


def ref_covered_graph_from_document(doc: dict) -> CoveredGraph:
    """Rebuild a CoveredGraph from its document, for certificate re-checking.

    Every integer field of the certificate, of its records and of the torus
    map must be a JSON integer (not a bool, float or string); anything else
    raises ParseError.
    """
    if not isinstance(doc, dict) or "certificate" not in doc or "torus_map" not in doc:
        raise ParseError('covered graph document needs "certificate" and "torus_map"')
    manifold = ref_graph_from_document(
        {"pieces": doc.get("pieces"), "edges": doc.get("edges")}
    )
    raw = doc["certificate"]
    if not isinstance(raw, dict) or not isinstance(raw.get("per_piece"), dict):
        raise ParseError('covering certificate needs a "per_piece" object')
    try:
        per_piece = {
            piece_id: ref_record_from_document(record)
            for piece_id, record in raw["per_piece"].items()
        }
        certificate = CoveringCertificate(
            total_degree=ref_expect_int(raw["total_degree"], "total_degree"),
            characteristic_level=ref_expect_int(
                raw["characteristic_level"], "characteristic_level"
            ),
            per_piece=per_piece,
            separable=raw["separable"],
            separable_case=raw["separable_case"],
        )
    except KeyError as exc:
        raise ParseError(f"malformed covering certificate: missing {exc}") from exc
    torus_map = tuple(
        ref_expect_int(entry, "torus_map entry")
        for entry in ref_expect_list(doc["torus_map"], "torus_map")
    )
    return CoveredGraph(manifold=manifold, certificate=certificate, torus_map=torus_map)


def ref_record_from_document(record) -> PieceCoverRecord:
    if not isinstance(record, dict) or not isinstance(record.get("over"), str):
        raise ParseError(f"malformed covering record: {ref_short_repr(record)}")
    return PieceCoverRecord(
        over=record["over"],
        vertical_degree=ref_expect_int(record["vertical_degree"], "vertical_degree"),
        horizontal_degree=ref_expect_int(
            record["horizontal_degree"], "horizontal_degree"
        ),
        genus_up=ref_expect_int(record["genus_up"], "genus_up"),
        boundary_up=ref_expect_int(record["boundary_up"], "boundary_up"),
    )


RECORD_INTEGERS = ("vertical_degree", "horizontal_degree", "genus_up", "boundary_up")


def record_corruptions(doc, rng):
    """Copies of a covered-graph document with one record field made wrong."""
    records = doc["certificate"]["per_piece"]
    piece_id = rng.choice(sorted(records))
    edits = []
    for bad in BAD_INTEGERS + (SubInt(3),):
        for field in RECORD_INTEGERS:
            edits.append(lambda r, f=field, v=bad: r.__setitem__(f, v))
        edits.append(lambda r, v=bad: r.__setitem__("over", v))
    for field in RECORD_INTEGERS + ("over",):
        edits.append(lambda r, f=field: r.pop(f))
    for edit in edits:
        bad = copy.deepcopy(doc)
        edit(bad["certificate"]["per_piece"][piece_id])
        yield bad
    for not_a_record in ([], "A", None, {"over": 1}):
        bad = copy.deepcopy(doc)
        bad["certificate"]["per_piece"][piece_id] = not_a_record
        yield bad
    for not_a_list in ({}, "0", None):
        bad = copy.deepcopy(doc)
        bad["certificate"]["per_piece"] = not_a_list
        yield bad


class TestOnePassCoveredDecoder:
    """covered_graph_from_document against the copies above."""

    def documents(self, seed, count=12):
        rng = random.Random(seed)
        for i in range(count):
            gm = random_valid_graph(rng, style=("generic", "pmj", "mixed")[i % 3])
            q = rng.choice((2, 3, 5))
            cov = genus_raising_cover(gm, rng.choice(gm.pieces).id, q)
            doc = covered_graph_to_document(cov)
            yield rng, cov, doc
            shuffled = copy.deepcopy(doc)
            rng.shuffle(shuffled["pieces"])
            rng.shuffle(shuffled["edges"])
            items = list(shuffled["certificate"]["per_piece"].items())
            rng.shuffle(items)
            shuffled["certificate"]["per_piece"] = dict(items)
            yield rng, None, shuffled

    def test_valid_documents_match_reference(self):
        for _, cov, doc in self.documents(83):
            got = covered_graph_from_document(doc)
            assert got == ref_covered_graph_from_document(doc)
            if cov is not None:
                assert got == cov

    def test_corruptions_match_reference(self):
        outcomes = set()
        for rng, _, doc in self.documents(89):
            corrupted = list(record_corruptions(doc, rng))
            corrupted += list(document_corruptions(doc, rng))
            for bad in corrupted:
                got = decode_outcome(covered_graph_from_document, bad)
                expected = decode_outcome(ref_covered_graph_from_document, bad)
                if "extra" in bad and not isinstance(expected, tuple):
                    # The one new rejection among these corruptions.
                    expected = ("ParseError", "unexpected keys in covered graph document: ['extra']")
                assert got == expected, bad
                outcomes.add(got[1].split(":")[0] if isinstance(got, tuple) else "ok")
        assert {
            "ok",
            "malformed covering record",
            "malformed covering certificate",
            'covering certificate needs a "per_piece" object',
            '"genus_up" must be an integer, got True',
            '"boundary_up" must be an integer, got None',
            "malformed gluing matrix",
        } <= outcomes

    def test_record_fields_in_check_order(self):
        _, _, doc = next(self.documents(101))
        record = next(iter(doc["certificate"]["per_piece"].values()))
        for field in RECORD_INTEGERS:
            record[field] = "x"
        for field in RECORD_INTEGERS:
            expected = ("ParseError", f'"{field}" must be an integer, got \'x\'')
            assert decode_outcome(covered_graph_from_document, doc) == expected
            assert decode_outcome(ref_covered_graph_from_document, doc) == expected
            record[field] = 1
        assert decode_outcome(covered_graph_from_document, doc) == decode_outcome(
            ref_covered_graph_from_document, doc
        )

    def test_extra_record_key_is_the_one_new_rejection(self):
        for _, _, doc in self.documents(97, count=3):
            records = doc["certificate"]["per_piece"]
            records[next(iter(records))]["extra"] = 1
            assert isinstance(ref_covered_graph_from_document(doc), CoveredGraph)
            with pytest.raises(ParseError, match="unexpected keys in covering record"):
                covered_graph_from_document(doc)

    def test_record_class_is_slotted(self):
        record = PieceCoverRecord("A", 1, 3, 4, 3)
        assert not hasattr(record, "__dict__")
        assert record.degree == 3


# The two cover constructors as they were before both were built by one
# private builder, kept verbatim as the reference for it.


class DisconnectedCover(GmanvolError):
    """Raised by ref_genus_raising_cover on a disconnected cover."""


def ref_characteristic_cover(gm: GraphManifold, q: int) -> CoveredGraph:
    """The q-characteristic separable cover of degree q^2 (q prime)."""
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

    pieces = []
    records = {}
    for piece in gm.pieces:
        genus_up, boundary_up = riemann_hurwitz_genus(piece.genus, piece.boundary, q, "q")
        pieces.append(BundlePiece(piece.id, genus_up, boundary_up))
        records[piece.id] = PieceCoverRecord(
            over=piece.id,
            vertical_degree=q,
            horizontal_degree=q,
            genus_up=genus_up,
            boundary_up=boundary_up,
        )

    certificate = CoveringCertificate(
        total_degree=q * q,
        characteristic_level=q,
        per_piece=records,
        separable=True,
        separable_case="product-epimorphism",
    )
    manifold = GraphManifold(tuple(pieces), gm.edges)
    return CoveredGraph(
        manifold=manifold,
        certificate=certificate,
        torus_map=tuple(range(len(gm.edges))),
    )


def ref_genus_raising_cover(gm: GraphManifold, center: str, q: int) -> CoveredGraph:
    """The degree-q cover that is trivial over the center and all tori."""
    if not is_prime(q):
        raise NotPrime(f"covering order {q} is not prime")
    try:
        gm.piece(center)
    except KeyError:
        raise GmanvolError(f"unknown center piece {center!r}") from None
    adjacent = set(gm.adjacent_pieces(center))
    replicated = {p.id for p in gm.pieces if p.id not in adjacent}
    piece_count = len(adjacent) + q * len(replicated)
    torus_count = q * len(gm.edges)
    if max(piece_count, torus_count) > MAX_COVER_SIZE:
        raise CoverTooLarge(
            f"a genus-raising cover of degree {q} would have {piece_count} pieces "
            f"and {torus_count} gluing tori; the limit is {MAX_COVER_SIZE} of each"
        )

    def copy_id(piece_id: str, label: int) -> str:
        return f"{piece_id}~{label}"

    pieces = []
    records = {}
    for piece in gm.pieces:
        if piece.id in adjacent:
            genus_up, boundary_up = riemann_hurwitz_genus(
                piece.genus, piece.boundary, q, "1"
            )
            pieces.append(BundlePiece(piece.id, genus_up, boundary_up))
            records[piece.id] = PieceCoverRecord(
                over=piece.id,
                vertical_degree=1,
                horizontal_degree=q,
                genus_up=genus_up,
                boundary_up=boundary_up,
            )
        else:
            for label in range(q):
                new_id = copy_id(piece.id, label)
                pieces.append(BundlePiece(new_id, piece.genus, piece.boundary))
                records[new_id] = PieceCoverRecord(
                    over=piece.id,
                    vertical_degree=1,
                    horizontal_degree=1,
                    genus_up=piece.genus,
                    boundary_up=piece.boundary,
                )
    if len(records) != len(pieces) or len({p.id for p in pieces}) != len(pieces):
        raise GmanvolError("piece id collision while labeling covering copies")

    def lift_end(end: tuple[str, int], label: int) -> tuple[str, int]:
        piece_id, slot = end
        if piece_id in replicated:
            return (copy_id(piece_id, label), slot)
        # Boundary lifts of a connectedly covered piece: lift k of downstairs
        # slot i sits at slot i*q + k.
        return (piece_id, slot * q + label)

    lifted: list[tuple[Edge, int]] = []
    for base_index, edge in enumerate(gm.edges):
        for label in range(q):
            lifted.append(
                (
                    Edge(
                        tail=lift_end(edge.tail, label),
                        head=lift_end(edge.head, label),
                        matrix=edge.matrix,
                    ),
                    base_index,
                )
            )
    lifted.sort(key=lambda pair: _edge_sort_key(pair[0]))

    manifold = GraphManifold(tuple(pieces), tuple(edge for edge, _ in lifted))
    if not _is_connected(manifold):
        raise DisconnectedCover(
            "genus-raising cover came out disconnected; this is a bug"
        )
    certificate = CoveringCertificate(
        total_degree=q,
        characteristic_level=1,
        per_piece=records,
        separable=True,
        separable_case="fiber-degree-one",
    )
    return CoveredGraph(
        manifold=manifold,
        certificate=certificate,
        torus_map=tuple(base_index for _, base_index in lifted),
    )


def cover_outcome(construct, *args):
    """The canonical cover document bytes, or the type and text of the error."""
    try:
        cov = construct(*args)
    except GmanvolError as exc:
        return type(exc), str(exc)
    return canonical_json_bytes(covered_graph_to_document(cov))


def outcome_name(outcome):
    return "ok" if isinstance(outcome, bytes) else outcome[0].__name__


class TestOneCoverBuilder:
    """Both constructors against the references above, byte for byte."""

    PRIMES = (2, 3, 5, 7, 11)

    def check_cases(self, gm) -> set:
        """Both modes at every prime and center match the references.

        Every cover built also verifies against gm.  Returns the outcomes
        seen, as (constructor name, "ok" or error name).
        """
        outcomes = set()
        char_prime = next_prime_above(max(p.boundary for p in gm.pieces))
        for q in {*self.PRIMES, char_prime, 4, 10_000_019}:
            cases = [(characteristic_cover, ref_characteristic_cover, (gm, q))]
            for center in [p.id for p in gm.pieces] + ["nowhere"]:
                cases.append((genus_raising_cover, ref_genus_raising_cover, (gm, center, q)))
            for new, ref, args in cases:
                got = cover_outcome(new, *args)
                assert got == cover_outcome(ref, *args), (new.__name__, args[1:])
                if isinstance(got, bytes):
                    assert verify_covering_certificate(new(*args), gm) == []
                outcomes.add((new.__name__, outcome_name(got)))
        return outcomes

    def test_random_graphs_match_reference(self):
        outcomes = set()
        for style in ("generic", "pmj", "mixed"):
            for seed in range(8):
                outcomes |= self.check_cases(random_valid_graph(random.Random(seed), style=style))
        assert outcomes == {
            ("characteristic_cover", "ok"),
            ("characteristic_cover", "BoundaryCountTooSmall"),
            ("characteristic_cover", "NotPrime"),
            ("characteristic_cover", "PrimeTooSmall"),
            ("genus_raising_cover", "ok"),
            ("genus_raising_cover", "CoverTooLarge"),
            ("genus_raising_cover", "GmanvolError"),
            ("genus_raising_cover", "NotPrime"),
        }

    def test_corpus_matches_reference(self, corpus_paths):
        for path in corpus_paths:
            self.check_cases(parse_graph(path.read_bytes()))

    def test_id_collision_matches_reference(self):
        gm = GraphManifold(
            (BundlePiece("A", 2, 2), BundlePiece("A~0", 2, 2)),
            (Edge(("A", 0), ("A~0", 0), J), Edge(("A", 1), ("A~0", 1), M1110)),
        )
        assert cover_outcome(genus_raising_cover, gm, "A", 3) == (
            GmanvolError, "piece id collision while labeling covering copies"
        )
        assert ("characteristic_cover", "ok") in self.check_cases(gm)

    def test_disconnected_cover_matches_reference(self):
        # Characteristic covers keep the base edges and never searched them.
        gm = two_piece_graph([J, J])
        assert cover_outcome(characteristic_cover, gm, 3) == cover_outcome(
            ref_characteristic_cover, gm, 3
        )


def swap_tails(cov: CoveredGraph, first, second) -> CoveredGraph:
    """cov with the tail ends first and second exchanged, torus map kept aligned."""
    lifted = []
    for edge, base_index in zip(cov.manifold.edges, cov.torus_map):
        tail = {first: second, second: first}.get(edge.tail, edge.tail)
        lifted.append((replace(edge, tail=tail), base_index))
    lifted.sort(key=lambda pair: _edge_sort_key(pair[0]))
    return CoveredGraph(
        manifold=GraphManifold(cov.manifold.pieces, tuple(e for e, _ in lifted)),
        certificate=cov.certificate,
        torus_map=tuple(base_index for _, base_index in lifted),
    )


class TestSlotLifts:
    """verify_covering_certificate checks the slot of every cover edge end."""

    def test_star_tail_swap_is_rejected(self, corpus_paths):
        path = next(p for p in corpus_paths if p.name == "star-3.json")
        star = parse_graph(path.read_bytes())
        cov = genus_raising_cover(star, "A", 3)
        swapped = swap_tails(cov, ("Z", 0), ("Z", 3))
        # Every slot is still used once, so the graph alone looks fine.
        assert validate(swapped.manifold) == []
        report = verify_covering_certificate(swapped, star)
        assert sorted(report) == sorted(
            [
                f"slot lift mismatch on edge {index} (tail side): cover slot {slot} "
                f"does not lie over base slot {base_slot}"
                for index, edge in enumerate(swapped.manifold.edges)
                for slot, base_slot in ((0, 1), (3, 0))
                if edge.tail == ("Z", slot)
            ]
        )
        assert len(report) == 2

    def test_characteristic_tail_swap_is_rejected(self):
        gm = two_piece_graph([J, J])
        swapped = swap_tails(characteristic_cover(gm, 3), ("A", 0), ("A", 1))
        assert validate(swapped.manifold) == []
        report = verify_covering_certificate(swapped, gm)
        assert len(report) == 2
        assert all(line.startswith("slot lift mismatch") for line in report)

    @pytest.mark.parametrize("boundary_up", [0, -9, 10])
    def test_boundary_not_a_positive_multiple(self, corpus_paths, boundary_up):
        path = next(p for p in corpus_paths if p.name == "star-3.json")
        star = parse_graph(path.read_bytes())
        cov = genus_raising_cover(star, "A", 3)
        records = dict(cov.certificate.per_piece)
        records["Z"] = replace(records["Z"], boundary_up=boundary_up)
        tampered = replace(cov, certificate=replace(cov.certificate, per_piece=records))
        report = verify_covering_certificate(tampered, star)
        assert (
            f"piece 'Z' has {boundary_up} boundary tori, not a positive multiple "
            "of the 3 of 'Z'"
        ) in report
        assert not any(line.startswith("slot lift mismatch") for line in report)
