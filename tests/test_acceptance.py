"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every check is exact integer or rational arithmetic with zero tolerance;
the whole module runs at desk scale.  Run with `pytest tests/test_acceptance.py -s`
to see the per-criterion lines.
"""

import random
from fractions import Fraction

from gmanvol import (
    BoundaryCountTooSmall,
    GeometryType,
    J,
    MINUS_J,
    PMJFormRequired,
    SeifertInvariants,
    canonical_framing,
    characteristic_cover,
    ehn_horizontal_foliation,
    euler_number,
    filled_piece_invariants,
    genus_raising_cover,
    geometry_finiteness,
    mapping_degree_finiteness,
    milnor_wood_check,
    parse_graph,
    serialize_graph,
    verify_covering_certificate,
    volume_lower_bound,
)
from gmanvol.classify import KIND_TORUS_BUNDLE_COVERED
from gmanvol.serialize import canonical_json_bytes
from builders import random_cycle_graph, random_valid_graph, two_piece_graph


def report(number: int, name: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number} [{name}]: {status}")
    assert not failures, failures


def test_criterion_1_milnor_wood_equals_ehn():
    failures = []
    for genus in range(1, 6):
        for e in range(-20, 21):
            inv = SeifertInvariants(genus, ((1, e),))
            foliates = ehn_horizontal_foliation(inv)
            expected = abs(e) <= 2 * genus - 2
            if foliates != expected or foliates != milnor_wood_check(e, genus):
                failures.append((genus, e, foliates, expected))
    report(1, "Milnor-Wood equals the foliation test on circle bundles", failures)


def _cover_bookkeeping_failures(gm, cov):
    failures = []
    down = {p.id: p for p in gm.pieces}
    cert = cov.certificate
    degree_sum = {pid: 0 for pid in down}
    for pid, record in sorted(cert.per_piece.items()):
        base = down[record.over]
        chi_up = 2 - 2 * record.genus_up - record.boundary_up
        chi_down = 2 - 2 * base.genus - base.boundary
        if chi_up != record.horizontal_degree * chi_down:
            failures.append(("chi", pid))
        if record.vertical_degree * record.horizontal_degree != record.degree:
            failures.append(("piece degree", pid))
        degree_sum[record.over] += record.degree
    for pid, total in sorted(degree_sum.items()):
        if total != cert.total_degree:
            failures.append(("total degree", pid, total))
    preimages = {}
    for base_index in cov.torus_map:
        preimages[base_index] = preimages.get(base_index, 0) + 1
    for base_index in range(len(gm.edges)):
        count = preimages.get(base_index, 0)
        if count * cert.characteristic_level**2 != cert.total_degree:
            failures.append(("torus degree", base_index, count))
    failures.extend(verify_covering_certificate(cov, gm))
    return failures


def test_criterion_2_riemann_hurwitz_exactness():
    failures = []
    rng = random.Random(2024)
    for index in range(20):
        gm = random_cycle_graph(rng)
        center = rng.choice(gm.pieces).id
        for q in (3, 5, 7):
            failures.extend(_cover_bookkeeping_failures(gm, characteristic_cover(gm, q)))
            failures.extend(
                _cover_bookkeeping_failures(gm, genus_raising_cover(gm, center, q))
            )
    report(2, "Riemann-Hurwitz and degree bookkeeping are exact", failures)


def test_criterion_3_framed_filling_euler_invariance():
    failures = []
    rng = random.Random(2024)  # same seed as criterion 2, same graphs
    for index in range(20):
        gm = random_cycle_graph(rng)
        rng.choice(gm.pieces)  # discard the center draw to stay stream-aligned
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
                        cov.manifold, piece.id, canonical_framing(cov.manifold, piece.id)
                    )
                )
                if up != down:
                    failures.append((index, q, piece.id, down, up))
    report(3, "filled Euler numbers are identical upstairs and downstairs", failures)


def test_criterion_4_case2_magnitude():
    failures = []
    rng = random.Random(42)
    for r in range(1, 6):
        for genus in (2, 3, 4):
            matrices = [rng.choice([J, MINUS_J]) for _ in range(r)]
            gm = two_piece_graph(matrices, genus_a=genus, genus_b=genus)
            cert = volume_lower_bound(gm)
            (convention,) = (
                c for c in cert.side_conditions if c["type"] == "orientation-convention"
            )
            e1, e2 = (abs(Fraction(e)) for e in convention["filled_euler"])
            if (e1, e2, cert.plan.r) != (r, r, r):
                failures.append(("pair", r, genus, e1, e2, cert.plan.r))
            if cert.bound != 8 * r:
                failures.append(("bound", r, genus, cert.bound))
            if (r, genus) == (5, 2):
                degree = cert.to_document()["cover_degree"]
                if degree != 49:
                    failures.append(("degree", degree))
                if cert.tower[0].certificate.characteristic_level != 7:
                    failures.append(("prime", cert.tower))
                if cert.tower[-1].manifold.piece("A").genus != 23:
                    failures.append(("genus", cert.tower[-1].manifold.piece("A").genus))
    report(4, "swap-form pairs certify exactly 8r, with the 7-fold tower at r=5", failures)


def test_criterion_5_case1_worked_instances():
    from gmanvol import absolute_euler_number

    failures = []
    m = ((1, 1), (1, 0))

    single = two_piece_graph([m])
    if absolute_euler_number(single) != 1:
        failures.append(("abs euler", absolute_euler_number(single)))
    cert = volume_lower_bound(single)
    if cert.bound != 4:
        failures.append(("single bound", cert.bound))

    double = two_piece_graph([m, m])
    cert2 = volume_lower_bound(double)
    if cert2.bound != 8:
        failures.append(("double bound", cert2.bound))

    for c, base in ((cert, single), (cert2, double)):
        final = c.tower[-1].manifold if c.tower else base
        for pid, slopes in c.plan.fillings.items():
            if not ehn_horizontal_foliation(filled_piece_invariants(final, pid, slopes)):
                failures.append(("foliation at tower stage", pid))
    report(5, "worked nonzero-case instances certify 4 and 8", failures)


def test_criterion_6_positivity_or_named_failure():
    failures = []
    rng = random.Random(777)
    emitted = 0
    for index in range(50):
        gm = random_valid_graph(rng, style=("generic", "pmj", "mixed")[index % 3])
        try:
            cert = volume_lower_bound(gm)
        except (PMJFormRequired, BoundaryCountTooSmall):
            continue
        emitted += 1
        if cert.bound <= 0:
            failures.append((index, cert.bound))
    if emitted == 0:
        failures.append("no certificate was ever emitted")
    report(6, "bounds are strictly positive or fail with a named missing step", failures)


def test_criterion_7_classifier_table(corpus_paths):
    failures = []
    expected = {
        GeometryType.SL2TILDE: "finite",
        GeometryType.SPHERICAL: "infinite",
        GeometryType.S2XR: "infinite",
        GeometryType.EUCLIDEAN: "infinite",
        GeometryType.NIL: "infinite",
        GeometryType.H2XR: "infinite",
    }
    for geom, verdict in expected.items():
        got = geometry_finiteness(geom)
        if got.verdict != verdict or not got.reason:
            failures.append((geom, got))
    for path in corpus_paths:
        gm = parse_graph(path.read_bytes())
        verdict = mapping_degree_finiteness(gm)
        if verdict.verdict != "finite":
            failures.append((path.name, verdict))
    torus = mapping_degree_finiteness(KIND_TORUS_BUNDLE_COVERED)
    if torus.verdict != "infinite":
        failures.append(("torus bundle flag", torus))
    report(7, "classifier matches the finiteness table", failures)


def test_criterion_8_roundtrip_and_determinism(corpus_paths):
    failures = []
    for path in corpus_paths:
        data = path.read_bytes()
        gm = parse_graph(data)
        if serialize_graph(gm) != data:
            failures.append(("roundtrip", path.name))
        if serialize_graph(parse_graph(serialize_graph(gm))) != data:
            failures.append(("idempotence", path.name))
        first = canonical_json_bytes(volume_lower_bound(gm).to_document())
        second = canonical_json_bytes(volume_lower_bound(gm).to_document())
        if first != second:
            failures.append(("determinism", path.name))
    report(8, "parse/serialize round-trips and reruns are byte-identical", failures)
