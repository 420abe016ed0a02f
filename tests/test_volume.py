import dataclasses
import io
import json
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import pytest

from gmanvol import (
    BoundaryCountTooSmall,
    J,
    MINUS_J,
    BundlePiece,
    Edge,
    GraphManifold,
    PMJFormRequired,
    SeifertInvariants,
    Slope,
    ValidationError,
    VolumeCertificate,
    VolumeConfig,
    absolute_euler_number,
    canonical_framing,
    cs_of_filled_piece,
    ehn_horizontal_foliation,
    EhnFails,
    GmanvolError,
    euler_number,
    filled_piece_invariants,
    gv_of_certified_connection,
    is_pm_j_form,
    min_prime_for_ehn_cover,
    verify_covering_certificate,
    volume_lower_bound,
)
import gmanvol.cli
import gmanvol.errors
import gmanvol.graph
import gmanvol.volume
from gmanvol.coverings import (
    CoveredGraph,
    certificate_to_document,
    characteristic_cover,
    next_prime_above,
)
from gmanvol.graph import _require_valid
from gmanvol.serialize import canonical_json_bytes, format_rational
from gmanvol.volume import (
    CASE_NONZERO,
    CASE_ZERO_PMJ,
    SHARED_FILLING_SLOPE,
    _commutator_side_conditions,
)
from builders import random_valid_graph, two_piece_graph
from test_linearity import periodic_cycle

M1110 = ((1, 1), (1, 0))


def covered_manifold(cert, base):
    """The manifold the certificate's bound is about: the tower's last cover of base."""
    return cert.tower[-1].manifold if cert.tower else base


def recheck_foliation_at_tower_stage(cert, base):
    """Re-derive the foliation precondition on the final covered manifold."""
    final = covered_manifold(cert, base)
    for pid, slopes in cert.plan.fillings.items():
        assert ehn_horizontal_foliation(filled_piece_invariants(final, pid, slopes))


def recheck_tower_certificates(cert, base):
    """Each tower stage must verify against the stage it covers."""
    stage_base = base
    for stage in cert.tower:
        assert verify_covering_certificate(stage, stage_base) == []
        stage_base = stage.manifold
    if cert.tower:
        # The tower is the characteristic cover at the plan's prime.
        assert characteristic_cover(base, cert.plan.q).manifold == stage_base


def filled_euler_pair(cert):
    """The pair's filled Euler numbers and r, as a swap-form certificate records them."""
    (condition,) = (c for c in cert.side_conditions if c["type"] == "orientation-convention")
    e1, e2 = condition["filled_euler"]
    return Fraction(e1), Fraction(e2), cert.plan.r


class TestClosedFormValues:
    def test_cs_negative(self):
        inv = SeifertInvariants(6, ((1, -1), (1, -1)))
        assert cs_of_filled_piece(inv) == -4

    def test_cs_zero(self):
        inv = SeifertInvariants(2, ((1, 0), (1, 0)))
        assert cs_of_filled_piece(inv) == 0

    def test_cs_positive(self):
        inv = SeifertInvariants(3, ((1, 3),))
        assert cs_of_filled_piece(inv) == 6

    def test_cs_requires_foliation(self):
        with pytest.raises(EhnFails):
            cs_of_filled_piece(SeifertInvariants(2, ((1, 3),)))

    def test_gv_doubles(self):
        assert gv_of_certified_connection(Fraction(2)) == 4
        assert gv_of_certified_connection(Fraction(0)) == 0
        assert gv_of_certified_connection(Fraction(-4)) == -8

    def test_values_are_fraction_coefficients(self):
        assert type(cs_of_filled_piece(SeifertInvariants(3, ((1, 3),)))) is Fraction
        assert type(gv_of_certified_connection(3)) is Fraction
        assert type(volume_lower_bound(two_piece_graph([J])).bound) is Fraction


class TestCase1:
    def test_two_parallel_generic_edges(self):
        gm = two_piece_graph([M1110, M1110])
        cert = volume_lower_bound(gm)
        assert list(cert.plan.fillings) == ["A"] and cert.plan.r is None
        assert cert.bound == 8
        assert cert.to_document()["cover_degree"] == 1 and cert.tower == ()
        recheck_foliation_at_tower_stage(cert, gm)

    def test_mixed_pair_of_edges(self):
        gm = two_piece_graph([M1110, J])
        cert = volume_lower_bound(gm)
        assert cert.bound == 4
        recheck_foliation_at_tower_stage(cert, gm)

    def test_tower_emitted_when_needed(self):
        # Framing slope (1, -5) on both slots of A fails the foliation test
        # at genus 2 and needs the q = 3 cover (genus 6).
        m = ((5, 1), (1, 0))  # inverse sends (0,1) to (1,-5)
        gm = two_piece_graph([m, m])
        assert canonical_framing(gm, "A") == [Slope(1, -5), Slope(1, -5)]
        cert = volume_lower_bound(gm)
        assert list(cert.plan.fillings) == ["A"] and cert.plan.r is None
        assert cert.bound == 40
        assert cert.to_document()["cover_degree"] == 9
        assert cert.tower[0].certificate.characteristic_level == 3
        assert cert.tower[-1].manifold.piece("A").genus == 6
        recheck_foliation_at_tower_stage(cert, gm)
        recheck_tower_certificates(cert, gm)

    def test_bound_matches_recomputation_upstairs(self):
        m = ((5, 1), (1, 0))
        gm = two_piece_graph([m, m])
        cert = volume_lower_bound(gm)
        final = cert.tower[-1].manifold
        up = euler_number(filled_piece_invariants(final, "A", cert.plan.fillings["A"]))
        assert cert.bound == 4 * abs(up)

    def test_side_conditions_structure(self):
        gm = two_piece_graph([M1110])
        cert = volume_lower_bound(gm, VolumeConfig(alpha_bound=9))
        kinds = [c["type"] for c in cert.side_conditions]
        assert kinds == [
            "neighbor-commutator-genus",
            "commutator-realizability",
            "fiber-killed-zero-contribution",
        ]
        neighbor = cert.side_conditions[0]
        assert neighbor["piece"] == "B"
        assert neighbor["shared_tori"] == 1
        assert neighbor["translation_sum_bound"] == "9"
        assert neighbor["genus_threshold"] == "5"


class TestCase2Pair:
    def test_single_swap(self):
        gm = two_piece_graph([J])
        assert filled_euler_pair(volume_lower_bound(gm)) == (-1, -1, 1)

    def test_three_parallel_swaps(self):
        gm = two_piece_graph([J, J, J])
        assert filled_euler_pair(volume_lower_bound(gm)) == (-3, -3, 3)

    def test_negative_swap(self):
        gm = two_piece_graph([MINUS_J])
        assert filled_euler_pair(volume_lower_bound(gm)) == (-1, -1, 1)


class TestCase2Bound:
    def test_single_swap(self):
        gm = two_piece_graph([J])
        cert = volume_lower_bound(gm)
        assert cert.bound == 8
        assert cert.plan.r == 1
        assert cert.to_document()["cover_degree"] == 1
        recheck_foliation_at_tower_stage(cert, gm)

    def test_five_parallel_swaps(self):
        gm = two_piece_graph([J] * 5)
        cert = volume_lower_bound(gm)
        assert cert.bound == 40
        assert cert.to_document()["cover_degree"] == 49
        assert cert.tower[0].certificate.characteristic_level == 7
        assert cert.tower[-1].manifold.piece("A").genus == 23
        recheck_foliation_at_tower_stage(cert, gm)
        recheck_tower_certificates(cert, gm)

    def test_pmj_required(self):
        # Filled Euler numbers 1/2 - 1/2 cancel on both sides, so the
        # absolute Euler number vanishes without the matrices being swaps.
        gm = two_piece_graph(
            [((1, 2), (1, 1)), ((-1, 2), (1, -1))]
        )
        assert absolute_euler_number(gm) == 0
        with pytest.raises(PMJFormRequired):
            volume_lower_bound(gm)

    def test_pair_selection_prefers_widest(self):
        import gmanvol as g

        gm = g.GraphManifold(
            (
                g.BundlePiece("A", 2, 1),
                g.BundlePiece("B", 2, 3),
                g.BundlePiece("C", 2, 2),
            ),
            (
                g.Edge(("A", 0), ("B", 0), J),
                g.Edge(("B", 1), ("C", 0), J),
                g.Edge(("B", 2), ("C", 1), MINUS_J),
            ),
        )
        cert = volume_lower_bound(gm)
        assert tuple(cert.plan.fillings) == ("B", "C")
        assert cert.plan.r == 2
        assert cert.bound == 16


class TestDriver:
    def test_swap_graph_goes_to_case2(self):
        cert = volume_lower_bound(two_piece_graph([J]))
        assert cert.to_document()["case"] == "e_zero_pmj"
        assert cert.bound == 8

    def test_generic_edge_goes_to_case1(self):
        cert = volume_lower_bound(two_piece_graph([M1110]))
        assert cert.to_document()["case"] == "e_nonzero"
        assert cert.bound == 4

    def test_invalid_graph_rejected(self):
        gm = two_piece_graph([J], genus_a=1)
        with pytest.raises(ValidationError):
            volume_lower_bound(gm)

    def test_positive_or_named_failure(self):
        rng = random.Random(404)
        outcomes = {"bound": 0, "pmj": 0, "boundary": 0}
        for i in range(50):
            gm = random_valid_graph(rng, style=("generic", "pmj", "mixed")[i % 3])
            try:
                cert = volume_lower_bound(gm)
            except PMJFormRequired:
                outcomes["pmj"] += 1
            except BoundaryCountTooSmall:
                outcomes["boundary"] += 1
            else:
                assert cert.bound > 0
                outcomes["bound"] += 1
        assert outcomes["bound"] > 0

    def test_determinism(self):
        gm = two_piece_graph([J] * 5)
        first = canonical_json_bytes(volume_lower_bound(gm).to_document())
        second = canonical_json_bytes(volume_lower_bound(gm).to_document())
        assert first == second

    def test_document_shape(self):
        cert = volume_lower_bound(two_piece_graph([J]))
        doc = cert.to_document()
        assert set(doc) == {
            "case",
            "cover_degree",
            "tower",
            "chosen",
            "filling_slopes",
            "bound_pi2",
            "side_conditions",
        }
        assert doc["bound_pi2"] == "8"
        assert doc["chosen"] == {"pieces": ["A", "B"], "r": 1}
        assert doc["filling_slopes"] == {"A:0": [1, -1], "B:0": [1, -1]}


class TestVolumeConfig:
    def test_negative_alpha_bound_rejected(self):
        for bound in (-1, -7, -(10**30)):
            with pytest.raises(GmanvolError, match=f"cannot be {bound}$"):
                VolumeConfig(alpha_bound=bound)

    def test_non_negative_alpha_bound_accepted(self):
        for bound in (0, 1, 10**30):
            assert VolumeConfig(alpha_bound=bound).alpha_bound == bound
        assert VolumeConfig().alpha_bound == 10**6

    def test_non_int_alpha_bound_rejected(self):
        for bound in (2.5, 3.0, Fraction(3), "3", None, True, False):
            with pytest.raises(TypeError, match="^alpha_bound must be an int, got "):
                VolumeConfig(alpha_bound=bound)

    def test_certificate_with_zero_bound(self):
        cert = volume_lower_bound(two_piece_graph([M1110]), VolumeConfig(alpha_bound=0))
        neighbor = cert.to_document()["side_conditions"][0]
        assert neighbor["translation_sum_bound"] == "0"
        assert neighbor["genus_threshold"] == "1/2"


class TestOnePass:
    """Each certificate validates once and frames each piece once."""

    @staticmethod
    def count_calls(monkeypatch, name, modules):
        calls = []
        original = getattr(gmanvol.graph, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module in modules:
            monkeypatch.setattr(module, name, counted)
        return calls

    def certified_graphs(self):
        for style in ("generic", "pmj"):
            for seed in range(12):
                gm = random_valid_graph(random.Random(seed), style=style)
                try:
                    case = volume_lower_bound(gm).to_document()["case"]
                except (PMJFormRequired, BoundaryCountTooSmall):
                    continue
                yield case, gm

    def test_both_cases_are_covered(self):
        assert {case for case, _ in self.certified_graphs()} == {"e_nonzero", "e_zero_pmj"}

    def test_filled_piece_table_once_per_certificate(self, monkeypatch):
        # The table frames every piece from the matrix entries; only the
        # plan's filled pieces are filled, once downstairs for the tower
        # prime and once for their Chern-Simons values, at the covered genus
        # that the tower's record gives, so the cover is never indexed.
        graphs = list(self.certified_graphs())
        tables = self.count_calls(
            monkeypatch, "_filled_piece_table", (gmanvol.graph, gmanvol.volume)
        )
        framings = self.count_calls(monkeypatch, "canonical_framing", (gmanvol.graph,))
        fillings = self.count_calls(
            monkeypatch, "filled_piece_invariants", (gmanvol.graph, gmanvol.coverings)
        )
        fills = self.count_calls(monkeypatch, "fill_framed_piece", (gmanvol.volume,))
        towers = set()
        for _, gm in graphs:
            for calls in (tables, framings, fillings, fills):
                calls.clear()
            cert = volume_lower_bound(gm)
            plan = cert.plan
            assert tables == [(gm,)] and framings == []
            assert [args[1] for args in fillings] == list(plan.fillings)
            if cert.tower:
                records = cert.tower[-1].certificate.per_piece
                genus = {pid: records[pid].genus_up for pid in plan.fillings}
                assert "_incidence" not in vars(cert.tower[-1].manifold)
            else:
                genus = {pid: gm.piece(pid).genus for pid in plan.fillings}
            assert fills == [(genus[pid], slopes) for pid, slopes in plan.fillings.items()]
            towers.add(bool(cert.tower))
        assert towers == {False, True}

    def test_fractions_depend_on_the_filled_pieces_only(self):
        # e(P) and chi stay integer ratios through the table and the plan
        # choice; Fractions are built only for the plan's filled pieces, so
        # their number does not grow with the graph.
        fraction_new = Fraction.__new__.__code__

        def fractions_built(gm):
            count = 0

            def profile(frame, event, arg):
                nonlocal count
                if event == "call" and frame.f_code is fraction_new:
                    count += 1

            previous = sys.getprofile()
            sys.setprofile(profile)
            try:
                cert = volume_lower_bound(gm)
            finally:
                sys.setprofile(previous)
            return count, cert.plan

        (small, small_plan), (large, large_plan) = (
            fractions_built(periodic_cycle(n)) for n in (100, 400)
        )
        assert small_plan == large_plan and small > 0
        assert small == large

    def test_volume_bound_verb_validates_once(self, monkeypatch, tmp_path):
        graphs = list(self.certified_graphs())
        calls = self.count_calls(
            monkeypatch, "validate", (gmanvol.graph, gmanvol.cli)
        )
        for index, (_, gm) in enumerate(graphs):
            path = tmp_path / f"graph-{index}.json"
            path.write_bytes(canonical_json_bytes(gmanvol.graph.graph_to_document(gm)))
            calls.clear()
            assert gmanvol.cli.run(["volume-bound", str(path)], io.StringIO(), io.StringIO()) == 0
            assert len(calls) == 1


# The certificate builders as they stood before both cases shared one path,
# kept verbatim apart from the ref_ names; ref_volume_lower_bound is the
# reference the one path is compared against.  The tower helper, the pi^2
# box and the ten-field certificate they build are frozen here too, as they
# stood before the plan became one value; the live cs and gv functions,
# which now return bare Fractions, are boxed at their call sites.


@dataclass(frozen=True)
class PiSquaredValue:
    """An exact rational multiple of pi^2."""

    coefficient: Fraction

    def __post_init__(self):
        object.__setattr__(self, "coefficient", Fraction(self.coefficient))


@dataclass(frozen=True)
class RefVolumeCertificate:
    """A checkable lower bound on the Seifert volume of an explicit cover.

    The asserted statement is SV(cover) >= bound, where the cover is the
    result of applying the covering tower (left to right) to the input and
    has degree total_cover_degree over it.
    """

    case_tag: str
    tower: tuple[CoveredGraph, ...]
    total_cover_degree: int
    chosen_piece: str | None
    chosen_pair: tuple[str, str] | None
    parallel_tori: int | None
    filling_slopes: dict[str, Slope]
    bound: PiSquaredValue
    side_conditions: tuple[dict, ...]
    covered_manifold: GraphManifold = field(repr=False)

    def to_document(self) -> dict:
        if self.case_tag == CASE_NONZERO:
            chosen = {"piece": self.chosen_piece}
        else:
            chosen = {"pieces": list(self.chosen_pair), "r": self.parallel_tori}
        return {
            "case": self.case_tag,
            "cover_degree": self.total_cover_degree,
            "tower": [certificate_to_document(stage.certificate) for stage in self.tower],
            "chosen": chosen,
            "filling_slopes": {
                key: [slope.a, slope.b]
                for key, slope in sorted(self.filling_slopes.items())
            },
            "bound_pi2": format_rational(self.bound.coefficient),
            "side_conditions": list(self.side_conditions),
        }


def ref_tower_for(gm: GraphManifold, q_needed: int) -> tuple[tuple[CoveredGraph, ...], GraphManifold, int]:
    """Build the characteristic tower reaching the required prime, if any.

    The constructor needs a prime above every boundary count in the whole
    graph, so the prime used is the smallest one that is at least q_needed
    and above every boundary count (the foliation test only gets easier as
    the covered genus grows).
    """
    if q_needed == 1:
        return (), gm, 1
    max_boundary = max(piece.boundary for piece in gm.pieces)
    q = next_prime_above(max(q_needed - 1, max_boundary))
    stage = characteristic_cover(gm, q)
    return (stage,), stage.manifold, stage.certificate.total_degree


class NotAdjacent(GmanvolError):
    """Raised by ref_case2_filling_slopes on a pair without a shared torus."""


def ref_filled_euler_table(gm: GraphManifold) -> dict[str, Fraction]:
    """Piece id -> Euler number of the piece filled along its canonical framing."""
    return {
        piece.id: euler_number(
            filled_piece_invariants(gm, piece.id, canonical_framing(gm, piece.id))
        )
        for piece in gm.pieces
    }


def ref_case1_bound(
    gm: GraphManifold, filled_euler: dict[str, Fraction], config: VolumeConfig
) -> RefVolumeCertificate:
    chosen = min(filled_euler, key=lambda pid: (-abs(filled_euler[pid]), pid))
    slopes = canonical_framing(gm, chosen)

    q_needed = min_prime_for_ehn_cover(gm, chosen, slopes)
    tower, covered, degree = ref_tower_for(gm, q_needed)
    cs = PiSquaredValue(cs_of_filled_piece(filled_piece_invariants(covered, chosen, slopes)))
    side_conditions = _commutator_side_conditions(gm, (chosen,), config)
    return RefVolumeCertificate(
        case_tag=CASE_NONZERO,
        tower=tower,
        total_cover_degree=degree,
        chosen_piece=chosen,
        chosen_pair=None,
        parallel_tori=None,
        filling_slopes={
            f"{chosen}:{slot}": slope for slot, slope in enumerate(slopes)
        },
        bound=PiSquaredValue(gv_of_certified_connection(abs(cs.coefficient))),
        side_conditions=tuple(side_conditions),
        covered_manifold=covered,
    )


def ref_case2_filling_slopes(
    gm: GraphManifold, piece1: str, piece2: str
) -> tuple[list[Slope], list[Slope], int]:
    """Per-slot filling slopes for both pieces of an adjacent pair.

    Shared tori are filled with the slope section-minus-fiber of each side;
    every other slot takes the canonical framing slope.  Returns the two
    slope lists and the number of shared tori.
    """
    chosen = {piece1, piece2}
    shared_slots: dict[str, set[int]] = {piece1: set(), piece2: set()}
    r = 0
    for edge in gm.edges:
        ends = {edge.tail[0], edge.head[0]}
        if ends == chosen:
            r += 1
            for pid, slot in (edge.tail, edge.head):
                shared_slots[pid].add(slot)
    if r == 0:
        raise NotAdjacent(f"pieces {piece1!r} and {piece2!r} share no gluing torus")

    slopes = {}
    for pid in (piece1, piece2):
        framing = canonical_framing(gm, pid)
        slopes[pid] = [
            SHARED_FILLING_SLOPE if slot in shared_slots[pid] else framing[slot]
            for slot in range(gm.piece(pid).boundary)
        ]
    return slopes[piece1], slopes[piece2], r


def ref_case2_bound(gm: GraphManifold, config: VolumeConfig) -> RefVolumeCertificate:
    if not is_pm_j_form(gm):
        raise PMJFormRequired(
            "absolute Euler number is zero but the gluing matrices are not all "
            "plus/minus swaps; the finite cover that normalizes a "
            "zero-absolute-Euler graph manifold into swap form is not "
            "constructed by this tool"
        )

    pair_count: dict[tuple[str, str], int] = {}
    for edge in gm.edges:
        pair = tuple(sorted((edge.tail[0], edge.head[0])))
        pair_count[pair] = pair_count.get(pair, 0) + 1
    piece1, piece2 = min(pair_count, key=lambda pair: (-pair_count[pair], pair))
    slopes1, slopes2, r = ref_case2_filling_slopes(gm, piece1, piece2)

    q_needed = max(
        min_prime_for_ehn_cover(gm, piece1, slopes1),
        min_prime_for_ehn_cover(gm, piece2, slopes2),
    )
    tower, covered, degree = ref_tower_for(gm, q_needed)
    cs1 = PiSquaredValue(cs_of_filled_piece(filled_piece_invariants(covered, piece1, slopes1)))
    cs2 = PiSquaredValue(cs_of_filled_piece(filled_piece_invariants(covered, piece2, slopes2)))
    cs_magnitude = PiSquaredValue(abs(cs1.coefficient) + abs(cs2.coefficient))
    if cs_magnitude.coefficient != 4 * r:
        raise AssertionError("combined Chern-Simons magnitude must equal 4r")
    e1, e2 = cs1.coefficient / 2, cs2.coefficient / 2

    side_conditions = [
        {
            "type": "boundary-normal-form-match",
            "pieces": [piece1, piece2],
            "rule": (
                "every plus/minus swap carries the section-minus-fiber slope of "
                "one side to that of the other, so the boundary connection "
                "normal forms on the shared tori agree with equal dx and dy "
                "coefficients"
            ),
        },
        {
            "type": "orientation-convention",
            "filled_euler": [format_rational(e1), format_rational(e2)],
            "rule": (
                "in the fixed transport convention both filled Euler numbers "
                "equal -r; the certified Chern-Simons magnitude "
                "2*pi^2*(|e1| + |e2|) does not depend on orientation bookkeeping"
            ),
        },
    ]
    side_conditions.extend(_commutator_side_conditions(gm, (piece1, piece2), config))

    filling = {f"{piece1}:{slot}": s for slot, s in enumerate(slopes1)}
    filling.update({f"{piece2}:{slot}": s for slot, s in enumerate(slopes2)})
    return RefVolumeCertificate(
        case_tag=CASE_ZERO_PMJ,
        tower=tower,
        total_cover_degree=degree,
        chosen_piece=None,
        chosen_pair=(piece1, piece2),
        parallel_tori=r,
        filling_slopes=filling,
        bound=PiSquaredValue(gv_of_certified_connection(cs_magnitude.coefficient)),
        side_conditions=tuple(side_conditions),
        covered_manifold=covered,
    )


def ref_volume_lower_bound(
    gm: GraphManifold, config: VolumeConfig | None = None
) -> RefVolumeCertificate:
    """Emit a positive Seifert-volume lower bound for a finite cover of gm."""
    _require_valid(gm)
    filled_euler = ref_filled_euler_table(gm)
    if any(filled_euler.values()):
        return ref_case1_bound(gm, filled_euler, config or VolumeConfig())
    return ref_case2_bound(gm, config or VolumeConfig())


def certificate_outcome(build, gm, config=None):
    """The certificate bytes and covered manifold, or the error type and message."""
    try:
        cert = build(gm, config)
    except GmanvolError as exc:
        return type(exc), str(exc)
    return canonical_json_bytes(cert.to_document()), covered_manifold(cert, gm)


def relabeled_shuffled(gm, rng):
    """gm with its piece ids permuted onto new names, built from shuffled lists."""
    names = [f"Q{i}" for i in range(len(gm.pieces))]
    rng.shuffle(names)
    new = {piece.id: name for piece, name in zip(gm.pieces, names)}
    pieces = [BundlePiece(new[p.id], p.genus, p.boundary) for p in gm.pieces]
    edges = [
        Edge((new[e.tail[0]], e.tail[1]), (new[e.head[0]], e.head[1]), e.matrix)
        for e in gm.edges
    ]
    rng.shuffle(pieces)
    rng.shuffle(edges)
    return GraphManifold(tuple(pieces), tuple(edges))


class TestOnePath:
    """volume_lower_bound against the two-case reference, byte for byte."""

    def check(self, gm, config=None) -> str:
        got = certificate_outcome(volume_lower_bound, gm, config)
        assert got == certificate_outcome(ref_volume_lower_bound, gm, config)
        if isinstance(got[0], bytes):
            return json.loads(got[0])["case"]
        return got[0].__name__

    def test_random_graphs_match_reference(self):
        outcomes = set()
        for style in ("generic", "pmj", "mixed"):
            for seed in range(20):
                rng = random.Random(seed)
                gm = random_valid_graph(rng, style=style)
                config = VolumeConfig(alpha_bound=seed)
                outcomes.add(self.check(gm))
                outcomes.add(self.check(relabeled_shuffled(gm, rng), config))
        assert outcomes == {"e_nonzero", "e_zero_pmj", "BoundaryCountTooSmall"}

    def test_two_piece_graphs_match_reference(self):
        m5 = ((5, 1), (1, 0))
        cases = [
            two_piece_graph([J]),
            two_piece_graph([MINUS_J]),
            two_piece_graph([J, MINUS_J, J]),
            two_piece_graph([J] * 5),
            two_piece_graph([J] * 3, genus_a=3, genus_b=4),
            two_piece_graph([M1110]),
            two_piece_graph([M1110, J]),
            two_piece_graph([M1110, M1110]),
            two_piece_graph([m5, m5]),
            two_piece_graph([((1, 2), (1, 1)), ((-1, 2), (1, -1))]),
            two_piece_graph([J], genus_a=1),
        ]
        outcomes = {self.check(gm) for gm in cases}
        assert outcomes == {
            "e_nonzero", "e_zero_pmj", "PMJFormRequired", "ValidationError",
        }

    def test_case_only_names_are_gone(self):
        for name in ("case1_bound", "case2_bound", "case2_euler_pair"):
            assert not hasattr(gmanvol.volume, name)
            assert not hasattr(gmanvol, name)
        for name in ("WrongCase", "NotPMJ", "NotAdjacent"):
            assert not hasattr(gmanvol.errors, name)
            assert not hasattr(gmanvol, name)
        assert not hasattr(gmanvol.volume, "PiSquaredValue")
        assert not hasattr(gmanvol, "PiSquaredValue")
        for name in ("_tower_for", "_swap_pair_plan"):
            assert not hasattr(gmanvol.volume, name)
        fields = {f.name for f in dataclasses.fields(VolumeCertificate)}
        for name in (
            "case_tag", "chosen_piece", "chosen_pair", "parallel_tori",
            "filling_slopes", "total_cover_degree",
        ):
            assert name not in fields

