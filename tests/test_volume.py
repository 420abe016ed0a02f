import io
import random
from fractions import Fraction

import pytest

from gmanvol import (
    BoundaryCountTooSmall,
    GluingMatrix,
    J,
    MINUS_J,
    NotAdjacent,
    PiSquaredValue,
    PMJFormRequired,
    SeifertInvariants,
    Slope,
    ValidationError,
    VolumeConfig,
    WrongCase,
    absolute_euler_number,
    canonical_framing,
    case1_bound,
    case2_bound,
    case2_euler_pair,
    cs_of_filled_piece,
    ehn_horizontal_foliation,
    EhnFails,
    GmanvolError,
    euler_number,
    filled_piece_invariants,
    gv_of_certified_connection,
    verify_covering_certificate,
    volume_lower_bound,
)
import gmanvol.cli
import gmanvol.graph
import gmanvol.volume
from gmanvol.serialize import canonical_json_bytes
from builders import random_valid_graph, two_piece_graph

M1110 = GluingMatrix.of(1, 1, 1, 0)


def recheck_foliation_at_tower_stage(cert):
    """Re-derive the foliation precondition on the final covered manifold."""
    final = cert.covered_manifold
    by_piece = {}
    for key, slope in cert.filling_slopes.items():
        pid, slot = key.rsplit(":", 1)
        by_piece.setdefault(pid, {})[int(slot)] = slope
    for pid, slots in by_piece.items():
        slopes = [slots[i] for i in range(len(slots))]
        assert ehn_horizontal_foliation(filled_piece_invariants(final, pid, slopes))


def recheck_tower_certificates(cert, base):
    """Each tower stage must verify against the stage it covers."""
    stage_base = base
    for stage in cert.tower:
        assert verify_covering_certificate(stage, stage_base) == []
        stage_base = stage.manifold
    assert cert.covered_manifold == stage_base


class TestClosedFormValues:
    def test_cs_negative(self):
        inv = SeifertInvariants(6, ((1, -1), (1, -1)))
        assert cs_of_filled_piece(inv).coefficient == -4

    def test_cs_zero(self):
        inv = SeifertInvariants(2, ((1, 0), (1, 0)))
        assert cs_of_filled_piece(inv).coefficient == 0

    def test_cs_positive(self):
        inv = SeifertInvariants(3, ((1, 3),))
        assert cs_of_filled_piece(inv).coefficient == 6

    def test_cs_requires_foliation(self):
        with pytest.raises(EhnFails):
            cs_of_filled_piece(SeifertInvariants(2, ((1, 3),)))

    def test_gv_doubles(self):
        assert gv_of_certified_connection(PiSquaredValue(Fraction(2))).coefficient == 4
        assert gv_of_certified_connection(PiSquaredValue(Fraction(0))).coefficient == 0
        assert gv_of_certified_connection(PiSquaredValue(Fraction(-4))).coefficient == -8


class TestCase1:
    def test_two_parallel_generic_edges(self):
        gm = two_piece_graph([M1110, M1110])
        cert = case1_bound(gm)
        assert cert.chosen_piece == "A"
        assert cert.bound.coefficient == 8
        assert cert.total_cover_degree == 1 and cert.tower == ()
        recheck_foliation_at_tower_stage(cert)

    def test_mixed_pair_of_edges(self):
        gm = two_piece_graph([M1110, J])
        cert = case1_bound(gm)
        assert cert.bound.coefficient == 4
        recheck_foliation_at_tower_stage(cert)

    def test_wrong_case(self):
        with pytest.raises(WrongCase):
            case1_bound(two_piece_graph([J]))

    def test_tower_emitted_when_needed(self):
        # Framing slope (1, -5) on both slots of A fails the foliation test
        # at genus 2 and needs the q = 3 cover (genus 6).
        m = GluingMatrix.of(5, 1, 1, 0)  # inverse sends (0,1) to (1,-5)
        gm = two_piece_graph([m, m])
        assert canonical_framing(gm, "A") == [Slope(1, -5), Slope(1, -5)]
        cert = case1_bound(gm)
        assert cert.chosen_piece == "A"
        assert cert.bound.coefficient == 40
        assert cert.total_cover_degree == 9
        assert cert.tower[0].certificate.characteristic_level == 3
        assert cert.covered_manifold.piece("A").genus == 6
        recheck_foliation_at_tower_stage(cert)
        recheck_tower_certificates(cert, gm)

    def test_bound_matches_recomputation_upstairs(self):
        m = GluingMatrix.of(5, 1, 1, 0)
        gm = two_piece_graph([m, m])
        cert = case1_bound(gm)
        final = cert.covered_manifold
        slopes = [cert.filling_slopes[f"A:{i}"] for i in range(2)]
        up = euler_number(filled_piece_invariants(final, "A", slopes))
        assert cert.bound.coefficient == 4 * abs(up)

    def test_side_conditions_structure(self):
        gm = two_piece_graph([M1110])
        cert = case1_bound(gm, VolumeConfig(alpha_bound=9))
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
        assert case2_euler_pair(gm, "A", "B") == (-1, -1, 1)

    def test_three_parallel_swaps(self):
        gm = two_piece_graph([J, J, J])
        assert case2_euler_pair(gm, "A", "B") == (-3, -3, 3)

    def test_negative_swap(self):
        gm = two_piece_graph([MINUS_J])
        assert case2_euler_pair(gm, "A", "B") == (-1, -1, 1)

    def test_not_adjacent(self):
        import gmanvol as g

        gm = g.GraphManifold(
            (
                g.BundlePiece("A", 2, 1),
                g.BundlePiece("B", 2, 2),
                g.BundlePiece("C", 2, 1),
            ),
            (
                g.Edge(("A", 0), ("B", 0), J),
                g.Edge(("B", 1), ("C", 0), J),
            ),
        )
        with pytest.raises(NotAdjacent):
            case2_euler_pair(gm, "A", "C")


class TestCase2Bound:
    def test_single_swap(self):
        cert = case2_bound(two_piece_graph([J]))
        assert cert.bound.coefficient == 8
        assert cert.parallel_tori == 1
        assert cert.total_cover_degree == 1
        recheck_foliation_at_tower_stage(cert)

    def test_five_parallel_swaps(self):
        gm = two_piece_graph([J] * 5)
        cert = case2_bound(gm)
        assert cert.bound.coefficient == 40
        assert cert.total_cover_degree == 49
        assert cert.tower[0].certificate.characteristic_level == 7
        assert cert.covered_manifold.piece("A").genus == 23
        recheck_foliation_at_tower_stage(cert)
        recheck_tower_certificates(cert, gm)

    def test_pmj_required(self):
        # Filled Euler numbers 1/2 - 1/2 cancel on both sides, so the
        # absolute Euler number vanishes without the matrices being swaps.
        gm = two_piece_graph(
            [GluingMatrix.of(1, 2, 1, 1), GluingMatrix.of(-1, 2, 1, -1)]
        )
        assert absolute_euler_number(gm) == 0
        with pytest.raises(PMJFormRequired):
            case2_bound(gm)

    def test_wrong_case(self):
        with pytest.raises(WrongCase):
            case2_bound(two_piece_graph([M1110]))

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
        cert = case2_bound(gm)
        assert cert.chosen_pair == ("B", "C")
        assert cert.parallel_tori == 2
        assert cert.bound.coefficient == 16


class TestDriver:
    def test_swap_graph_goes_to_case2(self):
        cert = volume_lower_bound(two_piece_graph([J]))
        assert cert.case_tag == "e_zero_pmj"
        assert cert.bound.coefficient == 8

    def test_generic_edge_goes_to_case1(self):
        cert = volume_lower_bound(two_piece_graph([M1110]))
        assert cert.case_tag == "e_nonzero"
        assert cert.bound.coefficient == 4

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
                assert cert.bound.coefficient > 0
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
                    case = volume_lower_bound(gm).case_tag
                except (PMJFormRequired, BoundaryCountTooSmall):
                    continue
                yield case, gm

    def test_both_cases_are_covered(self):
        assert {case for case, _ in self.certified_graphs()} == {"e_nonzero", "e_zero_pmj"}

    def test_canonical_framing_at_most_pieces_plus_two(self, monkeypatch):
        graphs = list(self.certified_graphs())
        calls = self.count_calls(
            monkeypatch, "canonical_framing", (gmanvol.graph, gmanvol.volume)
        )
        for _, gm in graphs:
            calls.clear()
            volume_lower_bound(gm)
            assert len(calls) <= len(gm.pieces) + 2

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
