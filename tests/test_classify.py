import pytest

from gmanvol import (
    BundlePiece,
    GeometryType,
    GraphManifold,
    SeifertInvariants,
    ValidationError,
    geometry_finiteness,
    mapping_degree_finiteness,
    parse_graph,
)
from gmanvol.classify import KIND_HYPERBOLIC, KIND_TORUS_BUNDLE_COVERED


class TestGeometryFiniteness:
    def test_full_table(self):
        expected = {
            GeometryType.SL2TILDE: "finite",
            GeometryType.SPHERICAL: "infinite",
            GeometryType.S2XR: "infinite",
            GeometryType.EUCLIDEAN: "infinite",
            GeometryType.NIL: "infinite",
            GeometryType.H2XR: "infinite",
        }
        for geom in GeometryType:
            verdict = geometry_finiteness(geom)
            assert verdict.verdict == expected[geom]
            assert verdict.reason

    def test_only_sl2tilde_is_finite(self):
        finite = [g for g in GeometryType if geometry_finiteness(g).verdict == "finite"]
        assert finite == [GeometryType.SL2TILDE]


class TestMappingDegreeFiniteness:
    def test_seifert_sl2tilde(self):
        inv = SeifertInvariants(0, ((2, 1), (3, 1), (7, 1)))
        verdict = mapping_degree_finiteness(inv)
        assert verdict.verdict == "finite"
        assert verdict.reason == "positive-seifert-volume"

    def test_seifert_product_geometry(self):
        verdict = mapping_degree_finiteness(SeifertInvariants(2))
        assert verdict.verdict == "infinite"

    def test_torus_bundle_flag(self):
        verdict = mapping_degree_finiteness(KIND_TORUS_BUNDLE_COVERED)
        assert verdict.verdict == "infinite"
        assert verdict.reason == "finitely-covered-by-torus-bundle"

    def test_hyperbolic_flag(self):
        verdict = mapping_degree_finiteness(KIND_HYPERBOLIC)
        assert verdict.verdict == "finite"
        assert verdict.reason == "positive-simplicial-volume"

    def test_graph_corpus_is_finite(self, corpus_paths):
        for path in corpus_paths:
            gm = parse_graph(path.read_bytes())
            verdict = mapping_degree_finiteness(gm)
            assert verdict.verdict == "finite"
            assert verdict.reason

    def test_invalid_graph_rejected(self):
        from gmanvol import Edge, J

        gm = GraphManifold(
            (BundlePiece("A", 1, 1), BundlePiece("B", 2, 1)),
            (Edge(("A", 0), ("B", 0), J),),
        )
        with pytest.raises(ValidationError):
            mapping_degree_finiteness(gm)

    @pytest.mark.parametrize("target", ["nonsense", "seifert", None])
    def test_unknown_target_rejected(self, target):
        with pytest.raises(ValueError, match="unknown target"):
            mapping_degree_finiteness(target)

    def test_verdict_document(self):
        verdict = mapping_degree_finiteness(KIND_HYPERBOLIC)
        assert verdict.to_document() == {
            "verdict": "finite",
            "reason": "positive-simplicial-volume",
        }
