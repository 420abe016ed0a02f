import io
import json
import os
import random
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import gmanvol
from gmanvol import GmanvolError, NotPrime, ParseError, ValidationError
from gmanvol import parse_graph, verify_covering_certificate
from gmanvol import cli, graph, seifert
from gmanvol.cli import run
from gmanvol.coverings import covered_graph_from_document
from builders import random_valid_graph


SRC_DIR = Path(__file__).resolve().parents[1] / "src"
GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def _cap_address_space():
    limit = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def invoke_subprocess(argv, timeout=30):
    """Run the CLI in a child capped at 1 GiB of address space and a timeout.

    A hang or a memory blow-up then fails the test instead of stalling or
    exhausting the machine.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    proc = subprocess.run(
        [sys.executable, "-m", "gmanvol.cli", *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
        preexec_fn=_cap_address_space,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture
def double_j(corpus_paths):
    return next(p for p in corpus_paths if p.name == "double-J.json")


@pytest.fixture
def edge_1110(corpus_paths):
    return next(p for p in corpus_paths if p.name == "edge-1110.json")


class TestValidateVerb:
    def test_valid_corpus(self, corpus_paths):
        for path in corpus_paths:
            code, out, err = invoke(["validate", str(path)])
            assert code == 0
            assert json.loads(out) == []
            assert err == ""

    def test_self_loop_exits_one(self, tmp_path):
        doc = {
            "pieces": [{"id": "A", "genus": 2, "boundary": 2}],
            "edges": [{"tail": ["A", 0], "head": ["A", 1], "matrix": [[0, 1], [1, 0]]}],
        }
        path = tmp_path / "selfloop.json"
        path.write_text(json.dumps(doc))
        code, out, _ = invoke(["validate", str(path)])
        assert code == 1
        assert any("joins a piece to itself" in line for line in json.loads(out))


class TestInvariantsVerb:
    def test_edge_1110(self, edge_1110):
        code, out, _ = invoke(["invariants", str(edge_1110)])
        assert code == 0
        doc = json.loads(out)
        assert doc["absolute_euler_number"] == "1"
        assert doc["pieces"]["A"]["filled_euler_number"] == "-1"
        assert doc["pieces"]["A"]["canonical_framing"] == [[1, -1]]
        assert doc["pieces"]["B"]["filled_euler_number"] == "0"

    def test_seeded_graphs_match_fraction_recomputation(self, tmp_path):
        # The verb reduces the table's integer ratios only when it prints
        # them; each value must equal the Fraction recomputed from the
        # filled piece, and the library's |e| must equal their sum.
        path = tmp_path / "graph.json"
        for style in ("generic", "mixed", "pmj"):
            for seed in range(300):
                gm = random_valid_graph(random.Random(seed), style=style)
                path.write_bytes(gmanvol.serialize_graph(gm))
                pieces, total = {}, Fraction(0)
                for piece in gm.pieces:
                    framing = gmanvol.canonical_framing(gm, piece.id)
                    filled = gmanvol.fill_framed_piece(piece.genus, framing)
                    e = gmanvol.euler_number(filled)
                    chi = gmanvol.orbifold_euler_char(filled)
                    total += abs(e)
                    pieces[piece.id] = {
                        "genus": piece.genus,
                        "boundary": piece.boundary,
                        "canonical_framing": [[slope.a, slope.b] for slope in framing],
                        "filled_euler_number": str(e),
                        "filled_orbifold_euler_char": str(chi),
                        "filled_geometry": gmanvol.geometry_type(filled).value,
                    }
                code, out, err = invoke(["invariants", str(path)])
                assert (code, err) == (0, "")
                assert json.loads(out) == {"absolute_euler_number": str(total), "pieces": pieces}
                absolute = gmanvol.absolute_euler_number(gm)
                assert type(absolute) is Fraction and absolute == total

    def test_filled_geometry_reported(self, double_j):
        code, out, _ = invoke(["invariants", str(double_j)])
        doc = json.loads(out)
        assert doc["pieces"]["A"]["filled_geometry"] == "h2xr"

    def test_each_invariant_computed_once_per_piece(self, corpus_paths, monkeypatch):
        # The filled-piece table computes every piece's framing, e and chi
        # from the matrix entries in one pass, so the verb builds it once
        # and calls none of the per-piece functions.  Each function is
        # patched in every module that binds it.
        names = (
            "_filled_piece_table",
            "canonical_framing",
            "filled_piece_invariants",
            "fill_framed_piece",
            "euler_number",
            "orbifold_euler_char",
        )
        modules = (graph, seifert, cli, gmanvol.volume, gmanvol.coverings)
        calls = {name: [] for name in names}

        def counted(name, original):
            def wrapper(*args):
                result = original(*args)
                calls[name].append(result)
                return result

            return wrapper

        for name in names:
            original = getattr(graph if hasattr(graph, name) else seifert, name)
            wrapper = counted(name, original)
            for module in modules:
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, wrapper)
        for path in corpus_paths:
            for made in calls.values():
                made.clear()
            code, out, _ = invoke(["invariants", str(path)])
            assert code == 0
            (table,) = calls["_filled_piece_table"]
            assert list(table) == list(json.loads(out)["pieces"])
            assert all(calls[name] == [] for name in names[1:])


class TestCoverVerb:
    def test_characteristic_on_suitable_corpus(self, corpus_paths):
        for path in corpus_paths:
            gm = parse_graph(path.read_bytes())
            if any(p.boundary < 2 for p in gm.pieces):
                continue
            prime = {2: 3, 3: 5}.get(max(p.boundary for p in gm.pieces), 7)
            code, out, _ = invoke(
                ["cover", str(path), "--mode", "characteristic", "--prime", str(prime)]
            )
            assert code == 0
            cov = covered_graph_from_document(json.loads(out))
            assert verify_covering_certificate(cov, gm) == []

    def test_genus_raising_on_whole_corpus(self, corpus_paths):
        for path in corpus_paths:
            gm = parse_graph(path.read_bytes())
            center = gm.pieces[0].id
            code, out, _ = invoke(
                [
                    "cover",
                    str(path),
                    "--mode",
                    "genus-raising",
                    "--center",
                    center,
                    "--prime",
                    "3",
                ]
            )
            assert code == 0
            cov = covered_graph_from_document(json.loads(out))
            assert verify_covering_certificate(cov, gm) == []

    def test_cover_output_revalidates(self, double_j, tmp_path):
        code, out, _ = invoke(
            ["cover", str(double_j), "--mode", "genus-raising", "--center", "A",
             "--prime", "2"]
        )
        assert code == 0
        # The cover document parses and validates as a graph in its own right.
        gm = parse_graph(out.encode())
        assert gm.piece("B").genus == 3
        echoed = tmp_path / "cover.json"
        echoed.write_text(out)
        code2, out2, _ = invoke(["validate", str(echoed)])
        assert code2 == 0 and json.loads(out2) == []

    def test_non_prime_exits_two(self, double_j):
        code, _, err = invoke(
            ["cover", str(double_j), "--mode", "genus-raising", "--center", "A",
             "--prime", "4"]
        )
        assert code == 2
        assert json.loads(err)["error"] == "NotPrime"

    def test_small_prime_exits_two(self, corpus_paths):
        path = next(p for p in corpus_paths if p.name == "parallel-J2.json")
        code, _, err = invoke(
            ["cover", str(path), "--mode", "characteristic", "--prime", "2"]
        )
        assert code == 2
        assert json.loads(err)["error"] == "PrimeTooSmall"

    def test_single_boundary_exits_two(self, double_j):
        code, _, err = invoke(
            ["cover", str(double_j), "--mode", "characteristic", "--prime", "3"]
        )
        assert code == 2
        assert json.loads(err)["error"] == "BoundaryCountTooSmall"

    def test_missing_center_exits_two(self, double_j):
        code, _, err = invoke(
            ["cover", str(double_j), "--mode", "genus-raising", "--prime", "3"]
        )
        assert code == 2
        assert "--center" in json.loads(err)["message"]


class TestVolumeBoundVerb:
    def test_double_j_bound(self, double_j):
        code, out, _ = invoke(["volume-bound", str(double_j)])
        assert code == 0
        doc = json.loads(out)
        assert doc["bound_pi2"] == "8"
        assert doc["case"] == "e_zero_pmj"
        assert doc["cover_degree"] == 1

    def test_edge_1110_bound(self, edge_1110):
        code, out, _ = invoke(["volume-bound", str(edge_1110)])
        doc = json.loads(out)
        assert doc["bound_pi2"] == "4"
        assert doc["case"] == "e_nonzero"

    def test_alpha_bound_flag(self, edge_1110):
        code, out, _ = invoke(["volume-bound", str(edge_1110), "--alpha-bound", "99"])
        doc = json.loads(out)
        neighbor = doc["side_conditions"][0]
        assert neighbor["translation_sum_bound"] == "99"
        assert neighbor["genus_threshold"] == "50"

    def test_negative_alpha_bound_exits_two(self, corpus_paths):
        star = next(p for p in corpus_paths if p.name == "star-3.json")
        code, out, err = invoke(["volume-bound", str(star), "--alpha-bound", "-7"])
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "GmanvolError",
            "file": str(star),
            "message": "alpha_bound bounds an absolute value, so it cannot be -7",
        }

    def test_zero_alpha_bound_accepted(self, edge_1110):
        code, out, _ = invoke(["volume-bound", str(edge_1110), "--alpha-bound", "0"])
        assert code == 0
        assert json.loads(out)["side_conditions"][0]["translation_sum_bound"] == "0"

    def test_pmj_required_exits_two(self, tmp_path):
        doc = {
            "pieces": [
                {"id": "A", "genus": 2, "boundary": 2},
                {"id": "B", "genus": 2, "boundary": 2},
            ],
            "edges": [
                {"tail": ["A", 0], "head": ["B", 0], "matrix": [[1, 2], [1, 1]]},
                {"tail": ["A", 1], "head": ["B", 1], "matrix": [[-1, 2], [1, -1]]},
            ],
        }
        path = tmp_path / "zero-not-pmj.json"
        path.write_text(json.dumps(doc))
        code, _, err = invoke(["volume-bound", str(path)])
        assert code == 2
        assert json.loads(err)["error"] == "PMJFormRequired"


class TestClassifyVerb:
    def test_graph_document(self, double_j):
        code, out, _ = invoke(["classify", str(double_j)])
        assert code == 0
        assert json.loads(out) == {
            "verdict": "finite",
            "reason": "nontrivial-graph-manifold-virtually-positive-seifert-volume",
        }

    def test_seifert_document(self, tmp_path):
        path = tmp_path / "seifert.json"
        path.write_text(
            json.dumps({"kind": "seifert", "genus": 0,
                        "exceptional": [[2, 1], [3, 1], [7, 1]]})
        )
        code, out, _ = invoke(["classify", str(path)])
        assert json.loads(out) == {
            "verdict": "finite",
            "reason": "positive-seifert-volume",
        }

    def test_flag_documents(self, tmp_path):
        torus = tmp_path / "torus.json"
        torus.write_text(json.dumps({"kind": "torus-bundle-covered"}))
        code, out, _ = invoke(["classify", str(torus)])
        assert json.loads(out)["verdict"] == "infinite"

        hyp = tmp_path / "hyp.json"
        hyp.write_text(
            json.dumps({"kind": "hyperbolic-or-contains-hyperbolic-piece"})
        )
        code, out, _ = invoke(["classify", str(hyp)])
        assert json.loads(out)["verdict"] == "finite"

    def test_unknown_kind_exits_three(self, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({"kind": "mystery"}))
        code, _, err = invoke(["classify", str(path)])
        assert code == 3
        assert json.loads(err)["error"] == "ParseError"

    def test_unknown_keys_exit_three(self, tmp_path):
        cases = {
            "misspelled": (
                {"kind": "seifert", "genus": 0, "exceptionals": [[2, 1], [3, 1], [7, 1]]},
                "unexpected keys in Seifert description: ['exceptionals']",
            ),
            "torus-extra": (
                {"kind": "torus-bundle-covered", "genus": 1},
                "unexpected keys in torus-bundle-covered description: ['genus']",
            ),
            "hyperbolic-extra": (
                {"kind": "hyperbolic-or-contains-hyperbolic-piece", "volume": 2},
                "unexpected keys in hyperbolic-or-contains-hyperbolic-piece "
                "description: ['volume']",
            ),
            # Rejected before the key check, with the message it always had.
            "no-genus": (
                {"kind": "seifert", "exceptionals": []},
                "malformed Seifert description: 'genus'",
            ),
        }
        for name, (doc, message) in cases.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc))
            code, out, err = invoke(["classify", str(path)])
            assert (code, out) == (3, ""), name
            assert json.loads(err)["error"] == "ParseError", name
            assert json.loads(err)["message"] == message, name


class TestExitCodesAndDeterminism:
    def test_parse_error_exits_three(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = invoke(["validate", str(path)])
        assert code == 3
        assert json.loads(err)["error"] == "ParseError"

    def test_missing_file_exits_three(self, tmp_path):
        code, _, err = invoke(["validate", str(tmp_path / "absent.json")])
        assert code == 3

    def test_invalid_input_to_invariants_exits_one(self, tmp_path):
        doc = {
            "pieces": [
                {"id": "A", "genus": 1, "boundary": 1},
                {"id": "B", "genus": 2, "boundary": 1},
            ],
            "edges": [{"tail": ["A", 0], "head": ["B", 0], "matrix": [[0, 1], [1, 0]]}],
        }
        path = tmp_path / "lowgenus.json"
        path.write_text(json.dumps(doc))
        code, _, err = invoke(["invariants", str(path)])
        assert code == 1
        assert json.loads(err)["error"] == "ValidationError"

    def test_every_error_type_carries_its_readme_code(self):
        errors = [
            value
            for name in gmanvol.__all__
            if isinstance(value := getattr(gmanvol, name), type)
            and issubclass(value, GmanvolError)
        ]
        assert len(errors) > 3
        for error in errors:
            expected = {ParseError: 3, ValidationError: 1}.get(error, 2)
            assert error.exit_code == expected, error.__name__

    @pytest.mark.parametrize(
        "exc", [ParseError("p"), ValidationError(["v"]), NotPrime("n")],
        ids=lambda exc: type(exc).__name__,
    )
    def test_run_exits_with_the_error_code(self, exc, double_j, monkeypatch):
        def fail(path, args):
            raise exc

        monkeypatch.setitem(cli._RUNNERS, "validate", fail)
        code, out, err = invoke(["validate", str(double_j)])
        assert (code, out) == (exc.exit_code, "")
        assert json.loads(err)["error"] == type(exc).__name__

    def test_utf8_error_text_is_shared(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b"\xff")
        with pytest.raises(ParseError) as raised:
            parse_graph(b"\xff")
        code, _, err = invoke(["validate", str(path)])
        assert code == 3
        library = str(raised.value).removeprefix("document")
        assert library.startswith(" is not UTF-8: ")
        assert json.loads(err)["message"] == f"{path}{library}"

    def test_byte_identical_reruns(self, corpus_paths):
        for path in corpus_paths:
            for argv in (
                ["invariants", str(path)],
                ["volume-bound", str(path)],
                ["classify", str(path)],
            ):
                first = invoke(argv)
                second = invoke(argv)
                assert first == second

    def test_multiple_files_in_order(self, corpus_paths):
        argv = ["classify"] + [str(p) for p in corpus_paths]
        code, out, _ = invoke(argv)
        assert code == 0
        assert len(out.strip().splitlines()) == len(corpus_paths)

    def test_files_after_first_failure_are_not_read(self, corpus_paths, monkeypatch):
        loaded = []
        load = cli._load_document

        def counting_load(path):
            loaded.append(path)
            return load(path)

        monkeypatch.setattr(cli, "_load_document", counting_load)
        good = str(corpus_paths[0])
        invalid = str(GOLDEN_INPUTS / "unused-slot.json")
        code, out, err = invoke(["invariants", good, invalid, good])
        assert code == 1
        assert len(out.splitlines()) == 1
        assert json.loads(err)["error"] == "ValidationError"
        assert [str(p) for p in loaded] == [good, invalid]

    def test_pretty_flag(self, double_j):
        code, out, _ = invoke(["volume-bound", str(double_j), "--pretty"])
        assert code == 0
        assert out.startswith("{\n")
        assert json.loads(out)["bound_pi2"] == "8"


class TestFileNames:
    """Every error is one document that names the file exactly as given."""

    LOW_GENUS = {
        "pieces": [{"id": "A", "genus": 1, "boundary": 1}, {"id": "B", "genus": 2, "boundary": 1}],
        "edges": [{"tail": ["A", 0], "head": ["B", 0], "matrix": [[0, 1], [1, 0]]}],
    }

    def _error(self, argv, code, error):
        got_code, out, err = invoke_subprocess(argv)
        assert (got_code, out) == (code, "")
        assert err.index("\n") == len(err) - 1
        doc = json.loads(err)
        assert doc.keys() == {"error", "file", "message"}
        assert (doc["error"], doc["file"]) == (error, argv[1])
        return doc["message"]

    @pytest.mark.parametrize("name", ["./name.json", "dir//name.json"])
    def test_name_kept_verbatim(self, name, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "dir").mkdir()
        assert self._error(["validate", name], 3, "ParseError") == (
            "cannot read: No such file or directory"
        )
        (tmp_path / name).write_text("{not json")
        assert self._error(["invariants", name], 3, "ParseError").startswith(
            f"{name} is not valid JSON: "
        )
        (tmp_path / name).write_text(json.dumps(self.LOW_GENUS))
        self._error(["invariants", name], 1, "ValidationError")

    def test_read_failure_without_os_text(self, monkeypatch):
        def failing_open(path, mode):
            raise OSError("device gone")

        monkeypatch.setattr(cli, "open", failing_open, raising=False)
        code, out, err = invoke(["validate", "name.json"])
        assert (code, out) == (3, "")
        assert json.loads(err)["message"] == "cannot read: device gone"

    def test_trailing_slash_on_a_file(self, double_j, tmp_path):
        path = tmp_path / "name.json"
        path.write_bytes(double_j.read_bytes())
        assert invoke_subprocess(["volume-bound", str(path)])[0] == 0
        self._error(["volume-bound", f"{path}/"], 3, "ParseError")

    @pytest.mark.parametrize(
        "content, code, error",
        [(None, 3, "ParseError"), (json.dumps(LOW_GENUS), 1, "ValidationError"),
         ("{not json", 3, "ParseError")],
        ids=["missing", "invalid-graph", "not-json"],
    )
    def test_name_that_is_not_utf8(self, content, code, error, tmp_path):
        path = tmp_path / os.fsdecode(b"\xff.json")
        if content is not None:
            path.write_text(content)
        self._error(["invariants", str(path)], code, error)


class TestParser:
    def test_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_flags_do_not_carry_over(self):
        path = str(GOLDEN_INPUTS / "unused-slot.json")
        code, pretty, _ = invoke(["validate", "--pretty", path])
        assert code == 1
        assert len(pretty.splitlines()) > 1
        code, compact, _ = invoke(["validate", path])
        assert code == 1
        assert len(compact.splitlines()) == 1
        assert json.loads(compact) == json.loads(pretty)

    def test_missing_files_exit_two_every_time(self, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                invoke(["validate"])
            assert exc.value.code == 2
            assert "files" in capsys.readouterr().err


class TestHostileInputs:
    """Each input must end in a named JSON error, never a traceback or a hang."""

    def _expect_error(self, argv, code, error):
        got_code, out, err = invoke_subprocess(argv)
        assert (got_code, out) == (code, "")
        assert json.loads(err)["error"] == error

    def test_integer_beyond_digit_limit(self, tmp_path):
        path = tmp_path / "long-int.json"
        path.write_text(
            '{"pieces": [{"id": "A", "genus": ' + "9" * 5000 + ', "boundary": 1}], '
            '"edges": []}'
        )
        self._expect_error(["validate", str(path)], 3, "ParseError")

    def test_endless_file(self):
        got_code, out, err = invoke_subprocess(["validate", "/dev/zero"])
        assert (got_code, out) == (3, "")
        assert err.index("\n") == len(err) - 1
        assert json.loads(err) == {
            "error": "ParseError",
            "file": "/dev/zero",
            "message": f"input is larger than the limit of {cli.MAX_INPUT_BYTES} bytes",
        }

    @pytest.mark.parametrize("limit", [300, 100_000, 3 * 2**16])
    def test_size_limit_boundary(self, limit, double_j, tmp_path, monkeypatch):
        # Trailing white space keeps the document valid.  The larger limits
        # are past the first read of the file, and the largest spans several
        # reads and ends on a read's boundary.
        data = double_j.read_bytes()
        data += b" " * (limit - len(data))
        monkeypatch.setattr(cli, "MAX_INPUT_BYTES", limit)
        path = tmp_path / "name.json"
        path.write_bytes(data)
        assert invoke(["validate", str(path)]) == (0, "[]\n", "")
        path.write_bytes(data + b" ")
        code, out, err = invoke(["validate", str(path)])
        assert (code, out) == (3, "")
        assert json.loads(err)["message"] == (
            f"input is larger than the limit of {limit} bytes"
        )

    def test_reads_are_bounded(self, double_j, tmp_path, monkeypatch):
        # A read of n bytes allocates n bytes before it reads, so a file
        # larger than one read is read in pieces of at most 64 KiB.
        path = tmp_path / "name.json"
        path.write_bytes(double_j.read_bytes() + b" " * 5 * 2**15)
        sizes = []

        class RecordingFile:
            def __init__(self, file):
                self.file = file

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.file.close()

            def read(self, size=-1):
                sizes.append(size)
                return self.file.read(size)

        monkeypatch.setattr(
            cli, "open", lambda *args: RecordingFile(open(*args)), raising=False
        )
        assert invoke(["validate", str(path)]) == (0, "[]\n", "")
        assert len(sizes) >= 3 and all(0 < size <= 2**16 for size in sizes), sizes

    def test_deep_nesting(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        self._expect_error(["invariants", str(path)], 3, "ParseError")

    def test_lone_surrogate_piece_id(self, tmp_path):
        for where in ("piece", "edge"):
            bad = "\ud800"
            doc = {
                "pieces": [
                    {"id": bad if where == "piece" else "A", "genus": 2, "boundary": 1},
                    {"id": "B", "genus": 2, "boundary": 1},
                ],
                "edges": [
                    {"tail": [bad if where == "edge" else "A", 0], "head": ["B", 0],
                     "matrix": [[0, 1], [1, 0]]}
                ],
            }
            path = tmp_path / f"surrogate-{where}.json"
            path.write_text(json.dumps(doc))
            self._expect_error(["invariants", str(path)], 3, "ParseError")

    def test_huge_boundary_count(self, tmp_path):
        # One unused slot per line would print 10**30 lines.
        doc = {
            "pieces": [
                {"id": "A", "genus": 2, "boundary": 10**30},
                {"id": "B", "genus": 2, "boundary": 1},
            ],
            "edges": [{"tail": ["A", 0], "head": ["B", 0], "matrix": [[0, 1], [1, 0]]}],
        }
        path = tmp_path / "huge-boundary.json"
        path.write_text(json.dumps(doc))
        code, out, err = invoke_subprocess(["validate", str(path)], timeout=10)
        assert (code, err) == (1, "")
        assert len(out) < 1000
        assert json.loads(out)[-1].startswith(f"piece 'A': {10**30 - 5} more slots")
        code, out, err = invoke_subprocess(["invariants", str(path)], timeout=10)
        assert (code, out) == (1, "")
        assert len(err) < 2000
        assert json.loads(err)["error"] == "ValidationError"

    def test_seifert_document_types(self, tmp_path):
        for name, doc in {
            "bool-genus": {"kind": "seifert", "genus": True},
            "float-alpha": {"kind": "seifert", "genus": 2, "exceptional": [[2.7, 1]]},
            "string-beta": {"kind": "seifert", "genus": 2, "exceptional": [[2, "1"]]},
        }.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc))
            self._expect_error(["classify", str(path)], 3, "ParseError")

    def test_prime_beyond_exact_test(self, corpus_paths):
        triangle = next(p for p in corpus_paths if p.name == "triangle.json")
        self._expect_error(
            ["cover", str(triangle), "--mode", "characteristic",
             "--prime", "3317044064679887385961981"],
            2,
            "PrimeTooLarge",
        )
        code, out, _ = invoke_subprocess(
            ["cover", str(triangle), "--mode", "characteristic",
             "--prime", "1000000000000000003"]
        )
        assert code == 0
        assert json.loads(out)["certificate"]["characteristic_level"] == 10**18 + 3

    def test_tower_prime_beyond_exact_test(self, tmp_path):
        # Filling B along (1, 10^25) twice needs a prime near 5 * 10^24.
        matrix = [[0, 1], [1, 10**25]]
        doc = {
            "pieces": [
                {"id": "A", "genus": 2, "boundary": 2},
                {"id": "B", "genus": 2, "boundary": 2},
            ],
            "edges": [
                {"tail": ["A", i], "head": ["B", i], "matrix": matrix} for i in range(2)
            ],
        }
        path = tmp_path / "huge-beta.json"
        path.write_text(json.dumps(doc))
        self._expect_error(["volume-bound", str(path)], 2, "PrimeTooLarge")

    def test_genus_raising_cover_too_many_pieces(self, corpus_paths):
        star = next(p for p in corpus_paths if p.name == "star-3.json")
        self._expect_error(
            ["cover", str(star), "--mode", "genus-raising", "--center", "B",
             "--prime", "10000019"],
            2,
            "CoverTooLarge",
        )

    def test_genus_raising_cover_too_many_tori(self, tmp_path):
        # 1 + 200 pieces upstairs would pass; 200 * 1009 gluing tori do not.
        leaves = [f"L{i:03d}" for i in range(200)]
        doc = {
            "pieces": [{"id": "C", "genus": 2, "boundary": 200}]
            + [{"id": leaf, "genus": 2, "boundary": 1} for leaf in leaves],
            "edges": [
                {"tail": ["C", i], "head": [leaf, 0], "matrix": [[0, 1], [1, 0]]}
                for i, leaf in enumerate(leaves)
            ],
        }
        path = tmp_path / "wide-star.json"
        path.write_text(json.dumps(doc))
        self._expect_error(
            ["cover", str(path), "--mode", "genus-raising", "--center", "C",
             "--prime", "1009"],
            2,
            "CoverTooLarge",
        )

    def test_rational_too_long_to_print(self, tmp_path):
        # The input parses and validates, but the centre's filled Euler
        # number has a denominator of about 5000 digits.
        b = 10**1000
        leaves = [f"L{k}" for k in range(5)]
        doc = {
            "pieces": [{"id": "C", "genus": 2, "boundary": 5}]
            + [{"id": leaf, "genus": 2, "boundary": 1} for leaf in leaves],
            "edges": [
                {"tail": ["C", slot], "head": [leaf, 0],
                 "matrix": [[1, b + k], [1, b + k - 1]]}
                for slot, (leaf, k) in enumerate(zip(leaves, (1, 3, 7, 9, 13)))
            ],
        }
        path = tmp_path / "long-rational.json"
        path.write_text(json.dumps(doc))
        self._expect_error(["invariants", str(path)], 2, "RationalTooLong")

    def test_determinant_beyond_digit_limit(self, tmp_path):
        # The input integers print, but the determinant has 8,599 digits.
        big = 10**4299
        doc = {
            "pieces": [
                {"id": "A", "genus": 2, "boundary": 1},
                {"id": "B", "genus": 2, "boundary": 1},
            ],
            "edges": [{"tail": ["A", 0], "head": ["B", 0], "matrix": [[big, 1], [1, big]]}],
        }
        path = tmp_path / "long-determinant.json"
        path.write_text(json.dumps(doc))
        violation = (
            "edge 0: determinant of gluing matrix is an integer of more than 4300 digits, not -1"
        )
        code, out, err = invoke_subprocess(["validate", str(path)])
        assert (code, json.loads(out), err) == (1, [violation], "")
        for argv in (
            ["invariants"],
            ["cover", "--mode", "characteristic", "--prime", "5"],
            ["volume-bound"],
            ["classify"],
        ):
            code, out, err = invoke_subprocess([argv[0], str(path), *argv[1:]])
            assert (code, out) == (1, ""), argv
            assert json.loads(err)["error"] == "ValidationError", argv
            assert json.loads(err)["message"] == violation, argv

    def test_cover_genus_beyond_digit_limit(self, tmp_path):
        # A genus of 4,300 digits decodes; the genus of its cover does not print.
        doc = {
            "pieces": [
                {"id": "A", "genus": 10**4299, "boundary": 2},
                {"id": "B", "genus": 2, "boundary": 2},
            ],
            "edges": [
                {"tail": ["A", i], "head": ["B", i], "matrix": [[0, 1], [1, 0]]} for i in range(2)
            ],
        }
        path = tmp_path / "long-genus.json"
        path.write_text(json.dumps(doc))
        for mode in (["characteristic"], ["genus-raising", "--center", "B"]):
            self._expect_error(
                ["cover", str(path), "--mode", *mode, "--prime", "101"], 2, "RationalTooLong"
            )

    def test_parse_errors_echo_bounded_input(self, tmp_path):
        huge = "x" * 100_000
        pair = [{"id": "A", "genus": 2, "boundary": 1}, {"id": "B", "genus": 2, "boundary": 1}]
        swap = {"tail": ["A", 0], "head": ["B", 0], "matrix": [[0, 1], [1, 0]]}
        cases = {
            "piece": ("invariants", {"pieces": [{"id": huge}], "edges": []}),
            "piece-id": ("invariants", {
                "pieces": [{"id": [huge], "genus": 2, "boundary": 1}], "edges": []}),
            "edge": ("invariants", {"pieces": pair, "edges": [{"tail": huge}]}),
            "endpoint": ("invariants", {"pieces": pair, "edges": [{**swap, "tail": [huge]}]}),
            "matrix": ("invariants", {"pieces": pair, "edges": [{**swap, "matrix": [huge]}]}),
            "integer": ("invariants", {
                "pieces": [{"id": "A", "genus": huge, "boundary": 1}], "edges": []}),
            "keys": ("invariants", {"pieces": [], "edges": [], huge: 1}),
            "kind": ("classify", {"kind": huge}),
        }
        for name, (verb, doc) in cases.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc))
            code, out, err = invoke([verb, str(path)])
            assert (code, out) == (3, ""), name
            assert json.loads(err)["error"] == "ParseError", name
            assert len(err.encode("utf-8")) < 1024, name

    def test_covering_record_echo_is_bounded(self):
        doc = {
            "pieces": [], "edges": [], "torus_map": [],
            "certificate": {"per_piece": {"A": {"over": 0, "pad": "x" * 100_000}}},
        }
        with pytest.raises(ParseError) as info:
            covered_graph_from_document(doc)
        assert len(str(info.value)) < 1024
