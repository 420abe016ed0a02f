"""Byte-for-byte snapshots of the command line on fixed inputs.

tests/golden/inputs/ holds every input document and tests/golden/cases.json
records, for each invocation, its argument list, exit code, stdout and
stderr.  Invocations run with tests/golden as the working directory, so the
file names inside error documents do not depend on where the checkout lives.

The inputs are the corpus, seeded random_valid_graph instances in the three
matrix styles (some of them written in non-canonical order and layout),
invalid graphs whose violation lists are order-sensitive, classify-only
descriptions and malformed documents.  Error runs are recorded as well:
they are part of the behaviour these snapshots pin.

The same command also rewrites the demo snapshots in tests/golden/demos/
(see test_demos.py).  The snapshots are regenerated only when an output
change is intended:

    PYTHONPATH=src python tests/test_golden.py

It prints the id of every case whose exit code, stdout or stderr changed,
and the name of every demo snapshot that changed, so an output change can
name each of them.
"""

from __future__ import annotations

import io
import json
import os
import random
import sys
from pathlib import Path

import pytest

from gmanvol import serialize_graph
from gmanvol.cli import run
from gmanvol.coverings import next_prime_above

GOLDEN_DIR = Path(__file__).parent / "golden"
INPUT_DIR = GOLDEN_DIR / "inputs"
CASES_FILE = GOLDEN_DIR / "cases.json"
CORPUS_DIR = Path(__file__).parent / "corpus"

STYLES = ("generic", "pmj", "mixed")
SEEDS_PER_STYLE = 17

_SWAP = [[0, 1], [1, 0]]
_M1110 = [[1, 1], [1, 0]]


def _piece(piece_id, genus, boundary):
    return {"id": piece_id, "genus": genus, "boundary": boundary}


def _edge(tail, head, matrix=_SWAP):
    return {"tail": list(tail), "head": list(head), "matrix": matrix}


# Graphs violating one or more structural invariants.  Pieces and edges are
# deliberately listed out of canonical order in some of them.
INVALID_GRAPHS = {
    "duplicate-id": {
        "pieces": [_piece("A", 2, 1), _piece("B", 2, 1), _piece("A", 3, 2)],
        "edges": [_edge(("A", 0), ("B", 0)), _edge(("A", 1), ("B", 0), _M1110)],
    },
    "self-loop": {
        "pieces": [_piece("A", 2, 3), _piece("B", 2, 1)],
        "edges": [_edge(("A", 0), ("A", 1)), _edge(("A", 2), ("B", 0))],
    },
    "slot-used-twice": {
        "pieces": [_piece("A", 2, 1), _piece("B", 3, 1)],
        "edges": [_edge(("A", 0), ("B", 0), _M1110), _edge(("A", 0), ("B", 0))],
    },
    "unused-slot": {
        "pieces": [_piece("A", 2, 2), _piece("B", 2, 1)],
        "edges": [_edge(("A", 0), ("B", 0), _M1110)],
    },
    "unknown-piece": {
        "pieces": [_piece("A", 2, 1)],
        "edges": [_edge(("A", 0), ("Z", 0))],
    },
    "disconnected": {
        "pieces": [_piece(p, 2, 1) for p in "DCBA"],
        "edges": [_edge(("C", 0), ("D", 0)), _edge(("A", 0), ("B", 0))],
    },
    "disconnected-cycle": {
        "pieces": [_piece("A", 2, 1), _piece("B", 2, 1)]
        + [_piece(f"P{i}", 2, 2) for i in range(3)],
        "edges": [_edge(("A", 0), ("B", 0))]
        + [_edge((f"P{i}", 1), (f"P{(i + 1) % 3}", 0), _M1110) for i in range(3)],
    },
    "no-edges": {"pieces": [_piece("A", 2, 1)], "edges": []},
    "slot-out-of-range": {
        "pieces": [_piece("A", 2, 1), _piece("B", 2, 1)],
        "edges": [_edge(("A", 1), ("B", 0))],
    },
    "bad-determinant": {
        "pieces": [_piece("A", 2, 1), _piece("B", 2, 1)],
        "edges": [_edge(("A", 0), ("B", 0), [[1, 1], [0, 1]])],
    },
    "fiber-to-fiber": {
        "pieces": [_piece("A", 2, 1), _piece("B", 2, 1)],
        "edges": [_edge(("A", 0), ("B", 0), [[1, 0], [0, -1]])],
    },
    "low-genus": {
        "pieces": [_piece("A", 1, 1), _piece("B", 2, 0)],
        "edges": [_edge(("A", 0), ("B", 0))],
    },
}

# Inputs that only the classify verb reads, or that no verb accepts.
OTHER_DOCUMENTS = {
    "classify-seifert-sl2": {"kind": "seifert", "genus": 2, "exceptional": [[2, 1]]},
    "classify-seifert-s2xr": {"kind": "seifert", "genus": 0, "exceptional": []},
    "classify-torus-bundle": {"kind": "torus-bundle-covered"},
    "classify-hyperbolic": {"kind": "hyperbolic-or-contains-hyperbolic-piece"},
    "classify-unknown-kind": {"kind": "lens-space"},
    "malformed-bool-genus": {
        "pieces": [_piece("A", True, 1), _piece("B", 2, 1)],
        "edges": [_edge(("A", 0), ("B", 0))],
    },
    "malformed-extra-key": {"pieces": [], "edges": [], "extra": 1},
    "malformed-root": [1, 2, 3],
}
RAW_INPUTS = {"malformed-not-json": b'{"pieces": [\n'}


def _random_graph_inputs() -> dict[str, bytes]:
    """Seeded random valid graphs; odd seeds are written non-canonically."""
    # Imported here: builders lives next to this file and is only needed
    # when the inputs are regenerated.
    from builders import random_valid_graph

    inputs = {}
    for style in STYLES:
        for seed in range(SEEDS_PER_STYLE):
            gm = random_valid_graph(random.Random(seed), style=style)
            name = f"random-{style}-{seed:02d}"
            if seed % 2 == 0:
                inputs[name] = serialize_graph(gm)
            else:
                doc = json.loads(serialize_graph(gm))
                doc = {
                    "edges": doc["edges"][::-1],
                    "pieces": [
                        {"id": p["id"], "genus": p["genus"], "boundary": p["boundary"]}
                        for p in reversed(doc["pieces"])
                    ],
                }
                inputs[name] = json.dumps(doc, indent=1).encode("utf-8")
    return inputs


def _graph_verbs(path: str, doc: dict) -> list[list[str]]:
    """validate, invariants, volume-bound, classify and both cover modes."""
    max_boundary = max(p["boundary"] for p in doc["pieces"])
    center = min(p["id"] for p in doc["pieces"])
    return [
        ["validate", path],
        ["invariants", path],
        ["volume-bound", path],
        ["classify", path],
        ["cover", path, "--mode", "characteristic",
         "--prime", str(next_prime_above(max_boundary))],
        ["cover", path, "--mode", "genus-raising", "--center", center, "--prime", "3"],
    ]


def build_inputs() -> dict[str, bytes]:
    """Every golden input document, by file stem."""
    inputs = {}
    for path in sorted(CORPUS_DIR.glob("*.json")):
        inputs[f"corpus-{path.stem}"] = path.read_bytes()
    inputs.update(_random_graph_inputs())
    for name, doc in {**INVALID_GRAPHS, **OTHER_DOCUMENTS}.items():
        inputs[name] = json.dumps(doc).encode("utf-8")
    inputs.update(RAW_INPUTS)
    return inputs


def build_argvs(inputs: dict[str, bytes]) -> list[list[str]]:
    """Every golden invocation, in recording order."""
    argvs = []
    corpus = [f"inputs/{name}.json" for name in inputs if name.startswith("corpus-")]
    for name, data in inputs.items():
        path = f"inputs/{name}.json"
        if name.startswith(("corpus-", "random-")):
            argvs.extend(_graph_verbs(path, json.loads(data)))
        elif name in INVALID_GRAPHS:
            argvs.extend(
                [
                    ["validate", path],
                    ["classify", path],
                    ["invariants", path],
                    ["volume-bound", path],
                    ["cover", path, "--mode", "genus-raising", "--center", "A",
                     "--prime", "3"],
                ]
            )
        elif name.startswith("classify-"):
            argvs.append(["classify", path])
        else:
            argvs.extend([["validate", path], ["classify", path], ["invariants", path]])
    argvs.extend(
        [
            ["validate", *corpus],
            ["invariants", "--pretty", *corpus],
            ["volume-bound", *corpus],
            ["volume-bound", "--alpha-bound", "7", corpus[0]],
            ["invariants", corpus[0], "inputs/unused-slot.json", corpus[1]],
            ["cover", "inputs/corpus-star-3.json", "--mode", "genus-raising",
             "--center", "Q", "--prime", "3"],
            ["cover", "inputs/corpus-star-3.json", "--mode", "genus-raising",
             "--prime", "3"],
            ["cover", "inputs/corpus-star-3.json", "--mode", "genus-raising",
             "--center", "Z", "--prime", "4"],
            ["cover", "inputs/corpus-triangle.json", "--mode", "characteristic",
             "--prime", "2"],
            ["validate", "inputs/no-such-file.json"],
        ]
    )
    # Both cover modes at more primes on the corpus: genus-raising around
    # the smallest id, characteristic at a prime above every boundary count.
    for name, data in inputs.items():
        if name.startswith("corpus-"):
            path = f"inputs/{name}.json"
            center = min(p["id"] for p in json.loads(data)["pieces"])
            for q in ("2", "5", "7"):
                argvs.append(
                    ["cover", path, "--mode", "genus-raising", "--center", center,
                     "--prime", q]
                )
            argvs.append(["cover", path, "--mode", "characteristic", "--prime", "101"])
    argvs.append(
        ["cover", "inputs/corpus-star-3.json", "--mode", "genus-raising",
         "--center", "B", "--prime", "10000019"]
    )
    return argvs


def invoke(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def _load_cases() -> list[dict]:
    return json.loads(CASES_FILE.read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "case", _load_cases() if CASES_FILE.exists() else [], ids=lambda case: case["id"]
)
def test_golden(case, monkeypatch):
    monkeypatch.chdir(GOLDEN_DIR)
    code, out, err = invoke(case["argv"])
    assert code == case["exit"]
    assert out.encode("utf-8") == case["stdout"].encode("utf-8")
    assert err.encode("utf-8") == case["stderr"].encode("utf-8")


def test_every_error_is_one_document_of_one_shape():
    """Each recorded stderr is empty or one line: error, file and message."""
    wrong = [
        case["id"]
        for case in _load_cases()
        if case["stderr"]
        and not (
            case["stderr"].find("\n") == len(case["stderr"]) - 1
            and json.loads(case["stderr"]).keys() == {"error", "file", "message"}
        )
    ]
    assert wrong == []


def test_golden_inputs_are_committed():
    """Every input a case names exists, and every stored input is used."""
    cases = _load_cases()
    named = {
        arg for case in cases for arg in case["argv"] if arg.startswith("inputs/")
    }
    stored = {f"inputs/{p.name}" for p in INPUT_DIR.glob("*.json")}
    assert stored == named - {"inputs/no-such-file.json"}
    assert len({case["id"] for case in cases}) == len(cases)


def regenerate() -> None:
    """Rewrite inputs, cases and demo snapshots; print every case that changed."""
    old = {case["id"]: case for case in _load_cases()} if CASES_FILE.exists() else {}
    inputs = build_inputs()
    INPUT_DIR.mkdir(parents=True, exist_ok=True)
    for stale in INPUT_DIR.glob("*.json"):
        stale.unlink()
    for name, data in inputs.items():
        (INPUT_DIR / f"{name}.json").write_bytes(data)
    cases = []
    os.chdir(GOLDEN_DIR)
    for argv in build_argvs(inputs):
        code, out, err = invoke(argv)
        cases.append(
            {"id": " ".join(argv), "argv": argv, "exit": code, "stdout": out, "stderr": err}
        )
    CASES_FILE.write_text(
        json.dumps(cases, indent=1, ensure_ascii=False) + "\n", encoding="utf-8"
    )
    for case in cases:
        before = old.pop(case["id"], None)
        if before != case:
            print(f"{'changed' if before else 'added'}: {case['id']}")
    for case_id in old:
        print(f"removed: {case_id}")
    # Imported here, like builders: the demo snapshots live in golden/ too.
    from test_demos import regenerate as regenerate_demos

    regenerate_demos()


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).parent))
    regenerate()
