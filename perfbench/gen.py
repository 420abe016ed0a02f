"""Seeded input generator: writes each workload's documents and its round of operations.

The same (workload, seed, quick) always gives the same files.  Sizes,
matrix-entry ranges, primes and verb mix are fixed per input class; the
seed only draws the graphs inside each class, so a run's cost hardly
depends on the seed.  Class membership (tower needed or not, target tower
prime) is decided with the benchmark's own oracle, never with gmanvol.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import oracle

J = [[0, 1], [1, 0]]
MINUS_J = [[0, -1], [-1, 0]]


def det_minus_one(rng: random.Random, span: int = 3) -> list:
    """A determinant -1 matrix [[a, b], [c, d]] with b != 0 and small a, b, d."""
    while True:
        a, d = rng.randint(-span, span), rng.randint(-span, span)
        b = rng.choice([x for x in range(-span, span + 1) if x])
        if (a * d + 1) % b == 0:
            return [[a, b], [(a * d + 1) // b, d]]


def graph_doc(n: int, links, genera) -> dict:
    """Pieces P0..P{n-1}; each link (i, j, matrix) takes the next free slot at both ends."""
    used = [0] * n
    edges = []
    for i, j, m in links:
        edges.append({"tail": [f"P{i}", used[i]], "head": [f"P{j}", used[j]], "matrix": m})
        used[i] += 1
        used[j] += 1
    pieces = [{"id": f"P{i}", "genus": genera[i], "boundary": used[i]} for i in range(n)]
    return {"pieces": pieces, "edges": edges}


def cycle_links(n: int, chords: int, rng: random.Random, matrix) -> list:
    links = [(i, (i + 1) % n, matrix()) for i in range(n)]
    for _ in range(chords):
        i, j = rng.sample(range(n), 2)
        links.append((i, j, matrix()))
    return links


def tree_links(n: int, extra: int, rng: random.Random, matrix) -> list:
    links = [(rng.randrange(i), i, matrix()) for i in range(1, n)]
    for _ in range(extra):
        i, j = rng.sample(range(n), 2)
        links.append((i, j, matrix()))
    return links


def _chosen_need(doc):
    pairs = oracle.piece_pairs(doc)
    eulers = {pid: abs(oracle.euler(ps)) for pid, ps in pairs.items()}
    top = max(eulers.values())
    chosen = min(pid for pid, e in eulers.items() if e == top)
    piece = next(p for p in doc["pieces"] if p["id"] == chosen)
    return piece, pairs[chosen]


def volume_graph(n: int, kind: str, chorded: bool, rng: random.Random) -> dict:
    """A graph with no one-boundary piece: a cycle, with n // 8 chords if chorded.

    kind "tower": generic matrices, and the chosen piece needs a
    characteristic tower; "flat": generic matrices, the chosen piece
    foliates without one (its genus is raised until it does); "pmj": swap
    matrices with one pair of pieces joined by 1 to 3 parallel tori.
    """
    chords = n // 8 if chorded else 0
    if kind == "pmj":
        links = cycle_links(n, chords, rng, lambda: rng.choice([J, MINUS_J]))
        i = rng.randrange(n)
        links += [(i, (i + 1) % n, rng.choice([J, MINUS_J])) for _ in range(rng.randint(0, 2))]
        return graph_doc(n, links, [rng.randint(2, 3) for _ in range(n)])
    while True:
        doc = graph_doc(
            n, cycle_links(n, chords, rng, lambda: det_minus_one(rng)), [rng.randint(2, 3) for _ in range(n)]
        )
        piece, pairs = _chosen_need(doc)
        if kind == "tower":
            piece["genus"] = 2
            if not oracle.ehn(2, pairs):
                return doc
        else:
            while not oracle.ehn(piece["genus"], pairs):
                piece["genus"] += 1
            return doc


def prime_graph(n: int, q_target: int, rng: random.Random) -> dict:
    """A cycle of n pieces whose piece P0 (genus 2, two slots) needs a tower prime near q_target.

    With b = 1, P0's filled Euler number is d of the edge into it minus a
    of the edge out of it, and neither entry appears at any other piece.
    Filling sum F needs covered genus (F + 2) / 2, and the genus of the
    q-fold cover of P0 is 2q, so F = 4 q_target - 2 puts the prime at the
    first prime from q_target on.  The other pieces keep small entries and
    carry n // 4 chords, so their |e| stays far below P0's.
    """
    q_jittered = int(q_target * rng.uniform(0.98, 1.02))
    f = 4 * q_jittered - 2
    a_out = -rng.randint(f // 3, 2 * f // 3)
    d_in = f + a_out
    d_out = rng.randint(-3, 3)
    links = [(0, 1, [[a_out, 1], [a_out * d_out + 1, d_out]])]
    links += [(i, i + 1, det_minus_one(rng)) for i in range(1, n - 1)]
    a_in = rng.randint(-3, 3)
    links.append((n - 1, 0, [[a_in, 1], [a_in * d_in + 1, d_in]]))
    for _ in range(n // 4):
        i, j = rng.sample(range(1, n), 2)
        links.append((i, j, det_minus_one(rng)))
    genera = [2] + [rng.randint(2, 4) for _ in range(n - 1)]
    doc = graph_doc(n, links, genera)
    piece, pairs = _chosen_need(doc)
    assert piece["id"] == "P0" and oracle.euler(pairs) == f
    return doc


def small_graph(rng: random.Random, cyclic: bool) -> dict:
    """2 to 12 pieces: a cycle with chords (no one-boundary piece) or a tree with extra edges."""
    n = rng.randint(2, 12)
    matrix = (lambda: rng.choice([J, MINUS_J])) if rng.random() < 0.3 else (lambda: det_minus_one(rng))
    if cyclic:
        links = cycle_links(n, rng.randint(0, n // 3), rng, matrix)
    else:
        links = tree_links(n, rng.randint(0, 3), rng, matrix)
    return graph_doc(n, links, [rng.randint(2, 4) for _ in range(n)])


def seifert_doc(rng: random.Random) -> dict:
    pairs = []
    for _ in range(rng.randint(0, 4)):
        alpha = rng.randint(1, 7)
        beta = rng.choice([b for b in range(-7, 8) if math.gcd(alpha, abs(b)) == 1])
        pairs.append([alpha, beta])
    return {"kind": "seifert", "genus": rng.randint(0, 3), "exceptional": pairs}


class Builder:
    """Collects the files and the round of one workload."""

    def __init__(self, directory: Path):
        self.directory = directory
        self.ops: list[dict] = []
        self.files: list[str] = []

    def add_file(self, name: str, content) -> str:
        data = content if isinstance(content, str) else json.dumps(content, sort_keys=True)
        (self.directory / name).write_text(data, encoding="utf-8")
        self.files.append(name)
        return name

    def op(self, cls: str, check: str, verb: str, inputs: list[str], *flags, **extra) -> None:
        argv = [verb] + ["@" + name for name in inputs] + [str(f) for f in flags]
        self.ops.append({"class": cls, "check": check, "argv": argv, "inputs": inputs, **extra})


def _volume_large(b: Builder, rng: random.Random, quick: bool) -> None:
    # (size, verb, kind, chorded) per operation of one round.  Counts fall
    # as the square of the size, so each size tier takes a similar share of
    # the round while the graph layer is quadratic.
    small, mid, large = (12, 24, 48) if quick else (300, 600, 1200)
    plan = [
        (small, verb, kind, chorded)
        for kind, chorded in [
            ("tower", False), ("tower", True), ("flat", False), ("flat", True),
            ("pmj", False), ("pmj", True), ("tower", True), ("pmj", True),
        ]
        for verb in ("volume-bound", "invariants")
    ]
    plan += [
        (mid, "volume-bound", "tower", True), (mid, "invariants", "flat", False),
        (mid, "volume-bound", "pmj", True), (mid, "invariants", "tower", False),
        (large, "volume-bound", "tower", True),
    ]
    for k, (n, verb, kind, chorded) in enumerate(plan):
        name = b.add_file(f"v{k:02d}-{n}-{kind}.json", volume_graph(n, kind, chorded, rng))
        b.op(f"n{n}", "volume" if verb == "volume-bound" else "invariants", verb, [name])


def _cover_verify(b: Builder, rng: random.Random, quick: bool) -> None:
    # (class, count, pieces, mode, prime); None means the smallest admissible prime.
    plan = [
        ("gr101", 1, 4 if quick else 16, "genus-raising", 101),
        ("gr11", 6, 8 if quick else 40, "genus-raising", 11),
        ("gr3", 4, 20 if quick else 200, "genus-raising", 3),
        ("ch-min", 4, 30 if quick else 300, "characteristic", None),
        ("ch-101", 4, 30 if quick else 300, "characteristic", 101),
    ]
    for cls, count, n, mode, prime in plan:
        for k in range(count):
            if mode == "genus-raising":
                doc = graph_doc(n, tree_links(n, n // 10, rng, lambda: det_minus_one(rng)),
                                [rng.randint(2, 4) for _ in range(n)])
                # A centre with exactly two neighbours fixes the cover's size,
                # 2 + q (n - 2) pieces, whatever the seed (a tiny tree may have none).
                adjacent = oracle.neighbours(doc)
                center = rng.choice(sorted(p for p in adjacent if len(adjacent[p]) == 2) or sorted(adjacent))
                name = b.add_file(f"c-{cls}-{k}.json", doc)
                b.op(cls, "cover-verify", "cover", [name], "--mode", mode, "--center", center,
                     "--prime", prime, mode=mode, q=prime, center=center)
            else:
                doc = graph_doc(n, cycle_links(n, n // 8, rng, lambda: det_minus_one(rng)),
                                [rng.randint(2, 4) for _ in range(n)])
                q = prime
                if q is None:
                    q = max(p["boundary"] for p in doc["pieces"]) + 1
                    while not oracle.is_prime(q):
                        q += 1
                name = b.add_file(f"c-{cls}-{k}.json", doc)
                b.op(cls, "cover-verify", "cover", [name], "--mode", mode, "--prime", q,
                     mode=mode, q=q, center=None)


def _prime_search(b: Builder, rng: random.Random, quick: bool) -> None:
    # (target prime, count): counts fall as the cost of the trial-division
    # search rises, so no class dominates the round.
    plan = [(1300, 24), (5000, 10), (20000, 4), (70000, 1)]
    if quick:
        plan = [(q // 20, count) for q, count in plan]
    for q_target, count in plan:
        for k in range(count):
            doc = prime_graph(rng.randint(4, 12), q_target, rng)
            name = b.add_file(f"p-{q_target}-{k}.json", doc)
            b.op(f"q{q_target}", "volume", "volume-bound", [name])


def _small_batch(b: Builder, rng: random.Random, quick: bool, corpus_dir: Path) -> None:
    count = 4 if quick else 6
    corpus = [b.add_file(f"corpus-{p.name}", p.read_text(encoding="utf-8")) for p in sorted(corpus_dir.glob("*.json"))]
    trees = [b.add_file(f"s-tree-{k}.json", small_graph(rng, cyclic=False)) for k in range(count)]
    cycles = [b.add_file(f"s-cycle-{k}.json", small_graph(rng, cyclic=True)) for k in range(count)]
    classify = [b.add_file(f"k-seifert-{k}.json", seifert_doc(rng)) for k in range(2 * count)]
    classify += [
        b.add_file("k-torus.json", {"kind": "torus-bundle-covered"}),
        b.add_file("k-hyperbolic.json", {"kind": "hyperbolic-or-contains-hyperbolic-piece"}),
    ] + cycles[:3]

    # One invocation per verb (two for cover, one per mode) over a batch.
    b.op("batch", "validate", "validate", corpus + trees + cycles)
    b.op("batch", "invariants", "invariants", corpus + trees)
    b.op("batch", "volume", "volume-bound", corpus + cycles)
    b.op("batch", "cover", "cover", trees, "--mode", "genus-raising", "--center", "P0", "--prime", 3,
         mode="genus-raising", q=3, center="P0")
    b.op("batch", "cover", "cover", cycles, "--mode", "characteristic", "--prime", 37,
         mode="characteristic", q=37, center=None)
    b.op("batch", "classify", "classify", classify)

    # Malformed or unsupported documents, one per invocation, each with its
    # documented exit code and error class.
    base = json.loads((b.directory / cycles[0]).read_text(encoding="utf-8"))
    genus_one = json.loads(json.dumps(base))
    genus_one["pieces"][0]["genus"] = 1
    bad_det = json.loads(json.dumps(base))
    bad_det["edges"][0]["matrix"] = [[1, 1], [1, 1]]
    zero_not_pmj = graph_doc(2, [(0, 1, [[1, 1], [0, -1]]), (1, 0, [[-1, 1], [0, 1]])], [2, 2])
    errors = [
        ("validate", b.add_file("e-not-json.json", '{"pieces": [' + str(rng.randint(0, 9))), (), 3, "ParseError"),
        ("invariants", b.add_file("e-no-edges.json", {"pieces": base["pieces"]}), (), 3, "ParseError"),
        ("volume-bound", b.add_file("e-genus-one.json", genus_one), (), 1, "ValidationError"),
        ("volume-bound", b.add_file("e-zero-not-pmj.json", zero_not_pmj), (), 2, "PMJFormRequired"),
        ("cover", corpus[0], ("--mode", "characteristic", "--prime", 5), 2, "BoundaryCountTooSmall"),
        ("cover", cycles[1], ("--mode", "genus-raising", "--center", "P0", "--prime", 4), 2, "NotPrime"),
        ("cover", cycles[1], ("--mode", "characteristic", "--prime", 2), 2, "PrimeTooSmall"),
        ("classify", b.add_file("e-unknown-kind.json", {"kind": "lens-space"}), (), 3, "ParseError"),
        ("classify", b.add_file("e-not-coprime.json", {"kind": "seifert", "genus": 1, "exceptional": [[4, 2]]}),
         (), 3, "ParseError"),
    ]
    for verb, name, flags, code, error in errors:
        b.op("error", "error", verb, [name], *flags, exit=code, error=error)
    b.op("error", "report", "validate", [b.add_file("e-bad-det.json", bad_det)], exit=1)


WORKLOADS = ("volume-large", "cover-verify", "prime-search", "small-batch")
GENERATOR_VERSION = 2


def generate(workload: str, seed: int, quick: bool, cache: Path, corpus_dir: Path) -> Path:
    """Write the inputs and the manifest of one workload; reuse them if already cached."""
    directory = cache / f"{workload}-s{seed}{'-quick' if quick else ''}-v{GENERATOR_VERSION}"
    manifest = directory / "manifest.json"
    if manifest.is_file():
        return manifest
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    b = Builder(directory)
    if workload == "volume-large":
        _volume_large(b, rng, quick)
    elif workload == "cover-verify":
        _cover_verify(b, rng, quick)
    elif workload == "prime-search":
        _prime_search(b, rng, quick)
    else:
        _small_batch(b, rng, quick, corpus_dir)
    # The round runs in a fixed, seeded interleaving of the input classes,
    # so a slow phase of the machine falls on every class alike.
    rng.shuffle(b.ops)
    tmp = manifest.with_suffix(".tmp")
    tmp.write_text(json.dumps({"workload": workload, "seed": seed, "quick": quick,
                               "files": b.files, "ops": b.ops}), encoding="utf-8")
    tmp.replace(manifest)
    return manifest
