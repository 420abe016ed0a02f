"""Independent re-derivation of every gmanvol output the benchmark checks.

Nothing here imports gmanvol.  Each check reads the input document and the
program's output as plain JSON and recomputes the expected values from the
definitions: filled Euler numbers straight from the gluing matrices, the
Riemann-Hurwitz genus, the Eisenbud-Hirsch-Neumann inequalities, slot usage,
connectivity by breadth-first search, Euler-characteristic bookkeeping and
the Seifert geometry table.  Every check returns a list of problems; an
empty list means the output is correct.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from fractions import Fraction


def fmt(value) -> str:
    """An exact rational as "p" or "p/q"."""
    f = Fraction(value)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    return all(n % d for d in range(3, math.isqrt(n) + 1, 2))


def _canon(x: int, y: int) -> tuple[int, int]:
    return (x, y) if x > 0 or (x == 0 and y > 0) else (-x, -y)


def framing(doc) -> dict[tuple[str, int], tuple[int, int]]:
    """Canonical framing slope (alpha, beta) of every slot.

    The opposite side's fiber (0, 1) seen through [[a, b], [c, d]] is (b, d)
    on the head side and, through the inverse, (b, -a) on the tail side.
    So the filled ratio beta/alpha is d/b for a head slot and -a/b for a
    tail slot.
    """
    slopes = {}
    for edge in doc["edges"]:
        (a, b), (_, d) = edge["matrix"]
        slopes[tuple(edge["head"])] = _canon(b, d)
        slopes[tuple(edge["tail"])] = _canon(b, -a)
    return slopes


def piece_pairs(doc, slopes=None) -> dict[str, list[tuple[int, int]]]:
    slopes = slopes if slopes is not None else framing(doc)
    return {
        p["id"]: [slopes[(p["id"], s)] for s in range(p["boundary"])]
        for p in doc["pieces"]
    }


def euler(pairs) -> Fraction:
    return sum((Fraction(b, a) for a, b in pairs), Fraction(0))


def orbifold_chi(genus: int, pairs) -> Fraction:
    return Fraction(2 - 2 * genus) - sum((1 - Fraction(1, a) for a, _ in pairs), Fraction(0))


def geometry(e: Fraction, chi: Fraction) -> str:
    if chi < 0:
        return "sl2tilde" if e else "h2xr"
    if chi == 0:
        return "nil" if e else "euclidean"
    return "spherical" if e else "s2xr"


def ehn(genus: int, pairs) -> bool:
    floors = sum(b // a for a, b in pairs)
    ceilings = sum(-(-b // a) for a, b in pairs)
    return floors <= 2 * genus - 2 and ceilings >= 2 - 2 * genus


def rh_genus(genus: int, boundary: int, q: int) -> int:
    """Genus of the degree-q cover whose boundary circles each lift once."""
    doubled = (2 * genus + boundary - 2) * (q - 1)
    assert doubled % 2 == 0
    return genus + doubled // 2


def min_tower_prime(doc, needs: list[tuple[int, int, list]]) -> int:
    """Smallest prime above every boundary count at which each (g, p, pairs) foliates.

    The foliation test passes exactly when the genus reaches
    max(ceil((F + 2) / 2), ceil((2 - C) / 2)) for the floor sum F and the
    ceiling sum C; the covered genus grows linearly in q, which inverts to
    a lower bound on q.  Returns 1 when every piece already foliates.
    """
    if all(ehn(g, pairs) for g, _, pairs in needs):
        return 1
    q_low = max(p["boundary"] for p in doc["pieces"]) + 1
    for g, p, pairs in needs:
        floors = sum(b // a for a, b in pairs)
        ceilings = sum(-(-b // a) for a, b in pairs)
        target = max(-(-(floors + 2) // 2), -(-(2 - ceilings) // 2))
        if target > g:
            step = 2 * g + p - 2
            q_low = max(q_low, 1 + -(-2 * (target - g) // step))
    q = q_low
    while not is_prime(q):
        q += 1
    return q


def parallel_counts(doc) -> Counter:
    return Counter(tuple(sorted((e["tail"][0], e["head"][0]))) for e in doc["edges"])


def neighbours(doc) -> dict[str, set[str]]:
    adj = defaultdict(set)
    for e in doc["edges"]:
        adj[e["tail"][0]].add(e["head"][0])
        adj[e["head"][0]].add(e["tail"][0])
    return adj


def graph_problems(doc) -> list[str]:
    """Structural validity: genus, slots used once, determinant, minimality, connectivity."""
    problems = []
    by_id = {p["id"]: p for p in doc["pieces"]}
    if len(by_id) != len(doc["pieces"]):
        problems.append("duplicate piece ids")
    usage = Counter()
    for i, e in enumerate(doc["edges"]):
        (a, b), (c, d) = e["matrix"]
        if a * d - b * c != -1 or b == 0:
            problems.append(f"edge {i}: bad gluing matrix")
        if e["tail"][0] == e["head"][0]:
            problems.append(f"edge {i}: loop")
        usage[tuple(e["tail"])] += 1
        usage[tuple(e["head"])] += 1
    expected = {(p["id"], s) for p in doc["pieces"] for s in range(p["boundary"])}
    if set(usage) != expected or any(n != 1 for n in usage.values()):
        problems.append("slots are not each used exactly once")
    if any(p["genus"] < 2 or p["boundary"] < 1 for p in doc["pieces"]):
        problems.append("a piece has genus below 2 or no boundary")
    if not doc["edges"]:
        problems.append("no edges")
    elif not problems:
        adj = neighbours(doc)
        start = doc["pieces"][0]["id"]
        seen, frontier = {start}, [start]
        while frontier:
            for n in adj[frontier.pop()]:
                if n not in seen:
                    seen.add(n)
                    frontier.append(n)
        if len(seen) != len(by_id):
            problems.append("graph is not connected")
    return problems


def check_validate(doc, out) -> list[str]:
    expected_valid = not graph_problems(doc)
    if expected_valid and out != []:
        return [f"validate reported {out[:2]} on a valid graph"]
    if not expected_valid and not out:
        return ["validate passed an invalid graph"]
    return []


def check_invariants(doc, out) -> list[str]:
    slopes = framing(doc)
    pairs = piece_pairs(doc, slopes)
    expected_pieces = {}
    total = Fraction(0)
    for p in doc["pieces"]:
        ps = pairs[p["id"]]
        e, chi = euler(ps), orbifold_chi(p["genus"], ps)
        total += abs(e)
        expected_pieces[p["id"]] = {
            "genus": p["genus"],
            "boundary": p["boundary"],
            "canonical_framing": [list(s) for s in ps],
            "filled_euler_number": fmt(e),
            "filled_orbifold_euler_char": fmt(chi),
            "filled_geometry": geometry(e, chi),
        }
    expected = {"absolute_euler_number": fmt(total), "pieces": expected_pieces}
    return [] if out == expected else ["invariants differ from the recomputed values"]


def _tower_problems(doc, out, needs) -> list[str]:
    """The emitted tower: none when every needed piece foliates, else one characteristic stage.

    Its prime must be prime, exceed every boundary count, make each needed
    filled piece pass the foliation test at the covered genus, and be the
    smallest prime that does.
    """
    expected_q = min_tower_prime(doc, needs)
    if not out["tower"]:
        return [] if (expected_q, out["cover_degree"]) == (1, 1) else [f"no tower, expected prime {expected_q}"]
    if len(out["tower"]) != 1:
        return [f"{len(out['tower'])} tower stages, expected one"]
    stage = out["tower"][0]
    q = stage["characteristic_level"]
    problems = []
    if not is_prime(q) or any(q <= p["boundary"] for p in doc["pieces"]):
        problems.append(f"tower prime {q} is not an admissible prime")
    elif not all(ehn(rh_genus(g, p, q), pairs) for g, p, pairs in needs):
        problems.append(f"a chosen filled piece fails the foliation test at the genus of the {q}-cover")
    elif q != expected_q:
        problems.append(f"tower prime {q} is not the smallest admissible prime {expected_q}")
    if stage["total_degree"] != q * q or out["cover_degree"] != q * q:
        problems.append(f"tower degree is not {q * q}")
    expected_records = {
        p["id"]: {
            "over": p["id"],
            "vertical_degree": q,
            "horizontal_degree": q,
            "genus_up": rh_genus(p["genus"], p["boundary"], q),
            "boundary_up": p["boundary"],
        }
        for p in doc["pieces"]
    }
    if stage["per_piece"] != expected_records:
        problems.append("tower piece records disagree with Riemann-Hurwitz")
    return problems


def check_volume(doc, out) -> list[str]:
    """Re-derive the volume certificate: case, chosen piece(s), bound, slopes and tower."""
    by_id = {p["id"]: p for p in doc["pieces"]}
    slopes = framing(doc)
    pairs = piece_pairs(doc, slopes)
    eulers = {pid: euler(ps) for pid, ps in pairs.items()}
    problems = []
    if any(eulers.values()):
        if out["case"] != "e_nonzero":
            return [f"case {out['case']!r}, expected e_nonzero"]
        top = max(abs(e) for e in eulers.values())
        chosen = out["chosen"]["piece"]
        if abs(eulers[chosen]) != top or chosen != min(p for p, e in eulers.items() if abs(e) == top):
            problems.append(f"chosen piece {chosen!r} does not have the largest |e|")
        bound = 4 * abs(eulers[chosen])
        filling = {f"{chosen}:{s}": list(ps) for s, ps in enumerate(pairs[chosen])}
        needs = [(by_id[chosen]["genus"], by_id[chosen]["boundary"], pairs[chosen])]
    else:
        if out["case"] != "e_zero_pmj":
            return [f"case {out['case']!r}, expected e_zero_pmj"]
        counts = parallel_counts(doc)
        r = max(counts.values())
        pair = min(k for k, n in counts.items() if n == r)
        if out["chosen"] != {"pieces": list(pair), "r": r}:
            problems.append(f"chosen pair {out['chosen']} is not {pair} with r = {r}")
        bound = 8 * r
        shared = {
            tuple(end)
            for e in doc["edges"]
            if tuple(sorted((e["tail"][0], e["head"][0]))) == pair
            for end in (e["tail"], e["head"])
        }
        filling, needs = {}, []
        for pid in pair:
            ps = [(1, -1) if (pid, s) in shared else slopes[(pid, s)] for s in range(by_id[pid]["boundary"])]
            filling.update({f"{pid}:{s}": list(x) for s, x in enumerate(ps)})
            needs.append((by_id[pid]["genus"], by_id[pid]["boundary"], ps))
    if bound <= 0 or out["bound_pi2"] != fmt(bound):
        problems.append(f"bound {out['bound_pi2']} differs from {fmt(bound)}")
    if out["filling_slopes"] != filling:
        problems.append("filling slopes differ from the recomputed ones")
    return problems + _tower_problems(doc, out, needs)


def check_cover(base, out, mode: str, q: int, center: str | None) -> list[str]:
    """Counts, slot usage, connectivity, chi multiplicativity and the torus map of a cover."""
    problems = graph_problems(out)
    cert = out["certificate"]
    n_base, e_base = len(base["pieces"]), len(base["edges"])
    if mode == "characteristic":
        degree, level, n_up = q * q, q, n_base
    else:
        adjacent = neighbours(base)[center]
        degree, level, n_up = q, 1, len(adjacent) + q * (n_base - len(adjacent))
    if (len(out["pieces"]), len(out["edges"])) != (n_up, e_base * degree // (level * level)):
        problems.append("cover piece or edge count is wrong")
    if (cert["total_degree"], cert["characteristic_level"]) != (degree, level):
        problems.append("certificate degree or level is wrong")
    base_by_id = {p["id"]: p for p in base["pieces"]}
    up_by_id = {p["id"]: p for p in out["pieces"]}
    if set(cert["per_piece"]) != set(up_by_id):
        return problems + ["certificate records do not match the cover pieces"]
    degree_sum, chi_sum = Counter(), Counter()
    for pid, rec in cert["per_piece"].items():
        up, down = up_by_id[pid], base_by_id[rec["over"]]
        chi_up = 2 - 2 * up["genus"] - up["boundary"]
        chi_down = 2 - 2 * down["genus"] - down["boundary"]
        if chi_up != rec["horizontal_degree"] * chi_down:
            problems.append(f"chi multiplicativity fails on {pid!r}")
        if mode == "characteristic" and up["genus"] != rh_genus(down["genus"], down["boundary"], q):
            problems.append(f"covered genus of {pid!r} is wrong")
        degree_sum[rec["over"]] += rec["vertical_degree"] * rec["horizontal_degree"]
        chi_sum[rec["over"]] += rec["vertical_degree"] * chi_up
    for pid, down in base_by_id.items():
        chi_down = 2 - 2 * down["genus"] - down["boundary"]
        if degree_sum[pid] != degree or chi_sum[pid] != degree * chi_down:
            problems.append(f"degree or chi bookkeeping fails over {pid!r}")
    # torus_map indexes the base edges in canonical order: by tail, head, matrix.
    base_edges = sorted(base["edges"], key=lambda e: (e["tail"], e["head"], e["matrix"]))
    tmap = out["torus_map"]
    if len(tmap) != len(out["edges"]) or Counter(tmap) != Counter({i: degree // (level * level) for i in range(e_base)}):
        return problems + ["torus map does not cover every base edge equally"]
    for edge, i in zip(out["edges"], tmap):
        b = base_edges[i]
        if edge["matrix"] != b["matrix"]:
            problems.append("a lifted matrix differs from the base matrix")
        for side in ("tail", "head"):
            if cert["per_piece"][edge[side][0]]["over"] != b[side][0]:
                problems.append("a lifted edge end lies over the wrong piece")
    return problems


_SEIFERT_VERDICTS = {
    "sl2tilde": ("finite", "positive-seifert-volume"),
    "spherical": ("infinite", "finitely-covered-by-s3"),
    "s2xr": ("infinite", "finitely-covered-by-trivial-circle-bundle"),
    "euclidean": ("infinite", "finitely-covered-by-torus-bundle"),
    "nil": ("infinite", "finitely-covered-by-torus-bundle"),
    "h2xr": ("infinite", "finitely-covered-by-trivial-circle-bundle"),
}


def check_classify(doc, out) -> list[str]:
    """The verdict follows from the signs of e and chi (or from the flag or graph kind)."""
    if "pieces" in doc:
        expected = ("finite", "nontrivial-graph-manifold-virtually-positive-seifert-volume")
    elif doc["kind"] == "seifert":
        pairs = [tuple(x) for x in doc["exceptional"]]
        expected = _SEIFERT_VERDICTS[geometry(euler(pairs), orbifold_chi(doc["genus"], pairs))]
    elif doc["kind"] == "torus-bundle-covered":
        expected = ("infinite", "finitely-covered-by-torus-bundle")
    else:
        expected = ("finite", "positive-simplicial-volume")
    got = (out.get("verdict"), out.get("reason"))
    return [] if got == expected else [f"classify gave {got}, expected {expected}"]
