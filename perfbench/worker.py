"""One workload run: a closed loop with one client, timed operation by operation.

Usage: python3 worker.py --manifest M --seconds S --trace 0|1

The worker repeats whole rounds of the manifest's operations until S
seconds have passed.  Each operation goes through gmanvol's public entry
points and is timed alone, after gc.collect().  Outputs are checked outside
the timed region: in full by the oracle on the first round, and for byte
equality with the first round afterwards.  The last line of stdout is a
JSON object with correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from time import monotonic, perf_counter_ns

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

WINDOW_NS = 10**9

PER_LAYER_CALLS = (
    "graph.canonical_framing", "graph.GraphManifold.piece", "graph.absolute_euler_number",
    "graph.validate", "graph.GraphManifold.adjacent_pieces", "coverings.is_prime",
    "coverings.next_prime_above", "seifert.ehn_horizontal_foliation", "seifert.fill_framed_piece",
    "graph.parse_graph", "serialize.canonical_json_bytes",
)
PER_LAYER_SELF = (
    "graph.canonical_framing", "graph.validate", "coverings.min_prime_for_ehn_cover",
    "coverings.genus_raising_cover", "coverings.characteristic_cover",
    "coverings.verify_covering_certificate", "coverings.covered_graph_to_document",
    "coverings.covered_graph_from_document", "volume.volume_lower_bound", "volume.case1_bound",
    "volume.case2_bound", "cli.run", "graph.graph_from_document",
    "classify.mapping_degree_finiteness", "serialize.canonical_json_bytes",
)


def corrupt(check: str, doc):
    """A copy of one output document with a single wrong field."""
    bad = json.loads(json.dumps(doc))
    if check == "volume":
        bad["bound_pi2"] = oracle.fmt(oracle.Fraction(bad["bound_pi2"]) + 1)
    elif check == "invariants":
        bad["absolute_euler_number"] = oracle.fmt(oracle.Fraction(bad["absolute_euler_number"]) + 1)
    elif check in ("cover", "cover-verify"):
        # Raise one covering piece's genus in the graph and in its record
        # alike, so only the Euler-characteristic bookkeeping can notice.
        piece = bad["pieces"][0]
        piece["genus"] += 1
        bad["certificate"]["per_piece"][piece["id"]]["genus_up"] += 1
    elif check == "classify":
        bad["verdict"] = "infinite" if bad["verdict"] == "finite" else "finite"
    else:
        bad = ["bogus violation"]
    return bad


def oracle_check(op, doc, got) -> list[str]:
    kind = op["check"]
    if kind in ("cover", "cover-verify"):
        return oracle.check_cover(doc, got, op["mode"], op["q"], op["center"])
    return {
        "validate": oracle.check_validate,
        "invariants": oracle.check_invariants,
        "volume": oracle.check_volume,
        "classify": oracle.check_classify,
    }[kind](doc, got)


class Run:
    def __init__(self, manifest: Path, trace: bool):
        import gmanvol
        from gmanvol import cli
        from gmanvol.coverings import covered_graph_from_document

        if Path(gmanvol.__file__).resolve().parent != HERE.parent / "src" / "gmanvol":
            raise SystemExit(f"gmanvol was imported from {gmanvol.__file__}, not from this checkout")
        self.gmanvol, self.cli, self.from_document = gmanvol, cli, covered_graph_from_document
        self.directory = manifest.parent
        self.ops = json.loads(manifest.read_text(encoding="utf-8"))["ops"]
        self.tracer = Tracer() if trace else None
        if self.tracer:
            self.tracer.install()
        self.digests: dict[int, str] = {}
        self.cover_pieces: dict[int, int] = {}
        self.input_pieces: dict[int, int] = {}
        self.problems: list[str] = []
        self.latencies_ns: list[int] = []
        self.round_latencies: list[list[int]] = []
        self.samples: list[tuple[int, dict]] = []  # (op index, self ns per layer) when traced
        self.output_bytes = 0
        self.attempted = self.failed = 0
        self.controlled: set[str] = set()

    def path(self, name: str) -> Path:
        return self.directory / name

    def execute(self, op):
        argv = [str(self.path(a[1:])) if a.startswith("@") else a for a in op["argv"]]
        out, err = io.StringIO(), io.StringIO()
        report = None
        gc.collect()
        start = perf_counter_ns()
        code = self.cli.run(argv, out, err)
        if op["check"] == "cover-verify" and code == 0:
            base = self.gmanvol.parse_graph(self.path(op["inputs"][0]).read_bytes())
            cover = self.from_document(json.loads(out.getvalue()))
            report = self.gmanvol.verify_covering_certificate(cover, base)
        elapsed = perf_counter_ns() - start
        return elapsed, code, out.getvalue(), err.getvalue(), report

    def check(self, index: int, op, code: int, out: str, err: str, report) -> list[str]:
        kind = op["check"]
        if kind == "error":
            got = json.loads(err) if err else {}
            if (code, got.get("error"), out) != (op["exit"], op["error"], ""):
                return [f"{op['argv'][0]}: exit {code} {got.get('error')}, expected {op['exit']} {op['error']}"]
            return []
        if kind == "report":
            lines = out.splitlines()
            if code != op["exit"] or len(lines) != 1 or not json.loads(lines[0]) or err:
                return [f"validate of an invalid graph: exit {code}, output {out[:80]!r}"]
            return []
        lines = [json.loads(line) for line in out.splitlines()]
        if code != 0 or err or len(lines) != len(op["inputs"]):
            return [f"{op['argv'][0]}: exit {code}, {len(lines)} outputs, stderr {err[:200]!r}"]
        problems = []
        docs = [json.loads(self.path(name).read_text(encoding="utf-8")) for name in op["inputs"]]
        self.input_pieces[index] = sum(len(d.get("pieces", [])) for d in docs)
        for doc, got in zip(docs, lines):
            problems += oracle_check(op, doc, got)
            if kind in ("cover", "cover-verify"):
                self.cover_pieces[index] = self.cover_pieces.get(index, 0) + len(got["pieces"])
        if kind == "cover-verify" and report != []:
            problems.append(f"verify_covering_certificate reported {report[:2]}")
        if kind not in self.controlled and not problems:
            self.controlled.add(kind)
            problems += self.control(op, docs[0], lines[0])
        return problems

    def control(self, op, doc, got) -> list[str]:
        """Show on one corrupted output that the oracle rejects it, and for a cover the verifier too."""
        kind = op["check"]
        bad = corrupt(kind, got)
        rejected = oracle_check(op, doc, bad)
        if kind in ("cover", "cover-verify"):
            with self.tracer.paused() if self.tracer else contextlib.nullcontext():
                base = self.gmanvol.graph_from_document(doc)
                if not self.gmanvol.verify_covering_certificate(self.from_document(bad), base):
                    return ["verify_covering_certificate accepted a corrupted cover"]
        return [] if rejected else [f"the oracle accepted a corrupted {kind} output"]

    def round(self) -> None:
        latencies = []
        for index, op in enumerate(self.ops):
            self.attempted += 1
            before = self.tracer.module_ns() if self.tracer else None
            try:
                elapsed, code, out, err, report = self.execute(op)
            except (Exception, SystemExit) as exc:  # an operation that crashes counts as failed
                self.failed += 1
                print(f"operation {op['argv']} failed: {exc!r}", file=sys.stderr)
                continue
            latencies.append(elapsed)
            self.output_bytes += len(out.encode("utf-8"))
            if self.tracer:
                after = self.tracer.module_ns()
                self.samples.append((index, {k: after[k] - before[k] for k in after}))
            digest = hashlib.blake2b(f"{code}\0{out}\0{err}\0{report}".encode()).hexdigest()
            if index not in self.digests:
                self.digests[index] = digest
                self.problems += self.check(index, op, code, out, err, report)
            elif self.digests[index] != digest:
                self.problems.append(f"{op['argv'][0]} output changed between rounds")
        self.latencies_ns += latencies
        self.round_latencies.append(latencies)

    def loop(self, seconds: float) -> int:
        start = monotonic()
        rounds = 0
        while rounds == 0 or monotonic() - start < seconds:
            self.round()
            rounds += 1
        return rounds

    def windows(self) -> list[list[int]]:
        """Operation latencies grouped into windows of whole rounds with at least WINDOW_NS of work."""
        windows, current = [], []
        for latencies in self.round_latencies:
            current += latencies
            if sum(current) >= WINDOW_NS:
                windows.append(current)
                current = []
        if current:
            if windows:
                windows[-1] += current
            else:
                windows.append(current)
        return windows

    def end_to_end(self) -> dict:
        # The machine's speed swings by a quarter within seconds, and how long
        # it runs fast differs from run to run, while its slow phases recur at
        # the same speed in nearly every run.  So each metric is taken per
        # window of about a second and reported for the slow tenth of the
        # windows, where the run-to-run spread is smallest.
        windows = self.windows()
        medians = sorted(statistics.median(w) / 1e6 for w in windows)
        rates = sorted(len(w) / (sum(w) / 1e9) for w in windows)
        return {
            "p50_ms": {"value": medians[round(0.9 * (len(medians) - 1))], "unit": "ms"},
            "ops_per_s": {"value": rates[round(0.1 * (len(rates) - 1))], "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }

    def reference(self) -> dict:
        """The highest of p99/p95/p90 with at least ten samples beyond it, for reference only."""
        ms = sorted(ns / 1e6 for ns in self.latencies_ns)
        for p in (99, 95, 90):
            beyond = len(ms) - math.ceil(len(ms) * p / 100)
            if len(ms) >= 40 and beyond >= 10:
                return {f"p{p}_ms": ms[math.ceil(len(ms) * p / 100) - 1], "samples": len(ms), "beyond": beyond}
        return {"samples": len(ms)}

    def per_layer(self) -> dict:
        ops = len(self.latencies_ns)
        t = self.tracer
        metrics = {}
        for name in PER_LAYER_CALLS:
            metrics[f"{name}.calls"] = (t.calls[name] / ops, "count")
        for name in PER_LAYER_SELF:
            metrics[f"{name}.self_ms"] = (t.self_ns[name] / 1e6 / ops, "ms")
        modules = t.module_ns()
        metrics["coverings.min_prime_for_ehn_cover.incl_ms"] = (
            t.incl_ns["coverings.min_prime_for_ehn_cover"] / 1e6 / ops, "ms")
        for layer in LAYERS + ("json",):
            metrics[f"{layer}.self_ms"] = (modules[layer] / 1e6 / ops, "ms")
        total_ns = sum(self.latencies_ns)
        metrics["outside.self_ms"] = ((total_ns - sum(modules.values())) / 1e6 / ops, "ms")
        metrics["trace.op_ms"] = (total_ns / 1e6 / ops, "ms")
        metrics["trace.ops"] = (ops, "count")
        metrics["serialize.output_bytes"] = (self.output_bytes / ops, "B")
        metrics["input_pieces"] = (statistics.fmean(self.input_pieces.get(i, 0) for i, _ in self.samples), "count")
        metrics["cover_pieces"] = (statistics.fmean(self.cover_pieces.get(i, 0) for i, _ in self.samples), "count")
        metrics["graph.exponent"] = (self.exponent("graph", self.input_pieces), "1")
        metrics["coverings.exponent"] = (self.exponent("coverings", self.cover_pieces), "1")
        return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    def exponent(self, layer: str, sizes: dict[int, int]) -> float:
        """Least-squares slope of log(layer self time) against log(size) over the operations.

        0 when the sizes span less than a factor of three, where a slope
        would say nothing about growth.
        """
        points = [
            (math.log(sizes[i]), math.log(layers[layer]))
            for i, layers in self.samples
            if sizes.get(i) and layers.get(layer, 0) > 0
        ]
        xs = [x for x, _ in points]
        if len(points) < 3 or max(xs) - min(xs) < math.log(3):
            return 0.0
        mx, my = statistics.fmean(xs), statistics.fmean(y for _, y in points)
        return sum((x - mx) * (y - my) for x, y in points) / sum((x - mx) ** 2 for x in xs)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--manifest", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    run = Run(args.manifest, bool(args.trace))
    rounds = run.loop(args.seconds)
    for problem in run.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    metrics = run.per_layer() if args.trace else run.end_to_end()
    print(json.dumps({"rounds": rounds, "ops_per_round": len(run.ops), "reference": run.reference()}))
    print(json.dumps({
        "correct": not run.problems and bool(run.latencies_ns),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
