"""gmanvol benchmark: python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Generates the workload's seeded inputs (cached under perfbench/.cache),
measures set-up time over several fresh interpreters, then runs one worker
process that times whole rounds of operations for S seconds and checks
every output.  With --trace 0 it reports the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced run.  The last line of stdout
is one JSON object: correct, attempted, failed and metrics.

python3 perfbench/run.py --quick runs every workload in both modes on tiny
inputs, as a smoke test of the benchmark itself.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = HERE / ".cache"
SETUP_LAUNCHES = 15
WORKER_TIMEOUT_S = 150

sys.path.insert(0, str(HERE))

import gen  # noqa: E402


def setup_seconds(manifest: Path) -> float:
    """Median time from launching an interpreter until gmanvol is imported and the inputs read."""
    times = []
    for launch in range(SETUP_LAUNCHES + 1):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "probe.py"), str(manifest)],
                              stdout=subprocess.PIPE, cwd=ROOT) as proc:
            ready = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        if ready != b"ready\n" or proc.returncode:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        if launch:  # the first launch also writes the bytecode caches
            times.append(elapsed)
    return statistics.median(times)


def run_workload(workload: str, seed: int, seconds: float, trace: int, quick: bool) -> tuple[dict, str]:
    manifest = gen.generate(workload, seed, quick, CACHE, ROOT / "tests" / "corpus")
    setup = None if trace else setup_seconds(manifest)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--manifest", str(manifest),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, cwd=ROOT, timeout=WORKER_TIMEOUT_S, check=True, text=True,
    )
    *info, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    if setup is not None:
        result["metrics"]["setup_s"] = {"value": setup, "unit": "s"}
    return result, "\n".join(info)


def smoke(seed: int) -> int:
    """Every workload, traced and untraced, on tiny inputs; the metric names must match BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    ok = True
    for workload in gen.WORKLOADS:
        for trace in (0, 1):
            start = time.perf_counter()
            result, _ = run_workload(workload, seed, 1, trace, quick=True)
            good = (result["correct"] and result["failed"] == 0 and result["attempted"] > 0
                    and set(result["metrics"]) == expected[trace])
            ok &= good
            print(f"{'ok' if good else 'FAIL'} {workload} trace={trace} attempted={result['attempted']} "
                  f"failed={result['failed']} ({time.perf_counter() - start:.1f} s)")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny inputs; without --workload, the smoke test")
    args = parser.parse_args()
    if not (ROOT / "src" / "gmanvol" / "__init__.py").is_file():
        print(f"no gmanvol sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload is None:
        if not args.quick:
            parser.error("--workload is required")
        return smoke(args.seed)
    result, info = run_workload(args.workload, args.seed, args.seconds, args.trace, args.quick)
    if info:
        print(info)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
