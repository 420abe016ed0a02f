"""Every walk-through in demos/ runs to completion and prints its snapshot.

tests/golden/demos/ holds the stdout of each demo, byte for byte.  The
snapshots are regenerated with the command line goldens:

    PYTHONPATH=src python tests/test_golden.py
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SNAPSHOT_DIR = Path(__file__).parent / "golden" / "demos"


def run_demo(demo: Path) -> bytes:
    """The stdout of one demo, run against the package in src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, timeout=60, env=env
    )
    assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
    return proc.stdout


def snapshot_path(demo: Path) -> Path:
    return SNAPSHOT_DIR / f"{demo.stem}.out"


def test_demos_exist():
    assert DEMOS


def test_every_snapshot_has_a_demo():
    stored = {path.name for path in SNAPSHOT_DIR.glob("*.out")}
    assert stored == {snapshot_path(demo).name for demo in DEMOS}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    assert run_demo(demo) == snapshot_path(demo).read_bytes()


def regenerate() -> None:
    """Rewrite every snapshot; print the name of each one that changed."""
    SNAPSHOT_DIR.mkdir(parents=True, exist_ok=True)
    old = {}
    for stale in SNAPSHOT_DIR.glob("*.out"):
        old[stale.name] = stale.read_bytes()
        stale.unlink()
    for demo in DEMOS:
        path, output = snapshot_path(demo), run_demo(demo)
        path.write_bytes(output)
        before = old.pop(path.name, None)
        if before != output:
            print(f"{'changed' if before is not None else 'added'}: demos/{path.name}")
    for name in old:
        print(f"removed: demos/{name}")
