"""The start-up cost of the command line, counted in bytecodes.

A fresh interpreter counts the bytecode instructions that `import
gmanvol.cli` executes, with the counter of test_linearity.counted set
before any import, so the standard-library modules the package pulls in
are counted too.  The child runs isolated (-I), with the source directory
first on sys.path, as perfbench/probe.py puts it, and an empty bytecode
cache prefix, so every module is compiled from source and the count
repeats exactly.  Compilation itself runs in C and is not counted.
"""

import subprocess
import sys
from pathlib import Path

import pytest

SRC_DIR = Path(__file__).resolve().parents[1] / "src"

# Measured at 347,330 on CPython 3.11.7 (360,840 while BundlePiece, Edge,
# GluingMatrix and PieceCoverRecord were frozen dataclasses); one more frozen
# dataclass costs about 4,800.
MAX_IMPORT_BYTECODES = 349_600

SCRIPT = """
import sys

count = 0

def local(frame, event, arg):
    global count
    if event == "opcode":
        count += 1
    return local

def on_call(frame, event, arg):
    frame.f_trace_opcodes = True
    return local

sys.path.insert(0, sys.argv[1])
sys.settrace(on_call)
import gmanvol.cli
sys.settrace(None)
print(count, gmanvol.cli.__file__)
"""


@pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="the bound was measured on CPython 3.11",
)
def test_import_bytecodes_within_bound(tmp_path):
    runs = [
        subprocess.run(
            [sys.executable, "-I", "-B", "-X", f"pycache_prefix={tmp_path}",
             "-c", SCRIPT, str(SRC_DIR)],
            capture_output=True, check=True, text=True, timeout=60,
        ).stdout.split(maxsplit=1)
        for _ in range(2)
    ]
    assert Path(runs[0][1].strip()) == SRC_DIR / "gmanvol" / "cli.py"
    counts = [int(count) for count, _ in runs]
    assert counts[0] == counts[1], counts
    assert counts[0] <= MAX_IMPORT_BYTECODES, counts[0]
