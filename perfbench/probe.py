"""Set-up probe: import gmanvol and read one workload's input files, then print "ready".

run.py launches this in a fresh interpreter several times and reports the
median time from launch to "ready" as setup_s.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gmanvol.cli  # noqa: E402,F401

manifest = Path(sys.argv[1])
for name in json.loads(manifest.read_text(encoding="utf-8"))["files"]:
    (manifest.parent / name).read_bytes()
sys.stdout.write("ready\n")
sys.stdout.flush()
