"""The bytecodes of the invariants and volume-bound verbs, bounded.

Each verb runs through cli.run on the 400-piece periodic cycle of
test_linearity, once to warm up (the argument parser is built on the first
run) and twice counted with its counter.  The count repeats exactly, so a
change that adds Python-level work to either verb fails here even when the
machine is too noisy to time it.  The bounds are the counts measured on
CPython 3.11.7 plus about 2 %.
"""

import io
import sys

import pytest

from gmanvol import cli, serialize_graph

from test_linearity import counted, periodic_cycle

SIZE = 400

# Measured at 314,987 and 339,740 (477,729 and 476,535 while the
# filled-piece table reduced two Fractions per piece).
MAX_BYTECODES = {"invariants": 321_400, "volume-bound": 346_600}


def verb_bytecodes(verb: str, path: str) -> int:
    out, err = io.StringIO(), io.StringIO()
    code, count = counted(cli.run, [verb, path], out, err)
    assert (code, err.getvalue()) == (0, ""), err.getvalue()
    return count


@pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="the bounds were measured on CPython 3.11",
)
@pytest.mark.parametrize("verb", sorted(MAX_BYTECODES))
def test_verb_bytecodes_within_bound(verb, tmp_path):
    path = tmp_path / "cycle.json"
    path.write_bytes(serialize_graph(periodic_cycle(SIZE)))
    cli.run([verb, str(path)], io.StringIO(), io.StringIO())
    counts = [verb_bytecodes(verb, str(path)) for _ in range(2)]
    assert counts[0] == counts[1], counts
    assert counts[0] <= MAX_BYTECODES[verb], counts[0]
