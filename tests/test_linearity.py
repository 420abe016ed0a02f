"""Every layer does linear work in the graph size, counted in bytecodes.

Each layer runs on a cycle of n and of 4n pieces, and the test counts the
bytecode instructions it executes with sys.settrace and f_trace_opcodes.
Linear work gives a ratio near 4; the gate is 4.4, while a quadratic layer
reads near 16.  The count does not depend on the speed or load of the
machine.  Loops inside C are not counted: `in` on a list, `sorted`, `sum`
or `str.join` cost one instruction however long they run, so a quadratic
scan hidden in such a call passes this gate.

The matrices and genera repeat with period 4, so every size has the same
pieces in the same proportions, and the same choice of plan and tower.
"""

import random
import sys

from gmanvol import (
    absolute_euler_number,
    characteristic_cover,
    genus_raising_cover,
    graph_from_document,
    graph_to_document,
    validate,
    verify_covering_certificate,
    volume_lower_bound,
)
from gmanvol.coverings import covered_graph_from_document, covered_graph_to_document

from builders import cycle_graph, random_gluing_matrix

SIZES = (100, 400)
MAX_RATIO = 4.4
Q = 5


def periodic_cycle(n: int):
    rng = random.Random(3)
    matrices = [random_gluing_matrix(rng) for _ in range(4)]
    genera = [2, 3, 2, 4]
    return cycle_graph([matrices[i % 4] for i in range(n)], [genera[i % 4] for i in range(n)])


def counted(function, *args):
    """function(*args), and the bytecode instructions it executed in Python frames."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return local

    def on_call(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        result = function(*args)
    finally:
        sys.settrace(previous)
    return result, count


def layer_counts(n: int) -> dict[str, int]:
    counts = {}

    def run(function, *args):
        result, counts[function.__name__] = counted(function, *args)
        return result

    gm = run(graph_from_document, graph_to_document(periodic_cycle(n)))
    run(validate, gm)
    run(absolute_euler_number, gm)
    assert run(volume_lower_bound, gm).plan.q > 1, "every size must need a tower"
    run(characteristic_cover, gm, Q)
    cover = run(genus_raising_cover, gm, "P0", Q)
    run(verify_covering_certificate, cover, gm)
    run(covered_graph_from_document, run(covered_graph_to_document, cover))
    return counts


def test_every_layer_is_linear():
    small, large = (layer_counts(n) for n in SIZES)
    assert len(small) == 9 and all(small.values()), small
    ratios = {layer: round(large[layer] / small[layer], 2) for layer in small}
    assert {layer: ratio for layer, ratio in ratios.items() if ratio > MAX_RATIO} == {}
