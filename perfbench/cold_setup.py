"""Time a cold set-up of the program in a fresh interpreter.

    python3 perfbench/cold_setup.py '<json spec>'

Times ``import repro.credo.runner`` plus ``Credo()``, then, when the
spec names a grid and backends, builds that grid untimed and adds the
time of one ``Credo.plan`` per backend.  Prints the seconds.  This is
what a one-shot caller such as ``credo run`` pays before its first
solve; in-process, the construction and plans alone take microseconds,
too little to time steadily.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv: list[str]) -> int:
    spec = json.loads(argv[0])
    t0 = time.perf_counter()
    from repro.credo.runner import Credo

    credo = Credo()
    spent = time.perf_counter() - t0
    if spec.get("grid"):
        from repro.graphs.grids import grid_graph

        side, n_states, seed, coupling = spec["grid"]
        graph = grid_graph(side, side, n_states=n_states, seed=seed, coupling=coupling)
        t1 = time.perf_counter()
        for backend in spec["backends"]:
            credo.plan(graph, backend=backend)
        spent += time.perf_counter() - t1
    print(repr(spent))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
