"""Write the ``oneshot-rand200k`` input files and their reference.

Run in a child process so that the generator's memory does not count in
the measured process's peak RSS::

    python3 perfbench/make_inputs.py <seed> <n_nodes> <n_edges> <out_dir>

Writes ``graph.mtx`` + ``graph.edges`` (the Table 1 binary synthetic
graph in the dual-file MTX format) and ``reference.npy``: the same graph
solved with ``c-node:sync`` at threshold :data:`REFERENCE_THRESHOLD`,
the tighter-threshold reference every measured solve is compared to.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

#: summed L1 belief-change threshold of the reference solve (the
#: measured solves use the default 1e-3).  Summed over 200k float32
#: rows, 1e-6 sits below the rounding floor and never converges.
REFERENCE_THRESHOLD = 1e-5


def main(argv: list[str]) -> int:
    seed, n_nodes, n_edges, out = int(argv[0]), int(argv[1]), int(argv[2]), Path(argv[3])
    from repro.core.convergence import ConvergenceCriterion
    from repro.credo.runner import Credo
    from repro.graphs.suite import BenchmarkGraph, build_graph
    from repro.io.mtx import write_mtx_graph

    spec = BenchmarkGraph(
        f"{n_nodes}_nodes_{n_edges}_edges", "bench", "synthetic",
        n_nodes, n_edges, "benchmark input",
    )
    graph, _ = build_graph(spec, "binary", profile="paper", seed=seed)
    write_mtx_graph(graph, out / "graph.mtx", out / "graph.edges")
    # priors round-trip through 8 significant digits: ~1e-8 from what the
    # program parses, far below the comparison tolerance
    credo = Credo(criterion=ConvergenceCriterion(REFERENCE_THRESHOLD, 200))
    ref = credo.run(graph, backend="c-node:sync", executor="compiled")
    if not ref.converged:
        print(f"reference did not converge in {ref.iterations} sweeps", file=sys.stderr)
        return 1
    np.save(out / "reference.npy", np.asarray(ref.beliefs, dtype=np.float32))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
