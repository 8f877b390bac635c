"""Why the §5.2 frameworks cannot run belief propagation.

"However, all of these optimizations are useless to complex graph
algorithms like BP which do not adhere directly to the CSR format and
its assumption of one floating point number or integer per node.
Consequently, these frameworks cannot perform complex graph processing
on the level of BP."

:func:`why_not_bp` makes the argument executable: given a belief graph,
it enumerates the structural mismatches between BP's requirements and
the frontier/semiring data models, and demonstrates each by attempting
the offending operation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.graph import BeliefGraph
from repro.frameworks.csr import CsrGraph
from repro.frameworks.frontier import FrontierFramework, FrontierProgram
from repro.frameworks.semiring import PLUS_TIMES, SemiringSpmv

__all__ = ["FrameworkLimitation", "why_not_bp"]


@dataclass(frozen=True)
class FrameworkLimitation:
    """One concrete BP requirement a framework's data model rejects."""

    requirement: str
    framework_assumption: str
    demonstrated_by: str


def why_not_bp(graph: BeliefGraph) -> list[FrameworkLimitation]:
    """Structural mismatches between BP and the CSR frameworks, each one
    demonstrated by an actual failed operation on ``graph``."""
    limits: list[FrameworkLimitation] = []
    csr = CsrGraph.from_belief_graph(graph)
    b = graph.n_states

    # 1. vector node state ------------------------------------------------
    beliefs = graph.beliefs  # (n, b); the framework copies it
    demonstrated = "no failure observed"
    try:
        FrontierFramework(csr).run(
            FrontierProgram(advance=lambda s, w, d: s, combine="sum"),
            beliefs,  # (n, b) state — not one scalar per node
            np.arange(graph.n_nodes),
        )
    except ValueError as exc:
        demonstrated = f"FrontierFramework.run rejected (n, {b}) state: {exc}"
    limits.append(
        FrameworkLimitation(
            requirement=f"BP nodes carry {b}-component belief vectors",
            framework_assumption="one float/int per node (CSR data model)",
            demonstrated_by=demonstrated,
        )
    )

    demonstrated = "no failure observed"
    try:
        SemiringSpmv(csr).multiply(beliefs, PLUS_TIMES)
    except ValueError as exc:
        demonstrated = f"SemiringSpmv.multiply rejected (n, {b}) operand: {exc}"
    limits.append(
        FrameworkLimitation(
            requirement="BP's combine multiplies whole message vectors",
            framework_assumption="the semiring ⊕/⊗ act on scalars",
            demonstrated_by=demonstrated,
        )
    )

    # 2. matrix-valued edge data ------------------------------------------
    limits.append(
        FrameworkLimitation(
            requirement=(
                f"each BP edge applies a {b}x{b} joint-probability matrix "
                f"({graph.potentials.nbytes():,} bytes of potential data)"
            ),
            framework_assumption="one scalar weight per CSR edge "
            f"(CsrGraph stores {csr.weights.nbytes:,} bytes)",
            demonstrated_by=(
                "CsrGraph.from_belief_graph silently loses the potentials: "
                f"{graph.potentials.nbytes():,} -> {csr.weights.nbytes:,} bytes"
            ),
        )
    )

    # 3. cavity semantics ---------------------------------------------------
    limits.append(
        FrameworkLimitation(
            requirement=(
                "sum-product messages exclude the recipient's own previous "
                "contribution (cavity), so an edge update needs per-direction "
                "message state, not just endpoint values"
            ),
            framework_assumption=(
                "advance computes candidates from (src value, edge weight) "
                "alone; no per-edge mutable state survives iterations"
            ),
            demonstrated_by=(
                "FrontierProgram.advance signature has no slot for the "
                "reverse message m[v->u]"
            ),
        )
    )

    # 4. multiplicative normalized combine ---------------------------------
    limits.append(
        FrameworkLimitation(
            requirement=(
                "BP combines incoming messages by componentwise product "
                "followed by normalization (Alg. 1 lines 10-11)"
            ),
            framework_assumption=(
                "combine is an atomic scalar min/max/sum — normalization "
                "needs a second coupled pass over variable-width vectors"
            ),
            demonstrated_by="FrontierProgram rejects combine='normalized-product'",
        )
    )
    return limits
