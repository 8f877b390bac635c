"""Shared numerical-safety floors for probability arithmetic.

Every log / division on belief, message or potential arrays must be
guarded against structural zeros (hard evidence, deterministic CPTs)
— an unguarded ``np.log(0)`` poisons a whole posterior with ``-inf``
and an unguarded ``x / m`` with a zeroed message row turns a cavity
division into ``inf``.  Historically each module carried its own
ad-hoc literal (``1e-30`` here, ``1e-300`` there); this module is the
single place those floors are defined.  Code that builds a log prior
and code that later patches it must clamp at the same floor, or the
patched state no longer equals a cold build of the same graph.

Two floors exist because two precisions exist:

``TINY`` / ``TINY32``
    The float32 kernel floor (``1e-30``).  Small enough that a clamped
    one-hot evidence row still rounds to exactly ``[0, 1]`` after
    normalization, large enough that ``log`` stays finite in float32.

``EPS``
    The float64 floor (``1e-300``) for the exact and junction-tree paths,
    where posteriors are compared against enumeration at much tighter
    tolerances.
"""

from __future__ import annotations

import numpy as np

__all__ = ["EPS", "TINY", "TINY32", "safe_log", "safe_divide"]

#: float64 log/division floor (exact enumeration, junction tree, reference backend)
EPS = 1e-300

#: float32-compatible floor; preserves one-hot evidence to within float32
#: resolution while keeping log-space arithmetic finite
TINY = 1e-30

#: ``TINY`` as a float32 scalar — use in float32 kernels so ``np.maximum``
#: does not upcast the operand
TINY32 = np.float32(TINY)


def safe_log(x, floor=TINY32):
    """``log(max(x, floor))`` — the canonical guarded logarithm.

    Preserves the input dtype for float32 arrays (``floor`` defaults to
    a float32 scalar); pass ``EPS`` explicitly on float64 paths.
    """
    return np.log(np.maximum(x, floor))


def safe_divide(num, den, floor=TINY32):
    """``num / max(den, floor)`` — division guarded against zero rows."""
    return num / np.maximum(den, floor)
