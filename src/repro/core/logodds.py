"""Binary messages and beliefs as log-odds (DESIGN.md §13.10).

At two states a normalised message ``[m0, m1]`` is one number, its
log-odds ``log(m1 / m0)``, and every step of a sum-product update has a
closed form on it:

* the cavity of edge ``u → v`` is ``belief_lo[u] − msg_lo[v → u]`` (a
  subtraction where the general path divides and renormalises);
* the potential ``ψ`` maps a cavity with odds ``t = exp(c)`` to the
  message odds ``(ψ01 + ψ11·t) / (ψ00 + ψ10·t)`` (``max`` in place of
  ``+`` for max-product), so no row normalisation is needed;
* a node's belief log-odds is its prior log-odds plus the sum of its
  in-message log-odds, and its probabilities are
  ``0.5 ∓ 0.5·tanh(lo / 2)``;
* the L1 change of a message is ``2·|σ(new) − σ(old)| =
  |tanh(new/2) − tanh(old/2)|``.

Clamps keep every value finite.  A cavity is clipped to ``±LIMIT``
(``LIMIT = log(1/TINY)``) before ``exp``, so ``t`` stays within
``[TINY, 1/TINY]``; the potentials are scaled to a largest entry of at
most 1 (:func:`coefficients`), so ``ψ·t`` cannot overflow; and the odds
ratio is clipped to ``[TINY, 1/TINY]`` before its one ``log``, so a
stored message lies in ``[−LIMIT, LIMIT]`` — the range the general
path's ``log(max(m, TINY))`` gives.  Only when some potential's first
row holds an entry below ``TINY`` can an odds term vanish; then both
terms are floored at ``TINY`` first, so ``0/0`` reads as the uniform
message.

These helpers are the single definition of the binary update: the
reference methods of :class:`~repro.core.state.LoopyState` and the
compiled executor both call them, which keeps the two bit-identical.
"""

from __future__ import annotations

import numpy as np

from repro.core.numeric import TINY32, safe_log

# ``np.clip`` reaches the ``clip`` ufunc through three Python-level
# wrappers: 3.7 vs 0.9 µs for 141 float32 values (2-core Xeon VM).
# :func:`message` runs once per sweep however few edges the sweep holds,
# so both its clamps call the ufunc itself, the same single pass
# (``maximum`` then ``minimum`` would take two: 1.18 vs 0.58 ms at 1.6M
# values).  The lint's RPR101 reads the imported ufunc as ``np.clip``.
try:
    from numpy._core.umath import clip as _clip
except ImportError:  # NumPy < 2
    from numpy.core.umath import clip as _clip

__all__ = [
    "LIMIT",
    "belief_rows",
    "coefficients",
    "damp",
    "deltas",
    "from_rows",
    "message",
]

_FLOAT = np.float32
_HALF = np.float32(0.5)
_ONE = np.float32(1.0)
_TWO = np.float32(2.0)

#: the log-odds clamp, ``log(1/TINY)``: a one-hot row's log-odds
LIMIT = -safe_log(TINY32)

#: the odds clamp, ``1/TINY``
_ODDS_MAX = np.float32(1.0 / np.float64(TINY32))


def coefficients(potentials: np.ndarray, shared: bool) -> tuple[np.ndarray, bool]:
    """The potentials as closed-form coefficients ``(ψ00, ψ01, ψ10, ψ11)``.

    Returns ``(coef, floor)``: ``coef`` is ``(4,)`` for a shared matrix
    and ``(m, 4)`` for a per-edge stack, scaled so the largest entry is
    at most 1 (a common factor cancels in the odds ratio); ``floor``
    says whether some edge's first row holds an entry below ``TINY``,
    the only case in which an odds term can vanish.
    """
    coef = np.asarray(potentials, dtype=_FLOAT).reshape(-1, 4)
    top = float(coef.max(initial=0.0))
    if top > 1.0:
        coef = coef / _FLOAT(top)
    floor = bool((coef[:, :2] < TINY32).any())
    return (coef[0] if shared else coef), floor


def message(
    cavity: np.ndarray,
    coef,
    semiring: str,
    floor: bool,
    out: np.ndarray,
) -> np.ndarray:
    """New message log-odds from cavity log-odds, written into ``out``.

    ``coef`` is the four coefficients of :func:`coefficients`, scalars or
    per-edge columns aligned with ``cavity``.  ``cavity`` is consumed as
    scratch.
    """
    c00, c01, c10, c11 = coef
    _clip(cavity, -LIMIT, LIMIT, out=cavity)
    odds = np.exp(cavity, out=cavity)
    if semiring == "sum":
        num = np.multiply(odds, c11, out=out)
        num += c01
        den = np.multiply(odds, c10, out=odds)
        den += c00
    elif semiring == "max":
        num = np.multiply(odds, c11, out=out)
        np.maximum(num, c01, out=num)
        den = np.multiply(odds, c10, out=odds)
        np.maximum(den, c00, out=den)
    else:
        raise ValueError(f"unknown semiring {semiring!r}")
    if floor:
        np.maximum(num, TINY32, out=num)
        np.maximum(den, TINY32, out=den)
    with np.errstate(over="ignore"):  # an overflow is clipped just below
        np.divide(num, den, out=num)
    ratio = _clip(num, TINY32, _ODDS_MAX, out=num)
    return np.log(ratio, out=ratio)


def damp(new: np.ndarray, old: np.ndarray, damping: float) -> np.ndarray:
    """Log-odds of ``(1 − d)·m_new + d·m_old``, mixed as probabilities.

    A probability mix of two binary messages mixes their ``tanh(lo/2)``
    the same way, and ``2·atanh`` maps it back.
    """
    mixed = np.tanh(new * _HALF)
    mixed *= _FLOAT(1.0 - damping)
    kept = np.tanh(old * _HALF)
    kept *= _FLOAT(damping)
    mixed += kept
    np.clip(mixed, -_ONE, _ONE, out=mixed)
    with np.errstate(divide="ignore"):
        np.arctanh(mixed, out=mixed)
    mixed *= _TWO
    return np.clip(mixed, -LIMIT, LIMIT, out=mixed)


def deltas(
    new: np.ndarray,
    old: np.ndarray,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Per-message L1 change ``|tanh(new/2) − tanh(old/2)|``."""
    out = np.multiply(new, _HALF, out=out)
    np.tanh(out, out=out)
    before = np.multiply(old, _HALF, out=scratch)
    np.tanh(before, out=before)
    out -= before
    return np.abs(out, out=out)


def belief_rows(lo: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``(k, 2)`` probability rows ``[0.5 − h, 0.5 + h]``,
    ``h = 0.5·tanh(lo/2)``."""
    if out is None:
        out = np.empty((len(lo), 2), dtype=_FLOAT)
    half = np.multiply(lo, _HALF)
    np.tanh(half, out=half)
    half *= _HALF
    np.subtract(_HALF, half, out=out[:, 0])
    np.add(_HALF, half, out=out[:, 1])
    return out


def from_rows(rows: np.ndarray) -> np.ndarray:
    """Log-odds of ``(k, 2)`` probability rows, clamped to ``±LIMIT``."""
    rows = np.asarray(rows, dtype=_FLOAT)
    lo = safe_log(rows[:, 1], TINY32) - safe_log(rows[:, 0], TINY32)
    return np.clip(lo, -LIMIT, LIMIT, out=lo)
