"""The axis lattice: named project dimensions and abstract array values.

The whole-program analyzer does not track concrete sizes — it tracks
*which project dimension* each array axis ranges over.  The dimensions
are the handful of named sizes the entire runtime is indexed by
(``n_nodes``, ``n_edges``, ``n_states``); every
structure array in :class:`~repro.core.state.LoopyState` and
:class:`~repro.core.graph.BeliefGraph` is a product of them.  Two
arrays whose axes name *different* dimensions can never be legally
broadcast, gathered into each other's index space, or accumulated
together — that is the invariant rules RPR401/402 check.

An axis is a plain string token:

* a **named dimension** from :data:`NAMED_AXES` — pairwise distinct by
  construction (a graph with ``n_nodes == n_edges`` is possible, but
  code relying on it is a bug);
* a **literal** like ``"1"`` or ``"8"`` (broadcastable when ``"1"``);
* :data:`UNKNOWN` (``"?"``) — the lattice top, compatible with
  everything.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

__all__ = [
    "UNKNOWN",
    "NAMED_AXES",
    "ArrayValue",
    "ScalarValue",
    "axes_broadcastable",
    "broadcast_shapes",
    "join_axis",
    "join_values",
    "promote_dtype",
]

#: lattice top: an axis (or dtype) the analysis could not pin down
UNKNOWN = "?"

#: the project's named dimensions; pairwise distinct for analysis purposes
NAMED_AXES = frozenset({"n_nodes", "n_edges", "n_states"})

#: dtype promotion ladder (NEP-50 style: python scalars are weak and do
#: not promote float32 arrays, so they never appear here)
_DTYPE_RANK = {"bool": 0, "int64": 1, "float32": 2, "float64": 3}


def _is_literal(axis: str) -> bool:
    return axis not in NAMED_AXES and axis != UNKNOWN and axis.isdigit()


def axes_broadcastable(a: str, b: str) -> bool:
    """Can axes ``a`` and ``b`` legally align under numpy broadcasting?

    Conservative: only a pair of *distinct named* dimensions (or a named
    dimension against a literal > 1) is a definite mismatch.
    """
    if a == b or UNKNOWN in (a, b):
        return True
    if a == "1" or b == "1":
        return True
    if a in NAMED_AXES and b in NAMED_AXES:
        return False  # distinct named dims never coincide by contract
    if a in NAMED_AXES and _is_literal(b):
        return False
    if b in NAMED_AXES and _is_literal(a):
        return False
    return True  # two unequal literals etc.: leave to the runtime


def join_axis(a: str, b: str) -> str:
    return a if a == b else UNKNOWN


def broadcast_shapes(
    sa: tuple[str, ...], sb: tuple[str, ...]
) -> tuple[tuple[str, ...] | None, tuple[str, str] | None]:
    """Broadcast two abstract shapes.

    Returns ``(result_shape, conflict)``: on success ``conflict`` is
    ``None``; on a definite axis mismatch ``result_shape`` is ``None``
    and ``conflict`` names the offending axis pair.
    """
    rank = max(len(sa), len(sb))
    pa = (UNKNOWN,) * (rank - len(sa)) + sa
    pb = (UNKNOWN,) * (rank - len(sb)) + sb
    out: list[str] = []
    for x, y in zip(pa, pb):
        if not axes_broadcastable(x, y):
            return None, (x, y)
        if x == y:
            out.append(x)
        elif x == "1" or x == UNKNOWN:
            out.append(y)
        elif y == "1" or y == UNKNOWN:
            out.append(x)
        else:
            out.append(UNKNOWN)
    return tuple(out), None


def promote_dtype(a: str | None, b: str | None) -> str | None:
    """Result dtype of combining two array dtypes (``None`` = unknown)."""
    if a is None or b is None:
        return None
    if a == UNKNOWN or b == UNKNOWN:
        return None
    ra, rb = _DTYPE_RANK.get(a), _DTYPE_RANK.get(b)
    if ra is None or rb is None:
        return None
    return a if ra >= rb else b


@dataclass(frozen=True)
class ArrayValue:
    """What the analysis knows about one array-valued expression.

    ``shape`` is a tuple of axis tokens (``None`` = unknown rank);
    ``dtype`` one of bool/int64/float32/float64 (``None`` = unknown);
    ``aliases`` the set of *buffer tokens* this value may share memory
    with (``"LoopyState.beliefs"``, ``"CompiledExecutor._raw"``,
    ``"local:f:x@12"``); ``index_space`` names the dimension an integer
    array's *values* index into (``src``/``dst`` hold node ids →
    ``"n_nodes"``, ``rev``/``in_edge_ids`` hold edge ids →
    ``"n_edges"``).
    """

    shape: tuple[str, ...] | None = None
    dtype: str | None = None
    aliases: frozenset[str] = field(default_factory=frozenset)
    index_space: str | None = None

    @property
    def rank(self) -> int | None:
        return None if self.shape is None else len(self.shape)

    def with_shape(self, shape: tuple[str, ...] | None) -> "ArrayValue":
        return replace(self, shape=shape)

    def fresh(self) -> "ArrayValue":
        """The same value but guaranteed freshly allocated (no aliases)."""
        return replace(self, aliases=frozenset())


@dataclass(frozen=True)
class ScalarValue:
    """An integer/float scalar; ``axis`` names the dimension it equals
    (``state.n`` → ``"n_nodes"``), so shape tuples built from scalars
    recover named axes."""

    axis: str | None = None
    dtype: str | None = None


def join_values(a, b):
    """Lattice join of two abstract values (for branch merges)."""
    if a is None or b is None:
        return None
    if isinstance(a, ScalarValue) and isinstance(b, ScalarValue):
        return ScalarValue(
            axis=a.axis if a.axis == b.axis else None,
            dtype=a.dtype if a.dtype == b.dtype else None,
        )
    if isinstance(a, ArrayValue) and isinstance(b, ArrayValue):
        if a.shape is not None and b.shape is not None and len(a.shape) == len(b.shape):
            shape = tuple(join_axis(x, y) for x, y in zip(a.shape, b.shape))
        elif a.shape == b.shape:
            shape = a.shape
        else:
            shape = None
        return ArrayValue(
            shape=shape,
            dtype=a.dtype if a.dtype == b.dtype else None,
            aliases=a.aliases | b.aliases,
            index_space=a.index_space if a.index_space == b.index_space else None,
        )
    return None
