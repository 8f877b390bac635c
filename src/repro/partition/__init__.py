"""Graph partitioning: node → shard maps with measured cut/balance stats.

The partition layer (DESIGN.md §9) feeds the distributed and sharded
cost models *measured* quantities: every partitioner returns a
:class:`~repro.partition.partitioners.Partition` whose cut fraction,
shard balance and per-shard boundary traffic
(:meth:`~repro.partition.partitioners.Partition.shard_profile`) are
computed on the actual graph, and the ``distributed``, ``sharded`` and
``cuda-multi`` backends read those numbers instead of guessing.
"""

from repro.partition.partitioners import (
    PARTITIONERS,
    Partition,
    ShardProfile,
    bfs_partition,
    greedy_partition,
    hash_partition,
    make_partition,
    normalize_partitioner,
    range_partition,
)

__all__ = [
    "PARTITIONERS",
    "Partition",
    "ShardProfile",
    "bfs_partition",
    "greedy_partition",
    "hash_partition",
    "make_partition",
    "normalize_partitioner",
    "range_partition",
]
