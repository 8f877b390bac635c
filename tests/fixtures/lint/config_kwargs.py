"""RPR303 fixture: LoopyConfig keyword validation against live fields."""

from repro.core.loopy import LoopyConfig


def bad_typo():
    return LoopyConfig(paradgim="node")  # FINDING: misspelled field


def bad_unknown():
    return LoopyConfig(n_shards=4)  # FINDING: sharding isn't a config field


def bad_retired():
    return LoopyConfig(work_queue=True)  # FINDING: retired shim, no longer a field


def good_fields():
    return LoopyConfig(paradigm="node", schedule="residual", damping=0.1)


def good_suppressed():
    return LoopyConfig(n_shard=2)  # noqa: RPR303


def good_splat(kwargs):
    return LoopyConfig(**kwargs)  # ok: can't check statically
