"""RPR302 fixture: backend/schedule qualifier literals vs the registries."""

from repro.backends.registry import get_backend


def bad_typo_backend():
    return get_backend("c-nod:residual")  # FINDING: unknown backend


def bad_schedule_qualifier():
    return get_backend("c-node:bogus")  # FINDING: unknown schedule


def bad_shard_suffix(run):
    return run(backend="c-node:residual@4xbfs")  # FINDING: retired grammar


def bad_schedule_kwarg(credo):
    return credo.run(schedule="residualish")  # FINDING


def good_plain():
    return get_backend("c-node")


def good_qualified(run):
    return run(backend="cuda-edge:residual")


def good_schedule(credo):
    return credo.run(schedule="work_queue")


def good_dynamic(name):
    return get_backend(name)  # ok: not a literal, can't check statically
