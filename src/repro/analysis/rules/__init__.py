"""Project rule catalog.

Importing this package registers every rule with the framework
registry (see :func:`repro.analysis.framework.all_rules`).
"""

from repro.analysis.rules import concurrency, hygiene, numeric

__all__ = ["numeric", "concurrency", "hygiene"]
