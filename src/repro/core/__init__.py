"""Core belief-propagation algorithms and data structures.

This subpackage implements the paper's primary contribution: loopy belief
propagation with per-node and per-edge processing paradigms (§3.3), the
shared joint-probability-matrix refinement (§2.2), AoS/SoA belief storage
(§3.4), work queues (§3.5), the original three-phase tree algorithm (§2.1)
and an exact-enumeration oracle used by the test suite.
"""

from repro.core.beliefs import BeliefStore, AoSBeliefStore, SoABeliefStore
from repro.core.potentials import PotentialStore, SharedPotentialStore, PerEdgePotentialStore
from repro.core.graph import BeliefGraph
from repro.core.observation import observe, clear_observations
from repro.core.exact import exact_marginals
from repro.core.tree_bp import TreeBP
from repro.core.loopy import LoopyBP, LoopyConfig, LoopyResult
from repro.core.convergence import belief_delta, ConvergenceCriterion
from repro.core.scheduler import (
    SCHEDULES,
    Schedule,
    SynchronousSchedule,
    WorkQueueSchedule,
    ResidualSchedule,
    RelaxedPrioritySchedule,
    WorkQueue,
    make_schedule,
)
from repro.core.junction import JunctionTree, junction_tree_marginals

__all__ = [
    "BeliefStore",
    "AoSBeliefStore",
    "SoABeliefStore",
    "PotentialStore",
    "SharedPotentialStore",
    "PerEdgePotentialStore",
    "BeliefGraph",
    "observe",
    "clear_observations",
    "exact_marginals",
    "TreeBP",
    "LoopyBP",
    "LoopyConfig",
    "LoopyResult",
    "belief_delta",
    "ConvergenceCriterion",
    "WorkQueue",
    "SCHEDULES",
    "Schedule",
    "SynchronousSchedule",
    "WorkQueueSchedule",
    "ResidualSchedule",
    "RelaxedPrioritySchedule",
    "make_schedule",
    "JunctionTree",
    "junction_tree_marginals",
]
