"""``repro.sim`` — the CONGEST simulation engine and its node programs.

The paper states its round bounds in the CONGEST model (Section 2):
synchronous rounds, ``O(log n)`` bits per edge per round.  This package
measures them message-level:

* **the contract** (:mod:`repro.sim.engine`) — a
  :class:`~repro.sim.engine.NodeProgram` (``setup`` / ``step`` /
  ``wants_to_continue``) runs against one
  :class:`~repro.sim.engine.Context` per node and reports measured
  :class:`~repro.sim.engine.RunStats`; payloads are tuples of numbers
  counted in words against the per-edge budget, and every violation
  raises :class:`~repro.exceptions.SimulationError`;
* **the engine** — :class:`~repro.sim.engine.BatchedNetwork`:
  adjacency built once into the node contexts, double-buffered inbox
  dicts, and a pluggable scheduler;
* **schedulers** (:mod:`repro.sim.schedulers`) —
  :class:`~repro.sim.schedulers.SynchronousScheduler` steps every node
  every round and is valid for any program, while the default
  :class:`~repro.sim.schedulers.EventDrivenScheduler` steps only *woken*
  nodes (nodes that received a message, or whose last
  ``wants_to_continue`` was true) and detects global quiescence early;
* **programs** (:mod:`repro.sim.programs`, :mod:`repro.sim.mst`) — BFS,
  flood-min, tree broadcast and convergecast, the seeded
  :class:`~repro.sim.programs.RandomGossip` fuzz program, and the
  Borůvka MST (:class:`~repro.sim.mst.BoruvkaMST`) built from flood-min;
* **per-round traces** — ``BatchedNetwork(..., trace=True)`` records a
  :class:`~repro.sim.engine.RoundRecord` per round (messages, words,
  stepped nodes, dropped messages) for message/word accounting plots;
* **failure injection** (:mod:`repro.sim.failures`) — a
  :class:`~repro.sim.failures.FailurePlan` drops messages crossing named
  edges in named rounds (transient-loss model: sends are still validated
  against the CONGEST budget and counted, delivery is suppressed).

Choosing a scheduler
====================

The event-driven scheduler is bit-for-bit identical to the synchronous one
for *event-driven* programs — programs whose ``step`` with an empty inbox,
after returning an empty outbox with ``wants_to_continue`` false, would
return an empty outbox and leave state (and any RNG in it) untouched.
Every program in :mod:`repro.sim.programs` and :mod:`repro.dist.programs`
obeys this; a program that must act spontaneously each round just keeps
``wants_to_continue`` true, which keeps it in the active set.
``scheduler="sync"`` removes even that caveat at the cost of the per-node
loop, and is the live oracle the differential tests compare against.

:class:`~repro.sim.runner.ScenarioRunner` sweeps graph families × sizes ×
seeds, runs a program spec on each instance, and emits
:class:`~repro.sim.runner.ScenarioResult` rows cross-checking the measured
:class:`~repro.sim.engine.RunStats` against the Level-M
:class:`~repro.core.rounds.RoundCostModel` prices (and the Theorem 1.1
bound shape).
"""

from repro.sim.engine import (
    BatchedNetwork,
    Context,
    NodeProgram,
    Payload,
    RoundRecord,
    RunStats,
)
from repro.sim.failures import FailurePlan, random_failure_plan
from repro.sim.mst import BoruvkaMST
from repro.sim.programs import (
    DistributedBFS,
    FloodMin,
    RandomGossip,
    TreeAggregate,
    TreeBroadcast,
)
from repro.sim.runner import ProgramSpec, ScenarioResult, ScenarioRunner, default_specs
from repro.sim.schedulers import EventDrivenScheduler, SynchronousScheduler

__all__ = [
    "BatchedNetwork",
    "BoruvkaMST",
    "Context",
    "DistributedBFS",
    "EventDrivenScheduler",
    "FailurePlan",
    "FloodMin",
    "NodeProgram",
    "Payload",
    "ProgramSpec",
    "RandomGossip",
    "RoundRecord",
    "RunStats",
    "ScenarioResult",
    "ScenarioRunner",
    "SynchronousScheduler",
    "TreeAggregate",
    "TreeBroadcast",
    "default_specs",
    "random_failure_plan",
]
