"""The execution-backend registry: one namespace for every way to run a solve.

Before this layer existed, "how do I execute this?" was unrelated string
arguments threaded through the codebase:

* ``backend="reference" | "fast" | "auto"`` on the solver entry points
  (which numeric kernels run the phases) — validated ad hoc by
  :func:`repro.fast.resolve_backend`;
* ``engine="local" | "sim"`` on :func:`repro.analysis.sweep.run_sweep`
  (centralized solver vs the message-level pipeline) — validated by an
  inline ``if``.

This module registers both as :class:`BackendSpec` entries under two
*kinds* — ``"compute"`` and ``"engine"`` — each carrying **capability
flags** (``vectorized``, ``message-level``, ``failure-injection``,
``k-ecss``, …) so callers can select by capability instead of
hard-coding names, and unknown names fail with a one-line error listing
what *is* registered.  The ``k-ecss`` flag gates the iterated
augmentation rounds of :mod:`repro.core.k_ecss`: compute flavors and
engines carrying it accept ``k > 2`` queries
(:meth:`repro.runtime.session.SolverSession.solve` rejects ``k > 2`` on
anything else, e.g. the ``sim`` engine).  :func:`register_backend` is the
extension point future backends (sharded plans, async serving) plug into;
the CLI (``python -m repro backends``) prints the live table.  The one
CONGEST network, :class:`repro.sim.engine.BatchedNetwork`, is not a
registry entry: nothing chooses between networks.

Resolution helpers:

* :func:`resolve_compute` — normalizes a compute name to the concrete
  kernel flavor (``"reference"`` or ``"fast"``), following alias entries
  such as ``"auto"`` and enforcing each spec's ``requires`` hook (e.g.
  numpy for ``"fast"``);
* :func:`get_backend` / :func:`backend_names` / :func:`registered` — plain
  lookups, shared by the CLI, the sweep engine and
  :class:`repro.runtime.session.SolverSession`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.fast import HAVE_NUMPY, require_numpy

__all__ = [
    "KINDS",
    "BackendSpec",
    "UnknownBackendError",
    "backend_names",
    "get_backend",
    "register_backend",
    "registered",
    "registered_payload",
    "resolve_compute",
]

#: The registry's namespaces: numeric kernels and solve pipelines.
KINDS = ("compute", "engine")


class UnknownBackendError(ValueError):
    """An unregistered backend name (subclasses ``ValueError`` so existing
    ``except ValueError`` call sites keep working)."""


@dataclass(frozen=True)
class BackendSpec:
    """One registered execution backend.

    ``kind`` scopes the name (``"compute"`` or ``"engine"``);
    ``capabilities`` are free-form flags callers can gate on (the stock
    ones are documented in :func:`registered` output and
    ``docs/PAPER_MAP.md``).  ``resolves_to`` makes the entry an *alias*: a
    callable returning the concrete name to resolve next (``"auto"`` uses
    this to pick ``fast`` when numpy is importable).  ``requires`` runs at
    resolution time and raises when the backend cannot execute here
    (``"fast"`` uses it for the numpy check).
    """

    name: str
    kind: str
    description: str
    capabilities: frozenset = field(default_factory=frozenset)
    resolves_to: Callable[[], str] | None = None
    requires: Callable[[], object] | None = None

    def has(self, capability: str) -> bool:
        """Whether this backend declares the given capability flag."""
        return capability in self.capabilities


_REGISTRY: dict[tuple[str, str], BackendSpec] = {}


def register_backend(spec: BackendSpec, replace: bool = False) -> BackendSpec:
    """Register a backend; duplicate names are an error unless ``replace``."""
    if spec.kind not in KINDS:
        raise ValueError(f"backend kind must be one of {KINDS}; got {spec.kind!r}")
    key = (spec.kind, spec.name)
    if key in _REGISTRY and not replace:
        raise ValueError(
            f"{spec.kind} backend {spec.name!r} is already registered; "
            "pass replace=True to override"
        )
    _REGISTRY[key] = spec
    return spec


def unregister_backend(kind: str, name: str) -> None:
    """Remove a registered backend (tests and plugin teardown)."""
    _REGISTRY.pop((kind, name), None)


def backend_names(kind: str) -> tuple[str, ...]:
    """The registered names of one kind, sorted for stable error messages."""
    return tuple(sorted(n for k, n in _REGISTRY if k == kind))


def registered(kind: str | None = None) -> tuple[BackendSpec, ...]:
    """All registered specs (of one kind, or every kind), sorted by name."""
    specs = [
        spec
        for (k, _), spec in sorted(_REGISTRY.items())
        if kind is None or k == kind
    ]
    return tuple(specs)


def registered_payload(kind: str | None = None) -> list[dict]:
    """The registry as JSON-safe dicts (machine-readable, stable order).

    One dict per spec — ``kind``, ``name``, sorted ``capabilities``,
    ``description``, and ``alias`` (whether the entry resolves to another
    name).  Shared by ``python -m repro backends --json``, the serving
    layer's ``/backends`` route, and the load generator, so the three
    always agree on the schema.
    """
    return [
        {
            "kind": spec.kind,
            "name": spec.name,
            "capabilities": sorted(spec.capabilities),
            "description": spec.description,
            "alias": spec.resolves_to is not None,
        }
        for spec in registered(kind)
    ]


def get_backend(kind: str, name: str) -> BackendSpec:
    """Look up one backend; unknown names get a one-line listing error."""
    spec = _REGISTRY.get((kind, name))
    if spec is None:
        known = ", ".join(backend_names(kind)) or "<none>"
        raise UnknownBackendError(
            f"unknown {kind} backend {name!r}; registered {kind} "
            f"backends: {known}"
        )
    return spec


def resolve_compute(name: str) -> str:
    """Resolve a compute-backend name to its concrete kernel flavor.

    Follows alias entries (``"auto"``) and runs each spec's ``requires``
    hook, so ``resolve_compute("fast")`` raises the numpy error early and
    ``resolve_compute("auto")`` degrades to ``"reference"`` without numpy.
    """
    spec = get_backend("compute", name)
    seen = {spec.name}
    while spec.resolves_to is not None:
        target = spec.resolves_to()
        if target in seen:  # pragma: no cover - registration bug guard
            raise ValueError(f"compute backend alias cycle at {target!r}")
        seen.add(target)
        spec = get_backend("compute", target)
    if spec.requires is not None:
        spec.requires()
    return spec.name


def _register_defaults() -> None:
    """Register the in-tree backends (idempotent at import time)."""
    register_backend(BackendSpec(
        name="reference",
        kind="compute",
        description="per-edge Python loops; the auditable baseline",
        capabilities=frozenset({"portable", "auditable", "k-ecss"}),
    ))
    register_backend(BackendSpec(
        name="fast",
        kind="compute",
        description="vectorized numpy kernels (repro.fast), bit-identical",
        capabilities=frozenset({"vectorized", "k-ecss"}),
        requires=require_numpy,
    ))
    register_backend(BackendSpec(
        name="auto",
        kind="compute",
        description="alias: fast when numpy is importable, else reference",
        capabilities=frozenset({"alias"}),
        resolves_to=lambda: "fast" if HAVE_NUMPY else "reference",
    ))
    register_backend(BackendSpec(
        name="local",
        kind="engine",
        description="centralized solver on the cached SolverPlan",
        capabilities=frozenset({"plan-reuse", "batch-queries", "k-ecss"}),
    ))
    register_backend(BackendSpec(
        name="sim",
        kind="engine",
        description=(
            "full 2-ECSS pipeline message-level on the batched CONGEST "
            "engine (repro.dist.pipeline)"
        ),
        capabilities=frozenset({
            "plan-reuse", "batch-queries", "message-level",
            "measured-rounds", "failure-injection",
        }),
    ))


_register_defaults()
