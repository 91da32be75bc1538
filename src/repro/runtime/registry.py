"""The execution backends: one fixed table of every way to run a solve.

Two kinds of name choose how a solve executes:

* ``backend="reference" | "fast" | "auto"`` (kind ``"compute"``) — which
  numeric kernels run the phases; ``"auto"`` is an alias for ``"fast"``
  when numpy is importable and ``"reference"`` otherwise;
* ``engine="local" | "sim"`` (kind ``"engine"``) — the centralized solver
  on the cached plan, or the full pipeline message-level.

Each :class:`BackendSpec` carries **capability flags** (``vectorized``,
``message-level``, ``failure-injection``, ``k-ecss``, …) so callers gate
on a capability instead of hard-coding names, and unknown names fail with
a one-line error listing the known ones.  An engine's ``k-ecss`` flag
gates the iterated augmentation rounds of :mod:`repro.core.k_ecss`:
:meth:`repro.runtime.session.SolverSession.solve` rejects ``k > 2`` on an
engine without it (the ``sim`` engine).  The five entries are the whole
set; ``python -m repro backends`` and ``GET /backends`` print them.  The
one CONGEST network, :class:`repro.sim.engine.BatchedNetwork`, is not an
entry: nothing chooses between networks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fast import HAVE_NUMPY, require_numpy

__all__ = [
    "BackendSpec",
    "UnknownBackendError",
    "backend_names",
    "get_backend",
    "registered_payload",
    "resolve_compute",
]


class UnknownBackendError(ValueError):
    """An unknown backend name (subclasses ``ValueError`` so existing
    ``except ValueError`` call sites keep working)."""


@dataclass(frozen=True)
class BackendSpec:
    """One execution backend.

    ``kind`` scopes the name (``"compute"`` or ``"engine"``);
    ``capabilities`` are the flags callers gate on (tabled in
    ``docs/PAPER_MAP.md``).
    """

    name: str
    kind: str
    description: str
    capabilities: frozenset

    def has(self, capability: str) -> bool:
        """Whether this backend declares the given capability flag."""
        return capability in self.capabilities


#: Every backend, sorted by (kind, name): the order of
#: :func:`registered_payload` and of :func:`backend_names`.
_BACKENDS = (
    BackendSpec(
        name="auto",
        kind="compute",
        description="alias: fast when numpy is importable, else reference",
        capabilities=frozenset({"alias"}),
    ),
    BackendSpec(
        name="fast",
        kind="compute",
        description="vectorized numpy kernels (repro.fast), bit-identical",
        capabilities=frozenset({"vectorized", "k-ecss"}),
    ),
    BackendSpec(
        name="reference",
        kind="compute",
        description="per-edge Python loops; the auditable baseline",
        capabilities=frozenset({"portable", "auditable", "k-ecss"}),
    ),
    BackendSpec(
        name="local",
        kind="engine",
        description="centralized solver on the cached SolverPlan",
        capabilities=frozenset({"plan-reuse", "batch-queries", "k-ecss"}),
    ),
    BackendSpec(
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
    ),
)

_BY_KEY = {(spec.kind, spec.name): spec for spec in _BACKENDS}


def backend_names(kind: str) -> tuple[str, ...]:
    """The names of one kind, sorted for stable error messages."""
    return tuple(spec.name for spec in _BACKENDS if spec.kind == kind)


def registered_payload() -> list[dict]:
    """The table as JSON-safe dicts (machine-readable, stable order).

    One dict per spec — ``kind``, ``name``, sorted ``capabilities``,
    ``description``, and ``alias`` (whether the entry names another
    backend).  Shared by ``python -m repro backends --json``, the serving
    layer's ``/backends`` route, and the load generator, so the three
    always agree on the schema.
    """
    return [
        {
            "kind": spec.kind,
            "name": spec.name,
            "capabilities": sorted(spec.capabilities),
            "description": spec.description,
            "alias": spec.has("alias"),
        }
        for spec in _BACKENDS
    ]


def get_backend(kind: str, name: str) -> BackendSpec:
    """Look up one backend; unknown names get a one-line listing error."""
    spec = _BY_KEY.get((kind, name))
    if spec is None:
        raise UnknownBackendError(
            f"unknown {kind} backend {name!r}; registered {kind} "
            f"backends: {', '.join(backend_names(kind))}"
        )
    return spec


def resolve_compute(name: str) -> str:
    """Resolve a compute-backend name to its concrete kernel flavor.

    ``"auto"`` gives ``"fast"`` when numpy is importable and
    ``"reference"`` otherwise; ``"fast"`` raises the numpy error early
    when numpy is missing.
    """
    spec = get_backend("compute", name)
    if spec.name == "auto":
        return "fast" if HAVE_NUMPY else "reference"
    if spec.name == "fast":
        require_numpy()
    return spec.name
