"""``repro.fast`` — vectorized CSR/numpy kernels for the TAP/2-ECSS hot paths.

The reference implementation in :mod:`repro.core` runs the paper's
algorithms as per-edge Python loops over dicts and lists — ideal for
auditing against the paper, but capping experiments at toy sizes.  This
package ports the hot paths to flat-array kernels that share the data-layout
philosophy of :mod:`repro.sim.engine` (CSR adjacency, preallocated numpy
arrays, batched scatter/gather) while producing **bit-identical** results:

* :mod:`repro.fast.kernels` — stateless array primitives: level-synchronous
  ancestor prefix sums (same floating-point operation tree as the reference
  recurrence, hence bit-identical), Euler-tour subtree counts (exact integer
  arithmetic), batched LCA via vectorized binary lifting, and a jump-table
  path-chmin (the vectorized counterpart of the paper's tree-edge-learns-
  min-over-covering-links aggregate, Claims 4.5/4.6);
* :mod:`repro.fast.treearrays` — :class:`~repro.fast.treearrays.TreeArrays`
  and :class:`~repro.fast.treearrays.InstanceArrays`, the cached numpy views
  of a :class:`~repro.trees.rooted.RootedTree` and a
  :class:`~repro.core.instance.TAPInstance` that the kernels consume;
* :mod:`repro.fast.forward` — the vectorized primal-dual forward phase
  (paper Sections 3.4/4.4) over one weight column,
  :func:`~repro.fast.forward.forward_phase_fast`, a drop-in for
  :func:`repro.core.forward.forward_phase`;
* :mod:`repro.fast.context` — :class:`~repro.fast.context.FastEpochContext`,
  the vectorized epoch state for the reverse-delete phase (petal oracle and
  coverage counters as array kernels; the anchor-selection control flow is
  shared with :mod:`repro.core.mis`, so the two backends cannot drift).

Select the backend with the ``backend="fast" | "reference"`` flag on
:func:`repro.core.tap.approximate_tap` /
:func:`repro.core.tecss.approximate_two_ecss`; the reference path is kept
unchanged for differential testing (``tests/test_backend_differential.py``
asserts bit-identical augmentations, weights, and dual values).

numpy is an optional dependency of the project: importing this package
works without it, but calling :func:`require_numpy` (which every kernel
entry point does) raises a clear error when numpy is missing.
"""

from __future__ import annotations

try:  # numpy is optional at the project level; required for backend="fast"
    import numpy as _np
except ImportError:  # pragma: no cover - the CI image bakes numpy in
    _np = None

__all__ = ["HAVE_NUMPY", "require_numpy", "resolve_backend"]

HAVE_NUMPY = _np is not None


def require_numpy():
    """Return the numpy module, raising a clear error when it is absent."""
    if _np is None:  # pragma: no cover - the CI image bakes numpy in
        raise RuntimeError(
            "backend='fast' requires numpy; install it (pip install numpy) "
            "or use backend='reference'"
        )
    return _np


def resolve_backend(backend: str) -> str:
    """Normalize a backend flag to ``"fast"`` or ``"reference"``.

    Delegates to the execution-backend registry
    (:func:`repro.runtime.registry.resolve_compute`, the single source of
    truth for backend names): ``"auto"`` picks ``"fast"`` when numpy is
    importable and ``"reference"`` otherwise; unknown names raise a
    one-line :class:`~repro.runtime.registry.UnknownBackendError` listing
    the registered compute backends.
    """
    from repro.runtime.registry import resolve_compute

    return resolve_compute(backend)
