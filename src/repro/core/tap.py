"""Weighted tree augmentation: the paper's first algorithm end to end.

``approximate_tap`` chains the pieces of Sections 4.1–4.6:

1. build the virtual graph ``G'`` (links split at their LCA — Lemma 4.1),
2. run the primal-dual **forward phase** over the layering (Section 4.4),
3. run the **reverse-delete phase** (Section 4.5 / 4.6) to thin the cover,
4. map the chosen virtual edges back to original links.

Guarantees (all certified at runtime, see :mod:`repro.core.certificates`):
on the virtual instance the improved variant achieves ``(2 + eps)`` and the
basic one ``(4 + eps)``; mapping back doubles these to ``(4 + eps)`` /
``(8 + eps)`` for TAP on ``G`` (Theorem 4.19), and Claim 2.1 adds ``+1``
for 2-ECSS.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable, Sequence

from repro import obs
from repro.core import certificates as cert
from repro.core.forward import ForwardResult, forward_phase
from repro.core.instance import TAPInstance
from repro.core.result import TapResult
from repro.core.reverse import COVER_BOUND, ReverseResult, reverse_delete
from repro.core.rounds import PrimitiveLog
from repro.core.virtual_graph import VirtualEdgeColumns, map_back
from repro.fast import resolve_backend
from repro.trees.rooted import RootedTree

__all__ = ["approximate_tap", "assemble_tap_result", "solve_virtual_tap"]


def solve_virtual_tap(
    inst: TAPInstance,
    eps: float = 0.25,
    variant: str = "improved",
    segmented: bool = True,
    validate: bool = True,
    backend: str = "reference",
    hooks: Any = None,
) -> tuple[ForwardResult, ReverseResult]:
    """Solve TAP on an already-virtual instance; returns (fwd, rev).

    The dual-growth parameter is ``eps' = eps / c`` so the final factor on
    the virtual instance is ``c (1 + eps/c) <= c + eps`` (Lemma 3.1).

    ``backend`` selects the execution engine for both phases:
    ``"reference"`` (per-edge Python loops, the auditable baseline) or
    ``"fast"`` (vectorized kernels in :mod:`repro.fast`, bit-identical
    output, requires numpy).  ``hooks`` is forwarded to
    :func:`repro.core.reverse.reverse_delete` (the distributed pipeline's
    observation point for the global-MIS gather).
    """
    if variant not in COVER_BOUND:
        raise ValueError(f"variant must be one of {sorted(COVER_BOUND)}")
    backend = resolve_backend(backend)
    c = COVER_BOUND[variant]
    eps_prime = eps / c
    with obs.span("tap.forward", backend=backend):
        fwd = forward_phase(inst, eps=eps_prime, backend=backend)
    with obs.span("tap.reverse", backend=backend):
        rev = reverse_delete(
            inst, fwd, variant=variant, segmented=segmented,
            validate=validate, backend=backend, hooks=hooks,
        )
    if validate:
        with obs.span("tap.certificates"):
            certs = _certificates(backend)
            certs.validate_dual_feasibility(inst, fwd.y, eps_prime)
            certs.validate_tightness(inst, fwd.y, rev.b)
            certs.validate_cover(inst, rev.b)
            certs.validate_coverage_bound(inst, fwd.y, rev.b, c)
    return fwd, rev


def _certificates(backend: str) -> Any:
    """The certificate implementation for a backend (same checks, same
    return values; the fast one is vectorized)."""
    if backend == "fast":
        from repro.fast import certificates as fast_cert

        return fast_cert
    return cert


def approximate_tap(
    tree: RootedTree,
    links: Iterable[tuple[int, int, float]],
    eps: float = 0.25,
    variant: str = "improved",
    segmented: bool = True,
    validate: bool = True,
    origins: Sequence[Hashable] | None = None,
    backend: str = "reference",
    instance: TAPInstance | None = None,
) -> TapResult:
    """Approximate weighted TAP on tree ``tree`` with candidate ``links``.

    Parameters
    ----------
    tree:
        The spanning tree to augment (vertices ``0..n-1``).
    links:
        Candidate links ``(u, v, weight)``; the graph ``tree + links`` must
        be 2-edge-connected.
    eps:
        The approximation slack; the factor is ``4 + eps`` on the original
        instance for the improved variant (``8 + eps`` for the basic one).
    variant:
        ``"improved"`` (c=2, Section 4.6) or ``"basic"`` (c=4, Section 3.5).
    segmented:
        Run the faithful distributed structure (global/local MIS over the
        segment decomposition) instead of the idealized sequential scans.
    validate:
        Check every proven invariant at runtime (slower; recommended).
    origins:
        Optional identities for the links (defaults to their ``(u, v)``).
    backend:
        ``"reference"`` (default: the auditable per-edge Python loops),
        ``"fast"`` (vectorized numpy kernels, bit-identical output), or
        ``"auto"`` (fast when numpy is importable).  Names are resolved
        through the backend registry
        (:func:`repro.runtime.registry.resolve_compute`).
    instance:
        A prebuilt :class:`~repro.core.instance.TAPInstance` for
        ``(tree, links)`` — a :class:`~repro.runtime.plan.SolverPlan`
        passes its cached instance here so repeated solves skip the
        virtual-graph construction; when given, ``tree``/``links``/
        ``origins`` are ignored and must describe the same instance.
    """
    backend = resolve_backend(backend)
    inst = (
        instance
        if instance is not None
        else TAPInstance.from_links(tree, links, origins, backend=backend)
    )
    fwd, rev = solve_virtual_tap(
        inst, eps=eps, variant=variant, segmented=segmented, validate=validate,
        backend=backend,
    )
    return assemble_tap_result(
        inst, fwd, rev, eps=eps, variant=variant, segmented=segmented,
        validate=validate, backend=backend,
    )


def assemble_tap_result(
    inst: TAPInstance,
    fwd: ForwardResult,
    rev: ReverseResult,
    eps: float,
    variant: str,
    segmented: bool,
    validate: bool,
    backend: str = "reference",
) -> TapResult:
    """Map a solved virtual instance back to a :class:`TapResult`.

    Shared by :func:`approximate_tap` and the distributed pipeline
    (:func:`repro.dist.pipeline.distributed_two_ecss`), so both paths
    assemble — and certify — the result with the same code.
    """
    c = COVER_BOUND[variant]
    eps_prime = eps / c

    chosen = sorted(rev.b)
    # Weight of the mapped-back solution: each origin counted once.
    weight_by_origin: dict[Hashable, float] = {}
    if isinstance(inst.edges, VirtualEdgeColumns):
        # Column gather: same origins, same float() weights, no VirtualEdge
        # materialization (same first-occurrence dedup as map_back).
        links_back = []
        for origin, w in inst.edges.origin_weight_pairs(chosen):
            if origin not in weight_by_origin:
                links_back.append(origin)
            weight_by_origin[origin] = w
    else:
        links_back = map_back(inst.edges, chosen)
        for eid in chosen:
            e = inst.edges[eid]
            weight_by_origin[e.origin] = e.weight
    weight = sum(weight_by_origin.values())

    log = PrimitiveLog()
    log.record("lca_labels")  # virtual-graph construction (Lemma 4.2)
    log.record("segments_build")
    log.record("layering_layer", inst.layering.num_layers)
    log.merge(fwd.log)
    log.merge(rev.log)

    max_cov = (
        _certificates(backend).validate_coverage_bound(inst, fwd.y, rev.b, c)
        if validate
        else -1
    )

    return TapResult(
        links=links_back,
        weight=weight,
        virtual_eids=chosen,
        virtual_weight=inst.weight_of(chosen),
        dual_bound=cert.dual_lower_bound(fwd.y, eps_prime),
        eps=eps,
        variant=variant,
        segmented=segmented,
        guarantee=c * (1.0 + eps_prime),
        iterations_per_epoch=fwd.iterations_per_epoch,
        num_layers=inst.layering.num_layers,
        max_coverage_of_dual_edges=max_cov,
        log=log,
    )
