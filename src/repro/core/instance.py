"""The TAP instance container binding a tree to its virtual edges.

A :class:`TAPInstance` holds the rooted spanning tree, the vertical virtual
edges of ``G'`` (Section 4.1), and the shared decompositions (layering,
path operations, segments) that both phases of the algorithm use.  It also
performs the feasibility check: every tree edge must be covered by at least
one virtual edge, which is exactly 2-edge-connectivity of the input graph.
"""

from __future__ import annotations

from functools import cached_property
from typing import Any, Hashable, Iterable, Sequence

from repro.decomp.layering import Layering
from repro.decomp.segments import SegmentDecomposition
from repro.exceptions import NotTwoEdgeConnectedError
from repro.core.virtual_graph import (
    VirtualEdge,
    VirtualEdgeColumns,
    build_virtual_edges,
)
from repro.trees.heavy_light import HeavyLightDecomposition
from repro.trees.pathops import TreePathOps
from repro.trees.rooted import RootedTree

__all__ = ["TAPInstance"]


class TAPInstance:
    """A weighted TAP instance on the virtual graph ``G'``.

    ``segment_size`` overrides the default ``sqrt(n)`` segment parameter —
    useful for stress-testing the cross-segment machinery (tiny segments
    force the global/local MIS interplay of Section 4.5.1).
    """

    def __init__(
        self,
        tree: RootedTree,
        edges: Sequence[VirtualEdge],
        segment_size: int | None = None,
    ) -> None:
        self.tree = tree
        # The fast backend hands over column-oriented edges; keep them as-is
        # (they satisfy the Sequence protocol and materialize lazily).
        self.edges = edges if isinstance(edges, VirtualEdgeColumns) else list(edges)
        self.segment_size = segment_size

    @cached_property
    def layering(self) -> Layering:
        """The junction-path layering (Section 3.2), built on first use.

        A pure function of the tree, so plan derivation for delta
        re-solves and scenario batches
        (:meth:`repro.runtime.plan.SolverPlan._derive_instance`) and
        :meth:`fresh_copy` seed it from the source instance instead of
        recomputing.
        """
        return Layering(self.tree)

    @cached_property
    def hld(self) -> HeavyLightDecomposition:
        """Heavy-light decomposition, built lazily (the fast backend never
        touches it; the reference path operations do)."""
        return HeavyLightDecomposition(self.tree)

    @cached_property
    def ops(self) -> TreePathOps:
        """Reference batch path operations bound to the tree (lazy)."""
        return TreePathOps(self.tree, self.hld)

    @classmethod
    def from_links(
        cls,
        tree: RootedTree,
        links: Iterable[tuple[int, int, float]],
        origins: Sequence[Hashable] | None = None,
        segment_size: int | None = None,
        backend: str = "reference",
    ) -> "TAPInstance":
        """Build the instance from arbitrary (possibly non-vertical) links.

        ``backend="fast"`` (or ``"auto"`` with numpy available) splits the
        links at their LCAs with the vectorized batch-LCA kernel (identical
        integer results, see
        :func:`repro.core.virtual_graph.build_virtual_edges`) and pre-seeds
        the :attr:`arrays` cache so the kernels reuse one set of tree
        arrays across instance construction and both phases.
        """
        from repro.fast import resolve_backend

        backend = resolve_backend(backend)
        if backend == "fast":
            from repro.fast.treearrays import InstanceArrays, TreeArrays

            ta = TreeArrays(tree)
            edges = build_virtual_edges(
                tree, links, origins, backend, tree_arrays=ta
            )
            inst = cls(tree, edges, segment_size)
            inst.__dict__["arrays"] = InstanceArrays(inst, ta=ta)
            return inst
        return cls(
            tree, build_virtual_edges(tree, links, origins, backend), segment_size
        )

    def fresh_copy(self) -> "TAPInstance":
        """A new instance sharing the immutable artifacts, not the state.

        The tree, virtual edges, layering, HLD, segments and kernel
        arrays are deterministic functions of the instance and safe to
        share.  Deliberately *not* copied: ``ops``, because callers (the
        distributed pipeline's :class:`~repro.dist.ops.MeasuredOps`
        injection) replace it with per-run state that must not leak into
        other solves — and ``coverage``, because it is computed *through*
        ``ops`` (pre-seeding it would silently skip a message-level
        computation the measured pipeline is supposed to perform).  Used
        by :meth:`repro.runtime.plan.SolverPlan.private_instance`.
        """
        inst = TAPInstance(self.tree, self.edges, self.segment_size)
        for name in ("layering", "hld", "segments", "arrays"):
            if name in self.__dict__:
                inst.__dict__[name] = self.__dict__[name]
        return inst

    # ------------------------------------------------------------------

    @cached_property
    def segments(self) -> SegmentDecomposition:
        """The segment decomposition (Section 4.2.1), built on first use."""
        return SegmentDecomposition(self.tree, s=self.segment_size)

    @cached_property
    def arrays(self) -> Any:
        """Numpy views for the fast kernels (requires numpy; built once).

        See :class:`repro.fast.treearrays.InstanceArrays`; shared by the
        fast forward phase, every reverse-delete epoch, and the vectorized
        certificates.
        """
        from repro.fast.treearrays import InstanceArrays

        return InstanceArrays(self)

    @cached_property
    def coverage(self) -> list[int]:
        """How many virtual edges cover each tree edge (feasibility data)."""
        return self.ops.coverage_counts(e.pair for e in self.edges)

    def check_feasible(self) -> None:
        """Every tree edge must be covered by some virtual edge."""
        cov = self.coverage
        for t in self.tree.tree_edges():
            if cov[t] == 0:
                raise NotTwoEdgeConnectedError(
                    f"tree edge ({t}, {self.tree.parent[t]}) is covered by no "
                    "link; the underlying graph has a bridge"
                )

    # ------------------------------------------------------------------

    def weight_of(self, eids: Iterable[int]) -> float:
        """Total weight of the given virtual edges.

        Column-oriented edge stores are summed straight off the weight
        column — same ``float()`` casts in the same order as the
        object-level path, so the result is bit-identical.
        """
        edges = self.edges
        if isinstance(edges, VirtualEdgeColumns):
            w = edges.weight
            return sum(float(w[e]) for e in eids)
        return sum(edges[e].weight for e in eids)

    def covers(self, eid: int, t: int) -> bool:
        """Does virtual edge ``eid`` cover tree edge ``t``?"""
        e = self.edges[eid]
        return self.tree.covers_vertical(e.dec, e.anc, t)

    def covered_edges(self, eid: int) -> Iterable[int]:
        """The tree edges (child ids) covered by virtual edge ``eid``."""
        e = self.edges[eid]
        return self.tree.chain(e.dec, e.anc)

    @property
    def num_tree_edges(self) -> int:
        """Number of tree edges (``n - 1``)."""
        return self.tree.n - 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TAPInstance(n={self.tree.n}, links={len(self.edges)}, "
            f"layers={self.layering.num_layers})"
        )
