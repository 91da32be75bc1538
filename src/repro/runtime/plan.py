"""The per-topology solver plan: compute the reusable artifacts once.

The Dory–Ghaffari pipeline is a chain of artifacts that depend only on the
graph and its weights — never on the query parameters (``eps``, ``variant``,
``segmented``, ``validate``) a solve is issued with:

===========================  ===========================================  ========
artifact                     module                                       depends
===========================  ===========================================  ========
validation + normalization   :mod:`repro.graphs.validation`               topology
diameter (result metadata)   :class:`~repro.runtime.handle.GraphHandle`   topology
MST + rooted tree            :func:`repro.core.tecss.stable_kruskal_mst`  weights
non-tree candidate links     :func:`_links_from_handle`                   weights
virtual edges + ``G'``       :class:`repro.core.instance.TAPInstance`     weights
Euler/LCA labels, HLD        :mod:`repro.trees` (via the instance)        weights
layering, segments           :mod:`repro.decomp` (via the instance)       weights
tree/instance numpy arrays   :mod:`repro.fast.treearrays`                 weights
===========================  ===========================================  ========

A :class:`SolverPlan` owns the weight-dependent rows for one
:class:`~repro.runtime.handle.GraphHandle`, building each lazily and
exactly once from the handle's flat edge and weight arrays — the MST,
the links and the MST weight never touch the ``nx.Graph``; the
topology-only rows live on the handle itself and are shared across
:meth:`~repro.runtime.handle.GraphHandle.reweight` variants.  A plan
derived by :meth:`SolverPlan.from_delta` — the plan of every weight
column other than the session's base, whether it came as a full column,
a sparse delta or one query of a batch — takes every tree-derived row
from its parent when its MST is the parent's
(:meth:`SolverPlan._mst_parent`).
The phases that *do* depend on query parameters (forward primal-dual,
reverse-delete, certificates) run per solve in
:class:`~repro.runtime.session.SolverSession` on top of a plan.  The
k-ECSS augmentation rounds (:mod:`repro.core.k_ecss`) sit in between:
they depend on the query's ``eps``/``variant``/``segmented``/flavor but
are deterministic given those, so :meth:`SolverPlan.k_rounds` memoizes
them per parameter key — coalesced identical ``k``-queries recompute no
Gomory–Hu trees, and a ``k=4`` query extends a cached ``k=3`` answer.

Every consumer of a plan instance must treat it as immutable; code that
needs to inject state (the measured-ops facade of
:mod:`repro.dist.pipeline`) takes a :meth:`private_instance` copy instead.
"""

from __future__ import annotations

from functools import cached_property
from typing import Any, Callable

import networkx as nx

from repro import obs
from repro.core.instance import TAPInstance
from repro.core.tecss import stable_kruskal_mst
from repro.runtime.handle import GraphHandle
from repro.runtime.registry import resolve_compute
from repro.trees.rooted import RootedTree

__all__ = ["SolverPlan"]


def _links_from_handle(
    handle: GraphHandle, mst_set: set[tuple[int, int]]
) -> list[tuple[int, int, float]]:
    """The candidate links: every non-MST edge as ``(u, v, weight)``.

    Normalized ``u < v`` pairs in the handle's edge order (the input
    graph's edge-iteration order) with ``float()`` weights — the one links
    builder, read off the handle's flat arrays without an ``nx.Graph``.
    """
    out = []
    for (u, v), w in zip(handle.edges, handle.weights):
        key = (u, v) if u < v else (v, u)
        if key not in mst_set:
            out.append((key[0], key[1], float(w)))
    return out


def _links_from_parent(
    parent: "SolverPlan",
    handle: GraphHandle,
    left: list[tuple[int, int]],
    entered: list[tuple[int, int]],
) -> list[tuple[int, int, float]]:
    """``parent.links`` patched to the child's weights and MST.

    Links are the handle's edges minus the tree edges, in edge-iteration
    order — so a ``k``-edge diff that moves ``s`` MST edges turns the
    parent's list into the child's with ``k`` weight patches, ``s``
    deletions (``entered``: edges that entered the tree) and ``s`` ordered
    insertions (``left``: edges that left it), instead of an O(m)
    re-filter.  Output is tuple-for-tuple what :func:`_links_from_handle`
    builds on the child handle.
    """
    from bisect import bisect_left

    pair_index = handle._pair_index
    links = list(parent.links)
    positions = list(parent._link_edge_pos)
    link_pos = parent._link_pos
    for i, w in handle.delta_changes.items():
        u, v = handle.edges[i]
        key = (u, v) if u < v else (v, u)
        at = link_pos.get(key)
        if at is not None:
            links[at] = (key[0], key[1], float(w))
    for key in entered:
        at = bisect_left(positions, pair_index[key])
        del links[at]
        del positions[at]
    for key in left:
        pos = pair_index[key]
        at = bisect_left(positions, pos)
        links.insert(at, (key[0], key[1], float(handle.weights[pos])))
        positions.insert(at, pos)
    return links


class SolverPlan:
    """Cached per-(topology, weights) artifacts of the 2-ECSS pipeline.

    Everything is lazy: a plan used only for its MST never builds virtual
    edges; a reference-only session never builds the numpy arrays.
    ``instance_builds`` counts how many :class:`TAPInstance` constructions
    actually happened — the reuse tests read it to prove work is *not*
    repeated.
    """

    def __init__(self, handle: GraphHandle) -> None:
        self.handle = handle
        self._instances: dict[str, TAPInstance] = {}
        self.instance_builds = 0
        #: Wall-clock seconds spent building each artifact, keyed by phase
        #: name (``mst``, ``links``, ``diameter``, ``instance:<flavor>``).
        #: Delta-derived plans book the links and instances they derive
        #: from their parent under ``links:delta`` and
        #: ``instance:<flavor>:delta``, so the savings are visible side by
        #: side with full builds in ``stats()`` and ``/metrics``.
        #: Lazily-built artifacts record exactly one entry on first use;
        #: :meth:`repro.runtime.session.SolverSession.stats` aggregates
        #: these across the plan LRU (evicted plans included).
        self.build_times: dict[str, float] = {}
        #: For plans built by :meth:`from_delta`: ``changed`` (diff size),
        #: ``swaps`` (edges that left the MST) and ``mode`` (``reused``
        #: when the MST is the parent's, else ``swapped``).  ``None`` for
        #: plans built from scratch.
        self.delta_info: dict | None = None
        self._links_builder = None
        self._delta_parent: SolverPlan | None = None
        #: k-ECSS augmentation-round memo, keyed by the query parameters
        #: the rounds depend on (``eps``, ``variant``, ``segmented``,
        #: flavor, ``validate``).  Rounds for ``j = 3..k`` are computed
        #: lazily and *extended* on demand — a ``k=4`` query after a
        #: ``k=3`` one reuses round 3 and only computes round 4.
        self._k_rounds: dict[tuple, dict] = {}
        self._k_degree_bounds: dict[int, float] = {}

    def _timed(self, phase: str, build: Callable[[], Any]) -> Any:
        """Run ``build()`` and record its duration under ``phase``.

        Timing goes through :func:`repro.obs.timer`, so one measurement
        feeds both the legacy ``build_times`` dict (the ``stats()`` /
        ``/metrics`` schema) and — when tracing is enabled — a
        ``plan.<phase>`` span nested under whatever solve is running.
        """
        with obs.timer("plan." + phase) as clock:
            value = build()
        self.build_times[phase] = clock.duration_s
        return value

    @classmethod
    def for_graph(cls, graph: nx.Graph) -> "SolverPlan":
        """Build a plan straight from a (possibly unlabeled) ``nx.Graph``."""
        return cls(GraphHandle.from_graph(graph))

    @classmethod
    def from_delta(
        cls,
        parent: "SolverPlan",
        handle: GraphHandle,
        max_fraction: object = None,
        max_swaps: object = None,
    ) -> "SolverPlan":
        """Derive the plan of a handle reweighted from ``parent.handle``.

        ``handle.delta_base`` must be ``parent.handle`` itself (see
        :meth:`GraphHandle.reweight`).  The one MST builder runs on the
        child's column (booked under ``mst``), and what the plan takes
        from ``parent`` depends on whether that MST is the parent's
        (:meth:`_mst_parent`):

        * **MST kept** (``mode`` ``reused``) — the parent's rooted tree
          and labeled MST are shared object for object, and each instance
          is the parent's with only its weight column patched
          (``instance:<flavor>:delta``), sharing its layering, segments,
          HLD and kernel tree-arrays;
        * **MST moved** (``swapped``) — instances build from scratch on
          the new tree (they embed it).

        Either way, when the parent's links are built the child's are
        spliced from them (``links:delta``): the diff's weight patches
        plus the MST's symmetric difference, never an O(m) re-filter.
        The stable-Kruskal MST is unique, so the derived plan equals
        ``SolverPlan(handle)`` in everything a solve reads — held by
        ``tests/test_delta_resolve.py``.

        ``max_fraction`` and ``max_swaps`` are ignored; they are accepted
        because perfbench's drift ledger still passes them.
        """
        if handle.delta_base is not parent.handle:
            raise ValueError(
                "from_delta needs the plan of the handle's delta base"
            )
        plan = cls(handle)
        plan._delta_parent = parent
        left: list[tuple[int, int]] = []
        entered: list[tuple[int, int]] = []
        if plan._mst_parent() is None:
            old, new = set(parent.mst_edges), set(plan.mst_edges)
            left = [e for e in parent.mst_edges if e not in new]
            entered = [e for e in plan.mst_edges if e not in old]
        plan.delta_info = {
            "changed": len(handle.delta_changes),
            "swaps": len(left),
            "mode": "swapped" if left else "reused",
        }
        if "links" in parent.__dict__:
            plan._links_builder = lambda: _links_from_parent(
                parent, handle, left, entered
            )
        return plan

    # ------------------------------------------------------------------
    # weight-dependent artifacts (computed once per plan)
    # ------------------------------------------------------------------

    @property
    def g(self) -> nx.Graph:
        """The normalized ``0..n-1`` weighted graph (owned by the handle).

        Built on first use (:attr:`GraphHandle.graph`) by the paths that
        need a weighted ``nx.Graph`` (``simulate_mst``, the ``sim``
        engine, the shortcut solver); a session validates results on its
        base handle's edge set instead.
        """
        return self.handle.graph

    @property
    def nodes(self) -> list:
        """Normalized-id -> original-label mapping (owned by the handle)."""
        return self.handle.nodes

    @property
    def diameter(self) -> int:
        """Topology diameter under the result-metadata rule (see handle).

        A derived plan asks its parent: the diameter reads structure only,
        so it is computed once, on the base handle's edge arrays.
        """
        if self._delta_parent is not None:
            return self._delta_parent.diameter
        if "diameter" not in self.handle._shared:
            # First computation for this topology: attribute the cost here
            # (reweighted handles share the cache, so later plans see none).
            return self._timed("diameter", lambda: self.handle.diameter)
        return self.handle.diameter

    @cached_property
    def _mst(self) -> tuple[RootedTree, list[tuple], Any]:
        handle = self.handle

        def build() -> tuple[RootedTree, list[tuple], Any]:
            """Stable Kruskal over the handle's arrays, rooted at 0."""
            edges, weight = stable_kruskal_mst(
                handle.n, handle.edges, handle.weights
            )
            parent = self._delta_parent
            if parent is not None and edges == parent.mst_edges:
                # A derived plan that kept the MST shares the parent's tree.
                return parent.tree, parent.mst_edges, weight
            return RootedTree.from_edges(handle.n, edges, root=0), edges, weight

        return self._timed("mst", build)

    @property
    def tree(self) -> RootedTree:
        """The MST rooted at 0 (deterministic lexicographic tie-break)."""
        return self._mst[0]

    @property
    def mst_edges(self) -> list[tuple]:
        """The MST edge list as sorted normalized pairs."""
        return self._mst[1]

    @property
    def mst_weight(self) -> float:
        """Total MST weight (a certified lower bound on OPT).

        Summed in ``mst_edges`` order over the handle's weight objects, so
        integer weights give an integer total.
        """
        return self._mst[2]

    @cached_property
    def labeled_mst_edges(self) -> list[tuple]:
        """:attr:`mst_edges` in the caller's node labels, once per tree.

        Shared with the parent when the MST is the parent's, and by every
        result assembled from the plan (read-only, like the tree).
        """
        parent = self._mst_parent()
        if parent is not None:
            return parent.labeled_mst_edges
        nodes = self.nodes
        return [(nodes[u], nodes[v]) for u, v in self.mst_edges]

    @cached_property
    def links(self) -> list[tuple[int, int, float]]:
        """The candidate links: every non-MST edge as ``(u, v, weight)``."""
        if self._links_builder is not None:
            return self._timed("links:delta", self._links_builder)
        return self._timed(
            "links",
            lambda: _links_from_handle(self.handle, set(self.mst_edges)),
        )

    @cached_property
    def _link_pos(self) -> dict[tuple[int, int], int]:
        """Link key -> position in :attr:`links` (delta-derivation index)."""
        return {(u, v): i for i, (u, v, _) in enumerate(self.links)}

    @cached_property
    def _link_edge_pos(self) -> list[int]:
        """Handle edge position of each link, ascending (delta-derivation).

        Links preserve edge-iteration order, so this column is sorted —
        :func:`_links_from_parent` bisects it to splice swapped edges in
        and out at the right rank.
        """
        pair_index = self.handle._pair_index
        return [pair_index[(u, v)] for u, v, _ in self.links]

    @cached_property
    def _link_weight_column(self) -> Any:
        """Per-link float64 weights (numpy; delta-derivation base column)."""
        from repro.fast import require_numpy

        np = require_numpy()
        return np.asarray([w for _, _, w in self.links], dtype=np.float64)

    # ------------------------------------------------------------------
    # k-ECSS rounds
    # ------------------------------------------------------------------

    @cached_property
    def _k_candidates(self) -> list[tuple[int, int, float]]:
        """Every edge as a sorted ``(u, v, weight)`` triple, edge order.

        The k-ECSS rounds' candidate pool: unlike :attr:`links` it keeps
        the MST edges too (a later round may re-add nothing, but the
        Gomory–Hu contraction needs every ``G``-edge as a potential
        class-crossing link).
        """
        return [
            ((u, v, float(w)) if u < v else (v, u, float(w)))
            for (u, v), w in zip(self.handle.edges, self.handle.weights)
        ]

    def k_rounds(
        self,
        k: int,
        base_edges: set,
        eps: float,
        variant: str,
        segmented: bool,
        flavor: str,
        validate: bool,
    ) -> list[dict]:
        """The augmentation-round records for ``j = 3..k`` (memoized).

        ``base_edges`` is the round-2 output (MST + TAP links) as
        normalized sorted pairs — a pure function of the memo key on this
        plan's weights, so the cached rounds stay valid across queries.
        Each round runs once per key and is shared by every later query
        with the same parameters and ``k' >= j``; build time is recorded
        under ``kecss:<j>`` phases.
        """
        from repro.core.k_ecss import augment_round

        key = (eps, variant, segmented, flavor, validate)
        entry = self._k_rounds.get(key)
        if entry is None:
            entry = {"chosen": set(base_edges), "rounds": []}
            self._k_rounds[key] = entry
        while len(entry["rounds"]) < k - 2:
            j = 3 + len(entry["rounds"])
            record = self._timed(
                f"kecss:{j}",
                lambda: augment_round(
                    self.handle.n, entry["chosen"], self._k_candidates,
                    j, k, eps=eps, variant=variant, segmented=segmented,
                    validate=validate, backend=flavor,
                ),
            )
            entry["rounds"].append(record)
        return entry["rounds"][: k - 2]

    def k_degree_bound(self, k: int) -> float:
        """Memoized :func:`repro.core.k_ecss.degree_lower_bound` for ``k``."""
        bound = self._k_degree_bounds.get(k)
        if bound is None:
            from repro.core.k_ecss import degree_lower_bound

            bound = degree_lower_bound(self.handle.n, self._k_candidates, k)
            self._k_degree_bounds[k] = bound
        return bound

    # ------------------------------------------------------------------
    # instances
    # ------------------------------------------------------------------

    def instance(self, backend: str = "reference") -> TAPInstance:
        """The shared :class:`TAPInstance` for one compute flavor.

        ``backend`` is resolved through the registry (``"auto"`` allowed);
        one instance per concrete flavor is built and cached — the fast
        flavor carries its pre-seeded
        :class:`~repro.fast.treearrays.InstanceArrays`, the reference one
        its lazily built path operations.  Callers must not mutate the
        returned instance (use :meth:`private_instance` for that).
        """
        flavor = resolve_compute(backend)
        inst = self._instances.get(flavor)
        if inst is None:
            if self._mst_parent() is not None:
                inst = self._timed(
                    f"instance:{flavor}:delta",
                    lambda: self._derive_instance(flavor),
                )
            else:
                inst = self._timed(
                    f"instance:{flavor}",
                    lambda: TAPInstance.from_links(
                        self.tree, self.links, backend=flavor
                    ),
                )
            self._instances[flavor] = inst
            self.instance_builds += 1
        return inst

    def _mst_parent(self) -> "SolverPlan | None":
        """The delta parent if this plan's MST is the parent's, else ``None``.

        The one condition for deriving the tree, the labeled MST and the
        instances from the parent (``reused`` deltas).
        """
        parent = self._delta_parent
        if parent is not None and self.mst_edges == parent.mst_edges:
            return parent
        return None

    def _derive_instance(self, flavor: str) -> TAPInstance:
        """Clone the parent's instance with only the weight column patched.

        Valid only when the MST is the parent's: the virtual-edge
        structure (dec/anc pairs, originating links, eids) is a pure
        function of tree + non-tree edge *set*, which is unchanged — so
        the parent's layering, HLD, segments and
        :class:`~repro.fast.treearrays.TreeArrays` are shared and only
        weights are rewritten, producing the same objects field for field
        as a fresh ``from_links`` build on the patched links.  The shared
        structure is built on the parent, once for all derived plans.
        """
        from repro.core.virtual_graph import VirtualEdgeColumns

        parent = self._delta_parent
        parent_inst = parent.instance(flavor)
        changed = {
            tuple(sorted(self.handle.edges[i])): float(w)
            for i, w in self.handle.delta_changes.items()
        }
        if isinstance(parent_inst.edges, VirtualEdgeColumns):
            cols = parent_inst.edges
            link_pos = parent._link_pos
            link_w = parent._link_weight_column.copy()
            for pair, w in changed.items():
                pos = link_pos.get(pair)
                if pos is not None:
                    link_w[pos] = w
            edges = VirtualEdgeColumns(
                cols.dec, cols.anc, link_w[cols.link_of], cols.link_of,
                cols._links, cols._origins,
            )
            inst = TAPInstance(
                parent_inst.tree, edges, parent_inst.segment_size
            )
            # Same tree, same virtual-edge structure: the parent's kernel
            # arrays carry over with just the weight column swapped
            # (incl. the nearest-in-layer cache).
            inst.__dict__["arrays"] = parent_inst.arrays.reweighted(
                edges.weight
            )
        else:
            edges = [
                e if e.origin not in changed
                else e._replace(weight=changed[e.origin])
                for e in parent_inst.edges
            ]
            inst = TAPInstance(
                parent_inst.tree, edges, parent_inst.segment_size
            )
        for name in ("layering", "hld", "segments"):
            inst.__dict__[name] = getattr(parent_inst, name)
        return inst

    def private_instance(self, backend: str = "reference") -> TAPInstance:
        """A fresh instance sharing the immutable artifacts, none of the
        injectable state.

        The distributed pipeline replaces ``inst.ops`` with its
        :class:`~repro.dist.ops.MeasuredOps` facade; doing that to the
        shared instance would leak a dead network into later solves.  The
        copy (see :meth:`repro.core.instance.TAPInstance.fresh_copy`)
        shares the tree, edges, layering, HLD, segments and coverage of
        the shared instance but keeps its own ``ops`` slot.
        """
        return self.instance(backend).fresh_copy()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        built = sorted(self._instances)
        return (
            f"SolverPlan(n={self.handle.n}, m={self.handle.m}, "
            f"instances={built or 'none'})"
        )
