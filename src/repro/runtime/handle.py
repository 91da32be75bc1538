"""Immutable array-backed graph handles: validate and normalize **once**.

A :class:`GraphHandle` is the runtime layer's view of one input graph.  It
performs, exactly once per topology, everything
:func:`repro.core.tecss.approximate_two_ecss` used to redo on every call:

* weight validation (:func:`repro.graphs.validation.ensure_weights`),
* the feasibility check
  (:func:`repro.graphs.validation.check_two_edge_connected`),
* normalization to ``0..n-1`` integer labels
  (:func:`repro.graphs.validation.normalize_graph`),

and stores the result in flat edge arrays — ``edges`` (the normalized
endpoint pairs, in the input graph's iteration order, which downstream
tie-breaks depend on) plus a ``weights`` tuple aligned with them.  The
handle is *immutable*: :meth:`reweight` returns a **new** handle sharing
the topology (and every topology-derived cache, e.g. :attr:`diameter` and
the feasibility verdict) while swapping only the weight column — the cheap
operation that makes many-scenario solves
(:meth:`repro.runtime.session.SolverSession.solve_many`) practical.

Fingerprints: :attr:`topology_key` identifies the (labels, edge list)
structure and :attr:`weights_key` the weight column; together they key the
per-weights :class:`~repro.runtime.plan.SolverPlan` cache.
"""

from __future__ import annotations

import hashlib
import math
from functools import cached_property
from typing import Any, Mapping, Sequence

import networkx as nx

from repro.exceptions import GraphFormatError
from repro.graphs.validation import (
    check_two_edge_connected,
    ensure_weights,
    normalize_graph,
)

__all__ = ["GraphHandle", "weights_token"]


def _canonical_weight(w: Any) -> Any:
    """Collapse ``-0.0`` to ``0.0`` for fingerprinting (see weights_key).

    Only floats are touched: an integer ``0`` stays an integer because the
    weight's Python type propagates into result types, so ``0`` and ``0.0``
    are genuinely different weight columns.
    """
    return 0.0 if isinstance(w, float) and w == 0.0 else w


def weights_token(weights: Any) -> tuple:
    """A hashable key of a weight column or mapping that tells ``1`` from ``1.0``.

    Tuple equality says ``1 == 1.0``, but a weight's type reaches the
    result (an integer column gives an integer ``mst_weight``), so
    batch-local matching of weight inputs compares the values *and* their
    types.  Mapping values (weight mappings and sparse deltas) are keyed
    the same way.  Much cheaper than :attr:`GraphHandle.weights_key`,
    which reprs and hashes the whole column.  Raises ``TypeError`` for
    unhashable input.
    """
    if isinstance(weights, Mapping):
        return (
            "map", frozenset((key, w, type(w)) for key, w in weights.items())
        )
    values = tuple(weights)
    return ("col", values, tuple(map(type, values)))


class GraphHandle:
    """One validated, normalized, immutable weighted graph (see module doc).

    Build with :meth:`from_graph`; derive weight variants with
    :meth:`reweight`.  Handles sharing a topology share the same
    :attr:`topology_key` and the same topology-derived caches.
    """

    def __init__(
        self,
        n: int,
        nodes: list,
        index: dict,
        edges: list[tuple[int, int]],
        weights: tuple[float, ...],
        topology_key: str | None = None,
    ) -> None:
        self.n = n
        self.nodes = nodes  # normalized id -> original label
        self.index = index  # original label -> normalized id
        self.edges = edges  # normalized (u, v) pairs, input iteration order
        self.weights = weights
        self._topology_key = topology_key
        #: Topology-derived caches (:attr:`diameter`, :attr:`_pair_index`),
        #: shared *by reference* with every :meth:`reweight` clone:
        #: whichever handle computes one first, all handles on the
        #: topology see it.  (Copying computed entries at clone time
        #: instead would lose work computed on a clone afterwards — a
        #: 100-scenario sweep would re-derive the diameter per scenario.)
        self._shared: dict[str, Any] = {}
        #: For handles built by :meth:`reweight_delta`: the parent handle
        #: and the effective diff ``{edge_position: new_weight}``.  ``None``
        #: / empty for handles with no recorded delta lineage.
        self.delta_base: GraphHandle | None = None
        self.delta_changes: dict[int, object] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_graph(cls, graph: nx.Graph) -> "GraphHandle":
        """Validate, check 2-edge-connectivity, and normalize ``graph``.

        Raises exactly what the one-shot solvers raise on bad input
        (:class:`~repro.exceptions.GraphFormatError`,
        :class:`~repro.exceptions.NotConnectedError`,
        :class:`~repro.exceptions.NotTwoEdgeConnectedError`) — but only
        once per topology instead of once per solve.
        """
        ensure_weights(graph)
        check_two_edge_connected(graph)
        g, nodes, index = normalize_graph(graph)
        edges = []
        weights = []
        for u, v, data in graph.edges(data=True):
            edges.append((index[u], index[v]))
            # Keep the caller's weight objects (ints stay ints), exactly
            # as normalize_graph does — the one-shot API's result types
            # must not change because a session sits underneath it.
            weights.append(data["weight"])
        handle = cls(len(nodes), nodes, index, edges, tuple(weights))
        # normalize_graph already built the normalized graph (with every
        # edge attribute); seed the cache instead of rebuilding it later.
        handle.__dict__["graph"] = g
        return handle

    def reweight(
        self,
        weights: Sequence[float] | Mapping[object, float],
    ) -> "GraphHandle":
        """A new handle on the same topology with a new weight column.

        ``weights`` is either a sequence aligned with :attr:`edge_list`
        (one float per edge, in handle order) or a mapping from edge keys
        to floats — keys may use the original node labels or the
        normalized ids, in either endpoint order.  Weights must satisfy
        the same rule as :func:`~repro.graphs.validation.ensure_weights`
        (finite and ``>= 0``); topology-derived caches (diameter,
        feasibility) are shared with this handle, so no re-validation
        happens.
        """
        if isinstance(weights, Mapping):
            column = self._column_from_mapping(weights)
        else:
            column = list(weights)
            if len(column) != len(self.edges):
                raise GraphFormatError(
                    f"reweight needs {len(self.edges)} weights "
                    f"(one per edge); got {len(column)}"
                )
        # Fast C-speed scan first; only a failing column pays the
        # per-edge diagnostic loop that names the offending edge.  ``min``
        # catches negatives and ``max`` infinities (not the sum: finite
        # floats can sum to inf); the sum's self-comparison catches NaN
        # (which ``min`` and ``max`` can miss mid-sequence); non-negative
        # floats cannot sum to NaN otherwise.  A non-numeric weight raises
        # TypeError from the arithmetic, as the comparison did before.
        total = sum(column)
        if not (
            min(column) >= 0 and max(column) < math.inf and total == total
        ):
            for (u, v), w in zip(self.edges, column):
                if not (0 <= w < math.inf):
                    raise GraphFormatError(
                        f"edge ({self.nodes[u]!r}, {self.nodes[v]!r}) has "
                        f"invalid weight {w!r}"
                    )
        return self._clone_with_column(column)

    def reweight_delta(self, changed: Mapping) -> "GraphHandle":
        """A new handle applying a *sparse* weight diff against this one.

        ``changed`` maps edge keys — original labels or normalized ids, in
        either endpoint order, all-or-nothing like :meth:`reweight` — to
        new weights; every key must name an edge of this topology.  The
        returned handle shares the topology caches, carries the full
        patched weight column, and records the diff (:attr:`delta_base`,
        :attr:`delta_changes`) so the plan layer can derive artifacts
        incrementally instead of rebuilding.  Entries equal to the current
        weight (same value *and* repr, so ``5 -> 5.0`` and ``0.0 -> -0.0``
        still count as changes) are dropped; if nothing effectively
        changes, ``self`` is returned unchanged.

        The fingerprint of the result is derived by patching this handle's
        per-element repr cache in O(k) instead of re-repring the whole
        column, and equals the from-scratch content fingerprint — so a
        delta and its equivalent full-column reweight hit the same cached
        plan.
        """
        if not isinstance(changed, Mapping):
            raise GraphFormatError(
                "reweight_delta needs a mapping {edge: new_weight}; for a "
                "full column use reweight()"
            )
        changes = self._resolve_sparse_mapping(changed)
        for i, w in changes.items():
            if not (0 <= w < math.inf):
                u, v = self.edges[i]
                raise GraphFormatError(
                    f"edge ({self.nodes[u]!r}, {self.nodes[v]!r}) has "
                    f"invalid weight {w!r}"
                )
        changes = {
            i: w for i, w in changes.items()
            if repr(w) != repr(self.weights[i])
        }
        if not changes:
            return self
        column = list(self.weights)
        for i, w in changes.items():
            column[i] = w
        clone = self._clone_with_column(column)
        clone.delta_base = self
        clone.delta_changes = changes
        # Patch the parent's per-element repr cache in O(k): the clone's
        # weights_key is then the exact content fingerprint — identical to
        # a from-scratch handle with the same column — without re-repring
        # the whole column.
        reprs = list(self._weight_reprs)
        for i, w in changes.items():
            reprs[i] = repr(_canonical_weight(w))
        clone.__dict__["_weight_reprs"] = reprs
        return clone

    def _clone_with_column(self, column: list) -> "GraphHandle":
        """A new handle with ``column`` as weights, sharing topology caches."""
        clone = GraphHandle(
            self.n, self.nodes, self.index, self.edges, tuple(column),
            topology_key=self.topology_key,
        )
        # Topology-derived caches are shared by reference (see __init__),
        # so work done on any clone benefits every handle on the topology.
        clone._shared = self._shared
        return clone

    def _column_from_mapping(self, mapping: Mapping) -> list[float]:
        """Resolve a mapping keyed by edge (labels or ids) to handle order.

        All-or-nothing: the mapping is interpreted under original labels
        first, then under normalized ids — never mixing the two per edge.
        (Integer labels can collide with normalized ids; a per-edge
        fallback would silently bind weights to the wrong edges.)  An edge
        supplied under *both* endpoint orders with numerically different
        values is ambiguous and raises :class:`GraphFormatError` (which is
        a ``ValueError``) instead of silently picking one order.
        """
        interpretations = (
            lambda u, v: (self.nodes[u], self.nodes[v]),  # original labels
            lambda u, v: (u, v),  # normalized ids
        )
        for keyer in interpretations:
            column = []
            for u, v in self.edges:
                a, b = keyer(u, v)
                fwd = (a, b) in mapping
                rev = (a, b) != (b, a) and (b, a) in mapping
                if fwd and rev and mapping[(a, b)] != mapping[(b, a)]:
                    raise GraphFormatError(
                        f"reweight mapping supplies edge ({a!r}, {b!r}) "
                        f"under both key orders with different values "
                        f"({mapping[(a, b)]!r} vs {mapping[(b, a)]!r})"
                    )
                if fwd:
                    column.append(mapping[(a, b)])
                elif rev:
                    column.append(mapping[(b, a)])
                else:
                    break  # this interpretation misses an edge: try next
            else:
                return column
        raise GraphFormatError(
            "reweight mapping does not cover every edge under either key "
            "scheme (use original labels or normalized ids, not a mixture)"
        )

    def _resolve_sparse_mapping(self, changed: Mapping) -> dict[int, object]:
        """Resolve sparse ``{edge: weight}`` keys to handle edge positions.

        Mirrors :meth:`_column_from_mapping`'s all-or-nothing key schemes:
        every key must resolve under original labels, or every key under
        normalized ids.  Both endpoint orders are accepted; supplying the
        same edge twice with numerically different values raises
        :class:`GraphFormatError`.
        """
        pair_index = self._pair_index
        label_miss = None
        for scheme in ("labels", "ids"):
            out: dict[int, object] = {}
            ok = True
            for key, w in changed.items():
                try:
                    a, b = key
                except (TypeError, ValueError):
                    raise GraphFormatError(
                        f"reweight_delta keys must be edge pairs; got {key!r}"
                    ) from None
                if scheme == "labels":
                    try:
                        pair = (self.index[a], self.index[b])
                    except (KeyError, TypeError):
                        ok = False
                        break
                else:
                    if not (isinstance(a, int) and isinstance(b, int)):
                        ok = False
                        break
                    pair = (a, b)
                i = pair_index.get(pair)
                if i is None:
                    ok = False
                    if scheme == "labels":
                        label_miss = key
                    break
                if i in out and out[i] != w:
                    raise GraphFormatError(
                        f"reweight_delta supplies edge {key!r} under both "
                        f"key orders with different values "
                        f"({out[i]!r} vs {w!r})"
                    )
                out[i] = w
            if ok:
                return out
        raise GraphFormatError(
            f"reweight_delta mapping has keys that are not edges of this "
            f"topology under either key scheme (first miss: "
            f"{label_miss if label_miss is not None else key!r})"
        )

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------

    @property
    def m(self) -> int:
        """Number of edges."""
        return len(self.edges)

    @property
    def edge_list(self) -> list[tuple]:
        """Edges in the original node labels, handle order (for reweight)."""
        return [(self.nodes[u], self.nodes[v]) for u, v in self.edges]

    @cached_property
    def graph(self) -> nx.Graph:
        """The normalized ``0..n-1`` weighted graph.

        For a handle built by :meth:`from_graph` this is exactly the
        graph :func:`~repro.graphs.validation.normalize_graph` produced
        (seeded at construction, every edge attribute preserved);
        reweighted handles materialize it lazily with the new ``weight``
        column.  Edge insertion order always matches the original input,
        which downstream code depends on for deterministic tie-breaking —
        do not mutate.
        """
        g = nx.Graph()
        g.add_nodes_from(range(self.n))
        for (u, v), w in zip(self.edges, self.weights):
            g.add_edge(u, v, weight=w)
        return g

    @property
    def diameter(self) -> int:
        """Graph diameter when ``n <= 4000``, else ``-1`` (topology-only).

        The one owner of the result-diameter rule: every result's
        ``diameter`` field (2-ECSS, k-ECSS, shortcut 2-ECSS) comes from
        here through a plan.  Shared by reference across :meth:`reweight`
        variants — the single biggest rebuild cost the session amortizes
        on mid-size graphs.  Any handle on the topology may compute it;
        all of them then see it.
        """
        d = self._shared.get("diameter")
        if d is None:
            d = nx.diameter(self.graph) if self.n <= 4000 else -1
            self._shared["diameter"] = d
        return int(d)

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------

    @property
    def topology_key(self) -> str:
        """SHA-1 fingerprint of (n, labels, edge list) — weight-free."""
        if self._topology_key is None:
            h = hashlib.sha1()
            h.update(repr((self.n, self.nodes)).encode())
            h.update(repr(self.edges).encode())
            self._topology_key = h.hexdigest()
        return self._topology_key

    @cached_property
    def weights_key(self) -> str:
        """SHA-1 fingerprint of the weight column (plan-cache key part).

        Hashed over the *canonical* column: ``-0.0`` collapses to ``0.0``
        (numerically equal weights must not produce distinct cache keys,
        and ``repr``-hashing would otherwise tell them apart), while the
        int/float distinction is preserved because weight types propagate
        into result types.  NaN weights never reach this point — handle
        validation (:func:`~repro.graphs.validation.ensure_weights`,
        :meth:`reweight`, :meth:`reweight_delta`) rejects them, so a NaN's
        unequal-to-itself semantics cannot poison the plan cache.

        The hash runs over the per-element repr cache
        (:attr:`_weight_reprs`), which :meth:`reweight_delta` patches in
        O(k) — so a delta-built handle fingerprints in O(join) instead of
        O(m reprs), yet the key is a pure *content* fingerprint: any two
        handles with the same canonical column get the same key, however
        they were built.
        """
        joined = ", ".join(self._weight_reprs)
        return hashlib.sha1(joined.encode()).hexdigest()

    @cached_property
    def _weight_reprs(self) -> list[str]:
        """Per-element canonical weight reprs backing :attr:`weights_key`."""
        return [repr(_canonical_weight(w)) for w in self.weights]

    @property
    def _pair_index(self) -> dict[tuple[int, int], int]:
        """Normalized endpoint pair (either order) -> handle edge position.

        Topology-derived; shared by reference across :meth:`reweight` /
        :meth:`reweight_delta` clones like :attr:`diameter`.
        """
        out = self._shared.get("pair_index")
        if out is None:
            out = {}
            for i, (u, v) in enumerate(self.edges):
                out[(u, v)] = i
                out[(v, u)] = i
            self._shared["pair_index"] = out
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GraphHandle(n={self.n}, m={self.m}, "
            f"topology={self.topology_key[:8]}, weights={self.weights_key[:8]})"
        )
