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
(:meth:`repro.runtime.session.SolverSession.solve_many`) practical.  The
new handle records its diff against its source
(:attr:`GraphHandle.delta_base`, :attr:`GraphHandle.delta_changes`), from
which the plan layer derives its plan from the source's; an unchanged
column returns the source itself.

Fingerprints: :attr:`topology_key` identifies the (labels, edge list)
structure and :func:`weights_token` the weight column; the session's plan
cache is keyed by the latter.
"""

from __future__ import annotations

import hashlib
from functools import cached_property
from typing import Any, Mapping, Sequence

import networkx as nx

from repro.exceptions import GraphFormatError
from repro.fast import HAVE_NUMPY, require_numpy
from repro.graphs.validation import (
    check_two_edge_connected,
    ensure_weights,
    normalize_graph,
    valid_weight,
)

__all__ = ["GraphHandle", "weights_token"]


def weights_token(weights: Sequence) -> tuple:
    """A hashable key of a weight column that tells ``1`` from ``1.0``.

    Tuple equality says ``1 == 1.0``, but a weight's type reaches the
    result (an integer column gives an integer ``mst_weight``), so the key
    pairs the values with their types.  ``-0.0 == 0.0``, so the two share
    a key.
    """
    values = tuple(weights)
    return values, tuple(map(type, values))


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
        #: For handles built by :meth:`reweight`: the source handle and the
        #: effective diff ``{edge_position: new_weight}``.  ``None`` / empty
        #: for handles with no recorded delta lineage.
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
        """A handle on the same topology with a new weight column.

        ``weights`` is either a sequence aligned with :attr:`edge_list`
        (one float per edge, in handle order) or a mapping from edge keys
        to floats — keys may use the original node labels or the
        normalized ids, in either endpoint order.  Every weight must pass
        :func:`~repro.graphs.validation.valid_weight`; topology-derived
        caches (diameter, feasibility) are shared with this handle, so no
        re-validation happens.

        The new column is diffed against this handle's: an entry changes
        when its repr does, so ``5 -> 5.0`` and ``0.0 -> -0.0`` count as
        changes.  If nothing changes, ``self`` is returned; otherwise the
        new handle records this one as :attr:`delta_base` and the diff as
        :attr:`delta_changes` (``{edge_position: new_weight}``).
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
        # catches negatives and ``max`` infinities and ints beyond float
        # range; only then is the sum safe from OverflowError, and its
        # self-comparison catches NaN (which ``min`` and ``max`` can miss
        # mid-sequence).  A non-numeric weight raises TypeError from the
        # comparison.
        if not (
            min(column) >= 0 and valid_weight(max(column))
            and (total := sum(column)) == total
        ):
            for (u, v), w in zip(self.edges, column):
                if not valid_weight(w):
                    raise GraphFormatError(
                        f"edge ({self.nodes[u]!r}, {self.nodes[v]!r}) has "
                        f"invalid weight {w!r}"
                    )
        changed = self._changed_positions(column)
        if not changed:
            return self
        clone = self._clone_with_column(column)
        clone.delta_base = self
        clone.delta_changes = {i: column[i] for i in changed}
        return clone

    def reweight_delta(self, changed: Mapping) -> "GraphHandle":
        """:meth:`reweight` with a *sparse* weight diff against this handle.

        ``changed`` maps edge keys — original labels or normalized ids, in
        either endpoint order, all-or-nothing like :meth:`reweight` — to
        new weights; every key must name an edge of this topology.  The
        keys are resolved, patched into this handle's column, and the
        result goes through :meth:`reweight`, so a delta and the equal
        full column give equal handles.
        """
        if not isinstance(changed, Mapping):
            raise GraphFormatError(
                "reweight_delta needs a mapping {edge: new_weight}; for a "
                "full column use reweight()"
            )
        column = list(self.weights)
        for i, w in self._resolve_sparse_mapping(changed).items():
            column[i] = w
        return self.reweight(column)

    def _changed_positions(self, column: list) -> list[int]:
        """Positions where ``column``'s weight repr differs from this one's.

        When both columns hold only floats, equal float64 bits mean equal
        reprs, so one vectorized compare finds the diff.
        """
        bits = self._float_bits
        if bits is not None and all(type(w) is float for w in column):
            np = require_numpy()
            new = np.fromiter(column, dtype=np.float64, count=len(column))
            return np.flatnonzero(new.view(np.int64) != bits).tolist()
        return [
            i for i, (w, b) in enumerate(zip(column, self.weights))
            if w is not b and repr(w) != repr(b)
        ]

    @cached_property
    def _float_bits(self) -> Any:
        """The column's float64 bits as int64s.

        ``None`` unless numpy is installed and every weight is a float.
        """
        if not HAVE_NUMPY or not all(type(w) is float for w in self.weights):
            return None
        np = require_numpy()
        return np.asarray(self.weights, dtype=np.float64).view(np.int64)

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
            f"topology={self.topology_key[:8]})"
        )
