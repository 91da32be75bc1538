"""Immutable array-backed graph handles: validate and normalize **once**.

A :class:`GraphHandle` is the runtime layer's view of one input graph.
Its one constructor, :meth:`GraphHandle.from_edges`, takes the node
labels and an iterable of ``(u, v, weight)`` edge triples — the shape of
``graph.edges(data="weight")`` and of a wire payload's ``edges`` — and
does, exactly once per topology, everything
:func:`repro.core.tecss.approximate_two_ecss` used to redo on every call:

* normalization to ``0..n-1`` integer ids,
* input checks: self-loops, missing weights, weights that fail
  :func:`~repro.graphs.validation.valid_weight`, labels outside the node
  list and pairs listed twice,
* the feasibility check
  (:func:`~repro.graphs.validation.check_two_edge_connected_ids`, a
  low-link pass over the ids),

and stores the result in flat edge arrays — ``edges`` (the normalized
endpoint pairs, in input order, which downstream tie-breaks depend on)
plus a ``weights`` tuple aligned with them.  No ``nx.Graph`` is built:
:meth:`GraphHandle.from_graph` reads an ``nx.Graph``'s edges and
delegates, the serve workers pass the registered payload, and the
normalized :attr:`GraphHandle.graph` is built lazily, only by the paths
that need one.  The handle is *immutable*: :meth:`reweight` returns a
**new** handle sharing the topology (and every topology-derived cache,
e.g. :attr:`diameter` and the edge set behind :meth:`has_edge`) while
swapping only the weight column — the cheap operation that makes
many-scenario solves
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
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

from repro.exceptions import GraphFormatError
from repro.fast import HAVE_NUMPY, require_numpy
from repro.graphs.validation import (
    check_two_edge_connected_ids,
    edge_defect,
    exact_diameter,
    valid_weight,
)

if TYPE_CHECKING:
    import networkx as nx

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


def _column_passes(column: Sequence) -> bool:
    """Whether every weight in a non-empty column passes :func:`valid_weight`.

    C-speed builtins only: ``min`` catches negatives and ``max``
    infinities and ints beyond float range; only then is the sum safe
    from OverflowError, and its self-comparison catches NaN (which
    ``min`` and ``max`` can miss mid-sequence).  A non-numeric weight
    raises TypeError from the comparison.  Callers that need the
    offending edge named run the per-edge loop after a ``False``.
    """
    return (
        min(column) >= 0 and valid_weight(max(column))
        and (total := sum(column)) == total
    )


def _raise_first_defect(nodes: list, index: dict, triples: list) -> None:
    """Raise :class:`GraphFormatError` for the first bad input edge.

    The per-edge loop behind :meth:`GraphHandle.from_edges`' fast checks,
    run only once they have failed.  Edge by edge, in input order:
    :func:`~repro.graphs.validation.edge_defect` (self-loop, missing or
    invalid weight), a label missing from ``nodes``, and a pair listed
    earlier in either orientation.
    """
    if len(index) < len(nodes):
        raise GraphFormatError("the node list repeats a label")
    seen = set()
    for u, v, w in triples:
        defect = edge_defect(u, v, w)
        if defect is not None:
            raise GraphFormatError(defect)
        if u not in index or v not in index:
            raise GraphFormatError(
                f"edge ({u!r}, {v!r}) names a label missing from the nodes"
            )
        pair = frozenset((index[u], index[v]))
        if pair in seen:
            raise GraphFormatError(
                f"edge ({u!r}, {v!r}) repeats an earlier edge between the "
                "same endpoints"
            )
        seen.add(pair)


class GraphHandle:
    """One validated, normalized, immutable weighted graph (see module doc).

    Build with :meth:`from_edges` (or :meth:`from_graph` for an
    ``nx.Graph``); derive weight variants with :meth:`reweight`.  Handles
    sharing a topology share the same :attr:`topology_key` and the same
    topology-derived caches.
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
        #: Topology-derived caches (:attr:`diameter`, :attr:`_pair_index`,
        #: the ``edge_set`` behind :meth:`has_edge`), shared *by
        #: reference* with every :meth:`reweight` clone: whichever handle
        #: computes one first, all handles on the topology see it.
        #: (Copying computed entries at clone time instead would lose work
        #: computed on a clone afterwards — a 100-scenario sweep would
        #: re-derive the diameter per scenario.)
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
    def from_edges(
        cls, nodes: Iterable, edges: Iterable[Sequence]
    ) -> "GraphHandle":
        """Validate, check 2-edge-connectivity, and normalize an edge list.

        ``nodes`` lists the labels; label ``nodes[i]`` becomes id ``i``.
        ``edges`` yields ``(u, v, weight)`` triples in those labels, in
        the order downstream tie-breaks follow.  The handle keeps the
        caller's weight objects (ints stay ints) and each pair's
        orientation.  Comprehensions map labels to ids and build the edge
        set; C-speed checks on the ids, the set and the weight column
        (:func:`_column_passes`) then either pass or hand over to a
        per-edge loop that names the first bad edge.

        Raises :class:`~repro.exceptions.GraphFormatError` for a
        self-loop, a missing weight, a weight failing
        :func:`~repro.graphs.validation.valid_weight`, a label not in
        ``nodes``, a pair listed twice in either orientation, a repeated
        node label, or fewer than 2 nodes;
        :class:`~repro.exceptions.NotConnectedError`; and
        :class:`~repro.exceptions.NotTwoEdgeConnectedError` naming the
        first bridge in edge order, in labels and input orientation
        (:func:`~repro.graphs.validation.first_bridge`).  No networkx is
        involved.
        """
        nodes = list(nodes)
        index = {label: i for i, label in enumerate(nodes)}
        triples = list(edges)
        weights = [w for _, _, w in triples]
        try:
            pairs = [(index[u], index[v]) for u, v, _ in triples]
            # Sorted pairs; an already sorted one is stored as itself.
            edge_set = {p if p[0] < p[1] else (p[1], p[0]) for p in pairs}
            clean = (
                len(index) == len(nodes)
                and len(edge_set) == len(pairs)
                and not any(u == v for u, v in pairs)
                and (not weights or _column_passes(weights))
            )
        except (KeyError, TypeError):
            clean = False
        if not clean:
            _raise_first_defect(nodes, index, triples)
        check_two_edge_connected_ids(nodes, pairs)
        handle = cls(len(nodes), nodes, index, pairs, tuple(weights))
        handle._shared["edge_set"] = edge_set
        return handle

    @classmethod
    def from_graph(cls, graph: "nx.Graph") -> "GraphHandle":
        """:meth:`from_edges` on an undirected simple ``nx.Graph``.

        Reads ``graph.nodes`` and ``graph.edges(data="weight")``, so the
        handle follows the graph's own iteration order.  Raises exactly
        what the one-shot solvers raise on bad input (see
        :meth:`from_edges`) — but only once per topology instead of once
        per solve — and :class:`~repro.exceptions.GraphFormatError` for a
        directed graph or a multigraph, whose parallel edges the solvers
        would otherwise collapse.
        """
        if graph.is_directed() or graph.is_multigraph():
            raise GraphFormatError(
                "the input must be an undirected simple graph (nx.Graph); "
                f"got a {type(graph).__name__}"
            )
        return cls.from_edges(graph.nodes, graph.edges(data="weight"))

    def reweight(
        self,
        weights: Sequence[float] | Mapping[object, float],
    ) -> "GraphHandle":
        """A handle on the same topology with a new weight column.

        ``weights`` is either a sequence aligned with :attr:`edge_list`
        (one float per edge, in handle order) or a mapping from edge keys
        to floats, keyed as in :meth:`reweight_delta`, that names every
        edge; a key that names no edge raises.  Every weight must pass
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
            resolved = self._resolve_mapping(weights, "reweight")
            if len(resolved) != len(self.edges):
                raise GraphFormatError(
                    f"reweight mapping names {len(resolved)} of the "
                    f"{len(self.edges)} edges; a full mapping needs every "
                    "edge (use reweight_delta for a sparse diff)"
                )
            column = [resolved[i] for i in range(len(self.edges))]
        else:
            column = list(weights)
            if len(column) != len(self.edges):
                raise GraphFormatError(
                    f"reweight needs {len(self.edges)} weights "
                    f"(one per edge); got {len(column)}"
                )
        # Fast C-speed scan first; only a failing column pays the
        # per-edge diagnostic loop that names the offending edge.
        if not _column_passes(column):
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

        ``changed`` maps edge keys — all original labels or all normalized
        ids, in either endpoint order — to new weights; every key must
        name an edge of this topology.  The keys are resolved, patched
        into this handle's column, and the result goes through
        :meth:`reweight`, so a delta and the equal full column give equal
        handles.
        """
        if not isinstance(changed, Mapping):
            raise GraphFormatError(
                "reweight_delta needs a mapping {edge: new_weight}; for a "
                "full column use reweight()"
            )
        column = list(self.weights)
        for i, w in self._resolve_mapping(changed, "reweight_delta").items():
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

    def _resolve_mapping(
        self, changed: Mapping, caller: str
    ) -> dict[int, object]:
        """Resolve ``{edge: weight}`` keys to handle edge positions.

        All-or-nothing: every key must resolve under original labels, or
        every key under normalized ids — never mixing the two per edge.
        (Integer labels can collide with normalized ids; a per-edge
        fallback would silently bind weights to the wrong edges.)  Both
        endpoint orders are accepted; supplying the same edge twice with
        numerically different values raises :class:`GraphFormatError`,
        whose message names ``caller``.
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
                        f"{caller} keys must be edge pairs; got {key!r}"
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
                        f"{caller} supplies edge {key!r} under both "
                        f"key orders with different values "
                        f"({out[i]!r} vs {w!r})"
                    )
                out[i] = w
            if ok:
                return out
        raise GraphFormatError(
            f"{caller} mapping has keys that are not edges of this "
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

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the normalized ids ``u`` and ``v`` share an edge.

        Either orientation.  Answered from the edge set that
        :meth:`from_edges` built for its duplicate check, shared with
        every :meth:`reweight` clone, so a handle can stand in for the
        graph in :func:`repro.core.tecss.assemble_two_ecss`' link lookups.
        """
        return ((u, v) if u < v else (v, u)) in self._shared["edge_set"]

    @cached_property
    def graph(self) -> "nx.Graph":
        """The normalized ``0..n-1`` graph, built on first use.

        Nodes ``0..n-1`` in order, then the edges in handle order, each
        carrying only its ``weight`` from this handle's column; the input
        graph's other attributes are not kept.  Only the paths that read
        an ``nx.Graph`` build it: ``simulate_mst``, the ``sim`` engine,
        the shortcut solver and k >= 3 validation.  Edge insertion order
        matches the input, which downstream code depends on for
        deterministic tie-breaking — do not mutate.
        """
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.n))
        for (u, v), w in zip(self.edges, self.weights):
            g.add_edge(u, v, weight=w)
        return g

    @property
    def diameter(self) -> int:
        """Exact graph diameter when ``n <= 4000``, else ``-1`` (topology-only).

        The one owner of the result-diameter rule: every result's
        ``diameter`` field (2-ECSS, k-ECSS, shortcut 2-ECSS) comes from
        here through a plan.  Computed from the flat edge arrays by
        :func:`~repro.graphs.validation.exact_diameter`: a bit-parallel
        all-sources BFS with numpy, ``nx.diameter`` without.  The cutoff
        stays because that BFS's cost grows with the diameter: seconds on
        long-diameter graphs (lollipop, theta) near the cutoff.
        Shared by reference across :meth:`reweight` variants: any handle
        on the topology may compute it; all of them then see it.
        """
        d = self._shared.get("diameter")
        if d is None:
            d = exact_diameter(self.n, self.edges) if self.n <= 4000 else -1
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
