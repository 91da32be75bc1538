"""Swap-edge MST maintenance for sparse reweights (the delta-solve core).

:func:`repro.core.tecss.stable_kruskal_mst`, the one MST builder, runs
Kruskal with a fully deterministic tie-break: edges are *stably* sorted by
weight in the handle's edge order
(:attr:`repro.runtime.handle.GraphHandle.edges`, the input graph's
edge-iteration order) — so the effective comparison key of edge ``i`` is
the lexicographic pair ``(weight_i, i)`` and the MST is unique under it.  That uniqueness is what
makes incremental maintenance *exact*: this module replays a sparse weight
diff one edge at a time, applying the classic swap rules under the same
``(weight, position)`` key, and provably lands on the tree a fresh
stable-Kruskal run would produce.

For a single edge ``i`` changing ``w -> w'`` there are four cases:

* **tree edge, decrease** — the tree is unchanged (its key only got
  smaller, every cut it was minimal for it still is);
* **non-tree edge, increase** — unchanged (its key only got bigger);
* **non-tree edge, decrease** — let ``t*`` be the tree edge with the
  lexicographically *largest* ``(w, pos)`` key on the tree path between
  ``i``'s endpoints; swap ``i`` in and ``t*`` out iff
  ``(w', i) < (w(t*), t*)`` (the cycle rule);
* **tree edge, increase** — let ``f*`` be the non-tree edge with the
  lexicographically *smallest* key crossing the cut that removing ``i``
  opens; swap iff ``(w', i) > (w(f*), f*)`` (the cut rule).

Each step performs at most one swap, so a ``k``-edge diff costs at most
``k`` swaps; the changes are applied in ascending edge position (any fixed
order works — after each step the invariant "current tree is the stable
Kruskal of the current weights" is restored).  Crossing-edge queries run
vectorized over the tree's Euler intervals when numpy is present
(:func:`repro.fast.kernels.min_weight_crossing`) and as an exact Python
scan otherwise — or when an integer weight, in the base column or among
the diff's new values, exceeds float64's exact range, where a float
comparison could mis-rank candidates.

:class:`DeltaFallback` signals "rebuild from scratch instead"; the caller
(:meth:`repro.runtime.plan.SolverPlan.from_delta`) also refuses large
diffs before calling in.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from typing import Any, Sequence

from repro import obs
from repro.runtime.handle import GraphHandle, _weights_float_exact
from repro.trees.rooted import RootedTree

try:  # numpy is optional project-wide
    import numpy as _np
except ImportError:  # pragma: no cover - the CI image bakes numpy in
    _np = None

__all__ = ["DeltaFallback", "DeltaOutcome", "maintain_mst"]


class DeltaFallback(Exception):
    """Raised when incremental maintenance should yield to a full rebuild."""


@dataclass
class DeltaOutcome:
    """The result of :func:`maintain_mst` for one sparse diff.

    ``mst_edges`` is sorted exactly like
    :func:`~repro.core.tecss.stable_kruskal_mst` output; ``tree`` is the parent's :class:`RootedTree` object when
    ``changed_tree`` is false (so every tree-derived artifact can be
    shared) and a freshly rooted tree otherwise.  ``swaps`` records
    ``(removed, added)`` edge pairs for observability.
    """

    changed_tree: bool
    tree: RootedTree
    mst_edges: list[tuple[int, int]]
    swaps: list[tuple[tuple[int, int], tuple[int, int]]] = field(
        default_factory=list
    )


class _CrossingIndex:
    """Full-edge candidate arrays for cut-rule queries, built once per diff.

    The endpoint arrays are immutable for the whole :func:`maintain_mst`
    call; the weight column is patched in place as changes are applied and
    a boolean non-tree mask absorbs each swap in O(1) (flip two entries).
    Queries slice the candidate view out with fancy indexing — O(m) numpy,
    microseconds at ``m ~ 10^4`` — instead of the O(m)-*Python* rebuild a
    per-swap reconstruction would cost.  Only the Euler labels are
    re-extracted when the tree object changes.
    """

    def __init__(
        self,
        handle: GraphHandle,
        weights: "Sequence",
        tset: "set[tuple[int, int]]",
        pair_index: "dict[tuple[int, int], int]",
        use_numpy: bool,
    ) -> None:
        self.edges = handle.edges
        self.tset = tset  # live reference: maintain_mst mutates it on swap
        self.use_numpy = use_numpy
        if use_numpy:
            self.a, self.b = handle._endpoint_arrays
            self.w = _np.fromiter(
                weights, dtype=_np.float64, count=len(self.edges)
            )
            self.nontree = _np.ones(len(self.edges), dtype=bool)
            for key in tset:
                self.nontree[pair_index[key]] = False
            self.tree_obj = None
            self.tin = None
            self.tout = None
            self._pos = None
            self._pos_a = None
            self._pos_b = None

    def bind(self, tree: RootedTree) -> None:
        """Cache the tree's Euler labels as arrays (numpy path only)."""
        if self.use_numpy and self.tree_obj is not tree:
            self.tree_obj = tree
            self.tin = _np.asarray(tree.tin, dtype=_np.int64)
            self.tout = _np.asarray(tree.tout, dtype=_np.int64)

    def update_weight(self, j: int, w: Any) -> None:
        """Patch edge ``j``'s weight after a processed change."""
        if self.use_numpy:
            self.w[j] = w

    def apply_swap(self, out_pos: int, in_pos: int) -> None:
        """Record a swap: ``out_pos`` leaves the tree, ``in_pos`` enters."""
        if self.use_numpy:
            self.nontree[out_pos] = True
            self.nontree[in_pos] = False
            self._pos = None  # candidate view is stale

    def global_min(self, weights: "Sequence") -> "tuple[Any, int] | None":
        """Lex-min ``(weight, position)`` over *all* non-tree edges.

        A lower bound on any crossing query — the cut rule uses it to
        skip the (far costlier) crossing scan whenever even the globally
        lightest non-tree edge cannot beat the changed tree edge.
        """
        if self.use_numpy:
            masked = _np.where(self.nontree, self.w, _np.inf)
            j = int(masked.argmin())  # first occurrence == lex-min
            return (weights[j], j)
        best = None
        for j, (u, v) in enumerate(self.edges):
            if ((u, v) if u < v else (v, u)) in self.tset:
                continue
            cand = (weights[j], j)
            if best is None or cand < best:
                best = cand
        return best

    def min_crossing(
        self, tree: RootedTree, cut_child: int, weights: "Sequence"
    ) -> "int | None":
        """Lex-min ``(weight, position)`` non-tree edge crossing the cut.

        The cut separates ``subtree(cut_child)`` from the rest.  Returns
        the edge position or ``None`` when no candidate crosses.
        """
        if self.use_numpy:
            from repro.fast.kernels import min_weight_crossing

            self.bind(tree)
            if self._pos is None:
                # Endpoints are immutable between swaps; only the weight
                # view is re-sliced per query (weights mutate under us).
                self._pos = _np.flatnonzero(self.nontree)
                self._pos_a = self.a[self._pos]
                self._pos_b = self.b[self._pos]
            k = min_weight_crossing(
                self.tin, self.tout, self._pos_a, self._pos_b,
                self.w[self._pos], cut_child,
            )
            return None if k < 0 else int(self._pos[k])
        best = None
        anc = tree.is_ancestor
        for j, (u, v) in enumerate(self.edges):
            if ((u, v) if u < v else (v, u)) in self.tset:
                continue
            if anc(cut_child, u) != anc(cut_child, v):
                cand = (weights[j], j)
                if best is None or cand < best:
                    best = cand
        return None if best is None else best[1]


def maintain_mst(
    handle: GraphHandle,
    tree: RootedTree,
    mst_edges: list[tuple[int, int]],
    *,
    max_swaps: int | None = None,
) -> DeltaOutcome:
    """Replay ``handle.delta_changes`` over the parent MST (module doc).

    ``tree`` / ``mst_edges`` belong to the plan of ``handle.delta_base``;
    the diff and old weights come from the handle's delta lineage.  Raises
    :class:`DeltaFallback` when the swap budget is exceeded.  When
    tracing is on, the replay runs under a ``delta.maintain`` span
    carrying the change/swap counts (a fallback shows up as its
    ``error`` attribute).
    """
    with obs.span(
        "delta.maintain", changed=len(handle.delta_changes)
    ) as span:
        outcome = _maintain_mst(handle, tree, mst_edges, max_swaps=max_swaps)
        span.set(swaps=len(outcome.swaps), changed_tree=outcome.changed_tree)
    return outcome


def _maintain_mst(
    handle: GraphHandle,
    tree: RootedTree,
    mst_edges: list[tuple[int, int]],
    *,
    max_swaps: int | None = None,
) -> DeltaOutcome:
    """The replay body behind :func:`maintain_mst`."""
    base = handle.delta_base
    if base is None:
        raise DeltaFallback("handle has no delta lineage")
    changes = handle.delta_changes
    edges = handle.edges
    pair_index = handle._pair_index
    n = handle.n
    weights = list(base.weights)
    tset = set(mst_edges)
    cur_tree = tree
    tree_dirty = False
    swaps: list[tuple[tuple[int, int], tuple[int, int]]] = []
    budget = len(changes) if max_swaps is None else max_swaps
    # The crossing index casts the base column *and* every new value to
    # float64, so all of them must survive the cast exactly.
    use_numpy = (
        _np is not None
        and base._float_exact
        and _weights_float_exact(changes.values())
    )
    crossing: _CrossingIndex | None = None

    def _tree() -> RootedTree:
        # Rebuilt lazily so back-to-back swaps (and a final swap with no
        # rule left to evaluate) never pay for an intermediate rooting.
        nonlocal cur_tree, tree_dirty
        if tree_dirty:
            # sorted(): from_edges assigns DFS/Euler labels in input
            # order, and downstream tie-breaks compare those labels —
            # feeding raw set order here made mid-replay trees (and thus
            # swap choices on ties) vary run to run.
            cur_tree = RootedTree.from_edges(n, sorted(tset), root=0)
            tree_dirty = False
        return cur_tree

    # Lex-max (weight, position) over the current tree edges — an upper
    # bound on every cycle-rule path-max.  Most drift changes fail even
    # this bound (a lightened non-tree edge still heavier than *any*
    # tree edge cannot displace one), so the O(path) walk is skipped for
    # them and only recomputed-on-demand after swaps or max-edge updates.
    tree_max = None

    def _tree_max() -> "tuple[Any, int]":
        nonlocal tree_max
        if tree_max is None:
            tree_max = max(
                (weights[pair_index[key]], pair_index[key]) for key in tset
            )
        return tree_max

    for i in sorted(changes):
        new = changes[i]
        old = weights[i]
        u, v = edges[i]
        key = (u, v) if u < v else (v, u)
        swapped = None
        if key in tset:
            if new > old:
                # Cut rule: the tree edge got heavier; the lightest
                # crossing non-tree edge may replace it.
                if crossing is None:
                    crossing = _CrossingIndex(
                        handle, weights, tset, pair_index, use_numpy
                    )
                floor = crossing.global_min(weights)
                if floor is not None and floor < (new, i):
                    t = _tree()
                    cut_child = u if t.parent[u] == v else v
                    j = crossing.min_crossing(t, cut_child, weights)
                    if j is not None and (weights[j], j) < (new, i):
                        inkey = (
                            (edges[j][0], edges[j][1])
                            if edges[j][0] < edges[j][1]
                            else (edges[j][1], edges[j][0])
                        )
                        swapped = (key, inkey)
        else:
            if new < old and (new, i) < _tree_max():
                # Cycle rule: the non-tree edge got lighter; the heaviest
                # tree edge on its path may fall out.
                t = _tree()
                best = None
                for c in t.path_edges(u, v):
                    te = pair_index[(c, t.parent[c])]
                    cand = (weights[te], te)
                    if best is None or cand > best:
                        best = cand
                if best is not None and (new, i) < best:
                    te = best[1]
                    a, b = edges[te]
                    outkey = (a, b) if a < b else (b, a)
                    swapped = (outkey, key)
        weights[i] = new
        if crossing is not None:
            crossing.update_weight(i, new)
        if key in tset and tree_max is not None:
            # Keep the cycle-rule bound current: a heavier tree edge can
            # raise it in O(1); touching the max edge itself invalidates.
            if (new, i) > tree_max:
                tree_max = (new, i)
            elif i == tree_max[1]:
                tree_max = None
        if swapped is not None:
            if len(swaps) >= budget:
                raise DeltaFallback(
                    f"swap budget exceeded ({budget} swaps)"
                )
            outkey, inkey = swapped
            tset.remove(outkey)
            tset.add(inkey)
            swaps.append(swapped)
            tree_dirty = True
            tree_max = None
            if crossing is not None:
                crossing.apply_swap(pair_index[outkey], pair_index[inkey])

    if not swaps:
        return DeltaOutcome(False, tree, mst_edges, swaps)
    out_edges = sorted(tset)
    # Root exactly as a fresh plan does: from the *sorted* edge list.
    return DeltaOutcome(
        True, RootedTree.from_edges(n, out_edges, root=0), out_edges, swaps
    )
