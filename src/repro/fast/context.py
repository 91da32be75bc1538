"""Vectorized epoch state for the reverse-delete phase (Sections 3.5/4.5/4.6).

The reverse-delete *control flow* (global MIS over segment representatives,
bottom-up local scans, the improved variant's cleaning phase) stays in
:mod:`repro.core.mis` / :mod:`repro.core.reverse` — it is the part the
structural claims (4.13, 4.15, 4.17) are about, and sharing it between
backends means the backends cannot drift.  What this module replaces are
the per-epoch *primitives*, all integer-exact:

* :class:`FastPetalOracle` — higher/lower petals (Claim 4.11) as jump-table
  chmins over int64 keys encoding the reference tie-breaks
  ``(depth(anc), index)`` / ``(-depth(u_e), index)`` lexicographically;
* :class:`FastCoverageCounter` — the cover ``Y`` as a scatter-delta array
  with lazily recomputed Euler-tour subtree counts (amortized O(n) per
  batch of additions instead of O(log^2 n) Fenwick work per query);
* X-coverage counts via :func:`~repro.fast.kernels.path_cover_counts`.

The petal chmins and the coverage counts are the same kernels
(:func:`~repro.fast.kernels.path_chmin`,
:func:`~repro.fast.kernels.subtree_counts`) the forward phase
(:func:`~repro.fast.forward.forward_phase_fast`) runs.

Because petal indices and coverage counts are exact integers in both
backends, :class:`FastEpochContext` selects the same anchors, builds the
same cover, and performs the same cleaning removals as the reference
:class:`~repro.core.mis.EpochContext` — asserted pairwise by
``tests/test_backend_differential.py``.
"""

from __future__ import annotations

from repro.core.mis import EpochContext
from repro.fast import require_numpy
from repro.fast.kernels import INT_SENTINEL

__all__ = ["FastCoverageCounter", "FastEpochContext", "FastPetalOracle"]


class FastPetalOracle:
    """Petal lookups for a fixed ``X``, backed by jump-table chmin answers.

    Same interface and same results as
    :class:`~repro.decomp.petals.PetalOracle`: ``higher(t)``/``lower(t)``
    return indices into the epoch's ``x_edges`` list (``-1`` when ``t`` is
    not covered).  The higher-petal table is built eagerly, one lower-petal
    table per layer lazily — mirroring the reference oracle's caching.
    """

    __slots__ = ("arrays", "layering", "_m", "_dec", "_anc", "_hi", "_lo_by_layer")

    def __init__(self, arrays, layering, x_eids) -> None:
        np = require_numpy()
        self.arrays = arrays
        self.layering = layering
        x_eids = np.asarray(x_eids, dtype=np.int64)
        self._dec = arrays.dec[x_eids]
        self._anc = arrays.anc[x_eids]
        self._m = max(1, len(x_eids))
        ta = arrays.ta
        # Lexicographic (depth(anc), idx) as one int64 key: exact minima.
        idx = np.arange(len(x_eids), dtype=np.int64)
        key = ta.depth[self._anc] * self._m + idx
        # Answer tables live as Python lists: queries outnumber the one
        # kernel build per epoch, and list reads beat numpy scalar reads.
        self._hi = ta.path_chmin(self._dec, self._anc, key, INT_SENTINEL).tolist()
        self._lo_by_layer: dict[int, list[int]] = {}

    def higher(self, t: int) -> int:
        """Index into ``x_edges`` of the higher petal of ``t`` (-1 if uncovered)."""
        k = self._hi[t]
        return k % self._m if k != INT_SENTINEL else -1

    def _lo_result(self, lay: int):
        """Build (once) the lower-petal answer table for one layer."""
        ans = self._lo_by_layer.get(lay)
        if ans is None:
            np = require_numpy()
            ta = self.arrays.ta
            nla = self.arrays.nearest_in_layer(lay, self.layering)
            t0 = nla[self._dec]
            valid = np.flatnonzero((t0 != -1) & (ta.depth[t0] > ta.depth[self._anc]))
            leaf = self.arrays.path_leaf[self.arrays.path_id[t0[valid]]]
            u_e = ta.batch_lca(leaf, self._dec[valid])
            # Deeper u_e is better: encode (-depth(u_e), idx) as
            # (height - depth(u_e)) * m + idx, still exact int64.
            height = ta.depth.max() if ta.n > 1 else 0
            key = (height - ta.depth[u_e]) * self._m + valid
            ans = ta.path_chmin(
                self._dec[valid], self._anc[valid], key, INT_SENTINEL
            ).tolist()
            self._lo_by_layer[lay] = ans
        return ans

    def lower(self, t: int) -> int:
        """Index into ``x_edges`` of the lower petal of ``t`` (-1 if uncovered)."""
        k = self._lo_result(self.layering.layer[t])[t]
        return k % self._m if k != INT_SENTINEL else -1

    def petals_of(self, t: int) -> tuple[int, ...]:
        """The (deduplicated) petal indices of ``t``, higher first."""
        hi = self.higher(t)
        lo = self.lower(t)
        out = []
        if hi != -1:
            out.append(hi)
        if lo != -1 and lo != hi:
            out.append(lo)
        return tuple(out)


class FastCoverageCounter:
    """Drop-in for :class:`~repro.trees.pathops.CoverageCounter`.

    Additions and removals are O(1) scatter updates to a delta array; the
    per-tree-edge counts are recomputed by one vectorized Euler-tour pass
    when a query first follows a mutation.  The reverse-delete phase
    mutates in batches between query phases, so each batch costs one O(n)
    kernel instead of O(batch · log^2 n) Fenwick updates.
    """

    __slots__ = ("_ta", "_delta", "_counts", "_dirty")

    def __init__(self, ta) -> None:
        np = require_numpy()
        self._ta = ta
        self._delta = np.zeros(ta.n, dtype=np.int64)
        # Counts live as a Python list: queries outnumber recomputes by
        # orders of magnitude, and list indexing beats numpy scalar reads.
        self._counts: list[int] = [0] * ta.n
        self._dirty = False

    def add_path(self, dec: int, anc: int, delta: int = 1) -> None:
        """Add (or with ``delta=-1`` remove) one vertical path's coverage."""
        self._delta[dec] += delta
        self._delta[anc] -= delta
        self._dirty = True

    def remove_path(self, dec: int, anc: int) -> None:
        """Remove one previously added vertical path."""
        self.add_path(dec, anc, -1)

    def count(self, v: int) -> int:
        """Number of live paths covering tree edge ``v``."""
        if self._dirty:
            self._counts = self._ta.subtree_counts(self._delta).tolist()
            self._dirty = False
        return self._counts[v]

    def is_covered(self, v: int) -> bool:
        """Whether any live path covers tree edge ``v``."""
        if self._dirty:
            self._counts = self._ta.subtree_counts(self._delta).tolist()
            self._dirty = False
        return self._counts[v] > 0


class FastEpochContext(EpochContext):
    """Reference epoch semantics over vectorized primitives (see module doc)."""

    __slots__ = ()

    def _make_oracle(self) -> FastPetalOracle:
        return FastPetalOracle(self.inst.arrays, self.inst.layering, self.x_list)

    def _make_counter(self) -> FastCoverageCounter:
        return FastCoverageCounter(self.inst.arrays.ta)

    def _make_x_coverage(self):
        np = require_numpy()
        arrays = self.inst.arrays
        eids = np.asarray(self.x_list, dtype=np.int64)
        return arrays.ta.path_cover_counts(arrays.dec[eids], arrays.anc[eids])

    # -- hot-path overrides: endpoint reads from the instance arrays, so the
    # reverse-delete inner loops never materialize VirtualEdge objects.

    def add_to_y(self, eid: int) -> None:
        """Add edge ``eid`` to the cover ``Y`` (idempotent; -1 is a no-op)."""
        if eid != -1 and eid not in self.y_set:
            self.y_set.add(eid)
            arrays = self.inst.arrays
            self.counter.add_path(int(arrays.dec[eid]), int(arrays.anc[eid]))

    def remove_from_y(self, eid: int) -> None:
        """Remove edge ``eid`` from ``Y`` (the cleaning phase's operation)."""
        if eid in self.y_set:
            self.y_set.discard(eid)
            arrays = self.inst.arrays
            self.counter.remove_path(
                int(arrays.dec[eid]), int(arrays.anc[eid])
            )

    def edge_anc(self, eid: int) -> int:
        """The anchor (top) endpoint of instance edge ``eid``."""
        return int(self.inst.arrays.anc[eid])

    def edge_path(self, eid: int) -> tuple[int, int]:
        """Instance edge ``eid`` as its ``(dec, anc)`` vertical path."""
        arrays = self.inst.arrays
        return int(arrays.dec[eid]), int(arrays.anc[eid])

    def y_covers(self, t: int) -> bool:
        """Does the current cover ``Y`` cover tree edge ``t``?

        Inlined counter query — the reverse-delete scans ask this hundreds
        of thousands of times per solve, so the extra call frame matters.
        """
        c = self.counter
        if c._dirty:
            c._counts = c._ta.subtree_counts(c._delta).tolist()
            c._dirty = False
        return c._counts[t] > 0
