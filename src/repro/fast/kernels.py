"""Stateless numpy kernels over rooted-tree arrays.

Every kernel mirrors one information flow of the paper's aggregate-function
machinery (Claims 4.5 and 4.6) or one decomposition primitive, with the
exactness contract the differential suite relies on:

* :func:`ancestor_sums_levels` replays the reference recurrence
  ``cum[v] = cum[parent[v]] + values[v]`` one depth level at a time, so
  every output double is produced by the *same* IEEE-754 operation as the
  Python loop in :meth:`repro.trees.pathops.TreePathOps.ancestor_sums` —
  bit-identical, not merely close;
* :func:`subtree_counts` and :func:`path_cover_counts` use the Euler-tour
  difference trick in pure int64 arithmetic — exact, order-independent;
* :func:`batch_lca` and :func:`batch_ancestor_at_depth` are vectorized
  binary lifting — pure integer, identical to
  :meth:`repro.trees.rooted.RootedTree.lca`;
* :func:`path_chmin` is the tree-edge-learns-min-over-covering-links
  aggregate as a sparse *jump table*: each vertical path is covered by two
  (possibly overlapping) ancestor blocks of length ``2^k``, scattered with
  ``np.minimum.at`` and pushed down level by level.  With integer keys the
  result is exact; with float values it computes the same minimum as the
  reference segment tree (minimum of a set of doubles does not depend on
  association order).

The three per-vertex kernels (:func:`ancestor_sums_levels`,
:func:`subtree_counts`, :func:`path_chmin`) take one row or many: a 1-D
argument is one scenario, a C-order ``(S, ·)`` argument is ``S`` scenarios
over the same tree, addressed through flat ``row * n + vertex`` indices so
that one row costs what the plain 1-D gather costs.  Row ``s`` of a
many-row call equals the one-row call on row ``s`` bit for bit: rows never
mix, and each output element is produced by the same operations either
way.

All functions take plain numpy arrays so they can be unit-tested against
the reference tree structures directly (``tests/test_fast_kernels.py``).
"""

from __future__ import annotations

from repro.fast import require_numpy

__all__ = [
    "INT_SENTINEL",
    "ancestor_sums_levels",
    "batch_ancestor_at_depth",
    "batch_lca",
    "build_lift_table",
    "depth_levels",
    "path_chmin",
    "path_cover_counts",
    "subtree_counts",
]

_np = None


def _numpy():
    """Import numpy lazily so the module can be imported without it."""
    global _np
    if _np is None:
        _np = require_numpy()
    return _np


#: Identity element for integer-keyed :func:`path_chmin` lookups.
INT_SENTINEL = (1 << 62)


def depth_levels(depth):
    """Group the vertices by depth, shallowest level first.

    Returns a list of int64 arrays, ``levels[d]`` holding the vertices at
    depth ``d``; within a level the vertex order is irrelevant because
    same-depth vertices never depend on each other.
    """
    np = _numpy()
    depth = np.asarray(depth, dtype=np.int64)
    by_depth = np.argsort(depth, kind="stable")
    counts = np.bincount(depth, minlength=int(depth.max()) + 1)
    bounds = np.concatenate(([0], np.cumsum(counts)))
    return [
        by_depth[bounds[d] : bounds[d + 1]].astype(np.int64)
        for d in range(len(counts))
    ]


def _row_offsets(values, n):
    """``row * n`` as an ``(S, 1)`` column, or ``None`` for a single row.

    Row 0's flat indices are the vertex indices themselves, so one row —
    1-D or ``(1, n)`` — indexes with the plain per-vertex arrays.
    """
    np = _numpy()
    if values.ndim == 1 or values.shape[0] == 1:
        return None
    return (np.arange(values.shape[0], dtype=np.int64) * n)[:, None]


def ancestor_sums_levels(levels, parent, values):
    """Root-to-vertex prefix sums, bit-identical to the reference loop.

    ``cum[v] = cum[parent[v]] + values[v]`` evaluated one depth level at a
    time (level 0 is the root, whose entry stays 0.0, matching
    :meth:`~repro.trees.pathops.TreePathOps.ancestor_sums`).  Because each
    element is still computed by exactly one ``parent + value`` addition,
    the result equals the sequential Python recurrence bit for bit.
    ``values`` is one ``(n,)`` row or an ``(S, n)`` stack; the result has
    its shape.
    """
    np = _numpy()
    values = np.ascontiguousarray(values, dtype=np.float64)
    cum = np.zeros_like(values)
    flat = cum.reshape(-1)
    vals = values.reshape(-1)
    offs = _row_offsets(values, len(parent))
    for lvl in levels[1:]:
        plvl = parent[lvl]
        if offs is not None:
            lvl = (offs + lvl).reshape(-1)
            plvl = (offs + plvl).reshape(-1)
        flat[lvl] = flat[plvl] + vals[lvl]
    return cum


def subtree_counts(tin, tout, delta):
    """Per-vertex sums of ``delta`` over subtrees, via the Euler tour.

    ``delta`` is an int64 per-vertex array — one ``(n,)`` row or an
    ``(S, n)`` stack; returns ``counts`` of the same shape with
    ``counts[v] = sum of delta over the subtree rooted at v`` per row.
    One prefix sum runs over the flattened stack: a row's Euler interval
    ``[s*n + tin[v], s*n + tout[v])`` never leaves row ``s``, so the
    carry from earlier rows cancels in the difference.  Pure integer
    arithmetic — exact for the coverage-count bookkeeping.
    """
    np = _numpy()
    delta = np.asarray(delta, dtype=np.int64)
    offs = _row_offsets(delta, len(tin))
    if offs is not None:
        tin = (offs + tin).reshape(-1)
        tout = (offs + tout).reshape(-1)
    arr = np.zeros(delta.size, dtype=np.int64)
    arr[tin] = delta.reshape(-1)
    pref = np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(arr)))
    return (pref[tout] - pref[tin]).reshape(delta.shape)


def path_cover_counts(tin, tout, dec, anc, n):
    """How many of the vertical paths ``(dec[i], anc[i])`` cover each tree edge.

    The vertical difference trick (+1 at ``dec``, -1 at ``anc``, subtree
    sums) in exact int64 — the kernel behind
    :meth:`~repro.trees.pathops.TreePathOps.coverage_counts`.
    """
    np = _numpy()
    delta = np.bincount(dec, minlength=n).astype(np.int64)
    delta -= np.bincount(anc, minlength=n).astype(np.int64)
    return subtree_counts(tin, tout, delta)


def build_lift_table(parent, root, height):
    """Binary-lifting table as one ``(K+1, n)`` int64 matrix.

    Row ``k`` holds the ``2^k``-th ancestor of every vertex, saturating at
    the root (``up[k][root] == root``).
    """
    np = _numpy()
    n = len(parent)
    logn = max(1, max(1, height).bit_length())
    up = np.empty((logn + 1, n), dtype=np.int64)
    up[0] = parent
    up[0, root] = root
    for k in range(1, logn + 1):
        up[k] = up[k - 1][up[k - 1]]
    return up


def batch_ancestor_at_depth(up, depth, v, target_depth):
    """Vectorized ``ancestor_at_depth``: lift each ``v[i]`` to ``target_depth[i]``.

    Callers must guarantee ``0 <= target_depth <= depth[v]`` elementwise.
    """
    np = _numpy()
    v = np.array(v, dtype=np.int64, copy=True)
    if v.size == 0:
        return v
    delta = depth[v] - np.asarray(target_depth, dtype=np.int64)
    max_delta = int(delta.max())
    k = 0
    while (1 << k) <= max_delta:
        sel = np.flatnonzero((delta >> k) & 1)
        if sel.size:
            v[sel] = up[k][v[sel]]
        k += 1
    return v


def batch_lca(up, tin, tout, depth, parent, u, v):
    """Vectorized lowest common ancestors of the pairs ``(u[i], v[i])``.

    Same algorithm as :meth:`repro.trees.rooted.RootedTree.lca` (Euler-
    interval ancestor shortcut, equalize depths, descend the lifting
    table), evaluated on whole arrays; pure integer, hence identical.
    """
    np = _numpy()
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    res = np.empty(u.shape, dtype=np.int64)
    u_anc = (tin[u] <= tin[v]) & (tin[v] < tout[u])
    v_anc = (tin[v] <= tin[u]) & (tin[u] < tout[v])
    res[u_anc] = u[u_anc]
    res[v_anc & ~u_anc] = v[v_anc & ~u_anc]
    rest = np.flatnonzero(~(u_anc | v_anc))
    if rest.size:
        uu = u[rest]
        vv = v[rest]
        swap = depth[uu] < depth[vv]
        uu2 = np.where(swap, vv, uu)
        vv2 = np.where(swap, uu, vv)
        uu2 = batch_ancestor_at_depth(up, depth, uu2, depth[vv2])
        for k in range(up.shape[0] - 1, -1, -1):
            differ = up[k][uu2] != up[k][vv2]
            if differ.any():
                uu2 = np.where(differ, up[k][uu2], uu2)
                vv2 = np.where(differ, up[k][vv2], vv2)
        res[rest] = parent[uu2]
    return res


def path_chmin(up, depth, n, dec, anc, values, identity):
    """Every tree edge learns the min value among vertical paths covering it.

    The vectorized counterpart of
    :meth:`~repro.trees.pathops.TreePathOps.chmin_over_paths`: path ``i``
    runs from ``dec[i]`` up to (exclusive) ``anc[i]`` and carries
    ``values[i]``; the result ``ans`` (length ``n``, ``identity`` where no
    path covers) satisfies ``ans[t] = min over covering i of values[i]``.
    ``values`` may also be an ``(S, m)`` stack over the same paths, giving
    an ``(S, n)`` result; an entry equal to ``identity`` marks a path the
    row does not contribute, so per-row path selection lives in the value
    matrix.

    Sparse-table scheme on the tree: a path of edge-length ``L`` with
    ``k = floor(log2 L)`` is covered by the two ancestor blocks of length
    ``2^k`` anchored at ``dec`` and at the ancestor of ``dec`` at depth
    ``depth[anc] + 2^k``; blocks are scattered with ``np.minimum.at`` into
    a ``(k, row * n + vertex)`` table and pushed down one level at a time.
    The block decomposition depends on the paths only, so it is computed
    once for all rows.  Integer keys give exact lexicographic minima
    (encode ``(primary, index)`` as ``primary * count + index``); float
    values give the same minimum as the reference segment tree.
    """
    np = _numpy()
    values = np.asarray(values)
    dec = np.asarray(dec, dtype=np.int64)
    anc = np.asarray(anc, dtype=np.int64)
    shape = values.shape[:-1] + (n,)
    flat_vals = values.reshape(-1)
    # Identity entries would scatter as no-ops: drop them up front.
    hit = np.flatnonzero(flat_vals != identity)
    if hit.size == 0:
        return np.full(shape, identity, dtype=values.dtype)
    length = depth[dec] - depth[anc]  # >= 1 for valid vertical paths
    # floor(log2(L)) via frexp: exact for int64 magnitudes below 2^53.
    k = (np.frexp(length.astype(np.float64))[1] - 1).astype(np.int64)
    top = batch_ancestor_at_depth(up, depth, dec, depth[anc] + (1 << k))
    row, path = np.divmod(hit, len(dec))
    vals = flat_vals[hit]
    kp = k[path]
    stride = values.size // len(dec) * n
    kmax = int(kp.max())
    table = np.full((kmax + 1, stride), identity, dtype=values.dtype)
    at = kp * stride + row * n
    np.minimum.at(table.reshape(-1), at + dec[path], vals)
    np.minimum.at(table.reshape(-1), at + top[path], vals)
    for kk in range(kmax, 0, -1):
        level = table[kk]
        live = np.flatnonzero(level != identity)
        if live.size == 0:
            continue
        np.minimum(table[kk - 1], level, out=table[kk - 1])
        v = live % n
        np.minimum.at(table[kk - 1], live - v + up[kk - 1][v], level[live])
    return table[0].reshape(shape)
