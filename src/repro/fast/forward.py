"""Vectorized primal-dual forward phase (paper Sections 3.4 and 4.4).

Same algorithm, same epoch/iteration structure, same
:class:`~repro.core.rounds.PrimitiveLog` entries, and bit-identical output
as :func:`repro.core.forward.forward_phase` — but every per-edge and
per-tree-edge loop becomes an array kernel, and the loop runs for a whole
stack of weight scenarios over one tree at once.
:func:`forward_phase_fast_batch` is the only fast forward phase: a single
solve is the one-row case (``forward_phase(backend="fast")`` passes
``[inst]``), a scenario group of the batch path
(:mod:`repro.runtime.batch`) is the many-row case.  The kernels:

* dual prefix sums ``s(e) = cum[dec] - cum[anc]`` via the level-synchronous
  :func:`~repro.fast.kernels.ancestor_sums_levels` (same floating-point
  operation tree as the reference recurrence);
* the first-iteration uniform start ``min over covering e of
  (w(e) - s(e)) / |S_e^k|`` via the jump-table
  :func:`~repro.fast.kernels.path_chmin` (minimum of doubles is
  association-free, so it matches the reference segment tree exactly);
* tightness detection and the ``(1 + eps)`` dual raise as masked array
  expressions (one IEEE-754 multiply per element, as in the loop);
* the coverage counter as int64 Euler-tour subtree counts
  (:func:`~repro.fast.kernels.subtree_counts`) — exact integers.

See ``tests/test_backend_differential.py`` for the suite asserting
equality of every :class:`~repro.core.forward.ForwardResult` field against
the reference on seeded graph-family instances.
"""

from __future__ import annotations

import math

from repro.core.forward import _REL_TOL, ForwardResult
from repro.core.rounds import PrimitiveLog
from repro.exceptions import InvariantViolation, NotTwoEdgeConnectedError
from repro.fast import require_numpy

__all__ = ["forward_phase_fast_batch"]


def forward_phase_fast_batch(
    instances, eps: float = 0.25, max_iter_slack: int = 8
) -> "list[ForwardResult]":
    """The forward phase for TAP instances sharing one structure.

    ``instances`` are TAP instances sharing one tree and one virtual-edge
    structure and differing only in their weight columns (the
    :meth:`repro.fast.treearrays.InstanceArrays.reweighted` contract,
    checked here object for object); their weight columns stack into one
    ``(scenarios, m)`` matrix, a single instance being the one-row case.
    All scenarios run the epoch/iteration loop in lockstep: per lockstep
    iteration the prefix sums, the first-iteration chmin, the tightness
    test, and the coverage counts execute once as ``(scenarios, ·)``
    kernels instead of once per scenario.  Per-scenario control flow is
    carried by masks and live-row compaction — a scenario whose epoch
    finished drops out of every update and every log record — so element
    ``s`` of the result is bit-identical (duals, added order, epochs,
    r-sets, iteration counts, primitive logs) to
    :func:`repro.core.forward.forward_phase` on ``instances[s]`` with the
    reference backend.  Requires numpy.
    """
    np = require_numpy()
    if eps <= 0:
        raise ValueError("eps must be positive")

    arrays = [inst.arrays for inst in instances]
    base = arrays[0]
    ta, dec, anc = base.ta, base.dec, base.anc
    if any(
        a.ta is not ta or a.dec is not dec or a.anc is not anc
        for a in arrays[1:]
    ):
        raise ValueError(
            "forward_phase_fast_batch needs instances sharing one "
            "virtual-edge structure (build them via "
            "InstanceArrays.reweighted)"
        )
    w2 = np.stack([a.weight for a in arrays]).astype(np.float64, copy=False)
    scenarios, m = w2.shape
    tree = instances[0].tree
    n = tree.n

    # Feasibility (2-edge-connectivity) is a pure function of the shared
    # structure: check it once for every scenario.
    cov0 = ta.path_cover_counts(dec, anc)
    uncovered = np.flatnonzero((cov0 == 0) & ta.nonroot)
    if uncovered.size:
        t = int(uncovered[0])
        raise NotTwoEdgeConnectedError(
            f"tree edge ({t}, {tree.parent[t]}) is covered by no "
            "link; the underlying graph has a bridge"
        )

    y2 = np.zeros((scenarios, n), dtype=np.float64)
    covered2 = np.zeros((scenarios, n), dtype=bool)
    covered2[:, tree.root] = True
    first2 = np.zeros((scenarios, n), dtype=np.int64)
    in_a2 = np.zeros((scenarios, m), dtype=bool)
    added: list[list[int]] = [[] for _ in range(scenarios)]
    epoch_added: list[dict[int, int]] = [{} for _ in range(scenarios)]
    r_sets: list[dict[int, list[int]]] = [{} for _ in range(scenarios)]
    iters: list[dict[int, int]] = [{} for _ in range(scenarios)]
    logs = [PrimitiveLog() for _ in range(scenarios)]
    # Coverage of A as a scatter domain: +1 at dec, -1 at anc per chosen
    # edge (flat ``row * n + vertex`` targets); subtree sums give the
    # counts — the kernel counterpart of the reference CoverageCounter.
    cover_delta2 = np.zeros((scenarios, n), dtype=np.int64)
    cover_flat = cover_delta2.reshape(-1)

    # Zero-weight links can never pay a positive dual; add them up front
    # (they only ever help the solution and cost nothing).  Row-major
    # nonzero order is the reference's edge order within each scenario.
    zero_s, zero_e = np.nonzero(w2 <= 0.0)
    if zero_s.size:
        in_a2[zero_s, zero_e] = True
        for s, eid in zip(zero_s.tolist(), zero_e.tolist()):
            added[s].append(eid)
            epoch_added[s][eid] = 0
        np.add.at(cover_flat, zero_s * n + dec[zero_e], 1)
        np.add.at(cover_flat, zero_s * n + anc[zero_e], -1)
        rows = np.unique(zero_s)
        covered2[rows] |= ta.subtree_counts(cover_delta2[rows]) > 0
        covered2[:, tree.root] = True
        # first_cover_epoch stays 0: covered before epoch 1

    iter_bound = math.ceil(math.log(max(2, n)) / math.log1p(eps)) + max_iter_slack
    layer = base.layer
    w2_tol = w2 * (1.0 - _REL_TOL)
    # Scratch buffers reused by every lockstep iteration.  A fresh
    # ``(scenarios, m)`` float64 array is tens of MB at production batch
    # sizes; allocating them anew each iteration made the allocator hand
    # back freshly zeroed pages every time, which dominated large
    # batches.  Slices ``[:r]`` of these serve the live-row subsets.
    fbuf_a = np.empty((scenarios, m), dtype=np.float64)
    fbuf_b = np.empty((scenarios, m), dtype=np.float64)
    bbuf = np.empty((scenarios, m), dtype=bool)

    def edge_sums(cum, r):
        """``cum[:, dec] - cum[:, anc]`` for ``r`` rows, in ``fbuf_a``."""
        out = np.take(cum, dec, axis=1, out=fbuf_a[:r])
        return np.subtract(
            out, np.take(cum, anc, axis=1, out=fbuf_b[:r]), out=out
        )

    for k in range(1, instances[0].layering.num_layers + 1):
        remaining2 = (layer == k)[None, :] & ~covered2
        for s in range(scenarios):
            r_sets[s][k] = np.flatnonzero(remaining2[s]).tolist()
            if not r_sets[s][k]:
                iters[s][k] = 0
        live = remaining2.any(axis=1)

        iteration = 0
        while live.any():
            iteration += 1
            if iteration > iter_bound:
                raise InvariantViolation(
                    f"epoch {k} exceeded the Lemma 4.12 iteration bound "
                    f"({iter_bound}); eps={eps}"
                )
            # Live-row compaction: every ``(·, m)`` temporary below is
            # sliced to the scenarios still iterating this epoch.  Late
            # iterations typically keep a handful of stragglers, and
            # paying ``(scenarios, m)`` memory traffic for rows whose
            # mask is all-False is what made large batches superlinear.
            # Each row's arithmetic is unchanged, so results stay
            # bit-identical.
            rows = np.flatnonzero(live)
            r = rows.size
            full = r == scenarios
            remr = remaining2 if full else remaining2[rows]
            in_ar = in_a2 if full else in_a2[rows]
            y2r = y2 if full else y2[rows]
            if iteration == 1:
                # |S_e^k|: how many uncovered layer-k edges each link
                # covers.  ``cnt`` stays float64 — np.rint makes the
                # counts exact integers (they are < 2^53) and the divide
                # below converts an int64 divisor to the very same
                # doubles, so skipping the astype changes no bit.
                cnt = edge_sums(ta.ancestor_sums(remr.astype(np.float64)), r)
                np.rint(cnt, out=cnt)
                # Every uncovered t learns min (w(e)-s(e))/|S_e^k| over
                # covering edges e not in A.  Only links some row selects
                # enter the chmin; a row's unselected entries carry the
                # chmin identity.
                selr = np.greater(cnt, 0.0, out=bbuf[:r])
                selr &= ~in_ar
                cols = np.flatnonzero(selr.any(axis=0))
                dc, ac = dec[cols], anc[cols]
                cum = ta.ancestor_sums(y2r)
                s_sel = np.take(cum, dc, axis=1)
                s_sel -= np.take(cum, ac, axis=1)
                num = np.take(w2 if full else w2[rows], cols, axis=1)
                num -= s_sel
                valsr = np.full(num.shape, np.inf)
                np.divide(
                    num, np.take(cnt, cols, axis=1), out=valsr,
                    where=np.take(selr, cols, axis=1),
                )
                startr = ta.path_chmin(dc, ac, valsr, np.inf)
                bad_r, bad_t = np.nonzero(remr & np.isinf(startr))
                if bad_r.size:  # pragma: no cover
                    raise InvariantViolation(
                        f"uncovered edge {int(bad_t[0])} has no "
                        "non-tight covering link"
                    )
                y2r[remr] = np.maximum(startr[remr], 0.0)
                aggregates = 4
            else:
                y2r[remr] *= 1.0 + eps
                aggregates = 2
            if not full:
                y2[rows] = y2r
            cum = ta.ancestor_sums(y2r)

            # Collect edges whose dual constraint is (numerically) tight.
            tightr = np.greater_equal(
                edge_sums(cum, r), w2_tol if full else w2_tol[rows],
                out=bbuf[:r],
            )
            tightr &= ~in_ar
            new_r, new_e = np.nonzero(tightr)
            # Aggregates per iteration: every non-tree edge computes s(e);
            # the first iteration adds |S_e^k|, the start-value chmin and
            # s(e) under the start duals, later ones s(e) after the raise.
            for s in rows.tolist():
                logs[s].record("aggregate", aggregates)
            if new_r.size:
                new_s = rows[new_r]
                in_a2[new_s, new_e] = True
                for s, eid in zip(new_s.tolist(), new_e.tolist()):
                    epoch_added[s][eid] = k
                    added[s].append(eid)
                np.add.at(cover_flat, new_s * n + dec[new_e], 1)
                np.add.at(cover_flat, new_s * n + anc[new_e], -1)
                upd = np.unique(new_s)
                for s in upd.tolist():
                    logs[s].record("aggregate")  # tree edges learn coverage
                counts = ta.subtree_counts(cover_delta2[upd])
                newly = ~covered2[upd] & (counts > 0)
                newly[:, tree.root] = False
                covered2[upd] |= newly
                firsts = first2[upd]
                firsts[newly] = k
                first2[upd] = firsts
                remaining2[upd] &= ~newly
            for s in rows.tolist():
                logs[s].record("broadcast")  # "is layer k fully covered?"
            still = remaining2.any(axis=1)
            for s in np.flatnonzero(live & ~still).tolist():
                iters[s][k] = iteration
            live = still

    y_lists = y2.tolist()
    first_lists = first2.tolist()
    return [
        ForwardResult(
            y=y_lists[s],
            added=added[s],
            epoch_added=epoch_added[s],
            first_cover_epoch=first_lists[s],
            r_sets=r_sets[s],
            iterations_per_epoch=iters[s],
            log=logs[s],
        )
        for s in range(scenarios)
    ]
