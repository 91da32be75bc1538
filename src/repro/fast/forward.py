"""Vectorized primal-dual forward phase (paper Sections 3.4 and 4.4).

Same algorithm, same epoch/iteration structure, same
:class:`~repro.core.rounds.PrimitiveLog` entries, and bit-identical output
as :func:`repro.core.forward.forward_phase` — but every per-edge and
per-tree-edge loop becomes an array kernel over one weight column.
:func:`forward_phase_fast` is the only fast forward phase
(``forward_phase(backend="fast")`` calls it).  The kernels:

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
from typing import TYPE_CHECKING

from repro.core.forward import _REL_TOL, ForwardResult
from repro.core.rounds import PrimitiveLog
from repro.exceptions import InvariantViolation, NotTwoEdgeConnectedError
from repro.fast import require_numpy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.instance import TAPInstance

__all__ = ["forward_phase_fast"]


def forward_phase_fast(
    inst: "TAPInstance", eps: float = 0.25, max_iter_slack: int = 8
) -> ForwardResult:
    """The forward phase on ``inst``'s kernel arrays; requires numpy.

    Bit-identical (duals, added order, epochs, r-sets, iteration counts,
    primitive logs) to :func:`repro.core.forward.forward_phase` with the
    reference backend, and it raises the same errors: ``ValueError`` for
    ``eps <= 0``, :class:`~repro.exceptions.NotTwoEdgeConnectedError` for
    a tree edge no link covers, and
    :class:`~repro.exceptions.InvariantViolation` past the Lemma 4.12
    iteration bound.
    """
    np = require_numpy()
    if eps <= 0:
        raise ValueError("eps must be positive")
    arrays = inst.arrays
    ta, dec, anc = arrays.ta, arrays.dec, arrays.anc
    w = arrays.weight.astype(np.float64, copy=False)
    tree = inst.tree
    n, root = tree.n, tree.root

    cover = ta.path_cover_counts(dec, anc)
    uncovered = np.flatnonzero((cover == 0) & ta.nonroot)
    if uncovered.size:
        t = int(uncovered[0])
        raise NotTwoEdgeConnectedError(
            f"tree edge ({t}, {tree.parent[t]}) is covered by no "
            "link; the underlying graph has a bridge"
        )

    y = np.zeros(n, dtype=np.float64)
    covered = np.zeros(n, dtype=bool)
    covered[root] = True
    first = np.zeros(n, dtype=np.int64)
    in_a = np.zeros(len(w), dtype=bool)
    epoch_added: dict[int, int] = {}
    r_sets: dict[int, list[int]] = {}
    iters: dict[int, int] = {}
    log = PrimitiveLog()
    # Coverage of A as +1 at dec, -1 at anc per chosen edge; subtree sums
    # give the counts — the kernel counterpart of CoverageCounter.
    cover_delta = np.zeros(n, dtype=np.int64)

    # Zero-weight links can never pay a positive dual; add them up front
    # (they only ever help the solution and cost nothing).
    zero = np.flatnonzero(w <= 0.0)
    added = zero.tolist()
    if added:
        in_a[zero] = True
        epoch_added.update(dict.fromkeys(added, 0))
        np.add.at(cover_delta, dec[zero], 1)
        np.add.at(cover_delta, anc[zero], -1)
        covered |= ta.subtree_counts(cover_delta) > 0
        # first_cover_epoch stays 0: covered before epoch 1

    iter_bound = math.ceil(math.log(max(2, n)) / math.log1p(eps)) + max_iter_slack
    w_tol = w * (1.0 - _REL_TOL)

    for k in range(1, inst.layering.num_layers + 1):
        remaining = (arrays.layer == k) & ~covered
        r_sets[k] = np.flatnonzero(remaining).tolist()
        iteration = 0
        while remaining.any():
            iteration += 1
            if iteration > iter_bound:
                raise InvariantViolation(
                    f"epoch {k} exceeded the Lemma 4.12 iteration bound "
                    f"({iter_bound}); eps={eps}"
                )
            if iteration == 1:
                # |S_e^k|: how many uncovered layer-k edges each link
                # covers (np.rint makes the counts exact integers).
                cum_z = ta.ancestor_sums(remaining.astype(np.float64))
                cnt = np.rint(cum_z[dec] - cum_z[anc])
                # Every uncovered t learns min (w(e)-s(e))/|S_e^k| over
                # the covering links not in A.
                sel = np.flatnonzero((cnt > 0.0) & ~in_a)
                dc, ac = dec[sel], anc[sel]
                cum = ta.ancestor_sums(y)
                vals = (w[sel] - (cum[dc] - cum[ac])) / cnt[sel]
                start = ta.path_chmin(dc, ac, vals, np.inf)
                bad = np.flatnonzero(remaining & np.isinf(start))
                if bad.size:  # pragma: no cover
                    raise InvariantViolation(
                        f"uncovered edge {int(bad[0])} has no "
                        "non-tight covering link"
                    )
                y[remaining] = np.maximum(start[remaining], 0.0)
                aggregates = 4
            else:
                y[remaining] *= 1.0 + eps
                aggregates = 2
            cum = ta.ancestor_sums(y)

            # Collect edges whose dual constraint is (numerically) tight.
            # Aggregates per iteration: every non-tree edge computes s(e);
            # the first iteration adds |S_e^k|, the start-value chmin and
            # s(e) under the start duals, later ones s(e) after the raise.
            new = np.flatnonzero((cum[dec] - cum[anc] >= w_tol) & ~in_a)
            log.record("aggregate", aggregates)
            if new.size:
                in_a[new] = True
                new_list = new.tolist()
                added.extend(new_list)
                epoch_added.update(dict.fromkeys(new_list, k))
                np.add.at(cover_delta, dec[new], 1)
                np.add.at(cover_delta, anc[new], -1)
                log.record("aggregate")  # tree edges learn coverage
                newly = ~covered & (ta.subtree_counts(cover_delta) > 0)
                covered |= newly
                first[newly] = k
                remaining &= ~newly
            log.record("broadcast")  # "is layer k fully covered?"
        iters[k] = iteration

    return ForwardResult(
        y=y.tolist(),
        added=added,
        epoch_added=epoch_added,
        first_cover_epoch=first.tolist(),
        r_sets=r_sets,
        iterations_per_epoch=iters,
        log=log,
    )
