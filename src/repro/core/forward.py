"""The primal-dual forward phase (paper Sections 3.4 and 4.4).

Layers are processed in ascending order; epoch ``k`` raises the dual
variables ``y(t)`` of the still-uncovered layer-``k`` tree edges ``R_k``
until every one of them is covered by a tight non-tree edge:

* in the first iteration each ``t in R_k`` starts at
  ``y(t) = min over covering e of (w(e) - s(e)) / |S_e^k|`` where
  ``s(e) = sum of y over S_e`` and ``S_e^k`` are the uncovered layer-``k``
  edges covered by ``e`` — the largest uniform start that keeps every dual
  constraint feasible;
* each later iteration multiplies the ``y`` of still-uncovered edges by
  ``(1 + eps)``;
* an edge whose constraint becomes tight joins the augmentation ``A``.

Lemma 4.12's accounting, which the implementation records and the tests
check: at most ``O(log(n)/eps)`` iterations per epoch, every dual constraint
ends at most ``(1 + eps)``-violated, and every ``e in A`` is tight.

Every iteration of the distributed algorithm costs a constant number of
aggregates plus a broadcast (``O(D + sqrt n)`` rounds); the corresponding
primitives are recorded in the :class:`~repro.core.rounds.PrimitiveLog`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.instance import TAPInstance
from repro.core.rounds import PrimitiveLog
from repro.exceptions import InvariantViolation

__all__ = ["ForwardResult", "forward_phase"]

_REL_TOL = 1e-9


@dataclass
class ForwardResult:
    """Everything the reverse-delete phase and the certificates need."""

    y: list[float]
    added: list[int]  # eids in the order they became tight
    epoch_added: dict[int, int]  # eid -> epoch
    first_cover_epoch: list[int]  # per tree edge; 0 for the root slot
    r_sets: dict[int, list[int]]  # epoch -> R_k
    iterations_per_epoch: dict[int, int] = field(default_factory=dict)
    log: PrimitiveLog = field(default_factory=PrimitiveLog)

    @property
    def max_iterations(self) -> int:
        """Worst per-epoch iteration count (checked against Lemma 4.12)."""
        return max(self.iterations_per_epoch.values(), default=0)


def forward_phase(
    inst: TAPInstance,
    eps: float = 0.25,
    max_iter_slack: int = 8,
    backend: str = "reference",
) -> ForwardResult:
    """Run the forward phase; returns duals, the (over-)cover ``A`` and stats.

    ``max_iter_slack`` pads the proof's per-epoch iteration bound
    ``log_{1+eps}(n) + 2``; exceeding the padded bound raises
    :class:`InvariantViolation` (it would indicate an implementation bug).

    ``backend="fast"`` runs the vectorized forward phase
    (:func:`repro.fast.forward.forward_phase_fast`, requires numpy), whose
    output is bit-identical to this reference loop — the differential
    suite in ``tests/test_backend_differential.py`` holds the two to
    equality.
    """
    from repro.fast import resolve_backend

    if resolve_backend(backend) == "fast":
        from repro.fast.forward import forward_phase_fast

        return forward_phase_fast(
            inst, eps=eps, max_iter_slack=max_iter_slack
        )
    if eps <= 0:
        raise ValueError("eps must be positive")
    inst.check_feasible()

    tree = inst.tree
    ops = inst.ops
    edges = inst.edges
    layering = inst.layering
    n = tree.n

    y = [0.0] * n
    covered = [False] * n
    covered[tree.root] = True
    first_cover_epoch = [0] * n
    added: list[int] = []
    in_a = [False] * len(edges)
    epoch_added: dict[int, int] = {}
    r_sets: dict[int, list[int]] = {}
    iterations_per_epoch: dict[int, int] = {}
    log = PrimitiveLog()
    cover_counter = ops.make_coverage_counter()

    # Zero-weight links can never pay a positive dual; add them up front
    # (they only ever help the solution and cost nothing).
    for e in edges:
        if e.weight <= 0.0:
            in_a[e.eid] = True
            added.append(e.eid)
            epoch_added[e.eid] = 0
            cover_counter.add_path(e.dec, e.anc)
    if added:
        for t in tree.tree_edges():
            if cover_counter.is_covered(t):
                covered[t] = True
                # first_cover_epoch stays 0: covered before epoch 1

    iter_bound = math.ceil(math.log(max(2, n)) / math.log1p(eps)) + max_iter_slack

    def add_tight_edges(epoch: int, cum: list[float]) -> list[int]:
        """Collect edges whose dual constraint is (numerically) tight."""
        new = []
        for e in edges:
            if in_a[e.eid]:
                continue
            s_e = cum[e.dec] - cum[e.anc]
            if s_e >= e.weight * (1.0 - _REL_TOL):
                in_a[e.eid] = True
                epoch_added[e.eid] = epoch
                added.append(e.eid)
                new.append(e.eid)
        return new

    for k in range(1, layering.num_layers + 1):
        r_k = [t for t in layering.edges_in_layer(k) if not covered[t]]
        r_sets[k] = list(r_k)
        if not r_k:
            iterations_per_epoch[k] = 0
            continue

        remaining = set(r_k)
        iteration = 0
        while remaining:
            iteration += 1
            if iteration > iter_bound:
                raise InvariantViolation(
                    f"epoch {k} exceeded the Lemma 4.12 iteration bound "
                    f"({iter_bound}); eps={eps}"
                )
            cum = ops.ancestor_sums(y)
            log.record("aggregate")  # every non-tree edge computes s(e)
            if iteration == 1:
                # |S_e^k|: how many uncovered layer-k edges each link covers.
                z = [0.0] * n
                for t in remaining:  # lint: disable=det-set-iter -- element-wise writes to distinct indices; order-insensitive
                    z[t] = 1.0
                cum_z = ops.ancestor_sums(z)
                log.record("aggregate")
                # Every uncovered t learns min (w(e)-s(e))/|S_e^k| over
                # covering edges e — an aggregate of the covering links.
                updates = []
                for e in edges:
                    if in_a[e.eid]:
                        continue
                    cnt = round(cum_z[e.dec] - cum_z[e.anc])
                    if cnt <= 0:
                        continue
                    s_e = cum[e.dec] - cum[e.anc]
                    updates.append((e.dec, e.anc, ((e.weight - s_e) / cnt, e.eid)))
                start_vals = ops.chmin_over_paths(updates)
                log.record("aggregate")
                for t in remaining:  # lint: disable=det-set-iter -- per-index reads/writes, no cross-index dependence
                    val = start_vals.get(t)
                    if val == start_vals.identity:  # pragma: no cover
                        raise InvariantViolation(
                            f"uncovered edge {t} has no non-tight covering link"
                        )
                    y[t] = max(val[0], 0.0)
                cum = ops.ancestor_sums(y)
                log.record("aggregate")
            else:
                for t in remaining:  # lint: disable=det-set-iter -- independent scalar updates per index; order-insensitive
                    y[t] *= 1.0 + eps
                cum = ops.ancestor_sums(y)
                log.record("aggregate")

            new_edges = add_tight_edges(k, cum)
            for eid in new_edges:
                e = edges[eid]
                cover_counter.add_path(e.dec, e.anc)
            if new_edges:
                log.record("aggregate")  # tree edges learn whether A covers them
                for t in tree.tree_edges():
                    if not covered[t] and cover_counter.is_covered(t):
                        covered[t] = True
                        first_cover_epoch[t] = k
                        remaining.discard(t)
            log.record("broadcast")  # "is layer k fully covered?" over BFS tree

        iterations_per_epoch[k] = iteration

    return ForwardResult(
        y=y,
        added=added,
        epoch_added=epoch_added,
        first_cover_epoch=first_cover_epoch,
        r_sets=r_sets,
        iterations_per_epoch=iterations_per_epoch,
        log=log,
    )
