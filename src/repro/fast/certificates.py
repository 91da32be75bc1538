"""Vectorized a-posteriori certificates (Lemma 3.1) for the fast backend.

Same checks, same pass/fail decisions, and same return values as
:mod:`repro.core.certificates`: the dual prefix sums come from the
bit-identical level-synchronous kernel, coverage counts are exact int64,
and the maxima are selections (not re-associations), so every returned
ratio/count equals the reference implementation's.  Violation messages
name the first offending edge in the same ascending scan order.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.certificates import _TOL
from repro.exceptions import InvariantViolation
from repro.fast import require_numpy

__all__ = [
    "validate_dual_feasibility",
    "validate_tightness",
    "validate_cover",
    "validate_coverage_bound",
    "uncovered_tree_edge",
]


def _slack_ratios(inst, y):
    """``s(e) / w(e)`` per edge (inf where the weight is non-positive)."""
    np = require_numpy()
    arrays = inst.arrays
    cum = arrays.ta.ancestor_sums(np.asarray(y, dtype=np.float64))
    s = cum[arrays.dec] - cum[arrays.anc]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(arrays.weight > 0, s / arrays.weight, np.inf), s


def validate_dual_feasibility(inst, y: Sequence[float], eps: float) -> float:
    """Vectorized :func:`repro.core.certificates.validate_dual_feasibility`."""
    np = require_numpy()
    ratios, _ = _slack_ratios(inst, y)
    positive = inst.arrays.weight > 0
    bad = np.flatnonzero(positive & (ratios > (1.0 + eps) * (1.0 + _TOL)))
    if bad.size:
        eid = int(bad[0])
        raise InvariantViolation(
            f"dual constraint of link {eid} violated: s(e)/w(e) = "
            f"{float(ratios[eid]):.6f} > 1 + eps = {1 + eps}"
        )
    if not positive.any():
        return 0.0
    return max(0.0, float(ratios[positive].max()))


def validate_tightness(inst, y: Sequence[float], chosen: Iterable[int]) -> None:
    """Vectorized :func:`repro.core.certificates.validate_tightness`."""
    np = require_numpy()
    eids = np.asarray(sorted(chosen), dtype=np.int64)
    if eids.size == 0:
        return
    arrays = inst.arrays
    cum = arrays.ta.ancestor_sums(np.asarray(y, dtype=np.float64))
    s = cum[arrays.dec[eids]] - cum[arrays.anc[eids]]
    w = arrays.weight[eids]
    bad = np.flatnonzero((w > 0) & (s < w * (1.0 - _TOL)))
    if bad.size:
        i = int(bad[0])
        raise InvariantViolation(
            f"chosen link {int(eids[i])} is not tight: s(e) = {float(s[i]):.6f} < "
            f"w(e) = {float(w[i]):.6f}"
        )


def validate_cover(inst, chosen: Iterable[int]) -> None:
    """Vectorized :func:`repro.core.certificates.validate_cover`."""
    np = require_numpy()
    arrays = inst.arrays
    eids = np.asarray(sorted(chosen), dtype=np.int64)
    counts = arrays.ta.path_cover_counts(arrays.dec[eids], arrays.anc[eids])
    uncovered = np.flatnonzero((counts <= 0) & arrays.ta.nonroot)
    if uncovered.size:
        t = int(uncovered[0])
        raise InvariantViolation(
            f"tree edge ({t}, {inst.tree.parent[t]}) is not covered by "
            "the returned augmentation"
        )


def validate_coverage_bound(
    inst, y: Sequence[float], chosen: Iterable[int], c: int
) -> int:
    """Vectorized :func:`repro.core.certificates.validate_coverage_bound`."""
    np = require_numpy()
    arrays = inst.arrays
    eids = np.asarray(sorted(chosen), dtype=np.int64)
    counts = arrays.ta.path_cover_counts(arrays.dec[eids], arrays.anc[eids])
    dual = (np.asarray(y, dtype=np.float64) > 0) & arrays.ta.nonroot
    over = np.flatnonzero(dual & (counts > c))
    if over.size:
        t = int(over[0])
        raise InvariantViolation(
            f"edge {t} with y > 0 covered {int(counts[t])} > {c} times"
        )
    if not dual.any():
        return 0
    return int(counts[dual].max())


def uncovered_tree_edge(ta, links: Sequence[tuple[int, int]]):
    """Vectorized :func:`repro.core.certificates.uncovered_tree_edge`.

    ``ta`` is the :class:`~repro.fast.treearrays.TreeArrays` of the tree;
    a link's tree path is the two vertical paths from its endpoints up to
    their batch-kernel LCA, counted by the exact int64 cover kernel.
    """
    np = require_numpy()
    pairs = np.asarray(links, dtype=np.int64).reshape(-1, 2)
    u, v = pairs[:, 0], pairs[:, 1]
    lca = ta.batch_lca(u, v)
    counts = ta.path_cover_counts(
        np.concatenate((u, v)), np.concatenate((lca, lca))
    )
    bad = np.flatnonzero((counts == 0) & ta.nonroot)
    if not bad.size:
        return None
    lo = np.minimum(bad, ta.parent[bad])
    hi = np.maximum(bad, ta.parent[bad])
    first = int(np.argmin(lo * ta.n + hi))
    return int(lo[first]), int(hi[first])
