"""Theorem 1.2 end to end: O(log n)-approx 2-ECSS in shortcut time.

``shortcut_two_ecss`` takes the MST, links, MST weight and diameter from a
:class:`~repro.runtime.plan.SolverPlan`, builds the fragment hierarchy with
a shortcut provider over the *communication graph*, runs the Section 5.1
parallel set cover to augment the MST, and reports both the solution and the
measured shortcut quality (``alpha + beta + gamma`` per level) that prices
the round bound ``O~((SC(G) + D) log^3 n)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from repro.runtime.plan import SolverPlan
from repro.shortcuts.providers import BestOfShortcuts
from repro.shortcuts.setcover import ParallelSetCoverResult, parallel_setcover_tap
from repro.shortcuts.tools import FragmentHierarchy, ShortcutToolkit
from repro.trees.rooted import RootedTree

__all__ = ["shortcut_tap", "shortcut_two_ecss", "ShortcutTecssResult"]


def shortcut_tap(
    tree: RootedTree,
    links: list[tuple[int, int, float]],
    graph: nx.Graph | None = None,
    provider=None,
    eps: float = 0.23,
    seed: int = 0,
    validate: bool = True,
) -> ParallelSetCoverResult:
    """O(log n)-approximate weighted TAP via the shortcut framework."""
    hierarchy = FragmentHierarchy(tree, graph=graph, provider=provider)
    toolkit = ShortcutToolkit(hierarchy)
    return parallel_setcover_tap(
        tree, links, eps=eps, seed=seed, toolkit=toolkit, validate=validate
    )


@dataclass
class ShortcutTecssResult:
    edges: list[tuple]
    weight: float
    mst_weight: float
    aug: ParallelSetCoverResult
    diameter: int
    n: int
    shortcut_quality: float  # measured rounds of one hierarchy pass
    provider: str

    @property
    def modeled_rounds(self) -> float:
        return self.aug.modeled_rounds(self.diameter, self.shortcut_quality)

    def summary(self) -> str:
        return (
            f"shortcut 2-ECSS: n={self.n}, weight={self.weight:.2f}, "
            f"iterations={self.aug.iterations}, SC-pass={self.shortcut_quality:.0f} "
            f"rounds, modeled rounds={self.modeled_rounds:.0f}"
        )


def shortcut_two_ecss(
    graph: nx.Graph,
    provider=None,
    eps: float = 0.23,
    seed: int = 0,
    validate: bool = True,
) -> ShortcutTecssResult:
    """O(log n)-approximate weighted 2-ECSS (Theorem 1.2).

    Input validation, normalization, the MST, the links, the MST weight
    and the result diameter are the session plan's
    (:meth:`SolverPlan.for_graph`), so they match the primal-dual solver's
    exactly.
    """
    plan = SolverPlan.for_graph(graph)
    prov = provider if provider is not None else BestOfShortcuts()
    hierarchy = FragmentHierarchy(plan.tree, graph=plan.g, provider=prov)
    toolkit = ShortcutToolkit(hierarchy)
    aug = parallel_setcover_tap(
        plan.tree, plan.links, eps=eps, seed=seed, toolkit=toolkit,
        validate=validate,
    )
    chosen = sorted(
        set(plan.mst_edges).union(tuple(sorted(l)) for l in aug.links)
    )
    nodes = plan.nodes
    used = hierarchy.levels[0].assignment.provider if hierarchy.levels else "?"
    return ShortcutTecssResult(
        edges=[(nodes[u], nodes[v]) for u, v in chosen],
        weight=plan.mst_weight + aug.weight,
        mst_weight=plan.mst_weight,
        aug=aug,
        diameter=plan.diameter,
        n=plan.handle.n,
        shortcut_quality=hierarchy.rounds_per_op(),
        provider=used,
    )
