"""Shared test helpers: random trees, random vertical-edge instances."""

from __future__ import annotations

import random

import networkx as nx
import pytest

from repro.trees.rooted import RootedTree

try:  # the MILP baselines need numpy and scipy, both optional
    import scipy.optimize  # noqa: F401
except ImportError:
    HAVE_MILP = False
else:
    HAVE_MILP = True

#: Marks a test that solves a MILP baseline: skipped on an install
#: without numpy or scipy (CI's numpy-free job).
needs_milp = pytest.mark.skipif(
    not HAVE_MILP, reason="the MILP baselines need numpy and scipy"
)


def random_tree(n: int, seed: int = 0, shape: str = "uniform") -> RootedTree:
    """A random rooted tree on ``n`` vertices.

    Shapes: ``uniform`` (random attachment), ``path``, ``star``,
    ``caterpillar`` (path with pendant leaves), ``binary`` (random binary),
    ``broom`` (path ending in a star).
    """
    rng = random.Random(seed)
    parent = [-1] * n
    if shape == "uniform":
        for v in range(1, n):
            parent[v] = rng.randrange(v)
    elif shape == "path":
        for v in range(1, n):
            parent[v] = v - 1
    elif shape == "star":
        for v in range(1, n):
            parent[v] = 0
    elif shape == "caterpillar":
        spine = max(1, n // 2)
        for v in range(1, spine):
            parent[v] = v - 1
        for v in range(spine, n):
            parent[v] = rng.randrange(spine)
    elif shape == "binary":
        slots = [0, 0]
        for v in range(1, n):
            i = rng.randrange(len(slots))
            parent[v] = slots[i]
            slots[i] = v  # replace one slot; keeps branching factor <= 2-ish
            slots.append(v)
            if len(slots) > 64:
                slots.pop(rng.randrange(len(slots)))
    elif shape == "broom":
        spine = max(1, (2 * n) // 3)
        for v in range(1, spine):
            parent[v] = v - 1
        for v in range(spine, n):
            parent[v] = spine - 1
    else:
        raise ValueError(f"unknown shape {shape!r}")
    return RootedTree(parent, 0)


TREE_SHAPES = ["uniform", "path", "star", "caterpillar", "binary", "broom"]


def random_vertical_edges(
    tree: RootedTree, m: int, seed: int = 0
) -> list[tuple[int, int]]:
    """Random ``(dec, anc)`` vertical non-tree edges (anc strict ancestor)."""
    rng = random.Random(seed)
    out = []
    candidates = [v for v in range(tree.n) if tree.depth[v] >= 1]
    for _ in range(m):
        dec = rng.choice(candidates)
        d = rng.randrange(tree.depth[dec])
        anc = tree.ancestor_at_depth(dec, d)
        out.append((dec, anc))
    return out


def random_tap_links(
    tree: RootedTree, m: int, seed: int = 0, unweighted: bool = False
) -> list[tuple[int, int, float]]:
    """Random links making a feasible weighted TAP instance.

    A mix of vertical and arbitrary links plus a leaf-to-root link per leaf
    (so every tree edge is coverable).
    """
    rng = random.Random(seed)

    def w() -> float:
        return 1.0 if unweighted else rng.uniform(1.0, 100.0)

    links: list[tuple[int, int, float]] = []
    for dec, anc in random_vertical_edges(tree, m // 2, seed=seed + 1):
        links.append((dec, anc, w()))
    for _ in range(m - m // 2):
        u, v = rng.randrange(tree.n), rng.randrange(tree.n)
        if u != v:
            links.append((u, v, w()))
    for leaf in tree.leaves():
        links.append((leaf, tree.root, 2.0 if unweighted else rng.uniform(50, 200)))
    return links


def random_tap_instance(
    n: int,
    m: int,
    seed: int = 0,
    shape: str = "uniform",
    segment_size: int | None = None,
):
    """A feasible TAPInstance on a random tree (import-light helper)."""
    from repro.core.instance import TAPInstance

    tree = random_tree(n, seed=seed, shape=shape)
    links = random_tap_links(tree, m, seed=seed + 17)
    return TAPInstance.from_links(tree, links, segment_size=segment_size)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(12345)


def brute_force_lca(tree: RootedTree, u: int, v: int) -> int:
    """Reference LCA by walking parents."""
    anc_u = set()
    x = u
    while x != -1:
        anc_u.add(x)
        x = tree.parent[x]
    x = v
    while x not in anc_u:
        x = tree.parent[x]
    return x


def tree_as_networkx(tree: RootedTree) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(tree.n))
    for v in tree.tree_edges():
        g.add_edge(v, tree.parent[v])
    return g
