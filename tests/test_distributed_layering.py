"""The distributed layering program agrees with the centralized layering.

The program is :func:`repro.dist.programs.layer_aggregate`, the one the
pipeline runs: a single Horton–Strahler up sweep computing every layer
number (Claim 4.10) on the CONGEST engine.
"""

from __future__ import annotations

import pytest

from repro.decomp.layering import Layering
from repro.dist.programs import SubtreeAggregate, layer_aggregate
from repro.sim import BatchedNetwork

from conftest import TREE_SHAPES, random_tree, tree_as_networkx


def run_distributed_layering(t):
    """Per-vertex layer (0 at the root), layer count and measured stats."""
    g = tree_as_networkx(t)
    for u, v, d in g.edges(data=True):
        d["weight"] = 1.0
    net = BatchedNetwork(g)
    stats = net.run(layer_aggregate(t.parent, t.root))
    values = SubtreeAggregate.results(net)
    layer = [0] * t.n
    for v in t.tree_edges():
        layer[v] = int(values[v])
    return layer, max(layer, default=0), stats


@pytest.mark.parametrize("shape", TREE_SHAPES)
@pytest.mark.parametrize("seed", [1, 2])
def test_matches_centralized(shape, seed):
    t = random_tree(60, seed=seed, shape=shape)
    layer, num_layers, stats = run_distributed_layering(t)
    ref = Layering(t)
    assert layer == ref.layer
    assert num_layers == ref.num_layers
    assert stats.rounds > 0


def test_rounds_scale_with_layers_times_height():
    t = random_tree(200, seed=3, shape="binary")
    _, num_layers, stats = run_distributed_layering(t)
    # one up sweep computes every layer: at most height + O(1) rounds,
    # well inside one convergecast per layer
    assert stats.rounds <= t.height + 3
    assert stats.rounds <= num_layers * (t.height + 3)


def test_single_path_one_layer():
    t = random_tree(15, shape="path")
    _, num_layers, _ = run_distributed_layering(t)
    assert num_layers == 1
