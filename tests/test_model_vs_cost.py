"""Cross-validation of fidelity levels: measured (S) vs priced (M) rounds.

The Level-M cost model charges ``D + sqrt(n)`` per tree aggregate; genuinely
simulated aggregates over BFS trees must come in *under* that price (their
height is at most D), and BFS itself under the broadcast+aggregate budget.
This pins the cost model to reality on the primitives we can simulate.
"""

from __future__ import annotations

import networkx as nx
import pytest

from repro.core.rounds import RoundCostModel
from repro.graphs import cycle_with_chords, erdos_renyi_2ec, grid_graph
from repro.sim import BatchedNetwork, BoruvkaMST, DistributedBFS, TreeAggregate


@pytest.mark.parametrize(
    "maker",
    [
        lambda: grid_graph(6, 6, seed=1),
        lambda: erdos_renyi_2ec(60, seed=2),
        lambda: cycle_with_chords(50, 20, seed=3),
    ],
)
def test_simulated_aggregate_within_model_price(maker):
    g = maker()
    n = g.number_of_nodes()
    d = nx.diameter(g)
    model = RoundCostModel(n, d)

    net = BatchedNetwork(g)
    bfs_stats = net.run(DistributedBFS(0))
    _, parent = DistributedBFS.results(net)
    # BFS costs at most ecc(0) + 2 <= D + 2 rounds, well under one aggregate.
    assert bfs_stats.rounds <= d + 2
    assert bfs_stats.rounds <= model.cost_of("aggregate") + 2

    net.reset_state()
    agg = TreeAggregate(parent, 0, [(1.0,)] * n, lambda a, b: (a[0] + b[0],))
    agg_stats = net.run(agg)
    assert TreeAggregate.result(net, 0)[0] == pytest.approx(n)
    # a convergecast over the BFS tree costs height <= D rounds — the
    # Level-M price (D + sqrt n) is a valid upper bound for it
    assert agg_stats.rounds <= model.cost_of("aggregate") + 2


def test_model_price_upper_bounds_boruvka_fragment_work():
    # One Boruvka phase's intra-fragment flood is priced at most like an
    # MST step in the model; the measured full run stays under the
    # Kutten-Peleg-priced MST cost times the phase count.
    g = erdos_renyi_2ec(60, seed=4)
    d = nx.diameter(g)
    model = RoundCostModel(g.number_of_nodes(), d)
    out = BoruvkaMST(BatchedNetwork(g)).run()
    # Boruvka is not Kutten-Peleg; we only require the *shape*: measured
    # rounds within phases * (n-ish flood costs), and phases logarithmic.
    assert out.phases <= 8
    assert out.stats.rounds <= out.phases * (2 * g.number_of_nodes() + 4)
