"""The array-native topology checks: input check, exact diameter and
result certificate.

* :func:`repro.graphs.validation.first_bridge` — the low-link input
  check behind :meth:`GraphHandle.from_edges` — must agree with
  ``nx.is_connected`` + ``nx.bridges`` on the verdict, and name the
  bridge earliest in edge order.
* :func:`repro.graphs.validation.exact_diameter` — the bit-parallel
  all-sources BFS (numpy) and its ``nx.diameter`` fallback — must equal
  ``nx.diameter`` on every graph, and raise on disconnected ones.
* The Claim 2.1 tree-cover certificate that ``assemble_two_ecss`` runs
  under ``validate=True`` must agree with the ``nx.bridges`` oracle on the
  verdict and on the bridge it names, in both backends.
"""

from __future__ import annotations

import dataclasses
import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

import repro.fast
from repro.core.certificates import uncovered_tree_edge
from repro.core.tecss import approximate_two_ecss, assemble_two_ecss
from repro.exceptions import (
    InvariantViolation,
    NotConnectedError,
    NotTwoEdgeConnectedError,
)
from repro.fast import HAVE_NUMPY
from repro.graphs.families import FAMILIES, make_family_instance
from repro.graphs.validation import exact_diameter, first_bridge
from repro.runtime.handle import GraphHandle
from repro.runtime.plan import SolverPlan

@pytest.fixture(params=["numpy", "networkx"])
def diameter_branch(request, monkeypatch):
    """Run a test on each branch of :func:`exact_diameter`.

    The ``networkx`` branch is the numpy-free install's path, forced
    in-process by hiding numpy from :mod:`repro.fast`.
    """
    if request.param == "numpy":
        if not HAVE_NUMPY:
            pytest.skip("needs numpy")
    else:
        monkeypatch.setattr(repro.fast, "HAVE_NUMPY", False)
    return request.param


# ---------------------------------------------------------------------------
# the input check (low-link)
# ---------------------------------------------------------------------------


@st.composite
def bridge_cases(draw):
    """Edge lists across the verdicts, in drawn order and orientation.

    ``blocks`` 2-edge-connected cycles with chords, strung together by
    single edges: one block is 2-edge-connected, more have a bridge per
    joint.  ``isolated`` adds a vertex no edge reaches, ``split`` drops
    the joints (disconnected, unless one block), and ``pair`` is a
    single edge or none on two vertices.
    """
    rng = random.Random(draw(st.integers(0, 1 << 30)))
    shape = draw(st.sampled_from(["joined", "isolated", "split", "pair"]))
    if shape == "pair":
        return 2, ([(0, 1)] if rng.random() < 0.5 else [])
    edges, n = [], 0
    for _ in range(draw(st.integers(1, 4))):
        size = rng.randint(3, 9)
        cycle = list(range(n, n + size))
        edges += zip(cycle, cycle[1:] + cycle[:1])
        for _ in range(rng.randint(0, size)):
            u, v = rng.sample(cycle, 2)
            if (u, v) not in edges and (v, u) not in edges:
                edges.append((u, v))
        if n and shape != "split":
            edges.append((rng.randrange(n), rng.choice(cycle)))
        n += size
    if shape == "isolated":
        n += 1
    rng.shuffle(edges)
    return n, [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]


@settings(max_examples=150, deadline=None)
@given(case=bridge_cases())
def test_low_link_agrees_with_networkx(case):
    n, edges = case
    g = nx.Graph(edges)
    g.add_nodes_from(range(n))
    labels = [f"v{i}" for i in range(n)]
    triples = [(labels[u], labels[v], 1.0) for u, v in edges]
    if not nx.is_connected(g):
        with pytest.raises(NotConnectedError):
            first_bridge(n, edges)
        with pytest.raises(NotConnectedError):
            GraphHandle.from_edges(labels, triples)
        return
    bridges = {frozenset(b) for b in nx.bridges(g)}
    pos = first_bridge(n, edges)
    if not bridges:
        assert pos is None
        assert GraphHandle.from_edges(labels, triples).m == len(edges)
        return
    assert pos == min(
        i for i, e in enumerate(edges) if frozenset(e) in bridges
    )
    u, v = edges[pos]
    with pytest.raises(NotTwoEdgeConnectedError) as excinfo:
        GraphHandle.from_edges(labels, triples)
    assert repr((labels[u], labels[v])) in str(excinfo.value)


def test_low_link_steps_over_the_arrival_edge_not_the_parent():
    """A doubled edge is no bridge; the single joint between is one."""
    doubled = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 2), (3, 4), (4, 5),
               (5, 3)]
    assert first_bridge(6, doubled) is None
    assert first_bridge(6, [e for i, e in enumerate(doubled) if i != 4]) == 3


# ---------------------------------------------------------------------------
# exact diameter
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [30, 500, 1000])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_handle_diameter_equals_networkx_on_every_family(family, n):
    graph = make_family_instance(family, n, seed=1)
    assert GraphHandle.from_graph(graph).diameter == nx.diameter(graph)


@st.composite
def connected_graphs(draw, sizes=st.integers(2, 63)):
    """A random spanning tree on ``0..n-1`` plus random extra edges."""
    n = draw(sizes)
    rng = random.Random(draw(st.integers(0, 1 << 30)))
    order = list(range(n))
    rng.shuffle(order)
    edges = {
        tuple(sorted((order[i], order[rng.randrange(i)])))
        for i in range(1, n)
    }
    for _ in range(draw(st.integers(0, 2 * n))):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return n, sorted(edges)


@settings(max_examples=60, deadline=None)
@given(case=st.one_of(
    connected_graphs(),
    connected_graphs(sizes=st.just(64)),
    connected_graphs(sizes=st.just(65)),
    connected_graphs(sizes=st.integers(120, 140)),
))
def test_exact_diameter_equals_networkx_on_drawn_graphs(case):
    n, edges = case
    g = nx.Graph(edges)
    g.add_nodes_from(range(n))
    assert exact_diameter(n, edges) == nx.diameter(g)


@pytest.mark.parametrize("n", [2, 3, 63, 64, 65, 129])
def test_exact_diameter_of_paths(n, diameter_branch):
    edges = [(i, i + 1) for i in range(n - 1)]
    assert exact_diameter(n, edges) == n - 1


@pytest.mark.parametrize("n, edges", [
    (4, [(0, 1), (2, 3)]),  # two components
    (3, [(0, 2)]),  # an isolated vertex inside the id range
    (3, [(0, 1)]),  # an isolated last vertex (the last CSR row is empty)
    (70, [(i, i + 1) for i in range(68)]),  # the second word's last source
])
def test_exact_diameter_raises_on_disconnected_graphs(n, edges, diameter_branch):
    with pytest.raises(NotConnectedError):
        exact_diameter(n, edges)


def test_exact_diameter_reads_an_edge_view(diameter_branch):
    graph = make_family_instance("grid", 36, seed=2)
    assert exact_diameter(36, graph.edges()) == nx.diameter(graph)


# ---------------------------------------------------------------------------
# the result certificate (Claim 2.1)
# ---------------------------------------------------------------------------


def _oracle_bridge(n, tree_edges, links):
    """``nx.bridges``' verdict on tree ∪ links, as the smallest sorted pair.

    Every link closes a cycle with its tree path, so the bridges of
    tree ∪ links are exactly its uncovered tree edges.
    """
    h = nx.Graph(tree_edges)
    h.add_nodes_from(range(n))
    h.add_edges_from(links)
    return min((tuple(sorted(b)) for b in nx.bridges(h)), default=None)


def _certificates(plan, links):
    """The bridge named by each available flavor of the certificate."""
    named = {"reference": uncovered_tree_edge(plan.tree, links)}
    if HAVE_NUMPY:
        from repro.fast.certificates import uncovered_tree_edge as fast
        from repro.fast.treearrays import TreeArrays

        named["fast"] = fast(TreeArrays(plan.tree), links)
    return named


@settings(max_examples=80, deadline=None)
@given(
    family=st.sampled_from(["cycle_chords", "erdos_renyi", "grid", "theta",
                            "hub_cycle", "lollipop", "geometric"]),
    n=st.integers(6, 40),
    seed=st.integers(0, 1 << 16),
    keep=st.floats(0.0, 1.0),
)
def test_certificate_agrees_with_bridges_oracle(family, n, seed, keep):
    graph = make_family_instance(family, n, seed=seed % 7)
    plan = SolverPlan(GraphHandle.from_graph(graph))
    rng = random.Random(seed)
    links = [(u, v) for u, v, _ in plan.links if rng.random() < keep]
    want = _oracle_bridge(plan.handle.n, plan.mst_edges, links)
    assert set(_certificates(plan, links).values()) == {want}


def test_certificate_accepts_a_redundant_link_dropped():
    """Dropping a link the cover does not need keeps the verdict clean."""
    graph = make_family_instance("erdos_renyi", 40, seed=3)
    plan = SolverPlan(GraphHandle.from_graph(graph))
    links = [(u, v) for u, v, _ in plan.links]
    dropped = 0
    for i in range(len(links)):
        rest = links[:i] + links[i + 1:]
        if _oracle_bridge(plan.handle.n, plan.mst_edges, rest) is None:
            assert set(_certificates(plan, rest).values()) == {None}
            dropped += 1
    assert dropped > 0


@pytest.mark.parametrize("backend", ["reference"] + (["fast"] if HAVE_NUMPY else []))
def test_assembled_bridge_matches_oracle_in_caller_labels(backend):
    graph = nx.relabel_nodes(
        make_family_instance("cycle_chords", 30, seed=4), lambda i: f"v{i}"
    )
    plan = SolverPlan(GraphHandle.from_graph(graph))
    inst = plan.instance(backend)
    tap = approximate_two_ecss(graph, backend=backend).augmentation
    rng = random.Random(5)
    raised = 0
    for _ in range(30):
        links = [link for link in tap.links if rng.random() < 0.6]
        want = _oracle_bridge(plan.handle.n, plan.mst_edges, links)
        planted = dataclasses.replace(tap, links=links)
        kwargs = {"diameter": plan.diameter, "tree": plan.tree}
        if backend == "fast":
            kwargs["tree_arrays"] = inst.arrays.ta
        if want is None:
            assemble_two_ecss(
                plan.g, plan.nodes, plan.mst_edges, planted, **kwargs
            )
            continue
        u, v = (plan.nodes[x] for x in want)
        with pytest.raises(
            InvariantViolation, match=rf"bridge \('{u}', '{v}'\)"
        ):
            assemble_two_ecss(
                plan.g, plan.nodes, plan.mst_edges, planted, **kwargs
            )
        raised += 1
    assert raised > 0


@pytest.mark.parametrize("flavor", ["reference", "fast", "untreed"])
def test_planted_wrong_link_endpoint_raises(flavor):
    """Move one endpoint of one chosen link to every other vertex.

    The oracle is ``nx.bridges`` on MST ∪ links, and a planted pair that
    is not an edge of the input is an error of its own; wherever either
    says the result is broken, assembly must raise.
    """
    if flavor == "fast" and not HAVE_NUMPY:
        pytest.skip("needs numpy")
    graph = make_family_instance("cycle_chords", 14, seed=2)
    plan = SolverPlan(GraphHandle.from_graph(graph))
    tap = approximate_two_ecss(graph).augmentation
    tree_kwargs = {}
    if flavor == "reference":
        tree_kwargs["tree"] = plan.tree
    elif flavor == "fast":
        tree_kwargs["tree_arrays"] = plan.instance("fast").arrays.ta
    broken = 0
    for i, (u, v) in enumerate(tap.links):
        for w in range(plan.handle.n):
            if w in (u, v):
                continue
            links = list(tap.links)
            links[i] = (u, w)
            planted = dataclasses.replace(tap, links=links)
            bad = not plan.g.has_edge(u, w) or _oracle_bridge(
                plan.handle.n, plan.mst_edges, links
            ) is not None
            if not bad:
                assemble_two_ecss(
                    plan.g, plan.nodes, plan.mst_edges, planted,
                    diameter=plan.diameter, **tree_kwargs,
                )
                continue
            with pytest.raises(InvariantViolation):
                assemble_two_ecss(
                    plan.g, plan.nodes, plan.mst_edges, planted,
                    diameter=plan.diameter, **tree_kwargs,
                )
            broken += 1
    assert broken > 0


def test_a_non_edge_link_is_named():
    graph = make_family_instance("cycle_chords", 14, seed=2)
    plan = SolverPlan(GraphHandle.from_graph(graph))
    tap = approximate_two_ecss(graph).augmentation
    u = tap.links[0][0]
    w = next(x for x in range(plan.handle.n)
             if x != u and not plan.g.has_edge(u, x))
    planted = dataclasses.replace(tap, links=[(u, w), *tap.links[1:]])
    with pytest.raises(InvariantViolation, match="not an edge"):
        assemble_two_ecss(
            plan.g, plan.nodes, plan.mst_edges, planted,
            diameter=plan.diameter, tree=plan.tree,
        )


def test_numpy_free_solve_is_bit_identical(monkeypatch):
    """The numpy-free branches (nx diameter, reference certificate) give
    the same result as the default install."""
    graph = make_family_instance("geometric", 60, seed=3)
    want = approximate_two_ecss(graph, backend="reference")
    monkeypatch.setattr(repro.fast, "HAVE_NUMPY", False)
    got = approximate_two_ecss(graph, backend="reference")
    assert got == want
    assert got.diameter == nx.diameter(graph)
