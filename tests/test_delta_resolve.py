"""The incremental re-solve path: sparse deltas must be bit-identical.

Mirrors the session-reuse differential suite
(``tests/test_runtime_session.py``): for every registered compute backend,
a :meth:`~repro.runtime.session.SolverSession.solve` driven by a sparse
``weights_delta`` must be **bit-identical** to a fresh one-shot call on a
graph rebuilt with the same patched weights — across diffs that move the
MST, diffs that keep it, diffs of any size, and tie-heavy integer weights.
At the plan level, a plan derived by :meth:`SolverPlan.from_delta` must
equal a plan built from scratch on the child handle, artifact for
artifact, on drawn graphs, weights and diffs.  Also pins the
correctness-hardening satellites: the weight
fingerprint canonicalizes signed zero and rejects NaN, and a reweight
mapping naming one edge under both key orders with different values is an
explicit :class:`~repro.exceptions.GraphFormatError`.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.tecss import approximate_two_ecss
from repro.exceptions import GraphFormatError
from repro.fast import HAVE_NUMPY
from repro.graphs import cycle_with_chords
from repro.graphs.families import FAMILIES, make_family_instance
from repro.runtime import GraphHandle, SolverPlan, SolverSession

COMPUTE_BACKENDS = ["reference"] + (["fast"] if HAVE_NUMPY else [])


def _assert_same_result(a, b):
    """Field-by-field bit-identity of two TwoEcssResult objects."""
    assert a.edges == b.edges
    assert a.weight == b.weight
    assert a.mst_edges == b.mst_edges
    assert a.mst_weight == b.mst_weight
    assert a.diameter == b.diameter
    assert a.n == b.n
    assert a.guarantee == b.guarantee
    ta, tb = a.augmentation, b.augmentation
    assert ta.links == tb.links
    assert ta.weight == tb.weight
    assert ta.virtual_eids == tb.virtual_eids
    assert ta.virtual_weight == tb.virtual_weight
    assert ta.dual_bound == tb.dual_bound
    assert ta.guarantee == tb.guarantee
    assert ta.iterations_per_epoch == tb.iterations_per_epoch
    assert ta.num_layers == tb.num_layers
    assert ta.max_coverage_of_dual_edges == tb.max_coverage_of_dual_edges


def _sparse_diff(graph, seed, k, lo=0.1, hi=12.0):
    """``k`` seeded weight changes as an edge-label mapping."""
    rng = random.Random(seed)
    edges = list(graph.edges())
    chosen = rng.sample(range(len(edges)), min(k, len(edges)))
    return {edges[i]: round(rng.uniform(lo, hi), 3) for i in chosen}


def _patched(graph, changed):
    """A fresh copy of ``graph`` with the diff applied (same edge order)."""
    out = graph.copy()
    for (u, v), w in changed.items():
        out[u][v]["weight"] = w
    return out


def _stable_mst_edges(graph):
    """The stable-Kruskal MST edge set, via networkx's stable sort."""
    import networkx as nx

    mst = nx.minimum_spanning_tree(graph, weight="weight")
    return sorted(tuple(sorted(e)) for e in mst.edges())


def _instance_fields(inst):
    """Everything a solve reads off a :class:`TAPInstance`, comparably."""
    fields = {
        "parent": inst.tree.parent,
        "tin": inst.tree.tin,
        "tout": inst.tree.tout,
        "edges": list(inst.edges),
        "segment_size": inst.segment_size,
        "layer": inst.layering.layer,
        "path_id": inst.layering.path_id,
        "num_layers": inst.layering.num_layers,
        "seg_of_edge": inst.segments.seg_of_edge,
    }
    if HAVE_NUMPY and not isinstance(inst.edges, list):
        arrays = inst.arrays
        for name in ("dec", "anc", "weight", "layer", "path_id", "path_leaf"):
            fields["arrays." + name] = getattr(arrays, name).tolist()
        fields["arrays.tin"] = arrays.ta.tin.tolist()
    return fields


def _assert_same_plan(derived, fresh):
    """A derived plan equals a from-scratch plan in every solve input."""
    assert derived.mst_edges == fresh.mst_edges
    assert derived.mst_weight == fresh.mst_weight
    assert type(derived.mst_weight) is type(fresh.mst_weight)
    assert derived.labeled_mst_edges == fresh.labeled_mst_edges
    assert derived.tree.parent == fresh.tree.parent
    assert derived.tree.tin == fresh.tree.tin
    assert derived.tree.tout == fresh.tree.tout
    assert derived.links == fresh.links
    for flavor in COMPUTE_BACKENDS:
        assert _instance_fields(derived.instance(flavor)) == _instance_fields(
            fresh.instance(flavor)
        ), flavor


# ---------------------------------------------------------------------------
# the derived plan's MST (plan level)
# ---------------------------------------------------------------------------


BIG = 2 ** 53

#: Weight pools: small ints (many exact ties), ints and floats at float64's
#: exact-integer limit, and floats with ties.
WEIGHTS = {
    int: st.integers(1, 4) | st.integers(BIG - 3, BIG + 3),
    float: (
        st.sampled_from([0.5, 1.0, 1.5])
        | st.floats(0.0, 16.0)
        | st.sampled_from([BIG - 1.0, float(BIG), BIG + 2.0])
    ),
}


@st.composite
def derived_cases(draw):
    """A family graph, a base column and a diff of 1..m of its edges."""
    family = draw(st.sampled_from(sorted(FAMILIES)))
    graph = make_family_instance(
        family, draw(st.integers(6, 60)), seed=draw(st.integers(0, 1 << 16))
    )
    m = graph.number_of_edges()
    weight = WEIGHTS[draw(st.sampled_from([int, float]))]
    base = draw(st.lists(weight, min_size=m, max_size=m))
    positions = draw(
        st.lists(st.integers(0, m - 1), min_size=1, max_size=m, unique=True)
    )
    new = draw(st.lists(weight, min_size=len(positions), max_size=len(positions)))
    return graph, base, dict(zip(positions, new))


class TestDerivedMst:
    @settings(max_examples=150, deadline=None)
    @given(case=derived_cases(), warm=st.booleans())
    def test_derived_plan_equals_fresh_plan(self, case, warm):
        """``from_delta`` == ``SolverPlan(child)``, artifact for artifact.

        ``warm`` builds the parent's links and instances first, so the
        child splices its links and derives its instances from them.
        """
        graph, base, diff = case
        handle = GraphHandle.from_graph(graph).reweight(base)
        child = handle.reweight_delta(
            {handle.edge_list[i]: w for i, w in diff.items()}
        )
        assume(child is not handle)
        parent = SolverPlan(handle)
        if warm:
            parent.links
            for flavor in COMPUTE_BACKENDS:
                parent.instance(flavor)
        derived = SolverPlan.from_delta(parent, child)
        fresh = SolverPlan(GraphHandle.from_graph(graph).reweight(child.weights))
        _assert_same_plan(derived, fresh)
        left = set(parent.mst_edges) - set(fresh.mst_edges)
        assert derived.delta_info == {
            "changed": len(child.delta_changes),
            "swaps": len(left),
            "mode": "swapped" if left else "reused",
        }
        assert len(left) <= len(child.delta_changes)
        if not left:
            assert derived.tree is parent.tree

    def test_fuzz_matches_stable_kruskal(self):
        """Derived MST == stable Kruskal of the patched graph, 30 trials."""
        for trial in range(30):
            graph = cycle_with_chords(40, 14, seed=trial)
            handle = GraphHandle.from_graph(graph)
            plan = SolverPlan(handle)
            plan.links  # built, so the derived plan splices its links
            changed = _sparse_diff(graph, 1000 + trial, k=1 + trial % 5)
            new = handle.reweight_delta(changed)
            derived = SolverPlan.from_delta(plan, new)
            assert derived.mst_edges == _stable_mst_edges(_patched(graph, changed))
            assert derived.delta_info["swaps"] <= len(new.delta_changes)
            _assert_same_plan(derived, SolverPlan(GraphHandle.from_graph(
                _patched(graph, changed)
            )))

    def test_tie_heavy_integer_weights(self):
        """Integer weights with many ties: the lex tie-break must hold."""
        for trial in range(10):
            rng = random.Random(trial)
            graph = cycle_with_chords(30, 12, seed=trial)
            for _, _, data in graph.edges(data=True):
                data["weight"] = rng.randint(1, 4)
            handle = GraphHandle.from_graph(graph)
            plan = SolverPlan(handle)
            changed = {
                e: rng.randint(1, 4)
                for e in rng.sample(list(graph.edges()), 4)
            }
            new = handle.reweight_delta(changed)
            if new is handle:
                continue
            derived = SolverPlan.from_delta(plan, new)
            assert derived.mst_edges == _stable_mst_edges(_patched(graph, changed))
            _assert_same_plan(derived, SolverPlan(GraphHandle.from_graph(
                _patched(graph, changed)
            )))

    def test_big_integer_delta_values_rank_exactly(self):
        """Integer weights past 2**53 rank exactly in a derived plan's MST.

        The base column is small; the diff lifts both chords above 2**53,
        where ``2**53 + 1`` and ``2**53`` cast to the same float64.  The
        heavier tree edge must still give way to the exactly-lighter
        chord (0, 3), as Kruskal over the weight objects does.
        """
        import networkx as nx

        from repro.core.tecss import stable_kruskal_mst

        graph = nx.Graph()
        graph.add_nodes_from(range(4))
        for u, v, w in [(0, 2, 5), (0, 3, 5), (0, 1, 1), (1, 2, 1), (2, 3, 1)]:
            graph.add_edge(u, v, weight=w)
        session = SolverSession(graph)
        assert session.base_plan().mst_edges == [(0, 1), (1, 2), (2, 3)]
        plan = session.plan(
            weights_delta={(0, 2): BIG + 1, (0, 3): BIG, (1, 2): BIG + 10}
        )
        assert plan.delta_info["mode"] == "swapped"
        handle = plan.handle
        want, weight = stable_kruskal_mst(handle.n, handle.edges, handle.weights)
        assert want == [(0, 1), (0, 3), (2, 3)]
        assert plan.mst_edges == want
        assert plan.mst_weight == weight == BIG + 2


# ---------------------------------------------------------------------------
# GraphHandle.reweight_delta + fingerprint hardening
# ---------------------------------------------------------------------------


class TestReweightDelta:
    def setup_method(self):
        self.graph = cycle_with_chords(24, 8, seed=1)
        self.handle = GraphHandle.from_graph(self.graph)

    def test_noop_delta_returns_self(self):
        (u, v) = next(iter(self.graph.edges()))
        w = self.graph[u][v]["weight"]
        assert self.handle.reweight_delta({(u, v): w}) is self.handle

    def test_records_base_and_changes(self):
        changed = _sparse_diff(self.graph, 5, k=3)
        new = self.handle.reweight_delta(changed)
        assert new.delta_base is self.handle
        assert len(new.delta_changes) == 3
        for i, w in new.delta_changes.items():
            assert new.weights[i] == w

    def test_derived_key_matches_full_recompute(self):
        """The O(k) chained fingerprint == the O(m) from-scratch one."""
        changed = _sparse_diff(self.graph, 6, k=4)
        new = self.handle.reweight_delta(changed)
        fresh = GraphHandle.from_graph(_patched(self.graph, changed))
        assert new.weights_key == fresh.weights_key

    def test_unknown_edge_raises(self):
        with pytest.raises(GraphFormatError, match="delta"):
            self.handle.reweight_delta({(0, 999): 1.0})

    def test_reverse_key_is_same_edge(self):
        (u, v) = next(iter(self.graph.edges()))
        a = self.handle.reweight_delta({(u, v): 3.25})
        b = self.handle.reweight_delta({(v, u): 3.25})
        assert a.weights == b.weights
        assert a.weights_key == b.weights_key

    def test_both_key_orders_conflict_raises(self):
        """Satellite: (u,v) and (v,u) with different values is an error."""
        (u, v) = next(iter(self.graph.edges()))
        with pytest.raises(GraphFormatError, match="both key orders"):
            self.handle.reweight({(u, v): 1.0, (v, u): 2.0})
        # ... and GraphFormatError is a ValueError, so callers guarding
        # with a generic ``except ValueError`` still catch it.
        assert issubclass(GraphFormatError, ValueError)

    def test_both_key_orders_same_value_ok(self):
        (u, v) = next(iter(self.graph.edges()))
        new = self.handle.reweight_delta({(u, v): 4.5, (v, u): 4.5})
        assert 4.5 in new.weights
        with pytest.raises(GraphFormatError, match="both key orders"):
            self.handle.reweight_delta({(u, v): 1.0, (v, u): 2.0})

    def test_nan_rejected(self):
        """NaN and infinite weights are rejected everywhere, never hashed."""
        (u, v) = next(iter(self.graph.edges()))
        for bad in (math.nan, math.inf):
            with pytest.raises(GraphFormatError):
                self.handle.reweight_delta({(u, v): bad})
            with pytest.raises(GraphFormatError):
                self.handle.reweight({(u, v): bad})
            column = list(self.handle.weights)
            column[-1] = bad
            with pytest.raises(GraphFormatError):
                self.handle.reweight(column)
            bad_graph = self.graph.copy()
            bad_graph[u][v]["weight"] = bad
            with pytest.raises(GraphFormatError):
                GraphHandle.from_graph(bad_graph)
        # Ints beyond float range are finite weights.
        column = [1] * (self.handle.m - 1) + [10 ** 400]
        assert self.handle.reweight(column).weights[-1] == 10 ** 400
        assert self.handle.reweight_delta({(u, v): 10 ** 400}) is not None

    def test_signed_zero_canonicalized(self):
        """Satellite: -0.0 == 0.0 must fingerprint identically."""
        (u, v) = next(iter(self.graph.edges()))
        pos = self.handle.reweight_delta({(u, v): 0.0})
        neg = self.handle.reweight_delta({(u, v): -0.0})
        assert pos.weights_key == neg.weights_key
        # Full-column reweights agree with the delta-derived keys.
        col = list(self.handle.weights)
        col[list(pos.delta_changes)[0]] = -0.0
        assert GraphHandle.from_graph(
            _patched(self.graph, {(u, v): -0.0})
        ).weights_key == pos.weights_key


# ---------------------------------------------------------------------------
# end-to-end differential: session delta solve vs fresh one-shot
# ---------------------------------------------------------------------------


class TestDeltaDifferential:
    @pytest.mark.parametrize("backend", COMPUTE_BACKENDS)
    def test_fuzz_bit_identical(self, backend):
        """Seeded fuzz: delta solves == one-shot solves, every backend."""
        for trial in range(8):
            graph = cycle_with_chords(36, 12, seed=trial)
            session = SolverSession(graph, backend=backend)
            session.solve(eps=0.5)  # warm the base plan
            for tick in range(3):
                changed = _sparse_diff(graph, 100 * trial + tick, k=2 + tick)
                got = session.solve(eps=0.5, weights_delta=changed)
                want = approximate_two_ecss(
                    _patched(graph, changed), eps=0.5, backend=backend
                )
                _assert_same_result(got, want)
            assert session.stats()["delta_requests"] == 3 * 1

    @pytest.mark.parametrize("backend", COMPUTE_BACKENDS)
    def test_swap_and_nonswap_paths(self, backend):
        """Force both derivation outcomes and check counters + identity."""
        graph = make_family_instance("grid", 49, seed=2)
        session = SolverSession(graph, backend=backend)
        session.solve(eps=0.5)
        edges = list(graph.edges())
        # Non-tree edge made very cheap: must swap into the tree.
        swap_diff = {edges[-1]: 0.0001}
        got = session.solve(eps=0.5, weights_delta=swap_diff)
        _assert_same_result(
            got, approximate_two_ecss(
                _patched(graph, swap_diff), eps=0.5, backend=backend
            ),
        )
        # Tiny decrease of an already-cheap edge: tree unchanged.
        reuse_diff = {edges[0]: graph[edges[0][0]][edges[0][1]]["weight"] * 0.999}
        got = session.solve(eps=0.5, weights_delta=reuse_diff)
        _assert_same_result(
            got, approximate_two_ecss(
                _patched(graph, reuse_diff), eps=0.5, backend=backend
            ),
        )
        stats = session.stats()
        assert stats["delta_requests"] == 2
        assert stats["delta_tree_swaps"] >= 1

    def test_large_diff_bit_identical(self):
        """A diff of most edges takes the same path — same result."""
        graph = cycle_with_chords(36, 12, seed=3)
        session = SolverSession(graph)
        session.solve(eps=0.5)
        changed = _sparse_diff(graph, 9, k=40)
        got = session.solve(eps=0.5, weights_delta=changed)
        want = approximate_two_ecss(_patched(graph, changed), eps=0.5)
        _assert_same_result(got, want)
        stats = session.stats()
        assert stats["delta_tree_reuses"] + stats["delta_tree_swaps"] == 1

    def test_chained_deltas_are_base_relative(self):
        """A second delta replaces the first — diffs are against the base."""
        graph = cycle_with_chords(30, 10, seed=4)
        session = SolverSession(graph)
        edges = list(graph.edges())
        first = {edges[0]: 7.5}
        second = {edges[1]: 2.5}
        session.solve(eps=0.5, weights_delta=first)
        got = session.solve(eps=0.5, weights_delta=second)
        # One-shot: only the SECOND change applied (first reverted to base).
        want = approximate_two_ecss(_patched(graph, second), eps=0.5)
        _assert_same_result(got, want)

    def test_noop_delta_hits_base_plan(self):
        graph = cycle_with_chords(30, 10, seed=5)
        session = SolverSession(graph)
        (u, v) = next(iter(graph.edges()))
        base = session.plan()
        same = session.plan(weights_delta={(u, v): graph[u][v]["weight"]})
        assert same is base

    def test_weights_and_delta_are_exclusive(self):
        graph = cycle_with_chords(30, 10, seed=6)
        session = SolverSession(graph)
        (u, v) = next(iter(graph.edges()))
        with pytest.raises(ValueError, match="weights"):
            session.solve(
                weights=[1.0] * graph.number_of_edges(),
                weights_delta={(u, v): 1.0},
            )

    def test_sim_engine_delta(self):
        """Delta plans feed the sim engine identically to a fresh solve."""
        from repro.dist.pipeline import distributed_two_ecss

        graph = cycle_with_chords(24, 8, seed=7)
        session = SolverSession(graph, engine="sim")
        changed = _sparse_diff(graph, 11, k=2)
        got = session.solve(eps=0.5, weights_delta=changed)
        want = distributed_two_ecss(_patched(graph, changed), eps=0.5)
        assert got.result.edges == want.result.edges
        assert got.result.weight == want.result.weight
        assert got.measured_rounds == want.measured_rounds

    def test_delta_build_times_visible(self):
        """The reused path books Kruskal under ``mst`` and derived phases."""
        graph = cycle_with_chords(30, 10, seed=8)
        session = SolverSession(graph)
        session.solve(eps=0.5)
        edges = list(graph.edges())
        reuse = {edges[0]: graph[edges[0][0]][edges[0][1]]["weight"] * 0.999}
        plan = session.plan(weights_delta=reuse)
        session.solve(eps=0.5, weights_delta=reuse)
        assert plan.delta_info["mode"] == "reused"
        assert set(plan.build_times) == {"mst", "instance:reference:delta"}
        assert "instance:reference:delta" in session.stats()["build_times_s"]


# ---------------------------------------------------------------------------
# plan-level invalidation
# ---------------------------------------------------------------------------


class TestDeltaPlan:
    def test_from_delta_requires_matching_parent(self):
        graph = cycle_with_chords(24, 8, seed=1)
        handle = GraphHandle.from_graph(graph)
        parent = SolverPlan(handle)
        other = handle.reweight_delta(_sparse_diff(graph, 2, k=2))
        stranger = SolverPlan(handle.reweight([1.0] * handle.m))
        with pytest.raises(ValueError, match="base"):
            SolverPlan.from_delta(stranger, other)

    def test_tree_shared_when_unchanged(self):
        """No swap → the parent's tree/instance artifacts are shared."""
        graph = cycle_with_chords(24, 8, seed=2)
        handle = GraphHandle.from_graph(graph)
        parent = SolverPlan(handle)
        parent.instance("fast" if HAVE_NUMPY else "reference")
        edges = list(graph.edges())
        reuse = {edges[0]: graph[edges[0][0]][edges[0][1]]["weight"] * 0.999}
        child = SolverPlan.from_delta(parent, handle.reweight_delta(reuse))
        assert child.delta_info["mode"] == "reused"
        assert child.tree is parent.tree
        assert child.mst_edges is parent.mst_edges
        flavor = "fast" if HAVE_NUMPY else "reference"
        assert child.instance(flavor).layering is parent.instance(flavor).layering

    def test_swap_rebuilds_tree_only(self):
        graph = make_family_instance("grid", 36, seed=3)
        handle = GraphHandle.from_graph(graph)
        parent = SolverPlan(handle)
        mst_set = set(parent.mst_edges)
        chord = next(
            e for e in graph.edges() if tuple(sorted(e)) not in mst_set
        )
        child = SolverPlan.from_delta(
            parent, handle.reweight_delta({chord: 0.0001})
        )
        assert child.delta_info["mode"] == "swapped"
        assert child.tree is not parent.tree
        assert child.mst_edges != parent.mst_edges
        assert child.mst_edges == _stable_mst_edges(
            _patched(graph, {chord: 0.0001})
        )

    def test_spliced_links_match_full_replay(self):
        """Swapped-mode links (parent-list splice) are tuple-for-tuple the
        from-scratch ``nontree_links`` of the patched graph — deletions,
        ordered insertions, and weight patches all at the right ranks."""
        graph = make_family_instance("grid", 36, seed=3)
        handle = GraphHandle.from_graph(graph)
        parent = SolverPlan(handle)
        parent.links  # materialize: from_delta must take the splice path
        mst_set = set(parent.mst_edges)
        chords = [
            e for e in graph.edges() if tuple(sorted(e)) not in mst_set
        ]
        diff = {chords[0]: 0.0001, chords[3]: 0.0002, chords[7]: 3.75}
        child = SolverPlan.from_delta(parent, handle.reweight_delta(diff))
        assert child.delta_info["mode"] == "swapped"
        assert child.delta_info["swaps"] >= 2
        fresh = SolverPlan(GraphHandle.from_graph(_patched(graph, diff)))
        assert child.mst_edges == fresh.mst_edges
        assert child.links == fresh.links
