"""Differential tests: scenario-vectorized solving and binary wire frames.

Three contracts, all bit-identity shaped:

* ``SolverSession.solve_many`` equals the same queries solved one at a
  time — every result field, duals and anchors and certificates and
  primitive logs included, weight types too — across every registered
  compute backend as the session default, mixed-parameter batches
  included, with equal weight columns sharing one plan;
* each kernel gives the same answer as the reference tree structures;
  the one MST builder (:func:`repro.core.tecss.stable_kruskal_mst`)
  equals ``nx.minimum_spanning_tree``; the one fast forward phase equals
  the reference forward phase on plans derived from a base plan;
* the ``RPF1`` binary frame codec round-trips, rejects malformed bytes
  with the structured ``bad-frame`` error, and a framed HTTP response
  decodes to the byte-identical JSON body a plain client receives.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.fast import HAVE_NUMPY
from repro.graphs.families import FAMILIES, make_family_instance
from repro.runtime.session import SolveQuery, SolverSession
from repro.serve.protocol import (
    FRAME_CONTENT_TYPE,
    FRAME_MAGIC,
    ProtocolError,
    graph_payload,
    pack_frame,
    result_to_payload,
    unpack_frame,
)

needs_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="scenario vectorization requires numpy"
)

COMPUTE_BACKENDS = ["reference"] + (["fast", "auto"] if HAVE_NUMPY else [])


def assert_results_equal(a, b) -> None:
    """Recursive field-by-field equality over dataclass result trees."""
    assert type(a) is type(b)
    if dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            assert_results_equal(getattr(a, f.name), getattr(b, f.name))
    elif isinstance(a, dict):
        assert a.keys() == b.keys()
        for key in a:
            assert_results_equal(a[key], b[key])
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_results_equal(x, y)
    else:
        assert a == b


def one_at_a_time(session, queries):
    """The one-query path: each query as its own (unvectorized) batch."""
    return [session.solve_many([query])[0] for query in queries]


def perturbed_columns(graph, count, seed=7):
    """``count`` seeded multiplicative perturbations of the weight column."""
    base = [w for _, _, w in graph_payload(graph)["edges"]]
    rng = random.Random(seed)
    columns = []
    for _ in range(count):
        column = list(base)
        for i in rng.sample(range(len(base)), max(1, len(base) // 20)):
            column[i] = column[i] * rng.uniform(1.0, 3.0)
        columns.append(column)
    return columns


# ---------------------------------------------------------------------------
# the vectorized-vs-looped differential suite
# ---------------------------------------------------------------------------


@needs_numpy
@pytest.mark.parametrize("backend", COMPUTE_BACKENDS)
def test_vectorized_bit_identical_to_looped(backend):
    graph = make_family_instance("cycle_chords", 26, seed=3)
    columns = perturbed_columns(graph, 6)
    queries = (
        [{"eps": 0.5, "weights": c} for c in columns[:4]]
        + [{"eps": 0.25, "weights": c} for c in columns[4:]]
        + [{"eps": 0.5}]                       # base column joins group 1
        + [{"eps": 0.5, "weights": columns[0]}]  # duplicate column
        + [{"eps": 0.5, "validate": False, "weights": c} for c in columns[:2]]
    )
    looped = one_at_a_time(SolverSession(graph, backend=backend), queries)
    session = SolverSession(graph, backend=backend)
    batched = session.solve_many(queries)
    assert len(batched) == len(looped)
    for a, b in zip(batched, looped):
        assert_results_equal(a, b)
    stats = session.stats()
    assert stats["solves"] == len(queries)
    # The base plan and one plan per distinct column, whatever the query's
    # eps or validate flag.
    assert stats["plans_built"] == len(columns) + 1


@needs_numpy
def test_mixed_batches_split_and_fall_back():
    graph = make_family_instance("grid", 25, seed=5)
    columns = perturbed_columns(graph, 4, seed=11)
    queries = [
        SolveQuery(eps=0.5, weights=columns[0], backend="fast"),
        SolveQuery(eps=0.5, weights=columns[1], backend="fast"),
        SolveQuery(eps=0.5, weights=columns[2], backend="reference"),
        SolveQuery(eps=1.0, weights=columns[3], backend="fast"),  # singleton
        SolveQuery(eps=0.5, backend="fast", engine="sim"),
    ]
    looped = one_at_a_time(SolverSession(graph), queries)
    session = SolverSession(graph)
    batched = session.solve_many(queries)
    for a, b in zip(batched, looped):
        assert_results_equal(a, b)
    stats = session.stats()
    # Plans are per weight column, shared by every backend and engine.
    assert stats["plans_built"] == len(columns) + 1


@needs_numpy
@pytest.mark.parametrize("base_type", [int, float])
def test_every_derivation_outcome_matches_solve(base_type, monkeypatch):
    """One column per way a column's plan derives from the base plan.

    Through ``solve_many`` and through one ``solve()`` per query alike,
    every non-base column's plan comes from ``SolverPlan.from_delta``: a
    spy records the mode each took, the derived plans share the base
    structure and count under the delta counters, and each result equals
    a solve on a session built on that column (a from-scratch plan).
    """
    from repro.runtime.handle import GraphHandle
    from repro.runtime.plan import SolverPlan

    graph = make_family_instance("cycle_chords", 26, seed=3)
    rng = random.Random(5)
    handle = GraphHandle.from_graph(graph)
    handle = handle.reweight(
        [base_type(rng.randint(1, 20)) for _ in range(handle.m)]
    )
    base = list(handle.weights)
    mst = set(SolverPlan(handle).mst_edges)
    tree = [i for i, e in enumerate(handle.edges) if tuple(sorted(e)) in mst]
    nontree = [i for i in range(handle.m) if i not in tree]

    def column(changes):
        out = list(base)
        for i, w in changes.items():
            out[i] = w
        return out

    heavy = base_type(1000)  # above every other weight: forces a swap
    lifted = {i: base[i] * 2 for i in nontree}  # every non-tree edge
    other_type = float if base_type is int else int
    columns = [
        list(base),                                   # equals the base
        column({nontree[0]: base[nontree[0]] * 3}),   # reused
        column({tree[0]: heavy}),                     # swapped
        column(lifted),                               # many changed, MST kept
        column({**lifted, tree[0]: heavy}),           # many changed, MST moved
        [other_type(w) for w in base],                # equal value, new type
    ]
    made = []
    from_delta = SolverPlan.from_delta.__func__

    def spy(cls, *args, **kwargs):
        plan = from_delta(cls, *args, **kwargs)
        made.append(plan)
        return plan

    monkeypatch.setattr(SolverPlan, "from_delta", classmethod(spy))
    queries = [{"eps": 0.5, "weights": c} for c in columns]
    shapes = {
        "solve_many": lambda session: session.solve_many(queries),
        "solve": lambda session: [session.solve(**q) for q in queries],
    }
    results = {}
    for shape, run in shapes.items():
        made.clear()
        session = SolverSession(handle, backend="fast")
        results[shape] = run(session)
        assert [plan.delta_info["mode"] for plan in made] == [
            "reused", "swapped", "reused", "swapped", "reused",
        ], shape
        assert [
            "instance:fast:delta" in plan.build_times for plan in made
        ] == [True, False, True, False, True], shape
        base_plan = session.base_plan()
        for plan in (made[0], made[2], made[4]):  # derived from the base
            inst, shared = plan.instance("fast"), base_plan.instance("fast")
            assert inst.tree is shared.tree and inst.hld is shared.hld
            assert inst.segments is shared.segments
            assert plan.labeled_mst_edges is base_plan.labeled_mst_edges
        stats = session.stats()
        assert stats["delta_requests"] == 0, shape
        assert stats["delta_tree_reuses"] == 3, shape
        assert stats["delta_tree_swaps"] == 2, shape
    monkeypatch.undo()
    for shape, got in results.items():
        for column, result in zip(columns, got):
            fresh = SolverSession(handle.reweight(column), backend="fast")
            assert_results_equal(result, fresh.solve(eps=0.5))
        assert type(got[0].mst_weight) is base_type
        assert type(got[-1].mst_weight) is other_type


#: Weight pools with exact ties and zero weights, narrow enough that the
#: float64 certificates hold on every drawn column.
WEIGHTS = {
    int: st.integers(0, 20),
    float: st.sampled_from([0.0, 0.5, 1.0, 1.5]) | st.floats(0.5, 16.0),
}


@st.composite
def scenario_batches(draw):
    """A family graph, a base column and 2-6 columns to solve against it.

    A column is the base itself (``None``: the query names no weights),
    a copy of an earlier column, a freshly drawn one, or the base with
    some non-tree edges scaled down and some tree edges scaled up, so
    the MST moves.
    """
    from repro.core.tecss import stable_kruskal_mst
    from repro.runtime.handle import GraphHandle

    family = draw(st.sampled_from(sorted(FAMILIES)))
    graph = make_family_instance(
        family, draw(st.integers(6, 60)), seed=draw(st.integers(0, 1 << 16))
    )
    handle = GraphHandle.from_graph(graph)
    kind = draw(st.sampled_from([int, float]))
    weight = WEIGHTS[kind]
    base = draw(st.lists(weight, min_size=handle.m, max_size=handle.m))
    mst, _ = stable_kruskal_mst(handle.n, handle.edges, base)
    in_mst = set(mst)
    factor = 4 if kind is int else 4.0
    columns: list = []
    for _ in range(draw(st.integers(2, 6))):
        how = draw(st.sampled_from(["base", "copy", "drawn", "moved"]))
        if how == "base":
            columns.append(None)
        elif how == "copy" and columns:
            columns.append(draw(st.sampled_from(columns)))
        elif how == "moved":
            moved = draw(st.lists(
                st.integers(0, handle.m - 1), min_size=1, unique=True,
            ))
            column = list(base)
            for i in moved:
                if tuple(sorted(handle.edges[i])) in in_mst:
                    column[i] = column[i] * factor + 1
                else:
                    column[i] = column[i] // factor if kind is int else (
                        column[i] / factor
                    )
            columns.append(column)
        else:
            columns.append(draw(st.lists(
                weight, min_size=handle.m, max_size=handle.m
            )))
    return handle.reweight(base), columns


@needs_numpy
@settings(max_examples=60, deadline=None)
@given(case=scenario_batches())
def test_solve_many_equals_looped_solve(case):
    """``solve_many`` on the fast backend == one ``solve()`` per query."""
    handle, columns = case
    queries = [
        {"eps": 0.5} if column is None else {"eps": 0.5, "weights": column}
        for column in columns
    ]
    session = SolverSession(handle, backend="fast")
    batched = session.solve_many(queries)
    single = SolverSession(handle, backend="fast")
    for query, result in zip(queries, batched):
        assert_results_equal(result, single.solve(**query))


@needs_numpy
def test_big_integer_columns_keep_the_exact_mst():
    """Integer weights past 2**53 rank exactly in the batch's MST.

    Casting this 4-cycle-plus-chord's columns to float64 erases both
    changes, so a float compare against the base keeps the base MST for
    column A — heavier than the true minimum.
    """
    import networkx as nx

    big = 2 ** 53
    graph = nx.cycle_graph(4)
    graph.add_edge(0, 2)
    nx.set_edge_attributes(graph, big, "weight")
    session = SolverSession(graph, backend="fast")
    edges = session.handle.edges

    def column(edge, w):
        out = list(session.handle.weights)
        out[edges.index(edge)] = w
        return out

    a, b = column((0, 1), big + 1), column((2, 3), big + 3)
    batched = session.solve_many([{"weights": a}, {"weights": b}])
    single = SolverSession(graph, backend="fast")
    want = [single.solve(weights=a), single.solve(weights=b)]
    assert want[0].mst_edges == [(0, 2), (0, 3), (1, 2)]
    assert want[0].mst_weight == 3 * big
    for got, expected in zip(batched, want):
        assert_results_equal(got, expected)


@pytest.mark.parametrize("backend", COMPUTE_BACKENDS)
def test_int_and_float_columns_are_not_merged(backend):
    """``1`` and ``1.0`` are equal but not the same weight: types reach results."""
    graph = make_family_instance("cycle_chords", 26, seed=3)
    ints = [max(1, round(w)) for _, _, w in graph_payload(graph)["edges"]]
    floats = [float(w) for w in ints]
    queries = [{"weights": ints}, {"weights": floats}]
    want = [
        result_to_payload(SolverSession(graph, backend=backend).solve(**q))
        for q in queries
    ]
    assert isinstance(want[0]["mst_weight"], int)
    assert isinstance(want[1]["mst_weight"], float)
    for solve in ("solve_many", "solve_batch_vectorized"):
        session = SolverSession(graph, backend=backend)
        got = getattr(session, solve)(queries)
        assert [json.dumps(result_to_payload(r)) for r in got] == [
            json.dumps(payload) for payload in want
        ]


def test_unknown_query_field_names_valid_fields():
    graph = make_family_instance("cycle_chords", 14, seed=2)
    session = SolverSession(graph)
    with pytest.raises(ValueError) as excinfo:
        session.solve_many([{"epz": 0.5}])
    message = str(excinfo.value)
    assert "unknown SolveQuery field(s) epz" in message
    assert "valid fields:" in message and "eps" in message


def test_solve_many_groups_by_weight_fingerprint():
    graph = make_family_instance("cycle_chords", 18, seed=4)
    column = perturbed_columns(graph, 1, seed=9)[0]
    session = SolverSession(graph)
    results = session.solve_many([
        {"eps": 0.5, "weights": column},
        {"eps": 0.25, "weights": column},   # same column, batch-local hit
        {"eps": 0.5, "weights": list(column)},  # equal copy, also a hit
    ])
    stats = session.stats()
    assert stats["plans_built"] == 2  # the base plan and the column's
    assert stats["plan_hits"] == 2
    single = SolverSession(graph)
    for query, result in zip(
        [{"eps": 0.5, "weights": column}, {"eps": 0.25, "weights": column},
         {"eps": 0.5, "weights": column}],
        results,
    ):
        assert_results_equal(result, single.solve(**query))


# ---------------------------------------------------------------------------
# kernel/structure parity
# ---------------------------------------------------------------------------


def test_stable_kruskal_matches_networkx_mst():
    import networkx as nx

    from repro.core.tecss import rooted_mst, stable_kruskal_mst
    from repro.graphs.families import FAMILIES
    from repro.runtime.handle import GraphHandle
    from repro.trees.rooted import RootedTree

    for seed, family in enumerate(sorted(FAMILIES)):
        graph = make_family_instance(family, 24, seed=seed)
        base = GraphHandle.from_graph(graph)
        rng = random.Random(seed)
        columns = [None] + perturbed_columns(graph, 2, seed=seed) + [
            # integer columns with many exact ties
            [rng.randrange(3) for _ in range(base.m)] for _ in range(2)
        ]
        for column in columns:
            handle = base if column is None else base.reweight(column)
            g = handle.graph
            want = sorted(
                tuple(sorted(e))
                for e in nx.minimum_spanning_tree(g, weight="weight").edges()
            )
            got, weight = stable_kruskal_mst(
                handle.n, handle.edges, handle.weights
            )
            assert got == want, family
            assert weight == sum(g[u][v]["weight"] for u, v in want)
            tree, edges = rooted_mst(g)
            assert edges == want
            expected = RootedTree.from_edges(handle.n, want, root=0)
            assert tree.parent == expected.parent
            assert tree.tin == expected.tin


def _kernel_fixture(family, n, seed):
    """A solved instance's tree arrays, reference ops and virtual edges."""
    from repro.trees.pathops import TreePathOps

    graph = make_family_instance(family, n, seed=seed)
    arrays = SolverSession(graph, backend="fast").plan().instance(
        "fast"
    ).arrays
    return arrays.ta, TreePathOps(arrays.ta.tree), arrays


@needs_numpy
def test_ancestor_sums_rows_match_reference():
    import numpy as np

    ta, ops, _ = _kernel_fixture("cycle_chords", 30, seed=6)
    rng = np.random.default_rng(12)
    rows = rng.uniform(-4.0, 4.0, size=(5, ta.n))
    rows[2] = 0.0  # a row holding only the identity
    for row in rows:
        assert ta.ancestor_sums(row).tolist() == ops.ancestor_sums(
            row.tolist()
        )


@needs_numpy
def test_coverage_counts_match_scalar_counter():
    import numpy as np

    from repro.trees.pathops import CoverageCounter

    ta, ops, arrays = _kernel_fixture("grid", 16, seed=8)
    rng = random.Random(13)
    m = len(arrays.dec)
    for s in range(4):
        counter = CoverageCounter(ops)
        delta = np.zeros(ta.n, dtype=np.int64)
        # Row 1 holds only the identity: no path, zero delta.
        for eid in rng.sample(range(m), max(2, m // 3)) if s != 1 else []:
            dec, anc = int(arrays.dec[eid]), int(arrays.anc[eid])
            counter.add_path(dec, anc)
            delta[dec] += 1
            delta[anc] -= 1
        counts = ta.subtree_counts(delta)
        for v in ta.tree.tree_edges():
            assert int(counts[v]) == counter.count(v)


@needs_numpy
def test_path_chmin_rows_match_reference():
    import numpy as np

    from repro.fast.kernels import INT_SENTINEL

    ta, ops, arrays = _kernel_fixture("cycle_chords", 30, seed=6)
    dec, anc = arrays.dec, arrays.anc
    m = len(dec)
    rng = np.random.default_rng(4)
    floats = rng.uniform(0.0, 10.0, size=(4, m))
    floats[rng.uniform(size=(4, m)) < 0.4] = np.inf  # unselected entries
    floats[1] = np.inf  # a row holding only the identity
    # int64 petal keys: (primary, index) with many primary ties
    keys = rng.integers(0, 3, size=(3, m)) * m + np.arange(m)
    keys[0, rng.uniform(size=m) < 0.5] = INT_SENTINEL
    keys[2] = INT_SENTINEL
    for rows, identity in ((floats, np.inf), (keys, INT_SENTINEL)):
        for row in rows:
            sel = np.flatnonzero(row != identity)
            one = ta.path_chmin(dec[sel], anc[sel], row[sel], identity)
            assert one.shape == (ta.n,)
            assert np.array_equal(ta.path_chmin(dec, anc, row, identity), one)
            if identity is np.inf:
                ref = ops.chmin_over_paths(
                    (int(dec[i]), int(anc[i]), (float(row[i]), int(i)))
                    for i in sel
                )
                want = [ref.get(t) for t in ta.tree.tree_edges()]
                got = [
                    ref.identity if one[t] == identity else float(one[t])
                    for t in ta.tree.tree_edges()
                ]
                assert got == [w if w == ref.identity else w[0] for w in want]
            else:
                ref = ops.chmin_over_paths(
                    (int(dec[i]), int(anc[i]), divmod(int(row[i]), m))
                    for i in sel
                )
                for t in ta.tree.tree_edges():
                    if one[t] == identity:
                        assert ref.get(t) == ref.identity
                    else:
                        assert divmod(int(one[t]), m) == ref.get(t)


@needs_numpy
def test_fast_forward_matches_reference_on_derived_instances():
    """The fast forward phase equals the reference on derived plans.

    One diff scales non-tree edges up, so the MST is kept and the fast
    instance is the base's with its weight column patched; the other
    makes a tree edge the heaviest, so the MST moves and the instance is
    built on the new tree.
    """
    from repro.core.forward import forward_phase
    from repro.runtime.handle import GraphHandle
    from repro.runtime.plan import SolverPlan

    graph = make_family_instance("cycle_chords", 28, seed=10)
    base = GraphHandle.from_graph(graph)
    base_plan = SolverPlan(base)
    mst_set = set(base_plan.mst_edges)
    nontree = [e for e in base.edges if tuple(sorted(e)) not in mst_set]
    tree_edge = next(e for e in base.edges if tuple(sorted(e)) in mst_set)
    rng = random.Random(22)
    kept = {
        e: base.weights[base._pair_index[e]] * rng.uniform(1.0, 2.5)
        for e in rng.sample(nontree, max(1, len(nontree) // 4))
    }
    moved = {tree_edge: 10.0 * max(base.weights)}
    instances = [base_plan.instance("fast")]
    for diff, mode in ((kept, "reused"), (moved, "swapped")):
        plan = SolverPlan.from_delta(base_plan, base.reweight_delta(diff))
        assert plan.delta_info["mode"] == mode
        instances.append(plan.instance("fast"))
    assert instances[1].tree is instances[0].tree
    assert instances[2].tree is not instances[0].tree
    for inst in instances:
        fwd = forward_phase(inst, eps=0.25, backend="fast")
        assert_results_equal(fwd, forward_phase(inst, eps=0.25))


# ---------------------------------------------------------------------------
# the frame codec
# ---------------------------------------------------------------------------


class TestFrameCodec:
    def test_round_trip_with_nested_refs(self):
        header = {
            "requests": [
                {"weights": {"__frame__": 0}, "eps": 0.5},
                {"weights": {"__frame__": 1},
                 "nested": [{"deep": {"__frame__": 0}}]},
            ]
        }
        arrays = [[1.0, 2.5, 3.25], [0.125, 4.0]]
        decoded = unpack_frame(pack_frame(header, arrays))
        assert decoded["requests"][0]["weights"] == arrays[0]
        assert decoded["requests"][1]["weights"] == arrays[1]
        assert decoded["requests"][1]["nested"][0]["deep"] == arrays[0]

    def test_zero_array_frame_is_exactly_the_header(self):
        payload = {"protocol": 1, "result": {"weight": 12.5, "links": [1, 2]}}
        frame = pack_frame(payload)
        assert frame.startswith(FRAME_MAGIC)
        assert unpack_frame(frame) == payload
        # The header bytes are the compact JSON serialization — the
        # byte-for-byte response contract depends on this.
        compact = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        assert compact in frame

    @pytest.mark.parametrize("mutate, what", [
        (lambda f: b"XXXX" + f[4:], "magic"),
        (lambda f: f[:10], "truncated header"),
        (lambda f: f + b"\x00", "trailing bytes"),
        (lambda f: f[:4] + (2 ** 30).to_bytes(4, "little") + f[8:],
         "oversized header length"),
    ])
    def test_malformed_frames_raise_bad_frame(self, mutate, what):
        frame = pack_frame({"a": 1}, [[1.0, 2.0]])
        with pytest.raises(ProtocolError) as excinfo:
            unpack_frame(mutate(frame))
        assert excinfo.value.code == "bad-frame", what

    def test_non_json_header_raises_bad_frame(self):
        head = b"not json"
        frame = (
            FRAME_MAGIC + len(head).to_bytes(4, "little") + head
            + (0).to_bytes(4, "little")
        )
        with pytest.raises(ProtocolError) as excinfo:
            unpack_frame(frame)
        assert excinfo.value.code == "bad-frame"

    def test_out_of_range_array_reference_raises_bad_frame(self):
        frame = pack_frame({"weights": {"__frame__": 3}}, [[1.0]])
        with pytest.raises(ProtocolError) as excinfo:
            unpack_frame(frame)
        assert excinfo.value.code == "bad-frame"


# ---------------------------------------------------------------------------
# the wire: framed requests/responses against the real stack
# ---------------------------------------------------------------------------


def serve_session(coro_fn):
    """Boot an inline-worker server, run ``coro_fn(server)``, tear down."""
    from repro.serve.app import ServeApp, ServeConfig
    from repro.serve.server import HttpServer

    async def main():
        server = HttpServer(ServeApp(ServeConfig(workers=0)), port=0)
        await server.start()
        try:
            return await coro_fn(server)
        finally:
            await server.aclose()

    return asyncio.run(main())


async def raw_request(
    server, path: str, body: bytes, content_type: str, accept: str
) -> tuple[int, bytes, str]:
    """One raw round trip returning the untouched response body bytes."""
    reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
    try:
        writer.write((
            f"POST {path} HTTP/1.1\r\n"
            f"Host: x\r\nContent-Type: {content_type}\r\n"
            f"Accept: {accept}\r\nContent-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        ).encode("latin-1") + body)
        await writer.drain()
        status_line = await reader.readline()
        status = int(status_line.decode("latin-1").split()[1])
        length, ctype = 0, ""
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n"):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
            elif name.strip().lower() == "content-type":
                ctype = value.strip()
        return status, await reader.readexactly(length), ctype
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


def _batch_bodies(graph):
    """Equivalent framed and plain ``/v1/solve_batch`` bodies."""
    columns = perturbed_columns(graph, 2, seed=17)
    payload = graph_payload(graph)
    header = {"requests": [
        {"graph": payload, "weights": {"__frame__": k}, "eps": 0.5}
        for k in range(len(columns))
    ]}
    plain = {"requests": [
        {"graph": payload, "weights": columns[k], "eps": 0.5}
        for k in range(len(columns))
    ]}
    return header, columns, plain


def test_framed_request_equals_json_request():
    graph = make_family_instance("cycle_chords", 20, seed=14)
    header, columns, plain = _batch_bodies(graph)

    async def scenario(server):
        framed_status, framed_body, _ = await raw_request(
            server, "/v1/solve_batch", pack_frame(header, columns),
            FRAME_CONTENT_TYPE, "application/json",
        )
        plain_status, plain_body, _ = await raw_request(
            server, "/v1/solve_batch",
            json.dumps(plain).encode(), "application/json",
            "application/json",
        )
        return framed_status, framed_body, plain_status, plain_body

    framed_status, framed_body, plain_status, plain_body = serve_session(
        scenario
    )
    assert framed_status == plain_status == 200
    assert framed_body == plain_body


def test_framed_response_decodes_to_exact_json_body():
    graph = make_family_instance("grid", 16, seed=15)
    header, columns, _ = _batch_bodies(graph)

    async def scenario(server):
        body = pack_frame(header, columns)
        _, plain_body, plain_type = await raw_request(
            server, "/v1/solve_batch", body, FRAME_CONTENT_TYPE,
            "application/json",
        )
        _, frame_body, frame_type = await raw_request(
            server, "/v1/solve_batch", body, FRAME_CONTENT_TYPE,
            FRAME_CONTENT_TYPE,
        )
        return plain_body, plain_type, frame_body, frame_type

    plain_body, plain_type, frame_body, frame_type = serve_session(scenario)
    assert plain_type.startswith("application/json")
    assert frame_type.startswith(FRAME_CONTENT_TYPE)
    assert frame_body.startswith(FRAME_MAGIC)
    decoded = unpack_frame(frame_body)
    assert json.dumps(
        decoded, separators=(",", ":")
    ).encode("utf-8") == plain_body
    # Deterministic solves: the two independent requests answered equal.
    assert decoded == json.loads(plain_body)


def test_malformed_frame_body_gets_structured_error():
    async def scenario(server):
        return await raw_request(
            server, "/v1/solve_batch", b"garbage-not-a-frame",
            FRAME_CONTENT_TYPE, "application/json",
        )

    status, body, _ = serve_session(scenario)
    assert status == 400
    assert json.loads(body)["error"]["code"] == "bad-frame"


def test_framed_delta_request_equals_json_delta():
    graph = make_family_instance("cycle_chords", 18, seed=16)
    payload = graph_payload(graph)
    register = {"graph": payload, "eps": 0.5}
    edges = payload["edges"]
    delta_body = {
        "topology": None,  # filled after registration
        "delta": [[edges[0][0], edges[0][1], edges[0][2] * 2.0]],
        "eps": 0.5,
    }

    async def scenario(server):
        _, reg_body, _ = await raw_request(
            server, "/v1/solve", json.dumps(register).encode(),
            "application/json", "application/json",
        )
        delta_body["topology"] = json.loads(reg_body)["topology"]
        raw = json.dumps(delta_body).encode()
        _, plain, _ = await raw_request(
            server, "/v1/delta", raw, "application/json", "application/json"
        )
        _, framed, _ = await raw_request(
            server, "/v1/delta", pack_frame(delta_body), FRAME_CONTENT_TYPE,
            "application/json",
        )
        return plain, framed

    plain, framed = serve_session(scenario)
    assert plain == framed
    assert json.loads(plain)["result"]


# ---------------------------------------------------------------------------
# loadgen montecarlo smoke
# ---------------------------------------------------------------------------


@needs_numpy
@pytest.mark.parametrize("binary", [False, True])
def test_loadgen_montecarlo_smoke(binary):
    from repro.serve.app import ServeConfig
    from repro.serve.loadgen import LoadgenConfig, run_loadgen

    cfg = LoadgenConfig(
        mode="montecarlo", duration_s=30.0, requests=3, concurrency=1,
        batch=4, binary=binary, size=24, topologies=1, scenarios=2,
        drift_edges=0.05, seed=3,
    )
    summary = run_loadgen(cfg, spawn=ServeConfig(workers=0))
    assert summary["mode"] == "montecarlo"
    assert summary["protocol_errors"] == 0
    assert summary["transport_errors"] == 0
    assert summary["ok"] >= 2 * cfg.batch  # post-registration scenarios
    assert summary["frames"] == (summary["requests"] if binary else 0)
