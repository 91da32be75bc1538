"""Output checks: a solve result against the one-shot API and the graph.

Results are compared in their canonical wire form
(:func:`repro.serve.protocol.result_to_payload`), which carries every
result field, so equal payloads mean equal results field for field and a
served result compares directly with an in-process one.  Independently of
any reference, the chosen edges must form a spanning 2-edge-connected
subgraph of the solved graph whose reported weights match its edges.
"""

from __future__ import annotations

import math

import networkx as nx


def first_difference(got, want, path: str = "result") -> "str | None":
    """The path of the first field where two payloads differ, or ``None``."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or got.keys() != want.keys():
            return path
        for key in want:
            diff = first_difference(got[key], want[key], f"{path}.{key}")
            if diff is not None:
                return diff
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return path
        for i, (a, b) in enumerate(zip(got, want)):
            diff = first_difference(a, b, f"{path}[{i}]")
            if diff is not None:
                return diff
        return None
    return None if got == want and type(got) is type(want) else path


def structural_problem(graph: nx.Graph, payload: dict) -> "str | None":
    """Why ``payload`` is not a valid 2-ECSS of ``graph``, or ``None``."""
    edges = [tuple(edge) for edge in payload["edges"]]
    for u, v in edges:
        if not graph.has_edge(u, v):
            return f"edge ({u!r}, {v!r}) is not in the graph"
    if len({frozenset(edge) for edge in edges}) != len(edges):
        return "an edge is listed twice"
    sub = nx.Graph()
    sub.add_nodes_from(graph)
    sub.add_edges_from(edges)
    if not nx.is_connected(sub) or nx.has_bridges(sub):
        return "the chosen edges are not 2-edge-connected and spanning"
    chosen = {frozenset(edge) for edge in edges}
    if any(frozenset(edge) not in chosen for edge in payload["mst_edges"]):
        return "an MST edge is missing from the chosen edges"
    for key, listed in (("weight", edges), ("mst_weight", payload["mst_edges"])):
        total = math.fsum(graph[u][v]["weight"] for u, v in listed)
        if not math.isclose(total, payload[key], rel_tol=1e-9, abs_tol=1e-9):
            return f"{key} {payload[key]!r} != edge sum {total!r}"
    return None


def check_output(graph: nx.Graph, got: dict, want: dict) -> "str | None":
    """One sampled op's verdict: ``None`` when correct, else the reason."""
    diff = first_difference(got, want)
    if diff is not None:
        return f"differs from the reference at {diff}"
    return structural_problem(graph, got)
