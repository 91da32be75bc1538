"""The k-ECSS differential wall: every backend vs the MILP ground truth.

Three layers of trust, mirroring the 2-ECSS suite:

* **optimality band** — for ``k in {2, 3, 4}`` and every registered
  compute backend, the iterated-augmentation solver's weight sits between
  the :func:`repro.baselines.exact_milp.exact_k_ecss_milp` optimum and
  ``guarantee * optimum`` on seeded instances with ``n <= 12``;
* **feasibility exact** — every output passes the independent
  :func:`repro.core.k_ecss.assert_k_edge_connected` certificate;
* **k = 2 is the existing algorithm** — ``approximate_k_ecss(g, 2)`` is
  bit-identical to :func:`repro.core.tecss.approximate_two_ecss` through
  the core, runtime, and serve serializer entry points.
"""

from __future__ import annotations

import random

import networkx as nx
import pytest

from repro.baselines.exact_milp import exact_k_ecss_milp, exact_two_ecss_milp
from repro.core.k_ecss import (
    MAX_K,
    approximate_k_ecss,
    assert_k_edge_connected,
    degree_lower_bound,
)
from repro.core.result import KEcssResult
from repro.core.tecss import approximate_two_ecss
from repro.exceptions import NotKEdgeConnectedError
from repro.graphs import cycle_with_chords
from repro.runtime.registry import (
    backend_names,
    get_backend,
    resolve_compute,
)
from repro.runtime.session import SolverSession
from repro.serve.protocol import result_to_payload

from conftest import needs_milp


def _runnable_compute_backends() -> list[str]:
    """Every registered compute backend that can execute here."""
    names = []
    for name in backend_names("compute"):
        try:
            resolve_compute(name)
        except Exception:
            continue  # e.g. "fast" without numpy
        names.append(name)
    return names


COMPUTE_BACKENDS = _runnable_compute_backends()


def k_connected_instance(n: int, k: int, seed: int) -> nx.Graph:
    """A seeded weighted graph with edge connectivity >= k (n <= 12)."""
    rng = random.Random(seed)
    for attempt in range(200):
        g = nx.gnp_random_graph(n, 0.6, seed=seed * 1000 + attempt)
        if g.number_of_edges() and nx.edge_connectivity(g) >= k:
            for u, v in sorted(g.edges()):
                g[u][v]["weight"] = round(rng.uniform(1.0, 20.0), 3)
            return g
    raise AssertionError(f"no {k}-connected instance at n={n}, seed={seed}")


class TestDifferentialWall:
    @needs_milp
    @pytest.mark.parametrize("backend", COMPUTE_BACKENDS)
    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_weight_in_optimality_band(self, backend, k, seed):
        g = k_connected_instance(8 + 2 * (seed % 3), k, seed)
        res = approximate_k_ecss(g, k, backend=backend)
        assert_k_edge_connected(g, res.edges, k)
        opt = exact_k_ecss_milp(g, k)
        assert opt.weight <= res.weight + 1e-9
        assert res.weight <= res.guarantee * opt.weight + 1e-9

    @needs_milp
    @pytest.mark.parametrize("k", [3, 4])
    def test_certified_lower_bound_is_a_lower_bound(self, k):
        g = k_connected_instance(10, k, seed=7)
        res = approximate_k_ecss(g, k)
        opt = exact_k_ecss_milp(g, k)
        assert res.certified_lower_bound <= opt.weight + 1e-9
        assert res.certified_ratio >= 1.0 - 1e-9
        triples = [(u, v, d["weight"]) for u, v, d in g.edges(data=True)]
        assert res.degree_lower_bound == pytest.approx(
            degree_lower_bound(g.number_of_nodes(), triples, k)
        )

    @needs_milp
    def test_k2_milp_equals_two_ecss_milp(self):
        g = k_connected_instance(9, 2, seed=4)
        assert exact_k_ecss_milp(g, 2).weight == pytest.approx(
            exact_two_ecss_milp(g).weight, rel=1e-9
        )


class TestK2BitIdentity:
    @pytest.mark.parametrize("backend", COMPUTE_BACKENDS)
    def test_core_runtime_serializer_agree(self, backend):
        g = cycle_with_chords(24, 10, seed=5)
        want = result_to_payload(
            approximate_two_ecss(g, eps=0.5, backend=backend)
        )
        via_k = result_to_payload(
            approximate_k_ecss(g, 2, eps=0.5, backend=backend)
        )
        via_session = result_to_payload(
            SolverSession(g).solve(eps=0.5, backend=backend, k=2)
        )
        assert via_k == want
        assert via_session == want


class TestBackendBitIdentity:
    @pytest.mark.parametrize("k", [3, 4])
    def test_all_backends_identical(self, k):
        if len(COMPUTE_BACKENDS) < 2:
            pytest.skip("only one runnable compute backend")
        g = k_connected_instance(11, k, seed=9)
        payloads = [
            result_to_payload(approximate_k_ecss(g, k, backend=b))
            for b in COMPUTE_BACKENDS
        ]
        assert all(p == payloads[0] for p in payloads[1:])


class TestSessionReuse:
    def test_k_round_memo_is_bit_identical(self):
        g = k_connected_instance(10, 4, seed=2)
        session = SolverSession(g)
        r3 = session.solve(k=3)
        r4 = session.solve(k=4)  # extends the cached rounds of the k=3 solve
        assert isinstance(r3, KEcssResult) and isinstance(r4, KEcssResult)
        assert r4.rounds[0].edges == r3.rounds[0].edges
        fresh = SolverSession(g).solve(k=4)
        assert result_to_payload(r4) == result_to_payload(fresh)
        one_shot = approximate_k_ecss(g, 4)
        assert result_to_payload(r4) == result_to_payload(one_shot)
        times = session.stats()["build_times_s"]
        assert "kecss:3" in times and "kecss:4" in times

    def test_sim_engine_rejects_k(self):
        g = k_connected_instance(10, 3, seed=3)
        with pytest.raises(ValueError, match="k-ecss"):
            SolverSession(g).solve(engine="sim", k=3)


class TestValidation:
    def test_infeasible_input_raises(self):
        g = cycle_with_chords(16, 2, seed=1)  # 2- but not 3-edge-connected
        assert nx.edge_connectivity(g) < 3
        with pytest.raises(NotKEdgeConnectedError):
            approximate_k_ecss(g, 3)

    @pytest.mark.parametrize("k", [0, 1, -2, 2.5, True, MAX_K + 1])
    def test_bad_k_rejected(self, k):
        g = cycle_with_chords(12, 3, seed=1)
        with pytest.raises(ValueError):
            approximate_k_ecss(g, k)

    def test_engine_capability_is_enforced_in_registry(self):
        assert get_backend("engine", "local").has("k-ecss")
        assert not get_backend("engine", "sim").has("k-ecss")
        for name in COMPUTE_BACKENDS:
            concrete = resolve_compute(name)
            assert get_backend("compute", concrete).has("k-ecss")
