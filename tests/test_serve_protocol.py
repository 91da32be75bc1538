"""Schema-validation tests for the serving wire protocol."""

from __future__ import annotations

import pytest

from repro.graphs import cycle_with_chords
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    failure_plan_from_payload,
    fingerprint_graph,
    graph_from_payload,
    graph_payload,
    parse_graph_payload,
    parse_solve_request,
    result_to_payload,
)


def _edges(*triples):
    return {"edges": [list(t) for t in triples]}


def _err(body) -> ProtocolError:
    with pytest.raises(ProtocolError) as excinfo:
        parse_solve_request(body)
    return excinfo.value


class TestRequestParsing:
    def test_minimal_graph_request(self):
        req = parse_solve_request(
            {"graph": _edges((0, 1, 1.0), (1, 2, 2), (2, 0, 3.0))}
        )
        assert req.topology == fingerprint_graph(req.graph)
        assert req.graph["nodes"] == [0, 1, 2]
        assert req.eps == 0.25 and req.variant == "improved"
        assert req.backend is None and req.engine is None

    def test_topology_reference_request(self):
        req = parse_solve_request({"topology": "abc123", "eps": 0.5})
        assert req.topology == "abc123" and req.graph is None

    def test_graph_and_topology_are_exclusive(self):
        body = {"graph": _edges((0, 1, 1)), "topology": "x"}
        assert _err(body).code == "bad-request"
        assert _err({}).code == "bad-request"

    def test_protocol_version_checked(self):
        body = {"graph": _edges((0, 1, 1)), "protocol": 99}
        err = _err(body)
        assert err.code == "unsupported-protocol"
        assert str(PROTOCOL_VERSION) in str(err)

    def test_unknown_field_rejected(self):
        err = _err({"graph": _edges((0, 1, 1)), "epsilon": 0.5})
        assert err.code == "unknown-field" and err.field == "epsilon"

    @pytest.mark.parametrize("eps", [0, -1, "x", float("nan"), True])
    def test_bad_eps(self, eps):
        err = _err({"graph": _edges((0, 1, 1)), "eps": eps})
        assert err.code == "invalid-field" and err.field == "eps"

    def test_bad_variant_and_bools(self):
        g = _edges((0, 1, 1))
        assert _err({"graph": g, "variant": "best"}).field == "variant"
        assert _err({"graph": g, "segmented": "yes"}).field == "segmented"
        assert _err({"graph": g, "validate": 1}).field == "validate"

    def test_unknown_backend_lists_registered(self):
        err = _err({"graph": _edges((0, 1, 1)), "backend": "warp"})
        assert err.code == "unknown-backend"
        assert "reference" in str(err)
        err = _err({"graph": _edges((0, 1, 1)), "engine": "quantum"})
        assert err.code == "unknown-backend"
        assert "sim" in str(err)

    def test_bad_weights(self):
        g = _edges((0, 1, 1))
        assert _err({"graph": g, "weights": []}).code == "invalid-weight"
        assert _err({"graph": g, "weights": [-1.0]}).code == "invalid-weight"
        assert _err({"graph": g, "weights": ["a"]}).code == "invalid-weight"


class TestGraphPayload:
    def test_duplicate_edge_rejected_either_orientation(self):
        with pytest.raises(ProtocolError) as e:
            parse_graph_payload(_edges((0, 1, 1), (1, 0, 2)))
        assert e.value.code == "duplicate-edge"

    def test_self_loop_and_bad_labels(self):
        with pytest.raises(ProtocolError, match="self-loop"):
            parse_graph_payload(_edges((3, 3, 1)))
        with pytest.raises(ProtocolError, match="label"):
            parse_graph_payload(_edges(([1], 2, 1)))
        with pytest.raises(ProtocolError, match="label"):
            parse_graph_payload(_edges((True, 2, 1)))

    def test_bad_weights(self):
        for w in (-1, float("inf"), None, "x"):
            with pytest.raises(ProtocolError):
                parse_graph_payload(_edges((0, 1, w)))

    def test_int_and_str_labels_are_distinct(self):
        payload = parse_graph_payload(_edges((1, "1", 1.0), ("1", 2, 1.0)))
        assert payload["nodes"] == [1, "1", 2]

    def test_explicit_nodes_checked(self):
        with pytest.raises(ProtocolError, match="duplicates"):
            parse_graph_payload({"nodes": [0, 0], "edges": [[0, 1, 1]]})
        with pytest.raises(ProtocolError, match="missing"):
            parse_graph_payload({"nodes": [0, 1], "edges": [[0, 2, 1]]})

    def test_round_trip_preserves_identity(self):
        g = cycle_with_chords(24, 9, seed=3)
        payload = graph_payload(g)
        parsed = parse_graph_payload(payload)
        assert parsed == payload
        rebuilt = graph_from_payload(parsed)
        assert list(rebuilt.nodes()) == list(g.nodes())
        assert list(rebuilt.edges(data=True)) == list(g.edges(data=True))

    def test_fingerprint_sensitive_to_order_and_weights(self):
        a = parse_graph_payload(_edges((0, 1, 1), (1, 2, 1), (2, 0, 1)))
        b = parse_graph_payload(_edges((1, 2, 1), (0, 1, 1), (2, 0, 1)))
        c = parse_graph_payload(_edges((0, 1, 2), (1, 2, 1), (2, 0, 1)))
        keys = {fingerprint_graph(p) for p in (a, b, c)}
        assert len(keys) == 3
        assert fingerprint_graph(a) == fingerprint_graph(
            parse_graph_payload(_edges((0, 1, 1), (1, 2, 1), (2, 0, 1)))
        )


class TestFailureSpecs:
    def test_random_spec_builds_seeded_plan(self):
        g = cycle_with_chords(12, 4, seed=1)
        spec = {"random": {"p": 0.3, "max_rounds": 5, "seed": 7}}
        plan1 = failure_plan_from_payload(spec, g)
        plan2 = failure_plan_from_payload(spec, g)
        assert plan1.by_round == plan2.by_round
        assert not plan1.empty()

    def test_edges_spec(self):
        plan = failure_plan_from_payload(
            {"edges": [{"u": 0, "v": 1, "rounds": [1, 2]},
                       {"u": 2, "v": 3}]},
            None,
        )
        assert plan.is_down(1, 0, 1) and plan.is_down(2, 1, 0)
        assert not plan.is_down(3, 0, 1)
        assert plan.is_down(99, 2, 3)  # no rounds = every round

    def test_bad_specs(self):
        g = _edges((0, 1, 1))
        for spec in (
            {"random": {"p": 2.0, "max_rounds": 5}},
            {"random": {"p": 0.5, "max_rounds": 0}},
            {"edges": [{"u": 0}]},
            {"edges": [{"u": 0, "v": 1, "rounds": [0]}]},
            {"edges": [{"u": True, "v": 1}]},
            {"edges": [{"u": 0, "v": [1]}]},
            {"nope": 1},
            [],
        ):
            err = _err({"graph": g, "failures": spec})
            assert err.code == "invalid-failures"


class TestResultSerialization:
    def test_payload_is_json_canonical(self):
        import json

        from repro.core.tecss import approximate_two_ecss

        g = cycle_with_chords(20, 8, seed=2)
        res = approximate_two_ecss(g, eps=0.5)
        payload = result_to_payload(res)
        assert payload == json.loads(json.dumps(payload))
        assert payload["type"] == "two_ecss"
        assert payload["weight"] == res.weight
        assert payload["edges"] == [list(e) for e in res.edges]
        aug = payload["augmentation"]
        assert aug["dual_bound"] == res.augmentation.dual_bound
        assert all(isinstance(k, str) for k in aug["iterations_per_epoch"])

    def test_dist_payload(self):
        from repro.dist.pipeline import distributed_two_ecss

        g = cycle_with_chords(18, 6, seed=4)
        dist = distributed_two_ecss(g, eps=0.5)
        payload = result_to_payload(dist)
        assert payload["type"] == "dist_two_ecss"
        assert payload["measured_rounds"] == dist.measured_rounds
        assert payload["result"]["weight"] == dist.result.weight
        assert payload["comparison"] == dist.comparison


class TestKField:
    def test_k_defaults_to_two_and_round_trips(self):
        assert parse_solve_request({"graph": _edges((0, 1, 1))}).k == 2
        req = parse_solve_request({"graph": _edges((0, 1, 1)), "k": 3})
        assert req.k == 3

    def test_max_k_accepted(self):
        from repro.core.k_ecss import MAX_K

        req = parse_solve_request({"graph": _edges((0, 1, 1)), "k": MAX_K})
        assert req.k == MAX_K

    @pytest.mark.parametrize("k", [0, 1, -1, 2.5, "3", True, False])
    def test_unsupported_k_rejected(self, k):
        err = _err({"graph": _edges((0, 1, 1)), "k": k})
        assert err.code == "unsupported-k" and err.field == "k"

    def test_k_above_capability_rejected(self):
        from repro.core.k_ecss import MAX_K

        err = _err({"graph": _edges((0, 1, 1)), "k": MAX_K + 1})
        assert err.code == "unsupported-k" and err.field == "k"
        assert str(MAX_K) in str(err)

    def test_delta_rejects_k_not_two(self):
        from repro.serve.protocol import parse_delta_request

        body = {"topology": "t", "delta": [[0, 1, 2.0]], "k": 2}
        assert parse_delta_request(body).k == 2
        for k in (3, 4):
            with pytest.raises(ProtocolError) as excinfo:
                parse_delta_request(
                    {"topology": "t", "delta": [[0, 1, 2.0]], "k": k}
                )
            assert excinfo.value.code == "unsupported-k"
            assert excinfo.value.field == "k"

    def test_k_ecss_payload(self):
        import json

        from repro.core.k_ecss import approximate_k_ecss
        from repro.graphs import erdos_renyi_2ec

        g = erdos_renyi_2ec(14, 0.6, seed=3)
        res = approximate_k_ecss(g, 3)
        payload = result_to_payload(res)
        assert payload == json.loads(json.dumps(payload))
        assert payload["type"] == "k_ecss" and payload["k"] == 3
        assert payload["weight"] == res.weight
        assert payload["edges"] == [list(e) for e in res.edges]
        assert payload["guarantee"] == res.guarantee
        assert payload["certified_lower_bound"] == res.certified_lower_bound
        assert [r["j"] for r in payload["rounds"]] == [3]
        assert payload["base"]["type"] == "two_ecss"
        assert payload["base"]["weight"] == res.base.weight
