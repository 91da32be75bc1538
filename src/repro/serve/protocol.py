"""The serving wire protocol: versioned JSON requests, canonical results.

Everything that crosses the HTTP boundary is defined here, in one place,
so the server (:mod:`repro.serve.app`), the workers
(:mod:`repro.serve.workers`), the load generator
(:mod:`repro.serve.loadgen`) and the differential tests all share one
schema.  The protocol is versioned (:data:`PROTOCOL_VERSION`); a request
naming a different version is rejected with a structured error instead of
being misinterpreted.

**Requests** (``POST /v1/solve``) mirror
:class:`repro.runtime.session.SolveQuery` — ``eps`` / ``variant`` /
``segmented`` / ``validate`` / ``backend`` / ``engine`` /
``simulate_mst`` — plus the graph itself and two serving-only fields:

* ``graph``: ``{"nodes": [...], "edges": [[u, v, w], ...]}`` — the full
  weighted edge list (int or str node labels, ``w >= 0``).  ``nodes`` is
  optional (defaulting to edge-encounter order) but part of the graph's
  identity: node order drives normalization and MST tie-breaking, so two
  payloads differing only in node order are different topologies — and
  :func:`graph_payload` always emits it so a served solve is bit-identical
  to a one-shot call on the original ``nx.Graph``.  The response echoes a
  ``topology`` fingerprint of this payload;
* ``topology``: that fingerprint, sent *instead of* ``graph`` by clients
  re-querying a topology the server already knows (the repeated-reweight
  traffic the service exists for) — typically combined with
* ``weights``: a per-request weight column aligned with the registered
  edge order (:meth:`repro.runtime.handle.GraphHandle.reweight`);
* ``failures``: a failure-plan spec (see
  :func:`failure_plan_from_payload`) for engines with the
  ``failure-injection`` capability.

``POST /v1/delta`` is the sparse counterpart of a topology + ``weights``
re-query: ``{"topology": ..., "delta": [[u, v, w], ...]}`` names only the
edges whose weights drifted, *as diffs against the registered baseline
weights* (idempotent and order-independent, so batcher coalescing and
client retries are safe).  It is parsed by :func:`parse_delta_request`
into the same :class:`SolveRequest` shape (``delta`` field set) and served
by the incremental plan-derivation path
(:meth:`repro.runtime.session.SolverSession.solve` with
``weights_delta``), bit-identical to the equivalent full-column request.
A delta request can never register a topology: when the server no longer
knows the fingerprint it answers a structured ``unknown-topology`` 404 and
the client degrades to a full ``/v1/solve`` with graph + weight column.

The schema's k-readiness paid off: the k-ECSS generalization (Dory,
arXiv:1805.07764) is the optional ``k`` field (default 2, so version 1
clients are unaffected).  ``k`` rides both ``/v1/solve`` and
``/v1/solve_batch``; unsupported values — non-integers, ``k < 2``, or
``k`` above the :data:`repro.core.k_ecss.MAX_K` capability advertised by
``GET /backends`` — are rejected with the stable ``unsupported-k`` code,
and ``/v1/delta`` rejects any ``k != 2`` outright (its incremental path
re-solves 2-ECSS baselines only; silently downgrading would be wrong).

**Responses** carry the solve result serialized by
:func:`result_to_payload` — a *canonical* JSON form (tuples to lists, int
dict keys to strings, exact float round-trip) with the property that the
payload built from a one-shot
:func:`repro.core.tecss.approximate_two_ecss` /
:func:`repro.dist.pipeline.distributed_two_ecss` call compares ``==`` to
the JSON-decoded wire payload for the same parameters.  That equality is
the serving layer's bit-identity contract, held by
``tests/test_serve_wire.py``.

**Binary frames** are the opt-in wire encoding for weight-heavy bodies,
negotiated by content type (:data:`FRAME_CONTENT_TYPE`; JSON remains the
default and the fallback).  A frame is the magic :data:`FRAME_MAGIC`, a
length-prefixed JSON header, and length-prefixed little-endian float64
arrays; any header node of the form ``{"__frame__": k}`` stands for array
``k``, so a ``/v1/solve_batch`` body ships its scenario weight columns as
raw doubles instead of decimal text (~2.6x smaller, no float parsing) while
the header keeps the full JSON schema.  :func:`unpack_frame` substitutes
the arrays back, making a framed request *equal as a parsed object* to its
JSON twin — note the arrays are float64 by declaration, so the JSON twin
of a framed request writes its weights as floats (``1.0``, not ``1``).
Responses to clients that ``Accept`` the frame type wrap the exact JSON
payload in a zero-array frame.  Malformed frames fail with the structured
``bad-frame`` code, never a struct error.

**Errors** are structured JSON, never tracebacks:
``{"protocol": 1, "error": {"code": ..., "message": ..., "field": ...}}``
with the HTTP status carried by :class:`ProtocolError`.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

from repro.graphs.validation import valid_weight

if TYPE_CHECKING:  # heavy imports stay lazy at runtime
    import networkx as nx

    from repro.core.result import KEcssResult, TapResult, TwoEcssResult
    from repro.sim.failures import FailurePlan

__all__ = [
    "ERROR_CODES",
    "FRAME_CONTENT_TYPE",
    "FRAME_MAGIC",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "SolveRequest",
    "error_payload",
    "failure_plan_from_payload",
    "fingerprint_graph",
    "graph_from_payload",
    "graph_payload",
    "pack_frame",
    "parse_delta_request",
    "parse_graph_payload",
    "parse_solve_request",
    "result_to_payload",
    "unpack_frame",
]

#: Version tag of the request/response schema.  Bump on breaking changes;
#: requests carrying a different ``protocol`` value are rejected.
PROTOCOL_VERSION = 1

#: Top-level request keys version 1 understands (typos fail loudly).
#: ``timings`` is additive and serving-only: it asks the server to attach
#: a per-phase timing breakdown to the response envelope — never to the
#: ``result`` payload, whose bit-identity contract is timing-free.
_REQUEST_KEYS = frozenset({
    "protocol", "graph", "topology", "weights", "failures",
    "eps", "variant", "segmented", "validate", "backend", "engine",
    "simulate_mst", "k", "timings",
})

#: Top-level keys of a ``/v1/delta`` request: a topology reference plus
#: the sparse diff — never a graph (deltas cannot register topologies)
#: and never a full weight column.  ``k`` is accepted but must be 2:
#: the delta path re-solves 2-ECSS baselines only, and silently solving
#: ``k=2`` for a ``k=3`` client would be a correctness bug.
_DELTA_KEYS = frozenset({
    "protocol", "topology", "delta",
    "eps", "variant", "segmented", "validate", "backend", "engine",
    "simulate_mst", "k", "timings",
})

_VARIANTS = ("improved", "basic")


class ProtocolError(Exception):
    """A structured request/serving error: machine-readable, never a traceback.

    ``code`` is a stable kebab-case identifier clients can dispatch on,
    ``field`` names the offending request field when there is one, and
    ``status`` is the HTTP status the server responds with.
    """

    def __init__(
        self,
        code: str,
        message: str,
        field: str | None = None,
        status: int = 400,
    ) -> None:
        super().__init__(message)
        self.code = code
        self.field = field
        self.status = status

    def payload(self) -> dict:
        """The error as a protocol-versioned response body."""
        return error_payload(self.code, str(self), self.field)


def error_payload(code: str, message: str, field: str | None = None) -> dict:
    """Build the canonical error response body."""
    error: dict = {"code": code, "message": message}
    if field is not None:
        error["field"] = field
    return {"protocol": PROTOCOL_VERSION, "error": error}


#: The closed set of error codes this protocol version can put on the
#: wire: ``code -> (typical HTTP status, meaning)``.  Clients dispatch on
#: these strings, so the set is part of the protocol surface — every code
#: raised anywhere in ``repro.serve`` must be declared here and in the
#: error-code table of ``docs/ARCHITECTURE.md`` (the ``proto-error-code``
#: lint rule enforces both directions).
ERROR_CODES: "dict[str, tuple[int, str]]" = {
    "bad-frame": (400, "binary frame body is malformed (magic, lengths, header, or array reference)"),
    "bad-http": (400, "malformed HTTP request line, headers, or body framing"),
    "bad-json": (400, "request body is not valid JSON"),
    "bad-request": (400, "request body or parameter fails schema validation"),
    "batch-too-large": (413, "batch exceeds the server's max_batch limit"),
    "duplicate-edge": (400, "graph payload repeats an (u, v) edge"),
    "internal-error": (500, "unexpected server-side failure (bug, not user error)"),
    "invalid-failures": (400, "failure spec is malformed or references unknown edges"),
    "invalid-field": (400, "a request field has the wrong type or value"),
    "invalid-graph": (400, "graph payload is structurally malformed"),
    "invalid-request": (400, "solver-side graph format rejection (GraphFormatError)"),
    "invalid-weight": (400, "edge weight is missing, non-numeric, or non-finite"),
    "method-not-allowed": (405, "route exists but not for this HTTP method"),
    "not-connected": (422, "input graph is not connected"),
    "not-found": (404, "no such route"),
    "not-k-edge-connected": (422, "input graph has edge connectivity below k"),
    "not-two-edge-connected": (422, "input graph has a bridge; no 2-ECSS exists"),
    "solver-error": (500, "solver raised an unclassified exception"),
    "unknown-backend": (400, "backend/engine name is not registered"),
    "unknown-field": (400, "request carries a key the protocol does not define"),
    "unknown-topology": (404, "topology fingerprint is not registered on this shard"),
    "unsupported-k": (400, "k is out of the range this deployment solves"),
    "unsupported-protocol": (400, "request's protocol version is not supported"),
}


@dataclass
class SolveRequest:
    """One parsed, schema-validated solve request.

    ``graph`` holds the canonical graph payload dict
    (``{"nodes": [...], "edges": [...]}``) when the client sent one
    (``None`` for topology-referencing requests); ``topology`` is the
    fingerprint — filled in from ``graph`` at parse time, so it is always
    set on a valid request.  ``delta`` is set only for ``/v1/delta``
    requests: the validated ``[[u, v, w], ...]`` sparse diff against the
    topology's baseline weights.  Solver-level validation (feasibility,
    weight column length, delta edges existing, backend resolution)
    happens in the worker, where the session lives.
    """

    topology: str
    graph: dict | None = None
    weights: list | None = None
    delta: list | None = None
    failures: dict | None = None
    eps: float = 0.25
    variant: str = "improved"
    segmented: bool = True
    validate: bool = True
    backend: str | None = None
    engine: str | None = None
    simulate_mst: bool = False
    k: int = 2
    timings: bool = False
    extra: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# graph payloads
# ---------------------------------------------------------------------------


def fingerprint_graph(graph: dict) -> str:
    """SHA-1 fingerprint of a canonical graph payload.

    Node and edge *order* are part of the identity — normalization and
    downstream tie-breaking depend on both — and so are the baseline
    weights, since requests without a ``weights`` override solve under
    them.
    """
    payload = json.dumps(
        {"nodes": graph["nodes"], "edges": graph["edges"]},
        separators=(",", ":"),
    )
    return hashlib.sha1(payload.encode()).hexdigest()


def _check_label(
    label: object, index: int, end: str, field_name: str = "graph"
) -> None:
    """Validate one node label (int or str, bools rejected)."""
    if isinstance(label, bool) or not isinstance(label, (int, str)):
        raise ProtocolError(
            "invalid-graph",
            f"edge {index}: {end} label must be an int or str, "
            f"got {type(label).__name__}",
            field=field_name,
        )
    return label


def _check_weight(w: object, index: int, field_name: str) -> None:
    """Validate one edge weight (a number passing :func:`valid_weight`)."""
    if isinstance(w, bool) or not isinstance(w, (int, float)):
        raise ProtocolError(
            "invalid-weight",
            f"{field_name}[{index}]: weight must be a number, "
            f"got {type(w).__name__}",
            field=field_name,
        )
    if not valid_weight(w):
        raise ProtocolError(
            "invalid-weight",
            f"{field_name}[{index}]: weight must be >= 0 and within float "
            f"range, got {w!r}",
            field=field_name,
        )
    return w


def parse_graph_payload(obj: object) -> dict:
    """Validate a graph payload; return its canonical dict form.

    Input is ``{"edges": [[u, v, w], ...]}`` with an optional ``"nodes"``
    list fixing the node order (defaulting to edge-encounter order); the
    return value always carries both keys.  Rejects — with field-level
    errors — non-list shapes, bad labels, self-loops, bad weights,
    **duplicate edges** (``nx.Graph`` would silently collapse one, last
    weight winning — exactly the kind of surprise an untrusted payload
    must not trigger), duplicate nodes, and edges whose endpoints are
    missing from an explicit node list.
    """
    if not isinstance(obj, dict) or "edges" not in obj:
        raise ProtocolError(
            "invalid-graph", 'graph must be {"edges": [[u, v, w], ...]}',
            field="graph",
        )
    edges = obj["edges"]
    if not isinstance(edges, list) or not edges:
        raise ProtocolError(
            "invalid-graph", "graph.edges must be a non-empty list",
            field="graph",
        )
    explicit = obj.get("nodes")
    known: set | None = None
    nodes: list = []
    if explicit is not None:
        if not isinstance(explicit, list):
            raise ProtocolError(
                "invalid-graph", "graph.nodes must be a list", field="graph",
            )
        known = set()
        for i, label in enumerate(explicit):
            _check_label(label, i, "node")
            tagged = (type(label).__name__, label)
            if tagged in known:
                raise ProtocolError(
                    "invalid-graph",
                    f"graph.nodes[{i}] duplicates label {label!r}",
                    field="graph",
                )
            known.add(tagged)
        nodes = list(explicit)
    seen: set[frozenset] = set()
    encountered: set = set()
    for i, item in enumerate(edges):
        if not isinstance(item, list) or len(item) != 3:
            raise ProtocolError(
                "invalid-graph",
                f"edge {i} must be a [u, v, weight] triple", field="graph",
            )
        u = _check_label(item[0], i, "u")
        v = _check_label(item[1], i, "v")
        _check_weight(item[2], i, "graph")
        if u == v:
            raise ProtocolError(
                "invalid-graph", f"edge {i} is a self-loop at {u!r}",
                field="graph",
            )
        # Type-tagged so the int 1 and the str "1" stay distinct labels.
        tu, tv = (type(u).__name__, u), (type(v).__name__, v)
        if known is not None and not {tu, tv} <= known:
            raise ProtocolError(
                "invalid-graph",
                f"edge {i} references a label missing from graph.nodes",
                field="graph",
            )
        pair = frozenset((tu, tv))
        if pair in seen:
            raise ProtocolError(
                "duplicate-edge",
                f"edge {i} duplicates an earlier ({u!r}, {v!r}) edge",
                field="graph",
            )
        seen.add(pair)
        if known is None:
            for tagged, label in ((tu, u), (tv, v)):
                if tagged not in encountered:
                    encountered.add(tagged)
                    nodes.append(label)
    return {"nodes": nodes, "edges": edges}


def graph_from_payload(payload: dict) -> "nx.Graph":
    """Materialize an ``nx.Graph`` from a canonical graph payload.

    Node and edge insertion order match the payload, which downstream
    tie-breaking depends on — the same property
    :class:`~repro.runtime.handle.GraphHandle` preserves.
    """
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(payload["nodes"])
    for u, v, w in payload["edges"]:
        g.add_edge(u, v, weight=w)
    return g


def graph_payload(graph: "nx.Graph") -> dict:
    """Serialize an ``nx.Graph`` to the wire's canonical payload form.

    Emits the node order explicitly, so a server-side rebuild is
    indistinguishable from the original graph — the precondition for the
    wire bit-identity contract.
    """
    return {
        "nodes": list(graph.nodes()),
        "edges": [
            [u, v, data["weight"]] for u, v, data in graph.edges(data=True)
        ],
    }


# ---------------------------------------------------------------------------
# failure plans
# ---------------------------------------------------------------------------


def validate_failure_spec(spec: object) -> dict:
    """Schema-check a failure-plan spec; return it unchanged.

    Two shapes are accepted (mirroring :mod:`repro.sim.failures`):

    * ``{"random": {"p": 0.2, "max_rounds": 10, "seed": 1,
      "symmetric": true}}`` — a seeded random plan, deterministic for a
      given graph;
    * ``{"edges": [{"u": 0, "v": 1, "rounds": [1, 2], "symmetric": true},
      ...]}`` — explicit per-edge drops (``rounds`` omitted or ``null``
      means every round).
    """
    if not isinstance(spec, dict) or not ({"random", "edges"} & set(spec)):
        raise ProtocolError(
            "invalid-failures",
            'failures must carry "random" or "edges"', field="failures",
        )
    if "random" in spec:
        rnd = spec["random"]
        if not isinstance(rnd, dict):
            raise ProtocolError(
                "invalid-failures", "failures.random must be an object",
                field="failures",
            )
        p = rnd.get("p")
        if not isinstance(p, (int, float)) or isinstance(p, bool) \
                or not 0.0 <= p <= 1.0:
            raise ProtocolError(
                "invalid-failures",
                f"failures.random.p must be in [0, 1], got {p!r}",
                field="failures",
            )
        rounds = rnd.get("max_rounds")
        if not isinstance(rounds, int) or isinstance(rounds, bool) \
                or rounds < 1:
            raise ProtocolError(
                "invalid-failures",
                "failures.random.max_rounds must be a positive int",
                field="failures",
            )
    if "edges" in spec:
        items = spec["edges"]
        if not isinstance(items, list):
            raise ProtocolError(
                "invalid-failures", "failures.edges must be a list",
                field="failures",
            )
        for i, item in enumerate(items):
            if not isinstance(item, dict) or "u" not in item or "v" not in item:
                raise ProtocolError(
                    "invalid-failures",
                    f"failures.edges[{i}] needs u and v", field="failures",
                )
            rounds = item.get("rounds")
            if rounds is not None and (
                not isinstance(rounds, list)
                or any(not isinstance(r, int) or r < 1 for r in rounds)
            ):
                raise ProtocolError(
                    "invalid-failures",
                    f"failures.edges[{i}].rounds must be a list of "
                    "1-based ints (or null for every round)",
                    field="failures",
                )
    return spec


def failure_plan_from_payload(
    spec: dict, graph: "nx.Graph"
) -> "FailurePlan":
    """Build the :class:`~repro.sim.failures.FailurePlan` a spec describes.

    Deterministic: the same spec and graph always produce the same plan,
    so the wire differential tests can rebuild the exact plan the server
    used and compare against a one-shot
    :func:`repro.dist.pipeline.distributed_two_ecss` call.
    """
    from repro.sim.failures import FailurePlan, random_failure_plan

    if "random" in spec:
        rnd = spec["random"]
        return random_failure_plan(
            graph,
            p=rnd["p"],
            max_rounds=rnd["max_rounds"],
            seed=rnd.get("seed", 0),
            symmetric=rnd.get("symmetric", True),
        )
    plan = FailurePlan()
    for item in spec["edges"]:
        plan.fail(
            item["u"], item["v"],
            rounds=item.get("rounds"),
            symmetric=item.get("symmetric", True),
        )
    return plan


# ---------------------------------------------------------------------------
# binary frames
# ---------------------------------------------------------------------------

#: Content type that selects the binary frame encoding (requests declare
#: it via ``Content-Type``; responses are framed when the client's
#: ``Accept`` includes it).  JSON stays the default either way.
FRAME_CONTENT_TYPE = "application/x-repro-frame"

#: Leading magic of every frame — a JSON body can never start with it, so
#: a mislabeled payload fails fast with ``bad-frame``.
FRAME_MAGIC = b"RPF1"


def pack_frame(header: Any, arrays: "Sequence[Sequence[float]]" = ()) -> bytes:
    """Serialize a JSON-able header plus float64 arrays into one frame.

    Layout: :data:`FRAME_MAGIC`, ``uint32`` header length, the UTF-8 JSON
    header, ``uint32`` array count, then per array a ``uint32`` element
    count followed by that many little-endian float64 values.  Any header
    node shaped ``{"__frame__": k}`` refers to ``arrays[k]`` and is
    substituted back by :func:`unpack_frame`.
    """
    head = json.dumps(header, separators=(",", ":")).encode("utf-8")
    parts = [FRAME_MAGIC, struct.pack("<I", len(head)), head,
             struct.pack("<I", len(arrays))]
    for arr in arrays:
        values = [float(x) for x in arr]
        parts.append(struct.pack("<I", len(values)))
        parts.append(struct.pack(f"<{len(values)}d", *values))
    return b"".join(parts)


def _frame_bytes(data: bytes, offset: int, count: int, what: str) -> int:
    """Bounds-check ``count`` bytes at ``offset``; return the new offset."""
    end = offset + count
    if end > len(data):
        raise ProtocolError("bad-frame", f"frame truncated in {what}")
    return end


def _substitute_frame_refs(node: Any, arrays: "list[list[float]]") -> Any:
    """Replace every ``{"__frame__": k}`` header node with array ``k``."""
    if isinstance(node, dict):
        if set(node) == {"__frame__"}:
            k = node["__frame__"]
            if isinstance(k, bool) or not isinstance(k, int) \
                    or not 0 <= k < len(arrays):
                raise ProtocolError(
                    "bad-frame",
                    f"frame reference {k!r} does not name one of the "
                    f"{len(arrays)} attached array(s)",
                )
            return list(arrays[k])
        return {
            key: _substitute_frame_refs(value, arrays)
            for key, value in node.items()
        }
    if isinstance(node, list):
        return [_substitute_frame_refs(item, arrays) for item in node]
    return node


def unpack_frame(data: bytes) -> Any:
    """Decode one frame; return the header with arrays substituted in.

    The inverse of :func:`pack_frame`: after substitution the result is
    exactly the object the equivalent plain-JSON body parses to (array
    elements arrive as floats).  Every malformation — wrong magic, a
    length running past the buffer, a non-JSON header, trailing bytes, an
    out-of-range ``{"__frame__": k}`` reference — raises the structured
    ``bad-frame`` :class:`ProtocolError` instead of a decoding error.
    """
    if data[: len(FRAME_MAGIC)] != FRAME_MAGIC:
        raise ProtocolError(
            "bad-frame",
            f"frame does not start with the {FRAME_MAGIC!r} magic",
        )
    offset = len(FRAME_MAGIC)
    end = _frame_bytes(data, offset, 4, "header length")
    (head_len,) = struct.unpack_from("<I", data, offset)
    offset = end
    offset = _frame_bytes(data, offset, head_len, "header")
    try:
        header = json.loads(data[offset - head_len: offset].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(
            "bad-frame", f"frame header is not valid JSON: {exc}"
        ) from None
    end = _frame_bytes(data, offset, 4, "array count")
    (num_arrays,) = struct.unpack_from("<I", data, offset)
    offset = end
    arrays: list[list[float]] = []
    for i in range(num_arrays):
        end = _frame_bytes(data, offset, 4, f"array {i} length")
        (count,) = struct.unpack_from("<I", data, offset)
        offset = _frame_bytes(data, end, 8 * count, f"array {i} values")
        arrays.append(
            list(struct.unpack_from(f"<{count}d", data, offset - 8 * count))
        )
    if offset != len(data):
        raise ProtocolError(
            "bad-frame",
            f"frame carries {len(data) - offset} trailing byte(s)",
        )
    return _substitute_frame_refs(header, arrays)


# ---------------------------------------------------------------------------
# request parsing
# ---------------------------------------------------------------------------


def _check_bool(obj: dict, key: str, default: bool) -> bool:
    value = obj.get(key, default)
    if not isinstance(value, bool):
        raise ProtocolError(
            "invalid-field", f"{key} must be a boolean, got {value!r}",
            field=key,
        )
    return value


def _check_name(obj: dict, key: str, kind: str) -> str | None:
    """Validate an optional backend/engine name against the registry."""
    value = obj.get(key)
    if value is None:
        return None
    from repro.runtime.registry import UnknownBackendError, get_backend

    if not isinstance(value, str):
        raise ProtocolError(
            "invalid-field", f"{key} must be a string, got {value!r}",
            field=key,
        )
    try:
        get_backend(kind, value)
    except UnknownBackendError as exc:
        raise ProtocolError("unknown-backend", str(exc), field=key) from None
    return value


def _check_envelope(obj: object, allowed: frozenset) -> None:
    """Shared request-envelope checks: shape, unknown keys, version."""
    if not isinstance(obj, dict):
        raise ProtocolError("bad-request", "request body must be a JSON object")
    unknown = set(obj) - allowed
    if unknown:
        raise ProtocolError(
            "unknown-field",
            f"unknown request field(s): {', '.join(sorted(unknown))}",
            field=sorted(unknown)[0],
        )
    version = obj.get("protocol", PROTOCOL_VERSION)
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            "unsupported-protocol",
            f"this server speaks protocol {PROTOCOL_VERSION}, got {version!r}",
            field="protocol",
        )


def _query_fields(obj: dict) -> dict:
    """Validate the query-parameter fields shared by solve and delta."""
    eps = obj.get("eps", 0.25)
    if isinstance(eps, bool) or not isinstance(eps, (int, float)) \
            or not valid_weight(eps) or eps == 0:
        raise ProtocolError(
            "invalid-field",
            f"eps must be > 0 and within float range, got {eps!r}",
            field="eps",
        )
    variant = obj.get("variant", "improved")
    if variant not in _VARIANTS:
        raise ProtocolError(
            "invalid-field",
            f"variant must be one of {_VARIANTS}, got {variant!r}",
            field="variant",
        )
    return {
        "eps": float(eps),
        "variant": variant,
        "segmented": _check_bool(obj, "segmented", True),
        "validate": _check_bool(obj, "validate", True),
        "backend": _check_name(obj, "backend", "compute"),
        "engine": _check_name(obj, "engine", "engine"),
        "simulate_mst": _check_bool(obj, "simulate_mst", False),
        "k": _check_k_field(obj),
        "timings": _check_bool(obj, "timings", False),
    }


def _check_k_field(obj: dict) -> int:
    """Validate the optional ``k`` field (target edge connectivity).

    Every rejection uses the stable ``unsupported-k`` code so clients can
    dispatch on it: non-integers (bools included), ``k < 2`` (0, 1 and
    negatives have no augmentation reading), and ``k`` above the
    advertised :data:`repro.core.k_ecss.MAX_K` capability (also surfaced
    by ``GET /backends``).
    """
    k = obj.get("k", 2)
    if isinstance(k, bool) or not isinstance(k, int):
        raise ProtocolError(
            "unsupported-k", f"k must be an integer, got {k!r}", field="k",
        )
    if k < 2:
        raise ProtocolError(
            "unsupported-k", f"k must be >= 2, got {k}", field="k",
        )
    from repro.core.k_ecss import MAX_K

    if k > MAX_K:
        raise ProtocolError(
            "unsupported-k",
            f"k={k} exceeds this server's maximum supported k={MAX_K} "
            "(see GET /backends)",
            field="k",
        )
    return k


def parse_solve_request(obj: object) -> SolveRequest:
    """Parse and schema-validate one ``/v1/solve`` body.

    Raises :class:`ProtocolError` with a stable ``code``/``field`` on any
    violation; never lets a malformed payload reach the solver.  Exactly
    one of ``graph`` (full edge list) and ``topology`` (fingerprint of a
    previously sent graph) must be present.
    """
    _check_envelope(obj, _REQUEST_KEYS)

    has_graph = "graph" in obj
    has_topology = "topology" in obj
    if has_graph == has_topology:
        raise ProtocolError(
            "bad-request",
            'exactly one of "graph" and "topology" is required',
        )
    graph = None
    if has_graph:
        graph = parse_graph_payload(obj["graph"])
        topology = fingerprint_graph(graph)
    else:
        topology = obj["topology"]
        if not isinstance(topology, str) or not topology:
            raise ProtocolError(
                "bad-request", "topology must be a non-empty string",
                field="topology",
            )

    weights = obj.get("weights")
    if weights is not None:
        if not isinstance(weights, list) or not weights:
            raise ProtocolError(
                "invalid-weight", "weights must be a non-empty list",
                field="weights",
            )
        for i, w in enumerate(weights):
            _check_weight(w, i, "weights")

    failures = obj.get("failures")
    if failures is not None:
        validate_failure_spec(failures)

    return SolveRequest(
        topology=topology,
        graph=graph,
        weights=weights,
        failures=failures,
        **_query_fields(obj),
    )


def parse_delta_request(obj: object) -> SolveRequest:
    """Parse and schema-validate one ``/v1/delta`` body.

    A delta request always references a known topology by fingerprint
    (never a ``graph`` — deltas cannot register topologies) and carries a
    non-empty ``delta`` list of ``[u, v, w]`` triples naming the edges
    whose weights changed *relative to the registered baseline*.  Labels
    and weights are checked with the same rules as graph edges; self-loops
    and duplicate pairs (in either endpoint order) are rejected — a
    duplicate would make the diff ambiguous, the sparse analogue of the
    both-key-orders conflict :meth:`GraphHandle.reweight_delta` rejects.
    """
    _check_envelope(obj, _DELTA_KEYS)

    topology = obj.get("topology")
    if not isinstance(topology, str) or not topology:
        raise ProtocolError(
            "bad-request", "topology must be a non-empty string",
            field="topology",
        )

    delta = obj.get("delta")
    if not isinstance(delta, list) or not delta:
        raise ProtocolError(
            "invalid-field", "delta must be a non-empty [[u, v, w], ...] list",
            field="delta",
        )
    seen: set[frozenset] = set()
    for i, item in enumerate(delta):
        if not isinstance(item, list) or len(item) != 3:
            raise ProtocolError(
                "invalid-field",
                f"delta[{i}] must be a [u, v, weight] triple", field="delta",
            )
        u = _check_label(item[0], i, "u", field_name="delta")
        v = _check_label(item[1], i, "v", field_name="delta")
        _check_weight(item[2], i, "delta")
        if u == v:
            raise ProtocolError(
                "invalid-field", f"delta[{i}] is a self-loop at {u!r}",
                field="delta",
            )
        pair = frozenset(((type(u).__name__, u), (type(v).__name__, v)))
        if pair in seen:
            raise ProtocolError(
                "duplicate-edge",
                f"delta[{i}] duplicates an earlier ({u!r}, {v!r}) entry",
                field="delta",
            )
        seen.add(pair)

    fields = _query_fields(obj)
    if fields["k"] != 2:
        # Explicit rejection, not a silent k=2 solve: the delta path
        # re-solves the registered 2-ECSS baseline only.
        raise ProtocolError(
            "unsupported-k",
            f"/v1/delta re-solves k=2 baselines only, got k={fields['k']}; "
            "send a full /v1/solve request for k > 2",
            field="k",
        )
    return SolveRequest(
        topology=topology,
        delta=delta,
        **fields,
    )


# ---------------------------------------------------------------------------
# result serialization
# ---------------------------------------------------------------------------


def _canonical(payload: dict) -> dict:
    """Normalize to the exact structure a JSON round-trip produces.

    One ``dumps``/``loads`` pass turns tuples into lists and int dict keys
    into strings — guaranteeing that the dict the server builds equals the
    dict a client decodes off the wire, which is what the bit-identity
    differential compares with ``==``.
    """
    return json.loads(json.dumps(payload))


def _tap_payload(tap: "TapResult") -> dict:
    """Serialize a :class:`~repro.core.result.TapResult`."""
    return {
        "links": [list(link) for link in tap.links],
        "weight": tap.weight,
        "virtual_eids": list(tap.virtual_eids),
        "virtual_weight": tap.virtual_weight,
        "dual_bound": tap.dual_bound,
        "certified_virtual_ratio": tap.certified_virtual_ratio,
        "eps": tap.eps,
        "variant": tap.variant,
        "segmented": tap.segmented,
        "guarantee": tap.guarantee,
        "iterations_per_epoch": dict(tap.iterations_per_epoch),
        "num_layers": tap.num_layers,
        "max_coverage_of_dual_edges": tap.max_coverage_of_dual_edges,
        "log": dict(tap.log.counts),
    }


def _two_ecss_payload(res: "TwoEcssResult") -> dict:
    """Serialize a :class:`~repro.core.result.TwoEcssResult`."""
    sim = res.mst_simulation
    return {
        "type": "two_ecss",
        "n": res.n,
        "diameter": res.diameter,
        "edges": [list(e) for e in res.edges],
        "weight": res.weight,
        "mst_edges": [list(e) for e in res.mst_edges],
        "mst_weight": res.mst_weight,
        "guarantee": res.guarantee,
        "certified_lower_bound": res.certified_lower_bound,
        "certified_ratio": res.certified_ratio,
        "augmentation": _tap_payload(res.augmentation),
        "mst_simulation": None if sim is None else {
            "rounds": sim.rounds,
            "messages": sim.messages,
            "max_words": sim.max_words,
            "quiescent": sim.quiescent,
            "dropped": sim.dropped,
        },
    }


def _k_ecss_payload(res: "KEcssResult") -> dict:
    """Serialize a :class:`~repro.core.result.KEcssResult` (``k > 2``)."""
    return {
        "type": "k_ecss",
        "k": res.k,
        "n": res.n,
        "diameter": res.diameter,
        "edges": [list(e) for e in res.edges],
        "weight": res.weight,
        "guarantee": res.guarantee,
        "certified_lower_bound": res.certified_lower_bound,
        "certified_ratio": res.certified_ratio,
        "degree_lower_bound": res.degree_lower_bound,
        "rounds": [
            {
                "j": r.j,
                "iterations": r.iterations,
                "edges": [list(e) for e in r.edges],
                "weight": r.weight,
            }
            for r in res.rounds
        ],
        "base": _two_ecss_payload(res.base),
    }


def result_to_payload(result: Any) -> dict:
    """Canonical JSON payload of a solve result.

    Accepts every result type the session can return — a
    :class:`~repro.core.result.TwoEcssResult` (``engine="local"``,
    ``k=2``), a :class:`~repro.core.result.KEcssResult` (``k > 2``) and a
    :class:`~repro.dist.pipeline.DistTwoEcssResult` (``engine="sim"``) —
    and emits a payload that compares ``==`` across the wire (see
    :func:`_canonical`).  This is the single serializer used by the
    workers *and* by the differential tests on the one-shot results, so
    "bit-identical through the wire" is checked against the same code
    path the service runs.
    """
    if hasattr(result, "rounds") and hasattr(result, "k"):  # KEcssResult
        return _canonical(_k_ecss_payload(result))
    if hasattr(result, "measured"):  # DistTwoEcssResult
        return _canonical({
            "type": "dist_two_ecss",
            "n": result.n,
            "diameter": result.diameter,
            "strict": result.strict,
            "ratio_bound": result.ratio_bound,
            "boruvka_phases": result.boruvka_phases,
            "measured_rounds": result.measured_rounds,
            "priced_rounds": result.priced_rounds,
            "max_ratio": result.max_ratio,
            "within_bound": result.within_bound,
            "mismatch_counts": dict(result.mismatch_counts),
            "mismatches": result.mismatches,
            "comparison": result.comparison,
            "result": _two_ecss_payload(result.result),
        })
    return _canonical(_two_ecss_payload(result))
