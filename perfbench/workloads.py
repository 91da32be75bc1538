"""The four workloads of the latency-ledger benchmark and their runners.

Every input is generated from ``--seed``; the solver only ever sees the
generated graphs, weight columns and requests.  Three workloads are closed
loops with one op in flight in this process; ``serve_open`` drives a
spawned server with an open loop.  An untraced run reports the end-to-end
metrics; a traced run (``trace=True``) first repeats the untraced loop for
half the time, then runs the same ops built from the layers' public calls
under ``repro.obs`` spans for the other half, and reports the per-layer
ledger (see :mod:`ledger`).  Outside every timed window a seeded sample of
the ops is checked against the one-shot API (see :mod:`checks`).
"""

from __future__ import annotations

import asyncio
import gc
import os
import random
import re
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter

from checks import check_output
from ledger import Ledger, percentile

import repro
from repro import obs
from repro.core import tap as core_tap
from repro.core import tecss
from repro.graphs.families import make_family_instance
from repro.runtime.handle import GraphHandle
from repro.runtime.plan import SolverPlan
from repro.runtime.session import SolveQuery, SolverSession
from repro.serve.loadgen import HttpClient
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    graph_from_payload,
    graph_payload,
    result_to_payload,
)

#: Workload parameters.  Topologies come from the fixed ``graph_seed``;
#: ``--seed`` draws the weights, weight changes and request order, so seeds
#: vary what is solved without swapping in graphs of another size class.
#: ``setups`` is how many times one run builds the workload's state from
#: scratch (``setup_s`` is their median); ``samples`` how many ops are
#: checked against the one-shot API after the window.
PARAMS: dict[str, dict] = {
    "cold_solve": {
        "families": ("erdos_renyi", "geometric", "grid", "cycle_chords"),
        "sizes": (500, 1000), "graph_seed": 0, "jitter": (0.8, 1.25),
        "eps": 0.5, "setups": 3, "samples": 2,
    },
    "drift_resolve": {
        "family": "erdos_renyi", "n": 2000, "graph_seed": 0, "eps": 0.5,
        "drift_fraction": 0.01, "jitter": (0.8, 1.25),
        "setups": 3, "samples": 1,
    },
    "scenario_batch": {
        "family": "erdos_renyi", "n": 1000, "graph_seed": 0, "eps": 0.5,
        "scenarios": 8, "edges_per_scenario": 20, "scale": (1.0, 3.0),
        "setups": 3, "samples": 2,
    },
    "serve_open": {
        "families": ("erdos_renyi", "geometric"), "topologies": 4,
        "n": 1000, "graph_seed": 0, "columns": 4, "jitter": (0.8, 1.25),
        "zipf_s": 1.1, "rate": 3.0, "connections": 2, "eps": 0.5,
        "setups": 2, "samples": 2,
    },
}

#: Overrides giving every workload a configuration that runs in seconds.
SMOKE: dict[str, dict] = {
    "cold_solve": {"sizes": (40, 80), "setups": 1, "samples": 1},
    "drift_resolve": {"n": 150, "setups": 1},
    "scenario_batch": {"n": 100, "edges_per_scenario": 5, "setups": 1},
    "serve_open": {"n": 80, "rate": 20.0, "setups": 1, "samples": 1},
}

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def log(message: str) -> None:
    """One progress line on stderr (stdout ends with the result line)."""
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def reweighted(graph, weights):
    """A copy of ``graph`` (same node and edge order) with new weights."""
    edges = [[u, v, w] for (u, v), w in zip(graph.edges(), weights)]
    return graph_from_payload({"nodes": list(graph.nodes()), "edges": edges})


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest waited-for descendant."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# ----------------------------------------------------------------------
# closed-loop workloads
# ----------------------------------------------------------------------


class ClosedLoop:
    """One op in flight in this process.

    Subclasses build their state in :meth:`setup`, derive op ``i``'s input
    with :meth:`make_input` (untimed), run it with :meth:`op` (the timed
    public-API call) or :meth:`ledger_op` (the same solve rebuilt from the
    layers' public calls, each under a ``bench:`` span), and name the
    reference result a sampled op must equal in :meth:`reference`.
    """

    #: Solves per op (scenarios per call for ``scenario_batch``).
    solves_per_op = 1
    #: Ops run in whole multiples of this (the cold graph cycle).
    cycle = 1
    #: What a ledger op built, held until its timing ends (see
    #: :meth:`_solve_layers`).
    keep: object = None

    def __init__(self, params: dict, seed: int) -> None:
        self.p = params
        self.seed = seed

    def setup(self) -> None:
        """Generate the inputs and build the warm state."""
        raise NotImplementedError

    def make_input(self, i: int):
        """Op ``i``'s input, a pure function of the seed and ``i``."""
        raise NotImplementedError

    def op(self, inp):
        """The timed public-API call; returns its result(s)."""
        raise NotImplementedError

    def ledger_op(self, inp):
        """The same solve built from each layer's public calls."""
        return self.op(inp)

    def reference(self, inp, result, rng: random.Random) -> tuple:
        """``(graph, got payload, want payload)`` for one sampled op."""
        raise NotImplementedError

    def session_reference(self, inp):
        """What ``SolverSession.solve`` returns for a ledger op's input."""
        return None

    def layer_counters(self) -> dict:
        """Per-layer counters read from the session after the run."""
        return {}

    def _solve_layers(self, plan: SolverPlan, eps: float):
        """Plan artifacts, TAP and assembly, each under its layer span.

        The plan and instance outlive the op (in :attr:`keep`), as they
        would in a session's plan cache: freeing them would otherwise land
        in no layer, after the last span closes.
        """
        with obs.span("bench:plan.diameter"):
            diameter = plan.diameter
        with obs.span("bench:plan.mst"):
            plan.tree
        with obs.span("bench:plan.links"):
            plan.links
        with obs.span("bench:plan.instance"):
            inst = plan.instance("fast")
        with obs.span("bench:tap.solve"):
            fwd, rev = core_tap.solve_virtual_tap(
                inst, eps=eps, validate=True, backend="fast"
            )
        self.keep = (plan, inst, fwd, rev)
        with obs.span("bench:assemble.tap"):
            tap = core_tap.assemble_tap_result(
                inst, fwd, rev, eps=eps, variant="improved", segmented=True,
                validate=True, backend="fast",
            )
        with obs.span("bench:assemble.two_ecss"):
            return tecss.assemble_two_ecss(
                plan.g, plan.nodes, plan.mst_edges, tap, validate=True,
                diameter=diameter, mst_weight=plan.mst_weight,
                n=plan.handle.n,
            )


class ColdSolve(ClosedLoop):
    """One-shot ``approximate_two_ecss`` on graphs no session has seen."""

    def setup(self) -> None:
        rng = random.Random(f"{self.seed}:cold")
        lo, hi = self.p["jitter"]
        self.graphs = []
        for n in self.p["sizes"]:
            for family in self.p["families"]:
                graph = make_family_instance(
                    family, n, seed=self.p["graph_seed"]
                )
                self.graphs.append(reweighted(graph, [
                    w * rng.uniform(lo, hi)
                    for _, _, w in graph.edges(data="weight")
                ]))
        self.cycle = len(self.graphs)

    def make_input(self, i: int) -> int:
        return i % len(self.graphs)

    def op(self, index: int):
        return tecss.approximate_two_ecss(
            self.graphs[index], eps=self.p["eps"], backend="fast"
        )

    def ledger_op(self, index: int):
        with obs.span("bench:handle.from_graph"):
            handle = GraphHandle.from_graph(self.graphs[index])
        return self._solve_layers(SolverPlan(handle), self.p["eps"])

    def reference(self, index, result, rng):
        want = self.op(index)
        return (self.graphs[index], result_to_payload(result),
                result_to_payload(want))

    def session_reference(self, index):
        return SolverSession(self.graphs[index]).solve(
            eps=self.p["eps"], backend="fast"
        )


class DriftResolve(ClosedLoop):
    """Sparse ``weights_delta`` re-solves on one warm session."""

    def setup(self) -> None:
        self.graph = make_family_instance(
            self.p["family"], self.p["n"], seed=self.p["graph_seed"]
        )
        self.edges = list(self.graph.edges(data="weight"))
        self.session = SolverSession(self.graph, backend="fast")
        self.session.solve(eps=self.p["eps"])
        self.modes: Counter = Counter()

    def make_input(self, i: int) -> dict:
        rng = random.Random(f"{self.seed}:drift:{i}")
        k = max(1, round(self.p["drift_fraction"] * len(self.edges)))
        lo, hi = self.p["jitter"]
        return {
            (u, v): w * rng.uniform(lo, hi)
            for u, v, w in (self.edges[j] for j in rng.sample(
                range(len(self.edges)), k
            ))
        }

    def op(self, delta: dict):
        return self.session.solve(weights_delta=delta, eps=self.p["eps"])

    def ledger_op(self, delta: dict):
        session = self.session
        with obs.span("bench:delta.reweight"):
            handle = session.handle.reweight_delta(delta)
        with obs.span("bench:delta.from_delta"):
            plan = SolverPlan.from_delta(
                session.base_plan(), handle,
                max_fraction=session.delta_max_fraction,
                max_swaps=session.delta_max_swaps,
            )
        self.modes[plan.delta_info["mode"]] += 1
        return self._solve_layers(plan, self.p["eps"])

    def reference(self, delta, result, rng):
        weights = [delta.get((u, v), w) for u, v, w in self.edges]
        graph = reweighted(self.graph, weights)
        want = tecss.approximate_two_ecss(
            graph, eps=self.p["eps"], backend="fast"
        )
        return graph, result_to_payload(result), result_to_payload(want)

    def session_reference(self, delta):
        return self.op(delta)

    def layer_counters(self) -> dict:
        stats = self.session.stats()
        return {
            "delta.reused": self.modes["reused"],
            "delta.swapped": self.modes["swapped"],
            "delta.fallback": self.modes["fallback"],
            "session.plan_hit_rate": hit_rate(
                stats["plan_hits"], stats["plans_built"]
            ),
        }


class ScenarioBatch(ClosedLoop):
    """``solve_batch_vectorized`` over dense weight columns, one session."""

    def setup(self) -> None:
        self.graph = make_family_instance(
            self.p["family"], self.p["n"], seed=self.p["graph_seed"]
        )
        self.base = [w for _, _, w in self.graph.edges(data="weight")]
        self.session = SolverSession(self.graph, backend="fast")
        self.session.solve(eps=self.p["eps"])
        self.solves_per_op = self.p["scenarios"]

    def make_input(self, i: int) -> list:
        rng = random.Random(f"{self.seed}:batch:{i}")
        lo, hi = self.p["scale"]
        columns = []
        for _ in range(self.p["scenarios"]):
            column = list(self.base)
            for j in rng.sample(
                range(len(column)), self.p["edges_per_scenario"]
            ):
                column[j] *= rng.uniform(lo, hi)
            columns.append(column)
        return columns

    def op(self, columns: list) -> list:
        return self.session.solve_batch_vectorized(
            [SolveQuery(eps=self.p["eps"], weights=c) for c in columns]
        )

    def ledger_op(self, columns: list) -> list:
        # runtime.batch has spans for its group / forward / tails stages
        # only; this span gives the rest of the call (base MST, column
        # reweights, freeing the scenario plans) to the layer as well.
        with obs.span("bench:batch.solve"):
            return self.op(columns)

    def reference(self, columns, results, rng):
        j = rng.randrange(len(columns))
        want = self.session.solve(eps=self.p["eps"], weights=columns[j])
        return (reweighted(self.graph, columns[j]),
                result_to_payload(results[j]), result_to_payload(want))

    def layer_counters(self) -> dict:
        stats = self.session.stats()
        return {
            "batch.vectorized_share": 1.0 - stats["scalar_fallback"]
            / max(1, stats["solves"]),
            "session.plan_hit_rate": hit_rate(
                stats["plan_hits"], stats["plans_built"]
            ),
        }


def hit_rate(hits: int, built: int) -> float:
    """Plan-cache hits over plan lookups (0 with no lookups)."""
    return hits / (hits + built) if hits + built else 0.0


class Reservoir:
    """A seeded uniform sample of ``size`` items from a stream.

    Holding every op's result would grow the heap the collector scans
    during the run; a fixed-size sample keeps it flat.
    """

    def __init__(self, size: int, rng: random.Random) -> None:
        self.size = size
        self.rng = rng
        self.items: list = []
        self.seen = 0

    def add(self, item) -> None:
        """Offer one item to the sample."""
        self.seen += 1
        if len(self.items) < self.size:
            self.items.append(item)
        else:
            j = self.rng.randrange(self.seen)
            if j < self.size:
                self.items[j] = item


def closed_window(wl: ClosedLoop, seconds: float, traced: bool,
                  sample: Reservoir) -> dict:
    """Run ops back to back for ``seconds`` (whole cycles); tally them.

    A full collection precedes every op, outside its timing: each op then
    pays for the garbage it makes itself, not for a collection of its
    predecessors' garbage that happens to fall inside it, which made
    run-to-run medians differ by a fifth.
    """
    slots: list[list[float]] = [[] for _ in range(wl.cycle)]
    failed, ops, first = 0, 0, None
    ledger = Ledger() if traced else None
    tracer = obs.enable() if traced else None
    start = time.perf_counter()
    end = start + seconds
    try:
        while ops % wl.cycle or time.perf_counter() < end:
            inp = wl.make_input(ops)
            ops += 1
            gc.collect()
            try:
                if tracer is not None:
                    with obs.span("bench.op") as root:
                        result = wl.ledger_op(inp)
                    ledger.add(root)
                    tracer.clear()
                    wl.keep = None
                    elapsed = root.duration_s
                else:
                    t0 = time.perf_counter()
                    result = wl.op(inp)
                    elapsed = time.perf_counter() - t0
            except Exception as exc:  # noqa: BLE001 - counted, run goes on
                log(f"op {ops - 1} failed: {type(exc).__name__}: {exc}")
                failed += wl.solves_per_op
                continue
            slots[(ops - 1) % wl.cycle].append(elapsed)
            sample.add((inp, result))
            first = first or (inp, result)
    finally:
        if tracer is not None:
            obs.disable()
    return {
        "busy_s": sum(map(sum, slots)), "latencies_s": op_latencies(slots),
        "attempted": ops * wl.solves_per_op, "failed": failed,
        "ledger": ledger, "first": first,
    }


def op_latencies(slots: "list[list[float]]") -> "list[float]":
    """The latencies the percentiles run over.

    A cycle of distinct inputs (``cold_solve``'s eight graphs) is summarized
    per input, by its median over the run's cycles.  The op latencies fall
    in a cheap n=500 and a dear n=1000 group, so p50 over raw ops sat
    between the dearest cheap solve and the cheapest dear one, two single
    samples, and moved with every noisy solve.
    """
    if len(slots) == 1:
        return slots[0]
    return [statistics.median(slot) for slot in slots if slot]


def check_sample(wl, sample: Reservoir) -> int:
    """Check the sampled ops against their references; count misses."""
    wrong = 0
    for inp, result in sample.items:
        problem = check_output(*wl.reference(inp, result, sample.rng))
        if problem is not None:
            log(f"wrong output: {problem}")
            wrong += 1
    return wrong


def run_closed(cls, params: dict, seed: int, seconds: float,
               trace: bool) -> dict:
    """One closed-loop run: setups, the timed window(s), output checks."""
    setups = []
    for _ in range(1 if trace else params["setups"]):
        wl = None  # the previous set-up is garbage before the collection
        gc.collect()
        wl = cls(params, seed)
        t0 = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t0)
    log(f"setup {statistics.median(setups):.3f}s x{len(setups)}")
    sample = Reservoir(params["samples"], random.Random(f"{seed}:checks"))
    if not trace:
        window = closed_window(wl, seconds, traced=False, sample=sample)
        failed = window["failed"] + check_sample(wl, sample)
        lat = window["latencies_s"]
        ok = window["attempted"] - window["failed"]
        return {
            "attempted": window["attempted"], "failed": failed,
            "metrics": {
                "setup_s": statistics.median(setups),
                "latency_ms.p50": percentile(lat, 50) * 1e3,
                "latency_ms.p90": percentile(lat, 90) * 1e3,
                # Solves per second of op time: the untimed collections
                # between ops are the benchmark's, not the solver's.
                "throughput_ops_s": ok / window["busy_s"],
                "success_rate": 1.0 - failed / window["attempted"],
                "peak_rss_mb": peak_rss_mb(),
            },
        }
    plain = closed_window(wl, seconds / 2, traced=False, sample=sample)
    sample = Reservoir(params["samples"], random.Random(f"{seed}:checks"))
    traced = closed_window(wl, seconds / 2, traced=True, sample=sample)
    counters = wl.layer_counters()
    failed = plain["failed"] + traced["failed"] + check_sample(wl, sample)
    if traced["first"] is not None:
        inp, result = traced["first"]
        reference = wl.session_reference(inp)
        if reference is not None and result_to_payload(
            reference
        ) != result_to_payload(result):
            log("ledger solve differs from SolverSession.solve")
            failed += 1
    metrics = traced["ledger"].means()
    metrics.update(counters)
    base = percentile(plain["latencies_s"], 50)
    metrics["obs.overhead_pct"] = 100.0 * (
        percentile(traced["latencies_s"], 50) - base
    ) / base
    log(
        f"unattributed {metrics['unattributed_ms']:.2f} ms of "
        f"p50 {base * 1e3:.2f} ms"
    )
    return {
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": failed, "metrics": metrics,
    }


# ----------------------------------------------------------------------
# serve_open: a spawned server under an open loop
# ----------------------------------------------------------------------


class ServeOpen:
    """A ``python -m repro serve --workers 1`` process and its traffic.

    :meth:`setup` generates the topologies and weight columns, spawns the
    server, registers every topology and sends one request per column, so
    every measured request hits a warm plan.  :meth:`open_loop` then sends
    on a fixed schedule over a small pool of keep-alive connections and
    times each request from its *scheduled* send time.
    """

    def __init__(self, params: dict, seed: int) -> None:
        self.p = params
        self.seed = seed
        self.proc: "subprocess.Popen | None" = None
        self.port = 0
        self.keys: list[str] = []

    def setup(self, tracing: bool = False) -> None:
        """Generate inputs, spawn the server, register and warm it."""
        p = self.p
        rng = random.Random(f"{self.seed}:serve")
        self.topologies = []
        for i in range(p["topologies"]):
            family = p["families"][i % len(p["families"])]
            graph = make_family_instance(
                family, p["n"], seed=p["graph_seed"] + i
            )
            base = [w for _, _, w in graph.edges(data="weight")]
            lo, hi = p["jitter"]
            columns = [[w * rng.uniform(lo, hi) for w in base]
                       for _ in range(p["columns"])]
            self.topologies.append((graph, columns))
        argv = [sys.executable, "-m", "repro", "serve", "--workers", "1",
                "--port", "0"]
        if not tracing:
            argv.append("--no-tracing")
        env = dict(os.environ, PYTHONPATH=SRC)
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            env=env, text=True,
        )
        line = self.proc.stdout.readline()
        match = re.search(r"listening on http://[^:]+:(\d+)", line)
        if match is None:
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(match.group(1))
        asyncio.run(self._register_and_warm())

    async def _register_and_warm(self) -> None:
        client = HttpClient("127.0.0.1", self.port)
        try:
            self.keys = []
            for graph, _ in self.topologies:
                status, payload = await client.request(
                    "POST", "/v1/solve",
                    self._body(graph=graph_payload(graph)),
                )
                if status != 200:
                    raise RuntimeError(f"registration failed: {payload}")
                self.keys.append(payload["topology"])
            for t, (_, columns) in enumerate(self.topologies):
                for c in range(len(columns)):
                    status, payload = await client.request(
                        "POST", "/v1/solve", self.request_body(t, c, False)
                    )
                    if status != 200:
                        raise RuntimeError(f"warm-up failed: {payload}")
        finally:
            await client.close()

    def _body(self, **fields) -> dict:
        return {"protocol": PROTOCOL_VERSION, "eps": self.p["eps"],
                "backend": "fast", **fields}

    def request_body(self, t: int, c: int, timings: bool) -> dict:
        """A ``/v1/solve`` by topology key plus a full weight column."""
        body = self._body(topology=self.keys[t],
                          weights=self.topologies[t][1][c])
        if timings:
            body["timings"] = True
        return body

    def schedule(self, seconds: float) -> list:
        """Seeded ``(due_s, topology, column)`` arrivals for one window.

        Sends are evenly spaced at ``rate`` and each key (topology,
        column) is sent its zipf share of the window's requests, in a
        seeded order.  Poisson arrivals over a 10 s window made the p90
        differ by half its value from seed to seed; an even schedule keeps
        the loop open (sends never wait for replies) and runs comparable.
        """
        rng = random.Random(f"{self.seed}:arrivals")
        keys = [(t, c) for c in range(self.p["columns"])
                for t in range(self.p["topologies"])]
        weights = [1.0 / (r + 1) ** self.p["zipf_s"] for r in range(len(keys))]
        count = max(1, round(self.p["rate"] * seconds))
        shares = [count * w / sum(weights) for w in weights]
        sends = [int(share) for share in shares]
        by_remainder = sorted(range(len(keys)),
                              key=lambda r: (int(shares[r]) - shares[r], r))
        for r in by_remainder[: count - sum(sends)]:
            sends[r] += 1
        order = [key for key, n in zip(keys, sends) for _ in range(n)]
        rng.shuffle(order)
        return [((i + 0.5) / self.p["rate"], t, c)
                for i, (t, c) in enumerate(order)]

    def open_loop(self, seconds: float, timings: bool) -> dict:
        """Send one window of scheduled arrivals; return its tallies."""
        return asyncio.run(self._open_loop(seconds, timings))

    async def _open_loop(self, seconds: float, timings: bool) -> dict:
        pool: asyncio.Queue = asyncio.Queue()
        for _ in range(self.p["connections"]):
            pool.put_nowait(HttpClient("127.0.0.1", self.port))
        sample = Reservoir(
            self.p["samples"], random.Random(f"{self.seed}:checks")
        )
        out = {"latencies_s": [], "lags_s": [], "sample": sample,
               "failed": 0, "timings": [], "batch_sizes": []}

        async def fire(due: float, t: int, c: int) -> None:
            out["lags_s"].append(time.perf_counter() - due)
            body = self.request_body(t, c, timings)
            client = await pool.get()
            try:
                status, payload = await client.request(
                    "POST", "/v1/solve", body
                )
            except (OSError, asyncio.IncompleteReadError, ValueError) as exc:
                log(f"request failed: {type(exc).__name__}: {exc}")
                out["failed"] += 1
                await client.close()
                return
            finally:
                pool.put_nowait(client)
            if status != 200 or "result" not in payload:
                log(f"request failed: HTTP {status} {payload.get('error')}")
                out["failed"] += 1
                return
            out["latencies_s"].append(time.perf_counter() - due)
            sample.add(((t, c), payload["result"]))
            out["batch_sizes"].append(payload["server"]["batch_size"])
            if "timings" in payload:
                out["timings"].append(payload["timings"])

        before = await self._solver_counters()
        arrivals = self.schedule(seconds)
        tasks = []
        start = time.perf_counter() + 0.05
        for at, t, c in arrivals:
            due = start + at
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.ensure_future(fire(due, t, c)))
        await asyncio.gather(*tasks)
        out["wall_s"] = time.perf_counter() - start
        out["attempted"] = len(arrivals)
        after = await self._solver_counters()
        out["plan_hit_rate"] = hit_rate(
            after[0] - before[0], after[1] - before[1]
        )
        while not pool.empty():
            await pool.get_nowait().close()
        return out

    async def _solver_counters(self) -> tuple[int, int]:
        """Plan hits and plans built, summed over the server's sessions."""
        client = HttpClient("127.0.0.1", self.port)
        try:
            status, payload = await client.request("GET", "/metrics")
        finally:
            await client.close()
        sessions = [s for w in payload["workers"] for s in w["sessions"]]
        return (sum(s["plan_hits"] for s in sessions),
                sum(s["plans_built"] for s in sessions))

    def reference(self, key, result, rng):
        """The sampled request's one-shot reference on the same graph."""
        t, c = key
        graph, columns = self.topologies[t]
        solved = reweighted(graph, columns[c])
        want = tecss.approximate_two_ecss(
            solved, eps=self.p["eps"], backend="fast"
        )
        return solved, result, result_to_payload(want)

    def close(self) -> None:
        """Interrupt the server and wait for it (and its worker) to exit."""
        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        proc.send_signal(signal.SIGINT)
        try:
            proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()


def serve_phase_means(timings: list) -> dict:
    """Mean ms per request of each server phase in the ``timings`` blocks."""
    names = {
        "serve.parse": "serve.parse_ms",
        "serve.batch_wait": "serve.batch_wait_ms",
        "serve.dispatch": "serve.dispatch_ms",
        "worker.solve_batch": "worker.solve_ms",
        "serve.serialize": "serve.serialize_ms",
    }
    out = dict.fromkeys(names.values(), 0.0)
    for block in timings:
        for span, metric in names.items():
            out[metric] += block.get(span, {}).get("total_ms", 0.0)
    count = max(1, len(timings))
    return {metric: total / count for metric, total in out.items()}


def run_serve(params: dict, seed: int, seconds: float, trace: bool) -> dict:
    """One ``serve_open`` run (see :class:`ServeOpen`)."""
    setups = []
    windows = []
    # Traced: an untraced server, then a traced one (the overhead's base).
    servers = (False, True) if trace else (False,) * params["setups"]
    for i, tracing in enumerate(servers):
        wl = ServeOpen(params, seed)
        try:
            t0 = time.perf_counter()
            wl.setup(tracing=tracing)
            setups.append(time.perf_counter() - t0)
            if trace or i == len(servers) - 1:
                window = wl.open_loop(seconds / 2 if trace else seconds,
                                      timings=tracing)
                window["failed"] += check_sample(wl, window["sample"])
                windows.append(window)
        finally:
            wl.close()
    log(f"setup {statistics.median(setups):.3f}s x{len(setups)}")
    attempted = sum(w["attempted"] for w in windows)
    failed = sum(w["failed"] for w in windows)
    window = windows[-1]
    lat = window["latencies_s"]
    if not trace:
        ok = window["attempted"] - window["failed"]
        return {
            "attempted": attempted, "failed": failed,
            "metrics": {
                "setup_s": statistics.median(setups),
                "latency_ms.p50": percentile(lat, 50) * 1e3,
                "latency_ms.p90": percentile(lat, 90) * 1e3,
                "throughput_ops_s": ok / window["wall_s"],
                "success_rate": 1.0 - failed / attempted,
                "peak_rss_mb": peak_rss_mb(),
            },
        }
    metrics = serve_phase_means(window["timings"])
    metrics["serve.ipc_ms"] = metrics["serve.dispatch_ms"] - metrics[
        "worker.solve_ms"
    ]
    metrics["serve.batch_size.mean"] = statistics.fmean(
        window["batch_sizes"] or [0]
    )
    metrics["session.plan_hit_rate"] = window["plan_hit_rate"]
    metrics["loadgen.lag_ms.p90"] = percentile(window["lags_s"], 90) * 1e3
    # batch_wait spans the dispatch round trip, so the server-side layers
    # are parse + batch_wait; the rest of the latency from the scheduled
    # send is the client, the connection pool and the HTTP transport.
    mean_ms = statistics.fmean(lat or [0.0]) * 1e3
    metrics["unattributed_ms"] = mean_ms - (
        metrics["serve.parse_ms"] + metrics["serve.batch_wait_ms"]
    )
    base = percentile(windows[0]["latencies_s"], 50)
    metrics["obs.overhead_pct"] = 100.0 * (percentile(lat, 50) - base) / base
    log(f"unattributed (transport) {metrics['unattributed_ms']:.2f} ms "
        f"of mean {mean_ms:.2f} ms")
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


CLOSED = {
    "cold_solve": ColdSolve,
    "drift_resolve": DriftResolve,
    "scenario_batch": ScenarioBatch,
}


def run(name: str, seed: int, seconds: float, trace: bool,
        smoke: bool = False) -> dict:
    """Run workload ``name``; returns attempted, failed and metric values."""
    params = dict(PARAMS[name])
    if smoke:
        params.update(SMOKE[name])
    if name == "serve_open":
        return run_serve(params, seed, seconds, trace)
    return run_closed(CLOSED[name], params, seed, seconds, trace)
