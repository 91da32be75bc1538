"""Command-line entry point.

    python -m repro demo                # run the headline algorithm once
    python -m repro experiments [ids]   # regenerate experiment tables
    python -m repro figures             # regenerate the paper's figures
    python -m repro sweep [options]     # parallel family x size x eps sweep
    python -m repro backends [--json]   # list registered execution backends
    python -m repro serve [options]     # run the async batching solve service
    python -m repro loadgen [options]   # drive a server with zipf traffic

``experiments`` with no ids runs the full E1..E13 suite (minutes); with ids
(e.g. ``e05 e11``) only those.  Tables are written to ``benchmarks/out/``
and echoed to stdout.

``sweep`` fans a grid of 2-ECSS runs across a process pool with on-disk
caching (see ``python -m repro sweep --help``); with the default
``--backend fast`` the vectorized kernels make 20k-node cells practical:

    python -m repro sweep --families grid,erdos_renyi --sizes 2000,20000 \\
        --eps 0.25,0.5 --seeds 1,2 --workers 4

``sweep --engine sim`` runs every cell as the full message-level pipeline
on the CONGEST engine (small sizes; identical solutions) and adds
measured-vs-priced round columns to the report:

    python -m repro sweep --engine sim --families grid,cycle_chords \\
        --sizes 30,60 --seeds 1,2

``serve`` boots the batching JSON-over-HTTP solver service
(``repro.serve``); ``loadgen`` drives one with zipf-skewed solve traffic
(``--spawn`` boots its own ephemeral server first — the CI smoke path):

    python -m repro serve --port 8421 --workers 2
    python -m repro loadgen --duration 10 --spawn --check

``demo --trace out.json`` dumps the run's span tree as Chrome trace
events (load in ``chrome://tracing`` or Perfetto).

Each subcommand imports only what it runs: ``demo``, ``backends``,
``serve`` and ``loadgen`` need nothing beyond ``networkx``, while
``experiments`` pulls in the MILP baselines (numpy, scipy).

Every subcommand exits 0 on success and 2 on usage errors (unknown
subcommand, invalid arguments), with a one-line message on stderr.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.tables import format_table, write_report


class CliError(Exception):
    """A usage error: printed as one line on stderr, exit code 2."""


def _split(raw: str, cast, flag: str) -> list:
    """Parse a comma-separated CLI value with a one-line error on failure."""
    try:
        return [cast(x) for x in raw.split(",") if x]
    except ValueError:
        raise CliError(
            f"invalid value for {flag}: {raw!r} "
            f"(expected comma-separated {cast.__name__} values)"
        ) from None


def run_demo(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro demo",
        description="Run the headline 2-ECSS algorithm once on a demo graph.",
    )
    parser.add_argument(
        "--trace", metavar="OUT.json", default=None,
        help="write the run's span tree as Chrome trace events "
        "(open in chrome://tracing or Perfetto)",
    )
    args = parser.parse_args(argv)
    import repro
    from repro import obs

    if args.trace:
        obs.enable()
    g = repro.graphs.cycle_with_chords(80, 40, seed=1)
    print(f"demo network: n={g.number_of_nodes()}, m={g.number_of_edges()}")
    res = repro.approximate_two_ecss(g, eps=0.5)
    print(res.summary())
    from repro.shortcuts import shortcut_two_ecss

    res2 = shortcut_two_ecss(g, seed=2)
    print(res2.summary())
    if args.trace:
        events = obs.write_chrome_trace(args.trace, obs.get_tracer().drain())
        print(f"-> {args.trace} ({events} trace events)")
    return 0


def run_experiments(ids: list[str]) -> int:
    from repro.analysis import experiments as E

    experiments = {
        "e01": ("e01_tecss_approx", E.e01_tecss_approx),
        "e02": ("e02_round_complexity", E.e02_round_complexity),
        "e03": ("e03_tap_on_gprime", E.e03_tap_approx),
        "e03b": ("e03_tap_vs_milp", E.e03_tap_vs_milp),
        "e04": ("e04_ablation_c4_vs_c2", E.e04_ablation),
        "e05": ("e05_layering", E.e05_layering),
        "e06": ("e06_unweighted_tap", E.e06_unweighted),
        "e07": ("e07_shortcut_algorithm", E.e07_shortcut_algorithm),
        "e07b": ("e07_shortcut_quality", E.e07_shortcut_quality),
        "e08": ("e08_shortcut_tools", E.e08_shortcut_tools),
        "e09": ("e09_subroutines", E.e09_subroutines),
        "e10": ("e10_forward_iters", E.e10_forward_iterations),
        "e11": ("e11_segments", E.e11_segments),
        "e12": ("e12_comparison", E.e12_comparison),
        "e13": ("e13_sim_engine", E.e13_sim_engine),
    }
    targets = ids or sorted(experiments)
    for key in targets:
        if key not in experiments:
            raise CliError(
                f"unknown experiment {key!r}; known: "
                f"{', '.join(sorted(experiments))}"
            )
        name, fn = experiments[key]
        rows = fn()
        table = format_table(rows, title=name)
        path = write_report(name, table)
        print(table)
        print(f"-> {path}\n")
    return 0


def run_sweep_cli(argv: list[str]) -> int:
    """Parse ``sweep`` options and run the parallel grid."""
    from repro.analysis.sweep import run_sweep

    parser = argparse.ArgumentParser(
        prog="python -m repro sweep",
        description=(
            "Fan a graph-family x size x eps grid of 2-ECSS runs across a "
            "process pool, with on-disk result caching and text/JSON/CSV "
            "output under benchmarks/out/."
        ),
    )
    parser.add_argument(
        "--families", default="cycle_chords,erdos_renyi,grid",
        help="comma-separated graph families (default: %(default)s)",
    )
    parser.add_argument(
        "--sizes", default="200,500",
        help="comma-separated target node counts (default: %(default)s)",
    )
    parser.add_argument(
        "--seeds", default="1", help="comma-separated seeds (default: %(default)s)"
    )
    parser.add_argument(
        "--eps", default="0.5",
        help="comma-separated eps values (default: %(default)s)",
    )
    parser.add_argument(
        "--k", default="2",
        help=(
            "comma-separated connectivity targets; k > 2 runs the "
            "iterated-augmentation k-ECSS layer and needs an engine with "
            "the 'k-ecss' capability (default: %(default)s)"
        ),
    )
    parser.add_argument(
        "--variant", default="improved", choices=("improved", "basic"),
        help="reverse-delete variant (default: %(default)s)",
    )
    from repro.runtime.registry import backend_names

    parser.add_argument(
        "--backend", default="fast",
        help=(
            "compute backend (registered: "
            f"{', '.join(backend_names('compute'))}; "
            "default: %(default)s)"
        ),
    )
    parser.add_argument(
        "--engine", default="local",
        help=(
            "'local' runs the centralized solver; 'sim' runs the full "
            "message-level pipeline on the CONGEST engine and adds "
            "rounds-vs-model columns (registered: "
            f"{', '.join(backend_names('engine'))}; default: %(default)s)"
        ),
    )
    parser.add_argument(
        "--no-validate", action="store_true",
        help="skip the runtime certificates (faster, less checked)",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="process-pool width; 0 = serial in-process (default: cpu count)",
    )
    parser.add_argument(
        "--name", default="sweep",
        help="output basename under benchmarks/out/ (default: %(default)s)",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="result cache directory (default: benchmarks/out/sweep_cache)",
    )
    parser.add_argument(
        "--out-dir", default=None,
        help="where to write <name>.txt/.json/.csv (default: benchmarks/out)",
    )
    parser.add_argument(
        "--debug", action="store_true",
        help=(
            "print per-topology SolverSession.stats() (plan-cache hits/"
            "misses/evictions, per-phase build times) after the table"
        ),
    )
    args = parser.parse_args(argv)

    from repro.runtime.registry import UnknownBackendError

    try:
        report = run_sweep(
            families=_split(args.families, str, "--families"),
            sizes=_split(args.sizes, int, "--sizes"),
            seeds=_split(args.seeds, int, "--seeds"),
            eps_values=_split(args.eps, float, "--eps"),
            variant=args.variant,
            backend=args.backend,
            validate=not args.no_validate,
            engine=args.engine,
            ks=_split(args.k, int, "--k"),
            workers=args.workers,
            cache_dir=args.cache_dir,
            name=args.name,
            out_dir=args.out_dir,
        )
    except UnknownBackendError as exc:
        # One line listing the registered backends, not a traceback.
        raise CliError(str(exc)) from None
    except ValueError as exc:
        # e.g. --k 3 with an engine lacking the k-ecss capability.
        raise CliError(str(exc)) from None
    from repro.analysis.tables import format_table

    print(format_table(report.rows, title=args.name))
    print(
        f"cells: {len(report.rows)} "
        f"(cache hits {report.cache_hits}, computed {report.cache_misses})"
    )
    if args.debug:
        for label, stats in sorted(report.session_stats.items()):
            times = ", ".join(
                f"{phase}={secs * 1000:.1f}ms"
                for phase, secs in sorted(stats["build_times_s"].items())
            )
            print(
                f"debug {label}: solves={stats['solves']} "
                f"plans_built={stats['plans_built']} "
                f"hits={stats['plan_hits']} "
                f"evictions={stats['plan_evictions']} [{times}]"
            )
    for path in (report.text_path, report.json_path, report.csv_path):
        print(f"-> {path}")
    return 0


def run_backends(argv: list[str]) -> int:
    """Print the execution-backend registry (table, or JSON with --json)."""
    import json

    parser = argparse.ArgumentParser(
        prog="python -m repro backends",
        description="List the registered execution backends.",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="machine-readable output (the serve /backends route and the "
        "load generator consume the same schema)",
    )
    args = parser.parse_args(argv)
    from repro.runtime.registry import registered_payload

    payload = registered_payload()
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    from repro.analysis.tables import format_table

    rows = [
        {
            "kind": spec["kind"],
            "name": spec["name"],
            "capabilities": ",".join(spec["capabilities"]) or "-",
            "description": spec["description"],
        }
        for spec in payload
    ]
    print(format_table(rows, title="registered execution backends"))
    return 0


def run_serve_cli(argv: list[str]) -> int:
    """Parse ``serve`` options and run the HTTP service until interrupted."""
    from repro.serve.app import ServeConfig
    from repro.serve.server import run_server

    defaults = ServeConfig()
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description=(
            "Run the async batching 2-ECSS solve service: JSON over "
            "HTTP/1.1, topology-sharded worker processes, per-topology "
            "micro-batching onto shared SolverSession plan caches."
        ),
    )
    parser.add_argument("--host", default=defaults.host)
    parser.add_argument(
        "--port", type=int, default=defaults.port,
        help="listening port; 0 picks an ephemeral one (default: %(default)s)",
    )
    parser.add_argument(
        "--workers", type=int, default=defaults.workers,
        help="worker processes (topology shards); 0 = inline in-process "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--max-batch", type=int, default=defaults.max_batch,
        help="flush a topology's batch at this many coalesced requests "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--max-delay-ms", type=float, default=defaults.max_delay_ms,
        help="max milliseconds a request waits to be batched "
        "(default: %(default)s)",
    )
    from repro.runtime.registry import backend_names

    parser.add_argument(
        "--backend", default=defaults.backend,
        help=f"default compute backend (registered: "
        f"{', '.join(backend_names('compute'))}; default: %(default)s)",
    )
    parser.add_argument(
        "--engine", default=defaults.engine,
        help=f"default engine (registered: "
        f"{', '.join(backend_names('engine'))}; default: %(default)s)",
    )
    parser.add_argument(
        "--max-plans", type=int, default=defaults.max_plans,
        help="per-session plan LRU size (default: %(default)s)",
    )
    parser.add_argument(
        "--max-sessions", type=int, default=defaults.max_sessions,
        help="per-worker session LRU size (default: %(default)s)",
    )
    parser.add_argument(
        "--no-tracing", action="store_true",
        help="disable span tracing (drops the /metrics per-phase "
        "breakdown and the per-request timings block)",
    )
    args = parser.parse_args(argv)
    from repro.runtime.registry import UnknownBackendError, get_backend

    try:
        get_backend("compute", args.backend)
        get_backend("engine", args.engine)
    except UnknownBackendError as exc:
        raise CliError(str(exc)) from None
    return run_server(ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_batch=args.max_batch,
        max_delay_ms=args.max_delay_ms,
        backend=args.backend,
        engine=args.engine,
        max_plans=args.max_plans,
        max_sessions=args.max_sessions,
        tracing=not args.no_tracing,
    ))


def run_loadgen_cli(argv: list[str]) -> int:
    """Parse ``loadgen`` options, drive a server, print the summary."""
    import json

    from repro.serve.loadgen import LoadgenConfig, run_loadgen

    defaults = LoadgenConfig()
    parser = argparse.ArgumentParser(
        prog="python -m repro loadgen",
        description=(
            "Generate zipf-skewed solve traffic against a repro serve "
            "instance and report throughput/latency/error statistics."
        ),
    )
    parser.add_argument("--host", default=defaults.host)
    parser.add_argument("--port", type=int, default=defaults.port)
    parser.add_argument(
        "--duration", type=float, default=defaults.duration_s,
        help="seconds to run (default: %(default)s)",
    )
    parser.add_argument(
        "--requests", type=int, default=None,
        help="stop after this many requests (default: duration only)",
    )
    parser.add_argument(
        "--mode", default=defaults.mode,
        choices=("closed", "open", "drift", "montecarlo"),
        help="closed loop (fixed concurrency), open loop (fixed rate), "
        "drift (closed loop sending sparse /v1/delta reweights), or "
        "montecarlo (closed loop batching weight perturbations of one "
        "topology through /v1/solve_batch)",
    )
    parser.add_argument(
        "--concurrency", type=int, default=defaults.concurrency,
        help="closed-loop workers / open-loop connection pool "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--rate", type=float, default=defaults.rate,
        help="open-loop arrivals per second (default: %(default)s)",
    )
    parser.add_argument(
        "--families", default=",".join(defaults.families),
        help="comma-separated graph families (default: %(default)s)",
    )
    parser.add_argument(
        "--size", type=int, default=defaults.size,
        help="target node count per topology (default: %(default)s)",
    )
    parser.add_argument(
        "--topologies", type=int, default=defaults.topologies,
        help="distinct topologies in the universe (default: %(default)s)",
    )
    parser.add_argument(
        "--zipf", type=float, default=defaults.zipf_s,
        help="zipf popularity exponent (default: %(default)s)",
    )
    parser.add_argument(
        "--scenarios", type=int, default=defaults.scenarios,
        help="weight scenarios cycled per topology (default: %(default)s)",
    )
    parser.add_argument(
        "--drift-edges", type=float, default=defaults.drift_edges,
        help="fraction of edges per --mode drift delta "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--batch", type=int, default=defaults.batch,
        help="scenarios per --mode montecarlo request (default: %(default)s)",
    )
    parser.add_argument(
        "--binary", action="store_true",
        help="send --mode montecarlo weight columns as binary frames "
        "and request framed responses",
    )
    parser.add_argument("--seed", type=int, default=defaults.seed)
    parser.add_argument("--eps", type=float, default=defaults.eps)
    parser.add_argument(
        "--backend", default=None,
        help="request this compute backend explicitly (default: server's)",
    )
    parser.add_argument(
        "--engine", default=None,
        help="request this engine explicitly (default: server's)",
    )
    parser.add_argument(
        "--spawn", action="store_true",
        help="boot an in-process server on an ephemeral port for the run",
    )
    parser.add_argument(
        "--spawn-workers", type=int, default=0,
        help="worker processes for --spawn; 0 = inline (default: %(default)s)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 if any protocol or transport error occurred "
        "(the CI smoke gate)",
    )
    parser.add_argument(
        "--no-timings", action="store_true",
        help="don't request the server's per-phase timings block",
    )
    parser.add_argument(
        "--json", action="store_true", help="print the summary as JSON only"
    )
    args = parser.parse_args(argv)

    cfg = LoadgenConfig(
        host=args.host,
        port=args.port,
        duration_s=args.duration,
        requests=args.requests,
        mode=args.mode,
        concurrency=args.concurrency,
        rate=args.rate,
        families=tuple(_split(args.families, str, "--families")),
        size=args.size,
        topologies=args.topologies,
        zipf_s=args.zipf,
        scenarios=args.scenarios,
        drift_edges=args.drift_edges,
        batch=args.batch,
        binary=args.binary,
        seed=args.seed,
        eps=args.eps,
        backend=args.backend,
        engine=args.engine,
        timings=not args.no_timings,
    )
    spawn = None
    if args.spawn:
        from repro.serve.app import ServeConfig

        spawn = ServeConfig(workers=args.spawn_workers)
    try:
        summary = run_loadgen(cfg, spawn=spawn)
    except (ConnectionRefusedError, OSError) as exc:
        raise CliError(
            f"cannot reach http://{cfg.host}:{cfg.port} ({exc}); "
            "start one with `python -m repro serve` or pass --spawn"
        ) from None
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        lat = summary["latency_ms"]
        deltas = (
            f" ({summary['deltas']} deltas)" if summary.get("deltas") else ""
        )
        print(
            f"loadgen ({summary['mode']} loop): {summary['ok']}/"
            f"{summary['requests']} ok{deltas} in {summary['duration_s']}s "
            f"-> {summary['throughput_rps']} req/s"
        )
        print(
            f"latency ms: mean {lat['mean']} p50 {lat['p50']} "
            f"p90 {lat['p90']} p99 {lat['p99']} max {lat['max']}"
        )
        frames = (
            f", binary frames {summary['frames']}"
            if summary.get("frames") else ""
        )
        print(
            f"errors: protocol {summary['protocol_errors']}, transport "
            f"{summary['transport_errors']} (codes: "
            f"{summary['error_codes'] or '-'}); batch size mean "
            f"{summary['batch_size']['mean']} max "
            f"{summary['batch_size']['max']}{frames}"
        )
        phases = summary.get("server_phases_ms") or {}
        if phases:
            print("server phases (mean ms per occurrence):")
            width = max(len(name) for name in phases)
            for name, cell in phases.items():
                print(
                    f"  {name:<{width}}  mean {cell['mean_ms']:>9.3f}  "
                    f"total {cell['total_ms']:>10.1f}  x{cell['count']:.10g}"
                )
    failures = summary["protocol_errors"] + summary["transport_errors"]
    if args.check and failures:
        print(f"loadgen: {failures} failed request(s)", file=sys.stderr)
        return 1
    return 0


def run_figures() -> int:
    import os

    sys.path.insert(
        0,
        os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)))), "benchmarks"),
    )
    from bench_f01_figures import run_figures as rf

    text = rf()
    write_report("figures", text)
    print(text)
    return 0


#: Subcommand table: name -> handler taking the remaining argv.
COMMANDS = {
    "demo": run_demo,
    "experiments": run_experiments,
    "sweep": run_sweep_cli,
    "backends": run_backends,
    "serve": run_serve_cli,
    "loadgen": run_loadgen_cli,
    "figures": lambda rest: run_figures(),
}


def main(argv: list[str]) -> int:
    """Dispatch one subcommand; usage errors are one line on stderr, exit 2."""
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0
    cmd, rest = argv[0], argv[1:]
    handler = COMMANDS.get(cmd)
    if handler is None:
        print(
            f"repro: unknown command {cmd!r} "
            f"(known: {', '.join(sorted(COMMANDS))})",
            file=sys.stderr,
        )
        return 2
    try:
        return handler(rest)
    except CliError as exc:
        print(f"repro {cmd}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
