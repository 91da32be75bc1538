"""Latency-ledger benchmark of the 2-ECSS solver stack.

Run from the repository root::

    python3 perfbench/run.py --workload cold_solve --seed 1 --seconds 10 --trace 0

Progress goes to stderr; the last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the ``end_to_end`` metrics listed in ``BENCHMARK.json``, ``--trace 1``
the ``per_layer`` ledger of a separate traced run.  ``--smoke`` swaps in a
tiny configuration of the workload that finishes in seconds.

The benchmark imports the ``repro`` package from this checkout's ``src/``
and nothing else; without it, it exits non-zero before printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def load_spec() -> dict:
    """The checkout's ``BENCHMARK.json`` (metric names and units)."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def import_repro() -> None:
    """Put this checkout's ``src/`` first on the path and import ``repro``.

    An installed copy of the package elsewhere must never be measured in
    place of the sources next to this file, so the import is verified.
    """
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit("perfbench: no repro sources under src/ here")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")


def with_units(values: dict, specs: list) -> dict:
    """Attach BENCHMARK.json units; every listed metric must be measured."""
    names = [spec["name"] for spec in specs]
    missing = sorted(set(names) - set(values))
    extra = sorted(set(values) - set(names))
    if missing or extra:
        raise SystemExit(
            f"perfbench: metrics missing {missing}, unexpected {extra}"
        )
    return {
        spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
        for spec in specs
    }


def parse_args(argv: "list[str] | None") -> argparse.Namespace:
    """The driver's command line plus ``--smoke``."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny configuration of the workload (seconds, not minutes)",
    )
    return parser.parse_args(argv)


def main(argv: "list[str] | None" = None) -> int:
    """Run one workload and print its result line."""
    args = parse_args(argv)
    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}")
    import_repro()
    import workloads

    outcome = workloads.run(
        args.workload, seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace), smoke=args.smoke,
    )
    specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = outcome["metrics"]
    if args.trace:
        # A workload that does not run a layer reports it as 0.
        values = {s["name"]: 0.0 for s in specs} | values
    print(json.dumps({
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": with_units(values, specs),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
