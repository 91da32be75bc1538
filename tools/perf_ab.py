"""Paired A/B of the perfbench latency ledger: the repo's performance gate.

    python tools/perf_ab.py <base-ref>

The base side is the merge base of ``<base-ref>`` and ``HEAD``, checked
out as a temporary ``git worktree``.  This checkout's ``perfbench/`` and
``BENCHMARK.json`` are copied over it, so both sides run identical
benchmark code against their own ``src/``; the HEAD side is this
checkout as it stands.  Every ``BENCHMARK.json`` workload runs in
:data:`PAIRS` pairs: one base run and one HEAD run back to back, the
side that goes first alternating from pair to pair, each with
``--trace 0``, ``--seconds`` set to ``run_seconds`` and the pair index as
the seed.

The exit status is 1 when a run on either side is not ``correct``, when
HEAD fails a larger share of ops than the base, or when the HEAD median
of any end-to-end metric is worse than the base median by more than the
metric's ``bound`` in its ``better`` direction.  Run length, bounds and
directions all come from ``BENCHMARK.json``; the gate has no threshold of
its own.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Base/HEAD pairs per workload.
PAIRS = 10


def load_spec() -> dict:
    """This checkout's ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def fail_share(runs: list) -> float:
    """Failed ops over attempted ops, summed over ``runs``."""
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def quartiles(values: list) -> tuple:
    """``(q1, median, q3)`` of a non-empty sample."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def worsening(base: float, head: float, better: str) -> float:
    """How much worse ``head`` is than ``base``, as a fraction of ``base``."""
    change = head - base if better == "lower" else base - head
    if base:
        return change / abs(base)
    return 0.0 if change <= 0 else float("inf")


def compare(spec: dict, workload: str, base: list, head: list) -> tuple:
    """Judge one workload's runs: ``(table rows, failures)``.

    ``base`` and ``head`` are perfbench result lines (``correct``,
    ``attempted``, ``failed``, ``metrics``).  A failure is one line of
    text; an empty list means the workload passes the gate.  A base run
    that is not ``correct`` is a failure too: with a broken baseline
    there is nothing to pass against.
    """
    failures = []
    for side, runs in (("base", base), ("HEAD", head)):
        for i, run in enumerate(runs):
            if not run["correct"]:
                failures.append(
                    f"{workload}: {side} run {i} is not correct "
                    f"({run['failed']} of {run['attempted']} ops failed)"
                )
    if fail_share(head) > fail_share(base):
        failures.append(
            f"{workload}: HEAD fails {fail_share(head):.2%} of ops, "
            f"base {fail_share(base):.2%}"
        )
    rows = []
    for metric in spec["end_to_end"]:
        name = metric["name"]
        sides = [
            [run["metrics"][name]["value"] for run in runs
             if name in run["metrics"]]
            for runs in (base, head)
        ]
        if not all(sides):
            continue  # only runs that crashed: reported as not correct
        (bq1, bmed, bq3), (hq1, hmed, hq3) = map(quartiles, sides)
        worse = worsening(bmed, hmed, metric["better"])
        verdict = "WORSE" if worse > metric["bound"] else "ok"
        if verdict == "WORSE":
            failures.append(
                f"{workload}: {name} median {hmed:.4g} {metric['unit']} is "
                f"{worse:+.1%} worse than base {bmed:.4g} "
                f"(bound {metric['bound']:.0%})"
            )
        elif (bq3 - bq1) / abs(bmed or 1.0) > metric["bound"]:
            verdict = "unresolved"  # base spread wider than the bound
        base_iqr = f"[{bq1:.4g}, {bq3:.4g}]"
        head_iqr = f"[{hq1:.4g}, {hq3:.4g}]"
        rows.append(
            f"  {name:<18} base {bmed:>9.4g} {base_iqr:<20} "
            f"HEAD {hmed:>9.4g} {head_iqr:<20} "
            f"{worse:+7.1%} worse (bound {metric['bound']:.0%})  {verdict}"
        )
    return rows, failures


def run_once(checkout: str, spec: dict, workload: str, seed: int) -> dict:
    """One ``--trace 0`` perfbench run in ``checkout``; its result line.

    A run that exits non-zero or prints no result counts as not correct.
    """
    proc = subprocess.run(
        [*spec["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(spec["run_seconds"]), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        return json.loads(lines[-1])
    tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
    print(f"perf_ab: {workload} seed {seed} in {checkout} crashed: "
          f"{tail[0]}", file=sys.stderr)
    return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}


def git(*args: str) -> str:
    """Run git in this checkout; its stripped stdout."""
    return subprocess.run(
        ["git", "-C", ROOT, *args], check=True, capture_output=True,
        text=True,
    ).stdout.strip()


def main(argv: list) -> int:
    """Run the A/B against ``argv[0]`` and apply the gate."""
    if len(argv) != 1 or argv[0].startswith("-"):
        print("usage: python tools/perf_ab.py <base-ref>", file=sys.stderr)
        return 2
    try:
        base_sha = git("merge-base", argv[0], "HEAD")
    except subprocess.CalledProcessError as exc:
        print(f"perf_ab: no merge base of {argv[0]!r} and HEAD: "
              f"{exc.stderr.strip()}", file=sys.stderr)
        return 2
    spec = load_spec()
    failures = []
    with tempfile.TemporaryDirectory(prefix="perf_ab-") as tmp:
        base_dir = os.path.join(tmp, "base")
        git("worktree", "add", "--detach", base_dir, base_sha)
        try:
            shutil.rmtree(os.path.join(base_dir, "perfbench"),
                          ignore_errors=True)
            shutil.copytree(
                os.path.join(ROOT, "perfbench"),
                os.path.join(base_dir, "perfbench"),
                ignore=shutil.ignore_patterns("__pycache__"),
            )
            shutil.copy2(os.path.join(ROOT, "BENCHMARK.json"), base_dir)
            print(f"perf_ab: base {base_sha[:12]} vs HEAD (this checkout), "
                  f"{PAIRS} pairs x {spec['run_seconds']} s per workload")
            for workload in (w["name"] for w in spec["workloads"]):
                base, head = [], []
                for pair in range(PAIRS):
                    sides = [(base_dir, base), (ROOT, head)]
                    if pair % 2:
                        sides.reverse()
                    for checkout, runs in sides:
                        runs.append(run_once(checkout, spec, workload, pair))
                    print(f"perf_ab: {workload} pair {pair + 1}/{PAIRS}",
                          file=sys.stderr, flush=True)
                rows, found = compare(spec, workload, base, head)
                print(f"{workload}:", *rows, sep="\n", flush=True)
                failures += found
        finally:
            git("worktree", "remove", "--force", base_dir)
    for failure in failures:
        print(f"perf_ab: FAIL {failure}")
    if failures:
        return 1
    print("perf_ab: no end-to-end metric worse than its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
