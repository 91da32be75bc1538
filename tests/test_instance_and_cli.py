"""Tests for TAPInstance, results, the CLI and the simulated-MST bridge."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro
from repro.core.instance import TAPInstance
from repro.core.virtual_graph import build_virtual_edges
from repro.exceptions import NotTwoEdgeConnectedError
from repro.graphs import cycle_with_chords
from repro.__main__ import main as cli_main

from conftest import random_tap_links, random_tree


class TestInstance:
    def test_feasibility_check(self):
        tree = random_tree(10, shape="path")
        inst = TAPInstance.from_links(tree, [(9, 0, 1.0)])
        inst.check_feasible()  # the single link covers everything
        bad = TAPInstance.from_links(tree, [(9, 5, 1.0)])
        with pytest.raises(NotTwoEdgeConnectedError):
            bad.check_feasible()

    def test_weight_and_covers(self):
        tree = random_tree(12, seed=1)
        links = random_tap_links(tree, 20, seed=2)
        inst = TAPInstance.from_links(tree, links)
        assert inst.weight_of([]) == 0.0
        assert inst.weight_of([0]) == pytest.approx(inst.edges[0].weight)
        e = inst.edges[0]
        for t in inst.covered_edges(0):
            assert inst.covers(0, t)
            assert tree.covers_vertical(e.dec, e.anc, t)

    def test_num_tree_edges_and_coverage_cache(self):
        tree = random_tree(15, seed=3)
        links = random_tap_links(tree, 20, seed=4)
        inst = TAPInstance.from_links(tree, links)
        assert inst.num_tree_edges == 14
        cov1 = inst.coverage
        cov2 = inst.coverage
        assert cov1 is cov2  # cached

    def test_segment_size_override(self):
        tree = random_tree(40, seed=5)
        links = random_tap_links(tree, 40, seed=6)
        inst = TAPInstance.from_links(tree, links, segment_size=3)
        assert all(len(s.highway_edges) <= 3 for s in inst.segments.segments)


class TestSimulatedMstBridge:
    def test_same_solution_as_centralized(self):
        g = cycle_with_chords(30, 12, seed=7)
        a = repro.approximate_two_ecss(g, eps=0.5)
        b = repro.approximate_two_ecss(g, eps=0.5, simulate_mst=True)
        assert a.mst_weight == pytest.approx(b.mst_weight)
        assert b.mst_simulation is not None
        assert b.mst_simulation.rounds > 0
        assert sorted(a.edges) == sorted(b.edges)


class TestCli:
    def test_help(self, capsys):
        assert cli_main([]) == 0
        assert "python -m repro" in capsys.readouterr().out

    def test_demo(self, capsys):
        assert cli_main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "2-ECSS" in out

    def test_experiments_subset(self, capsys):
        assert cli_main(["experiments", "e05"]) == 0
        assert "e05_layering" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert cli_main(["experiments", "nope"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # one line, on stderr
        assert "unknown experiment" in err and "e01" in err

    def test_unknown_command(self, capsys):
        assert cli_main(["frobnicate"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "unknown command" in err and "serve" in err


class TestCliExitCodes:
    """Usage errors: exit 2 with a one-line stderr message, never a trace."""

    def test_sweep_invalid_sizes(self, capsys):
        assert cli_main(["sweep", "--sizes", "two-thousand"]) == 2
        err = capsys.readouterr().err
        assert "invalid value for --sizes" in err
        assert err.count("\n") == 1

    def test_sweep_invalid_eps(self, capsys):
        assert cli_main(["sweep", "--eps", "0.5,x"]) == 2
        assert "invalid value for --eps" in capsys.readouterr().err

    def test_sweep_unknown_backend(self, capsys):
        assert cli_main(["sweep", "--backend", "warp", "--sizes", "12"]) == 2
        err = capsys.readouterr().err
        assert "registered" in err and err.count("\n") == 1

    def test_serve_unknown_backend(self, capsys):
        assert cli_main(["serve", "--backend", "warp"]) == 2
        assert "registered" in capsys.readouterr().err

    def test_loadgen_invalid_families(self, capsys):
        # argparse flag errors exit 2 via SystemExit with a short usage.
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["loadgen", "--duration", "soon"])
        assert excinfo.value.code == 2

    def test_loadgen_unreachable_server(self, capsys):
        # Nothing listens on this port: one-line CliError, exit 2.
        assert cli_main([
            "loadgen", "--port", "1", "--duration", "0.2",
            "--topologies", "1", "--size", "12",
        ]) == 2
        err = capsys.readouterr().err
        assert "cannot reach" in err and "--spawn" in err


def test_cli_needs_neither_numpy_nor_scipy(tmp_path):
    """``demo`` and ``backends`` run on a networkx-only install: packages
    named numpy and scipy that fail to import shadow any installed ones."""
    for name in ("numpy", "scipy"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "__init__.py").write_text(
            f"raise ImportError('{name} is not installed')\n"
        )
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path), src]))
    for argv in (["demo"], ["backends"]):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *argv], env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr


class TestBackendsCli:
    def test_backends_table(self, capsys):
        assert cli_main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "registered execution backends" in out

    def test_backends_json_matches_registry(self, capsys):
        import json

        from repro.runtime.registry import registered_payload

        assert cli_main(["backends", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == registered_payload()
        names = {(s["kind"], s["name"]) for s in payload}
        assert ("compute", "fast") in names and ("engine", "sim") in names
        for spec in payload:
            assert set(spec) == {
                "kind", "name", "capabilities", "description", "alias",
            }


def test_package_version_has_one_source():
    # pyproject.toml reads the version from repro.__version__, so the
    # installed metadata and /healthz cannot disagree.
    import warnings

    pyproject = pytest.importorskip("setuptools.config.pyprojecttoml")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # setuptools flags [tool.setuptools] as beta
        config = pyproject.read_configuration(os.path.join(root, "pyproject.toml"))
    assert config["project"]["version"] == repro.__version__
