"""Tests for the analysis helpers: tables, metrics, figures, experiments."""

from __future__ import annotations

import math
import os
import random

import pytest

from repro.analysis import experiments as E
from repro.analysis.figures import (
    render_anchor_dependencies,
    render_cleaning_cases,
    render_layering,
    render_petals_example,
)
from repro.analysis.metrics import geometric_mean, power_law_fit
from repro.analysis.tables import format_table, write_report
from repro.core.instance import TAPInstance
from repro.core.tap import solve_virtual_tap
from repro.decomp.layering import Layering
from repro.decomp.petals import PetalOracle
from repro.trees.rooted import RootedTree

from conftest import needs_milp, random_tree


class TestTables:
    def test_format_alignment(self):
        rows = [
            {"a": 1, "b": 2.34567, "c": "x"},
            {"a": 100, "b": float("inf"), "c": "yy"},
        ]
        table = format_table(rows, title="demo")
        lines = table.splitlines()
        assert lines[0] == "demo"
        assert "2.346" in table
        assert "inf" in table
        # all data rows align with the header width
        assert len(set(len(l) for l in lines[1:3])) <= 2

    def test_empty(self):
        assert "(no rows)" in format_table([], title="t")

    def test_write_report(self, tmp_path):
        path = write_report("unit_test_report", "hello\n", directory=str(tmp_path))
        assert os.path.exists(path)
        with open(path) as fh:
            assert fh.read() == "hello\n"


class TestMetrics:
    def test_power_law_recovers_exponent(self):
        xs = [10, 100, 1000, 10000]
        for b_true in (0.5, 1.0, 2.0):
            ys = [3.0 * x**b_true for x in xs]
            a, b = power_law_fit(xs, ys)
            assert b == pytest.approx(b_true, abs=1e-9)
            assert a == pytest.approx(3.0, rel=1e-9)

    def test_power_law_with_noise(self):
        rng = random.Random(1)
        xs = [2**k for k in range(4, 14)]
        ys = [5.0 * x**0.5 * rng.uniform(0.9, 1.1) for x in xs]
        _, b = power_law_fit(xs, ys)
        assert 0.4 <= b <= 0.6

    def test_power_law_errors(self):
        with pytest.raises(ValueError):
            power_law_fit([1], [1])
        with pytest.raises(ValueError):
            power_law_fit([1, -1], [1, 1])
        with pytest.raises(ValueError):
            power_law_fit([2, 2], [1, 3])

    def test_geometric_mean(self):
        assert geometric_mean([2, 8]) == pytest.approx(4.0)
        with pytest.raises(ValueError):
            geometric_mean([])
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])


class TestFigures:
    def _stress(self):
        rng = random.Random(12)
        n = 80
        tree = RootedTree([-1] + [v - 1 for v in range(1, n)], 0)
        links = [
            (dec, rng.randrange(0, dec), rng.uniform(1, 100))
            for dec in (rng.randrange(1, n) for _ in range(160))
        ]
        links.append((n - 1, 0, 500.0))
        inst = TAPInstance.from_links(tree, links, segment_size=4)
        fwd, rev = solve_virtual_tap(inst, eps=0.2, variant="improved")
        return inst, fwd, rev

    def test_render_layering(self):
        t = random_tree(20, seed=1)
        text = render_layering(t, Layering(t))
        assert "(root)" in text
        assert text.count("[layer") == t.n - 1

    def test_render_petals(self):
        t = random_tree(15, seed=2, shape="path")
        inst = TAPInstance.from_links(t, [(14, 0, 1.0), (10, 3, 1.0)])
        oracle = PetalOracle(inst.ops, inst.layering, [e.pair for e in inst.edges])
        text = render_petals_example(
            inst, 7, [0, 1], oracle.higher(7), oracle.lower(7)
        )
        assert "higher petal" in text
        assert "lower petal" in text

    def test_render_dependencies_and_cleaning(self):
        inst, fwd, rev = self._stress()
        dep_text = render_anchor_dependencies(inst, rev)
        clean_text = render_cleaning_cases(inst, fwd, rev)
        assert "dependent anchor pairs found:" in dep_text
        assert "cleaning removals:" in clean_text
        assert "cleaning removals: 0" not in clean_text  # seed 12 fires


class TestExperimentRunners:
    """Smoke-run each experiment with tiny parameters."""

    @needs_milp
    def test_e01(self):
        rows = E.e01_tecss_approx(families=("cycle_chords",), n_small=10, n_large=30, seeds=(1,))
        assert all(r["within"] for r in rows)

    def test_e02(self):
        rows = E.e02_round_complexity(families=("grid",), sizes=(36, 64))
        assert all(r["modeled_rounds"] <= r["thm11_bound"] for r in rows)

    def test_e03(self):
        rows = E.e03_tap_approx(sizes=(40,), seeds=(1,))
        assert all(r["within"] for r in rows)

    def test_e04(self):
        rows = E.e04_ablation(sizes=(60,), seeds=(1,))
        assert all(r["maxcov_improved(<=2)"] <= 2 for r in rows)

    def test_e05(self):
        rows = E.e05_layering(families=("grid",), sizes=(49,))
        assert all(r["layers"] <= r["log2_leaves"] + 2 for r in rows)

    @needs_milp
    def test_e06(self):
        rows = E.e06_unweighted(sizes=(12,), seeds=(1,))
        assert all(r["within_2"] for r in rows)

    def test_e07(self):
        rows = E.e07_shortcut_quality(n=64, families=("grid",))
        assert rows[0]["tree-restricted:a+b"] > 0

    def test_e08(self):
        rows = E.e08_shortcut_tools(sizes=(49,))
        assert rows[0]["correct"]

    def test_e09(self):
        rows = E.e09_subroutines(n=30, trials=5)
        assert rows[0]["xor_false_positive"] == 0

    def test_e10(self):
        rows = E.e10_forward_iterations(n=50, eps_values=(0.5,), seeds=(1,))
        assert rows[0]["dual_ok(<=1+eps)"]

    def test_e11(self):
        rows = E.e11_segments(sizes=(64,), families=("grid",))
        assert rows[0]["segments/sqrt_n"] <= 4

    def test_e12(self):
        rows = E.e12_comparison(n=60, seeds=(1,))
        assert rows[0]["h_MST"] >= 20
