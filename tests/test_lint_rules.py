"""Fixture tests for the static-analysis suite (``tools.lint``).

Each rule family gets a positive fixture (a file that must trigger the
rule) and a negative fixture (the corrected idiom, which must lint
clean).  The fixtures live in ``tests/lint_fixtures/`` and masquerade as
in-scope modules via ``# lint: module=<dotted>`` directives, so scoped
rules (determinism, typed-def, serve contract) see them as solver/serve
code without the fixtures living under ``src/``.

Beyond the per-rule pairs, this module covers the suppression machinery
(a reasoned ``# lint: disable=`` comment moves a finding to the
suppressed bucket), baseline reproducibility (``--update-baseline``
output is byte-stable and matches the committed file), and the repo-wide
gate (``lint_paths()`` with the committed baseline reports zero
findings — the same invariant ``make lint`` enforces).
"""

from __future__ import annotations

import json
import os
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(REPO_ROOT, "tests", "lint_fixtures")

sys.path.insert(0, REPO_ROOT)

from tools.lint.engine import (  # noqa: E402
    BASELINE_PATH,
    LintResult,
    lint_paths,
    load_project,
    render_baseline,
)
from tools.lint.registry import RULES  # noqa: E402


def run_fixture(name: str, docs: tuple = None) -> LintResult:
    """Lint a single fixture file with the baseline disabled.

    ``docs`` defaults to the repo docs (README + ARCHITECTURE) so
    documentation-consistency rules see the real error-code table; the
    CLI fixtures pass ``docs=()`` because the real docs describe the
    real subcommand surface, not the fixture's.
    """
    path = os.path.join(FIXTURES, name)
    assert os.path.exists(path), f"missing fixture {name}"
    return lint_paths(paths=[path], use_baseline=False, docs=docs)


def rules_hit(result: LintResult) -> set:
    """The distinct rule names among a result's findings."""
    return {f.rule for f in result.findings}


#: (rule, positive fixture, negative fixture) triples — one per rule.
RULE_FIXTURES = [
    ("det-set-iter", "det_set_iter_bad.py", "det_set_iter_good.py"),
    (
        "det-unseeded-random",
        "det_unseeded_random_bad.py",
        "det_unseeded_random_good.py",
    ),
    (
        "det-unstable-sort",
        "det_unstable_sort_bad.py",
        "det_unstable_sort_good.py",
    ),
    ("det-wallclock", "det_wallclock_bad.py", "det_wallclock_good.py"),
    # The repro.obs package-level exemption: a solver module reading the
    # wall clock still fires; the identical read under repro.obs is clean.
    (
        "det-wallclock",
        "obs_wallclock_solver_bad.py",
        "obs_wallclock_exempt_good.py",
    ),
    ("async-blocking-call", "async_blocking_bad.py", "async_blocking_good.py"),
    (
        "async-unawaited-coroutine",
        "async_unawaited_bad.py",
        "async_unawaited_good.py",
    ),
    ("reg-capability", "reg_capability_bad.py", "reg_capability_good.py"),
    ("proto-error-code", "proto_error_code_bad.py", "proto_error_code_good.py"),
    (
        "serve-exception-contract",
        "serve_contract_bad.py",
        "serve_contract_good.py",
    ),
    ("hyg-mutable-default",
     "hyg_mutable_default_bad.py", "hyg_mutable_default_good.py"),
    ("hyg-assert", "hyg_assert_bad.py", "hyg_assert_good.py"),
    ("lint-suppression", "suppression_bad.py", "suppression_good.py"),
    ("typed-def", "typed_def_bad.py", "typed_def_good.py"),
]

CLI_FIXTURES = [("cli-commands", "cli_commands_bad.py", "cli_commands_good.py")]


@pytest.mark.parametrize("rule,bad,good", RULE_FIXTURES)
def test_rule_catches_positive_fixture(rule, bad, good):
    """The broken fixture triggers exactly its target rule."""
    result = run_fixture(bad)
    hit = rules_hit(result)
    assert rule in hit, f"{bad}: expected a {rule} finding, got {sorted(hit)}"


@pytest.mark.parametrize("rule,bad,good", RULE_FIXTURES)
def test_rule_passes_negative_fixture(rule, bad, good):
    """The corrected fixture lints completely clean (all rules)."""
    result = run_fixture(good)
    assert not result.findings, (
        f"{good}: expected a clean lint, got "
        f"{[str(f) for f in result.findings]}"
    )


@pytest.mark.parametrize("rule,bad,good", CLI_FIXTURES)
def test_cli_rule_fixtures(rule, bad, good):
    """CLI drift fixtures run with docs detached from the real repo."""
    result = run_fixture(bad, docs=())
    assert rule in rules_hit(result)
    result = run_fixture(good, docs=())
    assert not result.findings


def test_positive_fixtures_trigger_only_their_rule():
    """Positive fixtures are surgical: no collateral findings."""
    for rule, bad, _ in RULE_FIXTURES:
        hit = rules_hit(run_fixture(bad))
        assert hit == {rule}, f"{bad}: expected only {rule}, got {sorted(hit)}"


def test_issue_required_fixtures_present():
    """The three acceptance-criteria breakages are each caught."""
    assert "det-set-iter" in rules_hit(run_fixture("det_set_iter_bad.py"))
    assert "async-blocking-call" in rules_hit(
        run_fixture("async_blocking_bad.py")
    )
    assert "reg-capability" in rules_hit(run_fixture("reg_capability_bad.py"))


def test_capability_declarations_are_found_in_src():
    """`reg-capability` sees the backend table's declarations.

    The rule reads only ``capabilities=`` keywords of ``BackendSpec(...)``
    calls and passes silently when it finds none, so a table written
    another way would switch the rule off without a finding.
    """
    from tools.lint.rules.consistency import _declared_capabilities

    declared = _declared_capabilities(
        load_project(paths=["src/repro"], docs=())
    )
    assert {"failure-injection", "k-ecss"} <= declared


def test_suppression_moves_finding_to_suppressed_bucket():
    """A reasoned disable comment suppresses without hiding the count."""
    result = run_fixture("suppression_good.py")
    assert not result.findings
    assert [f.rule for f in result.suppressed] == ["det-set-iter"]


def test_malformed_suppressions_are_findings():
    """Unknown rule names and missing reasons are themselves flagged."""
    result = run_fixture("suppression_bad.py")
    messages = [f.message for f in result.findings]
    assert any("unknown rule" in m for m in messages)
    assert any("without a reason" in m for m in messages)


def test_every_registered_rule_has_a_fixture_pair():
    """New rules must ship fixtures: registry and table stay in sync."""
    covered = {rule for rule, _, _ in RULE_FIXTURES + CLI_FIXTURES}
    assert covered == set(RULES), (
        f"rules without fixtures: {sorted(set(RULES) - covered)}; "
        f"fixtures for unregistered rules: {sorted(covered - set(RULES))}"
    )


def test_fixture_modules_masquerade_in_scope():
    """Every fixture declares a dotted module via `# lint: module=`."""
    paths = [
        os.path.join(FIXTURES, name)
        for name in sorted(os.listdir(FIXTURES))
        if name.endswith(".py")
    ]
    project = load_project(paths=paths, docs=())
    for module in project.modules:
        assert module.dotted.startswith("repro."), (
            f"{module.rel_path} resolves to {module.dotted!r}; fixtures "
            "must masquerade via `# lint: module=repro...`"
        )


def test_baseline_is_reproducible_and_committed():
    """`--update-baseline` output is byte-identical to the checked-in file."""
    result = lint_paths(root=REPO_ROOT, use_baseline=True)
    rendered = render_baseline(result.all_raw())
    baseline_file = os.path.join(REPO_ROOT, BASELINE_PATH)
    with open(baseline_file, "r", encoding="utf-8") as fh:
        committed = fh.read()
    assert rendered == committed, (
        "tools/lint/baseline.json is stale; regenerate with "
        "`python -m tools.lint --update-baseline`"
    )
    # And it is valid JSON with the documented shape.
    payload = json.loads(committed)
    assert payload["version"] == 1
    assert isinstance(payload["findings"], list)


def test_repo_lints_clean_against_baseline():
    """The repo-wide gate: zero unbaselined findings, zero stale entries."""
    result = lint_paths(root=REPO_ROOT, use_baseline=True)
    assert result.ok, (
        f"{len(result.findings)} unbaselined finding(s), "
        f"{len(result.stale_baseline)} stale baseline entr(ies): "
        f"{[str(f) for f in result.findings[:10]]}"
    )
    assert result.checked_modules > 50  # src/repro + tools are both scanned
