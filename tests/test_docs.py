"""The documentation layer is part of the contract: keep it checkable.

Runs the same checks as the CI docs job (``tools/check_docs.py``)
in-process, and pins the acceptance-level facts: the two docs files
exist and are linked from the README.
"""

from __future__ import annotations

import importlib.util
import os

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_docs", os.path.join(REPO, "tools", "check_docs.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docs_exist_and_linked_from_readme() -> None:
    for name in ("ARCHITECTURE.md", "PAPER_MAP.md"):
        assert os.path.exists(os.path.join(REPO, "docs", name)), name
    with open(os.path.join(REPO, "README.md")) as fh:
        readme = fh.read()
    assert "docs/ARCHITECTURE.md" in readme
    assert "docs/PAPER_MAP.md" in readme


def test_doc_links_resolve() -> None:
    checker = _load_checker()
    assert checker.check_links(REPO) == []


def test_docstring_presence() -> None:
    checker = _load_checker()
    assert checker.check_docstrings(REPO) == []

