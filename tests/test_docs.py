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



def test_dotted_references_resolve() -> None:
    checker = _load_checker()
    assert checker.check_references(REPO) == []


def test_dotted_reference_check_flags_stale_names(tmp_path) -> None:
    checker = _load_checker()
    pkg = tmp_path / "src" / "repro" / "sim"
    pkg.mkdir(parents=True)
    (pkg.parent / "__init__.py").write_text('"""Top."""\n__version__ = "0"\n')
    (pkg / "__init__.py").write_text(
        '"""Sim."""\ntry:\n    import numpy as _np\nexcept ImportError:\n'
        "    _np = None\nfrom repro.sim.engine import Engine\n"
    )
    (pkg / "engine.py").write_text('"""Engine."""\nclass Engine:\n    pass\n')
    (tmp_path / "docs").mkdir()
    (tmp_path / "README.md").write_text(
        "`repro.sim.Engine.run`, `repro.sim.engine`, `repro.__version__`,\n"
        "`repro.sim._np` and `repro.sim.engine.Engine` resolve;\n"
        "`repro.old.network.Network` and `repro.sim.engine.Gone` do not.\n"
    )
    errors = checker.check_references(str(tmp_path))
    assert len(errors) == 2
    assert errors[0].startswith("README.md:3: repro.old.network.Network")
    assert "'old' in repro" in errors[0]
    assert "'Gone' in repro.sim.engine" in errors[1]
