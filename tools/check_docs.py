"""Documentation gate: links, dotted references, docstring presence.

Three checks, all dependency-free so they run in any environment:

* :func:`check_links` — every relative markdown link/image in ``docs/*.md``
  and ``README.md`` must resolve to an existing file in the repo;
* :func:`check_references` — every dotted ``repro.…`` reference in
  ``README.md``, ``docs/*.md`` and ``src/repro`` must name an existing
  module, and the first name after the module must be defined at that
  module's top level (``CHANGES.md`` and ``ROADMAP.md`` record history
  and stay out of scope);
* :func:`check_docstrings` — every module, public class, and public
  function/method under the given source trees must carry a docstring
  (the D100–D104 subset of pydocstyle, re-implemented here so the check
  also runs where pydocstyle is not installed; CI additionally runs
  ``python -m pydocstyle`` with the matching ``select`` list from
  ``pyproject.toml``).

Used by the CI ``docs`` job and by ``tests/test_docs.py``:

    python tools/check_docs.py            # check the repo, exit 1 on issues
"""

from __future__ import annotations

import ast
import os
import re
import sys

#: Source trees held to the docstring requirement.
DOCSTRING_TREES = (
    "src/repro/sim",
    "src/repro/core",
    "src/repro/fast",
    "src/repro/dist",
    "src/repro/runtime",
    "src/repro/serve",
    "src/repro/graphs",
    "src/repro/baselines",
    "src/repro/decomp",
    "src/repro/trees",
)

#: Markdown files whose links must resolve.
LINKED_DOCS = ("README.md", "docs")

#: Files and trees whose dotted ``repro.…`` references must resolve.
REFERENCE_SOURCES = ("README.md", "docs", "src/repro")

_LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")

_DOTTED = re.compile(r"(?<![\w.])repro(?:\.[A-Za-z_]\w*)+")


def _repo_root() -> str:
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def check_links(root: str | None = None) -> list[str]:
    """Return one error string per broken relative link in the doc set."""
    root = root or _repo_root()
    errors: list[str] = []
    files: list[str] = []
    for entry in LINKED_DOCS:
        path = os.path.join(root, entry)
        if os.path.isdir(path):
            files.extend(
                os.path.join(path, f)
                for f in sorted(os.listdir(path))
                if f.endswith(".md")
            )
        elif os.path.exists(path):
            files.append(path)
    for md in files:
        base = os.path.dirname(md)
        with open(md, encoding="utf-8") as fh:
            text = fh.read()
        for match in _LINK.finditer(text):
            target = match.group(1)
            if "://" in target or target.startswith(("#", "mailto:")):
                continue
            rel = target.split("#", 1)[0]
            if not rel:
                continue
            resolved = os.path.normpath(os.path.join(base, rel))
            if not os.path.exists(resolved):
                errors.append(
                    f"{os.path.relpath(md, root)}: broken link -> {target}"
                )
    return errors


def _reference_files(root: str) -> list[str]:
    """Markdown and Python files under :data:`REFERENCE_SOURCES`, sorted."""
    files: list[str] = []
    for entry in REFERENCE_SOURCES:
        path = os.path.join(root, entry)
        if os.path.isfile(path):
            files.append(path)
            continue
        for dirpath, _, filenames in os.walk(path):
            files.extend(
                os.path.join(dirpath, f)
                for f in filenames
                if f.endswith((".md", ".py"))
            )
    return sorted(files)


def _module_file(root: str, parts: list[str]) -> str | None:
    """The source file of module ``parts`` under ``src/``, if it exists."""
    base = os.path.join(root, "src", *parts)
    for candidate in (base + ".py", os.path.join(base, "__init__.py")):
        if os.path.isfile(candidate):
            return candidate
    return None


def _bound_names(target: ast.AST) -> set[str]:
    """Names an assignment target binds (tuple targets unpacked)."""
    if isinstance(target, ast.Name):
        return {target.id}
    if isinstance(target, (ast.Tuple, ast.List)):
        return set().union(*(_bound_names(t) for t in target.elts))
    return set()


def _top_level_names(path: str) -> set[str]:
    """Names a module binds at its top level, including inside if/try."""
    with open(path, encoding="utf-8") as fh:
        body = list(ast.parse(fh.read(), filename=path).body)
    names: set[str] = set()
    while body:
        node = body.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                names |= _bound_names(target)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            names |= _bound_names(node.target)
        elif isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.asname or a.name for a in node.names)
        elif isinstance(node, (ast.If, ast.Try, ast.With)):
            body.extend(getattr(node, "body", []))
            body.extend(getattr(node, "orelse", []))
            body.extend(getattr(node, "finalbody", []))
            for handler in getattr(node, "handlers", []):
                body.extend(handler.body)
    return names


def check_references(root: str | None = None) -> list[str]:
    """Return one error per dotted ``repro.…`` reference that does not resolve."""
    root = root or _repo_root()
    errors: list[str] = []
    names_of: dict[str, set[str]] = {}
    for path in _reference_files(root):
        rel = os.path.relpath(path, root)
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        for lineno, line in enumerate(lines, 1):
            for match in _DOTTED.finditer(line):
                parts = match.group(0).split(".")
                depth = max(
                    i for i in range(1, len(parts) + 1)
                    if _module_file(root, parts[:i]) is not None
                )
                if depth == len(parts):
                    continue
                module = _module_file(root, parts[:depth])
                if module not in names_of:
                    names_of[module] = _top_level_names(module)
                if parts[depth] not in names_of[module]:
                    errors.append(
                        f"{rel}:{lineno}: {match.group(0)} does not resolve: "
                        f"no module or top-level name {parts[depth]!r} in "
                        f"{'.'.join(parts[:depth])}"
                    )
    return errors


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def check_docstrings(
    root: str | None = None, trees: tuple[str, ...] = DOCSTRING_TREES
) -> list[str]:
    """Return one error per missing module/class/function docstring."""
    root = root or _repo_root()
    errors: list[str] = []
    for tree in trees:
        top = os.path.join(root, tree)
        for dirpath, _, filenames in os.walk(top):
            for filename in sorted(filenames):
                if not filename.endswith(".py"):
                    continue
                path = os.path.join(dirpath, filename)
                rel = os.path.relpath(path, root)
                with open(path, encoding="utf-8") as fh:
                    node = ast.parse(fh.read(), filename=rel)
                if not ast.get_docstring(node):
                    errors.append(f"{rel}: missing module docstring")
                for sub in ast.walk(node):
                    if isinstance(sub, ast.ClassDef) and _is_public(sub.name):
                        if not ast.get_docstring(sub):
                            errors.append(
                                f"{rel}: class {sub.name} missing docstring"
                            )
                    elif isinstance(
                        sub, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ) and _is_public(sub.name):
                        if not ast.get_docstring(sub):
                            errors.append(
                                f"{rel}:{sub.lineno}: def {sub.name} "
                                "missing docstring"
                            )
    return errors


def main() -> int:
    """Run every check and report; non-zero exit on any finding."""
    errors = check_links() + check_references() + check_docstrings()
    for err in errors:
        print(f"check_docs: {err}")
    if errors:
        print(f"check_docs: {len(errors)} issue(s)")
        return 1
    print(
        "check_docs: OK (links resolve, dotted references resolve, "
        "docstrings present)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
