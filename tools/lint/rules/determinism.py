"""Determinism rules: the bit-identity contract, enforced statically.

Every backend in this repository must produce byte-identical results for
the same input (``docs/ARCHITECTURE.md``, "bit-identical" gates).  The
classic ways Python silently breaks that are unordered ``set`` iteration,
unseeded RNG, unstable sorts on tie-prone keys, and wall-clock reads
leaking into results.  These rules flag each at the source.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.lint.astutil import (
    alias_map,
    call_name,
    canonical_name,
    enclosing_function,
)
from tools.lint.findings import Finding
from tools.lint.registry import Rule, register_rule

#: The solver packages held to the strict ordering rules (the serving and
#: analysis layers consume results; they do not produce them).
SOLVER_PACKAGES = (
    "repro.core",
    "repro.fast",
    "repro.runtime",
    "repro.decomp",
    "repro.trees",
)

#: Callables whose result does not depend on argument iteration order.
ORDER_INSENSITIVE_CALLS = frozenset({
    "sorted", "min", "max", "sum", "len", "any", "all",
    "set", "frozenset",
})

#: Set-method calls that are order-insensitive regardless of receiver.
ORDER_INSENSITIVE_METHODS = frozenset({
    "union", "intersection", "difference", "symmetric_difference",
    "update", "intersection_update", "difference_update",
    "symmetric_difference_update", "issubset", "issuperset", "isdisjoint",
})

#: Callees (by leaf name) that materialise their iterable argument in
#: order.  A set passed straight into one of these bakes hash order into
#: a durable structure — a tree rooted from a set of edges gets
#: run-dependent DFS labels, and downstream tie-breaks compare them.
#: Sets passed to *other* calls are typically membership tables and are
#: left alone (the callee's own iteration is linted in its module).
ORDER_SENSITIVE_SINKS = frozenset({
    "from_edges", "add_edges_from", "add_nodes_from",
    "join", "extend", "fromkeys", "deque",
})


def _set_vars(func: ast.AST) -> set[str]:
    """Names assigned a set-typed value anywhere in the function body.

    Two passes over plain assignments so chains like ``a = set(); b = a``
    resolve regardless of textual order.  Deliberately first-order: an
    attribute or subscript holding a set is out of scope (suppress with a
    reason where one is iterated legitimately).
    """
    names: set[str] = set()
    for _ in range(2):
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            elif isinstance(node, ast.AugAssign):
                targets = [node.target]
            else:
                continue
            value = getattr(node, "value", None)
            if value is not None and _is_setlike(value, names):
                for target in targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
    return names


def _is_setlike(node: ast.AST, set_vars: set[str]) -> bool:
    """Whether an expression statically looks set-typed."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in set_vars
    if isinstance(node, ast.Call):
        name = call_name(node)
        if name in ("set", "frozenset"):
            return True
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in (
                "union", "intersection", "difference",
                "symmetric_difference", "copy",
            )
            and _is_setlike(node.func.value, set_vars)
        ):
            return True
        return False
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        return _is_setlike(node.left, set_vars) or _is_setlike(
            node.right, set_vars
        )
    return False


def _is_keys_call(node: ast.AST) -> bool:
    """``X.keys()`` — flagged alongside sets per the determinism policy.

    Dict iteration is insertion-ordered, but on solver paths insertion
    order is itself rarely a documented invariant; iterate ``sorted(...)``
    or keep an explicit ordered list instead.
    """
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "keys"
        and not node.args
    )


@register_rule
class SetIterationRule(Rule):
    """Unordered ``set``/``dict.keys`` iteration on solver paths."""

    name = "det-set-iter"
    family = "determinism"
    description = (
        "iteration over a set (or dict.keys()) in solver code without an "
        "order-insensitive consumer such as sorted(...)"
    )
    packages = SOLVER_PACKAGES

    def check(self, module, project) -> Iterator[Finding]:
        for func in ast.walk(module.tree):
            if not isinstance(
                func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)
            ):
                continue
            if isinstance(func, ast.Module):
                set_vars: set[str] = set()
            else:
                # Closures read enclosing-scope names, so a nested def
                # inherits every lexical ancestor's set-typed bindings.
                set_vars = _set_vars(func)
                scope = module.parent(func)
                while scope is not None:
                    if isinstance(
                        scope, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        set_vars |= _set_vars(scope)
                    scope = module.parent(scope)
            yield from self._check_scope(module, func, set_vars)

    def _check_scope(self, module, func, set_vars) -> Iterator[Finding]:
        for node in ast.iter_child_nodes(func):
            yield from self._visit(module, node, set_vars, top=func)

    def _visit(self, module, node, set_vars, top) -> Iterator[Finding]:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # nested defs get their own scope pass
        if isinstance(node, ast.For):
            yield from self._flag(module, node.iter, set_vars, "for loop")
        elif isinstance(
            node, (ast.ListComp, ast.GeneratorExp, ast.DictComp, ast.SetComp)
        ):
            if not self._order_safe_comp(module, node):
                for gen in node.generators:
                    yield from self._flag(
                        module, gen.iter, set_vars, "comprehension"
                    )
        elif isinstance(node, ast.Call):
            name = call_name(node)
            if name in ("list", "tuple") and node.args:
                yield from self._flag(
                    module, node.args[0], set_vars, f"{name}() call"
                )
            elif (
                name is not None
                and name.rsplit(".", 1)[-1] in ORDER_SENSITIVE_SINKS
            ):
                for arg in node.args:
                    yield from self._flag(
                        module, arg, set_vars, f"argument to {name}()",
                        direct_only=True,
                    )
        elif isinstance(node, ast.Starred):
            yield from self._flag(module, node.value, set_vars, "* unpacking")
        for child in ast.iter_child_nodes(node):
            yield from self._visit(module, child, set_vars, top)

    def _order_safe_comp(self, module, comp) -> bool:
        """A comprehension consumed order-insensitively (or set-shaped)."""
        if isinstance(comp, (ast.SetComp, ast.DictComp)):
            return True
        parent = module.parent(comp)
        if isinstance(parent, ast.Call):
            name = call_name(parent)
            if name is not None:
                leaf = name.rsplit(".", 1)[-1]
                if (
                    leaf in ORDER_INSENSITIVE_CALLS
                    or leaf in ORDER_INSENSITIVE_METHODS
                ):
                    return True
        return False

    def _flag(
        self, module, expr, set_vars, context, direct_only: bool = False
    ) -> Iterator[Finding]:
        """Yield a finding when ``expr`` is set-like (and not sorted)."""
        if _is_keys_call(expr):
            yield self.finding(
                module, expr,
                f"dict.keys() iterated in a {context}; iterate "
                "sorted(...) (or document the insertion-order invariant "
                "and suppress with a reason)",
            )
            return
        if direct_only and not isinstance(
            expr, (ast.Name, ast.Set, ast.SetComp)
        ):
            # Arbitrary call arguments are only flagged for plainly
            # set-shaped expressions; nested calls are the callee's
            # concern (keeps argument-position noise near zero).
            if not (isinstance(expr, ast.Call) and call_name(expr) in (
                "set", "frozenset"
            )):
                return
        if _is_setlike(expr, set_vars):
            yield self.finding(
                module, expr,
                f"set iterated in a {context} without sorted(...); "
                "iteration order is not deterministic across runs",
            )


#: ``random`` attributes that are *not* the unseeded module-level RNG.
_RANDOM_OK = frozenset({"Random", "SystemRandom"})
#: ``numpy.random`` attributes that construct explicit (seedable) RNGs.
_NP_RANDOM_OK = frozenset({
    "default_rng", "Generator", "RandomState", "SeedSequence", "BitGenerator",
    "PCG64", "Philox", "MT19937",
})


@register_rule
class UnseededRandomRule(Rule):
    """Module-level / unseeded RNG use outside tests."""

    name = "det-unseeded-random"
    family = "determinism"
    description = (
        "use of the global random/numpy.random state, or an RNG "
        "constructed without an explicit seed"
    )

    def check(self, module, project) -> Iterator[Finding]:
        aliases = project.cached(
            f"aliases:{module.rel_path}", lambda: alias_map(module.tree)
        )
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Attribute):
                yield from self._check_attribute(module, node, aliases)
            elif isinstance(node, ast.Call):
                yield from self._check_seedless(module, node, aliases)
            elif isinstance(node, ast.ImportFrom):
                yield from self._check_import(module, node)

    def _check_attribute(self, module, node, aliases) -> Iterator[Finding]:
        parent = module.parent(node)
        if isinstance(parent, ast.Attribute):
            return  # only the full chain is classified
        name = canonical_name(node, aliases)
        if name is None:
            return
        if name.startswith("random.") and name.count(".") == 1:
            leaf = name.split(".")[1]
            if leaf not in _RANDOM_OK:
                yield self.finding(
                    module, node,
                    f"{name} uses the process-global RNG; construct "
                    "random.Random(seed) and thread it explicitly",
                )
        elif name.startswith("numpy.random."):
            leaf = name.rsplit(".", 1)[-1]
            if leaf not in _NP_RANDOM_OK:
                yield self.finding(
                    module, node,
                    f"{name} uses numpy's global RNG; construct "
                    "numpy.random.default_rng(seed) and pass it down",
                )

    def _check_seedless(self, module, node, aliases) -> Iterator[Finding]:
        name = canonical_name(node.func, aliases)
        if name is None:
            return
        leaf = name.rsplit(".", 1)[-1]
        seedable = (
            name in ("random.Random", "numpy.random.RandomState")
            or (name.startswith("numpy.random.") and leaf == "default_rng")
        )
        if seedable and not node.args and not node.keywords:
            yield self.finding(
                module, node,
                f"{name}() without a seed is entropy-seeded; pass an "
                "explicit seed so runs are reproducible",
            )

    def _check_import(self, module, node) -> Iterator[Finding]:
        if node.level != 0 or node.module not in ("random", "numpy.random"):
            return
        ok = _RANDOM_OK if node.module == "random" else _NP_RANDOM_OK
        for alias in node.names:
            if alias.name != "*" and alias.name not in ok:
                yield self.finding(
                    module, node,
                    f"from {node.module} import {alias.name} binds the "
                    "global RNG; import the seedable class instead",
                )


@register_rule
class UnstableSortRule(Rule):
    """``argsort``/``np.sort`` without ``kind=\"stable\"`` in solver code."""

    name = "det-unstable-sort"
    family = "determinism"
    description = (
        "numpy argsort/sort without kind=\"stable\" — ties are the norm "
        "on weight keys, and the default introsort breaks them "
        "platform-dependently"
    )
    packages = SOLVER_PACKAGES + ("repro.dist",)

    def check(self, module, project) -> Iterator[Finding]:
        aliases = project.cached(
            f"aliases:{module.rel_path}", lambda: alias_map(module.tree)
        )
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = canonical_name(node.func, aliases) or ""
            leaf = name.rsplit(".", 1)[-1]
            is_np_sort = name in ("numpy.sort", "numpy.argsort", "numpy.lexsort")
            is_method = (
                isinstance(node.func, ast.Attribute)
                and leaf in ("argsort",)
                and not is_np_sort
            )
            if not (is_np_sort or is_method):
                continue
            if leaf == "lexsort":
                continue  # lexsort is stable by definition
            kind = next(
                (kw.value for kw in node.keywords if kw.arg == "kind"), None
            )
            if not (
                isinstance(kind, ast.Constant) and kind.value == "stable"
            ):
                yield self.finding(
                    module, node,
                    f"{leaf}() without kind=\"stable\": equal keys (weight "
                    "ties) get platform-dependent order; pass "
                    "kind=\"stable\"",
                )


#: Wall-clock reads that must never feed result objects on solver paths.
_WALLCLOCK = frozenset({
    "time.time", "time.time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow", "datetime.date.today",
})


@register_rule
class WallClockRule(Rule):
    """Wall-clock reads in solver code (results must be input-determined)."""

    name = "det-wallclock"
    family = "determinism"
    description = (
        "time.time()/datetime.now() in solver code; use "
        "time.monotonic()/perf_counter() for durations and keep "
        "timestamps out of result objects"
    )
    # All of repro, minus the one package whose *job* is wall-clock
    # observation: repro.obs stamps span start times with time.time() so
    # multi-process trace trees align on a shared epoch.  Spans never
    # feed back into solver results, so determinism is untouched.
    packages = ("repro",)
    exempt_packages = ("repro.obs",)

    def check(self, module, project) -> Iterator[Finding]:
        aliases = project.cached(
            f"aliases:{module.rel_path}", lambda: alias_map(module.tree)
        )
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = canonical_name(node.func, aliases)
            if name in _WALLCLOCK:
                func = enclosing_function(module, node)
                where = f" in {func.name}()" if func is not None else ""
                yield self.finding(
                    module, node,
                    f"wall-clock read {name}(){where}: solver outputs "
                    "must be functions of their inputs; use "
                    "time.monotonic()/time.perf_counter() for durations",
                )
