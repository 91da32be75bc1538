"""Scenario-batched solving: many weight columns through one kernel pass.

The dominant production traffic shape is one topology × many weight
scenarios (Monte-Carlo what-if sweeps, failure studies).  Solving them one
at a time pays the full per-scenario pipeline — Kruskal, link filtering,
instance build, the forward phase — once per scenario even though almost
everything it computes is a pure function of the *tree*, which scenario
perturbations rarely change.
:meth:`repro.runtime.session.SolverSession.solve_many` routes every
compatible group of two or more fast-backend queries here, and this
module restructures the group around that:

1. **Columns** — queries are deduplicated by weight column (value *and*
   type, :func:`~repro.runtime.handle.weights_token`); a column that
   provably keeps the session's base MST reuses it, every other column
   gets its MST from :func:`repro.core.tecss.stable_kruskal_mst`, the one
   MST builder, over the handle's flat edge arrays.
2. **Tree groups** — columns with the same MST share one *structure*: one
   rooted tree, one link list shape, one virtual-edge structure, one set
   of kernel tree arrays.  The group leader provides them — for the base
   tree, the session's pinned base plan, so a warm session builds no
   structure at all; every other column derives its
   :class:`~repro.core.instance.TAPInstance` by patching the weight column
   alone (the dense generalization of the delta path's
   :meth:`~repro.runtime.plan.SolverPlan._derive_instance`).
3. **One forward pass per group** —
   :func:`repro.fast.forward.forward_phase_fast_batch` runs the epoch
   loop for all of a group's scenarios as ``(scenarios × edges)`` kernel
   calls; reverse-delete, certificates and assembly then run per scenario
   on the scenario's own instance.

Bit-identity: every step either shares an object the one-query path
would have computed (tree, links structure) or re-applies its exact
arithmetic on a widened array, so the per-scenario results equal
:meth:`~repro.runtime.session.SolverSession.solve` field for field — held
by ``tests/test_scenario_batch.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

from repro import obs
from repro.core.instance import TAPInstance
from repro.core.reverse import COVER_BOUND, reverse_delete
from repro.core.tap import _certificates, assemble_tap_result
from repro.core.tecss import assemble_two_ecss, stable_kruskal_mst
from repro.fast import require_numpy
from repro.runtime.handle import GraphHandle, weights_token
from repro.runtime.plan import SolverPlan, _mst_weight
from repro.trees.rooted import RootedTree

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.session import SolveQuery, SolverSession

__all__ = ["solve_scenario_group"]


@dataclass
class _TreeGroup:
    """Shared structure for the scenarios whose MST is one given tree."""

    tree: RootedTree
    mst_edges: list[tuple[int, int]]
    leader_plan: SolverPlan | None = None
    link_pos: Any = None  # handle edge position of each link (int64)
    #: ``(scenario_index, plan, instance)`` triples, group insertion order.
    members: list[tuple[int, SolverPlan, TAPInstance]] = field(
        default_factory=list
    )


def _seed_plan(handle: GraphHandle, group: _TreeGroup) -> SolverPlan:
    """A plan for ``handle`` seeded with the group's already-known MST.

    Mirrors what :meth:`SolverPlan.from_delta` seeds after a reused-tree
    maintenance run: the shared tree object and the MST weight under this
    handle's weights.  Links then build lazily from the handle's flat
    arrays, exactly as on a fresh plan.
    """
    plan = SolverPlan(handle)
    plan.__dict__["_mst"] = (
        group.tree, group.mst_edges, _mst_weight(handle, group.mst_edges)
    )
    return plan


def _lead(group: _TreeGroup, plan: SolverPlan) -> TAPInstance:
    """Make ``plan`` the group leader; returns its full fast instance."""
    np = require_numpy()
    group.leader_plan = plan
    inst = plan.instance("fast")
    # Touch the lazy structure artifacts once so every derived
    # scenario shares them instead of rebuilding per scenario.
    inst.layering
    inst.hld
    inst.segments
    group.link_pos = np.asarray(plan._link_edge_pos, dtype=np.int64)
    return inst


def _group_instance(
    plan: SolverPlan, group: _TreeGroup, column64: Any
) -> TAPInstance:
    """The plan's fast instance, derived from the group leader when possible.

    The first plan of a leaderless group builds the full structure
    (virtual-edge columns, layering, HLD, segments, kernel arrays) and
    becomes the leader; later plans clone it with only the weight column
    rewritten — the same derivation :meth:`SolverPlan._derive_instance`
    performs for sparse deltas, generalized to a whole-column patch via
    the leader's link-position array (``weights64[link_pos]`` equals the
    ``float()`` casts of a fresh link build, value for value).
    """
    from repro.core.virtual_graph import VirtualEdgeColumns

    if group.leader_plan is None:
        return _lead(group, plan)
    leader_inst = group.leader_plan.instance("fast")
    cols = leader_inst.edges
    if not isinstance(cols, VirtualEdgeColumns):  # pragma: no cover - guard
        raise TypeError("scenario derivation needs fast-backend columns")
    link_w = column64[group.link_pos]
    edges = VirtualEdgeColumns(
        cols.dec, cols.anc, link_w[cols.link_of], cols.link_of,
        cols._links, cols._origins,
    )
    inst = TAPInstance(leader_inst.tree, edges, leader_inst.segment_size)
    inst.__dict__["arrays"] = leader_inst.arrays.reweighted(edges.weight)
    for name in ("layering", "hld", "segments"):
        if name in leader_inst.__dict__:
            inst.__dict__[name] = leader_inst.__dict__[name]
    plan._instances["fast"] = inst
    plan.instance_builds += 1
    return inst


def solve_scenario_group(
    session: "SolverSession",
    queries: "Sequence[SolveQuery]",
    eps: float,
    variant: str,
    segmented: bool,
    validate: bool,
) -> list[Any]:
    """Solve one compatible scenario group through the batched kernels.

    ``queries`` share ``eps``/``variant``/``segmented``/``validate``, the
    local engine, ``k=2``, the fast compute flavor, and carry no failure
    plans — :meth:`SolverSession.solve_many` enforces that before calling
    here.  Results come back aligned with ``queries`` and bit-identical to
    the one-query path.
    """
    from repro.fast.forward import forward_phase_fast_batch

    if variant not in COVER_BOUND:
        raise ValueError(f"variant must be one of {sorted(COVER_BOUND)}")
    np = require_numpy()
    base = session.handle

    # Deduplicate queries by weight column: identical columns share one
    # scenario (and therefore one MST check, one instance, one solve).
    handles: list[GraphHandle] = []
    scenario_of: list[int] = []
    seen: dict[tuple, int] = {}
    for query in queries:
        handle = (
            base if query.weights is None else base.reweight(query.weights)
        )
        key = weights_token(handle.weights)
        at = seen.get(key)
        if at is None:
            at = len(handles)
            seen[key] = at
            handles.append(handle)
        scenario_of.append(at)

    # Group scenarios by MST.  A full Kruskal per scenario is the fallback;
    # when a column differs from the session's base column only by edges
    # whose change cannot move them across the tree boundary — non-tree
    # edges that got no cheaper, tree edges that got no dearer — the base
    # MST is provably the column's stable-Kruskal output and is reused.
    # (Worsening a rejected edge only moves it later in the stable order,
    # past edges that already connected its endpoints; improving an
    # accepted edge moves it earlier without creating a cycle among the
    # other accepted edges.  Either way every accept/reject decision is
    # unchanged.)  Monte-Carlo sweeps perturb a handful of edges per
    # scenario, so this turns the grouping stage from O(scenarios * m)
    # union-finds into O(scenarios) vector compares.  The base tree and
    # its full instance come from the session's pinned base plan, built
    # once per session rather than once per call.
    base_plan = session.base_plan()
    base_mst = base_plan.mst_edges
    base_col = np.asarray(base.weights, dtype=np.float64)
    base_in_tree = np.zeros(base.m, dtype=bool)
    pair_index = base._pair_index
    for e in base_mst:
        base_in_tree[pair_index[e]] = True

    groups: dict[tuple, _TreeGroup] = {}
    with obs.span("batch.group", scenarios=len(handles)) as group_span:
        for idx, handle in enumerate(handles):
            column64 = np.asarray(handle.weights, dtype=np.float64)
            diff = np.flatnonzero(column64 != base_col)
            if bool(
                np.all(
                    np.where(
                        base_in_tree[diff],
                        column64[diff] <= base_col[diff],
                        column64[diff] >= base_col[diff],
                    )
                )
            ):
                mst_edges = base_mst
            else:
                mst_edges, _ = stable_kruskal_mst(
                    handle.n, handle.edges, handle.weights
                )
            tree_key = tuple(mst_edges)
            group = groups.get(tree_key)
            if group is None:
                if mst_edges == base_mst:
                    group = _TreeGroup(tree=base_plan.tree, mst_edges=base_mst)
                    _lead(group, base_plan)
                else:
                    group = _TreeGroup(
                        tree=RootedTree.from_edges(
                            handle.n, mst_edges, root=0
                        ),
                        mst_edges=mst_edges,
                    )
                groups[tree_key] = group
            plan = _seed_plan(handle, group)
            inst = _group_instance(plan, group, column64)
            group.members.append((idx, plan, inst))
        group_span.set(trees=len(groups))

    # One batched forward pass per tree group, then per-scenario
    # reverse-delete + certificates + assembly — the exact body of
    # solve_virtual_tap / _solve_local with the forward phase hoisted.
    c = COVER_BOUND[variant]
    eps_prime = eps / c
    certs = _certificates("fast")
    scenario_results: list[Any] = [None] * len(handles)
    for group in groups.values():
        with obs.span("batch.forward", scenarios=len(group.members)):
            fwds = forward_phase_fast_batch(
                [inst for _, _, inst in group.members], eps=eps_prime
            )
        # Label-map the group's (shared) MST once; every scenario result
        # reuses the list (read-only by convention, like the shared tree).
        nodes = group.members[0][1].nodes
        mst_out = [(nodes[u], nodes[v]) for u, v in group.mst_edges]
        with obs.span("batch.tails", scenarios=len(group.members)):
            for (idx, plan, inst), fwd in zip(group.members, fwds):
                rev = reverse_delete(
                    inst, fwd, variant=variant, segmented=segmented,
                    validate=validate, backend="fast",
                )
                if validate:
                    certs.validate_dual_feasibility(inst, fwd.y, eps_prime)
                    certs.validate_tightness(inst, fwd.y, rev.b)
                    certs.validate_cover(inst, rev.b)
                    certs.validate_coverage_bound(inst, fwd.y, rev.b, c)
                tap = assemble_tap_result(
                    inst, fwd, rev, eps=eps, variant=variant,
                    segmented=segmented, validate=validate, backend="fast",
                )
                scenario_results[idx] = assemble_two_ecss(
                    plan.g if validate else None,
                    plan.nodes, plan.mst_edges, tap,
                    validate=validate, mst_simulation=None,
                    diameter=plan.diameter, mst_weight=plan.mst_weight,
                    n=plan.handle.n, mst_edges_out=mst_out,
                )
    return [scenario_results[at] for at in scenario_of]
