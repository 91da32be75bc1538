"""Cached numpy views of trees and TAP instances for the fast kernels.

:class:`TreeArrays` freezes one :class:`~repro.trees.rooted.RootedTree`
into flat int64/float64 arrays (parent, depth, Euler intervals, depth
levels, binary-lifting table) and exposes the kernel entry points bound to
them.  :class:`InstanceArrays` adds the per-instance columns — the CSR-style
virtual-edge arrays ``dec``/``anc``/``weight`` (the tree-edge × non-tree-
edge incidence is implicit: edge ``i`` covers exactly the vertical chain
``dec[i] .. anc[i]``, which every kernel exploits) plus the layering
columns (layer number, path id, path leaf) used by the petal kernels.

Both objects are built once and cached:
``TAPInstance.arrays`` (a ``cached_property``) hands the same
:class:`InstanceArrays` to the forward phase, every reverse-delete epoch,
and the certificates, mirroring how :class:`repro.sim.engine.BatchedNetwork`
builds its CSR adjacency once per network.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.fast import require_numpy
from repro.fast import kernels as K

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.instance import TAPInstance
    from repro.trees.rooted import RootedTree

__all__ = ["TreeArrays", "InstanceArrays"]


class TreeArrays:
    """Numpy mirror of a rooted tree plus bound kernel methods."""

    __slots__ = (
        "tree",
        "n",
        "root",
        "parent",
        "depth",
        "tin",
        "tout",
        "levels",
        "up",
        "nonroot",
    )

    def __init__(self, tree: "RootedTree") -> None:
        np = require_numpy()
        self.tree = tree
        self.n = tree.n
        self.root = tree.root
        self.parent = np.asarray(tree.parent, dtype=np.int64)
        self.depth = np.asarray(tree.depth, dtype=np.int64)
        self.tin = np.asarray(tree.tin, dtype=np.int64)
        self.tout = np.asarray(tree.tout, dtype=np.int64)
        self.levels = K.depth_levels(self.depth)
        self.up = K.build_lift_table(self.parent, tree.root, tree.height)
        self.nonroot = np.ones(tree.n, dtype=bool)
        self.nonroot[tree.root] = False

    # -- bound kernels ------------------------------------------------------

    def ancestor_sums(self, values):
        """Bit-identical vectorized :meth:`TreePathOps.ancestor_sums`."""
        return K.ancestor_sums_levels(self.levels, self.parent, values)

    def subtree_counts(self, delta):
        """Exact int64 subtree sums of a per-vertex delta array."""
        return K.subtree_counts(self.tin, self.tout, delta)

    def path_cover_counts(self, dec, anc):
        """Exact coverage counts of the vertical paths ``(dec[i], anc[i])``."""
        return K.path_cover_counts(self.tin, self.tout, dec, anc, self.n)

    def batch_lca(self, u, v):
        """Vectorized LCA, identical to :meth:`RootedTree.lca` pairwise."""
        return K.batch_lca(
            self.up, self.tin, self.tout, self.depth, self.parent, u, v
        )

    def path_chmin(self, dec, anc, values, identity):
        """Per-tree-edge min over covering vertical paths (see kernels)."""
        return K.path_chmin(
            self.up, self.depth, self.n, dec, anc, values, identity
        )


class InstanceArrays:
    """Numpy mirror of a TAP instance: tree arrays + edge and layering columns."""

    __slots__ = ("ta", "dec", "anc", "weight", "layer", "path_id", "path_leaf", "_nla")

    def __init__(self, inst: "TAPInstance", ta: TreeArrays | None = None) -> None:
        from repro.core.virtual_graph import VirtualEdgeColumns

        np = require_numpy()
        self.ta = ta if ta is not None else TreeArrays(inst.tree)
        edges = inst.edges
        if isinstance(edges, VirtualEdgeColumns):
            self.dec = edges.dec
            self.anc = edges.anc
            self.weight = edges.weight
        elif edges:
            cols = list(zip(*edges))  # VirtualEdge is a NamedTuple
            self.dec = np.asarray(cols[1], dtype=np.int64)
            self.anc = np.asarray(cols[2], dtype=np.int64)
            self.weight = np.asarray(cols[3], dtype=np.float64)
        else:
            self.dec = np.empty(0, dtype=np.int64)
            self.anc = np.empty(0, dtype=np.int64)
            self.weight = np.empty(0, dtype=np.float64)
        lay = inst.layering
        self.layer = np.asarray(lay.layer, dtype=np.int64)
        self.path_id = np.asarray(lay.path_id, dtype=np.int64)
        self.path_leaf = np.asarray(
            [p.leaf for p in lay.paths] or [0], dtype=np.int64
        )
        self._nla: dict[int, object] = {}

    def reweighted(self, weight) -> "InstanceArrays":
        """A clone with only the weight column replaced.

        Everything else — tree arrays, ``dec``/``anc``, layering columns,
        the nearest-in-layer cache — is a pure function of the tree and
        the virtual-edge *structure*, so plan derivation — delta re-solves
        and scenario columns alike
        (:meth:`repro.runtime.plan.SolverPlan._derive_instance`) — shares
        it object-for-object across reweights of the same tree, and each
        derived instance runs its own one-column forward phase.
        """
        clone = InstanceArrays.__new__(InstanceArrays)
        clone.ta = self.ta
        clone.dec = self.dec
        clone.anc = self.anc
        clone.weight = weight
        clone.layer = self.layer
        clone.path_id = self.path_id
        clone.path_leaf = self.path_leaf
        clone._nla = self._nla
        return clone

    def nearest_in_layer(self, i: int, layering):
        """``layering.nearest_in_layer(i)`` as a cached int64 array."""
        np = require_numpy()
        arr = self._nla.get(i)
        if arr is None:
            arr = np.asarray(layering.nearest_in_layer(i), dtype=np.int64)
            self._nla[i] = arr
        return arr
