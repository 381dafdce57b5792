"""Layer-by-layer search for temporal cluster editing.

Every cluster editing set of size at most k is a node of its layer's part
(non-minimal sets included on purpose: a later layer may only be reachable
after splitting clusters that were locally fine), enumerated by placing the
vertices one by one into clusters within budget.  Consecutive nodes are
compatible when the edited graphs agree up to d marked vertices, decided by
matching weight alone; only the final path's gaps get a mark set.  The
instance is a yes iff the first part reaches the last.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .core import (
    TCE,
    InputError,
    Instance,
    LayerGraph,
    Pair,
    Solution,
    apply_edits,
    edited_layers,
    verify,
)
from .twolayer import cluster_labels, clusterings_compatible, solve_two_layer_zero_edit


def enumerate_cluster_editing_sets(g: LayerGraph, k: int) -> list[frozenset[Pair]]:
    """All edit sets of size at most k that turn g into a cluster graph,
    each exactly once, ordered lexicographically by sorted pair list."""
    if k < 0:
        raise InputError("negative edit budget")
    # below[v]: bitmask of v's neighbours u < v, the vertices placed before v
    below = [sum(1 << u for u in g.adj[v] if u < v) for v in range(g.n + 1)]
    found = []
    # Depth-first without recursion; a partition fixes its edited graph, so
    # each set is reached once.  Entry: (vertices placed, edits spent, pairs
    # toggled, clusters as bitmasks).
    stack = [(0, 0, (), ())]
    while stack:
        placed, spent, toggles, clusters = stack.pop()
        if placed == g.n:
            found.append(tuple(sorted(toggles)))
            continue
        v = placed + 1
        for idx, members in enumerate(clusters + (0,)):  # 0 opens a new cluster
            mask = members ^ below[v]  # non-edges inside, edges leaving it
            if spent + mask.bit_count() <= k:
                toggled = tuple((u, v) for u in range(1, v) if mask >> u & 1)
                stack.append((v, spent + len(toggled), toggles + toggled,
                              clusters[:idx] + (members | 1 << v,) + clusters[idx + 1:]))
    return [frozenset(t) for t in sorted(found)]


def solve_tce_xp(inst: Instance,
                 layer_budgets: Optional[Sequence[int]] = None) -> Optional[Solution]:
    """Path search over the compatibility structure, one frontier at a time.

    ``layer_budgets`` optionally replaces the uniform edit budget with a
    per-layer one.  Returns a verified solution or None.
    """
    if inst.mode != TCE:
        raise InputError("solve_tce_xp expects a tce instance")
    budgets = [inst.k] * inst.ell if layer_budgets is None else list(layer_budgets)
    if len(budgets) != inst.ell:
        raise InputError("one edit budget per layer required")

    # Every layer's part is kept, so the path's edit sets are read back from
    # it; only the current frontier's clusterings live across the sweep.
    parts = [enumerate_cluster_editing_sets(inst.layers[0], budgets[0])]
    prev_clusters = [cluster_labels(apply_edits(inst.layers[0], m)) for m in parts[0]]
    reachable = list(range(len(parts[0])))
    # predecessors[i][j]: index in part i-1 from which node j of part i was
    # first reached; ties go to the earliest reachable predecessor.
    predecessors: list[list[Optional[int]]] = [[None] * len(parts[0])]

    for i in range(1, inst.ell):
        parts.append(enumerate_cluster_editing_sets(inst.layers[i], budgets[i]))
        clusters = [cluster_labels(apply_edits(inst.layers[i], m)) for m in parts[i]]
        preds: list[Optional[int]] = []
        for c in clusters:
            hit = next((j for j in reachable
                        if clusterings_compatible(prev_clusters[j], c, inst.d)),
                       None)
            preds.append(hit)
        predecessors.append(preds)
        reachable = [idx for idx, p in enumerate(preds) if p is not None]
        prev_clusters = clusters
        if not reachable:
            return None

    if not reachable:
        return None
    node = reachable[0]
    path = [node]
    for i in range(inst.ell - 1, 0, -1):
        node = predecessors[i][node]
        path.append(node)
    path.reverse()

    edits = tuple(part[j] for part, j in zip(parts, path))
    edited = edited_layers(inst.layers, edits)
    marks = []
    for ga, gb in zip(edited, edited[1:]):
        witness = solve_two_layer_zero_edit(ga, gb, inst.d)
        if witness is None:
            raise RuntimeError("compatibility witness vanished during reconstruction")
        marks.append(witness)
    sol = Solution(edits, marked_per_gap=tuple(marks))
    report = verify(inst, sol)
    if not report.ok:
        raise RuntimeError(f"reconstructed solution failed verification: {report}")
    return sol
