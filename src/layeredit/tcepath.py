"""Layer-by-layer search for temporal cluster editing.

Every cluster editing set of size at most k is a node of its layer's part
(non-minimal sets included on purpose: a later layer may only be reachable
after splitting clusters that were locally fine).  Consecutive nodes are
compatible when the edited graphs agree up to d marked vertices, decided by
the zero-edit two-layer solver.  The instance is a yes iff the first part
reaches the last.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional, Sequence

from .core import (
    TCE,
    InputError,
    Instance,
    LayerGraph,
    Pair,
    Solution,
    all_pairs,
    apply_edits,
    is_cluster_graph,
    verify,
)
from .twolayer import solve_two_layer_zero_edit


def enumerate_cluster_editing_sets(g: LayerGraph, k: int) -> list[frozenset[Pair]]:
    """All edit sets of size at most k that turn g into a cluster graph,
    each exactly once, ordered lexicographically by sorted pair list."""
    if k < 0:
        raise InputError("negative edit budget")
    found: list[tuple[tuple[Pair, ...], frozenset[Pair]]] = []
    universe = all_pairs(g.n)
    for size in range(k + 1):
        for combo in combinations(universe, size):
            m = frozenset(combo)
            if is_cluster_graph(apply_edits(g, m)):
                found.append((combo, m))
    found.sort(key=lambda item: item[0])
    return [m for _, m in found]


def _budgets(inst: Instance, layer_budgets: Optional[Sequence[int]]) -> list[int]:
    if layer_budgets is None:
        return [inst.k] * inst.ell
    if len(layer_budgets) != inst.ell:
        raise InputError("one edit budget per layer required")
    return list(layer_budgets)


def solve_tce_xp(inst: Instance,
                 layer_budgets: Optional[Sequence[int]] = None) -> Optional[Solution]:
    """Path search over the compatibility structure, one frontier at a time.

    ``layer_budgets`` optionally replaces the uniform edit budget with a
    per-layer one.  Returns a verified solution or None.
    """
    if inst.mode != TCE:
        raise InputError("solve_tce_xp expects a tce instance")
    budgets = _budgets(inst, layer_budgets)

    # Every layer's part is kept, so the path's edit sets are read back from
    # it; only the current frontier's edited graphs live across the sweep.
    parts = [enumerate_cluster_editing_sets(inst.layers[0], budgets[0])]
    prev_graphs = [apply_edits(inst.layers[0], m) for m in parts[0]]
    reachable = list(range(len(parts[0])))
    # predecessors[i][j]: index in part i-1 from which node j of part i was
    # first reached; ties go to the earliest reachable predecessor.
    predecessors: list[list[Optional[int]]] = [[None] * len(parts[0])]

    for i in range(1, inst.ell):
        parts.append(enumerate_cluster_editing_sets(inst.layers[i], budgets[i]))
        graphs = [apply_edits(inst.layers[i], m) for m in parts[i]]
        preds: list[Optional[int]] = []
        for g in graphs:
            hit = next((j for j in reachable
                        if solve_two_layer_zero_edit(prev_graphs[j], g, inst.d) is not None),
                       None)
            preds.append(hit)
        predecessors.append(preds)
        reachable = [idx for idx, p in enumerate(preds) if p is not None]
        prev_graphs = graphs
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
    edited = [apply_edits(g, m) for g, m in zip(inst.layers, edits)]
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
