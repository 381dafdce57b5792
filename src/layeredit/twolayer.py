"""Exact zero-edit two-layer solver via maximum-weight bipartite matching.

The tce search uses it only for the witness of its final path: the mark
set of each gap whose two edited layers differ (a gap of equal layers needs
no marks and gets no solve).  Both layers must be cluster graphs; the
solver checks that itself, in O(n) per layer (``is_cluster_graph``), as
direct callers rely on it, though the search's layers always are.
In each layer every vertex is named by its cluster's smallest vertex, the
lowest bit of its closed neighbourhood, and the bipartite weights count the
vertices of each (left label, right label) cell.  A marking set of size at
most d exists iff the maximum matching weight is at least n - d, and the
marked set is the vertices whose cell is not matched.  n - (maximum
matching weight) is the partition distance of the two clusterings
(Gusfield, IPL 2002).  Only the t touched vertices, those in a pair where
the layers differ, can be marked: any other vertex's cluster is whole and
equal in both layers, a cell alone in its row and column.  So the solver
weighs the touched vertices' cells alone and asks for weight t - d.

The assignment is solved by successive shortest augmenting paths, one row
at a time, as in Kuhn's Hungarian method, but on the sparse weight dict and
with Bellman-Ford label correction in place of dual potentials.  The graph
has at most n edges, so no dense n x n matrix is ever built.
``solve_two_layer_zero_edit`` decides and builds its witness with one
solve, on weights that carry a tie-break below the cell counts
(``max_weight_matching``).
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from .core import InputError, LayerGraph, is_cluster_graph


def linear_sum_assignment(weights: dict[tuple[int, int], int]) -> tuple[int, dict[int, int]]:
    """Largest total weight of a matching whose edges are the keys of
    ``weights`` (all values positive), with the matching as a row -> column
    dict; rows and columns may stay unmatched.

    Rows are added one at a time.  The matching stays optimal for the rows
    added so far, so each new row needs only the best alternating path from
    it: one that ends at a free column, or at a matched row that gives its
    column up.  Labels are corrected Bellman-Ford style; the optimality
    invariant rules out gaining cycles, so the search ends.
    """
    adj: dict[int, list[tuple[int, int]]] = {}
    for (i, j), w in weights.items():
        adj.setdefault(i, []).append((j, w))
    mate_l: dict[int, int] = {}
    mate_r: dict[int, int] = {}
    total = 0
    for root in adj:
        # Best gain of a path from root to each row and to each column;
        # via[j] is the row the best path to column j comes from.
        gain_l = {root: 0}
        gain_r: dict[int, int] = {}
        via: dict[int, int] = {}
        queue = [root]
        for i in queue:  # FIFO: rows appended below are visited in turn
            for j, w in adj[i]:
                gain = gain_l[i] + w
                if mate_l.get(i) == j or (j in gain_r and gain <= gain_r[j]):
                    continue
                gain_r[j], via[j] = gain, i
                row = mate_r.get(j)
                if row is not None and (row not in gain_l
                                        or gain - weights[row, j] > gain_l[row]):
                    gain_l[row] = gain - weights[row, j]
                    queue.append(row)
        # Path ends: a free column j, or the column j of a row left unmatched.
        gain, j = max([(g, j) for j, g in gain_r.items() if j not in mate_r]
                      + [(g, mate_l[i]) for i, g in gain_l.items() if i != root],
                      default=(0, None))
        if gain <= 0:
            continue
        total += gain
        if j in mate_r:
            del mate_l[mate_r[j]]
        while j is not None:  # flip the path back to root
            i = via[j]
            previous = mate_l.get(i)
            mate_l[i], mate_r[j] = j, i
            j = previous
    return total, mate_l


def max_weight_matching(weights: dict[tuple[int, int], int]
                        ) -> tuple[tuple[tuple[int, int], ...], int]:
    """Maximum-weight matching whose edges are the keys of ``weights``.

    Returns the matching as (left, right) pairs together with its total
    weight.  Among all maximum-weight matchings the lexicographically
    smallest one (by sorted pair list) is returned, so downstream mark-set
    extraction is deterministic.

    One solve does it: the cell of rank r among the m sorted cells gets the
    weight w << (m + 1) | 1 << (m - 1 - r).  The tie-break bits sum to less
    than 1 << m, so they never outweigh a unit of w, and they are distinct
    powers of two, so the one best matching holds the smallest cell that any
    maximum-weight matching holds, then the next smallest that fits, and so on.
    """
    m = len(weights)
    total, mate_l = linear_sum_assignment(
        {cell: weights[cell] << (m + 1) | 1 << (m - 1 - rank)
         for rank, cell in enumerate(sorted(weights))})
    return tuple(sorted(mate_l.items())), total >> (m + 1)


def solve_two_layer_zero_edit(g1: LayerGraph, g2: LayerGraph, d: int) -> Optional[frozenset[int]]:
    """Marking set D with |D| <= d making the two layers equal, or None.

    Handles non-cluster inputs (answer is then always None); both layers
    are tested, in O(n) each, because direct callers rely on it.  The
    returned set has minimum size among all valid marking sets.

    Only the t touched vertices get a cell.  An untouched vertex's whole
    cluster is untouched and the same in both layers, so its cell holds
    that cluster and is alone in its row and column: every maximum
    matching holds it, it never raises a mark, and it leaves the tie-break
    order of the other cells as it is.  So the test is weight >= t - d,
    and the result is the one the matching over all n vertices gives.
    """
    if g1.n != g2.n:
        raise InputError("layer size mismatch")
    if not is_cluster_graph(g1) or not is_cluster_graph(g2):
        return None
    # Cells of the t touched vertices, those in a pair of g1.edges ^ g2.edges
    # (their neighbourhoods differ): each layer's label of each, the lowest
    # bit of its closed neighbourhood.
    cells = {}
    for v, (a, b) in enumerate(zip(g1.adj, g2.adj)):
        if a != b:
            a |= 1 << v
            b |= 1 << v
            cells[v] = ((a & -a).bit_length() - 1, (b & -b).bit_length() - 1)
    matching, weight = max_weight_matching(Counter(cells.values()))
    if weight < len(cells) - d:
        return None
    matched = set(matching)
    return frozenset(v for v, cell in cells.items() if cell not in matched)
