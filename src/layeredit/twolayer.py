"""Exact zero-edit two-layer solver via maximum-weight bipartite matching.

Both layers must already be cluster graphs.  Each side of the bipartite
graph holds one node per connected component (maximal clique); edge weights
are intersection sizes.  A marking set of size at most d exists iff the
maximum matching weight is at least n - d, and the marked set is the
complement of the union of matched-clique intersections.

The assignment is solved by successive shortest augmenting paths, one row
at a time, as in Kuhn's Hungarian method, but on the sparse weight dict and
with Bellman-Ford label correction in place of dual potentials.  The graph
has at most n edges, so no dense n x n matrix is ever built.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

from .core import InputError, LayerGraph, is_cluster_graph


@dataclass(frozen=True)
class WeightedBipartiteGraph:
    """Clique-intersection graph of two cluster graphs.

    ``weights`` stores only pairs with nonempty intersection, keyed by
    (left index, right index); at most n such pairs exist.
    """

    left_cliques: tuple[frozenset[int], ...]
    right_cliques: tuple[frozenset[int], ...]
    weights: dict[tuple[int, int], int]


def build_clique_intersection_graph(g1: LayerGraph, g2: LayerGraph) -> WeightedBipartiteGraph:
    """One node per component of each layer; weight = intersection size."""
    if g1.n != g2.n:
        raise InputError("layer size mismatch")
    if not is_cluster_graph(g1) or not is_cluster_graph(g2):
        raise ValueError("both layers must be cluster graphs")
    return _clique_intersection_graph(g1, g2)


def _clique_intersection_graph(g1: LayerGraph, g2: LayerGraph) -> WeightedBipartiteGraph:
    """build_clique_intersection_graph for layers known to be cluster graphs."""
    left = tuple(sorted(g1.components(), key=min))
    right = tuple(sorted(g2.components(), key=min))
    left_of = {v: i for i, comp in enumerate(left) for v in comp}
    right_of = {v: i for i, comp in enumerate(right) for v in comp}
    weights = dict(Counter((left_of[v], right_of[v]) for v in range(1, g1.n + 1)))
    return WeightedBipartiteGraph(left, right, weights)


def linear_sum_assignment(weights: dict[tuple[int, int], int]) -> int:
    """Largest total weight of a matching whose edges are the keys of
    ``weights`` (all values positive); rows and columns may stay unmatched.

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
    return total


def max_weight_matching(h: WeightedBipartiteGraph) -> tuple[tuple[tuple[int, int], ...], int]:
    """Maximum-weight matching of the clique-intersection graph.

    Returns the matching as (left, right) index pairs together with its
    total weight.  Among all maximum-weight matchings the lexicographically
    smallest one (by sorted pair list) is returned, so downstream mark-set
    extraction is deterministic.
    """
    best = linear_sum_assignment(h.weights)

    # Greedy lexicographic fixing: a pair is kept exactly when some
    # maximum-weight matching contains it together with all previously
    # kept pairs, i.e. when the rows and columns still free carry the rest.
    chosen: list[tuple[int, int]] = []
    free = h.weights
    fixed = 0
    for i, j in sorted(h.weights):
        if (i, j) not in free:
            continue  # its row or column is already taken
        rest = {(a, b): w for (a, b), w in free.items() if a != i and b != j}
        if fixed + h.weights[i, j] + linear_sum_assignment(rest) == best:
            chosen.append((i, j))
            free = rest
            fixed += h.weights[i, j]
    return tuple(chosen), best


def clusterings_compatible(left: Sequence[int], right: Sequence[int], d: int) -> bool:
    """Whether solve_two_layer_zero_edit finds a marking set for two cluster
    graphs given by each vertex's cluster, decided by matching weight alone."""
    return left == right or linear_sum_assignment(Counter(zip(left, right))) >= len(left) - d


def solve_two_layer_zero_edit(g1: LayerGraph, g2: LayerGraph, d: int) -> Optional[frozenset[int]]:
    """Marking set D with |D| <= d making the two layers equal, or None.

    Handles non-cluster inputs (answer is then always None).  The returned
    set has minimum size among all valid marking sets.
    """
    if g1.n != g2.n:
        raise InputError("layer size mismatch")
    if not is_cluster_graph(g1) or not is_cluster_graph(g2):
        return None
    h = _clique_intersection_graph(g1, g2)
    # The weight alone decides; the canonical matching is built only for a yes.
    if linear_sum_assignment(h.weights) < g1.n - d:
        return None
    kept: set[int] = set()
    for i, j in max_weight_matching(h)[0]:
        kept |= h.left_cliques[i] & h.right_cliques[j]
    return frozenset(range(1, g1.n + 1)) - kept
