"""Layer-by-layer search for temporal cluster editing.

Every cluster editing set of size at most k is a node of its layer's part
(non-minimal sets included on purpose: a later layer may only be reachable
after splitting clusters that were locally fine), enumerated by placing the
vertices one by one into clusters within budget, highest degree first with
ties broken by id; once a branch has spent the budget, its remaining
vertices are placed in one loop, each into the only cluster that costs
nothing.  The instance is a yes iff the first part reaches the last.

``enumerate_edit_masks`` is the one enumerator.  It emits every node as a
``core.PairIndex`` pair mask, each pair's bit computed from its ends, and
the sweep reads nothing else; only the final path's nodes, and the sets of
the public ``enumerate_cluster_editing_sets``, are decoded into frozensets
of pairs.

Consecutive nodes are compatible when their edited graphs agree up to d
marked vertices.  Node p of part i-1 with edits E_p and node c of part i
with edits E_c give H_p = G_{i-1} xor E_p and H_c = G_i xor E_c, which
differ on F = Delta_i xor E_p xor E_c, Delta_i = G_{i-1} xor G_i.  They
agree outside a mark set D exactly when D touches every pair of F, so the
check is whether F has a vertex cover of at most d vertices: the partition
distance of the two clusterings (Gusfield, IPL 2002).  Every node is a
pair mask, so F costs two int xors.

Each part keeps only its frontier: its reachable nodes, in part order,
each with the position of its predecessor in the previous frontier, so
the path is read back from the frontiers alone.  A node's predecessor is
the first of its candidates that passes one check, at every d: an F of at
most d pairs is accepted on its size, and any other goes to
``PairIndex.cover``.  With d > 0 the candidates are the whole previous
frontier.  With d = 0 F must be empty, E_c = E_p xor Delta_i, so a dict
keyed by E_p xor Delta_i narrows them to the first node under that key,
if any.  At d = 1 ``cover`` settles F by the two ends of its lowest pair,
one of which must touch every pair; above, a greedy matching of F settles
most checks, and the rest branch on those two ends at d = 2, or go to its
branch-and-reduce search at a larger d.  The path ends at the first
reachable node of the last part, so that part's scan stops there at
every d.  Only the final path's gaps get a mark set, and only a gap whose
edited layers differ gets a two-layer solve (``solve_two_layer_zero_edit``,
a matching over the vertices those layers disagree on); one whose layers
are equal gets the empty set, which is what that solve returns there.
``verify`` still checks every layer and gap of the result.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Optional

from .core import (
    TCE,
    InputError,
    Instance,
    LayerGraph,
    Pair,
    PairIndex,
    SearchStats,
    Solution,
    apply_edits,
    verify,
)
from .twolayer import solve_two_layer_zero_edit


def enumerate_edit_masks(g: LayerGraph, k: int) -> list[int]:
    """All edit sets of size at most k that turn g into a cluster graph,
    each exactly once as a ``core.PairIndex`` pair mask, ordered
    lexicographically by sorted pair list.

    Vertices are placed in descending degree, ties broken by id, so most
    pairs are priced by the first few placements and an over-budget branch
    dies near the root.  Once a branch has spent the budget it is finished
    in one loop without branching: each remaining vertex must join the
    cluster equal to its placed neighbourhood, or open a new one if that is
    empty, the only choice that costs nothing.  A pair's bit is computed
    from ``_pair_rows``, so no pair table is built and any n works."""
    if k < 0:
        raise InputError("negative edit budget")
    n, adj = g.n, g.adj
    rows = _pair_rows(n)
    order = sorted(range(1, n + 1), key=lambda v: (-adj[v].bit_count(), v))
    # before[i]: bitmask of the neighbours of order[i] placed before it
    before = []
    placed = 0
    for v in order:
        before.append(adj[v] & placed)
        placed |= 1 << v
    found = []
    # Depth-first without recursion; a partition fixes its edited graph, so
    # each set is reached once.  Entry: (vertices placed, edits spent, toggle
    # chain, clusters as bitmasks over the vertex ids, a list the entry
    # owns).  The chain links (mask, v, rest) records, mask holding the
    # placed u whose pair with v is toggled; a leaf reads it into its
    # ascending pair bits, the sort key.
    stack = [(0, 0, None, [])]
    pop, push = stack.pop, stack.append
    while stack:
        i, spent, chain, clusters = pop()
        if spent == k or i == n:
            # Budget spent (or nothing left to place): each remaining vertex
            # joins the cluster equal to its placed neighbours, or opens one
            # if it has none, or the branch ends.  Clusters are disjoint and
            # nonempty, so no other choice is free.
            for j in range(i, n):
                nbrs = before[j]
                if not nbrs:
                    clusters.append(1 << order[j])
                elif nbrs in clusters:
                    clusters[clusters.index(nbrs)] = nbrs | 1 << order[j]
                else:
                    break
            else:
                toggled = []
                while chain is not None:
                    mask, v, chain = chain
                    while mask:
                        low = mask & -mask
                        u = low.bit_length() - 1
                        toggled.append(rows[u] + v - u - 1 if u < v else rows[v] + u - v - 1)
                        mask ^= low
                toggled.sort()
                found.append(tuple(toggled))
            continue
        v, nbrs = order[i], before[i]
        bit = 1 << v
        i += 1
        for idx, members in enumerate(clusters):
            mask = members ^ nbrs  # non-edges inside, edges leaving it
            cost = spent + mask.bit_count()
            if cost <= k:
                joined = clusters.copy()
                joined[idx] = members | bit
                push((i, cost, (mask, v, chain) if mask else chain, joined))
        cost = spent + nbrs.bit_count()  # v opens a new cluster
        if cost <= k:
            clusters.append(bit)  # the last child takes the popped list
            push((i, cost, (nbrs, v, chain) if nbrs else chain, clusters))
    # Ascending bits are lexicographic pair order, so sorting the bit tuples
    # sorts the sets by their sorted pair lists.
    found.sort()
    masks = []
    for toggled in found:
        mask = 0
        for b in toggled:
            mask |= 1 << b
        masks.append(mask)
    return masks


def enumerate_cluster_editing_sets(g: LayerGraph, k: int) -> list[frozenset[Pair]]:
    """``enumerate_edit_masks`` decoded into pair sets, in the same order."""
    rows = _pair_rows(g.n)
    return [_pair_set(rows, mask) for mask in enumerate_edit_masks(g, k)]


def _pair_rows(n: int) -> list[int]:
    """rows[u] = (u-1)(2n-u)/2, the bit of pair (u, u+1) in a ``PairIndex``
    mask over 1..n, so pair (u, v) with u < v is bit rows[u] + v - u - 1.
    Ascending from rows[0] = -n, so a bit's row is found by bisection."""
    return [(u - 1) * (2 * n - u) // 2 for u in range(n + 1)]


def _pair_set(rows: list[int], mask: int) -> frozenset[Pair]:
    """The pairs of a pair mask, read from ``_pair_rows`` alone."""
    pairs = []
    while mask:
        low = mask & -mask
        b = low.bit_length() - 1
        u = bisect_right(rows, b) - 1
        pairs.append((u, b - rows[u] + u + 1))
        mask ^= low
    return frozenset(pairs)


def solve_tce_xp(inst: Instance, stats: Optional[SearchStats] = None) -> Optional[Solution]:
    """Path search over the compatibility structure, one frontier at a time.

    Layer i's part holds the edit sets within its own budget k_i; a
    negative one leaves the part empty.  Returns a verified solution or
    None.  ``stats.nodes`` counts the part nodes enumerated.
    """
    if inst.mode != TCE:
        raise InputError("solve_tce_xp expects a tce instance")
    budgets = inst.edit_budgets
    if min(budgets) < 0:
        return None

    index = PairIndex(inst.n)
    cover, d = index.cover, inst.d

    def enumerate_part(i: int) -> list[int]:
        part = enumerate_edit_masks(inst.layers[i], budgets[i])
        if stats is not None:
            stats.nodes += len(part)
        return part

    # frontiers[i]: the reachable nodes of part i, in part order, each as
    # (edit mask, position of its predecessor in frontiers[i-1]).
    frontiers = [[(m, None) for m in enumerate_part(0)]]
    for i in range(1, inst.ell):
        masks = enumerate_part(i)
        delta = index.pair_mask(inst.layers[i - 1].edges ^ inst.layers[i].edges)
        keyed = [(j, m ^ delta) for j, (m, _) in enumerate(frontiers[-1])]
        # Without marks F must be empty, E_c = E_p xor Delta_i, so a node's
        # one candidate is the first reachable node under that key (built
        # in reverse, so the first one wins); with marks every reachable
        # node is one.
        first = {f: ((j, f),) for j, f in reversed(keyed)} if d == 0 else None
        frontier = []
        for m in masks:
            # The first candidate whose F has a cover of at most d vertices;
            # an F of at most d pairs has one without the call.
            for j, f in keyed if first is None else first.get(m, ()):
                f ^= m
                if f.bit_count() <= d or cover(f, d) is not None:
                    frontier.append((m, j))
                    break
            if frontier and i == inst.ell - 1:
                break  # the path ends at the last part's first reachable node
        if not frontier:
            return None
        frontiers.append(frontier)
    if not frontiers[-1]:
        return None

    # Read the path back from the last part's first reachable node.
    path, j = [], 0
    for frontier in reversed(frontiers):
        m, j = frontier[j]
        path.append(m)
    edits = tuple(index.pair_set(m) for m in reversed(path))
    edited = [apply_edits(g, m) for g, m in zip(inst.layers, edits)]
    marks = []
    for ga, gb in zip(edited, edited[1:]):
        if ga.edges == gb.edges:
            # Equal clusterings: every cell of the matching is alone in its
            # row and column, so the minimum mark set is empty.
            marks.append(frozenset())
            continue
        witness = solve_two_layer_zero_edit(ga, gb, d)
        if witness is None:
            raise RuntimeError("compatibility witness vanished during reconstruction")
        marks.append(witness)
    sol = Solution(edits, marked_per_gap=tuple(marks))
    report = verify(inst, sol)
    if not report.ok:
        raise RuntimeError(f"reconstructed solution failed verification: {report}")
    return sol
