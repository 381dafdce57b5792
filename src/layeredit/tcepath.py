"""Layer-by-layer search for temporal cluster editing.

Every cluster editing set of size at most k is a node of its layer's part
(non-minimal sets included on purpose: a later layer may only be reachable
after splitting clusters that were locally fine), enumerated by placing the
vertices one by one into clusters within budget, highest degree first with
ties broken by id; once a branch has spent the budget, its remaining
vertices are placed in one loop, each into the only cluster that costs
nothing.  The instance is a yes iff the first part reaches the last.

Consecutive nodes are compatible when their edited graphs agree up to d
marked vertices.  Node p of part i-1 with edits E_p and node c of part i
with edits E_c give H_p = G_{i-1} xor E_p and H_c = G_i xor E_c, which
differ on F = Delta_i xor E_p xor E_c, Delta_i = G_{i-1} xor G_i.  They
agree outside a mark set D exactly when D touches every pair of F, so the
check is whether F has a vertex cover of at most d vertices: the partition
distance of the two clusterings (Gusfield, IPL 2002).  Every node is a
``core.PairIndex`` pair mask, so F costs two int xors.

A node's predecessor is the first reachable node of the previous part that
is compatible with it.  With d = 0 F must be empty, E_c = E_p xor Delta_i,
so the reachable nodes are indexed by E_p xor Delta_i and each node does
one lookup.  With d > 0 every reachable node is tried in order: an F of
at most d pairs is accepted on its size, and any other goes to
``PairIndex.cover_within``, which settles most checks by a greedy matching
of F and otherwise branches on the ends of its lowest pair, 2^d leaves at
worst.  Only the final path's gaps get a mark set, and only a gap whose
edited layers differ gets a two-layer solve (``solve_two_layer_zero_edit``,
a matching over the vertices those layers disagree on); one whose layers
are equal gets the empty set, which is what that solve returns there.
``verify`` still checks every layer and gap of the result.
"""

from __future__ import annotations

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


def enumerate_cluster_editing_sets(g: LayerGraph, k: int) -> list[frozenset[Pair]]:
    """All edit sets of size at most k that turn g into a cluster graph,
    each exactly once, ordered lexicographically by sorted pair list.

    Vertices are placed in descending degree, ties broken by id, so most
    pairs are priced by the first few placements and an over-budget branch
    dies near the root.  Once a branch has spent the budget it is finished
    in one loop without branching: each remaining vertex must join the
    cluster equal to its placed neighbourhood, or open a new one if that is
    empty, the only choice that costs nothing."""
    if k < 0:
        raise InputError("negative edit budget")
    n, adj = g.n, g.adj
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
    # chain, clusters as bitmasks over the vertex ids).  The chain links
    # (mask, v, rest) records, mask holding the placed u whose pair with v
    # is toggled; it is decoded into pairs only at the leaves.
    stack = [(0, 0, None, ())]
    pop, push = stack.pop, stack.append
    while stack:
        i, spent, chain, clusters = pop()
        if spent == k or i == n:
            # Budget spent (or nothing left to place): each remaining vertex
            # joins the cluster equal to its placed neighbours, or opens one
            # if it has none, or the branch ends.  Clusters are disjoint and
            # nonempty, so no other choice is free.
            open_clusters = list(clusters)
            for j in range(i, n):
                nbrs = before[j]
                if not nbrs:
                    open_clusters.append(1 << order[j])
                elif nbrs in open_clusters:
                    open_clusters[open_clusters.index(nbrs)] = nbrs | 1 << order[j]
                else:
                    break
            else:
                found.append(_toggled_pairs(chain))
            continue
        v, nbrs = order[i], before[i]
        bit = 1 << v
        i += 1
        for idx, members in enumerate(clusters):
            mask = members ^ nbrs  # non-edges inside, edges leaving it
            cost = spent + mask.bit_count()
            if cost <= k:
                push((i, cost, (mask, v, chain) if mask else chain,
                      clusters[:idx] + (members | bit,) + clusters[idx + 1:]))
        cost = spent + nbrs.bit_count()  # v opens a new cluster
        if cost <= k:
            push((i, cost, (nbrs, v, chain) if nbrs else chain, clusters + (bit,)))
    return [frozenset(t) for t in sorted(found)]


def _toggled_pairs(chain) -> tuple[Pair, ...]:
    """The pairs a toggle chain records, sorted."""
    toggles = []
    while chain is not None:
        mask, v, chain = chain
        while mask:
            low = mask & -mask
            u = low.bit_length() - 1
            toggles.append((u, v) if u < v else (v, u))
            mask ^= low
    toggles.sort()
    return tuple(toggles)


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

    # Every layer's part is kept, so the path's edit sets are read back from
    # it; only the current frontier's pair masks live across the sweep.
    index = PairIndex(inst.n)
    cover_within, d = index.cover_within, inst.d

    def enumerate_part(i: int) -> list[frozenset[Pair]]:
        part = enumerate_cluster_editing_sets(inst.layers[i], budgets[i])
        if stats is not None:
            stats.nodes += len(part)
        return part

    parts = [enumerate_part(0)]
    prev_masks = [index.pair_mask(m) for m in parts[0]]
    reachable = list(range(len(parts[0])))
    # predecessors[i][j]: index in part i-1 from which node j of part i was
    # first reached; ties go to the earliest reachable predecessor.
    predecessors: list[list[Optional[int]]] = [[None] * len(parts[0])]

    for i in range(1, inst.ell):
        parts.append(enumerate_part(i))
        masks = [index.pair_mask(m) for m in parts[i]]
        delta = index.pair_mask(inst.layers[i - 1].edges ^ inst.layers[i].edges)
        if d == 0:
            # Without marks F must be empty: look each node up by its edits,
            # keeping the first reachable node per E_p xor Delta_i.
            first: dict[int, int] = {}
            for j in reachable:
                first.setdefault(prev_masks[j] ^ delta, j)
            preds = [first.get(m) for m in masks]
        else:
            # First reachable node whose F has a cover of at most d vertices;
            # an F of at most d pairs has one without the call.
            frontier = [(j, prev_masks[j] ^ delta) for j in reachable]
            preds = []
            for m in masks:
                for j, f in frontier:
                    f ^= m
                    if f.bit_count() <= d or cover_within(f, d):
                        preds.append(j)
                        break
                else:
                    preds.append(None)
        predecessors.append(preds)
        reachable = [idx for idx, p in enumerate(preds) if p is not None]
        prev_masks = masks
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
