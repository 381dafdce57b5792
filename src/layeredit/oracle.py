"""Independent exhaustive solvers, used as ground truth in tests.

Two interchangeable enumeration routes decide an instance exactly:

* mark-first: run through every candidate mark set in (size, lex) order and
  look for one edited graph per layer agreeing outside the marks;
* edits-first: run through every combination of per-layer edit sets and
  check that the pairs on which the edited layers still disagree can be
  covered by at most d marked vertices (complete two-way branching).

Both are exhaustive.  Edits-first runs when its combinations number at most
the mark sets and at most ``COMBINATIONS_CAP``; otherwise mark-first runs
when the mark sets number at most ``MARK_SETS_CAP``; otherwise a capability
error is raised.  Edits-first also refuses a cover question whose 2^d
branches pass ``MARK_SETS_CAP``, unless d takes every touched vertex.

A second, fully independent oracle for the multi-layer mode enumerates the
definition itself: for each mark set and each partition of the unmarked
vertices, every layer takes its cheapest extension of that partition by the
marked vertices (each joins a block or opens one) within its own budget.
"""

from __future__ import annotations

from itertools import combinations, product
from math import comb, prod
from typing import Iterator, Optional, Sequence

from .core import (
    MLCE,
    TCE,
    CapabilityError,
    InputError,
    Instance,
    LayerGraph,
    Pair,
    Solution,
    all_pairs,
    apply_edits,
    is_cluster_graph,
)

MAX_ORACLE_K = 4
MAX_ORACLE_ELL = 4
ENUM_WORK_CAP = 60_000      # per-layer subsets filtered during edit enumeration
MARK_SETS_CAP = 300_000     # candidate mark sets in the mark-first route
COMBINATIONS_CAP = 20_000   # edit-set combinations in the edits-first route
GAP_SUBSETS_CAP = 200_000   # candidate mark sets per layer gap (temporal)


def _guard_common(inst: Instance) -> None:
    k = max(inst.edit_budgets)
    if k > MAX_ORACLE_K:
        raise CapabilityError(f"oracle guard: k={k} > {MAX_ORACLE_K}")
    if inst.ell > MAX_ORACLE_ELL:
        raise CapabilityError(f"oracle guard: ell={inst.ell} > {MAX_ORACLE_ELL}")


def _guard_enummed(n: int, budgets: Sequence[int]) -> None:
    work = max(sum(comb(comb(n, 2), j) for j in range(b + 1)) for b in budgets)
    if work > ENUM_WORK_CAP:
        raise CapabilityError(f"oracle guard: edit enumeration needs {work} subset checks")


def _cluster_editing_sets(g: LayerGraph, k: int) -> list[frozenset[Pair]]:
    """Every edit set of size at most k that turns g into a cluster graph, in
    lexicographic order, by testing each subset of the pairs.  A copy of its
    own, so the ground truth shares no enumeration with the xp solver."""
    found = [combo for size in range(k + 1)
             for combo in combinations(all_pairs(g.n), size)
             if is_cluster_graph(apply_edits(g, frozenset(combo)))]
    found.sort()
    return [frozenset(combo) for combo in found]


def _mark_candidates(vertices: Sequence[int], d: int) -> Iterator[frozenset[int]]:
    for size in range(min(d, len(vertices)) + 1):
        for combo in combinations(vertices, size):
            yield frozenset(combo)


def _cover_within(pairs: frozenset[Pair], budget: int) -> Optional[frozenset[int]]:
    """Some vertex set of size <= budget touching every pair, or None.

    Complete branching: a max-degree vertex is either in the cover or all
    its partners are; no branch is tried once the pairs outnumber what
    ``budget`` vertices of that degree can touch.
    """
    if not pairs:
        return frozenset()
    if budget <= 0:
        return None
    degree: dict[int, int] = {}
    for u, v in pairs:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    x = min(degree, key=lambda v: (-degree[v], v))
    if len(pairs) > budget * degree[x]:
        return None
    rest = frozenset(p for p in pairs if x not in p)
    sub = _cover_within(rest, budget - 1)
    if sub is not None:
        return sub | {x}
    partners = frozenset(u if v == x else v for u, v in pairs if x in (u, v))
    if len(partners) <= budget:
        rest2 = frozenset(p for p in pairs
                          if p[0] not in partners and p[1] not in partners)
        sub = _cover_within(rest2, budget - len(partners))
        if sub is not None:
            return sub | partners
    return None


def _solve_mlce_exhaustive(inst: Instance) -> Optional[Solution]:
    n, layers, d = inst.n, inst.layers, inst.d
    _guard_enummed(n, inst.edit_budgets)
    cands = [_cluster_editing_sets(g, b) for g, b in zip(layers, inst.edit_budgets)]
    edited = [[g.edges ^ m for m in layer_cands]
              for g, layer_cands in zip(layers, cands)]

    mark_sets = sum(comb(n, j) for j in range(min(d, n) + 1))
    combos = prod(map(len, cands))
    if combos <= min(mark_sets, COMBINATIONS_CAP):
        for combo in product(*(range(len(c)) for c in cands)):
            disagree: set[Pair] = set()
            for i, j in combinations(range(len(layers)), 2):
                disagree |= edited[i][combo[i]] ^ edited[j][combo[j]]
            # _cover_within branches two ways per level, up to d levels deep,
            # unless d takes every touched vertex: refuse past MARK_SETS_CAP
            touched = len({v for p in disagree for v in p})
            if d < touched and 2 ** d > MARK_SETS_CAP:
                raise CapabilityError(f"oracle guard: a cover of {touched} vertices "
                                      f"within d={d} may branch 2^{d} ways")
            cover = _cover_within(frozenset(disagree), d)
            if cover is not None:
                return Solution(tuple(cands[i][j] for i, j in enumerate(combo)),
                                marked=cover)
        return None
    if mark_sets <= MARK_SETS_CAP:
        # Each edited graph once as a bitmask over pair indices; a mark set
        # hides the pairs at its vertices, so what it leaves of a graph is
        # the graph's mask ANDed with the mask of the pairs it keeps.
        bits = {p: 1 << idx for idx, p in enumerate(all_pairs(n))}
        at = [0] * (n + 1)  # at[v]: the pairs containing v
        for (u, v), b in bits.items():
            at[u] |= b
            at[v] |= b
        everything = (1 << len(bits)) - 1
        masks = [[sum(bits[p] for p in es) for es in layer_edited] for layer_edited in edited]
        for dset in _mark_candidates(range(1, n + 1), d):
            hidden = 0
            for v in dset:
                hidden |= at[v]
            keep = everything ^ hidden
            rests = []
            for layer_masks in masks[1:]:
                layer_rest: dict[int, int] = {}
                for idx, es in enumerate(layer_masks):
                    layer_rest.setdefault(es & keep, idx)
                rests.append(layer_rest)
            for idx0, es in enumerate(masks[0]):
                fp = es & keep
                picks = [idx0]
                for layer_rest in rests:
                    hit = layer_rest.get(fp)
                    if hit is None:
                        break
                    picks.append(hit)
                else:
                    return Solution(
                        tuple(cands[i][j] for i, j in enumerate(picks)),
                        marked=dset)
        return None
    raise CapabilityError(
        f"oracle guard: more than {COMBINATIONS_CAP} edit combinations")


def oracle_mlce(inst: Instance) -> Optional[Solution]:
    """Exhaustive multi-layer solver; each layer keeps to its own budget."""
    if inst.mode != MLCE:
        raise InputError("oracle_mlce expects an mlce instance")
    _guard_common(inst)
    if min(inst.edit_budgets) < 0:
        return None
    return _solve_mlce_exhaustive(inst)


def oracle_tce(inst: Instance) -> Optional[Solution]:
    """Exhaustive temporal solver; each layer keeps to its own budget.

    Consecutive pairs of edited layers are connected when some mark set of
    size at most d hides their disagreements; that set is found by plain
    subset enumeration over the endpoints of disagreeing pairs, keeping this
    oracle independent of the fast solver's cover and matching.
    """
    if inst.mode != TCE:
        raise InputError("oracle_tce expects a tce instance")
    _guard_common(inst)
    budgets = inst.edit_budgets
    if min(budgets) < 0:
        return None
    _guard_enummed(inst.n, budgets)

    cands = [_cluster_editing_sets(g, b)
             for g, b in zip(inst.layers, budgets)]
    edited = [[g.edges ^ m for m in layer_cands]
              for g, layer_cands in zip(inst.layers, cands)]

    def gap_witness(es1: frozenset[Pair], es2: frozenset[Pair]) -> Optional[frozenset[int]]:
        diff = es1 ^ es2
        if not diff:
            return frozenset()
        endpoints = sorted({v for p in diff for v in p})
        work = sum(comb(len(endpoints), j)
                   for j in range(min(inst.d, len(endpoints)) + 1))
        if work > GAP_SUBSETS_CAP:
            raise CapabilityError(
                f"oracle guard: gap check needs {work} mark-set candidates")
        for dset in _mark_candidates(endpoints, inst.d):
            if all(p[0] in dset or p[1] in dset for p in diff):
                return dset
        return None

    reachable = list(range(len(cands[0])))
    preds: list[list[Optional[int]]] = [[None] * len(cands[0])]
    for i in range(1, inst.ell):
        layer_preds: list[Optional[int]] = []
        for es in edited[i]:
            hit = next((j for j in reachable
                        if gap_witness(edited[i - 1][j], es) is not None), None)
            layer_preds.append(hit)
        preds.append(layer_preds)
        reachable = [idx for idx, p in enumerate(layer_preds) if p is not None]
        if not reachable:
            return None
    if not reachable:
        return None

    node = reachable[0]
    path = [node]
    for i in range(inst.ell - 1, 0, -1):
        node = preds[i][node]
        path.append(node)
    path.reverse()
    marks = []
    for i in range(inst.ell - 1):
        witness = gap_witness(edited[i][path[i]], edited[i + 1][path[i + 1]])
        if witness is None:
            raise RuntimeError("gap witness vanished during reconstruction")
        marks.append(witness)
    return Solution(tuple(cands[i][j] for i, j in enumerate(path)),
                    marked_per_gap=tuple(marks))


def _partitions(blocks: list[list[int]], items: Sequence[int],
                i: int = 0) -> Iterator[list[list[int]]]:
    """Every way to place ``items[i:]`` in order beside ``blocks``: each item
    joins a block, one it opened included, or opens one.  The given blocks
    never merge.  Yields ``blocks`` itself, grown in place and restored once
    the generator is exhausted."""
    if i == len(items):
        yield blocks
        return
    x = items[i]
    for block in blocks:
        block.append(x)
        yield from _partitions(blocks, items, i + 1)
        block.pop()
    blocks.append([x])
    yield from _partitions(blocks, items, i + 1)
    blocks.pop()


def set_partitions(items: Sequence[int]) -> Iterator[list[list[int]]]:
    """Every partition of ``items`` exactly once (first-occurrence order)."""
    for blocks in _partitions([], list(items)):
        yield [list(block) for block in blocks]


def _edits_to(g: LayerGraph, blocks: list[list[int]],
              pairs: Sequence[Pair]) -> frozenset[Pair]:
    """The pairs among ``pairs`` that g must toggle to become the cluster
    graph whose clusters are ``blocks``."""
    block_of = {v: idx for idx, block in enumerate(blocks) for v in block}
    return frozenset((u, v) for u, v in pairs
                     if (block_of[u] == block_of[v]) != (g.adj[u] >> v & 1))


def structured_mlce(inst: Instance) -> Optional[Solution]:
    """Partition-based exhaustive multi-layer solver: the definition itself.

    For each mark set D of size at most d and each partition of the other
    vertices, every layer takes its cheapest partition of all vertices that
    extends it (each marked vertex joins a block or opens one), held to the
    layer's own budget.  The pairs outside D are priced once per partition
    and layer, and a layer already over budget there tries no extension.
    """
    if inst.mode != MLCE:
        raise InputError("structured_mlce expects an mlce instance")
    if inst.n > 8:
        raise CapabilityError(f"structured oracle guard: n={inst.n} > 8")

    vertices = list(range(1, inst.n + 1))
    for dset in _mark_candidates(vertices, inst.d):
        marked = sorted(dset)
        common = [v for v in vertices if v not in dset]
        outside = list(combinations(common, 2))
        touching = [p for p in all_pairs(inst.n) if p[0] in dset or p[1] in dset]
        for partition in _partitions([], common):
            edits = []
            for g, budget in zip(inst.layers, inst.edit_budgets):
                base = _edits_to(g, partition, outside)
                if len(base) > budget:
                    break
                rest = min((_edits_to(g, blocks, touching) for blocks in
                            _partitions([list(b) for b in partition], marked)), key=len)
                if len(base) + len(rest) > budget:
                    break
                edits.append(base | rest)
            else:
                return Solution(tuple(edits), marked=dset)
    return None
