"""Search-tree solver for multi-layer cluster editing.

An instance whose every edit budget k_i is 0 takes a route of its own: no
edit is allowed, so it is a no if a layer is not a cluster graph, and
otherwise a yes exactly when at most d vertices touch every pair on which
the layers differ (``PairIndex.cover`` finds them; see
``_solve_by_cover``).  Every other instance goes to the search below.

The solver keeps a constraint (marked vertices, one target graph, and
permanent pairs whose status is frozen): every layer is edited to equal
the target outside the marked set.  Starting from a greedy majority-vote
alignment, it applies, in order, three branching rules (destroy a P3,
repair an edit-budget overflow, repair a layer that cannot be completed by
marked-only edits), and drops each child that a lower bound declares dead
when the search reaches it.  When no rule applies, a full solution is
assembled from the constraint.

Constraints are immutable tuples of three ints.  ``marked`` is a vertex
bitmask (bit v for vertex v); ``target`` and ``permanent`` are bitmasks over
pair indices, a pair's index being its position in ``all_pairs(n)``, so
ascending bits are lexicographic pair order.  The target is canonical: no
pair of it touches a mark, because a mark child drops the target's pairs at
its new mark when it is built.  Layer i's edits are the pairs on which its
edge set E_i and the target differ, less those at a mark
(``SearchContext.edits``), and its frozen edits are those on permanent
pairs (``SearchContext.frozen``).  So no edit touches a mark, and the
edited layers agree outside the marks, by construction.  A
``SearchContext`` is one search of one instance: a ``core.PairIndex``
(the pair list, each pair's bit and the pairs touching each vertex,
shared between solves of the same n) that also holds the instance's
tables, built once per solve (every layer's edge set as a pair bitmask
and edit budget k_i; one count table, ``count_masks``, the pairs present
in exactly c layers for each c, whose entries the greedy root ORs into
its majority and the disagreement bound groups into one pair mask per
weight), the search's memos, each capped at ``FAILED_CAP``
entries (P3 rows, failed constraints, the verdicts of each bound), and its
trace and stats hooks; its ``run`` is the search.  The search reads masks
only: rule 1 runs ``core.first_p3`` on layer 0's ``LayerGraph.adj`` with
its edits toggled in (``toggled_adj``), and is skipped on a mark child of
a constraint it did not apply to; the frozen-edit bound and rule 3's
per-layer kernel (``kernel_k``) read a layer's P3 rows (``toggled_p3s``,
derived from the rows with one toggled pair fewer, down to the layer's
``core.adj_p3s``); rule 3 runs ``min_marked_completion`` (``core.is_cluster_adj`` for its
cluster tests, ``core.first_p3`` for the P3 it branches on) on toggled
adjacencies, once per layer, and an accepted constraint's solution is
assembled from the completions rule 3 found for it.  Rule 3's loose-edit
children come first and cover every solution that undoes a loose edit of
the layer or marks one of its ends, so it tells its kernel that the
layer's edits and the permanent pairs stay (``obligatory``): each kernel
child then extends its parent and raises its quality.  Only the returned
``Solution`` decodes to frozensets, and ``core.verify`` checks it on masks
of its own.

The rules build no mark child once d vertices are marked, and rule 2 no
toggle child that gives a layer more frozen edits than its budget k_i.  The
other children are tested by two lower bounds only when the search reaches
them, in ``run``, before they count as nodes: the siblings after a child
that leads to a solution are never tested.  The frozen-edit bound
(``frozen_edit_bound``) counts the P3s within each layer, first of all
rejecting a layer with more frozen edits than k_i.  It reads only the
permanent pairs and the frozen edits, which mark children leave alone, so
it is tested on a child whose permanent set grew (a toggle child, or rule
3's commit child), once per (permanent, the target's permanent pairs) of
a search.  The disagreement bound (``disagreement_rejects``) counts what
the layers must pay to agree outside the marks, against the summed
budget; it reads the marks too, so it is tested on every child, after the
frozen-edit bound, once per (marks, permanent, frozen edit count).  Both
are tested at the root, which counts as a node when they reject it.
``SearchStats.pruned_bound`` counts the children the search reached and
dropped, and each logs a ``pruned`` trace line.  Pruned subtrees hold no
solution and the surviving children keep their order, so the first
solution found is the one an unpruned search finds.

Each rule lists its mark children before its toggle children, each vertex
once, the vertex at the most pairs where some edited layer differs from
the target first (``_mark_children``); rule 3 lists its loose edits' marks,
then their toggles, then its kernel children.  Marking a vertex undoes
every edit at it, so this is the max-degree order of vertex cover
branching, which ``PairIndex.cover`` follows too (Akiba and Iwata, TCS
2016).  The order changes no answer: the search tries every child, the
bounds and the memos read the constraint alone and ``run``'s flags the
child and its parent, so only which solution is found first depends on
it.
"""

from __future__ import annotations

from bisect import insort
from collections import Counter
from functools import reduce
from operator import and_, or_
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .core import (
    MLCE,
    InputError,
    Instance,
    Pair,
    PairIndex,
    SearchStats,
    Solution,
    adj_p3s,
    bits,
    first_p3,
    is_cluster_adj,
    is_cluster_graph,
    p3_through_pair,
    pair,
    verify,
)


class InvariantViolation(RuntimeError):
    """An instrumented run observed a broken search invariant."""


class Constraint(NamedTuple):
    """Branching state as bitmasks (see the module docstring): the marked
    vertices, the target graph that every edited layer equals outside them
    (no pair of it touches a mark), and the permanent pairs."""

    marked: int
    target: int
    permanent: int


TraceFn = Callable[[str], None]

FAILED_CAP = 1 << 16  # failed constraints remembered per search: ~12 MB at n = 24, ell = 5
                      # (also caps the bound verdicts and the P3 rows kept per search)


class SearchContext(PairIndex):
    """One depth-first search of one instance: the tables it reads, built
    once per solve, its reporting hooks, and its memos (the P3 rows, the
    failed constraints, the frozen-edit verdicts by (permanent, the
    target's permanent pairs) and the disagreement verdicts by (marks,
    permanent, frozen edit count)).  The layers are counted once per
    solve, into ``counts`` (``count_masks``); the greedy root's majority and ``weights``, (w, the
    pairs in c layers with min(c, ell - c) = w) for each w > 0 that some
    pair has, both read that one table."""

    def __init__(self, inst: Instance, trace: Optional[TraceFn] = None, check: bool = False,
                 stats: Optional[SearchStats] = None):
        super().__init__(inst.n)
        self.inst = inst
        pair_bit = self.pair_bit
        self.vertices = ((1 << (inst.n + 1)) - 1) ^ 1
        self.budgets = inst.edit_budgets
        self.layer_masks = tuple(self.pair_mask(g.edges) for g in inst.layers)
        self.counts = count_masks(self.layer_masks)
        by_weight = [0] * (inst.ell // 2 + 1)
        for c, mask in enumerate(self.counts):
            by_weight[min(c, inst.ell - c)] |= mask
        self.weights = tuple((w, mask) for w, mask in enumerate(by_weight) if w and mask)
        self.total_budget = sum(self.budgets)
        self._p3_rows = {(i, 0): [((b, a, c), pair_bit[a][b] | pair_bit[b][c] | pair_bit[a][c])
                                  for a, b, c in adj_p3s(g.adj)]
                         for i, g in enumerate(inst.layers)}
        self.trace = trace
        self.check = check
        self.stats = SearchStats() if stats is None else stats
        self.failed: set[Constraint] = set()
        self.dead: dict[tuple[int, int], bool] = {}
        self.disagreeing: dict[tuple[int, int, int], bool] = {}

    def edits(self, c: Constraint) -> list[int]:
        """Each layer's edits: the pairs on which it and ``c.target`` differ,
        less those at a mark."""
        target, keep = c.target, ~self.touching_mask(c.marked)
        return [(e ^ target) & keep for e in self.layer_masks]

    def frozen(self, c: Constraint) -> list[int]:
        """Each layer's frozen edits: its edits on permanent pairs, none of
        which touches a mark."""
        permanent, target = c.permanent, c.target & c.permanent
        return [(e & permanent) ^ target for e in self.layer_masks]

    def toggled_adj(self, i: int, mask: int) -> list[int]:
        """Layer i's ``LayerGraph.adj`` with the pairs of ``mask`` toggled."""
        adj = list(self.inst.layers[i].adj)
        for j in bits(mask):
            u, v = self.pairs[j]
            adj[u] ^= 1 << v
            adj[v] ^= 1 << u
        return adj

    def toggled_p3s(self, i: int, x: int) -> list[tuple[tuple[int, int, int], int]]:
        """The induced P3s a - b - c of layer i with the pairs of ``x``
        toggled, in ``adj_p3s`` order, as rows ((b, a, c), OR of the three
        pair bits).  Derived from the rows of ``x`` less its lowest pair
        (u, v), as only the triples through u and v change; memoised."""
        rows = self._p3_rows.get((i, x))
        if rows is not None:
            return rows
        low, pair_bit = x & -x, self.pair_bit
        u, v = self.pairs[low.bit_length() - 1]
        rows = [row for row in self.toggled_p3s(i, x ^ low) if not row[1] & low]
        adj = self.toggled_adj(i, x)
        edge = adj[u] >> v & 1
        for w in bits(p3_through_pair(adj, u, v)):
            if not edge:
                key = (w, u, v)  # w is the center
            else:  # the center b is the end of u-v that w sees, e the other
                b, e = (u, v) if adj[w] >> u & 1 else (v, u)
                key = (b, w, e) if w < e else (b, e, w)
            insort(rows, (key, low | pair_bit[u][w] | pair_bit[v][w]))
        if len(self._p3_rows) < FAILED_CAP:
            self._p3_rows[(i, x)] = rows
        return rows

    def run(self, c: Constraint, depth: int, p3_free: bool = False,
            grew: bool = True) -> Optional[Solution]:
        """Depth-first search below ``c``, which is dropped first if either
        bound rejects it; the frozen-edit bound is tested only if ``grew``,
        as a mark child keeps its parent's permanent pairs and frozen edits
        and so its verdict.  A constraint's subtree depends on it alone, so
        one in ``failed``, which passed both bounds before it entered, is
        neither tested nor expanded again.  Rule 1 is skipped when
        ``p3_free``: c marks one more vertex than a parent it did not apply
        to, and an induced subgraph of a cluster graph is one."""
        trace, stats = self.trace, self.stats
        seen = c in self.failed
        if not seen and ((grew and self.dead_by_bound(c)) or self.dead_by_disagreement(c)):
            if depth:
                stats.pruned_bound += 1
            else:
                stats.nodes += 1
            if trace:
                trace(f"TRACE {depth} pruned" if depth else "TRACE 0 rule0 reject bound")
            return None
        stats.nodes += 1
        if depth > stats.max_depth:
            stats.max_depth = depth
        if seen:
            if trace:
                trace(f"TRACE {depth} seen")
            return None

        children = None if p3_free else branching_rule_1(self, c)
        rule = "rule1"
        if children is None:
            children = branching_rule_2(self, c)
            rule = "rule2"
        if children is None:
            completions: list[frozenset[Pair]] = []
            children = branching_rule_3(self, c, completions)
            rule = "rule3"
        if children is None:
            if trace:
                trace(f"TRACE {depth} accept |D|={c.marked.bit_count()} "
                      f"|B|={c.permanent.bit_count()}")
            sol = _extract_solution(self, c, completions)
            if self.check:
                _check_bound_holds(self, c, sol)
            return sol

        if self.check:
            _check_children(self, c, children, depth)
        if trace:
            trace(f"TRACE {depth} {rule} children={len(children)}")
        for child in children:
            mark_child = child.permanent == c.permanent
            found = self.run(child, depth + 1, rule != "rule1" and mark_child, not mark_child)
            if found is not None:
                return found
        if len(self.failed) < FAILED_CAP:
            self.failed.add(c)
        return None

    def dead_by_bound(self, c: Constraint) -> bool:
        """``bound_rejects``, remembered by (permanent, the target's
        permanent pairs), which give every layer's frozen edits."""
        permanent = c.permanent
        key = (permanent, c.target & permanent)
        dead = self.dead.get(key)
        if dead is None:
            dead = bound_rejects(self, c)
            if len(self.dead) < FAILED_CAP:
                self.dead[key] = dead
        return dead

    def dead_by_disagreement(self, c: Constraint) -> bool:
        """``disagreement_rejects``, remembered by (marks, permanent pairs,
        frozen edit count)."""
        key = (c.marked, c.permanent, sum([m.bit_count() for m in self.frozen(c)]))
        dead = self.disagreeing.get(key)
        if dead is None:
            dead = disagreement_rejects(self, *key)
            if len(self.disagreeing) < FAILED_CAP:
                self.disagreeing[key] = dead
        return dead


def extends(child: Constraint, parent: Constraint) -> bool:
    """Marked and permanent sets grow; the targets agree on the parent's permanent pairs."""
    if parent.marked & ~child.marked or parent.permanent & ~child.permanent:
        return False
    return not (child.target ^ parent.target) & parent.permanent


def constraint_quality(c: Constraint) -> int:
    """Progress measure of a constraint: marked vertices plus permanent pairs."""
    return c.marked.bit_count() + c.permanent.bit_count()


def greedy_initial_constraint(ctx: SearchContext) -> Constraint:
    """Majority-vote alignment: a pair present in at least half of the layers
    is added everywhere, any other pair is deleted everywhere."""
    if ctx.inst.mode != MLCE:
        raise InputError("greedy alignment is defined for mlce instances")
    majority = reduce(or_, ctx.counts[(ctx.inst.ell + 1) // 2:])
    return Constraint(0, majority, 0)


def count_masks(masks: Sequence[int]) -> list[int]:
    """Entry c is the bits set in exactly c of the ``masks``, for c from 0
    to len(masks); entry 0, the complement of their union, is negative.
    The bits are counted bit-sliced: bit j of ``count[t]`` is bit t of
    the count of bit j, and adding a mask is a ripple carry over the
    len(masks).bit_length() slices."""
    count = [0] * len(masks).bit_length()
    for carry in masks:
        for t, slice_ in enumerate(count):
            count[t], carry = slice_ ^ carry, slice_ & carry
            if not carry:
                break
    return [reduce(and_, [slice_ if c >> t & 1 else ~slice_ for t, slice_ in enumerate(count)])
            for c in range(len(masks) + 1)]


def frozen_edit_bound(ctx: SearchContext, i: int, frozen: int, permanent: int,
                      budget: int) -> Optional[int]:
    """Lower bound on layer i's edit count in every solution below a
    constraint with permanent pairs ``permanent`` whose layer-i edits among
    them are ``frozen``; None when it exceeds ``budget`` or no solution
    lies below the constraint at all.

    The bound is |F| plus the size of a greedy packing of the induced P3s
    of H = G_i xor F (F = ``frozen``) whose non-permanent pairs are
    pairwise disjoint, the P3-packing bound of Boecker, Briesemeister and
    Klau (Algorithmica 2011).  It is sound because no permanent pair
    touches a mark, children never change a permanent pair, and the
    completion only toggles pairs that touch marks.  So a final solution
    agrees with the constraint's edits on every permanent pair, and its
    cost in layer i is |F| plus the non-permanent toggles that turn H into
    a cluster graph; each packed P3 needs one of those toggles of its own.
    A P3 of H whose three pairs are all permanent survives into every
    solution, hence None.  Loose (non-permanent) edits stay out of H on
    purpose: a solution may undo them at no cost, so counting them would
    overstate the bound.
    """
    bound = frozen.bit_count()
    if bound > budget:
        return None
    free, used = ~permanent, 0
    for _, p3 in ctx.toggled_p3s(i, frozen):
        loose = p3 & free
        if not loose:
            return None
        if not loose & used:
            used |= loose
            bound += 1
            if bound > budget:
                return None
    return bound


def bound_rejects(ctx: SearchContext, c: Constraint) -> bool:
    """Some layer's ``frozen_edit_bound`` exceeds its budget k_i."""
    permanent, budgets = c.permanent, ctx.budgets
    for i, frozen in enumerate(ctx.frozen(c)):
        if frozen_edit_bound(ctx, i, frozen, permanent, budgets[i]) is None:
            return True
    return False


def disagreement_rejects(ctx: SearchContext, marked: int, permanent: int, frozen: int) -> bool:
    """Whether every solution below a constraint with marks ``marked``,
    permanent pairs ``permanent`` and ``frozen`` frozen edits (summed over
    the layers) edits more than the summed budget K = sum of k_i.

    A pair in c of the ell input layers weighs w = min(c, ell - c)
    (``SearchContext.weights``).  A solution with marks D agrees with the
    constraint on the permanent pairs, for the reasons
    ``frozen_edit_bound`` gives, so it pays the frozen edits.  Outside D
    all its edited layers are equal, so a non-permanent pair that touches
    no vertex of D costs at least its weight in edits, none of them on a
    permanent pair.  Let W be the weight of the non-permanent pairs that
    touch no vertex of ``marked``, and deg(v) the weight of those at v.
    D holds ``marked`` and at most d - |marked| more vertices, each
    unmarked and, as no permanent pair touches a mark, with no permanent
    pair; together they touch at most the sum S of the d - |marked|
    largest such deg(v).  So every solution below edits at least
    frozen + W - S, and the bound rejects when that exceeds K.  S is only
    computed when frozen + W does.  Loose edits are not counted, as
    ``frozen_edit_bound`` explains."""
    free = ~permanent & ~ctx.touching_mask(marked)
    excess = frozen - ctx.total_budget
    for w, mask in ctx.weights:
        excess += w * (mask & free).bit_count()
    spare = ctx.inst.d - marked.bit_count()
    if excess <= 0 or not spare:
        return excess > 0
    at = [pairs for pairs in ctx.touching if not pairs & permanent]  # a mark's deg is 0
    degrees = [0] * len(at)
    for w, mask in ctx.weights:
        mask &= free
        degrees = [deg + w * (mask & pairs).bit_count() for deg, pairs in zip(degrees, at)]
    degrees.sort(reverse=True)
    return sum(degrees[:spare]) < excess


def _toggle_child(c: Constraint, bit: int) -> Constraint:
    return Constraint(c.marked, c.target ^ bit, c.permanent | bit)


def _mark_children(ctx: SearchContext, c: Constraint, vertices: Iterable[int]) -> list[Constraint]:
    """Mark each of ``vertices`` once if it carries no permanent pair,
    dropping the target's pairs at it so the child's target stays
    canonical; none once c has d marks, as no solution has more.  The
    vertex at the most pairs where some edited layer differs from the
    target comes first, ties in the given order: its mark undoes the most
    edits.  The order changes no answer, only which solution is found
    first (see the module docstring)."""
    if c.marked.bit_count() >= ctx.inst.d:
        return []
    touching, differ = ctx.touching, reduce(or_, ctx.edits(c))
    free = [x for x in dict.fromkeys(vertices) if not c.permanent & touching[x]]
    free.sort(key=lambda x: -(differ & touching[x]).bit_count())
    return [Constraint(c.marked | 1 << x, c.target & ~touching[x], c.permanent) for x in free]


def branching_rule_1(ctx: SearchContext, c: Constraint) -> Optional[list[Constraint]]:
    """Destroy an induced P3 among unmarked vertices.

    None if every edited layer restricted to the unmarked vertices is a
    cluster graph.  The edited layers all equal the target there, so the
    first one decides.  Otherwise up to six children: mark each of the
    three vertices that carry no permanent pair, then toggle-and-freeze
    each of the three pairs not yet permanent.  An empty list signals a
    dead branch.
    """
    witness = first_p3(ctx.toggled_adj(0, ctx.edits(c)[0]), ctx.vertices & ~c.marked)
    if witness is None:
        return None
    a, b, w = witness
    pair_bit = ctx.pair_bit
    return _mark_children(ctx, c, witness) + [
        _toggle_child(c, bit) for bit in (pair_bit[a][b], pair_bit[b][w], pair_bit[a][w])
        if not c.permanent & bit]


def branching_rule_2(ctx: SearchContext, c: Constraint) -> Optional[list[Constraint]]:
    """Repair the first layer whose edit set exceeds its budget k_i.

    Picks the lexicographically smallest non-permanent pairs so that,
    together with the permanent ones, k_i+1 edits of the layer are covered,
    and branches on undoing them: mark one of their endpoints (each once)
    and drop the edits at it everywhere, or undo one edit and freeze its
    pair.  A
    layer whose frozen edits fill its budget admits only toggles of its own
    edits (the others overrun it).
    """
    edits = ctx.edits(c)
    for over, k_i in zip(edits, ctx.budgets):
        if over.bit_count() > k_i:
            break
    else:
        return None
    permanent = c.permanent
    need = k_i + 1 - (over & permanent).bit_count()
    rest = over & ~permanent  # holds at least need bits, as over exceeds k_i
    loose = []
    for _ in range(need):
        low = rest & -rest
        loose.append(low)
        rest ^= low
    allowed = reduce(and_, (m for m, k_j in zip(edits, ctx.budgets)
                            if (m & permanent).bit_count() >= k_j), -1)
    ends = [x for bit in loose for x in ctx.pairs[bit.bit_length() - 1]]
    return _mark_children(ctx, c, ends) + [_toggle_child(c, bit) for bit in loose if bit & allowed]


def kernel_k(ctx: SearchContext, i: int, x: int, budget: int, marked: int,
             obligatory: int) -> Optional[tuple[int, int]]:
    """Per-layer cluster-editing kernel with frozen (obligatory) pairs, on
    layer i with the pairs of ``x`` toggled; ``marked`` is a vertex mask and
    ``obligatory`` a pair mask.

    Repeatedly applies, first match wins: fail when the budget is negative
    or an all-obligatory P3 exists; force-toggle the first pair (in sorted
    order) sitting in more induced P3s than the remaining budget allows
    (fail if it is obligatory).  The kernel's vertices are then the
    vertices of the remaining P3s; fails if there are more than
    budget**2 + 2*budget of them.  Returns pair masks (forced unmarked
    edits, remaining unmarked non-obligatory pairs), or None for failure.
    Neither mask holds an obligatory pair, so rule 3, which passes its
    constraint's permanent pairs and the layer's edits as obligatory,
    builds only children that leave those pairs as they are.
    """
    at_marks = ctx.touching_mask(marked)
    forced = 0
    while True:
        if budget < 0:
            return None
        rows = ctx.toggled_p3s(i, x)
        counts: Counter[int] = Counter()
        for _, p3 in rows:
            if not p3 & ~obligatory:
                return None
            counts.update(bits(p3))
        hit = min((j for j, count in counts.items() if count > budget), default=None)
        if hit is None:
            break
        hit = 1 << hit
        if hit & obligatory:
            return None
        x ^= hit
        obligatory |= hit
        budget -= 1
        if not hit & at_marks:
            forced |= hit

    inside = 0
    for (b, a, c), _ in rows:
        inside |= 1 << a | 1 << b | 1 << c
    if inside.bit_count() > budget * budget + 2 * budget:
        return None
    inside_pairs = ctx.touching_mask(inside) & ~ctx.touching_mask(ctx.vertices & ~inside)
    return forced, inside_pairs & ~at_marks & ~obligatory


def min_marked_completion(adj: Sequence[int], marked: int,
                          budget: int) -> Optional[frozenset[Pair]]:
    """Minimum edit set touching only marked vertices (``marked`` is a vertex
    mask) that makes the graph with bitmask adjacency ``adj`` a cluster
    graph, if one of size at most budget exists.

    Requires the graph restricted to the unmarked vertices to be a cluster
    graph already; every remaining P3 then offers at most three
    marked-touching pairs to branch on.  Iterative deepening returns a true
    minimum.
    """
    everything = (1 << len(adj)) - 2
    if is_cluster_adj(adj, everything):
        return frozenset() if budget >= 0 else None
    # only a graph with a P3 can break the precondition: an induced
    # subgraph of a cluster graph is one
    if not is_cluster_adj(adj, everything & ~marked):
        raise RuntimeError("unmarked part must already be a cluster graph")
    for size in range(1, budget + 1):
        found = _complete(adj, marked, size)
        if found is not None:
            return frozenset(found)
    return None


def _complete(adj: Sequence[int], marked: int, budget: int) -> Optional[list[Pair]]:
    witness = first_p3(adj, (1 << len(adj)) - 2)
    if witness is None:
        return []
    if budget == 0:
        return None
    a, b, c = witness
    for u, v in ((a, b), (b, c), (a, c)):
        if (marked >> u | marked >> v) & 1:
            toggled = list(adj)
            toggled[u] ^= 1 << v
            toggled[v] ^= 1 << u
            rest = _complete(toggled, marked, budget - 1)
            if rest is not None:
                return [pair(u, v)] + rest
    return None


def branching_rule_3(ctx: SearchContext, c: Constraint,
                     completions: Optional[list[frozenset[Pair]]] = None
                     ) -> Optional[list[Constraint]]:
    """Repair the first layer that cannot be finished with marked-only edits.

    None when every layer admits a marked-only completion within what is
    left of its budget k_i.  Otherwise branches on undoing a loose edit of
    the layer (marking an endpoint, each once, then undoing and freezing
    one edit), on marking an endpoint of an edit forced by the per-layer
    kernel, on committing all kernel decisions at once, and on each open
    kernel pair.  The loose-edit children cover every solution that undoes
    a loose edit of the layer or marks one of its ends, so the kernel only
    serves solutions that keep all of the layer's edits and every permanent
    pair, and is told so (``obligatory`` = permanent | m_i).  A kernel that
    must toggle such a pair, or meets a P3 made only of them, fails, and the
    kernel children are dead.  Otherwise none of them touches a permanent
    pair or a mark, and each marks a vertex or makes a pair permanent, so
    each extends c and raises its quality.  An empty list signals a dead
    branch.  ``completions``, if given, receives each layer's
    ``min_marked_completion`` up to the first layer that has none, so it
    holds every layer's when the rule returns None.
    """
    found = [] if completions is None else completions
    for i, (m_i, k_i) in enumerate(zip(ctx.edits(c), ctx.budgets)):
        completion = min_marked_completion(ctx.toggled_adj(i, m_i), c.marked,
                                           k_i - m_i.bit_count())
        if completion is None:
            break
        found.append(completion)
    else:
        return None

    permanent = c.permanent
    kernel = kernel_k(ctx, i, m_i, k_i - m_i.bit_count(), c.marked, permanent | m_i)

    loose = list(bits(m_i & ~permanent))
    children = _mark_children(ctx, c, [x for j in loose for x in ctx.pairs[j]])
    children += [_toggle_child(c, 1 << j) for j in loose]

    if kernel is None:
        return children  # empty when no loose edits exist: dead branch

    forced, open_pairs = kernel
    for j in bits(forced):
        children += _mark_children(ctx, c, ctx.pairs[j])
    if forced:
        children.append(Constraint(c.marked, c.target ^ forced, permanent | m_i | forced))
    for j in bits(open_pairs):
        children += _mark_children(ctx, c, ctx.pairs[j])
        children.append(_toggle_child(c, 1 << j))
    return children


def solve_mlce(inst: Instance, *, trace: Optional[TraceFn] = None,
               check_invariants: bool = False,
               stats: Optional[SearchStats] = None) -> Optional[Solution]:
    """Full search: returns a verified solution or None when none exists.
    Every layer keeps to its own budget k_i; a negative one means no."""
    if inst.mode != MLCE:
        raise InputError("solve_mlce expects an mlce instance")
    if min(inst.edit_budgets) < 0:
        return None
    if max(inst.edit_budgets) == 0:
        sol = _solve_by_cover(inst, trace, stats)
    else:
        ctx = SearchContext(inst, trace, check_invariants, stats)
        sol = ctx.run(greedy_initial_constraint(ctx), 0)
    if sol is not None:
        report = verify(inst, sol)
        if not report.ok:
            raise RuntimeError(f"extracted solution failed verification: {report}")
    return sol


def _solve_by_cover(inst: Instance, trace: Optional[TraceFn],
                    stats: Optional[SearchStats]) -> Optional[Solution]:
    """The solve when every budget k_i is 0: no edit is allowed, so a layer
    that is not a cluster graph makes the answer no.  Otherwise every
    layer stays a cluster graph on any vertex subset, so a mark set is a
    solution exactly when the layers agree outside it, that is, when it
    touches every pair of D, the OR over i of E_i xor E_0: the marks are a
    ``PairIndex.cover`` of D within d, and the edits are empty.  The nodes
    are the cover's calls, or the one root that a P3 rejects."""
    if not all(map(is_cluster_graph, inst.layers)):
        if stats is not None:
            stats.nodes += 1
        if trace:
            trace("TRACE 0 rule0 reject p3")
        return None
    index = PairIndex(inst.n)
    differ = index.pair_mask(reduce(or_, (g.edges ^ inst.layers[0].edges for g in inst.layers)))
    marked = index.cover(differ, inst.d, stats)
    if trace:
        trace(f"TRACE 0 rule0 reject cover |pairs|={differ.bit_count()}" if marked is None else
              f"TRACE 0 accept |D|={marked.bit_count()} |B|=0 |pairs|={differ.bit_count()}")
    return None if marked is None else Solution((frozenset(),) * inst.ell,
                                                marked=frozenset(bits(marked)))


def _extract_solution(ctx: SearchContext, c: Constraint,
                      completions: list[frozenset[Pair]]) -> Solution:
    """The solution of an accepted constraint: each layer's edits plus the
    marked-only completion rule 3 found for it."""
    return Solution(tuple([ctx.pair_set(m) | completion
                           for m, completion in zip(ctx.edits(c), completions)]),
                    marked=frozenset(bits(c.marked)))


def _check_bound_holds(ctx: SearchContext, c: Constraint, sol: Solution) -> None:
    """Each layer's extracted edits reach the accepted constraint's bound,
    and all of them reach its frozen edits plus the weight W of the
    non-permanent pairs that touch no mark (``disagreement_rejects`` with
    S = 0, as no mark is left to place)."""
    frozen = ctx.frozen(c)
    for i, m in enumerate(sol.edits):
        if frozen_edit_bound(ctx, i, frozen[i], c.permanent, len(m)) is None:
            raise InvariantViolation(f"layer {i + 1}'s {len(m)} extracted edits fall below "
                                     f"the accepted constraint's bound")
    free = ~c.permanent & ~ctx.touching_mask(c.marked)
    least = sum([m.bit_count() for m in frozen])
    least += sum([w * (mask & free).bit_count() for w, mask in ctx.weights])
    if sum(map(len, sol.edits)) < least:
        raise InvariantViolation(f"the extracted edits fall below the accepted "
                                 f"constraint's disagreement bound {least}")


def _check_children(ctx: SearchContext, parent: Constraint,
                    children: list[Constraint], depth: int) -> None:
    inst = ctx.inst
    limit = 2 * inst.k + inst.d + 1
    if depth + 1 > limit and children:
        raise InvariantViolation(f"search depth {depth + 1} exceeds {limit}")
    pq = constraint_quality(parent)
    for child in children:
        if child.marked.bit_count() > inst.d:
            raise InvariantViolation("child has more than d marks")
        if child.target & ctx.touching_mask(child.marked):
            raise InvariantViolation("child's target has a pair at a mark")
        if not extends(child, parent):
            raise InvariantViolation("child does not extend its parent")
        if constraint_quality(child) <= pq:
            raise InvariantViolation("child quality did not increase")
        _check_loose_edit_spread(ctx, child)


def _check_loose_edit_spread(ctx: SearchContext, c: Constraint) -> None:
    """A non-permanent unmarked edit may occur in at most half of the layers."""
    edits = ctx.edits(c)
    loose = reduce(or_, edits) & ~c.permanent
    for i in bits(loose):
        occurrences = sum(m >> i & 1 for m in edits)
        if 2 * occurrences > ctx.inst.ell:
            raise InvariantViolation(
                f"loose edit {ctx.pairs[i]} occurs in {occurrences} of {ctx.inst.ell} layers")
