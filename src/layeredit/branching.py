"""Search-tree solver for multi-layer cluster editing.

The solver keeps a constraint (marked vertices, per-layer edit sets, and
permanent pairs whose status is frozen) that always aligns all edited
layers outside the marked set.  Starting from a greedy majority-vote
alignment, it applies, in order: a budget reject, a clean-up pass, and
three branching rules (destroy a P3, repair an edit-budget overflow,
repair a layer that cannot be completed by marked-only edits).  When no
rule applies, a full solution is assembled from the constraint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .core import (
    MLCE,
    InputError,
    Instance,
    LayerGraph,
    Pair,
    Solution,
    apply_edits,
    find_p3,
    pair,
    pairs_of,
    verify,
)


class InvariantViolation(RuntimeError):
    """An instrumented run observed a broken search invariant."""


@dataclass(frozen=True)
class Constraint:
    """Branching state: marked vertices, per-layer edits, permanent pairs."""

    marked: frozenset[int]
    edits: tuple[frozenset[Pair], ...]
    permanent: frozenset[Pair]

    def has_permanent_pair(self, x: int) -> bool:
        return any(x in p for p in self.permanent)


@dataclass
class SearchStats:
    nodes: int = 0
    max_depth: int = 0


TraceFn = Callable[[str], None]

FAILED_CAP = 1 << 16  # failed constraints remembered per search: ~35 MB at n = 24


def edited_layers_of(inst: Instance, c: Constraint) -> tuple[LayerGraph, ...]:
    return tuple(apply_edits(g, m) for g, m in zip(inst.layers, c.edits))


def is_aligning(inst: Instance, c: Constraint) -> bool:
    """All edited layers agree on the unmarked vertices."""
    rest = None
    for g in edited_layers_of(inst, c):
        cur = frozenset(p for p in g.edges
                        if p[0] not in c.marked and p[1] not in c.marked)
        if rest is None:
            rest = cur
        elif cur != rest:
            return False
    return True


def extends(child: Constraint, parent: Constraint) -> bool:
    """Marked and permanent sets grow; edits agree on the parent's permanent pairs."""
    if not (child.marked >= parent.marked and child.permanent >= parent.permanent):
        return False
    return all(cm & parent.permanent == pm & parent.permanent
               for cm, pm in zip(child.edits, parent.edits))


def constraint_quality(c: Constraint) -> int:
    """Progress measure of a constraint: marked vertices plus permanent pairs."""
    return len(c.marked) + len(c.permanent)


def greedy_initial_constraint(inst: Instance) -> Constraint:
    """Majority-vote alignment: a pair present in at least half of the layers
    is added everywhere, any other pair is deleted everywhere."""
    if inst.mode != MLCE:
        raise InputError("greedy alignment is defined for mlce instances")
    ell = inst.ell
    counts: dict[Pair, int] = {}
    for g in inst.layers:
        for p in g.edges:
            counts[p] = counts.get(p, 0) + 1
    edits: list[set[Pair]] = [set() for _ in range(ell)]
    for p, cnt in counts.items():
        if 2 * cnt >= ell:
            for i, g in enumerate(inst.layers):
                if p not in g.edges:
                    edits[i].add(p)
        else:
            for i, g in enumerate(inst.layers):
                if p in g.edges:
                    edits[i].add(p)
    return Constraint(frozenset(), tuple(frozenset(m) for m in edits), frozenset())


def rule0_rejects(c: Constraint, k: int, d: int) -> bool:
    """Dead branch: too many marks, or some layer has over k frozen edits."""
    if len(c.marked) > d:
        return True
    return any(len(m & c.permanent) > k for m in c.edits)


def cleanup(c: Constraint) -> Constraint:
    """Drop every edit pair that touches a marked vertex.  Idempotent."""
    if not c.marked:
        return c
    new_edits = tuple(
        frozenset(p for p in m if p[0] not in c.marked and p[1] not in c.marked)
        for m in c.edits)
    return Constraint(c.marked, new_edits, c.permanent)


def _toggle_child(c: Constraint, p: Pair) -> Constraint:
    return Constraint(c.marked,
                      tuple(m ^ {p} for m in c.edits),
                      c.permanent | {p})


def _mark_child(c: Constraint, x: int, drop: Optional[Pair] = None) -> Constraint:
    edits = c.edits if drop is None else tuple(m - {drop} for m in c.edits)
    return Constraint(c.marked | {x}, edits, c.permanent)


def branching_rule_1(inst: Instance, c: Constraint) -> Optional[list[Constraint]]:
    """Destroy an induced P3 among unmarked vertices.

    None if every edited layer restricted to the unmarked vertices is a
    cluster graph.  The constraint aligns the edited layers there, so the
    first one decides.  Otherwise up to six children: toggle-and-freeze each
    of the three pairs not yet permanent, and mark each of the three
    vertices that carry no permanent pair.  An empty list signals a dead
    branch.
    """
    unmarked = inst.vertices() - c.marked
    witness = find_p3(apply_edits(inst.layers[0], c.edits[0]), unmarked)
    if witness is None:
        return None
    children: list[Constraint] = []
    for p in witness.pairs():
        if p not in c.permanent:
            children.append(_toggle_child(c, p))
    for x in (witness.a, witness.b, witness.c):
        if not c.has_permanent_pair(x):
            children.append(_mark_child(c, x))
    return children


def branching_rule_2(inst: Instance, c: Constraint, k: int) -> Optional[list[Constraint]]:
    """Repair the first layer whose edit set exceeds the budget.

    Picks the lexicographically smallest non-permanent pairs so that,
    together with the permanent ones, k+1 edits of the layer are covered,
    and branches on undoing each of them: either freeze the edit, or mark
    one endpoint and drop the edit everywhere.
    """
    over = next((i for i, m in enumerate(c.edits) if len(m) > k), None)
    if over is None:
        return None
    m_i = c.edits[over]
    need = k + 1 - len(m_i & c.permanent)
    loose = sorted(m_i - c.permanent)[:need]
    children = [_toggle_child(c, p) for p in loose]
    for p in loose:
        for x in p:
            if not c.has_permanent_pair(x):
                children.append(_mark_child(c, x, drop=p))
    return children


def kernel_k(g: LayerGraph, budget: int, marked: frozenset[int],
             obligatory: frozenset[Pair]) -> Optional[tuple[frozenset[Pair], frozenset[Pair]]]:
    """Per-layer cluster-editing kernel with frozen (obligatory) pairs.

    Repeatedly applies, first match wins: fail when the budget is negative
    or an all-obligatory P3 exists; force-toggle a pair sitting in more
    induced P3s than the remaining budget allows (fail if it is obligatory);
    remove isolated cliques.  Fails if more than budget**2 + 2*budget
    vertices remain.  Returns (forced unmarked edits, remaining unmarked
    non-obligatory pairs), or None for failure.
    """
    verts = set(range(1, g.n + 1))
    adj: dict[int, set[int]] = {v: set(g.adj[v]) for v in verts}
    oblig = set(obligatory)
    s = budget
    forced: set[Pair] = set()

    def p3_count(u: int, v: int) -> int:
        if v in adj[u]:
            return sum(1 for w in adj[u] ^ adj[v] if w not in (u, v))
        return sum(1 for w in adj[u] & adj[v] if w not in (u, v))

    while True:
        if s < 0:
            return None
        if _all_obligatory_p3(verts, adj, oblig):
            return None
        hit = next((p for p in pairs_of(verts) if p3_count(*p) >= s + 1), None)
        if hit is not None:
            if hit in oblig:
                return None
            u, v = hit
            if v in adj[u]:
                adj[u].discard(v)
                adj[v].discard(u)
            else:
                adj[u].add(v)
                adj[v].add(u)
            oblig.add(hit)
            s -= 1
            if u not in marked and v not in marked:
                forced.add(hit)
            continue
        clique = _first_isolated_clique(verts, adj)
        if clique is not None:
            for v in clique:
                verts.discard(v)
                del adj[v]
            for v in verts:
                adj[v] -= clique
            continue
        break

    if len(verts) > s * s + 2 * s:
        return None
    open_pairs = frozenset(
        p for p in pairs_of(verts)
        if p[0] not in marked and p[1] not in marked and p not in oblig)
    return frozenset(forced), open_pairs


def _all_obligatory_p3(verts: set[int], adj: dict[int, set[int]],
                       oblig: set[Pair]) -> bool:
    if len(oblig) < 3:
        return False
    for a, b in oblig:
        if a not in verts or b not in verts:
            continue
        for w in verts:
            if w in (a, b) or pair(a, w) not in oblig or pair(b, w) not in oblig:
                continue
            edges = (b in adj[a]) + (w in adj[a]) + (w in adj[b])
            if edges == 2:
                return True
    return False


def _first_isolated_clique(verts: set[int], adj: dict[int, set[int]]) -> Optional[set[int]]:
    seen: set[int] = set()
    for start in sorted(verts):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in comp:
                    comp.add(y)
                    stack.append(y)
        seen |= comp
        if all(len(adj[v] & comp) == len(comp) - 1 for v in comp):
            return comp
    return None


def min_marked_completion(g: LayerGraph, marked: frozenset[int],
                          budget: int) -> Optional[frozenset[Pair]]:
    """Minimum edit set touching only marked vertices that makes g a cluster
    graph, if one of size at most budget exists.

    Requires g restricted to the unmarked vertices to be a cluster graph
    already; every remaining P3 then offers at most three marked-touching
    pairs to branch on.  Iterative deepening returns a true minimum.
    """
    unmarked = frozenset(v for v in range(1, g.n + 1) if v not in marked)
    if find_p3(g, unmarked) is not None:
        raise RuntimeError("unmarked part must already be a cluster graph")
    for size in range(budget + 1):
        found = _complete(g, marked, size)
        if found is not None:
            return frozenset(found)
    return None


def _complete(g: LayerGraph, marked: frozenset[int], budget: int) -> Optional[list[Pair]]:
    witness = find_p3(g)
    if witness is None:
        return []
    if budget == 0:
        return None
    for p in witness.pairs():
        if p[0] in marked or p[1] in marked:
            rest = _complete(apply_edits(g, {p}), marked, budget - 1)
            if rest is not None:
                return [p] + rest
    return None


def branching_rule_3(inst: Instance, c: Constraint, k: int) -> Optional[list[Constraint]]:
    """Repair the first layer that cannot be finished with marked-only edits.

    None when every layer admits a marked-only completion within its
    remaining budget.  Otherwise branches on undoing a loose edit of the
    layer, on marking an endpoint of an edit forced by the per-layer kernel,
    on committing all kernel decisions at once, and on each open kernel
    pair.  An empty list signals a dead branch.
    """
    edited = edited_layers_of(inst, c)
    offending = None
    for i, g in enumerate(edited):
        if min_marked_completion(g, c.marked, k - len(c.edits[i])) is None:
            offending = i
            break
    if offending is None:
        return None

    i = offending
    m_i = c.edits[i]
    loose = sorted(m_i - c.permanent)
    kernel = kernel_k(edited[i], k - len(m_i), c.marked, frozenset(m_i & c.permanent))

    children: list[Constraint] = []
    for p in loose:
        for x in p:
            if not c.has_permanent_pair(x):
                children.append(_mark_child(c, x, drop=p))
        children.append(_toggle_child(c, p))

    if kernel is None:
        return children  # empty when no loose edits exist: dead branch

    forced, open_pairs = kernel
    base_quality = constraint_quality(c)
    extra: list[Constraint] = []
    for p in sorted(forced):
        for x in p:
            if x not in c.marked and not c.has_permanent_pair(x):
                extra.append(_mark_child(c, x, drop=p))
    if forced:
        extra.append(Constraint(c.marked,
                                tuple(m ^ forced for m in c.edits),
                                c.permanent | m_i | forced))
    for p in sorted(open_pairs):
        for x in p:
            if not c.has_permanent_pair(x):
                extra.append(_mark_child(c, x))
        extra.append(_toggle_child(c, p))
    # The kernel ignores permanent pairs it was not told about, so on dead
    # branches it can propose undoing one; such children neither extend the
    # parent nor make progress and are never needed for completeness.
    children.extend(ch for ch in extra
                    if extends(ch, c) and constraint_quality(ch) > base_quality)
    return children


def solve_mlce(inst: Instance, *, trace: Optional[TraceFn] = None,
               check_invariants: bool = False,
               stats: Optional[SearchStats] = None) -> Optional[Solution]:
    """Full search: returns a verified solution or None when none exists."""
    if inst.mode != MLCE:
        raise InputError("solve_mlce expects an mlce instance")
    root = greedy_initial_constraint(inst)
    if check_invariants and not is_aligning(inst, root):
        raise InvariantViolation("greedy constraint is not aligning")
    sol = _search(inst, root, 0, trace, check_invariants, stats, set())
    if sol is not None:
        report = verify(inst, sol)
        if not report.ok:
            raise RuntimeError(f"extracted solution failed verification: {report}")
    return sol


def _search(inst: Instance, c: Constraint, depth: int, trace: Optional[TraceFn],
            check: bool, stats: Optional[SearchStats],
            failed: set[Constraint]) -> Optional[Solution]:
    """Depth-first search below ``c``.  A constraint's subtree depends on it
    alone, so one in ``failed`` is not expanded again."""
    if stats is not None:
        stats.nodes += 1
        stats.max_depth = max(stats.max_depth, depth)
    if rule0_rejects(c, inst.k, inst.d):
        if trace:
            trace(f"TRACE {depth} rule0 reject |D|={len(c.marked)}")
        return None
    c = cleanup(c)
    if c in failed:
        if trace:
            trace(f"TRACE {depth} seen")
        return None

    children = branching_rule_1(inst, c)
    rule = "rule1"
    if children is None:
        children = branching_rule_2(inst, c, inst.k)
        rule = "rule2"
    if children is None:
        children = branching_rule_3(inst, c, inst.k)
        rule = "rule3"
    if children is None:
        if trace:
            trace(f"TRACE {depth} accept |D|={len(c.marked)} |B|={len(c.permanent)}")
        return _extract_solution(inst, c)

    if trace:
        trace(f"TRACE {depth} {rule} children={len(children)}")
    if check:
        _check_children(inst, c, children, depth)
    for child in children:
        found = _search(inst, child, depth + 1, trace, check, stats, failed)
        if found is not None:
            return found
    if len(failed) < FAILED_CAP:
        failed.add(c)
    return None


def _extract_solution(inst: Instance, c: Constraint) -> Solution:
    edits = []
    for i, g in enumerate(edited_layers_of(inst, c)):
        completion = min_marked_completion(g, c.marked, inst.k - len(c.edits[i]))
        if completion is None:
            raise RuntimeError("completion vanished after rules stopped applying")
        edits.append(c.edits[i] | completion)
    return Solution(tuple(edits), marked=c.marked)


def _check_children(inst: Instance, parent: Constraint,
                    children: list[Constraint], depth: int) -> None:
    limit = 2 * inst.k + inst.d + 1
    if depth + 1 > limit and children:
        raise InvariantViolation(f"search depth {depth + 1} exceeds {limit}")
    pq = constraint_quality(parent)
    for child in children:
        if not is_aligning(inst, child):
            raise InvariantViolation("child constraint is not aligning")
        if not extends(child, parent):
            raise InvariantViolation("child does not extend its parent")
        if constraint_quality(child) <= pq:
            raise InvariantViolation("child quality did not increase")
        _check_loose_edit_spread(inst, child)


def _check_loose_edit_spread(inst: Instance, c: Constraint) -> None:
    """A non-permanent unmarked edit may occur in at most half of the layers."""
    seen: set[Pair] = set()
    for m in c.edits:
        for p in m - c.permanent:
            if p[0] in c.marked or p[1] in c.marked or p in seen:
                continue
            seen.add(p)
            occurrences = sum(1 for mm in c.edits if p in mm)
            if 2 * occurrences > inst.ell:
                raise InvariantViolation(
                    f"loose edit {p} occurs in {occurrences} of {inst.ell} layers")
