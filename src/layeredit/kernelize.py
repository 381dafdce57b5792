"""Polynomial kernelization for both problem modes.

The kernel works on instances with one edit budget per layer.  Eight
reduction rules shrink the instance (or reject it outright); afterwards a
clique gadget of 2k+2 fresh vertices restores a uniform budget, yielding a
plain decision-equivalent instance.  In temporal mode every occurrence of
the mark budget inside the rules is d*ell instead of d.

Rules, in application order (lower id first, restart after every change):
 1 reject on a negative budget
 2 delete an edge sitting in more P3s than the layer budget allows
 3 add a non-edge sitting in more P3s than the layer budget allows
 4 reject a layer whose P3-touched vertex set is too large
 5 remove a P3-free component that is identical in every layer
 6 shrink a large P3-free vertex group sharing a component in every layer
 7 reject on an oversized component
 8 reject once the vertex count exceeds the kernel bound
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .core import (
    TCE,
    Instance,
    LayerGraph,
    Pair,
    count_p3_through_pair,
    induced_p3s,
    pair,
    pairs_of,
)

RULE_COUNT = 8

NOT_APPLICABLE = "na"
APPLIED = "applied"
TRIVIAL_NO = "no"


@dataclass(frozen=True)
class SeparateBudgetInstance:
    """Working form of an instance with one edit budget per layer.

    ``orig_ids`` maps current vertex indices (position 0 = vertex 1) back to
    the vertex ids of the instance the kernelization started from.
    """

    mode: str
    n: int
    layers: tuple[LayerGraph, ...]
    budgets: tuple[int, ...]
    d: int
    orig_ids: tuple[int, ...]

    @property
    def ell(self) -> int:
        return len(self.layers)

    @property
    def k_max(self) -> int:
        return max(self.budgets)

    @property
    def d_effective(self) -> int:
        return self.d * self.ell if self.mode == TCE else self.d

    @cached_property
    def p3s_per_layer(self) -> tuple[list[tuple[int, int, int]], ...]:
        """``induced_p3s`` of each layer, scanned once per instance."""
        return tuple(induced_p3s(g) for g in self.layers)

    @cached_property
    def dirty_per_layer(self) -> tuple[frozenset[int], ...]:
        """Vertices that appear in some induced P3, per layer."""
        return tuple(frozenset(v for p3 in p3s for v in p3) for p3s in self.p3s_per_layer)

    @cached_property
    def dirty_all(self) -> frozenset[int]:
        return frozenset().union(*self.dirty_per_layer)


@dataclass(frozen=True)
class KernelResult:
    reduced: Optional[Instance]
    trivial_no_rule: Optional[int]
    id_map: dict[int, Optional[int]]
    rule_log: tuple[str, ...]

    @property
    def is_no(self) -> bool:
        return self.trivial_no_rule is not None


def to_separate_budgets(inst: Instance) -> SeparateBudgetInstance:
    return SeparateBudgetInstance(
        mode=inst.mode,
        n=inst.n,
        layers=inst.layers,
        budgets=(inst.k,) * inst.ell,
        d=inst.d,
        orig_ids=tuple(range(1, inst.n + 1)),
    )


def _union_graph(sb: SeparateBudgetInstance) -> LayerGraph:
    edges: frozenset[Pair] = frozenset()
    for g in sb.layers:
        edges |= g.edges
    return LayerGraph(sb.n, edges)


def _intersection_graph(sb: SeparateBudgetInstance) -> LayerGraph:
    edges = sb.layers[0].edges
    for g in sb.layers[1:]:
        edges &= g.edges
    return LayerGraph(sb.n, edges)


def _remove_vertices(sb: SeparateBudgetInstance, doomed: frozenset[int]) -> SeparateBudgetInstance:
    keep = [v for v in range(1, sb.n + 1) if v not in doomed]
    renum = {old: new for new, old in enumerate(keep, start=1)}
    layers = tuple(
        LayerGraph(len(keep), frozenset(
            pair(renum[u], renum[v]) for u, v in g.edges
            if u not in doomed and v not in doomed))
        for g in sb.layers)
    return SeparateBudgetInstance(
        mode=sb.mode, n=len(keep), layers=layers, budgets=sb.budgets, d=sb.d,
        orig_ids=tuple(sb.orig_ids[v - 1] for v in keep))


def _edit_layer(sb: SeparateBudgetInstance, i: int, p: Pair) -> SeparateBudgetInstance:
    layers = list(sb.layers)
    layers[i] = LayerGraph(sb.n, layers[i].edges ^ {p})
    budgets = list(sb.budgets)
    budgets[i] -= 1
    return SeparateBudgetInstance(
        mode=sb.mode, n=sb.n, layers=tuple(layers), budgets=tuple(budgets),
        d=sb.d, orig_ids=sb.orig_ids)


def apply_rule(sb: SeparateBudgetInstance,
               rule_id: int) -> tuple[str, Optional[SeparateBudgetInstance], str]:
    """Single application of one reduction rule.

    Assumes the instance is already reduced with respect to all rules with
    a smaller id.  Returns (status, new instance or None, note) where
    status is one of NOT_APPLICABLE, APPLIED, TRIVIAL_NO.
    """
    if rule_id == 1:
        for i, k_i in enumerate(sb.budgets):
            if k_i < 0:
                return TRIVIAL_NO, None, f"rule 1: layer {i + 1} budget {k_i} < 0"
        return NOT_APPLICABLE, None, ""

    if rule_id in (2, 3):
        want_edge = rule_id == 2
        for i, g in enumerate(sb.layers):
            # a non-edge lies in one P3 per common neighbour, so needs one
            candidates = sorted(g.edges) if want_edge else \
                sorted({(a, c) for a, _, c in sb.p3s_per_layer[i]})
            for p in candidates:
                if count_p3_through_pair(g, p) >= sb.budgets[i] + 1:
                    verb = "deleted" if want_edge else "added"
                    return APPLIED, _edit_layer(sb, i, p), \
                        f"rule {rule_id}: {verb} {p} in layer {i + 1}"
        return NOT_APPLICABLE, None, ""

    dirty_all = sb.dirty_all

    if rule_id == 4:
        for i, r_i in enumerate(sb.dirty_per_layer):
            k_i = sb.budgets[i]
            if len(r_i) > k_i * k_i + 2 * k_i:
                return TRIVIAL_NO, None, \
                    f"rule 4: layer {i + 1} has {len(r_i)} P3-touched vertices"
        return NOT_APPLICABLE, None, ""

    if rule_id == 5:
        # A union component is connected in the intersection graph iff it is
        # one of that graph's components, which refine the union's.
        inter_comps = set(_intersection_graph(sb).components())
        for comp in _union_graph(sb).components():
            if comp & dirty_all:
                continue
            if comp in inter_comps:
                return APPLIED, _remove_vertices(sb, comp), \
                    f"rule 5: removed shared component {sorted(comp)}"
        return NOT_APPLICABLE, None, ""

    if rule_id == 6:
        threshold = sb.k_max + sb.d_effective + 3
        for comp in _intersection_graph(sb).components():
            clean = comp - dirty_all
            if len(clean) >= threshold:
                victim = min(clean)
                return APPLIED, _remove_vertices(sb, frozenset({victim})), \
                    f"rule 6: removed vertex {victim} from a group of {len(clean)}"
        return NOT_APPLICABLE, None, ""

    if rule_id == 7:
        threshold = sb.k_max + 2 * sb.d_effective + 3
        for i, g in enumerate(sb.layers):
            for comp in g.components():
                if len(comp - dirty_all) >= threshold:
                    return TRIVIAL_NO, None, \
                        f"rule 7: layer {i + 1} component with {len(comp - dirty_all)} clean vertices"
        return NOT_APPLICABLE, None, ""

    if rule_id == 8:
        k = sb.k_max
        deff = sb.d_effective
        bound = sb.ell * (k * k + 2 * k + deff * (k + 2 * deff + 2) + 2 * k)
        if sb.n > bound:
            return TRIVIAL_NO, None, f"rule 8: {sb.n} vertices exceed bound {bound}"
        return NOT_APPLICABLE, None, ""

    raise ValueError(f"unknown rule id {rule_id}")


def back_transform(sb: SeparateBudgetInstance) -> Instance:
    """Restore a uniform budget by attaching a clique on 2k+2 new vertices,
    with k - k_i of its edges removed in layer i."""
    k = sb.k_max
    if k < 0:
        raise ValueError("back transformation needs nonnegative budgets")
    gadget = list(range(sb.n + 1, sb.n + 2 * k + 3))
    gadget_pairs = pairs_of(gadget)
    layers = []
    for g, k_i in zip(sb.layers, sb.budgets):
        missing = set(gadget_pairs[:k - k_i])
        layers.append(LayerGraph(sb.n + len(gadget),
                                 g.edges | frozenset(p for p in gadget_pairs
                                                     if p not in missing)))
    return Instance(mode=sb.mode, n=sb.n + len(gadget), layers=tuple(layers),
                    k=k, d=sb.d)


def kernelize(inst: Instance) -> KernelResult:
    """Exhaustively reduce, then back-transform.

    The reduced instance is decision-equivalent to the input; solutions are
    not lifted back.  ``id_map`` sends every original vertex to its id in
    the output (or None if it was removed); gadget vertices are new.
    """
    sb = to_separate_budgets(inst)
    log: list[str] = []
    while True:
        for rule_id in range(1, RULE_COUNT + 1):
            status, nxt, note = apply_rule(sb, rule_id)
            if status == TRIVIAL_NO:
                log.append(note)
                return KernelResult(None, rule_id, {}, tuple(log))
            if status == APPLIED:
                log.append(note)
                sb = nxt
                break
        else:
            break
    reduced = back_transform(sb)
    id_map: dict[int, Optional[int]] = {v: None for v in range(1, inst.n + 1)}
    for new_id, orig in enumerate(sb.orig_ids, start=1):
        id_map[orig] = new_id
    return KernelResult(reduced, None, id_map, tuple(log))
