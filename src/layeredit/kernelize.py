"""Polynomial kernelization for both problem modes.

The rules work on ``Instance`` with one edit budget per layer
(``Instance.budgets``); an edit spends its layer's budget and replaces that
layer alone, so only its P3s (``LayerGraph.p3s``, the layer's
``core.adj_p3s``) are scanned again, while a removal renumbers every layer,
and each is scanned again once.  Rules 5 and 6 read the union and the
intersection of the layers, both built by ``_merged``.  Eight
reduction rules shrink the instance (or reject it outright); what is left,
with its per-layer budgets, is the decision-equivalent kernel.  In temporal
mode every occurrence of the mark budget inside the rules is d*ell instead
of d.

Rules, in application order (lower id first; after an edit by rule 2 or 3
start again at rule 1, else go on to the next rule: rules 5 and 6 remove
all they qualify at once, and their removals leave every rule up to 6
inapplicable):
 1 reject on a negative budget
 2 delete an edge sitting in more P3s than the layer budget allows
 3 add a non-edge sitting in more P3s than the layer budget allows
 4 reject a layer whose P3-touched vertex set is too large
 5 remove every P3-free component that is identical in every layer
 6 shrink every large P3-free vertex group sharing a component in every
   layer to its k+d+2 largest vertices
 7 reject on an oversized component
 8 reject once the vertex count exceeds the kernel bound
"""

from __future__ import annotations

from functools import reduce
from operator import and_, or_
from typing import Optional

from .core import (
    TCE,
    Instance,
    LayerGraph,
    Pair,
    Record,
    apply_edits,
    p3_through_pair,
    pair,
    replace,
)

RULE_COUNT = 8

NOT_APPLICABLE = "na"
APPLIED = "applied"
TRIVIAL_NO = "no"
KEEP_ALL: frozenset[int] = frozenset()  # ``dropped`` of every rule but 5 and 6


def _d_effective(inst: Instance) -> int:
    """The mark budget inside the rules: d, or d*ell in temporal mode."""
    return inst.d * inst.ell if inst.mode == TCE else inst.d


class KernelResult(Record):
    reduced: Optional[Instance]
    trivial_no_rule: Optional[int]
    id_map: dict[int, Optional[int]]
    rule_log: tuple[str, ...]

    @property
    def is_no(self) -> bool:
        return self.trivial_no_rule is not None


def _merged(inst: Instance, op) -> LayerGraph:
    """The graph whose edge set is ``op`` (``or_`` or ``and_``) of every
    layer's."""
    return LayerGraph(inst.n, reduce(op, (g.edges for g in inst.layers)))


def _remove_vertices(inst: Instance, rule_id: int,
                     doomed: frozenset[int]) -> tuple[str, Optional[Instance], str, frozenset[int]]:
    """Rule ``rule_id``'s removal of ``doomed``, renumbering the rest in
    order; not applicable when nothing is doomed."""
    if not doomed:
        return NOT_APPLICABLE, None, "", KEEP_ALL
    keep = [v for v in range(1, inst.n + 1) if v not in doomed]
    renum = {old: new for new, old in enumerate(keep, start=1)}
    layers = tuple(LayerGraph(len(keep), frozenset(
        pair(renum[u], renum[v]) for u, v in g.edges if u not in doomed and v not in doomed))
        for g in inst.layers)
    return APPLIED, replace(inst, n=len(keep), layers=layers), \
        f"rule {rule_id}: removed vertices {sorted(doomed)}", doomed


def _edit_layer(inst: Instance, i: int, p: Pair) -> Instance:
    """Toggle p in layer i and spend one of its budget; the other layers,
    and the P3s cached on them, are kept."""
    layers = list(inst.layers)
    layers[i] = apply_edits(layers[i], {p})
    budgets = list(inst.edit_budgets)
    budgets[i] -= 1
    return replace(inst, layers=tuple(layers), budgets=tuple(budgets))


def apply_rule(inst: Instance,
               rule_id: int) -> tuple[str, Optional[Instance], str, frozenset[int]]:
    """Single application of one reduction rule.

    Assumes the instance is already reduced with respect to all rules with
    a smaller id.  Returns (status, new instance or None, note, dropped)
    where status is one of NOT_APPLICABLE, APPLIED, TRIVIAL_NO, and
    ``dropped`` holds the vertices a removal rule took out (numbered as in
    ``inst``; the survivors keep their order).
    """
    budgets = inst.edit_budgets
    if rule_id == 1:
        for i, k_i in enumerate(budgets):
            if k_i < 0:
                return TRIVIAL_NO, None, f"rule 1: layer {i + 1} budget {k_i} < 0", KEEP_ALL
        return NOT_APPLICABLE, None, "", KEEP_ALL

    if rule_id in (2, 3):
        want_edge = rule_id == 2
        for i, g in enumerate(inst.layers):
            # a non-edge lies in one P3 per common neighbour, so needs one
            candidates = sorted(g.edges) if want_edge else \
                sorted({(a, c) for a, _, c in g.p3s})
            for p in candidates:
                if p3_through_pair(g.adj, *p).bit_count() > budgets[i]:
                    verb = "deleted" if want_edge else "added"
                    return APPLIED, _edit_layer(inst, i, p), \
                        f"rule {rule_id}: {verb} {p} in layer {i + 1}", KEEP_ALL
        return NOT_APPLICABLE, None, "", KEEP_ALL

    # vertices on some induced P3, per layer
    dirty_per_layer = [frozenset(v for p3 in g.p3s for v in p3) for g in inst.layers]
    dirty_all = frozenset().union(*dirty_per_layer)
    k, deff = max(budgets), _d_effective(inst)  # the size rules use the largest budget

    if rule_id == 4:
        for i, (r_i, k_i) in enumerate(zip(dirty_per_layer, budgets)):
            if len(r_i) > k_i * k_i + 2 * k_i:
                return TRIVIAL_NO, None, \
                    f"rule 4: layer {i + 1} has {len(r_i)} P3-touched vertices", KEEP_ALL
        return NOT_APPLICABLE, None, "", KEEP_ALL

    if rule_id == 5:
        # A union component is connected in the intersection graph iff it is
        # one of that graph's components, which refine the union's.
        inter_comps = set(_merged(inst, and_).components())
        return _remove_vertices(inst, 5, frozenset().union(
            *(comp for comp in _merged(inst, or_).components()
              if comp in inter_comps and not comp & dirty_all)))

    if rule_id == 6:
        # each group keeps its threshold - 1 largest clean vertices
        threshold = k + deff + 3
        cleans = (sorted(comp - dirty_all) for comp in _merged(inst, and_).components())
        return _remove_vertices(inst, 6, frozenset(
            v for clean in cleans for v in clean[:max(0, len(clean) - threshold + 1)]))

    if rule_id == 7:
        threshold = k + 2 * deff + 3
        for i, g in enumerate(inst.layers):
            for comp in g.components():
                clean = len(comp - dirty_all)
                if clean >= threshold:
                    return TRIVIAL_NO, None, \
                        f"rule 7: layer {i + 1} component with {clean} clean vertices", KEEP_ALL
        return NOT_APPLICABLE, None, "", KEEP_ALL

    if rule_id == 8:
        bound = inst.ell * (k * k + 2 * k + deff * (k + 2 * deff + 2) + 2 * k)
        if inst.n > bound:
            return TRIVIAL_NO, None, f"rule 8: {inst.n} vertices exceed bound {bound}", KEEP_ALL
        return NOT_APPLICABLE, None, "", KEEP_ALL

    raise ValueError(f"unknown rule id {rule_id}")


def kernelize(inst: Instance) -> KernelResult:
    """Exhaustively reduce.

    The reduced instance, with one edit budget per layer, is
    decision-equivalent to the input; it may have no vertex left.  Solutions
    are not lifted back.  ``id_map`` sends every original vertex to its id
    in the output (or None if it was removed); it is ``{}`` on a trivial no.
    """
    orig_ids = list(range(1, inst.n + 1))  # orig_ids[v - 1]: input id of vertex v
    id_map: dict[int, Optional[int]] = {v: None for v in orig_ids}
    log: list[str] = []
    rule_id = 1
    while rule_id <= RULE_COUNT:
        status, nxt, note, dropped = apply_rule(inst, rule_id)
        if status == TRIVIAL_NO:
            log.append(note)
            return KernelResult(None, rule_id, {}, tuple(log))
        if status == APPLIED:
            log.append(note)
            inst = nxt
            orig_ids = [v for i, v in enumerate(orig_ids, start=1) if i not in dropped]
        # Only an edit can make an earlier rule apply again: a vertex that
        # rule 5 or 6 removes lies on no P3 and in a clique of every layer,
        # so removing it changes no P3, budget or other union or
        # intersection component, and rules 1-6 keep their verdicts.
        rule_id = 1 if status == APPLIED and rule_id in (2, 3) else rule_id + 1
    for new_id, orig in enumerate(orig_ids, start=1):
        id_map[orig] = new_id
    return KernelResult(inst, None, id_map, tuple(log))
