"""``core.verify`` against the edge-set check it replaced.

``reference_verify`` is that check as it was: it builds each edited layer
with ``apply_edits``, scans it with ``find_p3`` and compares edge sets.  On
random mlce and tce instances, with valid solutions and with corrupted
ones, both must report the same violation text, or raise the same
exception with the same text.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

from layeredit.core import (
    MLCE,
    TCE,
    InputError,
    Instance,
    LayerGraph,
    Solution,
    VerifyReport,
    apply_edits,
    find_p3,
    layer_from_edges,
    replace,
    verify,
)

from conftest import random_instance


def reference_verify(inst, sol) -> VerifyReport:
    if len(sol.edits) != inst.ell:
        raise InputError(f"solution has {len(sol.edits)} edit sets, instance has {inst.ell} layers")
    if inst.mode == MLCE and sol.marked is None:
        raise InputError("mlce solution must carry a single mark set")
    if inst.mode == TCE and sol.marked_per_gap is None:
        raise InputError("tce solution must carry one mark set per layer gap")
    if inst.mode == TCE and len(sol.marked_per_gap) != inst.ell - 1:
        raise InputError(
            f"tce solution has {len(sol.marked_per_gap)} mark sets, expected {inst.ell - 1}")

    violations: list[str] = []
    for i, (m, k_i) in enumerate(zip(sol.edits, inst.edit_budgets), start=1):
        if len(m) > k_i:
            violations.append(f"edit budget exceeded in layer {i}: {len(m)} > k={k_i}")
    mark_sets = [sol.marked] if inst.mode == MLCE else list(sol.marked_per_gap)
    for i, dset in enumerate(mark_sets, start=1):
        if any(not 1 <= v <= inst.n for v in dset):
            raise InputError(f"marked vertex out of range in mark set {i}")
        if len(dset) > inst.d:
            where = "" if inst.mode == MLCE else f" at gap {i}"
            violations.append(f"mark budget exceeded{where}: {len(dset)} > d={inst.d}")

    edited = [apply_edits(g, m) for g, m in zip(inst.layers, sol.edits)]
    for i, g in enumerate(edited, start=1):
        w = find_p3(g)
        if w is not None:
            violations.append(
                f"layer {i} is not a cluster graph after edits: induced P3 ({w[0]},{w[1]},{w[2]})")

    if inst.mode == MLCE:
        for i, j in combinations(range(inst.ell), 2):
            bad = _first_disagreement(edited[i], edited[j], sol.marked)
            if bad is not None:
                violations.append(
                    f"layers {i + 1} and {j + 1} differ outside marks on pair {bad}")
    else:
        for i in range(inst.ell - 1):
            bad = _first_disagreement(edited[i], edited[i + 1], sol.marked_per_gap[i])
            if bad is not None:
                violations.append(
                    f"layers {i + 1} and {i + 2} differ outside marks on pair {bad} (gap {i + 1})")
    return VerifyReport(tuple(violations))


def _first_disagreement(g1: LayerGraph, g2: LayerGraph, removed: frozenset[int]):
    return min((p for p in g1.edges ^ g2.edges
                if p[0] not in removed and p[1] not in removed), default=None)


def outcome(check, inst, sol):
    try:
        return check(inst, sol).violations
    except Exception as exc:  # the type and the text must match
        return type(exc), str(exc)


def valid_solution(rng, inst) -> Solution:
    """Layers turned into cluster graphs that agree outside the marks: one
    random clustering, whose marked vertices move to a random cluster in
    each layer (mlce), or which moves the marks of each gap on to the next
    layer (tce)."""
    n = inst.n
    label = {v: rng.randrange(n) for v in range(1, n + 1)}
    marks = [frozenset(v for v in range(1, n + 1) if rng.random() < 0.3)
             for _ in range(1 if inst.mode == MLCE else inst.ell - 1)]
    targets = []
    for i in range(inst.ell):
        moved = marks[0] if inst.mode == MLCE else (marks[i - 1] if i else frozenset())
        label = {v: rng.randrange(n) if v in moved else c for v, c in label.items()}
        targets.append({p for p in combinations(range(1, n + 1), 2)
                        if label[p[0]] == label[p[1]]})
    edits = tuple(frozenset(g.edges ^ target) for g, target in zip(inst.layers, targets))
    if inst.mode == MLCE:
        return Solution(edits, marked=marks[0])
    return Solution(edits, marked_per_gap=tuple(marks))


def corruptions(rng, inst, sol):
    """(instance, solution) pairs derived from a valid one."""
    n, edits = inst.n, list(sol.edits)
    pairs = list(combinations(range(1, n + 1), 2))
    i = rng.randrange(inst.ell)
    # toggle a few pairs in one layer: a P3 left, layers that differ
    flipped = list(edits)
    flipped[i] = flipped[i] ^ frozenset(rng.sample(pairs, rng.randint(1, min(3, len(pairs)))))
    yield inst, replace(sol, edits=tuple(flipped))
    # a disagreement outside the marks: drop the marks
    if inst.mode == MLCE:
        yield inst, replace(sol, marked=frozenset())
    else:
        yield inst, replace(sol, marked_per_gap=(frozenset(),) * (inst.ell - 1))
    # a layer over its budget, and marks over d
    budgets = [len(m) for m in edits]
    budgets[i] -= 1
    yield replace(inst, k=max(len(m) for m in edits), budgets=tuple(budgets), d=0), sol
    # an out-of-range pair, a non-canonical pair, a degenerate pair
    u, v = rng.choice(pairs)
    for bad in ((u, n + 1), (0, v), (v, u), (u, u)):
        broken = list(edits)
        broken[i] = broken[i] | {bad}
        yield inst, replace(sol, edits=tuple(broken))
    # a marked vertex out of range, the wrong number of edit or mark sets
    if inst.mode == MLCE:
        yield inst, replace(sol, marked=sol.marked | {n + 1})
        yield inst, Solution(sol.edits, marked_per_gap=(sol.marked,) * (inst.ell - 1))
    else:
        yield inst, replace(sol, marked_per_gap=sol.marked_per_gap + (frozenset(),))
        yield inst, Solution(sol.edits, marked=frozenset())
    yield inst, replace(sol, edits=sol.edits[:-1])


KINDS = ("edit budget", "mark budget", "not a cluster graph", "differ outside marks")


def test_matches_the_edge_set_reference(rng):
    seen = Counter()
    for trial in range(150):
        mode = (MLCE, TCE)[trial % 2]
        inst = random_instance(rng, mode, max_n=7, max_ell=4, max_k=3, max_d=3)
        sol = valid_solution(rng, inst)
        roomy = replace(inst, k=max(len(m) for m in sol.edits), d=inst.n)
        assert outcome(verify, roomy, sol) == outcome(reference_verify, roomy, sol) == ()
        for case in ((inst, sol), *corruptions(rng, inst, sol)):
            want = outcome(reference_verify, *case)
            assert outcome(verify, *case) == want, case
            if want and isinstance(want[0], type):
                seen[want[0]] += 1
            else:
                seen.update(next(kind for kind in KINDS if kind in v) for v in want)
    assert all(seen[kind] >= 50 for kind in KINDS)
    assert seen[InputError] == 7 * 150  # every malformed case raises


def test_lowest_disagreement_is_named():
    # layers 1 and 2 differ on (1, 4) and (2, 3) outside the marks
    layers = (layer_from_edges(4, [(1, 4)]), layer_from_edges(4, [(2, 3)]))
    for mode, solution in ((MLCE, Solution((frozenset(),) * 2, marked=frozenset())),
                           (TCE, Solution((frozenset(),) * 2, marked_per_gap=(frozenset(),)))):
        inst = Instance(mode, 4, layers, 0, 0)
        report = verify(inst, solution)
        assert report.violations[0].startswith("layers 1 and 2 differ outside marks on pair (1, 4)")
        assert report.violations == reference_verify(inst, solution).violations

