"""Pinned search behaviour of the branch solver.

Node counts, search depth, the number of trace lines of each kind and the
serialized solution of ``solve_mlce`` are fixed for a set of planted and
SAT-reduction instances, and so are the outputs of the per-layer kernel
``kernel_k`` on seeded random inputs.  A change to how the search stores or
tests its constraints must leave every value here as it is; a change that
means to alter the search updates the table and says why.

The node, depth and other trace-kind counts were last repinned when the
search began to check a second bound before entering each child, the
disagreement between layers (``branching.disagreement_rejects``), beside
the frozen-edit bound (``branching.frozen_edit_bound``).  Nine planted rows
moved, and the 20 planted pins fell from 133 to 98 nodes; seed 10's root
is now rejected, its one ``rule0`` line.  The search run directly on the
SAT reductions fell from 825 to 133 nodes (satisfiable) and from 511 to
17 (unsatisfiable).  Pruned subtrees hold no solution and the surviving
children keep their order, so every solution digest, yes flag and kernel
pin stayed as it was.

The SAT reductions have every edit budget 0, so ``solve_mlce`` decides
them by a vertex cover of the pairs on which the layers differ
(``PairIndex.cover``), not by the constraint search: ``SAT`` pins that
route, whose nodes are the cover's calls, and ``FORCED`` pins the
constraint search run directly on the same instances.

The last trace kind, ``pruned``, is one line per child the search reached
and dropped by either bound, so it also pins ``SearchStats.pruned_bound``.
The bounds are tested when the search reaches a child, not when its parent
branches, so a yes search no longer tests the siblings after the child that
leads to its solution.  That moved only the pruned counts of yes rows:
planted seeds 3 (20 to 19), 6 (12 to 11), 7 (5 to 4), 9 (7 to 5) and 15
(11 to 8), and the satisfiable ``FORCED`` search (97 to 96).
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter

import pytest

from layeredit.branching import (
    SearchContext,
    SearchStats,
    greedy_initial_constraint,
    kernel_k,
    solve_mlce,
)
from layeredit.core import Instance, all_pairs, layer_from_edges, replace, vertex_mask
from layeredit.fileio import (
    Formula223,
    PlantedParams,
    generate_planted,
    generate_sat_reduction,
    serialize_solution,
)

KINDS = ("rule0", "rule1", "rule2", "rule3", "accept", "seen", "pruned")

NO = "33d1589fe9b3e131"  # digest of the "answer no" solution file

# seed -> (nodes, max_depth, trace lines per kind in KINDS order, solution digest, yes)
PLANTED = [
    (0, (9, 2, (0, 2, 5, 0, 1, 1, 19), "91689b6135131f2f", True)),
    (1, (15, 2, (0, 0, 5, 2, 0, 8, 29), NO, False)),
    (2, (1, 0, (1, 0, 0, 0, 0, 0, 0), NO, False)),
    (3, (8, 3, (0, 0, 5, 2, 1, 0, 19), "8b0e030c90ef8657", True)),
    (4, (2, 1, (0, 0, 1, 0, 1, 0, 3), "b8b6c4cfe8548a80", True)),
    (5, (1, 0, (1, 0, 0, 0, 0, 0, 0), NO, False)),
    (6, (4, 2, (0, 0, 3, 0, 1, 0, 11), "ee03f98a856990f5", True)),
    (7, (2, 1, (0, 1, 0, 0, 1, 0, 4), "91d0e5e3c1f17cad", True)),
    (8, (1, 0, (1, 0, 0, 0, 0, 0, 0), NO, False)),
    (9, (4, 3, (0, 0, 3, 0, 1, 0, 5), "d56a7f51cd196a9e", True)),
    (10, (1, 0, (1, 0, 0, 0, 0, 0, 0), NO, False)),
    (11, (1, 0, (1, 0, 0, 0, 0, 0, 0), NO, False)),
    (12, (6, 2, (0, 1, 3, 1, 1, 0, 10), "694d3ab0ace1c93d", True)),
    (13, (3, 2, (0, 1, 1, 0, 1, 0, 6), "3413a013295edc26", True)),
    (14, (1, 0, (1, 0, 0, 0, 0, 0, 0), NO, False)),
    (15, (4, 3, (0, 1, 2, 0, 1, 0, 8), "f97bb6556e2ddb4a", True)),
    (16, (2, 1, (0, 0, 1, 0, 1, 0, 2), "79b5ecb95fb88a2e", True)),
    (17, (1, 0, (1, 0, 0, 0, 0, 0, 0), NO, False)),
    (18, (4, 2, (0, 0, 3, 0, 1, 0, 6), "2ca7f52056d8ecbe", True)),
    (19, (28, 3, (0, 4, 16, 1, 0, 7, 57), NO, False)),
]

SATISFIABLE = ((1, 2, 3), (-1, -2, -3), (1, 2, 3), (-1, -2, -3))
UNSATISFIABLE = ((1, 2), (1, -2), (-1, 2), (-1, -2))

# clauses -> same fields, for the solve that the cover decides
SAT = [
    (SATISFIABLE, (9, 0, (0, 0, 0, 0, 1, 0, 0), "f7742dcfdf3f43e1", True)),
    (UNSATISFIABLE, (10, 0, (1, 0, 0, 0, 0, 0, 0), NO, False)),
]

# clauses -> same fields, for the constraint search run directly
FORCED = [
    (SATISFIABLE, (133, 14, (0, 0, 119, 0, 1, 13, 96), "f7742dcfdf3f43e1", True)),
    (UNSATISFIABLE, (17, 5, (0, 0, 17, 0, 0, 0, 18), NO, False)),
]


def planted_instance(seed: int):
    """n 8-16, ell 3-4; the stored budgets, one mark fewer, or one edit fewer."""
    n = 8 + seed % 9
    params = PlantedParams(n=n, ell=3 + seed % 2, cluster_count=n // 2 + 1,
                           drift_per_layer=1, noise_edits=1 + seed % 2, seed=seed)
    inst = generate_planted(params, "mlce")
    dk, dd = ((0, 0), (0, -1), (-1, 0))[seed % 3]
    return replace(inst, k=inst.k + dk, d=inst.d + dd)


def search(inst, trace=None, stats=None):
    """The constraint search alone, from the greedy root, whatever the budgets."""
    ctx = SearchContext(inst, trace, False, stats)
    return ctx.run(greedy_initial_constraint(ctx), 0)


def observe(inst, solve=solve_mlce):
    lines: list[str] = []
    stats = SearchStats()
    sol = solve(inst, trace=lines.append, stats=stats)
    kinds = Counter(line.split()[2] for line in lines)
    assert set(kinds) <= set(KINDS)
    assert kinds["pruned"] == stats.pruned_bound
    digest = hashlib.sha256(serialize_solution(sol, inst).encode()).hexdigest()[:16]
    return stats.nodes, stats.max_depth, tuple(kinds[k] for k in KINDS), digest, sol is not None


@pytest.mark.parametrize("seed,expected", PLANTED, ids=[f"seed{s}" for s, _ in PLANTED])
def test_planted_search_is_pinned(seed, expected):
    assert observe(planted_instance(seed)) == expected


@pytest.mark.parametrize("clauses,expected", SAT, ids=["satisfiable", "unsatisfiable"])
def test_sat_reduction_search_is_pinned(clauses, expected):
    formula = Formula223(max(abs(lit) for c in clauses for lit in c), clauses)
    assert formula.satisfiable() == expected[4]
    assert observe(generate_sat_reduction(formula)) == expected


def sat_instance(clauses):
    return generate_sat_reduction(Formula223(max(abs(lit) for c in clauses for lit in c), clauses))


@pytest.mark.parametrize("clauses,expected", FORCED, ids=["satisfiable", "unsatisfiable"])
def test_sat_reduction_constraint_search_is_pinned(clauses, expected):
    assert observe(sat_instance(clauses), search) == expected


def test_no_instance_counts_pruned_children():
    # and so does a yes instance: one pruned line per child dropped
    for seed, yes in ((0, True), (1, False)):
        lines: list[str] = []
        stats = SearchStats()
        assert (solve_mlce(planted_instance(seed), trace=lines.append, stats=stats)
                is not None) == yes
        assert stats.pruned_bound > 0
        pruned = [line.split() for line in lines if line.split()[2] == "pruned"]
        assert len(pruned) == stats.pruned_bound
        assert all(len(parts) == 3 and int(parts[1]) > 0 for parts in pruned)
        rules = [line.split() for line in lines if line.split()[2].startswith("rule")]
        assert rules and all(len(parts) == 4 and parts[3].startswith("children=")
                             for parts in rules)


def test_pinned_set_has_both_answers():
    answers = [yes for _, (*_, yes) in PLANTED]
    assert 0 < sum(answers) < len(answers)


# sha256 prefix over every kernel_k output of kernel_inputs(), and the
# number of those outputs that are None
KERNEL_DIGEST = "02877e48dfd1d912"
KERNEL_NONE = 139


def kernel_inputs():
    """Four hand-made cases, then 300 seeded random layers with random
    budgets, marks and obligatory pairs."""
    path = layer_from_edges(3, [(1, 2), (2, 3)])
    star = layer_from_edges(5, [(1, 2), (1, 3), (1, 4), (1, 5)])
    bridge = layer_from_edges(6, [(1, 3), (1, 4), (3, 4), (2, 5), (2, 6), (5, 6), (1, 2)])
    cases = [
        (path, -1, frozenset(), frozenset()),  # negative budget
        (path, 3, frozenset(), frozenset(all_pairs(3))),  # all-obligatory P3
        (star, 1, frozenset(), frozenset({(1, 2)})),  # the hit is obligatory
        (bridge, 3, frozenset({1}), frozenset()),  # the hit has a marked endpoint
    ]
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, 10)
        density = rng.random()
        g = layer_from_edges(n, [p for p in all_pairs(n) if rng.random() < density])
        oblig_rate = rng.choice((0.0, 0.1, 0.4))
        cases.append((g, rng.randint(-1, 5),
                      frozenset(v for v in range(1, n + 1) if rng.random() < 0.2),
                      frozenset(p for p in all_pairs(n) if rng.random() < oblig_rate)))
    return cases


def test_kernel_k_is_pinned():
    outputs = []
    for g, budget, marked, oblig in kernel_inputs():
        ctx = SearchContext(Instance("mlce", g.n, (g,), 0, 0))
        out = kernel_k(ctx, 0, 0, budget, vertex_mask(marked), ctx.pair_mask(oblig))
        outputs.append(None if out is None else
                       (sorted(ctx.pair_set(out[0])), sorted(ctx.pair_set(out[1]))))
    digest = hashlib.sha256(repr(outputs).encode()).hexdigest()[:16]
    assert (digest, outputs.count(None)) == (KERNEL_DIGEST, KERNEL_NONE)
    assert outputs[:4] == [None, None, None, ([], [])]
