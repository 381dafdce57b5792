"""Exact checks past the oracles' reach that need no oracle.

Every edit budget 0 sends ``solve_mlce`` to ``PairIndex.cover`` on the
pairs where the layers differ.  Its decisions are checked against the
brute-force ``Formula223.satisfiable`` on SAT reductions of 3-12
variables (n 24-96), and against the constraint search, run directly, on
P3-free instances of n 12-24; the cover routine itself is checked against
the oracle's separate cover branching on random masks with d up to 8.
Planted instances of n 40-100 are solved at the budgets their generator
stores, which it promises always suffice, and so are drift-2 instances of
n 40 whose noise the disagreement bound made affordable.  That bound is
checked against the search with it forced off: the decisions and solution
files must be the same.  A kernel, written to its file and read back with
its per-layer budgets, must be decided as its input is, at n 40-80.
"""

from __future__ import annotations

import random
from itertools import combinations

from layeredit import branching
from layeredit.branching import SearchContext, greedy_initial_constraint, solve_mlce
from layeredit.core import Instance, PairIndex, SearchStats, replace, verify
from layeredit.fileio import (
    Formula223,
    PlantedParams,
    generate_planted,
    generate_sat_reduction,
    parse_instance,
    serialize_instance,
    serialize_solution,
)
from layeredit.kernelize import kernelize
from layeredit.oracle import _cover_within as brute_force_cover
from layeredit.tcepath import solve_tce_xp

from conftest import drifted_cluster_layers


def random_formula(rng: random.Random, n_vars: int) -> Formula223:
    """A (2,2)-3-SAT formula: each variable twice positive and twice
    negative, in clauses of 2 or 3 literals over distinct variables."""
    literals = [v for v in range(1, n_vars + 1) for _ in range(2)]
    literals += [-lit for lit in literals]
    while True:
        rng.shuffle(literals)
        clauses, pos = [], 0
        while pos < len(literals):
            left = len(literals) - pos
            size = 2 if left in (2, 4) else 3 if left == 3 else rng.choice((2, 3))
            clauses.append(tuple(literals[pos:pos + size]))
            pos += size
        if all(len({abs(lit) for lit in c}) == len(c) for c in clauses):
            return Formula223(n_vars, tuple(clauses))


# variable count -> (satisfiable, unsatisfiable) formulas to draw; fewer
# large unsatisfiable ones, the costliest to solve and to brute-force
SAT_QUOTAS = {**{n: (5, 5) for n in range(3, 9)}, 9: (5, 4), 10: (5, 4), 11: (4, 3), 12: (3, 2)}


def test_sat_reductions_match_brute_force():
    rng = random.Random(23)
    solved = 0
    for n_vars, (yes, no) in SAT_QUOTAS.items():
        quota = {True: yes, False: no}
        while any(quota.values()):
            formula = random_formula(rng, n_vars)
            satisfiable = formula.satisfiable()
            if not quota[satisfiable]:
                continue
            quota[satisfiable] -= 1
            inst = generate_sat_reduction(formula)
            sol = solve_mlce(inst)
            assert (sol is not None) == satisfiable, formula
            if sol is not None:
                assert not any(sol.edits) and len(sol.marked) <= inst.d
                assert verify(inst, sol).ok
            solved += 1
    assert solved == 90


def test_cover_route_matches_the_constraint_search():
    rng = random.Random(24)
    answers, branched = {True: 0, False: 0}, 0
    for _ in range(80):
        n, ell = rng.randint(12, 24), rng.randint(2, 4)
        layers = drifted_cluster_layers(rng, n, ell, moves=rng.randint(2, 6), noise=0)
        inst = Instance("mlce", n, layers, 0, rng.randint(0, 8))
        stats = SearchStats()
        routed = solve_mlce(inst, stats=stats)
        ctx = SearchContext(inst)
        searched = ctx.run(greedy_initial_constraint(ctx), 0)
        assert (routed is None) == (searched is None)
        if routed is not None:
            assert verify(inst, routed).ok and not any(routed.edits)
        answers[routed is not None] += 1
        branched += stats.nodes > 1
    assert min(answers.values()) >= 20 and branched >= 20


def test_cover_matches_the_oracle_branching():
    rng = random.Random(25)
    inputs = []
    for _ in range(400):
        n = rng.randint(2, 11)
        pairs = rng.sample(list(combinations(range(1, n + 1), 2)),
                           rng.randint(0, min(18, n * (n - 1) // 2)))
        inputs.append((n, pairs, rng.randint(0, 8)))
    # K7 beside K_{2,11}: the smaller side, K7, needs 6 marks alone, so d = 5
    # fails on it before the other side is tried, and d = 8 covers both
    split = list(combinations(range(1, 8), 2)) + [(u, v) for u in (8, 9) for v in range(10, 21)]
    inputs += [(20, split, 5), (20, split, 8)]
    answers, branched, sizes = {True: 0, False: 0}, 0, []
    for n, pairs, d in inputs:
        index = PairIndex(n)
        stats = SearchStats()
        mask = index.pair_mask(pairs)
        cover = index.cover(mask, d, stats)
        assert (cover is None) == (brute_force_cover(frozenset(pairs), d) is None), (pairs, d)
        if cover is not None:
            assert cover.bit_count() <= d and not mask & ~index.touching_mask(cover)
        answers[cover is not None] += 1
        branched += stats.nodes > 1
        sizes.append(None if cover is None else cover.bit_count())
    assert min(answers.values()) >= 100 and branched >= 100 and sizes[-2:] == [None, 8]


def test_joined_formula_is_solved_part_by_part():
    # an unsatisfiable 3-variable formula beside a satisfiable 5-variable
    # one: the constraint search took 105,741 nodes (2.5 s), re-proving the
    # first part under every assignment of the second.  The cover solves
    # the two components apart in 190 nodes, and without the split in 487
    unsatisfiable = ((-3, 2), (-1, 2), (3, 1), (-2, 1), (-2, 3), (-3, -1))
    satisfiable = ((-4, 8, 5), (7, -6, 4), (-4, 8, 7), (-5, -8, 6), (-7, 4, 5), (-7, -8, 6),
                   (-6, -5))
    assert not Formula223(3, unsatisfiable).satisfiable()
    assert Formula223(5, tuple(tuple(lit - 3 if lit > 0 else lit + 3 for lit in c)
                               for c in satisfiable)).satisfiable()
    inst = generate_sat_reduction(Formula223(8, unsatisfiable + satisfiable))
    stats = SearchStats()
    assert solve_mlce(inst, stats=stats) is None
    assert stats.nodes < 300


def test_planted_instances_are_yes_at_their_stored_budgets():
    # k is the noise edits per layer and d the moved vertices (all of them in
    # mlce, the most at one gap in tce); every (mode, drift, noise) is drawn
    rng = random.Random(26)
    for i in range(24):
        mode, drift, noise = ("mlce", "tce")[i % 2], i // 2 % 3, i // 6 % 3
        n, ell = rng.randint(40, 100), rng.randint(2, 5)
        params = PlantedParams(n, ell, rng.randint(2, n // 2 + 1), drift, noise, i)
        inst = generate_planted(params, mode)
        sol = (solve_mlce if mode == "mlce" else solve_tce_xp)(inst)
        assert sol is not None and verify(inst, sol).ok, params


def drifted_planted(n: int, ell: int, noise: int, seed: int) -> Instance:
    """A planted mlce instance with 2 vertices moved per layer into n//3+1
    clusters, at its stored budgets."""
    return generate_planted(PlantedParams(n, ell, n // 3 + 1, 2, noise, seed), "mlce")


def bound_changes_no_solution(monkeypatch, bound: str) -> None:
    """The search with ``branching.<bound>`` forced to False finds the same
    solution files, on drifted instances at the stored budgets and with one
    mark fewer (both answers occur).  The bound only cuts subtrees, so the
    search with it enters no node that the search without it does not."""
    instances = [replace(inst, d=inst.d - fewer)
                 for inst in (drifted_planted(30, 4, 4, seed) for seed in range(8))
                 for fewer in (0, 1)]

    def solve_all():
        runs = []
        for inst in instances:
            stats = SearchStats()
            runs.append((serialize_solution(solve_mlce(inst, stats=stats), inst), stats.nodes))
        return runs

    bounded = solve_all()
    monkeypatch.setattr(branching, bound, lambda *args: False)
    unbounded = solve_all()
    assert [text for text, _ in bounded] == [text for text, _ in unbounded]
    assert all(on <= off for (_, on), (_, off) in zip(bounded, unbounded))
    assert sum(on for _, on in bounded) < sum(off for _, off in unbounded)
    assert {text.split()[3] for text, _ in bounded} == {"yes", "no"}


def test_disagreement_bound_changes_no_solution(monkeypatch):
    bound_changes_no_solution(monkeypatch, "disagreement_rejects")


def test_frozen_edit_bound_changes_no_solution(monkeypatch):
    bound_changes_no_solution(monkeypatch, "bound_rejects")


def test_drifted_planted_instances_are_yes_at_their_stored_budgets():
    for seed in range(8):
        inst = drifted_planted(40, 5, 6, seed)
        sol = solve_mlce(inst)
        assert sol is not None and verify(inst, sol).ok, seed


def test_written_kernels_decide_as_their_inputs():
    # drift 1, k = noise, d at the stored value or one below; both modes
    rng = random.Random(32)
    answers, per_layer = set(), 0
    for i in range(100):
        mode, solve = (("mlce", solve_mlce), ("tce", solve_tce_xp))[i % 2]
        n, noise = rng.randint(40, 80), rng.randint(1, 3)
        params = PlantedParams(n, rng.randint(2, 4), rng.randint(n // 4, n // 2), 1, noise, i)
        inst = generate_planted(params, mode)
        inst = replace(inst, d=inst.d - i // 2 % 2)
        result = kernelize(inst)
        if result.is_no:
            kernel_yes = False
        else:
            kernel = parse_instance(serialize_instance(result.reduced))
            per_layer += bool(kernel.budgets)
            sol = solve(kernel)
            assert sol is None or verify(kernel, sol).ok
            kernel_yes = sol is not None
        assert (solve(inst) is not None) == kernel_yes, (mode, params, inst.d)
        answers.add(kernel_yes)
    assert answers == {True, False} and per_layer >= 50
