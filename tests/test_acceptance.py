"""Acceptance suite: one test per criterion, printing one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
"""

import random
import time
import zlib
from itertools import combinations, combinations_with_replacement

import pytest

from layeredit.branching import SearchStats, solve_mlce
from layeredit.core import Instance, layer_from_edges, verify
from layeredit.fileio import Formula223, generate_sat_reduction
from layeredit.kernelize import kernelize
from layeredit.oracle import oracle_mlce, oracle_tce, structured_mlce
from layeredit.tcepath import solve_tce_xp
from layeredit.twolayer import solve_two_layer_zero_edit

from conftest import consistent_after_removal, ref_instance, random_cluster_graph, random_layers


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


REF_EXPECTATIONS = [
    ("tce", 1, 1, True),
    ("tce", 0, 3, False),
    ("tce", 3, 0, False),
    ("mlce", 3, 1, True),
    ("mlce", 1, 2, True),
    ("mlce", 0, 1, False),
    ("mlce", 2, 0, False),
]


def test_criterion_1_reference_fixture_suite():
    start = time.monotonic()
    failures = []
    for mode, k, d, want in REF_EXPECTATIONS:
        inst = ref_instance(mode, k, d)
        if mode == "mlce":
            solvers = {"branch": solve_mlce, "oracle": oracle_mlce,
                       "structured": structured_mlce}
        else:
            solvers = {"xp": solve_tce_xp, "oracle": oracle_tce}
        for name, solver in solvers.items():
            sol = solver(inst)
            if (sol is not None) != want:
                failures.append(f"{mode}(k={k},d={d}) via {name}")
            if sol is not None and not verify(inst, sol).ok:
                failures.append(f"{mode}(k={k},d={d}) via {name}: bad solution")
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 5.0
    report(1, ok, f"7 decisions x all solvers in {elapsed:.2f}s"
           + (f"; failures: {failures}" if failures else ""))


def _mlce_sweep(count: int = 300, seed: int = 20_240_601):
    """Instrumented multi-layer sweep shared by criteria 2 and 6."""
    rng = random.Random(seed)
    records = []
    for _ in range(count):
        n = rng.randint(2, 5)
        ell = rng.randint(1, 3)
        k = rng.randint(0, 2)
        d = rng.randint(0, 2)
        inst = Instance("mlce", n, random_layers(rng, n, ell,
                                                 density=rng.choice([0.3, 0.5, 0.7])), k, d)
        stats = SearchStats()
        sol = solve_mlce(inst, check_invariants=True, stats=stats)
        records.append((inst, sol, stats))
    return records


@pytest.fixture(scope="module")
def mlce_sweep():
    return _mlce_sweep()


def test_criterion_2_cross_solver_equivalence(mlce_sweep):
    start = time.monotonic()
    mismatches = []
    checked = 0
    for inst, sol, _ in mlce_sweep:
        want = oracle_mlce(inst)
        second = structured_mlce(inst)
        if not ((sol is None) == (want is None) == (second is None)):
            mismatches.append(inst)
        for candidate in (sol, want, second):
            if candidate is not None and not verify(inst, candidate).ok:
                mismatches.append(inst)
        checked += 1

    rng = random.Random(20_240_602)
    for _ in range(220):
        n = rng.randint(2, 5)
        ell = rng.randint(1, 4)
        k = rng.randint(0, 2)
        d = rng.randint(0, 2)
        inst = Instance("tce", n, random_layers(rng, n, ell,
                                                density=rng.choice([0.3, 0.5, 0.7])), k, d)
        got = solve_tce_xp(inst)
        want = oracle_tce(inst)
        if (got is None) != (want is None):
            mismatches.append(inst)
        for candidate in (got, want):
            if candidate is not None and not verify(inst, candidate).ok:
                mismatches.append(inst)
        checked += 1
    elapsed = time.monotonic() - start
    ok = not mismatches and checked >= 500 and elapsed < 600
    report(2, ok, f"{checked} instances, {len(mismatches)} mismatches, {elapsed:.1f}s")


def test_criterion_3_kernel_soundness():
    mismatches = 0
    bound_violations = 0
    checked = {"mlce": 0, "tce": 0}
    for mode in ("mlce", "tce"):
        oracle = oracle_mlce if mode == "mlce" else oracle_tce
        rng = random.Random(zlib.crc32(mode.encode()))  # the same in every process
        while checked[mode] < 210:
            n = rng.randint(2, 5)
            ell = rng.randint(1, 3)
            k = rng.randint(0, 2)
            if mode == "tce" and k == 2:
                n = min(n, 4)  # keep the reduced instance inside oracle reach
            d = rng.randint(0, 2)
            inst = Instance(mode, n, random_layers(rng, n, ell,
                                                   density=rng.choice([0.3, 0.5, 0.8])), k, d)
            checked[mode] += 1
            before = oracle(inst) is not None
            result = kernelize(inst)
            if result.is_no:
                if before:
                    mismatches += 1
                continue
            reduced = result.reduced
            after = oracle(reduced) is not None
            if before != after:
                mismatches += 1
            rk = reduced.k
            deff = reduced.d * (reduced.ell if mode == "tce" else 1)
            bound = reduced.ell * (rk * rk + 2 * rk + deff * (rk + 2 * deff + 2) + 2 * rk)
            if reduced.n > bound + 2 * rk + 2:
                bound_violations += 1
    ok = mismatches == 0 and bound_violations == 0
    report(3, ok, f"{checked['mlce']}+{checked['tce']} instances, "
                  f"{mismatches} decision mismatches, {bound_violations} bound violations")


def test_criterion_4_two_layer_matches_brute_force():
    rng = random.Random(20_240_604)
    mismatches = 0
    pairs = 0
    while pairs < 1000:
        n = rng.randint(1, 6)
        g1 = random_cluster_graph(rng, n)
        g2 = random_cluster_graph(rng, n)
        pairs += 1
        best = None
        for size in range(n + 1):
            for combo in combinations(range(1, n + 1), size):
                if consistent_after_removal(g1, g2, frozenset(combo)):
                    best = size
                    break
            if best is not None:
                break
        for d in range(n + 1):
            got = solve_two_layer_zero_edit(g1, g2, d)
            if d < best:
                if got is not None:
                    mismatches += 1
            elif got is None or len(got) != best or \
                    not consistent_after_removal(g1, g2, got):
                mismatches += 1
    ok = mismatches == 0
    report(4, ok, f"{pairs} cluster-graph pairs, every d, {mismatches} mismatches")


def all_223_formulas(n_vars: int):
    """Every (2,2)-3-SAT formula on exactly n_vars variables, canonically:
    clauses as sorted literal tuples, formulas as sorted clause multisets."""
    lits = [i for i in range(1, n_vars + 1)] + [-i for i in range(1, n_vars + 1)]
    clauses = sorted({tuple(sorted(c))
                      for size in (2, 3)
                      for c in combinations_with_replacement(lits, size)
                      if all(c.count(l) <= 2 for l in set(c))})
    out = []

    def rec(start, remaining, acc):
        if all(v == 0 for v in remaining.values()):
            out.append(tuple(acc))
            return
        for ci in range(start, len(clauses)):
            clause = clauses[ci]
            if all(remaining[l] >= clause.count(l) for l in set(clause)):
                for l in set(clause):
                    remaining[l] -= clause.count(l)
                acc.append(clause)
                rec(ci, remaining, acc)
                acc.pop()
                for l in set(clause):
                    remaining[l] += clause.count(l)

    rec(0, {l: 2 for l in lits}, [])
    return out


def test_criterion_5_sat_reduction():
    three_var = Formula223(3, ((1, -2, 3), (-1, -2, -3), (1, 2, -3), (-1, 2, 3)))
    inst = generate_sat_reduction(three_var)
    shape_ok = inst.d == 14 and inst.n == 24
    mismatches = 0
    total = 0
    for n_vars in (1, 2, 3):
        for clauses in all_223_formulas(n_vars):
            formula = Formula223(n_vars, clauses)
            reduction = generate_sat_reduction(formula)
            total += 1
            if (oracle_mlce(reduction) is not None) != formula.satisfiable():
                mismatches += 1
    ok = shape_ok and mismatches == 0
    report(5, ok, f"reference formula shape d={inst.d} n={inst.n}; "
                  f"{total} formulas, {mismatches} mismatches")


def test_criterion_6_branching_invariants(mlce_sweep):
    # every sweep run already executed with invariant checking enabled
    # (aligning children, parent extension, strictly increasing quality,
    # loose-edit spread); here the observed depth bound is asserted too
    worst = []
    for inst, _, stats in mlce_sweep:
        limit = 2 * inst.k + inst.d + 1
        if stats.max_depth > limit:
            worst.append((inst.k, inst.d, stats.max_depth))
    ok = not worst and len(mlce_sweep) >= 300
    report(6, ok, f"{len(mlce_sweep)} instrumented searches, "
                  f"depth bound 2k+d+1 {'held' if ok else f'violated: {worst[:3]}'}")


def test_criterion_7_non_minimal_enumeration_regression():
    # the only solution splits the two complete cliques of layer 1, which a
    # minimal-only enumeration would never propose
    g1 = layer_from_edges(4, [(1, 2), (3, 4)])
    g2 = layer_from_edges(4, [(1, 3), (2, 4)])
    inst = Instance("tce", 4, (g1, g2), 2, 0)
    sol = solve_tce_xp(inst)
    ok = sol is not None and verify(inst, sol).ok and \
        sol.edits[0] == frozenset({(1, 2), (3, 4)})
    report(7, ok, "clique-splitting 2-layer instance answered yes"
           if ok else "non-minimal edit sets are missing from the search")
