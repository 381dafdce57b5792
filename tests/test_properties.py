"""Property tests that need no oracle, on planted-style inputs past its reach.

At ell = 2 a multi-layer and a temporal instance ask the same question (one
mark set for the one pair of layers), so ``solve_mlce`` and
``solve_tce_xp`` must agree; at ell = 1 both are plain cluster editing,
whatever the mark budget; renaming the vertices changes neither decision;
more budget in one layer, or more marks, never turns a yes into a no; a
temporal instance read backwards has the same answer; and instance and
solution files read back as what was written.  At n 20-40, relabelling and
more budget are checked for both solvers, reversal for ``solve_tce_xp``,
and any order of the layers for ``solve_mlce``, which treats them alike
while its greedy root and its rules 1-3 read them in order.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from layeredit.branching import solve_mlce
from layeredit.core import MODES, Instance, LayerGraph, Solution, all_pairs, pair
from layeredit.fileio import (
    PlantedParams,
    generate_planted,
    parse_instance,
    parse_solution,
    serialize_instance,
    serialize_solution,
)
from layeredit.tcepath import solve_tce_xp


@st.composite
def planted_two_layers(draw, min_n=5, max_n=12, max_k=2, max_noise=2):
    """Two layers of a planted instance, n <= 12 by default, with budgets
    drawn around the planted ones so that both answers occur."""
    n = draw(st.integers(min_n, max_n))
    params = PlantedParams(n=n, ell=2, cluster_count=draw(st.integers(1, n)),
                           drift_per_layer=draw(st.integers(0, 2)),
                           noise_edits=draw(st.integers(0, max_noise)),
                           seed=draw(st.integers(0, 2**16)))
    layers = generate_planted(params, "mlce").layers
    return n, layers, draw(st.integers(0, max_k)), draw(st.integers(0, 2))


def decisions(n, layers, k, d):
    mlce = solve_mlce(Instance("mlce", n, layers, k, d)) is not None
    tce = solve_tce_xp(Instance("tce", n, layers, k, d)) is not None
    return mlce, tce


@settings(derandomize=True, deadline=None, max_examples=200)
@given(planted_two_layers())
def test_mlce_and_tce_agree_at_two_layers(case):
    mlce, tce = decisions(*case)
    assert mlce == tce


@settings(derandomize=True, deadline=None, max_examples=60)
@given(planted_two_layers(min_n=15, max_n=30, max_k=3, max_noise=3))
def test_mlce_and_tce_agree_at_two_layers_past_the_oracles(case):
    mlce, tce = decisions(*case)
    assert mlce == tce


def relabelled(n, layers, perm):
    """The layers with vertex v renamed perm[v - 1]."""
    return tuple(LayerGraph(n, frozenset(pair(perm[u - 1], perm[v - 1]) for u, v in g.edges))
                 for g in layers)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(planted_two_layers(), st.data())
def test_decisions_survive_relabelling(case, data):
    n, layers, k, d = case
    renamed = relabelled(n, layers, data.draw(st.permutations(range(1, n + 1))))
    assert decisions(n, renamed, k, d) == decisions(n, layers, k, d)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.integers(5, 12), st.integers(1, 12), st.integers(0, 2), st.integers(0, 2**16),
       st.integers(0, 2), st.integers(0, 3))
def test_mlce_and_tce_agree_at_one_layer(n, clusters, noise, seed, k, d):
    params = PlantedParams(n=n, ell=1, cluster_count=min(clusters, n), noise_edits=noise,
                           seed=seed)
    mlce, tce = decisions(n, generate_planted(params, "mlce").layers, k, d)
    assert mlce == tce


@st.composite
def planted_layers(draw, max_ell):
    """2..max_ell layers of a planted instance, n <= 10, with one edit
    budget per layer and a mark budget drawn so that both answers occur."""
    n = draw(st.integers(5, 10))
    ell = draw(st.integers(2, max_ell))
    params = PlantedParams(n=n, ell=ell, cluster_count=draw(st.integers(1, n)),
                           drift_per_layer=draw(st.integers(0, 2)),
                           noise_edits=draw(st.integers(0, 2)),
                           seed=draw(st.integers(0, 2**16)))
    budgets = tuple(draw(st.integers(0, 2)) for _ in range(ell))
    return n, generate_planted(params, "mlce").layers, budgets, draw(st.integers(0, 2))


def budgeted(mode, n, layers, budgets, d):
    return Instance(mode, n, layers, max(budgets), d, budgets=budgets)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(planted_layers(max_ell=3), st.data())
def test_more_budget_never_turns_yes_into_no(case, data):
    n, layers, budgets, d = case
    i = data.draw(st.integers(0, len(layers) - 1))
    raised = budgets[:i] + (budgets[i] + 1,) + budgets[i + 1:]
    for mode, solve in (("mlce", solve_mlce), ("tce", solve_tce_xp)):
        if solve(budgeted(mode, n, layers, budgets, d)) is not None:
            assert solve(budgeted(mode, n, layers, raised, d)) is not None
            assert solve(budgeted(mode, n, layers, budgets, d + 1)) is not None


@settings(derandomize=True, deadline=None, max_examples=100)
@given(planted_layers(max_ell=4))
def test_tce_decision_survives_reversing_the_layers(case):
    n, layers, budgets, d = case
    forward = solve_tce_xp(budgeted("tce", n, layers, budgets, d)) is not None
    backward = solve_tce_xp(budgeted("tce", n, layers[::-1], budgets[::-1], d)) is not None
    assert forward == backward


@st.composite
def larger_planted_layers(draw, max_k=3, max_d=2):
    """2..4 layers of a planted instance on 20..40 vertices, one edit budget
    of 1..max_k per layer and a mark budget of 0..max_d.  The clusters hold
    two to four vertices on average: a layer of mostly singletons has a part
    of thousands of edit sets at k = 3, and a d > 0 sweep between two such
    parts takes seconds."""
    n = draw(st.integers(20, 40))
    ell = draw(st.integers(2, 4))
    params = PlantedParams(n=n, ell=ell, cluster_count=draw(st.integers(n // 4, n // 2)),
                           drift_per_layer=draw(st.integers(0, 2)),
                           noise_edits=draw(st.integers(0, 2)),
                           seed=draw(st.integers(0, 2**16)))
    budgets = tuple(draw(st.integers(1, max_k)) for _ in range(ell))
    return n, generate_planted(params, "tce").layers, budgets, draw(st.integers(0, max_d))


def tce_decision(n, layers, budgets, d):
    return solve_tce_xp(budgeted("tce", n, layers, budgets, d)) is not None


@settings(derandomize=True, deadline=None, max_examples=100)
@given(larger_planted_layers(), st.data())
def test_tce_decision_survives_relabelling_past_the_oracles(case, data):
    n, layers, budgets, d = case
    renamed = relabelled(n, layers, data.draw(st.permutations(range(1, n + 1))))
    assert tce_decision(n, renamed, budgets, d) == tce_decision(n, layers, budgets, d)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(larger_planted_layers(max_k=2, max_d=1), st.data())
def test_more_tce_budget_never_turns_yes_into_no_past_the_oracles(case, data):
    n, layers, budgets, d = case
    if tce_decision(n, layers, budgets, d):
        i = data.draw(st.integers(0, len(layers) - 1))
        raised = budgets[:i] + (budgets[i] + 1,) + budgets[i + 1:]
        assert tce_decision(n, layers, raised, d)
        assert tce_decision(n, layers, budgets, d + 1)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(larger_planted_layers())
def test_tce_decision_survives_reversing_the_layers_past_the_oracles(case):
    n, layers, budgets, d = case
    assert tce_decision(n, layers, budgets, d) == tce_decision(n, layers[::-1], budgets[::-1], d)


def mlce_decision(n, layers, budgets, d):
    return solve_mlce(budgeted("mlce", n, layers, budgets, d)) is not None


@settings(derandomize=True, deadline=None, max_examples=100)
@given(larger_planted_layers(), st.data())
def test_mlce_decision_survives_relabelling_past_the_oracles(case, data):
    n, layers, budgets, d = case
    renamed = relabelled(n, layers, data.draw(st.permutations(range(1, n + 1))))
    assert mlce_decision(n, renamed, budgets, d) == mlce_decision(n, layers, budgets, d)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(larger_planted_layers(), st.data())
def test_mlce_decision_survives_reordering_the_layers_past_the_oracles(case, data):
    n, layers, budgets, d = case
    order = data.draw(st.permutations(range(len(layers))))
    reordered = tuple(layers[i] for i in order), tuple(budgets[i] for i in order)
    assert mlce_decision(n, *reordered, d) == mlce_decision(n, layers, budgets, d)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(larger_planted_layers(max_k=2, max_d=1), st.data())
def test_more_mlce_budget_never_turns_yes_into_no_past_the_oracles(case, data):
    n, layers, budgets, d = case
    if mlce_decision(n, layers, budgets, d):
        i = data.draw(st.integers(0, len(layers) - 1))
        raised = budgets[:i] + (budgets[i] + 1,) + budgets[i + 1:]
        assert mlce_decision(n, layers, raised, d)
        assert mlce_decision(n, layers, budgets, d + 1)


@st.composite
def instances(draw):
    """Any uniform-budget instance with n <= 8 and ell <= 4."""
    n = draw(st.integers(1, 8))
    pairs = all_pairs(n)
    layers = tuple(LayerGraph(n, frozenset(draw(st.sets(st.sampled_from(pairs)))
                                           if pairs else ()))
                   for _ in range(draw(st.integers(1, 4))))
    return Instance(draw(st.sampled_from(MODES)), n, layers,
                    draw(st.integers(0, 5)), draw(st.integers(0, 5)))


@st.composite
def instances_with_solutions(draw):
    """An instance and any solution of its shape (valid or not), or None."""
    inst = draw(instances())
    if draw(st.booleans()):
        return inst, None
    pairs, vertices = all_pairs(inst.n), st.integers(1, inst.n)
    edits = tuple(frozenset(draw(st.sets(st.sampled_from(pairs))) if pairs else ())
                  for _ in range(inst.ell))
    if inst.mode == "mlce":
        return inst, Solution(edits, marked=frozenset(draw(st.sets(vertices))))
    gaps = tuple(frozenset(draw(st.sets(vertices))) for _ in range(inst.ell - 1))
    return inst, Solution(edits, marked_per_gap=gaps)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(instances())
def test_instance_files_round_trip(inst):
    assert parse_instance(serialize_instance(inst)) == inst


@settings(derandomize=True, deadline=None, max_examples=100)
@given(instances_with_solutions())
def test_solution_files_round_trip(case):
    inst, sol = case
    assert parse_solution(serialize_solution(sol, inst), inst) == sol
