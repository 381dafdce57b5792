"""Property tests that need no oracle, on planted-style inputs past its reach.

At ell = 2 a multi-layer and a temporal instance ask the same question (one
mark set for the one pair of layers), so ``solve_mlce`` and
``solve_tce_xp`` must agree; and renaming the vertices changes neither
decision.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from layeredit.branching import solve_mlce
from layeredit.core import Instance, LayerGraph, pair
from layeredit.fileio import PlantedParams, generate_planted
from layeredit.tcepath import solve_tce_xp


@st.composite
def planted_two_layers(draw):
    """Two layers of a planted instance, n <= 12, with budgets drawn around
    the planted ones so that both answers occur."""
    n = draw(st.integers(5, 12))
    params = PlantedParams(n=n, ell=2, cluster_count=draw(st.integers(1, n)),
                           drift_per_layer=draw(st.integers(0, 2)),
                           noise_edits=draw(st.integers(0, 2)),
                           seed=draw(st.integers(0, 2**16)))
    layers = generate_planted(params, "mlce").layers
    return n, layers, draw(st.integers(0, 2)), draw(st.integers(0, 2))


def decisions(n, layers, k, d):
    mlce = solve_mlce(Instance("mlce", n, layers, k, d)) is not None
    tce = solve_tce_xp(Instance("tce", n, layers, k, d)) is not None
    return mlce, tce


@settings(derandomize=True, deadline=None, max_examples=200)
@given(planted_two_layers())
def test_mlce_and_tce_agree_at_two_layers(case):
    mlce, tce = decisions(*case)
    assert mlce == tce


@settings(derandomize=True, deadline=None, max_examples=100)
@given(planted_two_layers(), st.data())
def test_decisions_survive_relabelling(case, data):
    n, layers, k, d = case
    perm = data.draw(st.permutations(range(1, n + 1)))
    renamed = tuple(LayerGraph(n, frozenset(pair(perm[u - 1], perm[v - 1]) for u, v in g.edges))
                    for g in layers)
    assert decisions(n, renamed, k, d) == decisions(n, layers, k, d)
