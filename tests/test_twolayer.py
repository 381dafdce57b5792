import os
import subprocess
import sys
from collections import Counter
from itertools import combinations
from pathlib import Path

import layeredit
from layeredit import twolayer
from layeredit.core import layer_from_edges
from layeredit.twolayer import max_weight_matching, solve_two_layer_zero_edit

from conftest import cluster_labels, consistent_after_removal, random_cluster_graph


def clusters(n, *groups):
    edges = []
    for group in groups:
        edges.extend(combinations(sorted(group), 2))
    return layer_from_edges(n, edges)


def brute_force_min_marks(g1, g2):
    """Smallest D with agreement after removal, by subset enumeration."""
    n = g1.n
    for size in range(n + 1):
        for combo in combinations(range(1, n + 1), size):
            if consistent_after_removal(g1, g2, frozenset(combo)):
                return size
    raise AssertionError("removing everything always works")


def cell_weights(g1, g2):
    """Vertices per (left label, right label) cell of two cluster graphs."""
    return Counter(zip(cluster_labels(g1), cluster_labels(g2)))


class TestBuildGraph:
    def test_single_clique_both_sides(self):
        g = clusters(4, [1, 2, 3, 4])
        assert cluster_labels(g) == (1, 1, 1, 1)
        assert cell_weights(g, g) == {(1, 1): 4}

    def test_three_edge_example(self):
        g1 = clusters(3, [1, 2], [3])
        g2 = clusters(3, [1], [2, 3])
        assert cluster_labels(g1) == (1, 1, 3)
        assert cluster_labels(g2) == (1, 2, 2)
        assert cell_weights(g1, g2) == {(1, 1): 1, (1, 2): 1, (3, 2): 1}

    def test_all_singletons(self):
        g = clusters(5)
        weights = cell_weights(g, g)
        assert len(weights) == 5
        assert all(w == 1 for w in weights.values())

    def test_at_most_n_weighted_edges(self, rng):
        for _ in range(50):
            n = rng.randint(1, 7)
            weights = cell_weights(random_cluster_graph(rng, n), random_cluster_graph(rng, n))
            assert len(weights) <= n
            assert sum(weights.values()) == n


class TestMatching:
    def test_empty(self):
        g = clusters(1, [1])
        matching, weight = max_weight_matching(cell_weights(g, g))
        assert weight == 1 and matching == ((1, 1),)

    def test_three_edge_example_weight_two(self):
        g1 = clusters(3, [1, 2], [3])
        g2 = clusters(3, [1], [2, 3])
        matching, weight = max_weight_matching(cell_weights(g1, g2))
        assert weight == 2
        assert matching == ((1, 1), (3, 2))

    def test_single_heavy_pair(self):
        g = clusters(6, [1, 2, 3, 4, 5, 6])
        matching, weight = max_weight_matching(cell_weights(g, g))
        assert weight == 6

    def test_matches_exhaustive_matching(self, rng):
        for _ in range(80):
            n = rng.randint(1, 9)
            weights = cell_weights(random_cluster_graph(rng, n), random_cluster_graph(rng, n))
            _, weight = max_weight_matching(weights)
            assert weight == _best_matching_weight_brute(weights)

    def test_lexicographically_smallest_maximum_matching(self, rng):
        # small weights on few labels make many maximum-weight matchings tie
        for _ in range(300):
            labels = rng.randint(1, 4)
            weights = {(rng.randint(1, labels), rng.randint(1, labels)): rng.randint(1, 3)
                       for _ in range(rng.randint(1, 8))}
            matching, weight = max_weight_matching(weights)
            assert (list(matching), weight) == _smallest_max_matching_brute(weights)


def _best_matching_weight_brute(weights):
    edges = sorted(weights.items())
    best = 0
    for size in range(len(edges) + 1):
        for combo in combinations(edges, size):
            lefts = [e[0][0] for e in combo]
            rights = [e[0][1] for e in combo]
            if len(set(lefts)) == len(lefts) and len(set(rights)) == len(rights):
                best = max(best, sum(w for _, w in combo))
    return best


def _smallest_max_matching_brute(weights):
    """Among all maximum-weight matchings, the smallest sorted pair list."""
    best = (0, [])
    for size in range(len(weights) + 1):
        for combo in combinations(sorted(weights), size):
            if len({i for i, _ in combo}) == size == len({j for _, j in combo}):
                total = sum(weights[p] for p in combo)
                if total > best[0] or (total == best[0] and list(combo) < best[1]):
                    best = (total, list(combo))
    return best[1], best[0]


class TestSolveTwoLayer:
    def test_identical_layers_need_nothing(self):
        g = clusters(4, [1, 2], [3, 4])
        assert solve_two_layer_zero_edit(g, g, 0) == frozenset()

    def test_crossing_clusters_d1(self):
        g1 = clusters(3, [1, 2], [3])
        g2 = clusters(3, [1], [2, 3])
        d = solve_two_layer_zero_edit(g1, g2, 1)
        assert d is not None and len(d) == 1
        assert consistent_after_removal(g1, g2, d)

    def test_crossing_clusters_d0_fails(self):
        g1 = clusters(3, [1, 2], [3])
        g2 = clusters(3, [1], [2, 3])
        assert solve_two_layer_zero_edit(g1, g2, 0) is None

    def test_non_cluster_input_is_no(self):
        path = layer_from_edges(3, [(1, 2), (2, 3)])
        assert solve_two_layer_zero_edit(path, path, 3) is None

    def test_each_layer_tested_once(self, monkeypatch):
        tested = []
        real = twolayer.is_cluster_graph
        monkeypatch.setattr(twolayer, "is_cluster_graph", lambda g: tested.append(g) or real(g))
        g1 = clusters(3, [1, 2], [3])
        g2 = clusters(3, [1], [2, 3])
        assert solve_two_layer_zero_edit(g1, g2, 1) is not None
        assert tested == [g1, g2]

    def test_one_assignment_solve_per_witness(self, monkeypatch, rng):
        solves = []
        real = twolayer.linear_sum_assignment
        monkeypatch.setattr(twolayer, "linear_sum_assignment",
                            lambda weights: solves.append(weights) or real(weights))
        for _ in range(40):
            n = rng.randint(1, 9)
            g1, g2 = random_cluster_graph(rng, n), random_cluster_graph(rng, n)
            solves.clear()
            solve_two_layer_zero_edit(g1, g2, rng.randint(0, n))
            assert len(solves) == 1

    def test_against_subset_enumeration(self, rng):
        # decision and minimal mark count match brute force for every d
        for _ in range(300):
            n = rng.randint(1, 7)
            g1 = random_cluster_graph(rng, n)
            g2 = random_cluster_graph(rng, n)
            best = brute_force_min_marks(g1, g2)
            for d in range(n + 1):
                got = solve_two_layer_zero_edit(g1, g2, d)
                if d < best:
                    assert got is None
                else:
                    assert got is not None and len(got) == best
                    assert consistent_after_removal(g1, g2, got)

    def test_equals_the_matching_over_every_vertex(self, rng):
        # cells only for touched vertices give what one cell per vertex gave,
        # on random pairs and equal pairs, for every d
        for _ in range(300):
            n = rng.randint(1, 12)
            g1 = random_cluster_graph(rng, n)
            g2 = g1 if rng.random() < 0.2 else random_cluster_graph(rng, n)
            touched = {v for p in g1.edges ^ g2.edges for v in p}
            for d in range(n + 1):
                got = solve_two_layer_zero_edit(g1, g2, d)
                assert got == _solve_over_every_vertex(g1, g2, d)
                assert got is None or got <= touched

    def test_deterministic(self, rng):
        for _ in range(20):
            g1 = random_cluster_graph(rng, 6)
            g2 = random_cluster_graph(rng, 6)
            assert solve_two_layer_zero_edit(g1, g2, 3) == \
                solve_two_layer_zero_edit(g1, g2, 3)


def _solve_over_every_vertex(g1, g2, d):
    """The witness with one cell per vertex, as a reference."""
    cells = list(zip(cluster_labels(g1), cluster_labels(g2)))
    matching, weight = max_weight_matching(Counter(cells))
    if weight < g1.n - d:
        return None
    matched = set(matching)
    return frozenset(v for v, cell in enumerate(cells, start=1) if cell not in matched)


def test_import_loads_no_numeric_stack():
    src = str(Path(layeredit.__file__).resolve().parents[1])
    code = "import sys, layeredit; print(sorted({'numpy', 'scipy'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"

