"""Shared fixtures: the worked 5-vertex example and random-instance helpers."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from layeredit.core import Instance, LayerGraph, Solution, layer_from_edges, pair, replace

REF_LAYERS = (
    ((1, 2), (1, 3), (2, 3), (3, 4), (1, 4), (2, 4), (4, 5)),
    ((2, 3), (3, 4), (2, 4), (4, 5)),
    ((2, 3), (3, 4), (2, 4), (2, 5), (3, 5)),
)


def ref_instance(mode: str, k: int, d: int) -> Instance:
    layers = tuple(layer_from_edges(5, edges) for edges in REF_LAYERS)
    return Instance(mode, 5, layers, k, d)


def ref_tce_solution() -> Solution:
    # delete 4-5 in layers 1 and 2, add it in layer 3; marks 1 then 5
    e = frozenset({(4, 5)})
    return Solution((e, e, e), marked_per_gap=(frozenset({1}), frozenset({5})))


def ref_mlce_solution_k1_d2() -> Solution:
    e = frozenset({(4, 5)})
    return Solution((e, e, e), marked=frozenset({1, 5}))


def ref_mlce_solution_k3_d1() -> Solution:
    return Solution(
        (frozenset({(1, 5), (2, 5), (3, 5)}), frozenset({(2, 5), (3, 5)}),
         frozenset({(4, 5)})),
        marked=frozenset({1}))


def random_layers(rng: random.Random, n: int, ell: int,
                  density: float = 0.5) -> tuple[LayerGraph, ...]:
    layers = []
    for _ in range(ell):
        edges = [p for p in combinations(range(1, n + 1), 2) if rng.random() < density]
        layers.append(layer_from_edges(n, edges))
    return tuple(layers)


def random_instance(rng: random.Random, mode: str, max_n: int = 5, max_ell: int = 3,
                    max_k: int = 2, max_d: int = 2) -> Instance:
    n = rng.randint(2, max_n)
    ell = rng.randint(1, max_ell)
    k = rng.randint(0, max_k)
    d = rng.randint(0, max_d)
    return Instance(mode, n, random_layers(rng, n, ell), k, d)


def with_random_budgets(rng: random.Random, inst: Instance, low: int = 0) -> Instance:
    """The instance with each layer's budget drawn from low..k."""
    return replace(inst, budgets=tuple(rng.randint(low, inst.k) for _ in inst.layers))


def drifted_cluster_layers(rng: random.Random, n: int, ell: int, moves: int = 2,
                           noise: float = 0.3) -> tuple[LayerGraph, ...]:
    """ell cluster graphs that each move up to ``moves`` vertices of one
    random clustering, then, with probability ``noise``, toggle one random
    pair (which may make an induced P3)."""
    groups = rng.randint(1, n)
    base = [rng.randrange(groups) for _ in range(n + 1)]
    layers = []
    for _ in range(ell):
        label = list(base)
        for v in rng.sample(range(1, n + 1), min(n, rng.randint(0, moves))):
            label[v] = rng.randrange(groups + 1)
        edges = {(u, v) for u, v in combinations(range(1, n + 1), 2) if label[u] == label[v]}
        if rng.random() < noise:
            edges ^= {tuple(sorted(rng.sample(range(1, n + 1), 2)))}
        layers.append(layer_from_edges(n, edges))
    return tuple(layers)


def random_cluster_graph(rng: random.Random, n: int) -> LayerGraph:
    """Random cluster graph: random assignment of vertices to groups."""
    groups = rng.randint(1, n)
    assign = {v: rng.randrange(groups) for v in range(1, n + 1)}
    edges = [pair(u, v) for u, v in combinations(range(1, n + 1), 2)
             if assign[u] == assign[v]]
    return layer_from_edges(n, edges)


def has_edge(g: LayerGraph, u: int, v: int) -> bool:
    """Edge lookup in the layer's edge set, not its masks."""
    return pair(u, v) in g.edges


def consistent_after_removal(g1: LayerGraph, g2: LayerGraph, removed) -> bool:
    """Whether the two edge sets agree on every pair disjoint from ``removed``."""
    return all(u in removed or v in removed for u, v in g1.edges ^ g2.edges)


def cluster_labels(g: LayerGraph) -> tuple[int, ...]:
    """Each vertex's component in g, named by the component's smallest vertex."""
    label = {v: min(comp) for comp in g.components() for v in comp}
    return tuple(label[v] for v in range(1, g.n + 1))


def check_solution_independently(inst: Instance, sol: Solution) -> list[str]:
    """Re-derivation of the problem conditions, sharing no code with verify().

    Cluster recognition is by triple enumeration, consistency by explicit
    pair loops.
    """
    problems = []
    edited = []
    for g, m, k_i in zip(inst.layers, sol.edits, inst.edit_budgets):
        if len(m) > k_i:
            problems.append("edit budget")
        edge_set = set()
        for u, v in list(g.edges) + list(m):
            p = (min(u, v), max(u, v))
            if p in edge_set:
                edge_set.remove(p)
            else:
                edge_set.add(p)
        edited.append(edge_set)
    for es in edited:
        for a, b, c in combinations(range(1, inst.n + 1), 3):
            cnt = ((a, b) in es) + ((a, c) in es) + ((b, c) in es)
            if cnt == 2:
                problems.append("not a cluster graph")
                break
    if inst.mode == "mlce":
        dsets = [(i, j, sol.marked) for i in range(inst.ell) for j in range(inst.ell) if i < j]
        if len(sol.marked) > inst.d:
            problems.append("mark budget")
    else:
        dsets = [(i, i + 1, sol.marked_per_gap[i]) for i in range(inst.ell - 1)]
        if any(len(s) > inst.d for s in sol.marked_per_gap):
            problems.append("mark budget")
    for i, j, dset in dsets:
        for u, v in combinations(sorted(set(range(1, inst.n + 1)) - set(dset)), 2):
            if (((u, v) in edited[i]) != ((u, v) in edited[j])):
                problems.append("inconsistent")
                break
    return problems


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)
