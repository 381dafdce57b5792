from collections import Counter
from hashlib import sha256
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layeredit.core import (CapabilityError, Instance, InputError, PairIndex, SearchStats,
                            Solution, apply_edits, is_cluster_graph, layer_from_edges, pair,
                            replace, verify)
from layeredit.fileio import PlantedParams, generate_planted, serialize_solution
from layeredit.oracle import _cluster_editing_sets as brute_force_editing_sets, oracle_tce
from layeredit.oracle import _cover_within as brute_force_cover
from layeredit import tcepath
from layeredit.tcepath import enumerate_cluster_editing_sets, enumerate_edit_masks, solve_tce_xp
from layeredit.twolayer import solve_two_layer_zero_edit

from conftest import (cluster_labels, random_cluster_graph, ref_instance, random_instance,
                      random_layers)


def graph_of(labels):
    """The cluster graph on 1..n whose clusters are the vertices sharing a label."""
    n = len(labels)
    return layer_from_edges(n, [(u, v) for u, v in combinations(range(1, n + 1), 2)
                                if labels[u - 1] == labels[v - 1]])


def relabelled(inst, perm):
    """The instance with vertex v renamed perm[v]."""
    layers = tuple(layer_from_edges(inst.n, [pair(perm[u], perm[v]) for u, v in g.edges])
                   for g in inst.layers)
    return replace(inst, layers=layers)


def reference_xp(inst):
    """solve_tce_xp's sweep written out plainly: every check is a full
    two-layer solve on rebuilt graphs, and the first reachable
    predecessor wins."""
    parts = [enumerate_cluster_editing_sets(g, inst.k) for g in inst.layers]
    graphs = [[apply_edits(g, m) for m in part] for g, part in zip(inst.layers, parts)]
    reachable = list(range(len(parts[0])))
    predecessors = [[None] * len(parts[0])]
    for i in range(1, inst.ell):
        preds = [next((j for j in reachable
                       if solve_two_layer_zero_edit(graphs[i - 1][j], g, inst.d) is not None),
                      None)
                 for g in graphs[i]]
        predecessors.append(preds)
        reachable = [j for j, p in enumerate(preds) if p is not None]
    if not reachable:
        return None
    path = [reachable[0]]
    for i in range(inst.ell - 1, 0, -1):
        path.append(predecessors[i][path[-1]])
    path.reverse()
    edits = tuple(part[j] for part, j in zip(parts, path))
    edited = [apply_edits(g, m) for g, m in zip(inst.layers, edits)]
    marks = tuple(solve_two_layer_zero_edit(a, b, inst.d) for a, b in zip(edited, edited[1:]))
    return Solution(edits, marked_per_gap=marks)


class TestEnumeration:
    def test_cluster_graph_at_zero(self):
        g = layer_from_edges(4, [(1, 2)])
        assert enumerate_cluster_editing_sets(g, 0) == [frozenset()]

    def test_p3_at_one(self):
        g = layer_from_edges(3, [(1, 2), (2, 3)])
        sets = enumerate_cluster_editing_sets(g, 1)
        assert set(sets) == {frozenset({(1, 2)}), frozenset({(2, 3)}),
                             frozenset({(1, 3)})}
        as_lists = [tuple(sorted(m)) for m in sets]
        assert as_lists == sorted(as_lists)

    def test_triangle_at_one(self):
        g = layer_from_edges(3, [(1, 2), (1, 3), (2, 3)])
        assert enumerate_cluster_editing_sets(g, 1) == [frozenset()]

    def test_completeness_against_bitmask_enumeration(self, rng):
        for _ in range(40):
            n = rng.randint(2, 5)
            k = rng.randint(0, 2)
            g = random_layers(rng, n, 1)[0]
            got = set(enumerate_cluster_editing_sets(g, k))
            pairs = list(combinations(range(1, n + 1), 2))
            expect = set()
            for mask in range(1 << len(pairs)):
                if bin(mask).count("1") > k:
                    continue
                m = frozenset(p for i, p in enumerate(pairs) if mask >> i & 1)
                if is_cluster_graph(apply_edits(g, m)):
                    expect.add(m)
            assert got == expect

    def test_part_size_sanity_bound(self, rng):
        for _ in range(20):
            n = rng.randint(2, 5)
            k = rng.randint(0, 2)
            g = random_layers(rng, n, 1)[0]
            bound = sum(comb(comb(n, 2), j) for j in range(k + 1))
            assert len(enumerate_cluster_editing_sets(g, k)) <= bound

    def test_includes_non_minimal_sets(self):
        # two complete cliques: merging them is a valid (non-minimal) set
        g = layer_from_edges(4, [(1, 2), (3, 4)])
        sets = enumerate_cluster_editing_sets(g, 4)
        assert frozenset({(1, 3), (1, 4), (2, 3), (2, 4)}) in sets


    def test_same_list_as_the_oracle_brute_force(self, rng):
        for _ in range(300):
            n = rng.randint(1, 8)
            k = rng.randint(0, 3)
            g = random_layers(rng, n, 1, density=rng.choice((0.2, 0.5, 0.8)))[0]
            assert enumerate_cluster_editing_sets(g, k) == brute_force_editing_sets(g, k)

    def test_budget_above_all_pairs(self):
        g = layer_from_edges(3, [(1, 2)])
        sets = enumerate_cluster_editing_sets(g, 10)
        # all five partitions of three vertices are reachable
        assert len(sets) == 5
        assert sets == brute_force_editing_sets(g, 3)

    def test_single_vertex(self):
        g = layer_from_edges(1, [])
        assert enumerate_cluster_editing_sets(g, 0) == [frozenset()]
        assert enumerate_cluster_editing_sets(g, 3) == [frozenset()]

    def test_negative_budget_rejected(self):
        with pytest.raises(InputError):
            enumerate_cluster_editing_sets(layer_from_edges(2, []), -1)

    def test_large_cluster_graph_at_zero_needs_no_deep_recursion(self, rng):
        g = random_cluster_graph(rng, 2000)
        assert enumerate_cluster_editing_sets(g, 0) == [frozenset()]

    def test_past_the_pair_table_limit(self):
        # triangles on every vertex but a P3 1 - 300 - 600, whose pairs sit
        # in the first, a middle and (with 600) the last row of pair bits
        rest = [v for v in range(2, 600) if v != 300]
        edges = [(1, 300), (300, 600)] + [p for i in range(0, len(rest), 3)
                                          for p in combinations(rest[i:i + 3], 2)]
        g = layer_from_edges(600, edges)
        with pytest.raises(CapabilityError):
            PairIndex(600)
        assert enumerate_cluster_editing_sets(g, 1) == [
            frozenset({(1, 300)}), frozenset({(1, 600)}), frozenset({(300, 600)})]


def renamed_sets(sets, perm):
    """Edit sets with vertex v renamed perm[v], in the enumerator's order."""
    return [frozenset(t) for t in sorted(tuple(sorted(pair(perm[u], perm[v]) for u, v in m))
                                         for m in sets)]


# Part sizes and sha256 of repr([sorted(m) for m in part]) of each layer of
# generate_planted(PlantedParams(n, ell, n // 2 + 1, 1, 1, seed), "tce"),
# computed by placing the vertices in 1..n order, so they do not rest on the
# degree order.
PINNED_PARTS = {
    (20, 4, 4, 0): ([892, 443, 415, 483], [
        "3d15e8e6153adae13b963603342e958a8b08f3cc5b6d82d527ec128785998622",
        "c38777dd037ffb5eb049a2e395a6a6654aafb1c1b7421eaca4010f0cd17ff38c",
        "2a2c6a463fac8e22e8c2432cef79dc8fb692be7a954bad984f3ec467a37ce404",
        "361b903ee0be74f1c3e1063f188892e4df78716efbcbfd518c32cb6361045060"]),
    (60, 3, 3, 0): ([1051, 841, 898], [
        "2392654f54a2d1e143fe8e05ce67401e6886c57d6459170a2ab9a405a029ee47",
        "653191d4c7829146340e563244ea7162454a208a567d5cb1327def8849b90dfb",
        "11a547aaf18e0086a1f035b85512c57337d70ff4d67703142b9728a12efb55db"]),
    (60, 3, 3, 1): ([905, 770, 970], [
        "fc3f594467b297f72cd1ce349303688191b13698db31ec1a2cd5da1c06bfa0e7",
        "0e0b8a9c2c5bf1f633f443e337deb81cedc9ce3b8dd2983b675353b5a33dd029",
        "7475119bb8812ee32fac0721c090ae06305ff2d151fa13c433f1723c4facd2ce"]),
}


# Answer, stats.nodes and the first 16 hex digits of the sha256 of the
# solution file of solve_tce_xp on
# replace(generate_planted(PlantedParams(n, ell, n // 2 + 1, drift, 1, seed),
# "tce"), k=k, d=d), past the reference sweep's n <= 10.  Every no file is
# the same "answer no" file.
PINNED_SOLVES = {
    (16, 3, 3, 0, 0, 0): ("yes", 265, "f10b0677df06b691"),
    (16, 3, 3, 1, 1, 0): ("yes", 225, "8b3039fd05047712"),
    (20, 4, 3, 3, 4, 0): ("yes", 1085, "c76670f45e198e9b"),
    (20, 4, 4, 2, 2, 0): ("yes", 1876, "b937e101a799295e"),
    (24, 4, 3, 2, 2, 1): ("yes", 175, "31013c537321bf83"),
    (30, 3, 4, 0, 0, 1): ("yes", 1473, "06ce22e1b120bdfc"),
    (40, 4, 3, 2, 3, 0): ("yes", 1038, "e0f40b70ca1aea77"),
    (50, 3, 3, 0, 0, 2): ("yes", 13040, "ac0f7ce6d9f8cf9a"),
    (60, 3, 3, 1, 1, 0): ("yes", 2790, "325d7de62243069e"),
    (30, 3, 3, 0, 1, 2): ("no", 222, "33d1589fe9b3e131"),
    (50, 4, 3, 0, 1, 0): ("no", 1373, "33d1589fe9b3e131"),
    (20, 3, 4, 2, 4, 1): ("no", 764, "33d1589fe9b3e131"),
    (36, 4, 3, 1, 2, 0): ("no", 1219, "33d1589fe9b3e131"),
    (40, 3, 3, 2, 4, 2): ("no", 748, "33d1589fe9b3e131"),
}


class TestEnumerationPastDeskScale:
    def test_independent_of_vertex_names(self, rng):
        star = layer_from_edges(7, [(v, 7) for v in range(1, 7)])  # highest degree, highest id
        path = layer_from_edges(8, [(v, v + 1) for v in range(1, 8)])
        cases = [(g, k) for g in (star, path) for k in range(5)]
        for _ in range(60):
            n = rng.randint(1, 9)
            g = random_layers(rng, n, 1, density=rng.choice((0.2, 0.5, 0.8)))[0]
            cases.append((g, rng.randint(0, 4)))
        for g, k in cases:
            perm = [0] + rng.sample(range(1, g.n + 1), g.n)
            renamed = layer_from_edges(g.n, [pair(perm[u], perm[v]) for u, v in g.edges])
            want = renamed_sets(enumerate_cluster_editing_sets(g, k), perm)
            assert enumerate_cluster_editing_sets(renamed, k) == want

    @pytest.mark.parametrize("n, ell, k, seed", sorted(PINNED_PARTS))
    def test_planted_parts_are_pinned(self, n, ell, k, seed):
        inst = generate_planted(PlantedParams(n, ell, n // 2 + 1, 1, 1, seed), "tce")
        parts = [enumerate_cluster_editing_sets(g, k) for g in inst.layers]
        sizes, digests = PINNED_PARTS[n, ell, k, seed]
        assert [len(part) for part in parts] == sizes
        assert [sha256(repr([sorted(m) for m in part]).encode()).hexdigest()
                for part in parts] == digests
        for g, part in zip(inst.layers, parts):
            assert all(is_cluster_graph(apply_edits(g, m)) for m in part)


@st.composite
def noisy_cluster_graphs(draw):
    """A cluster graph on 5..14 vertices with up to three pairs toggled,
    the same graph with its vertices renamed, and a budget of 0..4."""
    n = draw(st.integers(5, 14))
    labels = draw(st.lists(st.integers(1, n), min_size=n, max_size=n))
    noise = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n))
                          .filter(lambda p: p[0] != p[1]), max_size=3))
    perm = [0] + draw(st.permutations(range(1, n + 1)))
    g = apply_edits(graph_of(labels), {pair(u, v) for u, v in noise})
    renamed = layer_from_edges(n, [pair(perm[u], perm[v]) for u, v in g.edges])
    return g, renamed, draw(st.integers(0, 4))


@settings(derandomize=True, deadline=None, max_examples=50)
@given(noisy_cluster_graphs())
def test_masks_are_the_pair_index_encoding_of_the_sets(case):
    g, renamed, k = case
    index = PairIndex(g.n)
    for graph in (g, renamed):
        masks = enumerate_edit_masks(graph, k)
        assert masks == [index.pair_mask(m) for m in enumerate_cluster_editing_sets(graph, k)]


def cover_decision(g1, g2, d):
    """The sweep's check on two cluster graphs: whether d vertices cover
    every pair on which they differ, checked against the two-layer
    matching solver and, at n <= 8, the oracle's cover branching."""
    index = PairIndex(g1.n)
    differ = index.pair_mask(g1.edges ^ g2.edges)
    cover = index.cover(differ, d)
    got = cover is not None
    if got:
        assert cover.bit_count() <= d and not differ & ~index.touching_mask(cover)
    assert got == (solve_two_layer_zero_edit(g1, g2, d) is not None)
    if g1.n <= 8:
        assert got == (brute_force_cover(g1.edges ^ g2.edges, d) is not None)
    return got, not (differ.bit_count() <= d or index.matching_exceeds(differ, d))


class TestSweepCheck:
    def test_weight_decision_matches_the_two_layer_solver(self, rng):
        for _ in range(600):
            n = rng.randint(1, 10)
            d = rng.randint(0, 3)
            g1, g2 = random_cluster_graph(rng, n), random_cluster_graph(rng, n)
            if rng.random() < 0.3:
                g2 = g1
            cover_decision(g1, g2, d)

    def test_near_equal_clusterings_reach_the_bound_band(self, rng):
        # Moving d-1 .. d+2 vertices puts the partition distance next to d,
        # where neither the pair count nor the matching alone decides.
        answers, branched = Counter(), 0
        for _ in range(1500):
            n = rng.randint(2, 24)
            d = rng.randint(1, 4)
            left = list(cluster_labels(random_cluster_graph(rng, n)))
            right = list(left)
            for v in rng.sample(range(n), min(n, rng.randint(d - 1, d + 2))):
                right[v] = rng.choice(right + [0])  # 0: a new cluster
            got, undecided = cover_decision(graph_of(left), graph_of(right), d)
            answers[got] += 1
            branched += undecided
        assert answers[True] >= 50 and answers[False] >= 50 and branched > 50

    def test_cover_and_matching_on_small_masks(self):
        index = PairIndex(5)
        mask = index.pair_mask
        single = mask([(2, 3)])
        star = mask([(1, 2), (1, 3), (1, 4), (1, 5)])
        triangle = mask([(1, 2), (1, 3), (2, 3)])
        disjoint = mask([(1, 2), (3, 4)])
        # nothing to cover: the empty cover, the mask 0, at any budget; no matching
        assert index.cover(0, 0) == 0 and not index.matching_exceeds(0, 0)
        # d = 0 covers nothing
        assert index.cover(single, 0) is None and index.matching_exceeds(single, 0)
        # a star: its centre covers it, a matching holds one pair
        assert index.cover(star, 1) == 1 << 1 and index.cover(star, 0) is None
        assert not index.matching_exceeds(star, 1) and index.matching_exceeds(star, 0)
        # a triangle needs 2, yet a matching holds one pair: only the d = 1 ends reject d = 1
        assert index.cover(triangle, 2).bit_count() == 2 and index.cover(triangle, 1) is None
        assert not index.matching_exceeds(triangle, 1)
        # |F| <= d is covered by the lower ends; two disjoint pairs need 2
        assert index.cover(disjoint, 2) == 1 << 1 | 1 << 3 and index.cover(star, 4) == 1 << 1
        assert index.cover(disjoint, 1) is None and index.matching_exceeds(disjoint, 1)
        assert not index.matching_exceeds(star, 4)

    def test_one_vertex_covers_match_the_oracle(self, rng):
        index = PairIndex(8)
        mask = index.pair_mask
        shapes = {"star": [(3, 1), (3, 5), (3, 8)], "path": [(1, 2), (2, 3), (3, 4)],
                  "short path": [(2, 6), (6, 7)], "triangle": [(1, 2), (1, 3), (2, 3)],
                  "disjoint": [(1, 2), (3, 4)]}
        cases = [[pair(u, v) for u, v in pairs] for pairs in shapes.values()]
        pairs_of_8 = list(combinations(range(1, 9), 2))
        for _ in range(400):
            cases.append(rng.sample(pairs_of_8, rng.randint(0, 6)))
        answers = Counter()
        for pairs in cases:
            got = index.cover(mask(pairs), 1) is not None
            assert got == (brute_force_cover(frozenset(pairs), 1) is not None), pairs
            answers[got] += 1
        assert answers[True] >= 50 and answers[False] >= 50

    def test_clusters_follow_the_edits(self):
        g = layer_from_edges(4, [(1, 2), (3, 4)])
        assert cluster_labels(apply_edits(g, frozenset())) == (1, 1, 3, 3)
        assert cluster_labels(apply_edits(g, frozenset({(1, 2), (3, 4)}))) == (1, 2, 3, 4)
        merged = frozenset({(1, 3), (1, 4), (2, 3), (2, 4)})
        assert cluster_labels(apply_edits(g, merged)) == (1, 1, 1, 1)


class TestSolveTceXp:
    def test_ref_yes(self):
        inst = ref_instance("tce", 1, 1)
        sol = solve_tce_xp(inst)
        assert sol is not None
        assert verify(inst, sol).ok

    def test_ref_no_without_edits(self):
        assert solve_tce_xp(ref_instance("tce", 0, 3)) is None

    def test_ref_no_without_marks(self):
        assert solve_tce_xp(ref_instance("tce", 3, 0)) is None

    def test_mode_checked(self):
        with pytest.raises(InputError):
            solve_tce_xp(ref_instance("mlce", 1, 1))

    def test_single_layer_reduces_to_cluster_editing(self):
        g = layer_from_edges(3, [(1, 2), (2, 3)])
        assert solve_tce_xp(Instance("tce", 3, (g,), 1, 0)) is not None
        assert solve_tce_xp(Instance("tce", 3, (g,), 0, 0)) is None

    def test_oracle_equivalence(self, rng):
        for _ in range(120):
            inst = random_instance(rng, "tce", max_ell=4)
            got = solve_tce_xp(inst)
            want = oracle_tce(inst)
            assert (got is None) == (want is None)
            if got is not None:
                assert verify(inst, got).ok

    def test_solution_files_match_the_plain_reference_sweep(self, rng):
        answers = Counter()
        for seed in range(80):
            n = rng.randint(3, 10)
            params = PlantedParams(n=n, ell=rng.randint(2, 4), cluster_count=rng.randint(1, n),
                                   drift_per_layer=rng.randint(0, 2),
                                   noise_edits=rng.randint(0, 1), seed=seed)
            base = replace(generate_planted(params, "tce"), k=rng.randint(0, 3),
                           d=rng.randint(0, 3))
            perm = [0] + rng.sample(range(1, n + 1), n)
            for inst in (base, relabelled(base, perm)):
                want = serialize_solution(reference_xp(inst), inst)
                assert serialize_solution(solve_tce_xp(inst), inst) == want
                answers[want.splitlines()[1]] += 1
        assert answers["answer yes"] > 50 and answers["answer no"] > 10

    @staticmethod
    def record_witness_solves(monkeypatch):
        """The layer pairs solve_tce_xp passes to solve_two_layer_zero_edit."""
        calls = []

        def recorded(g1, g2, d):
            calls.append((g1.edges, g2.edges))
            return solve_two_layer_zero_edit(g1, g2, d)

        monkeypatch.setattr(tcepath, "solve_two_layer_zero_edit", recorded)
        return calls

    def test_no_witness_solve_without_marks(self, monkeypatch):
        calls = self.record_witness_solves(monkeypatch)
        for seed in range(5):
            inst = replace(generate_planted(PlantedParams(10, 4, 6, 0, 1, seed), "tce"), k=2, d=0)
            sol = solve_tce_xp(inst)
            assert sol is not None and sol.marked_per_gap == (frozenset(),) * 3
        assert calls == []

    def test_witness_solves_only_gaps_whose_layers_differ(self, monkeypatch):
        calls = self.record_witness_solves(monkeypatch)
        gaps = Counter()
        for seed in range(8):
            inst = replace(generate_planted(PlantedParams(10, 4, 6, 1, 1, seed), "tce"), k=2, d=1)
            del calls[:]
            sol = solve_tce_xp(inst)
            assert sol is not None
            edited = [apply_edits(g, m) for g, m in zip(inst.layers, sol.edits)]
            differing = [(a.edges, b.edges) for a, b in zip(edited, edited[1:])
                         if a.edges != b.edges]
            assert calls == differing
            for a, b, marks in zip(edited, edited[1:], sol.marked_per_gap):
                assert marks == solve_two_layer_zero_edit(a, b, inst.d)
                gaps[a.edges == b.edges] += 1
        assert gaps[True] >= 3 and gaps[False] >= 15

    @pytest.mark.parametrize("n, ell, k, d, drift, seed", sorted(PINNED_SOLVES))
    def test_planted_solution_files_are_pinned(self, n, ell, k, d, drift, seed):
        params = PlantedParams(n, ell, n // 2 + 1, drift, 1, seed)
        inst = replace(generate_planted(params, "tce"), k=k, d=d)
        stats = SearchStats()
        sol = solve_tce_xp(inst, stats=stats)
        digest = sha256(serialize_solution(sol, inst).encode()).hexdigest()[:16]
        assert ("yes" if sol is not None else "no", stats.nodes, digest) == \
            PINNED_SOLVES[n, ell, k, d, drift, seed]

    def test_stats_count_the_part_nodes(self):
        inst = replace(generate_planted(PlantedParams(10, 3, 6, 1, 1, 0), "tce"), k=2, d=1)
        stats = SearchStats()
        assert solve_tce_xp(inst, stats=stats) is not None  # a yes: every part enumerated
        assert stats.nodes == sum(len(enumerate_cluster_editing_sets(g, 2)) for g in inst.layers)

    def test_per_layer_budgets(self):
        # the stray edge in layer 1 can only be fixed where the budget sits
        g1 = layer_from_edges(3, [(1, 2), (2, 3)])
        g2 = layer_from_edges(3, [])
        inst = Instance("tce", 3, (g1, g2), 1, 3)
        assert solve_tce_xp(replace(inst, budgets=(1, 0))) is not None
        assert solve_tce_xp(replace(inst, budgets=(0, 1))) is None
        with pytest.raises(InputError):
            replace(inst, budgets=(1,))

    def test_non_minimal_merge_regression(self):
        # the only solution splits layer 1's two complete cliques, so an
        # enumeration restricted to minimal editing sets would answer no
        g1 = layer_from_edges(4, [(1, 2), (3, 4)])
        g2 = layer_from_edges(4, [(1, 3), (2, 4)])
        inst = Instance("tce", 4, (g1, g2), 2, 0)
        sol = solve_tce_xp(inst)
        assert sol is not None
        assert verify(inst, sol).ok
        assert sol.edits[0] == frozenset({(1, 2), (3, 4)})
        assert sol.edits[1] == frozenset({(1, 3), (2, 4)})
