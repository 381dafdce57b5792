from itertools import combinations

import pytest

from layeredit import core
from layeredit.branching import solve_mlce
from layeredit.core import (
    PAIR_TABLE_SIZES,
    CapabilityError,
    InputError,
    Instance,
    LayerGraph,
    PairIndex,
    SearchStats,
    Solution,
    VerifyReport,
    _pair_tables,
    adj_p3s,
    all_pairs,
    apply_edits,
    find_p3,
    first_p3,
    is_cluster_adj,
    is_cluster_graph,
    layer_from_edges,
    p3_through_pair,
    pair,
    replace,
    verify,
    vertex_mask,
)
from layeredit.tcepath import solve_tce_xp

from conftest import (
    check_solution_independently,
    has_edge,
    ref_instance,
    ref_mlce_solution_k1_d2,
    ref_mlce_solution_k3_d1,
    ref_tce_solution,
    random_cluster_graph,
    random_instance,
    random_layers,
    with_random_budgets,
)


def brute_force_p3_free(g, restrict=None):
    verts = sorted(restrict) if restrict is not None else range(1, g.n + 1)
    for a, b, c in combinations(verts, 3):
        cnt = has_edge(g, a, b) + has_edge(g, a, c) + has_edge(g, b, c)
        if cnt == 2:
            return False
    return True


def first_p3_in_scan_order(g, restrict=None):
    """first_p3's contract spelled out: centers, then neighbour pairs, ascending."""
    verts = sorted(restrict) if restrict is not None else range(1, g.n + 1)
    for b in verts:
        for a, c in combinations([v for v in verts if v != b], 2):
            if has_edge(g, a, b) and has_edge(g, b, c) and not has_edge(g, a, c):
                return a, b, c
    return None


class TestApplyEdits:
    def test_empty_edit_is_identity(self):
        g = layer_from_edges(4, [(1, 2), (3, 4)])
        assert apply_edits(g, frozenset()) == g

    def test_involution(self, rng):
        for _ in range(50):
            g = random_layers(rng, 5, 1)[0]
            m = frozenset({(1, 2), (2, 5), (3, 4)})
            assert apply_edits(apply_edits(g, m), m) == g

    def test_adjacency_matches_a_rebuild(self, rng):
        for _ in range(50):
            g = random_layers(rng, 6, 1)[0]
            m = frozenset(p for p in combinations(range(1, 7), 2) if rng.random() < 0.3)
            edited = apply_edits(g, m)
            assert edited.adj == LayerGraph(6, g.edges ^ m).adj

    def test_ref_layer3_plus_45_is_clique(self):
        g = ref_instance("mlce", 1, 1).layers[2]
        edited = apply_edits(g, frozenset({(4, 5)}))
        assert edited.edges == frozenset({(2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)})
        assert is_cluster_graph(edited)
        assert edited.adj[1] == 0

    def test_out_of_range_pair(self):
        g = layer_from_edges(3, [(1, 2)])
        with pytest.raises(InputError):
            apply_edits(g, frozenset({(2, 4)}))


class TestFindP3:
    def test_cluster_graph_has_none(self):
        g = layer_from_edges(5, [(1, 2), (1, 3), (2, 3)])
        assert find_p3(g) is None

    def test_ref_layer3_witness(self):
        g = ref_instance("mlce", 1, 1).layers[2]
        a, b, c = find_p3(g)
        assert (a, b, c) == (4, 2, 5)
        assert has_edge(g, a, b) and has_edge(g, b, c) and not has_edge(g, a, c)

    def test_ref_layer1_witness_uses_pendant_edge(self):
        g = ref_instance("mlce", 1, 1).layers[0]
        a, b, c = find_p3(g)
        assert (a, b, c) == (1, 4, 5)
        assert (4, 5) == pair(b, c)

    def test_matches_triple_enumeration(self, rng):
        for _ in range(100):
            g = random_layers(rng, rng.randint(2, 8), 1)[0]
            restrict = frozenset(v for v in range(1, g.n + 1) if rng.random() < 0.7)
            assert (first_p3(g.adj, vertex_mask(restrict)) is None) == \
                brute_force_p3_free(g, restrict)

    def test_witness_is_first_in_scan_order(self, rng):
        for _ in range(200):
            g = random_layers(rng, rng.randint(2, 9), 1)[0]
            restrict = frozenset(v for v in range(1, g.n + 1) if rng.random() < 0.7)
            assert find_p3(g) == first_p3_in_scan_order(g)
            assert first_p3(g.adj, vertex_mask(restrict)) == first_p3_in_scan_order(g, restrict)

    def test_deterministic(self, rng):
        g = random_layers(rng, 7, 1)[0]
        assert find_p3(g) == find_p3(g)


class TestIsClusterGraph:
    def test_empty_graph(self):
        assert is_cluster_graph(layer_from_edges(4, []))

    def test_ref_layer2_is_not(self):
        g = ref_instance("mlce", 1, 1).layers[1]
        assert not is_cluster_graph(g)
        assert find_p3(g) == (2, 4, 5)

    def test_ref_layer2_restricted_to_triangle(self):
        g = ref_instance("mlce", 1, 1).layers[1]
        assert is_cluster_adj(g.adj, vertex_mask({2, 3, 4}))

    def test_agrees_with_find_p3(self, rng):
        # the closed-neighbourhood test against the P3 scan: cluster graphs a
        # few toggles off (near the boundary) and dense random graphs, each
        # whole and restricted to the empty set, singletons and random sets
        yes = 0
        for _ in range(600):
            n = rng.randint(1, 12)
            if rng.random() < 0.7:
                g = random_cluster_graph(rng, n)
                flips = [p for p in all_pairs(n) if rng.random() < 0.08]
                g = apply_edits(g, frozenset(flips))
            else:
                g = random_layers(rng, n, 1, density=rng.random())[0]
            got = is_cluster_graph(g)
            assert got == (find_p3(g) is None), g
            yes += got
            restricts = [frozenset(), frozenset({rng.randint(1, n)}),
                         frozenset(v for v in range(1, n + 1) if rng.random() < 0.6)]
            for restrict in restricts:
                inside = vertex_mask(restrict)
                got = is_cluster_adj(g.adj, inside)
                assert got == (first_p3(g.adj, inside) is None), (g, restrict)
                yes += got
        assert 600 < yes < 2400  # both answers are well represented


class TestCountP3ThroughPair:
    def test_triangle_pairs(self):
        g = layer_from_edges(3, [(1, 2), (1, 3), (2, 3)])
        for p in [(1, 2), (1, 3), (2, 3)]:
            assert p3_through_pair(g.adj, *p).bit_count() == 0

    def test_ref_layer1_pendant(self):
        g = ref_instance("mlce", 1, 1).layers[0]
        assert p3_through_pair(g.adj, 4, 5).bit_count() == 3

    def test_path_endpoints(self):
        g = layer_from_edges(3, [(1, 2), (2, 3)])
        assert p3_through_pair(g.adj, 1, 3).bit_count() == 1

    def test_matches_triple_enumeration(self, rng):
        # a triple {u, v, w} with exactly two edges is an induced P3
        # involving both u and v, whatever the center is
        hits = {True: 0, False: 0}  # pairs with a nonzero count, edges and non-edges
        for _ in range(80):
            n = rng.randint(3, 9)
            g = random_layers(rng, n, 1, density=rng.random())[0]
            for p in combinations(range(1, n + 1), 2):
                expected = 0
                for w in range(1, n + 1):
                    if w in p:
                        continue
                    triple = sorted([p[0], p[1], w])
                    cnt = sum(has_edge(g, a, b) for a, b in combinations(triple, 2))
                    if cnt == 2:
                        expected += 1
                assert p3_through_pair(g.adj, *p).bit_count() == expected
                hits[has_edge(g, *p)] += expected > 0
        assert hits[True] > 50 and hits[False] > 50


class TestInducedP3s:
    def test_matches_spelled_out_enumeration(self, rng):
        for _ in range(200):
            n = rng.randint(1, 9)
            g = random_layers(rng, n, 1, density=rng.random())[0]
            want = [(a, b, c) for b in range(1, n + 1)
                    for a, c in combinations([v for v in range(1, n + 1) if v != b], 2)
                    if has_edge(g, a, b) and has_edge(g, b, c) and not has_edge(g, a, c)]
            assert list(adj_p3s(g.adj)) == want


class TestComponents:
    @staticmethod
    def bfs_partition(g):
        """Breadth-first components from each unseen vertex in turn, by edge lookups."""
        comps, seen = [], set()
        for start in range(1, g.n + 1):
            if start in seen:
                continue
            comp, queue = [start], [start]
            seen.add(start)
            for x in queue:
                for w in range(1, g.n + 1):
                    if w not in seen and w != x and has_edge(g, x, w):
                        seen.add(w)
                        comp.append(w)
                        queue.append(w)
            comps.append(frozenset(comp))
        return comps

    def test_matches_reference_bfs(self, rng):
        for _ in range(200):
            n = rng.randint(1, 9)
            g = random_layers(rng, n, 1, density=rng.random() * 0.6)[0]
            got = g.components()
            assert got == self.bfs_partition(g)
            assert all(type(c) is frozenset for c in got)
            assert [min(c) for c in got] == sorted(min(c) for c in got)

    def test_ref_layer2(self):
        g = ref_instance("mlce", 1, 1).layers[1]
        assert g.components() == [frozenset({1}), frozenset({2, 3, 4, 5})]


class TestVerify:
    def test_ref_tce_solution_valid(self):
        inst = ref_instance("tce", 1, 1)
        sol = ref_tce_solution()
        assert verify(inst, sol).ok
        assert check_solution_independently(inst, sol) == []

    def test_ref_mlce_solutions_valid(self):
        inst = ref_instance("mlce", 1, 2)
        sol = ref_mlce_solution_k1_d2()
        assert verify(inst, sol).ok
        assert check_solution_independently(inst, sol) == []
        inst = ref_instance("mlce", 3, 1)
        sol = ref_mlce_solution_k3_d1()
        assert verify(inst, sol).ok
        assert check_solution_independently(inst, sol) == []

    def test_ref_empty_solution_invalid(self):
        inst = ref_instance("mlce", 1, 1)
        sol = Solution((frozenset(), frozenset(), frozenset()), marked=frozenset())
        report = verify(inst, sol)
        assert not report.ok
        assert any("layer 3 is not a cluster graph" in v for v in report.violations)
        assert any("differ outside marks" in v for v in report.violations)

    def test_shape_mismatch(self):
        inst = ref_instance("tce", 1, 1)
        with pytest.raises(InputError):
            verify(inst, Solution((frozenset(),) * 3, marked=frozenset()))

    def test_budget_violations_reported(self):
        inst = ref_instance("mlce", 0, 0)
        sol = Solution((frozenset({(4, 5)}),) * 3, marked=frozenset({1}))
        report = verify(inst, sol)
        assert any(v.startswith("edit budget exceeded") for v in report.violations)
        assert any(v.startswith("mark budget exceeded") for v in report.violations)

    def test_edit_budget_of_each_layer(self):
        sol = ref_mlce_solution_k1_d2()  # one edit in each layer
        assert verify(ref_instance("mlce", 0, 2), sol).violations == tuple(
            f"edit budget exceeded in layer {i}: 1 > k=0" for i in (1, 2, 3))
        inst = Instance("mlce", 5, ref_instance("mlce", 1, 2).layers, 1, 2, budgets=(1, 0, 1))
        assert verify(inst, sol).violations == ("edit budget exceeded in layer 2: 1 > k=0",)

    def test_agrees_with_independent_check(self, rng):
        # random solutions, valid or not: verify().ok iff the independent
        # re-derivation of all three conditions finds nothing
        for trial in range(120):
            mode = rng.choice(["mlce", "tce"])
            inst = random_instance(rng, mode)
            if trial % 2:
                inst = with_random_budgets(rng, inst)
            edits = tuple(
                frozenset(p for p in combinations(range(1, inst.n + 1), 2)
                          if rng.random() < 0.25)
                for _ in range(inst.ell))
            if mode == "mlce":
                sol = Solution(edits, marked=frozenset(
                    v for v in range(1, inst.n + 1) if rng.random() < 0.3))
            else:
                sol = Solution(edits, marked_per_gap=tuple(
                    frozenset(v for v in range(1, inst.n + 1) if rng.random() < 0.3)
                    for _ in range(inst.ell - 1)))
            assert verify(inst, sol).ok == (check_solution_independently(inst, sol) == [])


class TestInstanceBudgets:
    def test_uniform_budgets(self):
        inst = ref_instance("mlce", 2, 1)
        assert inst.edit_budgets == (2, 2, 2)
        assert inst.budgets == ()

    def test_single_layer(self):
        g = layer_from_edges(3, [])
        assert Instance("mlce", 3, (g,), 2, 0).edit_budgets == (2,)

    def test_uniform_instance_is_canonical(self):
        inst = ref_instance("tce", 2, 1)
        spelled = Instance("tce", 5, inst.layers, 2, 1, budgets=[2, 2, 2])
        assert spelled.budgets == () and spelled == inst and hash(spelled) == hash(inst)
        assert replace(spelled, k=3).edit_budgets == (3, 3, 3)

    def test_per_layer_budgets(self):
        layers = ref_instance("tce", 2, 1).layers
        inst = Instance("tce", 5, layers, 2, 1, budgets=[2, 0, -1])
        assert inst.budgets == inst.edit_budgets == (2, 0, -1)
        assert inst != Instance("tce", 5, layers, 2, 1)
        assert replace(inst, d=0).budgets == (2, 0, -1)

    def test_replace_validates_and_normalises_again(self):
        inst = Instance("tce", 5, ref_instance("tce", 2, 1).layers, 2, 1, budgets=[2, 0, 1])
        with pytest.raises(InputError):
            replace(inst, k=-1)
        assert replace(inst, budgets=(2,) * inst.ell).budgets == ()

    @pytest.mark.parametrize("k, d, budgets", [(-1, 0, ()), (1, -1, ()), (1, 0, (1, 1)),
                                               (1, 0, (1, 2, 0))])
    def test_invalid_budgets_rejected(self, k, d, budgets):
        with pytest.raises(InputError):
            Instance("mlce", 5, ref_instance("mlce", 1, 1).layers, k, d, budgets=budgets)


class TestInstanceValidation:
    def test_layer_size_mismatch(self):
        with pytest.raises(InputError):
            Instance("mlce", 3, (layer_from_edges(3, []), layer_from_edges(4, [])), 0, 0)

    def test_unknown_mode(self):
        with pytest.raises(InputError):
            Instance("layered", 3, (layer_from_edges(3, []),), 0, 0)

    def test_solution_shape(self):
        with pytest.raises(InputError):
            Solution((frozenset(),))
        with pytest.raises(InputError):
            Solution((frozenset(),), marked=frozenset(), marked_per_gap=())

    def test_missing_or_unknown_field(self):
        g = layer_from_edges(3, [])
        for build in (lambda: Instance("mlce", 3, (g,), 0),
                      lambda: Instance("mlce", 3, (g,), 0, 0, budgets=(), extra=1),
                      lambda: Instance("mlce", 3, (g,), 0, 0, (), 1),
                      lambda: replace(g, size=3)):
            with pytest.raises(TypeError):
                build()

    def test_fields_by_position_or_keyword(self):
        g = LayerGraph(edges=frozenset({(1, 2)}), n=3)
        assert g == LayerGraph(3, frozenset({(1, 2)})) and hash(g) == hash(replace(g))
        assert replace(g) is not g
        assert repr(g) == "LayerGraph(n=3, edges=frozenset({(1, 2)}))"
        assert repr(Solution((), marked=frozenset())) == \
            "Solution(edits=(), marked=frozenset(), marked_per_gap=None)"

    def test_records_are_frozen(self):
        inst = ref_instance("mlce", 1, 1)
        report = verify(inst, Solution((frozenset(),) * 3, frozenset()))
        for record, name in ((inst, "k"), (inst, "other"), (inst.layers[0], "edges"),
                             (report, "violations")):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
        with pytest.raises(AttributeError):
            del inst.k
        assert inst.k == 1

    def test_records_of_different_classes_never_compare_equal(self):
        assert VerifyReport(()) != ((),)

        class Report(VerifyReport):
            pass

        assert Report(()) != VerifyReport(()) and VerifyReport(()) != Report(())

    def test_search_stats_are_mutable_and_unhashable(self):
        stats = SearchStats()
        stats.nodes += 2
        stats.max_depth = 1
        assert stats == SearchStats(2, 1) and stats != SearchStats()
        assert repr(stats) == "SearchStats(nodes=2, max_depth=1, pruned_bound=0)"
        with pytest.raises(TypeError):
            hash(stats)


def fresh_pair_tables(n):
    """The pair tables of n vertices built anew, bypassing the shared cache."""
    return _pair_tables.__wrapped__(n)


class TestPairIndex:
    def test_tables_encode_all_pairs(self):
        for n in range(1, 11):
            index, size = PairIndex(n), n * (n - 1) // 2
            assert index.pairs == all_pairs(n)
            bit = index.pair_bit
            assert all(bit[u][v] == bit[v][u] for u in range(n + 1) for v in range(n + 1))
            assert [bit[u][v] for u, v in index.pairs] == [1 << i for i in range(size)]
            assert sum(map(sum, bit)) == 2 * ((1 << size) - 1)  # no other bits
            for v in range(n + 1):
                assert index.touching[v] == sum(1 << i for i, p in enumerate(index.pairs)
                                                if v in p)

    def test_indexes_of_one_n_share_their_tables(self):
        a, b = PairIndex(7), PairIndex(7)
        assert a.pairs is b.pairs and a.pair_bit is b.pair_bit and a.touching is b.touching
        assert isinstance(a.pairs, tuple) and isinstance(a.touching, tuple)
        assert all(isinstance(row, tuple) for row in a.pair_bit)

    def test_cache_is_bounded(self):
        for n in range(30, 31 + PAIR_TABLE_SIZES + 3):
            PairIndex(n)
        assert _pair_tables.cache_info().currsize <= PAIR_TABLE_SIZES

    def test_sizes_past_a_gibibyte_are_refused_before_building(self, monkeypatch):
        def no_tables(n):
            raise LookupError(n)

        monkeypatch.setattr(core, "all_pairs", no_tables)  # reached only when building
        with pytest.raises(CapabilityError, match="limit is n=512"):
            PairIndex(10**6)
        with pytest.raises(LookupError):
            _pair_tables.__wrapped__(512)  # ~1.0e9 bytes: built
        with pytest.raises(CapabilityError):
            _pair_tables.__wrapped__(513)  # ~1.08e9 bytes: refused

    def test_solves_leave_the_shared_tables_intact(self):
        mlce, tce = ref_instance("mlce", 1, 2), ref_instance("tce", 1, 1)
        assert solve_mlce(mlce) is not None and solve_tce_xp(tce) is not None
        for n in {mlce.n, tce.n}:
            index = PairIndex(n)
            assert (index.pairs, index.pair_bit, index.touching) == fresh_pair_tables(n)
