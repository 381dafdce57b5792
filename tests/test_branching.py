import random
from collections import Counter
from itertools import combinations

import pytest

from layeredit import branching
from layeredit.branching import (
    Constraint,
    InvariantViolation,
    SearchContext,
    SearchStats,
    bound_rejects,
    branching_rule_1,
    branching_rule_2,
    branching_rule_3,
    constraint_quality,
    disagreement_rejects,
    extends,
    frozen_edit_bound,
    greedy_initial_constraint,
    kernel_k,
    min_marked_completion,
    solve_mlce,
)
from layeredit.core import (
    Instance,
    Solution,
    adj_p3s,
    all_pairs,
    apply_edits,
    bits,
    find_p3,
    first_p3,
    layer_from_edges,
    p3_through_pair,
    pair,
    pairs_of,
    replace,
    verify,
    vertex_mask,
)
from layeredit.fileio import PlantedParams, generate_planted
from layeredit.oracle import oracle_mlce, set_partitions

from conftest import (
    drifted_cluster_layers,
    has_edge,
    random_instance,
    random_layers,
    ref_instance,
    with_random_budgets,
)


def empty_constraint():
    return Constraint(0, 0, 0)


def context(n, ell=1, budgets=(), d=0):
    """Search tables for n vertices and ell edgeless layers with these edit
    budgets (default: all 0) and d."""
    g = layer_from_edges(n, [])
    return SearchContext(Instance("mlce", n, (g,) * ell, max(budgets, default=0), d,
                                  budgets=budgets))


def layer_context(g):
    """Search tables of the one-layer instance on ``g``."""
    return SearchContext(Instance("mlce", g.n, (g,), 0, 0))


def encode(ctx, marked=(), target=(), permanent=()):
    """The constraint with these marked vertices, target pairs (less those
    at a mark, which no constraint's target holds) and permanent pairs."""
    marked = vertex_mask(marked)
    return Constraint(marked, ctx.pair_mask(target) & ~ctx.touching_mask(marked),
                      ctx.pair_mask(permanent))


def agree_outside_marks(ctx, c):
    """The layers with their edits applied, as edge sets, agree on every
    pair that touches no mark."""
    unmarked = frozenset(v for v in range(1, ctx.inst.n + 1) if not c.marked >> v & 1)
    return len({frozenset(p for p in apply_edits(g, ctx.pair_set(m)).edges if set(p) <= unmarked)
                for g, m in zip(ctx.inst.layers, ctx.edits(c))}) == 1


class TestEncoding:
    def test_pair_bits_follow_lexicographic_order(self):
        ctx = context(5)
        masks = [ctx.pair_mask([p]) for p in sorted(combinations(range(1, 6), 2))]
        assert masks == [1 << i for i in range(10)]
        for n in range(8):
            assert context(n).pairs == all_pairs(n)

    def test_round_trip(self, rng):
        ctx = context(7, 2)
        for _ in range(30):
            marked = frozenset(v for v in range(1, 8) if rng.random() < 0.3)
            target = frozenset(p for p in combinations(range(1, 8), 2)
                               if rng.random() < 0.3 and not marked & set(p))
            permanent = frozenset(p for p in combinations(range(1, 8), 2) if rng.random() < 0.2)
            c = encode(ctx, marked, target, permanent)
            assert frozenset(bits(c.marked)) == marked
            assert ctx.pair_set(c.target) == target
            # both layers are edgeless, so each one's edits are the target
            assert tuple(ctx.pair_set(m) for m in ctx.edits(c)) == (target, target)
            assert ctx.pair_set(c.permanent) == permanent

    def test_touching_mask(self):
        ctx = context(4)
        assert ctx.pair_set(ctx.touching_mask(vertex_mask({1, 3}))) == \
            frozenset({(1, 2), (1, 3), (1, 4), (2, 3), (3, 4)})
        assert ctx.touching_mask(0) == 0


class TestGreedy:
    def test_identical_layers_produce_no_edits(self):
        g = layer_from_edges(4, [(1, 2), (3, 4)])
        inst = Instance("mlce", 4, (g, g, g), 1, 1)
        ctx = SearchContext(inst)
        c = greedy_initial_constraint(ctx)
        assert ctx.edits(c) == [0, 0, 0] and ctx.pair_set(c.target) == g.edges

    def test_ref_minority_pair_deleted(self):
        ctx = SearchContext(ref_instance("mlce", 1, 1))
        c = greedy_initial_constraint(ctx)
        assert (1, 2) in ctx.pair_set(ctx.edits(c)[0])  # present only in layer 1, below half

    def test_ref_majority_pair_untouched(self):
        ctx = SearchContext(ref_instance("mlce", 1, 1))
        c = greedy_initial_constraint(ctx)
        assert all((2, 3) not in ctx.pair_set(m) for m in ctx.edits(c))

    def test_ref_full_alignment(self):
        inst = ref_instance("mlce", 1, 1)
        ctx = SearchContext(inst)
        c = greedy_initial_constraint(ctx)
        assert tuple(ctx.pair_set(m) for m in ctx.edits(c)) == (
            frozenset({(1, 2), (1, 3), (1, 4)}),
            frozenset(),
            frozenset({(4, 5), (2, 5), (3, 5)}))
        assert agree_outside_marks(ctx, c)
        assert not c.marked and ctx.pair_set(c.permanent) == frozenset()

    def test_mask_majority_is_the_counter_rule(self, rng):
        # a pair in at least half of the layers, ties (2 * count == ell)
        # included; ell = 8 takes the count table to four bit slices
        ties = 0
        for ell in range(1, 9):
            for _ in range(30):
                n = rng.randint(2, 7)
                density = rng.choice((0.0, 0.5, 1.0, rng.random()))
                layers = random_layers(rng, n, ell, density=density)
                counts = Counter(p for g in layers for p in g.edges)
                ctx = SearchContext(Instance("mlce", n, layers, 0, 0))
                for c in range(1, ell + 1):
                    assert ctx.counts[c] == ctx.pair_mask(p for p in counts if counts[p] == c)
                want = ctx.pair_mask(p for p, cnt in counts.items() if 2 * cnt >= ell)
                root = greedy_initial_constraint(ctx)
                assert root.target == want
                assert {e ^ m for e, m in zip(ctx.layer_masks, ctx.edits(root))} == {want}
                ties += any(2 * cnt == ell for cnt in counts.values())
        assert ties > 15


class TestRule0:
    # the budget tests of a dead branch: frozen edits over a layer's k_i are
    # the frozen-edit bound's first reject, and no child exceeds d marks
    def test_empty_constraint_passes(self):
        assert not bound_rejects(context(2, ell=2), empty_constraint())

    def test_too_many_marks(self):
        ctx = context(2, budgets=(5,), d=1)
        assert branching._mark_children(ctx, encode(ctx, {1}), [2]) == []
        with pytest.raises(InvariantViolation, match="more than d marks"):
            branching._check_children(ctx, empty_constraint(), [encode(ctx, {1, 2})], 0)

    def test_target_pair_at_a_mark(self):
        ctx = context(2, budgets=(5,), d=1)
        child = Constraint(vertex_mask({1}), ctx.pair_mask([(1, 2)]), 0)
        with pytest.raises(InvariantViolation, match="child's target has a pair at a mark"):
            branching._check_children(ctx, empty_constraint(), [child], 0)

    def test_too_many_permanent_edits(self):
        m = frozenset({(1, 2), (3, 4)})
        for budgets, rejects in (((1,), True), ((2,), False)):
            ctx = context(4, budgets=budgets, d=5)
            assert bound_rejects(ctx, encode(ctx, (), m, m)) == rejects

    def test_each_layer_against_its_own_budget(self):
        # layer 1 is edgeless and layer 2 holds m, so under the target m
        # layer 1 has the two frozen edits and layer 2 none
        m = frozenset({(1, 2), (3, 4)})
        layers = layers_of(4, [], m)
        for budgets, rejects in (((1, 2), True), ((2, 1), False)):
            ctx = SearchContext(Instance("mlce", 4, layers, 2, 5, budgets=budgets))
            assert bound_rejects(ctx, encode(ctx, (), m, m)) == rejects


def fewest_free_toggles(ctx, h, permanent):
    """Brute force: the fewest non-permanent pairs whose toggling turns the
    pair mask ``h`` into a cluster graph; None if none does."""
    best = None
    for blocks in set_partitions(range(1, ctx.inst.n + 1)):
        toggles = h ^ ctx.pair_mask(p for block in blocks for p in combinations(block, 2))
        if not toggles & permanent and (best is None or toggles.bit_count() < best):
            best = toggles.bit_count()
    return best


class TestToggledP3s:
    def test_rows_match_a_rescan_of_the_toggled_layer(self, rng):
        shapes = Counter()
        for _ in range(300):
            n = rng.randint(2, 10)
            layers = random_layers(rng, n, 2, density=rng.random())
            ctx = SearchContext(Instance("mlce", n, layers, 0, 0))
            everything = (1 << len(ctx.pairs)) - 1
            shape = rng.choice(("sparse", "star", "all"))
            if shape == "sparse":
                x = ctx.pair_mask(p for p in ctx.pairs if rng.random() < 0.2)
            elif shape == "star":  # pairs sharing the vertex v
                v = rng.randint(1, n)
                x = ctx.pair_mask(p for p in ctx.pairs if v in p and rng.random() < 0.7)
            else:
                x = everything
            shapes[shape] += 1
            i = rng.randrange(2)
            rows = ctx.toggled_p3s(i, x)
            assert [(a, b, c) for (b, a, c), _ in rows] == list(adj_p3s(ctx.toggled_adj(i, x)))
            pb = ctx.pair_bit
            assert all(m == pb[a][b] | pb[b][c] | pb[a][c] for (b, a, c), m in rows)
            assert ctx.toggled_p3s(i, x) is rows  # memoised
        assert min(shapes.values()) > 50

    def test_root_rows_are_each_layers_p3s(self, rng):
        # built from the layer's adjacency, in its order, and cached on no layer
        for _ in range(40):
            inst = random_instance(rng, "mlce", max_n=8, max_ell=4)
            ctx = SearchContext(inst)
            pb = ctx.pair_bit
            for i, g in enumerate(inst.layers):
                rows = ctx._p3_rows[(i, 0)]
                assert [(a, b, c) for (b, a, c), _ in rows] == list(adj_p3s(g.adj))
                assert all(m == pb[a][b] | pb[b][c] | pb[a][c] for (b, a, c), m in rows)
            solve_mlce(inst)
            assert not any("p3s" in g.__dict__ for g in inst.layers)

    def test_rows_without_the_memo(self, monkeypatch):
        monkeypatch.setattr(branching, "FAILED_CAP", 0)
        g = layer_from_edges(4, [(1, 2), (2, 3), (3, 4)])
        ctx = SearchContext(Instance("mlce", 4, (g,), 0, 0))
        x = ctx.pair_mask([(1, 3), (2, 4)])
        rows = ctx.toggled_p3s(0, x)
        assert [(a, b, c) for (b, a, c), _ in rows] == list(adj_p3s(ctx.toggled_adj(0, x)))
        assert ctx.toggled_p3s(0, x) is not rows


class TestFrozenEditBound:
    def test_never_exceeds_the_fewest_toggles(self, rng):
        outcomes = set()
        for _ in range(300):
            n = rng.randint(2, 6)
            g = random_layers(rng, n, 1, density=rng.random())[0]
            ctx = SearchContext(Instance("mlce", n, (g,), 0, 0))
            rate = rng.choice((0.0, 0.2, 0.5))
            permanent = ctx.pair_mask(p for p in ctx.pairs if rng.random() < rate)
            frozen = ctx.pair_mask(p for p in ctx.pair_set(permanent) if rng.random() < 0.5)
            bound = frozen_edit_bound(ctx, 0, frozen, permanent, len(ctx.pairs))
            least = fewest_free_toggles(ctx, ctx.layer_masks[0] ^ frozen, permanent)
            if bound is None:
                assert least is None
                outcomes.add("dead")
            elif least is not None:
                assert bound <= frozen.bit_count() + least
                outcomes.add("tight" if bound == frozen.bit_count() + least else "loose")
            # the budget cuts off a bound above it, and only that
            if bound is not None:
                assert frozen_edit_bound(ctx, 0, frozen, permanent, bound) == bound
                if bound:
                    assert frozen_edit_bound(ctx, 0, frozen, permanent, bound - 1) is None
        assert outcomes == {"dead", "tight", "loose"}

    def test_all_permanent_p3_is_dead(self):
        ctx = context(3)
        permanent = ctx.pair_mask(ctx.pairs)
        # the edgeless layer with the frozen edits 1-2 and 2-3 holds the P3 1-2-3
        frozen = ctx.pair_mask([(1, 2), (2, 3)])
        assert frozen_edit_bound(ctx, 0, frozen, permanent, 10) is None
        assert frozen_edit_bound(ctx, 0, frozen | ctx.pair_mask([(1, 3)]), permanent, 10) == 3

    def test_loose_edits_do_not_count(self):
        # three loose edits in an edgeless layer with budget 0: undoing them
        # costs nothing, so the bound must not reject
        ctx = context(4)
        c = encode(ctx, (), {(1, 2), (2, 3), (3, 4)}, {(1, 4)})
        assert not bound_rejects(ctx, c)
        frozen = encode(ctx, (), {(1, 2), (2, 3), (3, 4)}, {(1, 2)})
        assert bound_rejects(ctx, frozen)

    def test_verdict_does_not_depend_on_the_first_layer(self, rng):
        # along random descents, every child gets the verdict of some
        # layer's own bound, whichever layers reject
        verdicts = Counter()
        for _ in range(120):
            ctx = SearchContext(random_instance(rng, "mlce", max_n=7, max_ell=4, max_k=2, max_d=2))
            for _, children in descents(ctx, rng):
                for child in children:
                    dead = [frozen_edit_bound(ctx, i, m & child.permanent, child.permanent,
                                              k_i) is None
                            for i, (m, k_i) in enumerate(zip(ctx.edits(child), ctx.budgets))]
                    assert bound_rejects(ctx, child) == any(dead)
                    verdicts[any(dead), sum(dead) > 1] += 1
        assert min(verdicts.values()) > 20 and len(verdicts) == 3

    def test_invariant_check_catches_an_extraction_below_the_bound(self, monkeypatch):
        # one layer holding the P3 1-2-3 and k = 1: the search accepts after
        # freezing one toggle, whose layer bound is then 1
        inst = Instance("mlce", 3, (layer_from_edges(3, [(1, 2), (2, 3)]),), 1, 0)
        assert solve_mlce(inst, check_invariants=True) is not None
        extract = branching._extract_solution
        monkeypatch.setattr(branching, "_extract_solution",
                            lambda ctx, c, completions: Solution(
                                (frozenset(),), marked=extract(ctx, c, completions).marked))
        with pytest.raises(InvariantViolation):
            solve_mlce(inst, check_invariants=True)


class TestDisagreementBound:
    def test_weights_are_the_counter_rule(self, rng):
        for ell in range(1, 9):
            for _ in range(20):
                n = rng.randint(2, 7)
                layers = random_layers(rng, n, ell, density=rng.random())
                counts = Counter(p for g in layers for p in g.edges)
                ctx = SearchContext(Instance("mlce", n, layers, 0, 0))
                want = Counter()
                for p, cnt in counts.items():
                    want[min(cnt, ell - cnt)] |= ctx.pair_mask([p])
                del want[0]
                assert ctx.weights == tuple(sorted(want.items()))

    def test_rejects_only_when_no_mark_set_fits(self, rng):
        # brute force over the mark sets D the bound allows: each pays the
        # frozen edits plus the weight of the non-permanent pairs touching
        # no vertex of D, and the bound may reject only if all overrun K
        verdicts = Counter()
        for _ in range(150):
            ctx = SearchContext(random_instance(rng, "mlce", max_n=7, max_ell=5, max_k=2,
                                                max_d=3))
            for _, children in descents(ctx, rng):
                for c in children:
                    frozen = sum((m & c.permanent).bit_count() for m in ctx.edits(c))
                    open_ = [v for v in range(1, ctx.inst.n + 1)
                             if not c.marked >> v & 1 and not c.permanent & ctx.touching[v]]
                    least = min(
                        frozen + sum(w * (mask & ~c.permanent & ~ctx.touching_mask(
                            c.marked | vertex_mask(more))).bit_count()
                            for w, mask in ctx.weights)
                        for size in range(ctx.inst.d - c.marked.bit_count() + 1)
                        for more in combinations(open_, size))
                    rejects = disagreement_rejects(ctx, c.marked, c.permanent, frozen)
                    if rejects:
                        assert least > ctx.total_budget
                    verdicts[rejects, least > ctx.total_budget] += 1
        assert verdicts[True, True] > 50 and verdicts[False, False] > 50

    def test_invariant_check_catches_an_extraction_below_the_bound(self, monkeypatch):
        # layers 1-2 and edgeless, k = 1: the majority adds 1-2 to layer 2,
        # one edit of weight 1 that no layer's own bound counts
        inst = Instance("mlce", 2, (layer_from_edges(2, [(1, 2)]), layer_from_edges(2, [])),
                        1, 0)
        assert solve_mlce(inst, check_invariants=True) is not None
        monkeypatch.setattr(branching, "_extract_solution",
                            lambda ctx, c, completions: Solution((frozenset(),) * 2,
                                                                 marked=frozenset()))
        with pytest.raises(InvariantViolation, match="disagreement bound 1"):
            solve_mlce(inst, check_invariants=True)


def descents(ctx, rng, steps=12):
    """(parent, children) along a random walk down the search from the
    greedy root, one rule application per step."""
    c = greedy_initial_constraint(ctx)
    for _ in range(steps):
        for rule in (branching_rule_1, branching_rule_2, branching_rule_3):
            children = rule(ctx, c)
            if children is not None:
                break
        if not children:
            return
        yield c, children
        c = rng.choice(children)


class TestCleanChildren:
    def test_mark_child_drops_marked_pairs(self):
        # rule 2 over budget 1 with the loose edits 1-2 and 1-3: marking 1
        # drops both, marking 2 drops only 1-2
        g = layer_from_edges(4, [])
        ctx = SearchContext(Instance("mlce", 4, (g,), 1, 1))
        c = encode(ctx, (), {(1, 2), (1, 3)})
        by_mark = {frozenset(bits(ch.marked)): (ctx.pair_set(ch.target),
                                                ctx.pair_set(ctx.edits(ch)[0]))
                   for ch in branching_rule_2(ctx, c) if ch.marked}
        # the layer is edgeless, so its edits are the target
        assert by_mark == {frozenset({1}): (frozenset(),) * 2,
                           frozenset({2}): (frozenset({(1, 3)}),) * 2,
                           frozenset({3}): (frozenset({(1, 2)}),) * 2}

    def test_children_have_no_edit_at_a_mark_and_align(self, rng):
        seen = Counter()
        for _ in range(150):
            inst = random_instance(rng, "mlce", max_n=7, max_ell=4, max_d=3)
            ctx = SearchContext(inst)
            for parent, children in descents(ctx, rng):
                for child in children:
                    touching = ctx.touching_mask(child.marked)
                    assert not child.target & touching
                    assert not any(m & touching for m in ctx.edits(child))
                    assert agree_outside_marks(ctx, child)
                    seen["mark" if child.marked != parent.marked else "other"] += 1
        assert seen["mark"] > 100 and seen["other"] > 100


def layers_of(n, *edge_lists):
    return tuple(layer_from_edges(n, edges) for edges in edge_lists)


class TestMarkBound:
    """The mark budget d when every edit budget is 0: ``solve_mlce`` then
    asks ``PairIndex.cover`` for at most d vertices touching every pair on
    which the layers differ, and edits nothing."""

    def test_matching_of_the_marks_left_passes_and_one_more_rejects(self):
        # the layers differ on two disjoint pairs, which two marks cover
        inst = Instance("mlce", 8, layers_of(8, [(1, 2), (3, 4)], []), 0, 2)
        sol = solve_mlce(inst)
        assert sol.marked == {1, 3} and sol.edits == (frozenset(), frozenset())
        # a third disjoint pair needs a third mark
        inst = Instance("mlce", 8, layers_of(8, [(1, 2), (3, 4)], [(5, 6)]), 0, 2)
        assert solve_mlce(inst) is None
        assert solve_mlce(replace(inst, d=3)).marked == {1, 3, 5}

    def test_a_star_needs_one_mark(self):
        # a 5-clique against a 4-clique differ on the star at vertex 1
        inst = Instance("mlce", 5, layers_of(5, pairs_of(range(1, 6)), pairs_of(range(2, 6))),
                        0, 1)
        stats = SearchStats()
        assert solve_mlce(inst, stats=stats).marked == {1}
        assert stats.nodes == 1 and stats.max_depth == 0
        assert solve_mlce(replace(inst, d=0)) is None

    def test_a_layer_budget_of_one_adds_one_unit_of_slack(self):
        # three disjoint difference pairs and d = 2: no without edits, yes
        # once layer 2 may spend one edit, where the constraint search
        # decides; which difference pair it edits away is the search's choice
        layers = layers_of(8, [(1, 2), (3, 4)], [(5, 6)])
        assert solve_mlce(Instance("mlce", 8, layers, 0, 2)) is None
        inst = Instance("mlce", 8, layers, 1, 2, budgets=(0, 1))
        sol = solve_mlce(inst, check_invariants=True)
        assert verify(inst, sol).ok and not sol.edits[0] and len(sol.edits[1]) == 1
        assert sol.edits[1] <= {(1, 2), (3, 4), (5, 6)}

    def test_a_layer_with_a_p3_rejects_without_a_search(self):
        lines = []
        stats = SearchStats()
        inst = Instance("mlce", 3, layers_of(3, [(1, 2), (2, 3)], [(1, 2), (2, 3)]), 0, 3)
        assert solve_mlce(inst, trace=lines.append, stats=stats) is None
        assert lines == ["TRACE 0 rule0 reject p3"] and stats.nodes == 1

    def test_route_traces_its_verdict(self):
        inst = Instance("mlce", 8, layers_of(8, [(1, 2), (3, 4)], [(5, 6)]), 0, 2)
        lines = []
        assert solve_mlce(inst, trace=lines.append) is None
        assert lines == ["TRACE 0 rule0 reject cover |pairs|=3"]
        lines.clear()
        assert solve_mlce(replace(inst, d=3), trace=lines.append) is not None
        assert lines == ["TRACE 0 accept |D|=3 |B|=0 |pairs|=3"]

    def test_equal_cluster_layers_need_no_mark(self):
        g = layer_from_edges(5, [(1, 2), (3, 4)])
        sol = solve_mlce(Instance("mlce", 5, (g,) * 3, 0, 0))
        assert sol.marked == frozenset() and sol.edits == (frozenset(),) * 3

    def test_invariant_check_sees_a_rejected_accept(self, monkeypatch):
        # the accepted constraint of a k = 1 search whose bound rejects
        # fewer than one edit per layer: its extraction (no edits) falls below
        inst = Instance("mlce", 3, (layer_from_edges(3, [(1, 2)]),), 1, 0)
        assert solve_mlce(inst, check_invariants=True) is not None
        bound = branching.frozen_edit_bound
        monkeypatch.setattr(branching, "frozen_edit_bound",
                            lambda ctx, i, frozen, permanent, budget:
                            None if budget < 1 else bound(ctx, i, frozen, permanent, budget))
        with pytest.raises(InvariantViolation):
            solve_mlce(inst, check_invariants=True)

    def test_marks_only_sweep_matches_the_oracle(self, rng):
        # k = 0, which the cover decides, or some per-layer budgets of zero,
        # whose layers' edits the constraint search must cover with marks
        routed = 0
        for trial in range(300):
            n, ell = rng.randint(2, 8), rng.randint(2, 4)
            layers = drifted_cluster_layers(rng, n, ell)
            if trial % 2:
                k = rng.randint(1, 2)
                budgets = [rng.randint(0, k) for _ in range(ell)]
                budgets[rng.randrange(ell)] = 0
                inst = Instance("mlce", n, layers, k, rng.randint(0, 3), budgets=tuple(budgets))
            else:
                inst = Instance("mlce", n, layers, 0, rng.randint(0, 4))
            stats = SearchStats()
            got = solve_mlce(inst, check_invariants=True, stats=stats)
            want = oracle_mlce(inst)
            assert (got is None) == (want is None)
            if got is not None:
                assert verify(inst, got).ok
            routed += not inst.k and stats.nodes > 0
        assert routed > 50

    def test_zero_budget_sweep_with_p3s_matches_the_oracle(self, rng):
        """Every budget 0, n <= 8, layers with and without induced P3s.

        The route is sound because no edit is allowed: a layer with an
        induced P3 keeps it, whatever the marks, so the answer is no; and
        an induced subgraph of a cluster graph is one, so if every layer is
        a cluster graph, a mark set M is a solution exactly when the
        layers agree on every pair outside M, that is, when M touches
        every pair on which some layer differs from the first.  The oracle
        tries every mark set of at most d vertices against the definition,
        sharing no code with the route."""
        answers = Counter()
        for trial in range(300):
            n, ell = rng.randint(2, 8), rng.randint(1, 4)
            layers = (drifted_cluster_layers(rng, n, ell) if trial % 3 else
                      random_layers(rng, n, ell, density=rng.random()))
            inst = Instance("mlce", n, layers, 0, rng.randint(0, 4))
            got = solve_mlce(inst)
            want = oracle_mlce(inst)
            assert (got is None) == (want is None)
            if got is not None:
                assert verify(inst, got).ok and not any(got.edits)
            p3 = any(find_p3(g) for g in layers)
            answers[p3, got is not None] += 1
        assert answers[True, False] > 50 and answers[False, True] > 50
        assert answers[False, False] > 10


class TestRule1:
    def test_absent_on_cluster_layers(self):
        g = layer_from_edges(3, [(1, 2)])
        ctx = SearchContext(Instance("mlce", 3, (g, g), 1, 1))
        assert branching_rule_1(ctx, encode(ctx, (), g.edges)) is None

    def test_ref_after_greedy_six_children(self):
        inst = ref_instance("mlce", 1, 1)
        ctx = SearchContext(inst)
        c = greedy_initial_constraint(ctx)
        children = branching_rule_1(ctx, c)
        assert children is not None and len(children) == 6
        toggles = [ch for ch in children
                   if ctx.pair_set(ch.permanent) > ctx.pair_set(c.permanent)]
        marks = [ch for ch in children
                 if frozenset(bits(ch.marked)) > frozenset(bits(c.marked))]
        assert len(toggles) == 3 and len(marks) == 3
        for ch in children:
            assert agree_outside_marks(ctx, ch)
            assert extends(ch, c)
            assert constraint_quality(ch) == 1

    def test_witness_matches_core_find_p3(self, rng):
        # rule 1's toggle children flip exactly the witness's pairs that are
        # not permanent, so with nothing permanent they name first_p3's P3 of
        # the edited layer restricted to the unmarked vertices
        for _ in range(200):
            n = rng.randint(1, 9)
            g = random_layers(rng, n, 1, density=rng.random())[0]
            ctx = SearchContext(Instance("mlce", n, (g,), 0, 0))
            marked = frozenset(v for v in range(1, n + 1) if rng.random() < 0.2)
            edits = frozenset(p for p in combinations(range(1, n + 1), 2)
                              if rng.random() < 0.2 and not marked & set(p))
            c = encode(ctx, marked, g.edges ^ edits)
            assert ctx.edits(c) == [ctx.pair_mask(edits)]
            witness = first_p3(apply_edits(g, edits).adj,
                               vertex_mask(range(1, n + 1)) & ~vertex_mask(marked))
            children = branching_rule_1(ctx, c)
            if witness is None:
                assert children is None
                continue
            a, b, w = witness
            want = [pair(a, b), pair(b, w), pair(a, w)]
            toggled = [ctx.pair_set(ch.permanent) for ch in children if ch.permanent]
            assert toggled == [frozenset({p}) for p in want]
            assert [ctx.edits(ch)[0] for ch in children if ch.permanent] == \
                [ctx.edits(c)[0] ^ ctx.pair_mask([p]) for p in want]

    def test_fully_blocked_p3_rejects(self):
        # one layer, a P3 whose pairs are all permanent and whose vertices
        # all carry permanent pairs: no case applies
        g = layer_from_edges(3, [(1, 2), (2, 3)])
        inst = Instance("mlce", 3, (g,), 1, 1)
        ctx = SearchContext(inst)
        blocked = encode(ctx, (), g.edges, frozenset({(1, 2), (2, 3), (1, 3)}))
        assert branching_rule_1(ctx, blocked) == []


class TestRule2:
    def test_absent_when_budgets_fit(self):
        ctx = SearchContext(ref_instance("mlce", 3, 1))
        c = greedy_initial_constraint(ctx)
        assert branching_rule_2(ctx, c) is None

    def test_child_counts(self):
        g = layer_from_edges(4, [])
        inst = Instance("mlce", 4, (g,), 1, 1)
        ctx = SearchContext(inst)
        c = encode(ctx, (), frozenset({(1, 2), (3, 4)}))
        children = branching_rule_2(ctx, c)
        toggles = [ch for ch in children if ch.permanent]
        marks = [ch for ch in children if ch.marked]
        assert len(toggles) == 2          # k + 1
        assert len(marks) == 4            # at most 2 (k + 1)

    def test_repairs_the_layer_over_its_own_budget(self):
        # two edits fit layer 1's budget of 2 but not layer 2's budget of 1
        g = layer_from_edges(4, [])
        inst = Instance("mlce", 4, (g, g), 2, 1, budgets=(2, 1))
        ctx = SearchContext(inst)
        m = frozenset({(1, 2), (3, 4)})
        c = encode(ctx, (), m)
        children = branching_rule_2(ctx, c)
        assert len([ch for ch in children if ch.permanent]) == 2  # k_2 + 1
        # with layer 2 holding m, the target m edits layer 1 alone
        ctx = SearchContext(replace(inst, layers=layers_of(4, [], m)))
        assert branching_rule_2(ctx, encode(ctx, (), m)) is None

    def test_builds_no_child_rule_0_drops(self, rng):
        # along random descents through children within budget, rule 2's
        # children all keep to the budgets, also where a layer's frozen
        # edits fill its budget or the marks are used up
        def over_budget(ctx, ch):
            # more than d marks, or a layer with more frozen edits than k_i
            return ch.marked.bit_count() > ctx.inst.d or any(
                (m & ch.permanent).bit_count() > k_i
                for m, k_i in zip(ctx.edits(ch), ctx.budgets))

        seen = Counter()
        for _ in range(400):
            inst = random_instance(rng, "mlce", max_n=7, max_ell=4, max_k=2, max_d=2)
            ctx = SearchContext(inst)
            c = greedy_initial_constraint(ctx)
            for _ in range(12):
                children = branching_rule_2(ctx, c)
                if children is not None:
                    assert not any(over_budget(ctx, ch) for ch in children)
                    seen["full"] += any((m & c.permanent).bit_count() == k_i
                                        for m, k_i in zip(ctx.edits(c), ctx.budgets))
                    seen["at d"] += c.marked.bit_count() == inst.d
                for rule in (branching_rule_1, branching_rule_2, branching_rule_3):
                    children = rule(ctx, c)
                    if children is not None:
                        break
                children = [ch for ch in children or () if not over_budget(ctx, ch)]
                if not children:
                    break
                c = rng.choice(children)
        assert seen["full"] > 50 and seen["at d"] > 50

    def test_greedy_misfire_gets_undone(self):
        # two layers, one stray edge: greedy copies it into layer 2, and at
        # k=0 the rule must offer children that remove that edit again
        inst = Instance("mlce", 2,
                        (layer_from_edges(2, [(1, 2)]), layer_from_edges(2, [])),
                        0, 1)
        ctx = SearchContext(inst)
        c = greedy_initial_constraint(ctx)
        assert ctx.pair_set(ctx.edits(c)[1]) == frozenset({(1, 2)})
        children = branching_rule_2(ctx, c)
        assert children
        assert any((1, 2) not in ctx.pair_set(ctx.edits(ch)[1]) for ch in children)
        # ... and the instance as a whole is solvable by marking one endpoint
        assert solve_mlce(inst) is not None


class TestKernelK:
    def test_cluster_graph_stripped_entirely(self):
        g = layer_from_edges(4, [(1, 2), (3, 4)])
        out = kernel_k(layer_context(g), 0, 0, 0, 0, 0)
        assert out == (0, 0)

    def test_all_obligatory_p3_fails(self):
        g = layer_from_edges(3, [(1, 2), (2, 3)])
        ctx = layer_context(g)
        out = kernel_k(ctx, 0, 0, 5, 0, ctx.pair_mask({(1, 2), (2, 3), (1, 3)}))
        assert out is None

    def test_star_with_budget_one_fails(self):
        # K(1,3): every center edge sits in 2 = budget+1 induced P3s, so the
        # first forced toggle spends the budget and the next one overruns it
        g = layer_from_edges(4, [(1, 2), (1, 3), (1, 4)])
        assert count_p3s(g, (1, 2)) == 2
        assert kernel_k(layer_context(g), 0, 0, 1, 0, 0) is None

    def test_forced_edits_respect_marks(self):
        # same star, center marked: forced pairs touching it stay out of R
        g = layer_from_edges(4, [(1, 2), (1, 3), (1, 4)])
        ctx = layer_context(g)
        out = kernel_k(ctx, 0, 0, 3, vertex_mask({1}), 0)
        assert out is not None
        forced, open_pairs = out
        assert forced == 0
        assert all(1 not in p for p in ctx.pair_set(open_pairs))

    def test_same_answer_on_any_memo(self, rng, monkeypatch):
        # layer g with x toggled: on a fresh context, on one whose P3 rows
        # were memoised for other toggle sets first, and with no memo at all,
        # the kernel agrees with a frozenset reference on g xor x
        def reference(ctx, x, budget, marked, obligatory):
            out = reference_kernel(apply_edits(ctx.inst.layers[0], ctx.pair_set(x)), budget,
                                   frozenset(bits(marked)), ctx.pair_set(obligatory))
            return out and (ctx.pair_mask(out[0]), ctx.pair_mask(out[1]))

        cases, seen = [], Counter()
        for _ in range(120):
            n = rng.randint(1, 9)
            g = random_layers(rng, n, 1, rng.random())[0]
            for _ in range(4):
                x = random_mask(rng, n, rng.choice((0.0, 0.1, 0.3)))
                cases.append((g, x, rng.randint(-1, 4), random_mask(rng, n, 0.2, vertices=True),
                              x & random_mask(rng, n, rng.choice((0.0, 0.3, 1.0)))))
        warm = {g: layer_context(g) for g, *_ in cases}
        for g, x, budget, marked, oblig in cases:
            ctx = warm[g]
            want = reference(ctx, x, budget, marked, oblig)
            assert kernel_k(layer_context(g), 0, x, budget, marked, oblig) == want
            assert kernel_k(ctx, 0, x, budget, marked, oblig) == want
            ctx.toggled_p3s(0, x ^ random_mask(rng, g.n, 0.2))
            seen["none" if want is None else "forced" if want[0] else "kept"] += 1
        monkeypatch.setattr(branching, "FAILED_CAP", 0)
        for g, x, budget, marked, oblig in cases:
            ctx = layer_context(g)
            assert kernel_k(ctx, 0, x, budget, marked, oblig) == \
                reference(ctx, x, budget, marked, oblig)
        assert seen["forced"] > 15 and seen["none"] > 100 and seen["kept"] > 100, seen


def random_mask(rng, n, rate, vertices=False):
    """A random vertex mask over 1..n, or a pair mask over all_pairs(n)."""
    items = range(1, n + 1) if vertices else range(n * (n - 1) // 2)
    return sum(1 << j for j in items if rng.random() < rate)


def reference_kernel(g, budget, marked, obligatory):
    """``kernel_k`` on frozensets of pairs, rescanning the layer each round."""
    oblig, forced = set(obligatory), set()
    while True:
        if budget < 0:
            return None
        p3s = list(adj_p3s(g.adj))
        if any({pair(a, b), pair(b, c), (a, c)} <= oblig for a, b, c in p3s):
            return None
        candidates = sorted({p for a, b, c in p3s for p in (pair(a, b), pair(b, c), (a, c))})
        hit = next((p for p in candidates if p3_through_pair(g.adj, *p).bit_count() > budget),
                   None)
        if hit is None:
            break
        if hit in oblig:
            return None
        g = apply_edits(g, {hit})
        oblig.add(hit)
        budget -= 1
        if not marked & set(hit):
            forced.add(hit)
    verts = {v for p3 in p3s for v in p3}
    if len(verts) > budget * budget + 2 * budget:
        return None
    return forced, {p for p in pairs_of(verts) if not marked & set(p) and p not in oblig}


def count_p3s(g, p):
    expected = 0
    for w in range(1, g.n + 1):
        if w in p:
            continue
        cnt = sum(has_edge(g, a, b) for a, b in combinations(sorted({*p, w}), 2))
        if cnt == 2:
            expected += 1
    return expected


def transitive(n, edges):
    """Every two neighbours of a vertex are adjacent: a cluster graph."""
    nbrs = {v: set() for v in range(1, n + 1)}
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return all(b in nbrs[a] for v in nbrs for a in nbrs[v] for b in nbrs[v] if a != b)


class TestMinMarkedCompletion:
    def test_cluster_graph_needs_nothing(self):
        g = layer_from_edges(4, [(1, 2)])
        assert min_marked_completion(g.adj, vertex_mask({1}), 0) == frozenset()

    def test_p3_with_marked_center(self):
        g = layer_from_edges(3, [(1, 2), (2, 3)])
        m = min_marked_completion(g.adj, vertex_mask({2}), 1)
        assert m in (frozenset({(1, 2)}), frozenset({(2, 3)}))

    def test_p3_with_zero_budget(self):
        g = layer_from_edges(3, [(1, 2), (2, 3)])
        assert min_marked_completion(g.adj, vertex_mask({2}), 0) is None

    def test_precondition_enforced(self):
        g = layer_from_edges(3, [(1, 2), (2, 3)])
        with pytest.raises(RuntimeError):
            min_marked_completion(g.adj, 0, 2)

    def test_minimality_against_enumeration(self, rng):
        # the fewest marked-touching toggles, by brute force over their
        # subsets of up to 3 pairs and a cluster test of its own
        sizes = Counter()
        for _ in range(120):
            n = rng.randint(3, 7)
            marked = frozenset(v for v in range(1, n + 1) if rng.random() < 0.4)
            unmarked = [v for v in range(1, n + 1) if v not in marked]
            group = {v: rng.randrange(3) for v in unmarked}
            pairs = list(combinations(range(1, n + 1), 2))
            allowed = [p for p in pairs if p[0] in marked or p[1] in marked]
            edges = {p for p in pairs if p[0] in group and p[1] in group
                     and group[p[0]] == group[p[1]]}
            edges |= {p for p in allowed if rng.random() < 0.5}
            best = next((size for size in range(4)
                         if any(transitive(n, edges ^ set(combo))
                                for combo in combinations(allowed, size))), None)
            sizes[best] += 1
            g = layer_from_edges(n, edges)
            for budget in range(-1, 4):
                got = min_marked_completion(g.adj, vertex_mask(marked), budget)
                if best is None or budget < best:
                    assert got is None
                else:
                    assert got is not None and len(got) == best
                    assert transitive(n, edges ^ got)
                    assert all(p[0] in marked or p[1] in marked for p in got)
        assert sizes[None] and all(sizes[size] for size in range(4))


class TestRule3:
    def test_absent_when_all_layers_completable(self):
        g = layer_from_edges(4, [(1, 2), (3, 4)])
        inst = Instance("mlce", 4, (g, g), 2, 1)
        ctx = SearchContext(inst)
        c = greedy_initial_constraint(ctx)
        assert branching_rule_3(ctx, c) is None

    def test_straddling_marked_vertex_rejects(self):
        # vertex 7 sits astride two triangles; with zero budget and no loose
        # edits to undo, the branch is dead and the rule returns no children
        edges = list(combinations([1, 2, 3], 2)) + list(combinations([4, 5, 6], 2))
        edges += [(1, 7), (2, 7), (3, 7), (4, 7), (5, 7), (6, 7)]
        g = layer_from_edges(7, edges)
        inst = Instance("mlce", 7, (g,), 0, 1)
        ctx = SearchContext(inst)
        c = encode(ctx, {7}, g.edges)
        assert min_marked_completion(g.adj, vertex_mask({7}), 0) is None
        assert branching_rule_3(ctx, c) == []

    def test_children_extend_and_progress(self):
        # single layer 1-4, 3-4 with vertex 4 marked and a loose recorded
        # deletion of 1-2: the layer resists marked-only completion within
        # the remaining budget, so the rule branches on undoing that edit
        g = layer_from_edges(4, [(1, 2), (1, 4), (3, 4)])
        inst = Instance("mlce", 4, (g,), 1, 2)
        ctx = SearchContext(inst)
        c = encode(ctx, {4}, g.edges ^ {(1, 2)})
        assert ctx.edits(c) == [ctx.pair_mask([(1, 2)])]
        assert min_marked_completion(
            apply_edits(g, frozenset({(1, 2)})).adj, vertex_mask({4}), 0) is None
        children = branching_rule_3(ctx, c)
        assert children
        for ch in children:
            assert extends(ch, c)
            assert constraint_quality(ch) > constraint_quality(c)
        # the undo options: mark 1, mark 2, or freeze the deletion
        assert any(ch.marked == vertex_mask({1, 4}) for ch in children)
        assert any(ch.marked == vertex_mask({2, 4}) for ch in children)
        assert any((1, 2) in ctx.pair_set(ch.permanent) for ch in children)

    def test_child_count_bound(self):
        # children never exceed 3k + 2|forced| + 1 + 3|open|
        g = layer_from_edges(4, [(1, 2), (1, 4), (3, 4)])
        inst = Instance("mlce", 4, (g,), 1, 2)
        ctx = SearchContext(inst)
        c = encode(ctx, {4}, g.edges ^ {(1, 2)})
        assert ctx.edits(c) == [ctx.pair_mask([(1, 2)])]
        children = branching_rule_3(ctx, c)
        kernel = kernel_k(ctx, 0, ctx.pair_mask({(1, 2)}), 0, vertex_mask({4}), 0)
        bound = 3 * 1 + 1
        if kernel is not None:
            forced, open_pairs = kernel
            bound = 3 * 1 + 2 * forced.bit_count() + 1 + 3 * open_pairs.bit_count()
        assert len(children) <= bound

    def test_kernel_children_pass_the_invariant_checks(self, monkeypatch):
        # rule 3 tells its kernel that the layer's edits and the permanent
        # pairs stay, so every kernel child extends its parent and raises its
        # quality, which check mode asserts of each child; a kernel told only
        # the layer's permanent edits, its children unfiltered, can propose
        # undoing a permanent pair, and InvariantViolation is raised here
        results = []
        kernel = branching.kernel_k
        monkeypatch.setattr(branching, "kernel_k",
                            lambda *args: results.append(kernel(*args)) or results[-1])
        rng, compared = random.Random(11), 0
        for _ in range(3000):
            n, ell = rng.randint(4, 9), rng.randint(2, 4)
            inst = Instance("mlce", n, random_layers(rng, n, ell, density=rng.random()),
                            rng.randint(1, 3), rng.randint(0, 3))
            if rng.random() < 1 / 3:
                inst = with_random_budgets(rng, inst)
            got = solve_mlce(inst, check_invariants=True)
            if n <= 5:  # the oracle's cost grows fast with n
                assert (got is None) == (oracle_mlce(inst) is None)
                compared += 1
        assert sum(out is not None for out in results) >= 100 and compared > 900


def child_kinds(ctx, parent, children):
    """Each child as ("mark", its new mark) or ("toggle", its new permanent pairs)."""
    return [("mark", *bits(ch.marked & ~parent.marked)) if ch.marked != parent.marked else
            ("toggle", *sorted(ctx.pair_set(ch.permanent & ~parent.permanent)))
            for ch in children]


class TestChildOrder:
    """Every rule lists its mark children first, one per vertex, the vertex
    at the most pairs where some edited layer differs from the target
    first and ties in the rule's order, then its toggle children."""

    def test_rule_1_marks_the_p3_by_disagreement(self):
        # the target's P3 1-2-3 (center 2); the layer differs from it at
        # 3-4 and 3-5, 2-4 and 1-5: vertex 3 twice, vertices 1 and 2 once
        g = layer_from_edges(5, [(1, 2), (2, 3), (3, 4), (3, 5), (2, 4), (1, 5)])
        ctx = SearchContext(Instance("mlce", 5, (g,), 4, 1))
        c = encode(ctx, (), {(1, 2), (2, 3)})
        assert first_p3(ctx.toggled_adj(0, ctx.edits(c)[0]), ctx.vertices) == (1, 2, 3)
        assert child_kinds(ctx, c, branching_rule_1(ctx, c)) == [
            ("mark", 3), ("mark", 1), ("mark", 2),
            ("toggle", (1, 2)), ("toggle", (2, 3)), ("toggle", (1, 3))]

    def test_rule_2_marks_a_shared_end_once(self):
        # layer 1 (budget 1) holds the loose edits 1-2 and 1-3, which share
        # vertex 1; the layers differ from the target at 1-2, 1-3, 2-4, 3-4
        # and 3-5: vertex 3 three times, vertices 1 and 2 twice
        layers = layers_of(5, [], [(2, 4), (3, 4), (3, 5)])
        ctx = SearchContext(Instance("mlce", 5, layers, 5, 1, budgets=(1, 5)))
        c = encode(ctx, (), {(1, 2), (1, 3)})
        assert child_kinds(ctx, c, branching_rule_2(ctx, c)) == [
            ("mark", 3), ("mark", 1), ("mark", 2), ("toggle", (1, 2)), ("toggle", (1, 3))]

    def test_rule_3_marks_its_loose_ends_before_their_toggles(self):
        # vertex 4 marked; the loose edits 1-3 and 2-3 share vertex 3, and
        # the layer cannot be finished by edits at vertex 4 alone
        g = layer_from_edges(5, [(1, 2), (1, 5), (2, 5), (3, 4), (3, 5), (4, 5)])
        ctx = SearchContext(Instance("mlce", 5, (g,), 2, 2))
        c = encode(ctx, {4}, g.edges ^ {(1, 3), (2, 3)})
        assert branching_rule_1(ctx, c) is None and branching_rule_2(ctx, c) is None
        assert kernel_k(ctx, 0, ctx.edits(c)[0], 0, c.marked, ctx.edits(c)[0]) is None
        assert child_kinds(ctx, c, branching_rule_3(ctx, c)) == [
            ("mark", 3), ("mark", 1), ("mark", 2), ("toggle", (1, 3)), ("toggle", (2, 3))]

    def test_no_mark_child_at_a_permanent_pair_or_past_d(self):
        layers = layers_of(5, [], [(2, 4), (3, 4), (3, 5)])
        ctx = SearchContext(Instance("mlce", 5, layers, 5, 1, budgets=(1, 5)))
        c = encode(ctx, (), {(1, 2), (1, 3)}, {(3, 5)})
        assert child_kinds(ctx, c, branching_rule_2(ctx, c)) == [
            ("mark", 1), ("mark", 2), ("toggle", (1, 2)), ("toggle", (1, 3))]
        c = encode(ctx, {5}, {(1, 2), (1, 3)})
        assert child_kinds(ctx, c, branching_rule_2(ctx, c)) == [
            ("toggle", (1, 2)), ("toggle", (1, 3))]


class TestQuality:
    def test_empty_is_zero(self):
        assert constraint_quality(empty_constraint()) == 0

    def test_counts_marks_and_permanent(self):
        c = encode(context(3), {1, 2}, (), frozenset({(1, 2), (1, 3), (2, 3)}))
        assert constraint_quality(c) == 5


class TestSolveMlce:
    def test_ref_decisions(self):
        assert solve_mlce(ref_instance("mlce", 3, 1)) is not None
        assert solve_mlce(ref_instance("mlce", 1, 2)) is not None
        assert solve_mlce(ref_instance("mlce", 2, 0)) is None
        assert solve_mlce(ref_instance("mlce", 0, 1)) is None

    def test_ref_solution_verifies(self):
        inst = ref_instance("mlce", 1, 2)
        sol = solve_mlce(inst)
        assert verify(inst, sol).ok

    def test_oracle_equivalence_instrumented(self, rng):
        stats = SearchStats()
        for _ in range(150):
            inst = random_instance(rng, "mlce")
            got = solve_mlce(inst, check_invariants=True, stats=stats)
            want = oracle_mlce(inst)
            assert (got is None) == (want is None)
            if got is not None:
                assert verify(inst, got).ok
        assert stats.nodes > 0

    def test_skipping_failed_repeats_keeps_the_solution(self, rng, monkeypatch):
        insts = [ref_instance("mlce", k, d) for k in range(4) for d in range(4)]
        insts += [random_instance(rng, "mlce", max_n=6) for _ in range(60)]
        # drift-2 planted instances, at their stored budgets and with one
        # mark fewer, where the search meets a failed constraint again
        for n in (14, 16, 18, 20):
            for seed in range(6):
                inst = generate_planted(PlantedParams(n, 4, n // 3 + 1, 2, 2, seed), "mlce")
                insts += [inst, replace(inst, d=inst.d - 1)]
        with_memo = []
        for inst in insts:
            stats = SearchStats()
            with_memo.append((solve_mlce(inst, stats=stats), stats.nodes))
        monkeypatch.setattr(branching, "FAILED_CAP", 0)
        skipped = 0
        for inst, (sol, nodes) in zip(insts, with_memo):
            stats = SearchStats()
            assert solve_mlce(inst, stats=stats) == sol
            assert stats.nodes >= nodes
            skipped += stats.nodes - nodes
        assert skipped > 0

    def test_drift_2_wall_decides_in_few_nodes(self):
        # n = 40, ell = 6, drift 2, stored k = 8 and d = 9: with the marks
        # in witness order the search enters 167,891 nodes here (283,170
        # with the toggles first as well); the most-disagreeing vertex
        # first reaches a solution in 23
        inst = generate_planted(PlantedParams(40, 6, 14, 2, 8, 0), "mlce")
        assert (inst.k, inst.d) == (8, 9)
        stats = SearchStats()
        sol = solve_mlce(inst, stats=stats)
        assert sol is not None and verify(inst, sol).ok
        assert stats.nodes <= 1000

    def test_accepted_leaf_completes_each_layer_once(self, rng, monkeypatch):
        calls = []
        complete = branching.min_marked_completion
        monkeypatch.setattr(branching, "min_marked_completion",
                            lambda *args: calls.append(args) or complete(*args))
        # equal cluster layers: rule 3 completes each layer, and the root is
        # accepted (k = 1, as the cover decides k = 0 without a search)
        g = layer_from_edges(5, [(1, 2), (3, 4)])
        assert solve_mlce(Instance("mlce", 5, (g,) * 3, 1, 0)) is not None
        assert len(calls) == 3
        # on deeper searches, extraction completes no layer again
        extract = branching._extract_solution
        during = []

        def counted(*args):
            before = len(calls)
            sol = extract(*args)
            during.append(len(calls) - before)
            return sol

        monkeypatch.setattr(branching, "_extract_solution", counted)
        marked = 0
        for _ in range(60):
            sol = solve_mlce(random_instance(rng, "mlce", max_n=6))
            marked += sol is not None and bool(sol.marked)
        assert during and not any(during) and marked > 5

    def test_trace_emits_lines(self):
        lines = []
        solve_mlce(ref_instance("mlce", 1, 2), trace=lines.append)
        assert lines and all(line.startswith("TRACE ") for line in lines)

    def test_mode_mismatch(self):
        with pytest.raises(Exception):
            solve_mlce(ref_instance("tce", 1, 1))
