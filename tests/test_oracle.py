
import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

from layeredit import oracle
from layeredit.branching import solve_mlce
from layeredit.core import Instance, InputError, layer_from_edges, replace, verify
from layeredit.fileio import Formula223, generate_sat_reduction
from layeredit.oracle import (
    CapabilityError,
    MARK_SETS_CAP,
    oracle_mlce,
    oracle_tce,
    set_partitions,
    structured_mlce,
)

from layeredit.tcepath import solve_tce_xp

from conftest import (check_solution_independently, drifted_cluster_layers, ref_instance,
                      random_instance, with_random_budgets)

from math import comb


class TestGuards:
    def test_k_guard(self):
        g = layer_from_edges(3, [])
        inst = Instance("mlce", 3, (g,), 5, 0)
        with pytest.raises(CapabilityError):
            oracle_mlce(inst)
        # the guard reads the layer budgets, not the cap k above them
        assert oracle_mlce(Instance("mlce", 3, (g,), 5, 0, budgets=(1,))) is not None

    def test_ell_guard(self):
        g = layer_from_edges(3, [])
        inst = Instance("tce", 3, (g,) * 5, 1, 0)
        with pytest.raises(CapabilityError):
            oracle_tce(inst)

    def test_structured_n_guard(self):
        g = layer_from_edges(9, [])
        inst = Instance("mlce", 9, (g,), 0, 0)
        with pytest.raises(CapabilityError):
            structured_mlce(inst)

    def test_work_guard_is_hard_error(self):
        # huge n at k=2 exceeds both enumeration routes
        g = layer_from_edges(60, [(1, 2), (2, 3)])
        inst = Instance("mlce", 60, (g,), 2, 1)
        with pytest.raises(CapabilityError):
            oracle_mlce(inst)

    def test_cover_guard_on_unsatisfiable_sat_reductions(self):
        # every budget is 0, so edits-first asks one cover question, with d
        # 2-4 per variable; its 2^d branches pass MARK_SETS_CAP from 5
        # variables (d = 21), and 11 variables (d = 47) once ran for minutes
        four = Formula223(4, ((-3, -2), (1, 3), (2, -4, 1), (4, -3), (-2, 4), (-4, -1, 2),
                              (3, -1)))
        assert oracle_mlce(generate_sat_reduction(four)) is None
        five = Formula223(5, ((3, -5, -4), (-3, 2, 5), (-4, -2), (4, -2), (1, 3), (4, 5),
                              (-5, 1), (-3, -1), (-1, 2)))
        eleven = Formula223(11, (
            (3, -9), (9, 7), (-4, -8), (-11, -10), (9, -2), (11, 6), (-7, 6, -2), (-11, -3),
            (4, -8), (-1, 2, -9), (-5, 3, 8), (8, -10, 11), (1, 10), (-6, 7), (-1, 4, 10),
            (1, -4), (-5, -7), (2, 5), (-6, -3, 5)))
        for formula in (five, eleven):
            inst = generate_sat_reduction(formula)
            assert not formula.satisfiable() and 2 ** inst.d > MARK_SETS_CAP
            with pytest.raises(CapabilityError, match=f"within d={inst.d} "):
                oracle_mlce(inst)

    def test_mode_mismatch(self):
        with pytest.raises(InputError):
            oracle_mlce(ref_instance("tce", 1, 1))
        with pytest.raises(InputError):
            oracle_tce(ref_instance("mlce", 1, 1))


class TestRoutes:
    """The mlce oracle runs edits-first when its edit combinations number at
    most the mark sets and at most ``COMBINATIONS_CAP``, else mark-first
    within ``MARK_SETS_CAP``, else refuses."""

    def test_each_route_decides_as_the_structured_oracle(self, rng, monkeypatch):
        cases = []
        for i in range(120):
            inst = random_instance(rng, "mlce", max_n=8 if i % 6 == 0 else 7)
            if i % 3 == 1:
                inst = replace(inst, k=0)
            elif i % 3 == 2:
                inst = with_random_budgets(rng, inst)
            cases.append((inst, structured_mlce(inst)))
        for route in ("edits-first", "mark-first"):
            calls = Counter()
            with monkeypatch.context() as patch:
                for name in ("_mark_candidates", "_cover_within"):
                    def counted(*args, name=name, real=getattr(oracle, name)):
                        calls[name] += 1
                        return real(*args)
                    patch.setattr(oracle, name, counted)
                if route == "edits-first":
                    # every count read through comb is huge, so mark-first
                    # never looks cheaper; the enumeration guard is lifted to match
                    patch.setattr(oracle, "comb", lambda a, b: 10 ** 9)
                    patch.setattr(oracle, "ENUM_WORK_CAP", 10 ** 12)
                    used, unused = "_cover_within", "_mark_candidates"
                else:
                    patch.setattr(oracle, "COMBINATIONS_CAP", -1)
                    used, unused = "_mark_candidates", "_cover_within"
                answers = Counter()
                for inst, want in cases:
                    got = oracle_mlce(inst)
                    assert (got is None) == (want is None), (route, inst)
                    if got is not None:
                        assert verify(inst, got).ok
                    answers[got is not None, not any(inst.edit_budgets)] += 1
            assert calls[used] and not calls[unused], route
            assert min(answers.values()) >= 10 and len(answers) == 4, answers

    @pytest.mark.parametrize("formula, satisfiable", [
        (Formula223(2, ((1, 2), (1, 2), (-1, -2), (-1, -2))), True),
        (Formula223(2, ((1, 2), (-1, -2), (1, -2), (-1, 2))), False),
    ])
    def test_two_variable_reductions_skip_mark_first(self, monkeypatch, formula, satisfiable):
        # every budget is 0, so there is at most one edit combination
        def refuse(*args):
            raise AssertionError("mark-first ran")
        monkeypatch.setattr(oracle, "_mark_candidates", refuse)
        inst = generate_sat_reduction(formula)
        sol = oracle_mlce(inst)
        assert (sol is not None) == satisfiable
        if sol is not None:
            assert verify(inst, sol).ok

    def test_refuses_only_past_both_caps(self, monkeypatch):
        # two edgeless layers at k=1: each may add any one edge, so there are
        # 436**2 = 190,096 edit combinations; d=6 gives 768,212 mark sets
        g = layer_from_edges(30, [])
        with pytest.raises(CapabilityError):
            oracle_mlce(Instance("mlce", 30, (g, g), 1, 6))
        assert oracle_mlce(Instance("mlce", 30, (g, g), 1, 5)) is not None  # 174,437 mark sets
        assert oracle_mlce(Instance("mlce", 30, (g,), 1, 6)) is not None  # 436 combinations
        # one edgeless layer at n=4, k=1 and d=4: 7 edit combinations and 16
        # mark sets; each cap is inclusive, and passing one alone is no refusal
        inst = Instance("mlce", 4, (layer_from_edges(4, []),), 1, 4)
        for mark_cap, combo_cap in [(15, 6), (16, 6), (15, 7)]:
            monkeypatch.setattr(oracle, "MARK_SETS_CAP", mark_cap)
            monkeypatch.setattr(oracle, "COMBINATIONS_CAP", combo_cap)
            if (mark_cap, combo_cap) == (15, 6):
                with pytest.raises(CapabilityError):
                    oracle_mlce(inst)
            else:
                assert oracle_mlce(inst) is not None


class TestFig1Decisions:
    def test_mlce(self):
        assert oracle_mlce(ref_instance("mlce", 1, 2)) is not None
        assert oracle_mlce(ref_instance("mlce", 3, 1)) is not None
        assert oracle_mlce(ref_instance("mlce", 2, 0)) is None
        assert oracle_mlce(ref_instance("mlce", 0, 1)) is None

    def test_tce(self):
        assert oracle_tce(ref_instance("tce", 1, 1)) is not None
        assert oracle_tce(ref_instance("tce", 0, 3)) is None
        assert oracle_tce(ref_instance("tce", 3, 0)) is None

    def test_structured(self):
        assert structured_mlce(ref_instance("mlce", 1, 2)) is not None
        assert structured_mlce(ref_instance("mlce", 3, 1)) is not None
        assert structured_mlce(ref_instance("mlce", 2, 0)) is None


class TestTrivialInstances:
    def test_single_empty_layer(self):
        g = layer_from_edges(3, [])
        inst = Instance("mlce", 3, (g,), 0, 0)
        sol = oracle_mlce(inst)
        assert sol is not None and sol.edits == (frozenset(),)

    def test_tce_single_p3_layer(self):
        g = layer_from_edges(3, [(1, 2), (2, 3)])
        inst = Instance("tce", 3, (g,), 1, 0)
        assert oracle_tce(inst) is not None

    def test_structured_identical_cluster_layers(self):
        g = layer_from_edges(4, [(1, 2), (3, 4)])
        inst = Instance("mlce", 4, (g, g), 0, 0)
        assert structured_mlce(inst) is not None


class TestSetPartitions:
    def test_counts_are_bell_numbers(self):
        for n, bell in [(0, 1), (1, 1), (2, 2), (3, 5), (4, 15), (5, 52)]:
            assert sum(1 for _ in set_partitions(list(range(n)))) == bell

    def test_each_partition_once(self):
        seen = set()
        for parts in set_partitions([1, 2, 3, 4]):
            key = frozenset(frozenset(p) for p in parts)
            assert key not in seen
            seen.add(key)


class TestOracleAgreement:
    def test_dual_oracle_agreement(self, rng):
        insts = [random_instance(rng, "mlce") for _ in range(300)]
        # past the defaults (n <= 5, d <= 2): drifted cluster layers at n 6-8
        # with up to three marks, which may join a block or open their own,
        # and a budget per layer
        for _ in range(16):
            n = rng.randint(6, 8)
            layers = drifted_cluster_layers(rng, n, rng.randint(1, 4))
            insts.append(with_random_budgets(
                rng, Instance("mlce", n, layers, rng.randint(0, 2), rng.randint(0, 3))))
        for inst in insts:
            a = oracle_mlce(inst)
            b = structured_mlce(inst)
            assert (a is None) == (b is None)
            if a is not None:
                assert verify(inst, a).ok
                assert verify(inst, b).ok

    def test_monotone_in_budgets(self, rng):
        for _ in range(40):
            inst = random_instance(rng, "mlce", max_k=1, max_d=1)
            if oracle_mlce(inst) is None:
                continue
            assert oracle_mlce(replace(inst, k=inst.k + 1)) is not None
            assert oracle_mlce(replace(inst, d=inst.d + 1)) is not None

    def test_yes_outputs_self_verify(self, rng):
        for mode in ("mlce", "tce"):
            oracle = oracle_mlce if mode == "mlce" else oracle_tce
            for _ in range(60):
                inst = random_instance(rng, mode)
                sol = oracle(inst)
                if sol is not None:
                    assert verify(inst, sol).ok


class TestSeparateBudgets:
    def test_budget_vector_respected(self):
        # the stray P3 sits in layer 1; only a budget there helps
        g1 = layer_from_edges(3, [(1, 2), (2, 3)])
        g2 = layer_from_edges(3, [(1, 2)])
        assert oracle_mlce(Instance("mlce", 3, (g1, g2), 1, 3, budgets=(1, 1))) is not None
        assert oracle_mlce(Instance("mlce", 3, (g1, g2), 1, 3, budgets=(0, 1))) is None

    def test_negative_budget_is_no(self):
        g = layer_from_edges(2, [])
        inst = Instance("mlce", 2, (g,), 0, 0, budgets=(-1,))
        assert oracle_mlce(inst) is None

    def test_solvers_agree_with_the_oracles(self, rng):
        # budgets drawn per layer, a negative one in about a quarter of the
        # instances: every solver then answers no, xp without raising
        answers = Counter()
        for _ in range(300):
            mode = rng.choice(["mlce", "tce"])
            inst = with_random_budgets(rng, random_instance(rng, mode, max_n=6),
                                       low=rng.choice([-1, 0, 0, 0]))
            if mode == "mlce":
                sols = [solve_mlce(inst, check_invariants=True), structured_mlce(inst),
                        oracle_mlce(inst)]
            else:
                sols = [solve_tce_xp(inst), oracle_tce(inst)]
            yes = sols[0] is not None
            assert all((sol is not None) == yes for sol in sols), inst
            for sol in sols:
                if sol is not None:
                    assert verify(inst, sol).ok
                    assert check_solution_independently(inst, sol) == []
            negative = min(inst.edit_budgets) < 0
            assert not (negative and yes)
            answers[mode, yes, negative, bool(inst.budgets)] += 1
        for mode in ("mlce", "tce"):
            assert answers[mode, True, False, True] > 10
            assert answers[mode, False, False, True] > 10
            assert answers[mode, False, True, True] > 10


def test_oracle_does_not_import_the_xp_solver():
    # the ground truth must not share enumeration code with tcepath
    source = Path(importlib.import_module("layeredit.oracle").__file__)
    tree = ast.parse(source.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not any("tcepath" in name for name in imported)
