

import pytest

from layeredit.core import Instance, layer_from_edges, replace, verify
from layeredit.fileio import (
    Formula223,
    ParseError,
    PlantedParams,
    generate_planted,
    generate_planted_logged,
    generate_sat_reduction,
    parse_formula,
    parse_instance,
    parse_solution,
    serialize_instance,
    serialize_solution,
)
from layeredit.core import InputError
from layeredit.oracle import oracle_mlce, oracle_tce

from conftest import ref_instance, ref_tce_solution, random_instance, with_random_budgets

REF_TEXT = """\
# the worked 5-vertex, 3-layer example
mlg 1
mode mlce
n 5
ell 3
k 1
d 2
layer 1
1 2
1 3
1 4
2 3
2 4
3 4
4 5
layer 2
2 3
2 4
3 4
4 5
layer 3
2 3
2 4
2 5
3 4
3 5
end
"""


# the worked example with budgets 1, 0 and -1 in its layers
REF_TEXT_2 = REF_TEXT.replace("mlg 1\n", "mlg 2\n").replace("d 2\n", "d 2\nbudgets 1 0 -1\n")


class TestInstanceRoundTrip:
    def test_ref_fixture_parses(self):
        inst = parse_instance(REF_TEXT)
        assert inst == ref_instance("mlce", 1, 2)

    def test_round_trip_identity(self, rng):
        cases = []
        for mode in ("mlce", "tce"):
            for _ in range(40):
                inst = random_instance(rng, mode)
                cases += [inst, with_random_budgets(rng, inst, low=-1)]
            cases.append(Instance(mode, 0, (layer_from_edges(0, ()),) * 2, 1, 0))
        assert any(min(inst.edit_budgets) < 0 for inst in cases)
        for inst in cases:
            text = serialize_instance(inst)
            assert text.startswith("mlg 2\n" if inst.budgets else "mlg 1\n")
            assert parse_instance(text) == inst

    def test_serialize_is_canonical(self, rng):
        inst = random_instance(rng, "mlce")
        text = serialize_instance(inst)
        assert serialize_instance(parse_instance(text)) == text

    def test_per_layer_budgets_are_not_written(self):
        # mlg 1 has one k: budgets that differ by layer are written as mlg 2,
        # with a budgets line after d, and budgets of k everywhere as mlg 1
        inst = ref_instance("mlce", 1, 2)
        text = serialize_instance(replace(inst, budgets=(1, 0, -1)))
        assert text == REF_TEXT_2.split("\n", 1)[1]  # less its comment line
        assert parse_instance(text) == replace(inst, budgets=(1, 0, -1))
        assert serialize_instance(replace(inst, budgets=(1, 1, 1))) == serialize_instance(inst)

    def test_comments_ignored(self):
        text = serialize_instance(ref_instance("tce", 1, 1), comments=("hello", "world"))
        assert parse_instance(text) == ref_instance("tce", 1, 1)


class TestInstanceErrors:
    def test_layer_out_of_range(self):
        bad = REF_TEXT.replace("layer 3", "layer 4")
        with pytest.raises(ParseError) as err:
            parse_instance(bad)
        assert "layer" in str(err.value)
        assert "line" in str(err.value)

    def test_duplicate_edge(self):
        bad = REF_TEXT.replace("1 2\n1 3", "1 2\n1 2")
        with pytest.raises(ParseError) as err:
            parse_instance(bad)
        assert "duplicate edge" in str(err.value)

    def test_vertex_out_of_range(self):
        bad = REF_TEXT.replace("4 5\nlayer 2", "4 6\nlayer 2")
        with pytest.raises(ParseError) as err:
            parse_instance(bad)
        assert "not in range" in str(err.value)

    def test_missing_header_field(self):
        bad = REF_TEXT.replace("k 1\n", "")
        with pytest.raises(ParseError):
            parse_instance(bad)

    def test_missing_end(self):
        bad = REF_TEXT.replace("end\n", "")
        with pytest.raises(ParseError) as err:
            parse_instance(bad)
        assert "end" in str(err.value)

    def test_end_takes_no_arguments(self):
        assert REF_TEXT.endswith("end\n")
        with pytest.raises(ParseError) as err:
            parse_instance(REF_TEXT[:-len("end\n")] + "end extra\n")
        assert "expected 'end'" in str(err.value)

    def test_wrong_endpoint_order(self):
        bad = REF_TEXT.replace("1 2\n1 3", "2 1\n1 3")
        with pytest.raises(ParseError):
            parse_instance(bad)

    def test_unknown_version(self):
        assert REF_TEXT.count("mlg 1\n") == 1
        for header in ("mlg 9 extra", "mlg 3", "mlg", "mlg 1 1"):
            with pytest.raises(ParseError) as err:
                parse_instance(REF_TEXT.replace("mlg 1\n", header + "\n", 1))
            assert "expected 'mlg 1'" in str(err.value)

    @pytest.mark.parametrize("line", [
        "", "budgets", "budgets 1 0", "budgets 1 0 1 1", "budgets 1 x 0", "budgets 1 2 0",
    ], ids=["missing", "empty", "too short", "too long", "non-integer", "above k"])
    def test_malformed_budgets_line(self, line):
        assert REF_TEXT_2.count("budgets 1 0 -1\n") == 1
        with pytest.raises(ParseError) as err:
            parse_instance(REF_TEXT_2.replace("budgets 1 0 -1\n", line + "\n" if line else ""))
        assert err.value.line_no == 8  # the budgets line, or the line in its place


    @pytest.mark.parametrize("text,line,bad,line_no,message", [
        (REF_TEXT, "mode mlce", "mode xyz", 3, "unknown mode 'xyz'"),
        (REF_TEXT, "n 5", "n x", 4, "non-integer header field"),
        (REF_TEXT, "ell 3", "ell 0", 5, "out of range: 'ell 0'"),
        (REF_TEXT_2, "k 1", "k -1", 6, "out of range: 'k -1'"),
        (REF_TEXT_2, "budgets 1 0 -1", "budgets 1 0 2", 8, "3 budgets of at most k=1"),
    ], ids=["mode", "non-integer", "range", "range before budgets", "budgets"])
    def test_header_error_names_its_own_line(self, text, line, bad, line_no, message):
        assert text.count(line + "\n") == 1
        with pytest.raises(ParseError) as err:
            parse_instance(text.replace(line + "\n", bad + "\n"))
        assert err.value.line_no == line_no
        assert message in str(err.value)

class TestSolutionRoundTrip:
    def test_ref_tce_solution(self):
        inst = ref_instance("tce", 1, 1)
        sol = ref_tce_solution()
        text = serialize_solution(sol, inst)
        assert "markat 1 1" in text and "markat 2 5" in text
        assert "edit 1 del 4 5" in text and "edit 3 add 4 5" in text
        assert parse_solution(text, inst) == sol

    def test_empty_solution(self):
        inst = ref_instance("mlce", 1, 2)
        sol_text = "sol 1\nanswer yes\nend\n"
        sol = parse_solution(sol_text, inst)
        assert sol.edits == (frozenset(),) * 3 and sol.marked == frozenset()
        assert serialize_solution(sol, inst) == sol_text

    def test_answer_no(self):
        inst = ref_instance("mlce", 1, 2)
        assert parse_solution("sol 1\nanswer no\nend\n", inst) is None
        assert serialize_solution(None, inst) == "sol 1\nanswer no\nend\n"

    def test_random_round_trips(self, rng):
        from layeredit.oracle import oracle_mlce, oracle_tce
        for mode in ("mlce", "tce"):
            oracle = oracle_mlce if mode == "mlce" else oracle_tce
            done = 0
            while done < 15:
                inst = random_instance(rng, mode)
                sol = oracle(inst)
                if sol is None:
                    continue
                done += 1
                assert parse_solution(serialize_solution(sol, inst), inst) == sol

    def test_mark_line_in_tce_file_is_shape_error(self):
        inst = ref_instance("tce", 1, 1)
        with pytest.raises(ParseError) as err:
            parse_solution("sol 1\nanswer yes\nmark 1\nend\n", inst)
        assert "markat" in str(err.value)

    def test_second_end(self):
        inst = ref_instance("mlce", 1, 2)
        for text in ("sol 1\nanswer yes\nend\nend\n", "sol 1\nanswer yes\nmark 1\nend\nend\n"):
            with pytest.raises(ParseError) as err:
                parse_solution(text, inst)
            assert "content after 'end'" in str(err.value)

    def test_del_of_absent_edge(self):
        inst = ref_instance("mlce", 1, 2)
        with pytest.raises(ParseError):
            parse_solution("sol 1\nanswer yes\nedit 1 del 1 5\nend\n", inst)

    def test_unknown_version(self):
        inst = ref_instance("mlce", 1, 2)
        for header in ("sol 7", "sol", "sol 1 x"):
            with pytest.raises(ParseError) as err:
                parse_solution(header + "\nanswer no\nend\n", inst)
            assert "expected 'sol 1'" in str(err.value)


class TestPlanted:
    def test_deterministic(self):
        params = PlantedParams(n=8, ell=3, cluster_count=3, drift_per_layer=1,
                               noise_edits=1, seed=42)
        assert generate_planted(params, "mlce") == generate_planted(params, "mlce")

    def test_clean_instance_is_yes_at_zero(self, rng):
        for seed in range(10):
            params = PlantedParams(n=5, ell=3, cluster_count=2, seed=seed)
            inst = generate_planted(params, "mlce")
            assert inst.k == 0 and inst.d == 0
            assert all(g.edges == inst.layers[0].edges for g in inst.layers)
            assert oracle_mlce(inst) is not None

    def test_noise_one_is_yes_at_k1_d0(self):
        for seed in range(10):
            params = PlantedParams(n=5, ell=2, cluster_count=2, noise_edits=1,
                                   seed=seed)
            inst = generate_planted(params, "mlce")
            assert inst.k == 1 and inst.d == 0
            assert oracle_mlce(inst) is not None

    def test_drift_budgets_suffice(self):
        for mode in ("mlce", "tce"):
            oracle = oracle_mlce if mode == "mlce" else oracle_tce
            for seed in range(8):
                params = PlantedParams(n=5, ell=3, cluster_count=2,
                                       drift_per_layer=1, seed=seed)
                inst = generate_planted(params, mode)
                assert oracle(inst) is not None

    def test_log_carries_ground_truth(self):
        params = PlantedParams(n=4, ell=2, cluster_count=2, drift_per_layer=1,
                               noise_edits=1, seed=7)
        inst, log = generate_planted_logged(params, "tce")
        assert any(line.startswith("planted seed=7") for line in log)
        assert any("truth layer 1" in line for line in log)
        assert parse_instance(serialize_instance(inst, log)) == inst


REF_FORMULA = Formula223(3, ((1, -2, 3), (-1, -2, -3), (1, 2, -3), (-1, 2, 3)))


class TestSatReduction:
    def test_reference_formula_dimensions(self):
        inst = generate_sat_reduction(REF_FORMULA)
        assert inst.n == 24
        assert inst.d == 14
        assert inst.k == 0 and inst.ell == 3 and inst.mode == "mlce"

    def test_always_three_layers_zero_edits(self, rng):
        for formula in (REF_FORMULA, Formula223(1, ((1, 1), (-1, -1)))):
            inst = generate_sat_reduction(formula)
            assert inst.ell == 3 and inst.k == 0

    def test_variable_gadget_is_union_of_4_cycles(self):
        inst = generate_sat_reduction(REF_FORMULA)
        nv = REF_FORMULA.n_vars
        diff = inst.layers[0].edges ^ inst.layers[1].edges
        var_vertices = set(range(1, 4 * nv + 1))
        diff_var = {p for p in diff if set(p) <= var_vertices}
        # per variable: x1-y1, x2-y2, x1-y2, x2-y1 form one 4-cycle
        assert len(diff_var) == 4 * nv
        for i in range(nv):
            base = 4 * i
            x1, y1, x2, y2 = base + 1, base + 2, base + 3, base + 4
            cycle = {tuple(sorted(e)) for e in [(x1, y1), (x2, y2), (x1, y2), (x2, y1)]}
            assert cycle <= diff_var

    def test_occurrence_invariant_enforced(self):
        with pytest.raises(InputError):
            Formula223(2, ((1, 2), (1, 2), (-1, -2)))

    def test_sat_iff_reduction_yes(self):
        sat = Formula223(1, ((1, -1), (1, -1)))
        unsat = Formula223(1, ((1, 1), (-1, -1)))
        assert sat.satisfiable()
        assert not unsat.satisfiable()
        assert oracle_mlce(generate_sat_reduction(sat)) is not None
        assert oracle_mlce(generate_sat_reduction(unsat)) is None

    def test_reduction_yes_verifies(self):
        inst = generate_sat_reduction(REF_FORMULA)
        sol = oracle_mlce(inst)
        assert sol is not None and verify(inst, sol).ok


class TestParseFormula:
    def test_basic(self):
        f = parse_formula("# comment\n1 -2 3\n-1 -2 -3\n1 2 -3\n-1 2 3\n")
        assert f == REF_FORMULA

    def test_zero_literal_rejected(self):
        with pytest.raises(ParseError):
            parse_formula("1 0\n-1 -1\n")
